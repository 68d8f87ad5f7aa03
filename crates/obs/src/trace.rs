//! Chrome `trace_event` JSON export (loadable in `chrome://tracing`
//! and Perfetto) of the completed spans the [`crate::flight`] rings
//! hold.

/// One completed span, read from a thread's flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub stage: u16,
    pub depth: u16,
    pub tid: u32,
    pub ts_us: u64,
    pub dur_us: u64,
    pub items: u64,
    /// Request trace id the span belonged to (0 when none was active).
    pub trace: u128,
}

/// Minimal JSON string escaping (names and labels are plain ASCII in
/// practice, but stay correct regardless).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render events as a Chrome `trace_event` JSON object: complete
/// (`"ph":"X"`) events with microsecond `ts`/`dur`. Nesting in the
/// viewer comes from time containment per thread track.
pub fn chrome_trace_json(events: &[TraceEvent], stage_name: impl Fn(u16) -> String) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let trace_arg = if e.trace == 0 {
            String::new()
        } else {
            format!(",\"trace_id\":\"{:032x}\"", e.trace)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"cpssec\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"items\":{},\"depth\":{}{}}}}}",
            escape_json(&stage_name(e.stage)),
            e.tid,
            e.ts_us,
            e.dur_us,
            e.items,
            e.depth,
            trace_arg,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u128) -> TraceEvent {
        TraceEvent {
            stage: 0,
            depth: 1,
            tid: 7,
            ts_us: 5,
            dur_us: 17,
            items: 2,
            trace,
        }
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[span(0)], |_| "associate".to_string());
        for key in [
            "\"ph\":\"X\"",
            "\"ts\":5",
            "\"dur\":17",
            "\"tid\":7",
            "\"args\":{\"items\":2,\"depth\":1}",
            "\"name\":\"associate\"",
        ] {
            assert!(json.contains(key), "{key} missing: {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn trace_id_key_only_when_set() {
        let json = chrome_trace_json(&[span(0xab), span(0)], |_| "serve".to_string());
        assert!(json.contains("\"trace_id\":\"000000000000000000000000000000ab\""));
        assert_eq!(json.matches("trace_id").count(), 1);
    }

    #[test]
    fn escapes_controls() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        let json = chrome_trace_json(&[span(0)], |_| "x\"y".to_string());
        assert!(json.contains("\"name\":\"x\\\"y\""), "{json}");
    }
}
