//! Drives the compiled `cpssec` binary: error paths must exit non-zero
//! with a single stderr line (no panics, no usage dumps), and
//! `serve`/`load` must survive a real client run plus a clean SIGTERM.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use cpssec_model::{fnv1a_64, fnv1a_64_wide};

fn cpssec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpssec"))
}

/// Runs the binary, returning (exit success, stdout, stderr).
fn run(args: &[&str]) -> (bool, String, String) {
    let output = cpssec().args(args).output().expect("spawn cpssec");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_one_line_failure(args: &[&str], needle: &str) {
    let (success, _stdout, stderr) = run(args);
    assert!(!success, "{args:?} should exit non-zero");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} stderr must be one line, got: {stderr:?}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr should mention {needle:?}: {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn associate_scada_with_trace_emits_a_valid_chrome_trace() {
    let dir = std::env::temp_dir().join("cpssec-bin-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("associate.trace.json");
    let path_str = path.to_str().expect("utf8 path");

    let (success, stdout, stderr) =
        run(&["associate", "scada", "--scale", "0.01", "--trace", path_str]);
    assert!(success, "associate failed: {stderr}");
    assert!(stdout.contains("total:"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let value = cpssec_attackdb::json::parse(&text).expect("trace is valid json");
    let events = value
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "trace should contain span events");
    let mut names = Vec::new();
    let mut tids = std::collections::BTreeSet::new();
    for event in events {
        // Complete events carry a phase, a timestamp, and a duration.
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(event.get("ts").is_some(), "missing ts: {event:?}");
        assert!(event.get("dur").is_some(), "missing dur: {event:?}");
        if let Some(name) = event.get("name").and_then(|v| v.as_str()) {
            names.push(name.to_owned());
        }
        tids.insert(format!("{:?}", event.get("tid")));
    }
    for stage in ["tokenize", "score", "associate"] {
        assert!(
            names.iter().any(|n| n == stage),
            "missing {stage} span, got {names:?}"
        );
    }
    // The index build fans out to shard threads that have exited by the
    // time the trace is written; their spans must still be exported.
    assert!(
        tids.len() >= 2,
        "spans from {} thread ids: {tids:?}",
        tids.len()
    );
}

#[test]
fn unknown_subcommand_is_a_one_line_error() {
    assert_one_line_failure(&["frobnicate"], "unknown command");
}

#[test]
fn missing_command_is_a_one_line_error() {
    assert_one_line_failure(&[], "missing command");
}

#[test]
fn unreadable_model_file_is_a_one_line_error() {
    assert_one_line_failure(
        &["associate", "/nonexistent/model.graphml", "--scale", "0.01"],
        "cannot read",
    );
}

#[test]
fn malformed_graphml_is_a_one_line_error() {
    let dir = std::env::temp_dir().join("cpssec-bin-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("broken.graphml");
    std::fs::write(&path, "<graphml><unclosed").expect("write");
    let path = path.to_str().expect("utf8 path");
    assert_one_line_failure(&["associate", path, "--scale", "0.01"], "cannot parse");
}

#[test]
fn bad_flag_values_are_one_line_errors() {
    assert_one_line_failure(&["serve", "--workers", "0"], "invalid workers");
    assert_one_line_failure(&["load", "--clients", "none"], "invalid clients");
}

/// Asserts `args` exits with code 1 and prints exactly `cpssec: {message}`
/// as its only stderr line.
fn assert_exit_1_with(args: &[&str], message: &str) {
    let output = cpssec().args(args).output().expect("spawn cpssec");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr, format!("cpssec: {message}\n"), "{args:?}");
}

#[test]
fn non_finite_and_oversized_scales_exit_1_on_one_line() {
    for scale in ["NaN", "inf", "1e300"] {
        assert_exit_1_with(
            &["table1", "--scale", scale],
            &format!("invalid scale `{scale}`"),
        );
    }
}

#[test]
fn zero_ticks_exit_1_on_one_line() {
    assert_exit_1_with(
        &["simulate", "nominal", "--ticks", "0"],
        "invalid ticks `0`",
    );
}

/// A fresh, empty directory for one test.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("cpssec-bin-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn in_place_delta_apply_matches_out_and_leaves_no_temp_file() {
    let dir = fresh_dir("in-place");
    let path = |name: &str| dir.join(name).to_str().expect("utf8 path").to_owned();
    let (base, delta, out) = (path("base.cpsnap"), path("d.cpsdelta"), path("out.cpsnap"));
    let ok = |args: &[&str]| {
        let (success, _, stderr) = run(args);
        assert!(success, "{args:?}: {stderr}");
    };
    ok(&["snapshot", "build", &base, "--scale", "0.01"]);
    ok(&["delta", "build", &base, &delta, "--records", "25"]);
    ok(&["delta", "apply", &base, &delta, "--out", &out]);
    let pristine = std::fs::read(&base).expect("read base");
    // A reader that opened the base before the in-place apply keeps
    // seeing the old bytes: the base is replaced, never truncated.
    let mut held = std::fs::File::open(&base).expect("open base");
    ok(&["delta", "apply", &base, &delta]);
    let mut seen = Vec::new();
    std::io::Read::read_to_end(&mut held, &mut seen).expect("read held base");
    assert!(seen == pristine, "the held base changed under its reader");
    let grown = std::fs::read(&out).expect("read --out result");
    assert_eq!(std::fs::read(&base).expect("read base"), grown);
    assert_eq!(
        file_names(&dir),
        ["base.cpsnap", "d.cpsdelta", "out.cpsnap"],
        "only the written files remain"
    );
    let (success, stdout, _) = run(&["snapshot", "verify", &base]);
    assert!(success && stdout.starts_with("ok: "), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writing_into_a_missing_directory_fails_on_one_line_and_creates_nothing() {
    let dir = fresh_dir("missing");
    let missing = dir.join("no-such-dir");
    let target = missing.join("x.cpsnap");
    let target = target.to_str().expect("utf8 path");
    assert_one_line_failure(
        &["snapshot", "build", target, "--scale", "0.01"],
        "cannot write",
    );
    assert!(!missing.exists(), "the missing directory was created");
    assert!(file_names(&dir).is_empty(), "{:?}", file_names(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_exits_zero_with_usage() {
    let (success, stdout, _) = run(&["help"]);
    assert!(success);
    assert!(stdout.contains("cpssec serve"));
    assert!(stdout.contains("cpssec load"));
}

#[test]
#[cfg(unix)]
fn serve_survives_load_and_sigterm_shuts_down_cleanly() {
    let dir = std::env::temp_dir().join("cpssec-bin-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let trace_path = dir.join("serve.trace.json");
    let _ = std::fs::remove_file(&trace_path);
    // Ephemeral port, tiny corpus for fast startup. --trace proves the
    // SIGTERM drain also flushes the span ring to disk.
    let mut serve = cpssec()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--scale",
            "0.01",
            "--trace",
            trace_path.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let stdout = serve.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let (success, stdout, stderr) = run(&[
        "load",
        "--addr",
        &addr,
        "--clients",
        "4",
        "--requests",
        "12",
    ]);
    assert!(success, "load failed: {stdout} {stderr}");
    assert!(stdout.contains(" 0 errors"), "{stdout}");

    // SIGTERM → graceful drain → exit code 0 and the shutdown banner.
    let term = Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = serve.wait().expect("serve exit");
    assert!(status.success(), "serve exited with {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("drain stdout");
    assert!(rest.contains("shutdown complete"), "{rest:?}");

    // Final telemetry snapshot is printed before the shutdown banner.
    let snapshot_line = rest
        .lines()
        .find(|l| l.starts_with("final snapshot: "))
        .unwrap_or_else(|| panic!("missing final snapshot line: {rest:?}"));
    assert!(snapshot_line.contains("requests"), "{snapshot_line}");
    assert!(snapshot_line.contains("cache"), "{snapshot_line}");

    // The drained trace ring made it to disk, and served spans carry
    // per-request trace ids for Perfetto grouping.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written on drain");
    let value = cpssec_attackdb::json::parse(&text).expect("trace is valid json");
    let events = value
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    let served: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("serve-request"))
        .collect();
    assert!(!served.is_empty(), "no serve-request spans in trace");
    for event in &served {
        let trace_id = event
            .get("args")
            .and_then(|a| a.get("trace_id"))
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("serve-request span missing trace_id: {event:?}"));
        assert_eq!(trace_id.len(), 32, "{trace_id}");
        assert_ne!(trace_id, "0".repeat(32));
    }
}

#[test]
#[cfg(unix)]
fn sigterm_drain_closes_idle_keep_alive_connections() {
    use std::io::{Read, Write};

    // Regression: an idle keep-alive connection used to pin the drain —
    // the server joined it forever and SIGTERM never finished. The
    // reactor's idle sweep must close it immediately instead.
    let mut serve = cpssec()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--scale",
            "0.01",
            "--max-conns",
            "64",
            "--queue-depth",
            "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let stdout = serve.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    // One completed request, then the connection goes idle — no
    // Connection: close, nothing more to send.
    let mut idle = std::net::TcpStream::connect(&addr).expect("connect");
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("send");
    let mut response = [0u8; 512];
    let n = idle.read(&mut response).expect("response");
    assert!(
        std::str::from_utf8(&response[..n])
            .expect("utf8")
            .starts_with("HTTP/1.1 200"),
        "keep-alive request served before drain"
    );

    let sigterm_at = std::time::Instant::now();
    let term = Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // The idle connection is *closed*, not joined forever: the client
    // sees EOF and the process exits promptly.
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let n = idle.read(&mut response).expect("drain closes, not hangs");
    assert_eq!(n, 0, "drain sends no bytes to an idle connection, just EOF");

    let status = serve.wait().expect("serve exit");
    assert!(status.success(), "serve exited with {status:?}");
    assert!(
        sigterm_at.elapsed() < std::time::Duration::from_secs(10),
        "drain stalled on an idle keep-alive connection"
    );
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("drain stdout");
    assert!(rest.contains("shutdown complete"), "{rest:?}");
}

/// Builds a snapshot of the tiny corpus into a fresh temp dir and returns
/// its path as a string.
#[cfg(unix)]
fn build_snapshot(name: &str) -> String {
    let dir = std::env::temp_dir().join("cpssec-bin-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(name);
    let path = path.to_str().expect("utf8 path").to_owned();
    let (success, stdout, stderr) = run(&["snapshot", "build", &path, "--scale", "0.01"]);
    assert!(success, "snapshot build failed: {stderr}");
    assert!(stdout.contains("wrote "), "{stdout}");
    path
}

/// Sets the `tf` of the first vulnerabilities posting in a `.cpsnap` to 0
/// and recomputes that section's checksum and the `snapshot_id`, so the
/// bytes pass every integrity check and only the index validator can
/// refuse them.
fn zero_first_vulnerability_tf(bytes: &mut [u8]) {
    let u32_at =
        |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    let u64_at =
        |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    // Header: magic, version, section count, snapshot id; then four
    // 26-byte table entries (id, offset, len, checksum), vulnerabilities
    // last.
    let (table, entry) = (20, 20 + 3 * 26);
    let (start, len) = (u64_at(bytes, entry + 2), u64_at(bytes, entry + 10));
    // Section: ids (6 bytes each), severity codes (1 byte each), lengths,
    // term heap, 16-byte entries, then the postings arena.
    let docs = u32_at(bytes, start);
    let terms_at = start + 4 + docs * 6 + docs + 4 + docs * 4;
    let (terms, heap_len) = (u32_at(bytes, terms_at), u32_at(bytes, terms_at + 4));
    let first_tf = terms_at + 8 + heap_len + terms * 16 + 4 + 4;
    bytes[first_tf..first_tf + 4].copy_from_slice(&0u32.to_le_bytes());
    let checksum = fnv1a_64_wide(&bytes[start..start + len]);
    bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
    let id = fnv1a_64_wide(&bytes[table..table + 4 * 26]);
    bytes[12..20].copy_from_slice(&id.to_le_bytes());
}

/// Sets the first pattern record's directory offset in a `.cpsnap`'s
/// corpus section to 1 and recomputes that section's checksum and the
/// `snapshot_id`: the section still tiles, so only the record decode
/// refuses it.
fn misplace_first_pattern_record(bytes: &mut [u8]) {
    let u64_at =
        |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    // Header: magic, version, section count, snapshot id; then four
    // 26-byte table entries (id, offset, len, checksum), corpus first.
    let (table, entry) = (20, 20);
    let (start, len) = (u64_at(bytes, entry + 2), u64_at(bytes, entry + 10));
    // Section: the pattern count, then one u32 offset per pattern.
    bytes[start + 4..start + 8].copy_from_slice(&1u32.to_le_bytes());
    let checksum = fnv1a_64_wide(&bytes[start..start + len]);
    bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
    let id = fnv1a_64_wide(&bytes[table..table + 4 * 26]);
    bytes[12..20].copy_from_slice(&id.to_le_bytes());
}

#[test]
#[cfg(unix)]
fn a_snapshot_with_a_bad_corpus_record_fails_the_boot_before_listening() {
    let path = build_snapshot("bad-record.cpsnap");
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    misplace_first_pattern_record(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");
    let output = cpssec()
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot", &path])
        .output()
        .expect("spawn cpssec");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert_eq!(output.status.code(), Some(1), "{stdout}{stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(stderr.contains("invalid snapshot"), "{stderr}");
    assert!(
        stderr.contains("`patterns` record 0 directory entry is out of bounds"),
        "{stderr}"
    );
}

#[test]
#[cfg(unix)]
fn a_snapshot_with_a_bad_posting_fails_the_boot_before_listening() {
    let path = build_snapshot("bad-tf.cpsnap");
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    zero_first_vulnerability_tf(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");
    assert_one_line_failure(&["snapshot", "verify", &path], "posting tf 0 is outside");
    let output = cpssec()
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot", &path])
        .output()
        .expect("spawn cpssec");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert_eq!(output.status.code(), Some(1), "{stdout}{stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(stderr.contains("posting tf 0 is outside"), "{stderr}");
}

#[test]
#[cfg(unix)]
fn snapshot_build_inspect_verify_round_trip() {
    let path = build_snapshot("roundtrip.cpsnap");

    let (success, stdout, _) = run(&["snapshot", "inspect", &path]);
    assert!(success);
    assert!(stdout.contains("format version 4"), "{stdout}");
    assert!(stdout.contains("snapshot id"), "{stdout}");
    for section in ["corpus", "patterns", "weaknesses", "vulnerabilities"] {
        assert!(stdout.contains(section), "missing {section}: {stdout}");
    }

    let (success, stdout, _) = run(&["snapshot", "verify", &path]);
    assert!(success);
    assert!(stdout.starts_with("ok: "), "{stdout}");
}

#[test]
fn snapshot_usage_errors_are_one_line() {
    assert_one_line_failure(&["snapshot"], "needs an action");
    assert_one_line_failure(&["snapshot", "verify"], "needs a .cpsnap file path");
    assert_one_line_failure(
        &["snapshot", "defrost", "x.cpsnap"],
        "unknown snapshot action",
    );
    assert_one_line_failure(
        &["snapshot", "verify", "/nonexistent/x.cpsnap"],
        "cannot read",
    );
    assert_one_line_failure(
        &["serve", "--snapshot", "/nonexistent/x.cpsnap"],
        "cannot read",
    );
}

#[test]
#[cfg(unix)]
fn corrupted_snapshots_fail_verify_with_one_line_errors() {
    let path = build_snapshot("corrupt.cpsnap");
    let pristine = std::fs::read(&path).expect("read snapshot");
    let dir = std::env::temp_dir().join("cpssec-bin-test");

    // Truncated file.
    let truncated = dir.join("truncated.cpsnap");
    std::fs::write(&truncated, &pristine[..pristine.len() / 2]).expect("write");
    assert_one_line_failure(
        &["snapshot", "verify", truncated.to_str().unwrap()],
        "truncated",
    );

    // Bad magic.
    let mut bytes = pristine.clone();
    bytes[0] = b'Z';
    let bad_magic = dir.join("bad-magic.cpsnap");
    std::fs::write(&bad_magic, &bytes).expect("write");
    assert_one_line_failure(
        &["snapshot", "verify", bad_magic.to_str().unwrap()],
        "magic",
    );

    // Wrong format version.
    let mut bytes = pristine.clone();
    bytes[6] = 0xFE;
    let bad_version = dir.join("bad-version.cpsnap");
    std::fs::write(&bad_version, &bytes).expect("write");
    assert_one_line_failure(
        &["snapshot", "verify", bad_version.to_str().unwrap()],
        "version",
    );

    // Payload bit flip → checksum mismatch, and inspect (header-only)
    // still succeeds on the same file.
    let mut bytes = pristine.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    let bad_sum = dir.join("bad-checksum.cpsnap");
    let bad_sum_path = bad_sum.to_str().unwrap().to_owned();
    std::fs::write(&bad_sum, &bytes).expect("write");
    assert_one_line_failure(&["snapshot", "verify", &bad_sum_path], "checksum");
    assert_one_line_failure(&["serve", "--snapshot", &bad_sum_path], "checksum");
    let (success, stdout, _) = run(&["snapshot", "inspect", &bad_sum_path]);
    assert!(success, "inspect reads headers only");
    assert!(stdout.contains("format version 4"), "{stdout}");

    // Byte-flip sweep over every section: a flip in the middle of each
    // payload is caught by that section's own checksum, both by `verify`
    // and by the zero-copy `serve --snapshot` boot path.
    let (success, json, _) = run(&["snapshot", "inspect", &path, "--json"]);
    assert!(success);
    let info = cpssec_attackdb::json::parse(json.trim()).expect("inspect --json is valid json");
    let sections = info.get("sections").unwrap().as_array().unwrap();
    assert_eq!(sections.len(), 4, "{json}");
    let as_usize = |value: &cpssec_attackdb::json::JsonValue| match value {
        cpssec_attackdb::json::JsonValue::Number(n) => *n as usize,
        other => panic!("expected a number, got {other:?}"),
    };
    for section in sections {
        let name = section.get("name").and_then(|v| v.as_str()).unwrap();
        let offset = as_usize(section.get("offset").unwrap());
        let len = as_usize(section.get("bytes").unwrap());
        let mut bytes = pristine.clone();
        bytes[offset + len / 2] ^= 0xFF;
        let flipped = dir.join(format!("flip-{name}.cpsnap"));
        let flipped_path = flipped.to_str().unwrap().to_owned();
        std::fs::write(&flipped, &bytes).expect("write");
        assert_one_line_failure(&["snapshot", "verify", &flipped_path], name);
        assert_one_line_failure(&["snapshot", "verify", &flipped_path], "checksum");
        assert_one_line_failure(&["serve", "--snapshot", &flipped_path], "checksum");
    }
}

#[test]
#[cfg(unix)]
fn corrupted_deltas_fail_with_one_line_errors() {
    let base = build_snapshot("delta-corrupt.cpsnap");
    let dir = std::env::temp_dir().join("cpssec-bin-test");
    let delta = dir.join("corrupt.cpsdelta");
    let delta_path = delta.to_str().unwrap().to_owned();
    let (success, stdout, stderr) = run(&["delta", "build", &base, &delta_path, "--records", "30"]);
    assert!(success, "delta build failed: {stderr}");
    assert!(stdout.contains("30 records"), "{stdout}");
    let pristine = std::fs::read(&delta).expect("read delta");

    let write_variant = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.to_str().unwrap().to_owned()
    };

    let truncated = write_variant("truncated.cpsdelta", &pristine[..pristine.len() / 2]);
    assert_one_line_failure(&["delta", "inspect", &truncated], "truncated");

    let mut bytes = pristine.clone();
    bytes[0] = b'Z';
    let bad_magic = write_variant("bad-magic.cpsdelta", &bytes);
    assert_one_line_failure(&["delta", "inspect", &bad_magic], "magic");

    let mut bytes = pristine.clone();
    bytes[6] = 0xFE;
    let bad_version = write_variant("bad-version.cpsdelta", &bytes);
    assert_one_line_failure(&["delta", "inspect", &bad_version], "version");

    // A payload flip fails the delta's own checksum before any record is
    // parsed, on inspect and on apply alike.
    let mut bytes = pristine.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    let bad_sum = write_variant("bad-checksum.cpsdelta", &bytes);
    assert_one_line_failure(&["delta", "inspect", &bad_sum], "checksum");
    assert_one_line_failure(&["delta", "apply", &base, &bad_sum], "checksum");

    // Replaying the same delta twice breaks the parent chain.
    assert_one_line_failure(
        &["delta", "apply", &base, &delta_path, &delta_path],
        "parent",
    );
}

#[test]
#[cfg(unix)]
fn serve_boots_from_a_snapshot_and_survives_load() {
    let path = build_snapshot("serve.cpsnap");
    let mut serve = cpssec()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--snapshot",
            &path,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let stdout = serve.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let (success, stdout, stderr) =
        run(&["load", "--addr", &addr, "--clients", "2", "--requests", "8"]);
    assert!(success, "load failed: {stdout} {stderr}");
    assert!(stdout.contains(" 0 errors"), "{stdout}");

    let term = Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = serve.wait().expect("serve exit");
    assert!(status.success(), "serve exited with {status:?}");
}

#[test]
fn corrupted_flight_dumps_fail_inspect_with_one_line_errors() {
    // A pristine dump built in-process (the same encoder the server's
    // alert/panic/SIGUSR1 triggers use), then a corruption sweep
    // mirroring the `.cpsnap` one: every damaged variant must be a
    // distinct single-line error, never a panic.
    let dir = std::env::temp_dir().join("cpssec-bin-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    cpssec_obs::flight::set_enabled(true);
    cpssec_obs::flight::event(
        cpssec_obs::FlightKind::Request,
        0xabcd,
        cpssec_obs::flight::label_id("GET /healthz") << 16 | 200,
    );
    let pristine = cpssec_obs::flight::encode_dump(&cpssec_obs::flight::DumpInput {
        reason: "sweep",
        requests_json: "{\"requests\":[]}",
        alerts_json: "{\"alerts\":[]}",
        metrics_text: "up 1\n",
    });
    let write_variant = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path.to_str().unwrap().to_owned()
    };

    // The pristine file round-trips through the real binary.
    let good = write_variant("sweep.cpsflight", &pristine);
    let (success, stdout, stderr) = run(&["flight", "inspect", &good]);
    assert!(success, "inspect failed: {stderr}");
    assert!(stdout.contains("reason: sweep"), "{stdout}");
    assert!(stdout.contains("GET /healthz"), "{stdout}");

    let truncated = write_variant("truncated.cpsflight", &pristine[..pristine.len() / 2]);
    assert_one_line_failure(&["flight", "inspect", &truncated], "truncated");

    let mut bytes = pristine.clone();
    bytes[0] = b'Z';
    let bad_magic = write_variant("bad-magic.cpsflight", &bytes);
    assert_one_line_failure(&["flight", "inspect", &bad_magic], "magic");

    // Version is the u16 right after the 6-byte magic.
    let mut bytes = pristine.clone();
    bytes[6] = 0xFE;
    let bad_version = write_variant("bad-version.cpsflight", &bytes);
    assert_one_line_failure(&["flight", "inspect", &bad_version], "version");

    // The section table itself is covered by the dump id.
    let mut bytes = pristine.clone();
    bytes[16] ^= 0xFF;
    let bad_table = write_variant("bad-table.cpsflight", &bytes);
    assert_one_line_failure(&["flight", "inspect", &bad_table], "section table");

    // A mid-payload flip in every section is caught by that section's
    // own checksum.
    let info = cpssec_obs::flight::inspect(&pristine).expect("pristine inspects clean");
    for section in info.sections.iter().filter(|s| s.len > 0) {
        let mut bytes = pristine.clone();
        let at = (section.offset + section.len / 2) as usize;
        bytes[at] ^= 0xFF;
        let flipped = write_variant(&format!("flip-{}.cpsflight", section.name), &bytes);
        assert_one_line_failure(&["flight", "inspect", &flipped], "checksum");
        assert_one_line_failure(&["flight", "inspect", &flipped], section.name);
    }

    // A `labels` count of 0xFFFF_FFF0 under a recomputed section
    // checksum and dump id: the count must not size an allocation, so
    // the read runs out of bytes and fails with exit 1, not an abort.
    let labels = info.sections.iter().find(|s| s.name == "labels").unwrap();
    let mut bytes = pristine.clone();
    let (start, len) = (labels.offset as usize, labels.len as usize);
    bytes[start..start + 4].copy_from_slice(&0xFFFF_FFF0_u32.to_le_bytes());
    // Header: magic, version, section count, dump id; then seven 26-byte
    // table entries (id, offset, len, checksum), labels second.
    let (table, entry) = (20, 20 + 26);
    let checksum = fnv1a_64(&bytes[start..start + len]);
    bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
    let id = fnv1a_64(&bytes[table..table + 7 * 26]);
    bytes[12..20].copy_from_slice(&id.to_le_bytes());
    let huge = write_variant("huge-count.cpsflight", &bytes);
    let output = cpssec()
        .args(["flight", "inspect", &huge])
        .output()
        .expect("spawn cpssec");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert_one_line_failure(&["flight", "inspect", &huge], "truncated");
}
