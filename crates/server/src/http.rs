//! A minimal HTTP/1.1 reader/writer — exactly the subset the analysis
//! service speaks.
//!
//! Supported: request line + headers + `Content-Length` bodies, percent
//! decoding of the request target, keep-alive with `Connection: close`
//! honored (and HTTP/1.0 closing unless it asks for keep-alive).
//! Deliberately absent: chunked transfer encoding, trailers, upgrades,
//! HTTP/2 — an analyst dashboard client needs none of them. A request
//! that declares `Transfer-Encoding` is rejected, never read as if it had
//! no body.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum accepted body size (a GraphML model upload fits comfortably).
pub const MAX_BODY: usize = 8 * 1024 * 1024;
/// Maximum accepted header count.
const MAX_HEADERS: usize = 100;
/// Maximum accepted line length (request line or one header).
const MAX_LINE: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded query parameters in document order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.0`.
    pub http_1_0: bool,
}

impl Request {
    /// First value of a query parameter.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A header value by (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection closes after this exchange: the client
    /// sent `Connection: close`, or spoke HTTP/1.0 without
    /// `Connection: keep-alive` (RFC 7230 §6.3).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        let has = |option: &str| {
            self.header("connection").is_some_and(|v| {
                v.split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case(option))
            })
        };
        has("close") || (self.http_1_0 && !has("keep-alive"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The request violates the protocol subset (message for the client).
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge,
    /// Transport error (including read timeouts on idle keep-alives).
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::TooLarge => write!(f, "request body too large"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if raw.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Malformed("truncated line".into()))
            };
        }
        byte[0] = buf[0];
        reader.consume(1);
        if byte[0] == b'\n' {
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
            let line = String::from_utf8(raw)
                .map_err(|_| HttpError::Malformed("line is not UTF-8".into()))?;
            return Ok(Some(line));
        }
        raw.push(byte[0]);
        if raw.len() > MAX_LINE {
            return Err(HttpError::Malformed("line too long".into()));
        }
    }
}

/// Reads one request, or `Ok(None)` at a clean end of stream (the peer
/// closed an idle keep-alive connection).
///
/// # Errors
///
/// [`HttpError`] for protocol violations, oversized bodies, and transport
/// failures.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    // Methods and targets are token/URI material: visible ASCII only.
    // Splitting on ' ' alone would otherwise accept a tab or other
    // control bytes as a "non-empty" method.
    let is_graphic = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_graphic());
    let method = parts
        .next()
        .filter(|m| is_graphic(m))
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_owned();
    let target = parts
        .next()
        .filter(|t| is_graphic(t))
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)
        .ok_or_else(|| HttpError::Malformed("bad percent escape in path".into()))?;
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k, true)
                .ok_or_else(|| HttpError::Malformed("bad percent escape in query".into()))?;
            let v = percent_decode(v, true)
                .ok_or_else(|| HttpError::Malformed("bad percent escape in query".into()))?;
            query.push((k, v));
        }
    }

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| HttpError::Malformed("truncated headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed("header without colon".into()))?;
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty() {
            return Err(HttpError::Malformed("header with empty name".into()));
        }
        let value = value.trim().to_owned();
        // RFC 7230 §3.3.3: a request with a transfer coding this parser
        // cannot frame must be rejected. Reading it as bodiless would
        // parse its chunks as the next request, where a proxy in front
        // sees one request: the smuggling desync.
        if name == "transfer-encoding" {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }
        if name == "content-length" {
            let parsed = value
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
            // RFC 7230 §3.3.2: duplicate Content-Length headers are only
            // acceptable when they agree; a last-wins (or first-wins)
            // policy here is the classic request-smuggling desync.
            if content_length.is_some_and(|previous| previous != parsed) {
                return Err(HttpError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            content_length = Some(parsed);
        }
        headers.push((name, value));
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        io::Read::read_exact(reader, &mut body)?;
    }

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
        http_1_0: version == "HTTP/1.0",
    }))
}

/// Outcome of one incremental parse attempt over buffered bytes.
#[derive(Debug)]
pub enum Incremental {
    /// A full request was parsed; `usize` is how many bytes of the
    /// buffer it consumed (the remainder may hold pipelined requests).
    Complete(Request, usize),
    /// The buffer holds a prefix of a potentially valid request; read
    /// more bytes and try again.
    NeedMore,
}

/// Classifies a one-shot parse failure over a finite buffer: did the
/// request fail because it is *invalid*, or merely because the buffer
/// ends before the request does?
fn is_incomplete(e: &HttpError) -> bool {
    match e {
        // `read_exact` on a short slice: the declared body has not fully
        // arrived yet. A slice can produce no other I/O error.
        HttpError::Io(e) => e.kind() == io::ErrorKind::UnexpectedEof,
        // EOF mid-line / mid-head. Over-long lines and header floods
        // error out *before* the buffer ends, so those stay errors.
        HttpError::Malformed(m) => m == "truncated line" || m == "truncated headers",
        HttpError::TooLarge => false,
    }
}

/// Attempts to parse one request from an accumulated byte buffer without
/// consuming it. This is the readiness-loop counterpart of
/// [`read_request`]: it runs the *same* parser over the buffer, so a
/// request split at any byte boundary parses identically to a one-shot
/// read once the missing bytes arrive.
///
/// # Errors
///
/// [`HttpError::Malformed`]/[`HttpError::TooLarge`] exactly when
/// [`read_request`] would reject the same bytes; never `Io`.
pub fn parse_request_bytes(buf: &[u8]) -> Result<Incremental, HttpError> {
    let mut slice = buf;
    match read_request(&mut slice) {
        Ok(Some(request)) => Ok(Incremental::Complete(request, buf.len() - slice.len())),
        Ok(None) => Ok(Incremental::NeedMore), // Empty buffer.
        Err(e) if is_incomplete(&e) => Ok(Incremental::NeedMore),
        Err(e) => Err(e),
    }
}

/// Decodes `%hh` escapes; in query position (`plus_is_space`) `+` decodes
/// to a space. Returns `None` on a truncated or non-hex escape or invalid
/// UTF-8.
#[must_use]
pub fn percent_decode(raw: &str, plus_is_space: bool) -> Option<String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Percent-encodes a string for use in a URL path segment or query value.
#[must_use]
pub fn percent_encode(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for &b in raw.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                out.push('%');
                out.push(
                    char::from_digit(u32::from(b) >> 4, 16)
                        .expect("nibble")
                        .to_ascii_uppercase(),
                );
                out.push(
                    char::from_digit(u32::from(b) & 0xf, 16)
                        .expect("nibble")
                        .to_ascii_uppercase(),
                );
            }
        }
    }
    out
}

/// One response, ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value) beyond the fixed set.
    pub extra_headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with an explicit `Content-Type` (HTML pages, the
    /// Prometheus exposition format).
    #[must_use]
    pub fn with_type(status: u16, content_type: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::with_type(status, "text/plain; charset=utf-8", body)
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::with_type(status, "application/json", body)
    }

    /// Adds one extra response header.
    pub fn add_header(&mut self, name: &str, value: impl Into<String>) {
        self.extra_headers.push((name.to_string(), value.into()));
    }

    /// A JSON error envelope: `{"error": "..."}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        cpssec_attackdb::json::write_escaped(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// Serializes the response; `close` controls the `Connection` header.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, writer: &mut impl Write, close: bool) -> io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Request {
        read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /models/scada/associate?fidelity=implementation&topK=3 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/models/scada/associate");
        assert_eq!(req.query_param("fidelity"), Some("implementation"));
        assert_eq!(req.query_param("topK"), Some("3"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /models HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 13\r\nConnection: close\r\n\r\n{\"id\":\"m1\"}ab",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"id\":\"m1\"}ab");
        assert!(req.wants_close());
    }

    #[test]
    fn http_1_0_closes_unless_it_asks_for_keep_alive() {
        assert!(parse("GET /healthz HTTP/1.0\r\n\r\n").wants_close());
        assert!(!parse("GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").wants_close());
        assert!(
            parse("GET /healthz HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").wants_close()
        );
        assert!(!parse("GET /healthz HTTP/1.1\r\n\r\n").wants_close());
    }

    #[test]
    fn transfer_encoding_is_rejected_not_read_as_bodiless() {
        // Read as bodiless, the chunk bytes would parse as a second,
        // pipelined request.
        let raw = b"POST /models HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        for split in 0..=raw.len() {
            match parse_request_bytes(&raw[..split]) {
                Ok(Incremental::NeedMore) => assert!(split < raw.len(), "{split}"),
                Err(HttpError::Malformed(m)) => assert!(m.contains("transfer-encoding"), "{m}"),
                other => panic!("split {split}: {other:?}"),
            }
        }
        let err = parse_request_bytes(raw).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        // Any coding, any case, next to a Content-Length or not.
        for raw in [
            "POST /m HTTP/1.1\r\nContent-Length: 3\r\ntransfer-encoding: gzip\r\n\r\nabc",
            "POST /m HTTP/1.1\r\nTRANSFER-ENCODING: chunked\r\nContent-Length: 3\r\n\r\nabc",
        ] {
            let err = read_request(&mut BufReader::new(raw.as_bytes())).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?}");
        }
    }

    #[test]
    fn percent_decoding_round_trips() {
        for s in ["SIS platform", "a&b=c", "100% café", "plain"] {
            assert_eq!(percent_decode(&percent_encode(s), true).unwrap(), s);
        }
        let req = parse("GET /x?name=SIS+platform&v=a%26b HTTP/1.1\r\n\r\n");
        assert_eq!(req.query_param("name"), Some("SIS platform"));
        assert_eq!(req.query_param("v"), Some("a&b"));
    }

    #[test]
    fn eof_before_any_bytes_is_clean_close() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn garbage_is_malformed() {
        let err = read_request(&mut BufReader::new(&b"not http\r\n\r\n"[..])).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        // Two differing values is the request-smuggling shape: a front
        // proxy honoring the first and us honoring the second would
        // desync on where this request ends.
        let raw = "POST /m HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nabcdefghijk";
        let err = read_request(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        assert!(
            matches!(&err, HttpError::Malformed(m) if m.contains("conflicting content-length")),
            "{err:?}"
        );
    }

    #[test]
    fn agreeing_duplicate_content_lengths_are_accepted() {
        let raw = "POST /m HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        let req = parse(raw);
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn empty_header_name_is_rejected() {
        for raw in [
            "GET /m HTTP/1.1\r\n  : value\r\n\r\n",
            "GET /m HTTP/1.1\r\n: value\r\n\r\n",
        ] {
            let err = read_request(&mut BufReader::new(raw.as_bytes())).unwrap_err();
            assert!(
                matches!(&err, HttpError::Malformed(m) if m.contains("empty name")),
                "{raw:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn whitespace_method_or_target_is_rejected() {
        for raw in [
            "\t /m HTTP/1.1\r\n\r\n",     // tab "method"
            "GET \t HTTP/1.1\r\n\r\n",    // tab "target"
            "G\x01T /m HTTP/1.1\r\n\r\n", // control byte in method
            "GET /\x7f HTTP/1.1\r\n\r\n", // DEL in target
        ] {
            let err = read_request(&mut BufReader::new(raw.as_bytes())).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?}");
        }
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST /m HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = read_request(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge));
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut resp = Response::json(200, "{}");
        resp.add_header("X-Trace-Id", "00ff");
        let mut out = Vec::new();
        resp.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Trace-Id: 00ff\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_envelope_escapes_the_message() {
        let resp = Response::error(400, "bad \"thing\"");
        assert_eq!(resp.body, br#"{"error":"bad \"thing\""}"#);
    }
}
