//! A deliberately minimal HTTP/1.1 facade: enough of the protocol for
//! `curl`, load generators, and metric scrapers — not a web framework.
//!
//! The server sniffs the first bytes of each connection: frames starting
//! with the `tsq-store` magic take the binary path, anything starting
//! with an HTTP method token lands here. One request per connection
//! (`Connection: close`), bounded header and body sizes, and every
//! malformed input is a typed [`HttpError`] answered with a 4xx — the
//! hostile-input guarantees of the binary protocol apply here too.

use std::io::Read;

/// Cap on the request head (request line + headers).
const MAX_HEAD_LEN: usize = 16 * 1024;

/// A parsed HTTP request: method, path, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path of the request target (e.g. `/metrics`); a query string is
    /// dropped, since no endpoint takes parameters.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why an HTTP request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Not parseable as HTTP/1.1 (bad request line, header overflow,
    /// bad `Content-Length`).
    Malformed(String),
    /// The declared body exceeds the server's cap.
    TooLarge {
        /// Declared `Content-Length`.
        len: u64,
        /// The cap.
        max: usize,
    },
    /// The connection died mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed http request: {m}"),
            HttpError::TooLarge { len, max } => {
                write!(f, "http body declares {len} byte(s), cap is {max}")
            }
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// True when the sniffed first bytes look like an HTTP request line.
pub fn looks_like_http(prefix: &[u8]) -> bool {
    const METHODS: [&[u8]; 7] = [
        b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI", b"PATC",
    ];
    METHODS.iter().any(|m| prefix.starts_with(m))
}

/// Reads one HTTP/1.1 request whose first `prefix` bytes were already
/// consumed by protocol sniffing, in reads of up to 1 KiB. The head is
/// capped at 16 KiB, the body at `max_body` — a hostile `Content-Length`
/// is refused before any allocation.
///
/// # Errors
/// [`HttpError::Malformed`], [`HttpError::TooLarge`], [`HttpError::Io`].
pub fn read_request(
    r: &mut impl Read,
    prefix: &[u8],
    max_body: usize,
) -> Result<HttpRequest, HttpError> {
    // Read in chunks until the blank line ending the head; what follows
    // it starts the body.
    let too_long = || HttpError::Malformed(format!("request head exceeds {MAX_HEAD_LEN} bytes"));
    let mut head: Vec<u8> = prefix.to_vec();
    let mut chunk = [0u8; 1024];
    let mut from = 0;
    let head_len = loop {
        if let Some(at) = head[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        if head.len() >= MAX_HEAD_LEN {
            return Err(too_long());
        }
        // The blank line may straddle this read and the last.
        from = head.len().saturating_sub(3);
        match r.read(&mut chunk)? {
            0 => return Err(HttpError::Malformed("eof before end of headers".into())),
            n => head.extend_from_slice(&chunk[..n]),
        }
    };
    if head_len > MAX_HEAD_LEN {
        return Err(too_long());
    }
    let early = head.split_off(head_len);
    let head = String::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-utf8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => {
            (m, p.split_once('?').map_or(p, |(path, _query)| path), v)
        }
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    let mut content_length: Option<u64> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            // RFC 9112 §6.1: a body framed by a transfer coding is not
            // framed by its length, and this reader decodes no coding.
            if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::Malformed(format!(
                    "transfer-encoding {value:?} is not supported"
                )));
            }
            if name.trim().eq_ignore_ascii_case("content-length") {
                // RFC 9110 §8.6: `1*DIGIT`, which `u64::from_str` widens by
                // a leading `+`.
                let digits = value.trim();
                let len = match digits.parse::<u64>() {
                    Ok(len) if digits.bytes().all(|b| b.is_ascii_digit()) => len,
                    _ => {
                        return Err(HttpError::Malformed(format!(
                            "bad content-length {value:?}"
                        )))
                    }
                };
                // RFC 9112 §6.3: differing repeated lengths frame no body.
                if content_length.is_some_and(|prev| prev != len) {
                    return Err(HttpError::Malformed(format!(
                        "conflicting content-length {value:?}"
                    )));
                }
                if len > max_body as u64 {
                    return Err(HttpError::TooLarge { len, max: max_body });
                }
                content_length = Some(len);
            }
        }
    }
    // One request per connection: bytes past the body are dropped with it.
    let mut body = vec![0u8; content_length.unwrap_or(0) as usize];
    let early = &early[..early.len().min(body.len())];
    body[..early.len()].copy_from_slice(early);
    r.read_exact(&mut body[early.len()..])?;
    Ok(HttpRequest {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    })
}

/// Renders a complete HTTP/1.1 response with a JSON (or plain) body.
pub fn response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders a JSON error body `{"error": code, "message": ...}`.
pub fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"message\":\"{}\"}}",
        json_escape(code),
        json_escape(message)
    )
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_and_post() {
        let raw = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut &raw[8..], &raw[..8], 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());

        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 11\r\n\r\nJOIN walks ";
        let req = read_request(&mut &raw[8..], &raw[..8], 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"JOIN walks ");

        // A query string is not part of the path (probes send `?x=1`).
        let raw = b"GET /health?probe=1&x=a?b HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[8..], &raw[..8], 1024).unwrap();
        assert_eq!(req.path, "/health");
    }

    /// A reader over `data` that hands out at most `most` bytes a read and
    /// counts its reads.
    struct Counting<'a> {
        data: &'a [u8],
        most: usize,
        reads: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.most);
            self.data.read(&mut buf[..n])
        }
    }

    fn counting(data: &[u8], most: usize) -> Counting<'_> {
        Counting {
            data,
            most,
            reads: 0,
        }
    }

    #[test]
    fn the_head_is_read_in_chunks() {
        // A 33-byte request, its first 8 bytes sniffed: one read for the
        // rest, not one per byte.
        let raw = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(raw.len(), 33);
        let mut r = counting(&raw[8..], usize::MAX);
        let req = read_request(&mut r, &raw[..8], 1024).unwrap();
        assert_eq!(req.path, "/health");
        assert!(r.reads <= 2, "{} reads for 25 bytes", r.reads);

        // Head and body in one segment: the bytes after the blank line
        // start the body.
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 11\r\n\r\nJOIN walks ";
        let mut r = counting(&raw[8..], usize::MAX);
        let req = read_request(&mut r, &raw[..8], 1024).unwrap();
        assert_eq!(req.body, b"JOIN walks ");
        assert!(r.reads <= 2, "{} reads for one segment", r.reads);

        // Dribbled three bytes a read, the blank line straddles reads.
        let mut r = counting(&raw[8..], 3);
        assert_eq!(
            read_request(&mut r, &raw[..8], 1024).unwrap().body,
            b"JOIN walks "
        );

        // The cap is on the head alone: a head of exactly 16 KiB is read
        // with its body behind it, one byte longer is refused.
        for (pad, ok) in [(0, true), (1, false)] {
            let head = b"POST /q HTTP/1.1\r\nContent-Length: 4\r\nX: ";
            let mut raw = head.to_vec();
            raw.resize(MAX_HEAD_LEN - 4 + pad, b'x');
            raw.extend_from_slice(b"\r\n\r\nJOIN");
            let got = read_request(&mut counting(&raw, usize::MAX), &[], 1024);
            assert_eq!(got.is_ok(), ok, "pad {pad}: {got:?}");
        }
    }

    #[test]
    fn hostile_requests_are_typed_errors() {
        // Garbage request line.
        let raw = b"BLORP\r\n\r\n";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::Malformed(_))
        ));
        // Oversized declared body refused before allocation.
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::TooLarge { max: 1024, .. })
        ));
        // Bad content-length.
        let raw = b"POST /q HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::Malformed(_))
        ));
        // A sign is not a digit.
        let raw = b"POST /q HTTP/1.1\r\nContent-Length: +4\r\n\r\nJOIN";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::Malformed(_))
        ));
        // A chunked body is refused, not read as an empty one.
        let raw = b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nJOIN\r\n0\r\n\r\n";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::Malformed(_))
        ));
        // Differing repeated content-lengths; identical repeats are one.
        let raw = b"POST /q HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nJOIN";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::Malformed(_))
        ));
        let raw = b"POST /q HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nJOIN";
        assert_eq!(
            read_request(&mut &raw[..], &[], 1024).unwrap().body,
            b"JOIN"
        );
        // EOF before the blank line.
        let raw = b"GET /half HTTP";
        assert!(matches!(
            read_request(&mut &raw[..], &[], 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn sniffing_and_rendering() {
        assert!(looks_like_http(b"GET /a HT"));
        assert!(looks_like_http(b"POST /query"));
        assert!(!looks_like_http(b"TSQSNAP\0"));
        assert!(!looks_like_http(b"garbage!"));
        let resp = response(200, "OK", "application/json", "{\"a\":1}");
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
        assert!(text.contains("Content-Length: 7"));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
