//! The line-delimited request/response protocol `nanobound serve`
//! speaks on stdin/stdout (and on `--listen` sockets).
//!
//! # Grammar
//!
//! One request per line, a JSON object restricted to string and
//! string-array values:
//!
//! ```text
//! request  := { "id": STRING, "workload": STRING, "args": [STRING, ...] }
//! ```
//!
//! `id` is an opaque client token echoed in the response; `workload`
//! names the job (`profile`, `figure`, `bound`, `validate`, `lint`,
//! `gc`, `stats`, `ping`, `shutdown`); `args` (optional, default
//! empty) carries the workload's CLI-style tokens — the same tokens
//! the one-shot binary would take, *minus* transport-level flags
//! (`--jobs`, `--cache-dir`, `--no-cache`), which belong to the
//! server. The serve-only `--request-jobs N` token is accepted on the
//! computing workloads to run one request under its own worker
//! budget.
//!
//! The id `"?"` ([`RESERVED_ID`]) is reserved: responses to lines the
//! server could not parse carry it, so no request may claim it —
//! [`parse_request`] rejects it like any other malformed line.
//!
//! Each response is a one-line JSON header followed by an exact byte
//! count of raw payload:
//!
//! ```text
//! response := { "id": STRING, "status": "ok" | "error", "bytes": N } "\n"
//!             <exactly N raw payload bytes>
//! ```
//!
//! For `status: ok` the payload is byte-identical to what the
//! equivalent one-shot CLI invocation prints on stdout; for
//! `status: error` it is the `error: ...` line the CLI prints on
//! stderr. Payloads are raw (not JSON-escaped) so clients and tests
//! can diff them against CLI output directly.
//!
//! The parser accepts only this subset — it is "JSON-ish" by design:
//! objects of string keys; string, unsigned-integer and
//! array-of-string values; `\" \\ \/ \n \t \r \b \f \uXXXX` escapes.
//! Anything else is a malformed request, answered with a
//! `status: error` response (id `"?"` when none was recoverable), and
//! the session continues.

use std::io::{self, BufRead, Read, Write};

/// The id carried by error responses to unparseable lines; no request
/// may claim it, or a client could not tell its response from a
/// malformed-line answer.
pub const RESERVED_ID: &str = "?";

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen token, echoed in the response header.
    pub id: String,
    /// The workload name.
    pub workload: String,
    /// CLI-style argument tokens for the workload.
    pub args: Vec<String>,
}

/// A decoded value of the JSON-ish subset.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Value {
    Str(String),
    Num(u64),
    Arr(Vec<String>),
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Self {
        Parser {
            text: line,
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    /// Parses the 4 hex digits of a `\uXXXX` escape into a UTF-16 code
    /// unit.
    fn parse_code_unit(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "malformed \\u escape".to_owned())?;
        let unit =
            u32::from_str_radix(hex, 16).map_err(|_| format!("malformed \\u escape `{hex}`"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')
            .map_err(|_| format!("expected a string at byte {}", self.pos))?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self.parse_code_unit()?;
                            let ch = match unit {
                                // High surrogate: standard JSON encoders
                                // emit astral characters as a \uXXXX
                                // surrogate pair; combine it.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(format!(
                                            "unpaired high surrogate \\u{unit:04x}"
                                        ));
                                    }
                                    self.pos += 2;
                                    let low = self.parse_code_unit()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(format!("invalid low surrogate \\u{low:04x}"));
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code).expect("surrogate pairs are valid chars")
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!("unpaired low surrogate \\u{unit:04x}"))
                                }
                                bmp => char::from_u32(bmp)
                                    .expect("non-surrogate BMP code point is a char"),
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("unsupported escape `\\{}`", char::from(other)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` in
                    // one slice. Both are ASCII, so the run ends on a
                    // char boundary of the &str.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |len| self.pos + len);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_string()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                    self.skip_ws();
                }
            }
            Some(b) if b.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                let digits = &self.text[start..self.pos];
                digits
                    .parse()
                    .map(Value::Num)
                    .map_err(|_| format!("number out of range `{digits}`"))
            }
            _ => Err(format!(
                "expected a string, array or number at byte {}",
                self.pos
            )),
        }
    }

    /// Parses the whole line as one object, rejecting trailing junk.
    fn parse_object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')
            .map_err(|_| "request must be a `{...}` object".to_owned())?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.parse_string()?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key `{key}`"));
                }
                self.expect(b':')?;
                let value = self.parse_value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(fields)
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A message describing the first syntax or schema violation; the
/// caller answers it with a `status: error` response and keeps the
/// session alive.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = Parser::new(line).parse_object()?;
    let mut id = None;
    let mut workload = None;
    let mut args = Vec::new();
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("id", Value::Str(s)) => id = Some(s),
            ("workload", Value::Str(s)) => workload = Some(s),
            ("args", Value::Arr(a)) => args = a,
            ("id" | "workload", _) => {
                return Err(format!("key `{key}` must be a string"));
            }
            ("args", _) => return Err("key `args` must be an array of strings".to_owned()),
            (other, _) => return Err(format!("unknown key `{other}`")),
        }
    }
    let id = id.ok_or("request needs an \"id\"")?;
    if id == RESERVED_ID {
        return Err(format!(
            "id `{RESERVED_ID}` is reserved for malformed-line responses"
        ));
    }
    Ok(Request {
        id,
        workload: workload.ok_or("request needs a \"workload\"")?,
        args,
    })
}

/// JSON-escapes a string for a response header.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats one request line (without trailing newline) — the writer
/// side of [`parse_request`], used by the cluster coordinator and
/// scripted clients. Arbitrary argument strings (newlines, quotes,
/// whole netlist files) round-trip through the escape rules.
#[must_use]
pub fn format_request(id: &str, workload: &str, args: &[String]) -> String {
    let mut out = format!(
        "{{\"id\":\"{}\",\"workload\":\"{}\"",
        escape(id),
        escape(workload)
    );
    if !args.is_empty() {
        out.push_str(",\"args\":[");
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(arg));
            out.push('"');
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Parses one response header line (sans newline) into
/// `(id, ok, payload bytes)`.
///
/// This is the single header decoder: [`read_response`] uses it for
/// trusted test streams, and the cluster coordinator uses it on bytes
/// from remote workers — where *any* failure here must become a counted
/// retryable worker failure, never a panic or a wedged run. It is
/// strict: the `status` value must be exactly `ok` or `error`, so a
/// garbled status byte is malformed instead of silently reading as an
/// error response.
///
/// # Errors
///
/// A description of the first syntax or schema violation.
pub fn parse_response_header(line: &str) -> Result<(String, bool, u64), String> {
    let fields = Parser::new(line).parse_object()?;
    let mut id = None;
    let mut status = None;
    let mut bytes = None;
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("id", Value::Str(s)) => id = Some(s),
            ("status", Value::Str(s)) => status = Some(s),
            ("bytes", Value::Num(n)) => bytes = Some(n),
            (k, v) => return Err(format!("unexpected field {k}={v:?}")),
        }
    }
    let (Some(id), Some(status), Some(bytes)) = (id, status, bytes) else {
        return Err("missing id/status/bytes".to_owned());
    };
    let ok = match status.as_str() {
        "ok" => true,
        "error" => false,
        other => return Err(format!("status `{other}` is not `ok` or `error`")),
    };
    Ok((id, ok, bytes))
}

/// The response header line (without trailing newline).
#[must_use]
pub fn response_header(id: &str, ok: bool, bytes: usize) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"{}\",\"bytes\":{bytes}}}",
        escape(id),
        if ok { "ok" } else { "error" },
    )
}

/// Writes one framed response (header line + raw payload) and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O failure (a vanished client).
pub fn write_response<W: Write>(
    writer: &mut W,
    id: &str,
    ok: bool,
    payload: &[u8],
) -> io::Result<()> {
    writer.write_all(response_header(id, ok, payload.len()).as_bytes())?;
    writer.write_all(b"\n")?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one framed response: `Ok(None)` at clean EOF, otherwise
/// `(id, ok, payload)`.
///
/// The counterpart of [`write_response`], used by tests and scripted
/// clients.
///
/// # Errors
///
/// I/O failures, and [`io::ErrorKind::InvalidData`] for a malformed
/// header.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Option<(String, bool, Vec<u8>)>> {
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let (id, ok, bytes) = parse_response_header(header.trim_end_matches('\n'))
        .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, format!("bad header: {msg}")))?;
    // Never size an allocation from the untrusted header: `take` +
    // `read_to_end` grows with the bytes that actually arrive, so a
    // corrupt or hostile count ends in an error, not an abort.
    let mut payload = Vec::new();
    reader.take(bytes).read_to_end(&mut payload)?;
    if payload.len() as u64 != bytes {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "payload truncated: header said {bytes}, got {}",
                payload.len()
            ),
        ));
    }
    Ok(Some((id, ok, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let req = parse_request(
            r#"{"id": "r1", "workload": "profile", "args": ["x.bench", "--eps", "0.05"]}"#,
        )
        .unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.workload, "profile");
        assert_eq!(req.args, vec!["x.bench", "--eps", "0.05"]);
    }

    #[test]
    fn args_default_to_empty() {
        let req = parse_request(r#"{"id":"1","workload":"validate"}"#).unwrap();
        assert!(req.args.is_empty());
    }

    #[test]
    fn escapes_roundtrip() {
        let req =
            parse_request(r#"{"id":"q\"uo\\te","workload":"ping","args":["a b","tab\there","A"]}"#)
                .unwrap();
        assert_eq!(req.id, "q\"uo\\te");
        assert_eq!(req.args, vec!["a b", "tab\there", "A"]);
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_characters() {
        // Standard JSON encoders (e.g. json.dumps with ensure_ascii)
        // emit non-BMP characters as \uXXXX surrogate pairs.
        let req = parse_request(r#"{"id":"😀","workload":"ping","args":["é"]}"#).unwrap();
        assert_eq!(req.id, "😀");
        assert_eq!(req.args, vec!["é"]);
    }

    #[test]
    fn unpaired_surrogates_are_malformed() {
        for (line, needle) in [
            (r#"{"id":"\ud83d","workload":"ping"}"#, "unpaired high"),
            (r#"{"id":"\ud83dx","workload":"ping"}"#, "unpaired high"),
            (r#"{"id":"\ude00","workload":"ping"}"#, "unpaired low"),
            (r#"{"id":"\ud83d\u0041","workload":"ping"}"#, "invalid low"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?}: {err}");
        }
    }

    #[test]
    fn absurd_byte_counts_error_instead_of_allocating() {
        // A hostile or corrupt header must not drive a huge upfront
        // allocation; the reader errors once the stream runs dry.
        let stream = format!(
            "{{\"id\":\"x\",\"status\":\"ok\",\"bytes\":{}}}\nshort",
            u64::MAX
        );
        let mut reader = io::BufReader::new(stream.as_bytes());
        let err = read_response(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_lines_are_described() {
        for (line, needle) in [
            ("", "object"),
            ("profile x.bench", "object"),
            (r#"{"id":"1"}"#, "workload"),
            (r#"{"workload":"ping"}"#, "id"),
            (r#"{"id":"1","workload":"ping","extra":"x"}"#, "unknown key"),
            (r#"{"id":"1","workload":"ping"} junk"#, "trailing"),
            (r#"{"id":"1","id":"2","workload":"ping"}"#, "duplicate"),
            (r#"{"id":"1","workload":["ping"]}"#, "must be a string"),
            (r#"{"id":"1","workload":"ping","args":"x"}"#, "array"),
            (r#"{"id":"1","workload":"ping","args":["\q"]}"#, "escape"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.contains(needle),
                "line {line:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn the_reserved_id_cannot_be_claimed() {
        // `?` tags responses to unparseable lines; a request wearing
        // it would be indistinguishable from one of those answers.
        let err = parse_request(r#"{"id":"?","workload":"ping"}"#).unwrap_err();
        assert!(err.contains("reserved"), "{err}");
        // But it is only the exact token that is reserved.
        let req = parse_request(r#"{"id":"??","workload":"ping"}"#).unwrap();
        assert_eq!(req.id, "??");
    }

    #[test]
    fn format_request_roundtrips_hostile_strings() {
        // The coordinator ships whole netlist files (newlines, spaces)
        // and arbitrary tokens through request args; every byte must
        // survive the wire format.
        let mut args: Vec<String> = [
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
            "quote\"back\\slash",
            "tab\there",
            "unicode é 😀",
            "",
            "--flag",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        // A 4 MiB netlist, the size of ~10^5 gates, with quotes and a
        // backslash every 64 lines so the escape path runs throughout:
        // a decoder that rescans the rest of the line per character
        // would take minutes here.
        let mut netlist = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(o)\nn0 = XOR(a, b)\n");
        let mut i = 1;
        while netlist.len() < 4 << 20 {
            netlist.push_str(&format!("n{i} = XOR(n{}, a)\n", i - 1));
            if i % 64 == 0 {
                netlist.push_str(&format!("# \"chain\" \\ {i} \u{e9}\u{1f600}\n"));
            }
            i += 1;
        }
        args.push(netlist);
        let line = format_request("id-1", "mc_shards", &args);
        let parsed = parse_request(&line).unwrap();
        assert_eq!(parsed.id, "id-1");
        assert_eq!(parsed.workload, "mc_shards");
        assert_eq!(parsed.args.len(), args.len());
        for (got, want) in parsed.args.iter().zip(&args) {
            assert!(got == want, "a {}-byte argument changed", want.len());
        }
        // No args: the key is omitted and defaults to empty.
        let parsed = parse_request(&format_request("p", "ping", &[])).unwrap();
        assert!(parsed.args.is_empty());
    }

    #[test]
    fn response_header_roundtrips_through_the_parser() {
        for (id, ok, bytes) in [("r1", true, 0u64), ("we\"ird\n", false, 123_456)] {
            let line = response_header(id, ok, bytes as usize);
            assert_eq!(
                parse_response_header(&line).unwrap(),
                (id.to_owned(), ok, bytes)
            );
        }
    }

    #[test]
    fn malformed_response_headers_are_exhaustively_rejected() {
        // Every shape a corrupt, truncated or hostile worker header can
        // take must come back as a described error — this is what turns
        // wire garbage into a counted retryable failure upstream.
        for (line, needle) in [
            ("", "object"),
            ("garbage", "object"),
            ("{", "string"),
            (r#"{"id":"x""#, "expected"),
            (r#"{"id":"x","status":"ok","bytes":5"#, "expected"),
            (r#"{"id":"x","status":"ok"}"#, "missing id/status/bytes"),
            (r#"{"id":"x","bytes":5}"#, "missing id/status/bytes"),
            (r#"{"status":"ok","bytes":5}"#, "missing id/status/bytes"),
            (
                r#"{"id":"x","status":"oz","bytes":5}"#,
                "not `ok` or `error`",
            ),
            (r#"{"id":"x","status":"ok","bytes":-5}"#, "expected"),
            (
                r#"{"id":"x","status":"ok","bytes":99999999999999999999}"#,
                "out of range",
            ),
            (
                r#"{"id":"x","status":"ok","bytes":"5"}"#,
                "unexpected field",
            ),
            (r#"{"id":5,"status":"ok","bytes":5}"#, "unexpected field"),
            (
                r#"{"id":"x","status":"ok","bytes":5,"extra":"y"}"#,
                "unexpected field",
            ),
            (r#"{"id":"x","status":"ok","bytes":5} junk"#, "trailing"),
            (
                r#"{"id":"x","id":"y","status":"ok","bytes":5}"#,
                "duplicate",
            ),
            (r#"{"id":"\q","status":"ok","bytes":5}"#, "escape"),
        ] {
            let err = parse_response_header(line).unwrap_err();
            assert!(
                err.contains(needle),
                "line {line:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn read_response_maps_header_garbage_to_invalid_data() {
        for stream in [
            "garbage\npayload",
            "{\"id\":\"x\",\"status\":\"maybe\",\"bytes\":2}\nok",
        ] {
            let mut reader = io::BufReader::new(stream.as_bytes());
            let err = read_response(&mut reader).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "stream {stream:?}");
        }
    }

    #[test]
    fn response_roundtrips_through_the_frame() {
        let mut buffer = Vec::new();
        write_response(&mut buffer, "r1", true, b"line one\nline two\n").unwrap();
        write_response(&mut buffer, "we\"ird", false, b"error: nope\n").unwrap();
        let mut reader = io::BufReader::new(buffer.as_slice());
        let (id, ok, payload) = read_response(&mut reader).unwrap().unwrap();
        assert_eq!((id.as_str(), ok), ("r1", true));
        assert_eq!(payload, b"line one\nline two\n");
        let (id, ok, payload) = read_response(&mut reader).unwrap().unwrap();
        assert_eq!((id.as_str(), ok), ("we\"ird", false));
        assert_eq!(payload, b"error: nope\n");
        assert_eq!(read_response(&mut reader).unwrap(), None);
    }

    #[test]
    fn empty_payloads_frame_cleanly() {
        let mut buffer = Vec::new();
        write_response(&mut buffer, "z", true, b"").unwrap();
        let mut reader = io::BufReader::new(buffer.as_slice());
        let (_, ok, payload) = read_response(&mut reader).unwrap().unwrap();
        assert!(ok);
        assert!(payload.is_empty());
        assert_eq!(read_response(&mut reader).unwrap(), None);
    }
}
