//! Newline-delimited JSON framing and the request/response envelope of
//! the `smtd` flow service.
//!
//! One frame is one [`Json`] value rendered on a single line and
//! terminated by `\n` — the canonical [`Json::render`] form never
//! contains a raw newline, so framing is trivial and every frame is
//! independently parseable. The envelope is deliberately tiny:
//!
//! ```text
//! → {"id": 7, "method": "flow", "params": {"design": "multiplier_w8"}}
//! ← {"id": 7, "ok": {...}}
//! ← {"id": 7, "err": {"code": "unknown-method", "message": "..."}}
//! ```
//!
//! The reader is defensive by construction: frames are capped at
//! [`MAX_FRAME`] bytes (a peer spewing garbage cannot balloon memory),
//! a non-JSON line surfaces as [`ProtoError::Parse`] without consuming
//! anything beyond that line, and EOF in the middle of a frame is
//! [`ProtoError::Truncated`], distinct from the clean end-of-stream
//! `Ok(None)`. [`FrameReader`] additionally tolerates read timeouts
//! (`WouldBlock`/`TimedOut`) by preserving the partial line across
//! polls, which is what lets the daemon's connection threads notice a
//! drain request while parked on an idle socket.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Hard cap on one frame's length in bytes. A full Large-scale suite
/// report renders well under 1 MiB; 32 MiB leaves room for growth while
/// still bounding a hostile peer.
pub const MAX_FRAME: usize = 32 << 20;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket/file error underneath the framing.
    Io(io::Error),
    /// A line exceeded the frame cap.
    FrameTooLong {
        /// Bytes buffered before giving up.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The line was not valid JSON.
    Parse(String),
    /// EOF arrived in the middle of a frame.
    Truncated,
    /// The frame was valid JSON but not a valid envelope.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::FrameTooLong { len, max } => {
                write!(f, "frame exceeds {max} bytes ({len} buffered)")
            }
            ProtoError::Parse(e) => write!(f, "bad JSON frame: {e}"),
            ProtoError::Truncated => write!(f, "connection closed mid-frame"),
            ProtoError::Malformed(e) => write!(f, "malformed envelope: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// What one non-blocking poll of a [`FrameReader`] produced.
#[derive(Debug)]
pub enum Poll {
    /// A complete frame.
    Frame(Json),
    /// Clean end of stream (EOF at a frame boundary).
    Eof,
    /// The underlying read timed out before a full line arrived; any
    /// partial line is kept for the next poll.
    Pending,
}

/// Incremental line-frame reader over any [`Read`].
///
/// Unlike `BufRead::read_line`, a timeout does not lose buffered bytes:
/// the partial frame survives across [`FrameReader::poll`] calls, so
/// callers can interleave reads with shutdown checks on a socket whose
/// read timeout is set.
pub struct FrameReader<R: Read> {
    inner: R,
    /// Bytes received but not yet consumed by a returned frame.
    pending: Vec<u8>,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// A reader with the default [`MAX_FRAME`] cap.
    pub fn new(inner: R) -> Self {
        Self::with_max_frame(inner, MAX_FRAME)
    }

    /// A reader with an explicit frame cap (tests use small caps).
    pub fn with_max_frame(inner: R, max_frame: usize) -> Self {
        FrameReader {
            inner,
            pending: Vec::new(),
            max_frame,
        }
    }

    /// True when no partial frame is buffered (safe to close idle).
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// The wrapped reader (for adjusting socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads until one full frame, EOF, or a read timeout.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`]; `Io` with `WouldBlock`/`TimedOut` kinds is
    /// translated into `Ok(Poll::Pending)`.
    pub fn poll(&mut self) -> Result<Poll, ProtoError> {
        loop {
            // A complete line may already be buffered from a previous
            // read that straddled two frames.
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                let text = String::from_utf8(line)
                    .map_err(|e| ProtoError::Parse(format!("frame is not UTF-8: {e}")))?;
                let text = text.trim();
                if text.is_empty() {
                    continue; // tolerate blank keep-alive lines
                }
                let json = json::parse(text).map_err(|e| ProtoError::Parse(e.to_string()))?;
                return Ok(Poll::Frame(json));
            }
            if self.pending.len() > self.max_frame {
                return Err(ProtoError::FrameTooLong {
                    len: self.pending.len(),
                    max: self.max_frame,
                });
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.pending.iter().all(|b| b.is_ascii_whitespace()) {
                        Ok(Poll::Eof)
                    } else {
                        Err(ProtoError::Truncated)
                    };
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Poll::Pending);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }

    /// Blocks until a frame or EOF, looping through read timeouts.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`].
    pub fn read_frame(&mut self) -> Result<Option<Json>, ProtoError> {
        loop {
            match self.poll()? {
                Poll::Frame(json) => return Ok(Some(json)),
                Poll::Eof => return Ok(None),
                Poll::Pending => continue,
            }
        }
    }
}

/// Writes one value as a single newline-terminated frame and flushes.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let mut line = json.render();
    debug_assert!(!line.contains('\n'), "rendered JSON must be one line");
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// One request frame: a client-chosen id (echoed in the response), a
/// method name, and method-specific parameters.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: u64,
    /// Method name (`"flow"`, `"lint"`, `"shutdown"`, ...).
    pub method: String,
    /// Method parameters; `Json::Null` when none were given.
    pub params: Json,
}

impl Request {
    /// A request with the given id.
    pub fn new(id: u64, method: impl Into<String>, params: Json) -> Self {
        Request {
            id,
            method: method.into(),
            params,
        }
    }

    /// The wire form.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("id".to_owned(), Json::Num(self.id as f64));
        m.insert("method".to_owned(), Json::Str(self.method.clone()));
        if self.params != Json::Null {
            m.insert("params".to_owned(), self.params.clone());
        }
        Json::Obj(m)
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] naming the missing/invalid field.
    pub fn from_json(json: &Json) -> Result<Request, ProtoError> {
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::Malformed("request missing numeric `id`".to_owned()))?;
        let method = json
            .get("method")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::Malformed("request missing string `method`".to_owned()))?
            .to_owned();
        if method.is_empty() {
            return Err(ProtoError::Malformed("empty `method`".to_owned()));
        }
        let params = json.get("params").cloned().unwrap_or(Json::Null);
        Ok(Request { id, method, params })
    }
}

/// A structured error reply: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable error class (`"bad-request"`, `"draining"`, `"flow"`, ...).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error reply.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        WireError {
            code: code.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One response frame, echoing the request id.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's id (0 when the request could not even be decoded).
    pub id: u64,
    /// Payload on success, [`WireError`] on failure.
    pub result: Result<Json, WireError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, payload: Json) -> Self {
        Response {
            id,
            result: Ok(payload),
        }
    }

    /// An error response.
    pub fn err(id: u64, code: impl Into<String>, message: impl Into<String>) -> Self {
        Response {
            id,
            result: Err(WireError::new(code, message)),
        }
    }

    /// The wire form.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("id".to_owned(), Json::Num(self.id as f64));
        match &self.result {
            Ok(payload) => {
                m.insert("ok".to_owned(), payload.clone());
            }
            Err(e) => {
                let mut em = BTreeMap::new();
                em.insert("code".to_owned(), Json::Str(e.code.clone()));
                em.insert("message".to_owned(), Json::Str(e.message.clone()));
                m.insert("err".to_owned(), Json::Obj(em));
            }
        }
        Json::Obj(m)
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] naming the missing/invalid field.
    pub fn from_json(json: &Json) -> Result<Response, ProtoError> {
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::Malformed("response missing numeric `id`".to_owned()))?;
        if let Some(err) = json.get("err") {
            let code = err
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::Malformed("error missing `code`".to_owned()))?
                .to_owned();
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            return Ok(Response {
                id,
                result: Err(WireError { code, message }),
            });
        }
        let payload = json.get("ok").cloned().ok_or_else(|| {
            ProtoError::Malformed("response has neither `ok` nor `err`".to_owned())
        })?;
        Ok(Response {
            id,
            result: Ok(payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(json: &Json) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, json).unwrap();
        buf
    }

    #[test]
    fn request_and_response_round_trip() {
        let mut params = BTreeMap::new();
        params.insert("design".to_owned(), Json::Str("multiplier_w8".to_owned()));
        params.insert("shards".to_owned(), Json::Num(2.0));
        let req = Request::new(41, "suite", Json::Obj(params));
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(back.id, 41);
        assert_eq!(back.method, "suite");
        assert_eq!(back.params, req.params);

        let ok = Response::ok(41, Json::Str("done".to_owned()));
        let back = Response::from_json(&ok.to_json()).unwrap();
        assert_eq!(back.id, 41);
        assert_eq!(back.result.unwrap(), Json::Str("done".to_owned()));

        let err = Response::err(9, "draining", "daemon is shutting down");
        let back = Response::from_json(&err.to_json()).unwrap();
        let e = back.result.unwrap_err();
        assert_eq!(e.code, "draining");
        assert_eq!(e.message, "daemon is shutting down");
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let a = Request::new(1, "ping", Json::Null).to_json();
        let b = Response::ok(1, Json::Bool(true)).to_json();
        let mut bytes = frame_bytes(&a);
        bytes.extend(b"\n"); // blank keep-alive line between frames
        bytes.extend(frame_bytes(&b));

        let mut reader = FrameReader::new(bytes.as_slice());
        assert_eq!(reader.read_frame().unwrap().unwrap(), a);
        assert_eq!(reader.read_frame().unwrap().unwrap(), b);
        assert!(reader.read_frame().unwrap().is_none(), "clean EOF");
        assert!(reader.is_idle());
    }

    #[test]
    fn garbage_and_truncation_are_rejected_distinctly() {
        // Non-JSON line: a parse error, not a panic or a hang.
        let mut reader = FrameReader::new(&b"GET / HTTP/1.1\n"[..]);
        assert!(matches!(reader.poll(), Err(ProtoError::Parse(_))));

        // EOF mid-frame is truncation, not a clean end.
        let mut reader = FrameReader::new(&b"{\"id\": 3"[..]);
        assert!(matches!(reader.poll(), Err(ProtoError::Truncated)));

        // Non-UTF-8 bytes are a parse error.
        let mut reader = FrameReader::new(&[0xff, 0xfe, b'\n'][..]);
        assert!(matches!(reader.poll(), Err(ProtoError::Parse(_))));

        // An oversized frame trips the cap instead of ballooning.
        let big = vec![b'x'; 64];
        let mut reader = FrameReader::with_max_frame(big.as_slice(), 16);
        assert!(matches!(
            reader.poll(),
            Err(ProtoError::FrameTooLong { max: 16, .. })
        ));
    }

    #[test]
    fn envelope_rejects_missing_fields() {
        let no_id = json::parse(r#"{"method": "ping"}"#).unwrap();
        assert!(Request::from_json(&no_id).is_err());
        let no_method = json::parse(r#"{"id": 1}"#).unwrap();
        assert!(Request::from_json(&no_method).is_err());
        let neither = json::parse(r#"{"id": 1}"#).unwrap();
        assert!(Response::from_json(&neither).is_err());
    }

    #[test]
    fn reader_survives_split_reads() {
        // A Read impl that returns one byte at a time exercises the
        // partial-line buffering between polls.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let frame = Request::new(7, "status", Json::Null).to_json();
        let bytes = frame_bytes(&frame);
        let mut reader = FrameReader::new(OneByte(&bytes));
        assert_eq!(reader.read_frame().unwrap().unwrap(), frame);
    }
}
