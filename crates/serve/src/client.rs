//! A small blocking client for the `smtd` line protocol, used by the
//! `smtc` CLI, the benchmark's service workload, and the loopback
//! tests.

use smt_base::json::Json;
use smt_base::proto::{write_frame, FrameReader, Request, Response, WireError};
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a call failed before (or instead of) a well-formed error reply.
#[derive(Debug)]
pub enum CallError {
    /// Could not connect, or the connection broke mid-call (including
    /// a response timeout).
    Io(String),
    /// The peer answered with bytes that were not a valid response
    /// frame.
    Protocol(String),
    /// The peer answered with a structured error.
    Remote(WireError),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Io(e) => write!(f, "i/o: {e}"),
            CallError::Protocol(e) => write!(f, "protocol: {e}"),
            CallError::Remote(e) => write!(f, "remote: {e}"),
        }
    }
}

impl std::error::Error for CallError {}

/// One connection to an `smtd` daemon.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects with a timeout (applied to the TCP connect; calls set
    /// their own response timeouts).
    ///
    /// # Errors
    ///
    /// [`CallError::Io`] when the address does not resolve or connect.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, CallError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| CallError::Io(format!("resolving {addr}: {e}")))?
            .collect();
        let mut last = format!("{addr}: no addresses");
        for a in addrs {
            match TcpStream::connect_timeout(&a, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let write_half = stream
                        .try_clone()
                        .map_err(|e| CallError::Io(format!("cloning stream: {e}")))?;
                    return Ok(Client {
                        reader: FrameReader::new(stream),
                        writer: BufWriter::new(write_half),
                        next_id: 1,
                    });
                }
                Err(e) => last = format!("{a}: {e}"),
            }
        }
        Err(CallError::Io(last))
    }

    /// Sends one request and blocks for its response, failing if no
    /// full response frame arrives within `timeout` (`None` = wait
    /// forever). A timeout or mid-frame disconnect is [`CallError::Io`].
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call_timeout(
        &mut self,
        method: &str,
        params: Json,
        timeout: Option<Duration>,
    ) -> Result<Json, CallError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::new(id, method, params);
        write_frame(&mut self.writer, &request.to_json())
            .map_err(|e| CallError::Io(format!("sending `{method}`: {e}")))?;
        // Poll in short slices so a hung daemon trips the deadline even
        // though the socket stays open.
        let stream_timeout = Duration::from_millis(100);
        self.reader
            .get_ref()
            .set_read_timeout(Some(stream_timeout))
            .map_err(|e| CallError::Io(e.to_string()))?;
        let start = std::time::Instant::now();
        let frame = loop {
            match self.reader.poll() {
                Ok(smt_base::proto::Poll::Frame(frame)) => break frame,
                Ok(smt_base::proto::Poll::Eof) => {
                    return Err(CallError::Io(format!(
                        "connection closed awaiting `{method}` response"
                    )))
                }
                Ok(smt_base::proto::Poll::Pending) => {
                    if let Some(deadline) = timeout {
                        if start.elapsed() > deadline {
                            return Err(CallError::Io(format!(
                                "`{method}` timed out after {deadline:?}"
                            )));
                        }
                    }
                }
                Err(e) => return Err(CallError::Protocol(e.to_string())),
            }
        };
        let response =
            Response::from_json(&frame).map_err(|e| CallError::Protocol(e.to_string()))?;
        if response.id != id {
            return Err(CallError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        response.result.map_err(CallError::Remote)
    }

    /// [`Client::call_timeout`] without a deadline.
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, CallError> {
        self.call_timeout(method, params, None)
    }
}
