//! Client library for `scenicd`.
//!
//! A [`Client`] wraps one daemon connection; requests are serialized on
//! it in order (open several clients for concurrency — the daemon gives
//! each connection its own handler thread). [`Client::sample`] streams:
//! the caller's callback sees every scene as its frame arrives, before
//! the batch finishes.

use crate::proto::{
    read_response, write_request, DaemonStats, ProtoError, Request, Response, SampleRequest,
};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A failed client operation.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or encoding failure (includes the daemon dropping the
    /// connection mid-reply).
    Proto(ProtoError),
    /// The daemon replied with a structured error.
    Daemon {
        /// Stable machine-readable error class (`compile`, `sample`,
        /// `timeout`, `bad-request`, `panic`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon replied with a frame the operation didn't expect.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Daemon { code, message } => write!(f, "daemon error [{code}]: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected daemon reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// Result alias for client operations.
pub type ClientResult<T> = Result<T, ClientError>;

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    /// Reads go through the buffer, so one `read` can carry a frame's
    /// prefix, its body and the frames after it; writes go straight to
    /// the socket.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `"127.0.0.1:7907"`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Connects, retrying until `timeout` elapses — for racing a daemon
    /// that is still binding its socket (CI smoke tests, fixtures).
    ///
    /// # Errors
    ///
    /// The last connection failure once the deadline passes.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(err) if Instant::now() >= deadline => return Err(err),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send(&mut self, request: &Request) -> ClientResult<()> {
        write_request(&mut self.stream.get_ref(), request)?;
        Ok(())
    }

    /// Reads one response frame; the daemon closing cleanly is an
    /// error here (every request expects at least one reply).
    ///
    /// # Errors
    ///
    /// Transport errors, including clean close.
    pub fn recv(&mut self) -> ClientResult<Response> {
        match read_response(&mut self.stream)? {
            Some(response) => Ok(response),
            None => Err(ClientError::Proto(ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )))),
        }
    }

    /// Sends `request` and returns the single reply frame. Structured
    /// [`Response::Error`] replies come back as
    /// [`ClientError::Daemon`]. Not for `Sample` — that streams; use
    /// [`Client::sample`].
    ///
    /// # Errors
    ///
    /// Transport errors or a daemon error reply.
    pub fn request(&mut self, request: &Request) -> ClientResult<Response> {
        self.send(request)?;
        match self.recv()? {
            Response::Error { code, message } => Err(ClientError::Daemon { code, message }),
            reply => Ok(reply),
        }
    }

    /// Runs a streaming sample: `on_scene(index, text)` is called for
    /// every scene as its frame arrives, and the terminal `Done` frame's
    /// `(scenes, iterations, elapsed_ms)` is returned.
    ///
    /// # Errors
    ///
    /// Transport errors, daemon error replies (compile failures,
    /// timeouts, worker panics), or unexpected frames. Scenes already
    /// delivered to the callback stay delivered.
    pub fn sample(
        &mut self,
        request: &SampleRequest,
        mut on_scene: impl FnMut(usize, &str),
    ) -> ClientResult<(usize, usize, f64)> {
        self.send(&Request::Sample(request.clone()))?;
        loop {
            match self.recv()? {
                Response::Scene { index, text } => on_scene(index, &text),
                Response::Done {
                    scenes,
                    iterations,
                    elapsed_ms,
                } => return Ok((scenes, iterations, elapsed_ms)),
                Response::Error { code, message } => {
                    return Err(ClientError::Daemon { code, message })
                }
                other => {
                    return Err(ClientError::Unexpected(format!("{other:?}")));
                }
            }
        }
    }

    /// Convenience: collects a whole sampled batch into memory.
    ///
    /// # Errors
    ///
    /// As [`Client::sample`].
    pub fn sample_collect(&mut self, request: &SampleRequest) -> ClientResult<Vec<String>> {
        let mut scenes = Vec::new();
        self.sample(request, |_, text| scenes.push(text.to_string()))?;
        Ok(scenes)
    }

    /// Fetches daemon statistics (`detailed` adds per-scenario rows).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self, detailed: bool) -> ClientResult<DaemonStats> {
        let request = if detailed {
            Request::Stats
        } else {
            Request::Status
        };
        match self.request(&request)? {
            Response::Status(stats) => Ok(stats),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe; returns the daemon's uptime in milliseconds.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn health(&mut self) -> ClientResult<u64> {
        match self.request(&Request::Health)? {
            Response::Health {
                ok: true,
                uptime_ms,
            } => Ok(uptime_ms),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
