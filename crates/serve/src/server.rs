//! `scenicd` — the long-running scenario daemon.
//!
//! Every `scenic sample` CLI invocation pays full process startup and
//! rebuilds the worker pool and scenario cache from scratch. The daemon
//! keeps them alive instead: one process-wide
//! [`WorkerPool::global()`](scenic_core::pool::WorkerPool::global) and
//! one [`ScenarioCache`] serve **all** clients, so the second request
//! for a scenario skips compilation entirely and no request ever pays
//! thread-spawn overhead.
//!
//! # Lifecycle
//!
//! [`Server::bind`] opens a local TCP socket (port 0 = ephemeral, for
//! test fixtures); [`Server::run`] accepts connections until a client
//! sends `shutdown`, then drains in-flight work and returns.
//! [`Server::spawn`] runs the same loop on a background thread and
//! hands back a [`ServerHandle`] — the in-process fixture the test
//! harness and the load bencher build on.
//!
//! # Concurrency & isolation
//!
//! Each connection gets its own handler thread; sampling itself fans
//! out on the shared worker pool, to at most [`MAX_JOBS`] jobs a
//! request. A malformed frame, oversized length prefix, garbage JSON,
//! or mid-stream disconnect affects only its own connection: the
//! handler replies with a typed [`Response::Error`] when the socket
//! still works, then drops the connection — the shared pool and cache
//! are never poisoned (sampler worker panics surface as
//! [`ScenicError::WorkerPanic`] errors, not thread deaths).
//!
//! # Determinism
//!
//! A `sample` request is served as chunked
//! [`Sampler::sample_batch_report_range`] calls so scenes stream back
//! as they complete — and because every scene's RNG stream derives from
//! `(seed, index)` alone, the streamed scenes are byte-identical to a
//! single-process `scenic sample` run with the same scenario, seed, and
//! format, for any chunking and any `jobs` value.

use crate::format::render_scene;
use crate::proto::{
    read_request, write_response, DaemonStats, ProtoError, Request, Response, SampleRequest,
};
use scenic_core::cache::{source_hash, ScenarioCache};
use scenic_core::compile::Engine;
use scenic_core::diag::{render_text, Diagnostic, Severity};
use scenic_core::sampler::Sampler;
use scenic_core::{analyze, ScenicError, World};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The most sampling jobs one `sample` request may ask for. Each job is
/// a thread of the process-wide worker pool, which never shrinks, so a
/// request over the cap gets a typed `bad-request` reply instead.
pub const MAX_JOBS: usize = 256;

/// Tunables for a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may sit idle (or dribble a partial frame)
    /// before the daemon drops it. Keeps a stalled or hostile client
    /// from pinning a handler thread forever.
    pub read_timeout: Duration,
    /// Default per-request sampling deadline when the request carries
    /// no `timeout_ms`. On expiry the daemon stops after the current
    /// chunk and replies with a typed `timeout` error.
    pub request_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(120),
        }
    }
}

/// Shared daemon state: the compiled-scenario cache plus serving
/// counters. One instance serves every connection.
pub struct ServerState {
    cache: ScenarioCache,
    config: ServerConfig,
    started: Instant,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    scenes_served: AtomicU64,
    in_flight: AtomicU64,
    open_connections: AtomicU64,
    per_scenario: Mutex<BTreeMap<String, u64>>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServerState {
    fn new(config: ServerConfig) -> Self {
        ServerState {
            cache: ScenarioCache::new(),
            config,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            scenes_served: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            per_scenario: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The shared compiled-scenario cache (exposed for tests and the
    /// load bencher).
    #[must_use]
    pub fn cache(&self) -> &ScenarioCache {
        &self.cache
    }

    fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// A statistics snapshot; `per_scenario` rows are included only
    /// when `detailed` (the `stats` request).
    #[must_use]
    pub fn stats(&self, detailed: bool) -> DaemonStats {
        DaemonStats {
            uptime_ms: self.uptime_ms(),
            requests: self.requests.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            scenes_served: self.scenes_served.load(Ordering::Relaxed),
            cache_hits: self.cache.hits() as u64,
            cache_misses: self.cache.misses() as u64,
            cache_entries: self.cache.len() as u64,
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            per_scenario: if detailed {
                self.per_scenario
                    .lock()
                    .expect("per-scenario counters poisoned")
                    .iter()
                    .map(|(name, scenes)| (name.clone(), *scenes))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// Decrements a counter on scope exit (connection/request accounting
/// stays correct on every path, including panics and early returns).
struct CountGuard<'c>(&'c AtomicU64);

impl<'c> CountGuard<'c> {
    fn enter(counter: &'c AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        CountGuard(counter)
    }
}

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The worlds the daemon can compile against. Worlds are deterministic
/// and immutable, so they are generated once per process and shared by
/// every daemon instance (map generation is the expensive part).
fn world_named(name: &str) -> Option<Arc<World>> {
    static GTA: OnceLock<Arc<World>> = OnceLock::new();
    static MARS: OnceLock<Arc<World>> = OnceLock::new();
    static BARE: OnceLock<Arc<World>> = OnceLock::new();
    match name {
        "gta" => Some(Arc::clone(GTA.get_or_init(|| {
            Arc::new(
                scenic_gta::World::generate(scenic_gta::MapConfig::default())
                    .core()
                    .clone(),
            )
        }))),
        "mars" => Some(Arc::clone(
            MARS.get_or_init(|| Arc::new(scenic_mars::world())),
        )),
        "bare" => Some(Arc::clone(BARE.get_or_init(|| Arc::new(World::bare())))),
        _ => None,
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:7907"`, or port `0` for an
    /// ephemeral port) with default configuration.
    ///
    /// # Errors
    ///
    /// Socket errors (address in use, permission denied, …).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Server::bind_with(addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit [`ServerConfig`] (tests shorten
    /// the timeouts).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn bind_with(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState::new(config)),
        })
    }

    /// The bound address (reports the actual port after binding port 0).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared daemon state.
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop on the calling thread until a client
    /// requests shutdown, then drains in-flight connections (bounded
    /// wait) and returns.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection failures are handled
    /// on their own threads.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let connection_id = state.open_connections.load(Ordering::SeqCst);
            let _ = std::thread::Builder::new()
                .name(format!("scenicd-conn-{connection_id}"))
                .spawn(move || {
                    let _guard = CountGuard::enter(&state.open_connections);
                    handle_connection(&state, stream, addr);
                });
        }
        // Bounded drain: give in-flight handlers a moment to finish
        // their current reply before the process (or test) moves on.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.state.open_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Runs the daemon on a background thread, returning a handle with
    /// the bound address — the in-process fixture used by the test
    /// harness and the load bencher.
    ///
    /// # Errors
    ///
    /// Socket or thread-spawn errors.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state();
        let thread = std::thread::Builder::new()
            .name("scenicd-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

/// A running daemon on a background thread (see [`Server::spawn`]).
///
/// Dropping the handle shuts the daemon down (best-effort); call
/// [`ServerHandle::shutdown`] to observe the result.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state (counters, cache).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests graceful shutdown and joins the accept thread.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's error, if any.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> std::io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        // Ask nicely over the protocol; fall back to flag + wake so a
        // wedged socket can't make shutdown hang.
        if let Ok(mut client) = crate::client::Client::connect(self.addr) {
            let _ = client.request(&Request::Shutdown);
        } else {
            self.state.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
        }
        thread
            .join()
            .map_err(|_| std::io::Error::other("scenicd accept thread panicked"))?
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// What a handled request tells the connection loop to do next.
enum Continuation {
    /// Keep reading requests from this connection.
    KeepOpen,
    /// Stop serving this connection.
    Close,
}

/// One connection's request/reply loop. Protocol errors are reported
/// with a typed error frame (when the socket still accepts writes) and
/// close only this connection.
fn handle_connection(state: &ServerState, mut stream: TcpStream, listener_addr: SocketAddr) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    loop {
        match read_request(&mut stream) {
            Ok(None) => break, // clean close
            Ok(Some(request)) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                let _guard = CountGuard::enter(&state.in_flight);
                match handle_request(state, &mut stream, request, listener_addr) {
                    Ok(Continuation::KeepOpen) => {}
                    Ok(Continuation::Close) | Err(_) => break,
                }
            }
            Err(err) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                // Frame-level garbage leaves the stream position
                // unknowable, so always close — but send the typed
                // error first when the transport itself still works.
                if !matches!(err, ProtoError::Io(_)) {
                    let _ = write_response(
                        &mut stream,
                        &Response::Error {
                            code: err.code().to_string(),
                            message: err.to_string(),
                        },
                    );
                }
                break;
            }
        }
    }
}

/// Serves one request. `Err` means the transport died mid-reply (the
/// connection is abandoned); request-level failures are `Ok` replies
/// carrying [`Response::Error`].
fn handle_request(
    state: &ServerState,
    stream: &mut TcpStream,
    request: Request,
    listener_addr: SocketAddr,
) -> Result<Continuation, ProtoError> {
    match request {
        Request::Health => {
            write_response(
                stream,
                &Response::Health {
                    ok: true,
                    uptime_ms: state.uptime_ms(),
                },
            )?;
            Ok(Continuation::KeepOpen)
        }
        Request::Status => {
            write_response(stream, &Response::Status(state.stats(false)))?;
            Ok(Continuation::KeepOpen)
        }
        Request::Stats => {
            write_response(stream, &Response::Status(state.stats(true)))?;
            Ok(Continuation::KeepOpen)
        }
        Request::Shutdown => {
            write_response(stream, &Response::ShuttingDown)?;
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(listener_addr);
            Ok(Continuation::Close)
        }
        Request::Compile { source, world } => {
            let reply = match compile_cached(state, &world, &source) {
                Ok((_, cached)) => Response::Compiled {
                    cached,
                    source_hash: source_hash(&source),
                },
                Err(reply) => reply,
            };
            write_response(stream, &reply)?;
            Ok(Continuation::KeepOpen)
        }
        Request::Lint {
            file,
            source,
            world,
        } => {
            let reply = match world_named(&world) {
                None => Response::Error {
                    code: "bad-request".into(),
                    message: format!("unknown world `{world}` (expected gta, mars, or bare)"),
                },
                Some(w) => match state.cache.get_or_compile(&world, &source, &w) {
                    Ok(scenario) => lint_reply(&analyze(&scenario), &file, &source),
                    // Compile failures are themselves diagnostics: lint
                    // reports them instead of erroring.
                    Err(err) => lint_reply(&[Diagnostic::from_error(&err)], &file, &source),
                },
            };
            write_response(stream, &reply)?;
            Ok(Continuation::KeepOpen)
        }
        Request::Sample(request) => {
            handle_sample(state, stream, &request)?;
            Ok(Continuation::KeepOpen)
        }
    }
}

/// Renders a lint reply from diagnostics.
fn lint_reply(diags: &[Diagnostic], file: &str, source: &str) -> Response {
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    Response::Lint {
        text: render_text(diags, file, source),
        errors: count(Severity::Error),
        warnings: count(Severity::Warning),
        infos: count(Severity::Info),
    }
}

/// Compiles through the shared cache. The `bool` is "was already
/// cached"; failures come back as ready-to-send error replies.
fn compile_cached(
    state: &ServerState,
    world_name: &str,
    source: &str,
) -> Result<(Arc<scenic_core::Scenario>, bool), Response> {
    let Some(world) = world_named(world_name) else {
        return Err(Response::Error {
            code: "bad-request".into(),
            message: format!("unknown world `{world_name}` (expected gta, mars, or bare)"),
        });
    };
    let hits_before = state.cache.hits();
    match state.cache.get_or_compile(world_name, source, &world) {
        Ok(scenario) => Ok((scenario, state.cache.hits() > hits_before)),
        Err(err) => Err(Response::Error {
            code: "compile".into(),
            message: err.to_string(),
        }),
    }
}

/// Serves one `sample` request: compile via the shared cache, then
/// stream scenes back chunk by chunk as they complete. The scenes are
/// byte-identical to a local `sample_batch` with the same seed —
/// chunked ranged sampling reproduces exactly the full batch.
fn handle_sample(
    state: &ServerState,
    stream: &mut TcpStream,
    request: &SampleRequest,
) -> Result<(), ProtoError> {
    let started = Instant::now();
    if request.jobs > MAX_JOBS {
        return write_response(
            stream,
            &Response::Error {
                code: "bad-request".into(),
                message: format!(
                    "jobs {} exceeds the daemon's cap of {MAX_JOBS}",
                    request.jobs
                ),
            },
        );
    }
    let scenario = match compile_cached(state, &request.world, &request.source) {
        Ok((scenario, _)) => scenario,
        Err(reply) => return write_response(stream, &reply),
    };
    let engine = if request.engine.is_empty() {
        Engine::default()
    } else {
        match request.engine.parse::<Engine>() {
            Ok(engine) => engine,
            Err(message) => {
                return write_response(
                    stream,
                    &Response::Error {
                        code: "bad-request".into(),
                        message,
                    },
                )
            }
        }
    };
    let jobs = if request.jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_JOBS)
    } else {
        request.jobs
    };
    let deadline = started
        + request
            .timeout_ms
            .map_or(state.config.request_timeout, Duration::from_millis);

    // `request.prune` is accepted and ignored: the daemon, like
    // `scenic sample`, never runs the §5.2 prune guards.
    let mut sampler = Sampler::new(&scenario)
        .with_seed(request.seed)
        .with_engine(engine);

    // Chunked streaming: a chunk per `jobs` scenes keeps all workers
    // busy while delivering results incrementally.
    let chunk = jobs.max(1);
    let mut sent = 0;
    while sent < request.n {
        let count = chunk.min(request.n - sent);
        match sampler.sample_batch_report_range(sent, count, jobs) {
            Ok(report) => {
                for (offset, scene) in report.scenes.iter().enumerate() {
                    write_response(
                        stream,
                        &Response::Scene {
                            index: sent + offset,
                            text: render_scene(scene, &request.format),
                        },
                    )?;
                }
            }
            Err(err) => {
                // Structured failure — the daemon keeps serving. This
                // covers scenario errors, exhausted budgets, AND
                // sampler worker panics (ScenicError::WorkerPanic).
                return write_response(
                    stream,
                    &Response::Error {
                        code: match err {
                            ScenicError::WorkerPanic { .. } => "panic".into(),
                            _ => "sample".into(),
                        },
                        message: err.to_string(),
                    },
                );
            }
        }
        sent += count;
        if sent < request.n && Instant::now() > deadline {
            return write_response(
                stream,
                &Response::Error {
                    code: "timeout".into(),
                    message: format!(
                        "request deadline exceeded after {sent} of {} scenes",
                        request.n
                    ),
                },
            );
        }
    }

    state
        .scenes_served
        .fetch_add(sent as u64, Ordering::Relaxed);
    let label = if request.name.is_empty() {
        format!("{:016x}", source_hash(&request.source))
    } else {
        request.name.clone()
    };
    *state
        .per_scenario
        .lock()
        .expect("per-scenario counters poisoned")
        .entry(label)
        .or_insert(0) += sent as u64;

    let stats = sampler.stats();
    write_response(
        stream,
        &Response::Done {
            scenes: stats.scenes,
            iterations: stats.iterations,
            elapsed_ms: started.elapsed().as_secs_f64() * 1000.0,
        },
    )
}
