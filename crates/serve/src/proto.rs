//! The `scenicd` wire protocol: length-prefixed JSON frames.
//!
//! Every message on a daemon connection — in either direction — is one
//! **frame**: a 4-byte big-endian byte length followed by that many
//! bytes of UTF-8 JSON. The JSON is an object whose `"type"` field
//! selects the message variant; unknown or ill-typed fields are
//! rejected with a typed [`ProtoError`] instead of a panic, so a
//! misbehaving client can never take the daemon down.
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 BE length  | length bytes of JSON      |
//! +----------------+---------------------------+
//! ```
//!
//! Framing rules:
//!
//! - a length above [`MAX_FRAME_LEN`] is a protocol error (the peer
//!   replies with a typed error and drops the connection rather than
//!   allocating unbounded memory);
//! - a clean EOF *between* frames is a normal connection close
//!   ([`read_frame`] returns `Ok(None)`);
//! - an EOF *inside* a frame (truncated prefix or body) is an I/O
//!   error — the connection is dropped, nothing else is affected.
//!
//! 64-bit exactness: the vendored JSON tree stores numbers as `f64`,
//! which cannot represent every `u64`. Fields that must round-trip
//! exactly at full width (`seed`, `source_hash`) are therefore encoded
//! as decimal/hex *strings*; counters and sizes, which stay far below
//! 2^53 in practice, are plain JSON numbers.

use serde_json::Value;
use std::io::{Read, Write};

/// Upper bound on a single frame's byte length (16 MiB) — large enough
/// for any real scenario source or scene batch chunk, small enough that
/// a hostile length prefix cannot make the daemon allocate wildly.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A protocol-layer failure: transport errors plus the three ways a
/// peer can send us a malformed message.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (includes EOF inside a frame and read
    /// timeouts).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed frame length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The frame body is not valid JSON (or not UTF-8).
    BadJson(String),
    /// Valid JSON that does not match the message schema.
    BadMessage(String),
}

impl ProtoError {
    /// Stable machine-readable code, mirrored into error replies.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Io(_) => "io",
            ProtoError::FrameTooLarge { .. } => "frame-too-large",
            ProtoError::BadJson(_) => "bad-json",
            ProtoError::BadMessage(_) => "bad-message",
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtoError::BadJson(m) => write!(f, "malformed JSON frame: {m}"),
            ProtoError::BadMessage(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Result alias for protocol operations.
pub type ProtoResult<T> = Result<T, ProtoError>;

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

/// Writes one frame (length prefix + body) in one write and flushes.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] if the body exceeds [`MAX_FRAME_LEN`];
/// otherwise transport errors.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> ProtoResult<()> {
    if body.len() > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len: body.len(),
            max: MAX_FRAME_LEN,
        });
    }
    let len = u32::try_from(body.len()).expect("frame length fits u32");
    // Prefix and body leave in one write: on a `TCP_NODELAY` socket a
    // write of the prefix alone goes out as a segment of its own.
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes. `allow_clean_eof` makes an EOF
/// before the *first* byte return `Ok(false)` (connection closed
/// between frames); EOF anywhere else is an `UnexpectedEof` error.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    allow_clean_eof: bool,
) -> ProtoResult<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && allow_clean_eof => return Ok(false),
            Ok(0) => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame body; `Ok(None)` on a clean close between frames.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] on an oversized length prefix;
/// transport errors (including truncation) otherwise.
pub fn read_frame(r: &mut impl Read) -> ProtoResult<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_eof(r, &mut prefix, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len];
    read_exact_or_eof(r, &mut body, false)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// A batch-sampling request: compile (or hit the cache for) `source`
/// and stream `n` scenes back as they complete.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRequest {
    /// Scenario source text (the daemon never touches the filesystem).
    pub source: String,
    /// World to compile against (`gta`, `mars`, or `bare`).
    pub world: String,
    /// Display label for per-scenario statistics (usually the file
    /// stem; purely informational).
    pub name: String,
    /// Number of scenes.
    pub n: usize,
    /// Root seed — scene `i` draws from the same index-derived stream
    /// as a local `Sampler::sample_batch`, so daemon output is
    /// byte-identical to the CLI's for the same `(scenario, seed)`.
    pub seed: u64,
    /// Worker threads on the daemon's shared pool (0 = daemon default).
    pub jobs: usize,
    /// Accepted and ignored: the daemon never runs the §5.2 prune
    /// guards. The field stays on the wire because every client sends
    /// it; the guards never changed a scene.
    pub prune: bool,
    /// Evaluation engine (`""` = daemon default, else `ast`/`compiled`).
    pub engine: String,
    /// Per-scene output rendering: `json`, `gta`, `wbt`, or `summary`.
    pub format: String,
    /// Per-request deadline override in milliseconds (`None` = server
    /// default). On expiry the daemon sends a typed `timeout` error
    /// after the last completed chunk and keeps the connection usable.
    pub timeout_ms: Option<u64>,
}

/// A client→daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile `source` against `world` into the shared cache (warming
    /// it for later `Sample`s) and report whether it was already there.
    Compile {
        /// Scenario source text.
        source: String,
        /// World name.
        world: String,
    },
    /// Sample a batch, streaming scenes back incrementally.
    Sample(SampleRequest),
    /// Run the static analyzer and return rendered diagnostics.
    Lint {
        /// File name used in rendered diagnostics.
        file: String,
        /// Scenario source text.
        source: String,
        /// World name.
        world: String,
    },
    /// Summary statistics (no per-scenario breakdown).
    Status,
    /// Full statistics including per-scenario scenes served.
    Stats,
    /// Liveness probe.
    Health,
    /// Graceful shutdown: finish in-flight work, stop accepting.
    Shutdown,
}

/// Daemon-side counters reported by `status` / `stats`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DaemonStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Requests handled (all types, including failed ones).
    pub requests: u64,
    /// Requests currently executing.
    pub in_flight: u64,
    /// Total scenes streamed to clients.
    pub scenes_served: u64,
    /// Compiled-scenario cache hits.
    pub cache_hits: u64,
    /// Compiled-scenario cache misses (compilations that entered it).
    pub cache_misses: u64,
    /// Scenarios currently cached.
    pub cache_entries: u64,
    /// Malformed frames / messages seen (each also dropped or error-
    /// replied on its own connection without affecting others).
    pub protocol_errors: u64,
    /// Scenes served per scenario label (only in `stats` replies).
    pub per_scenario: Vec<(String, u64)>,
}

/// A daemon→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `Compile`.
    Compiled {
        /// Whether the scenario was already in the cache.
        cached: bool,
        /// FNV-1a content hash of the source (cache key half).
        source_hash: u64,
    },
    /// One streamed scene of a `Sample` reply, rendered in the
    /// requested format.
    Scene {
        /// Scene index within the batch.
        index: usize,
        /// Rendered scene text.
        text: String,
    },
    /// Terminal frame of a successful `Sample` reply.
    Done {
        /// Scenes streamed.
        scenes: usize,
        /// Total rejection-sampling iterations.
        iterations: usize,
        /// Wall-clock the daemon spent on the request.
        elapsed_ms: f64,
    },
    /// Reply to `Lint`.
    Lint {
        /// Diagnostics rendered rustc-style (empty when clean).
        text: String,
        /// Error-severity diagnostic count.
        errors: usize,
        /// Warning count.
        warnings: usize,
        /// Info/note count.
        infos: usize,
    },
    /// Reply to `Status` / `Stats`.
    Status(DaemonStats),
    /// Reply to `Health`.
    Health {
        /// Always true from a live daemon.
        ok: bool,
        /// Milliseconds since start.
        uptime_ms: u64,
    },
    /// Reply to `Shutdown`, sent before the daemon stops accepting.
    ShuttingDown,
    /// A structured failure: the request (or frame) could not be
    /// served. `code` is stable and machine-readable (`bad-json`,
    /// `bad-message`, `bad-request`, `compile`, `sample`, `timeout`,
    /// `frame-too-large`, `io`).
    Error {
        /// Stable machine-readable error class.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Value encoding
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    let mut map = serde_json::Map::new();
    for (k, v) in fields {
        map.insert(k, v);
    }
    Value::Object(map)
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

#[allow(clippy::cast_precision_loss)]
fn num(v: usize) -> Value {
    Value::Number(v as f64)
}

#[allow(clippy::cast_precision_loss)]
fn num64(v: u64) -> Value {
    Value::Number(v as f64)
}

/// `u64` carried as a decimal string: exact at full width (JSON numbers
/// are `f64` in the vendored tree model).
fn u64_string(v: u64) -> Value {
    Value::String(v.to_string())
}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError::BadMessage(message.into())
}

fn get<'v>(map: &'v serde_json::Map, key: &str) -> ProtoResult<&'v Value> {
    map.get(key).ok_or_else(|| bad(format!("missing `{key}`")))
}

fn get_str(map: &serde_json::Map, key: &str) -> ProtoResult<String> {
    get(map, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("`{key}` must be a string")))
}

fn get_bool(map: &serde_json::Map, key: &str) -> ProtoResult<bool> {
    get(map, key)?
        .as_bool()
        .ok_or_else(|| bad(format!("`{key}` must be a boolean")))
}

fn get_usize(map: &serde_json::Map, key: &str) -> ProtoResult<usize> {
    let n = get(map, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(bad(format!("`{key}` must be a non-negative integer")));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(n as usize)
}

fn get_u64(map: &serde_json::Map, key: &str) -> ProtoResult<u64> {
    Ok(get_usize(map, key)? as u64)
}

fn get_f64(map: &serde_json::Map, key: &str) -> ProtoResult<f64> {
    get(map, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))
}

/// Decodes a `u64` carried as a decimal string.
fn get_u64_string(map: &serde_json::Map, key: &str) -> ProtoResult<u64> {
    get_str(map, key)?
        .parse()
        .map_err(|_| bad(format!("`{key}` must be a decimal u64 string")))
}

impl Request {
    /// Encodes to the JSON tree model.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            Request::Compile { source, world } => obj(vec![
                ("type", s("compile")),
                ("source", s(source)),
                ("world", s(world)),
            ]),
            Request::Sample(r) => {
                let mut fields = vec![
                    ("type", s("sample")),
                    ("source", s(&r.source)),
                    ("world", s(&r.world)),
                    ("name", s(&r.name)),
                    ("n", num(r.n)),
                    ("seed", u64_string(r.seed)),
                    ("jobs", num(r.jobs)),
                    ("prune", Value::Bool(r.prune)),
                    ("engine", s(&r.engine)),
                    ("format", s(&r.format)),
                ];
                if let Some(t) = r.timeout_ms {
                    fields.push(("timeout_ms", num64(t)));
                }
                obj(fields)
            }
            Request::Lint {
                file,
                source,
                world,
            } => obj(vec![
                ("type", s("lint")),
                ("file", s(file)),
                ("source", s(source)),
                ("world", s(world)),
            ]),
            Request::Status => obj(vec![("type", s("status"))]),
            Request::Stats => obj(vec![("type", s("stats"))]),
            Request::Health => obj(vec![("type", s("health"))]),
            Request::Shutdown => obj(vec![("type", s("shutdown"))]),
        }
    }

    /// Decodes from the JSON tree model.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMessage`] on schema mismatches.
    pub fn from_value(value: &Value) -> ProtoResult<Request> {
        let map = value.as_object().ok_or_else(|| bad("not a JSON object"))?;
        match get_str(map, "type")?.as_str() {
            "compile" => Ok(Request::Compile {
                source: get_str(map, "source")?,
                world: get_str(map, "world")?,
            }),
            "sample" => Ok(Request::Sample(SampleRequest {
                source: get_str(map, "source")?,
                world: get_str(map, "world")?,
                name: get_str(map, "name")?,
                n: get_usize(map, "n")?,
                seed: get_u64_string(map, "seed")?,
                jobs: get_usize(map, "jobs")?,
                prune: get_bool(map, "prune")?,
                engine: get_str(map, "engine")?,
                format: get_str(map, "format")?,
                timeout_ms: match map.get("timeout_ms") {
                    Some(_) => Some(get_u64(map, "timeout_ms")?),
                    None => None,
                },
            })),
            "lint" => Ok(Request::Lint {
                file: get_str(map, "file")?,
                source: get_str(map, "source")?,
                world: get_str(map, "world")?,
            }),
            "status" => Ok(Request::Status),
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!("unknown request type `{other}`"))),
        }
    }
}

impl Response {
    /// Encodes to the JSON tree model.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            Response::Compiled {
                cached,
                source_hash,
            } => obj(vec![
                ("type", s("compiled")),
                ("cached", Value::Bool(*cached)),
                ("source_hash", u64_string(*source_hash)),
            ]),
            Response::Scene { index, text } => obj(vec![
                ("type", s("scene")),
                ("index", num(*index)),
                ("text", s(text)),
            ]),
            Response::Done {
                scenes,
                iterations,
                elapsed_ms,
            } => obj(vec![
                ("type", s("done")),
                ("scenes", num(*scenes)),
                ("iterations", num(*iterations)),
                ("elapsed_ms", Value::Number(*elapsed_ms)),
            ]),
            Response::Lint {
                text,
                errors,
                warnings,
                infos,
            } => obj(vec![
                ("type", s("lint")),
                ("text", s(text)),
                ("errors", num(*errors)),
                ("warnings", num(*warnings)),
                ("infos", num(*infos)),
            ]),
            Response::Status(stats) => obj(vec![
                ("type", s("status")),
                ("uptime_ms", num64(stats.uptime_ms)),
                ("requests", num64(stats.requests)),
                ("in_flight", num64(stats.in_flight)),
                ("scenes_served", num64(stats.scenes_served)),
                ("cache_hits", num64(stats.cache_hits)),
                ("cache_misses", num64(stats.cache_misses)),
                ("cache_entries", num64(stats.cache_entries)),
                ("protocol_errors", num64(stats.protocol_errors)),
                (
                    "per_scenario",
                    Value::Array(
                        stats
                            .per_scenario
                            .iter()
                            .map(|(name, scenes)| {
                                obj(vec![("name", s(name)), ("scenes", num64(*scenes))])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Health { ok, uptime_ms } => obj(vec![
                ("type", s("health")),
                ("ok", Value::Bool(*ok)),
                ("uptime_ms", num64(*uptime_ms)),
            ]),
            Response::ShuttingDown => obj(vec![("type", s("shutting-down"))]),
            Response::Error { code, message } => obj(vec![
                ("type", s("error")),
                ("code", s(code)),
                ("message", s(message)),
            ]),
        }
    }

    /// Decodes from the JSON tree model.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMessage`] on schema mismatches.
    pub fn from_value(value: &Value) -> ProtoResult<Response> {
        let map = value.as_object().ok_or_else(|| bad("not a JSON object"))?;
        match get_str(map, "type")?.as_str() {
            "compiled" => Ok(Response::Compiled {
                cached: get_bool(map, "cached")?,
                source_hash: get_u64_string(map, "source_hash")?,
            }),
            "scene" => Ok(Response::Scene {
                index: get_usize(map, "index")?,
                text: get_str(map, "text")?,
            }),
            "done" => Ok(Response::Done {
                scenes: get_usize(map, "scenes")?,
                iterations: get_usize(map, "iterations")?,
                elapsed_ms: get_f64(map, "elapsed_ms")?,
            }),
            "lint" => Ok(Response::Lint {
                text: get_str(map, "text")?,
                errors: get_usize(map, "errors")?,
                warnings: get_usize(map, "warnings")?,
                infos: get_usize(map, "infos")?,
            }),
            "status" => {
                let per_scenario = get(map, "per_scenario")?
                    .as_array()
                    .ok_or_else(|| bad("`per_scenario` must be an array"))?
                    .iter()
                    .map(|row| {
                        let row = row
                            .as_object()
                            .ok_or_else(|| bad("`per_scenario` rows must be objects"))?;
                        Ok((get_str(row, "name")?, get_u64(row, "scenes")?))
                    })
                    .collect::<ProtoResult<Vec<_>>>()?;
                Ok(Response::Status(DaemonStats {
                    uptime_ms: get_u64(map, "uptime_ms")?,
                    requests: get_u64(map, "requests")?,
                    in_flight: get_u64(map, "in_flight")?,
                    scenes_served: get_u64(map, "scenes_served")?,
                    cache_hits: get_u64(map, "cache_hits")?,
                    cache_misses: get_u64(map, "cache_misses")?,
                    cache_entries: get_u64(map, "cache_entries")?,
                    protocol_errors: get_u64(map, "protocol_errors")?,
                    per_scenario,
                }))
            }
            "health" => Ok(Response::Health {
                ok: get_bool(map, "ok")?,
                uptime_ms: get_u64(map, "uptime_ms")?,
            }),
            "shutting-down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                code: get_str(map, "code")?,
                message: get_str(map, "message")?,
            }),
            other => Err(bad(format!("unknown response type `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------
// Message layer: frame + JSON + schema in one call
// ---------------------------------------------------------------------

fn encode(value: &Value) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("tree value serializes")
        .into_bytes()
}

fn decode(body: &[u8]) -> ProtoResult<Value> {
    let text = std::str::from_utf8(body).map_err(|e| ProtoError::BadJson(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| ProtoError::BadJson(e.to_string()))
}

/// Writes one request frame.
///
/// # Errors
///
/// Transport errors.
pub fn write_request(w: &mut impl Write, request: &Request) -> ProtoResult<()> {
    write_frame(w, &encode(&request.to_value()))
}

/// Reads one request frame; `Ok(None)` on clean close.
///
/// # Errors
///
/// Framing, JSON, or schema errors (see [`ProtoError`]).
pub fn read_request(r: &mut impl Read) -> ProtoResult<Option<Request>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Ok(Some(Request::from_value(&decode(&body)?)?)),
    }
}

/// Writes one response frame.
///
/// # Errors
///
/// Transport errors.
pub fn write_response(w: &mut impl Write, response: &Response) -> ProtoResult<()> {
    write_frame(w, &encode(&response.to_value()))
}

/// Reads one response frame; `Ok(None)` on clean close.
///
/// # Errors
///
/// Framing, JSON, or schema errors (see [`ProtoError`]).
pub fn read_response(r: &mut impl Read) -> ProtoResult<Option<Response>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Ok(Some(Response::from_value(&decode(&body)?)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(7); // prefix + 3 of 11 body bytes
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            ProtoError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
        // Truncated prefix, too.
        let mut r = &buf[..2];
        assert!(matches!(read_frame(&mut r).unwrap_err(), ProtoError::Io(_)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            ProtoError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn garbage_json_is_a_bad_json_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{not json").unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            ProtoError::BadJson(_)
        ));
    }

    #[test]
    fn wrong_schema_is_a_bad_message_error() {
        for body in [
            "42",
            "{}",
            "{\"type\": \"nonsense\"}",
            "{\"type\": \"scene\", \"index\": \"NaN\", \"text\": \"\"}",
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, body.as_bytes()).unwrap();
            let mut r = buf.as_slice();
            assert!(
                matches!(
                    read_response(&mut r).unwrap_err(),
                    ProtoError::BadMessage(_)
                ),
                "body `{body}` should be a schema error"
            );
        }
    }

    #[test]
    fn seed_survives_at_full_u64_width() {
        let request = Request::Sample(SampleRequest {
            source: "ego = Object\n".into(),
            world: "bare".into(),
            name: "x".into(),
            n: 1,
            seed: u64::MAX - 12345, // not representable as f64
            jobs: 1,
            prune: true,
            engine: String::new(),
            format: "json".into(),
            timeout_ms: None,
        });
        let decoded = Request::from_value(&request.to_value()).unwrap();
        assert_eq!(request, decoded);
    }
}
