//! Daemon-grade integration tests for `scenicd`.
//!
//! Everything here runs against a real daemon on a real socket: each
//! fixture binds an ephemeral port (`127.0.0.1:0`) and spawns the
//! accept loop in-process, so the full wire path — framing, dispatch,
//! the shared worker pool and scenario cache, streaming replies — is
//! exercised, not a mock. The suite pins three contracts:
//!
//! 1. **Determinism**: daemon-served scenes are byte-identical to local
//!    sampling, pinned against the same digest table as
//!    `tests/determinism.rs` for every bundled scenario.
//! 2. **Concurrency**: many clients with interleaved scenarios each get
//!    exactly their own scenes; results never cross streams.
//! 3. **Robustness**: truncated frames, oversized lengths, garbage,
//!    deeply nested or very wide JSON, stalled and dropped connections,
//!    and failing scenarios all produce typed errors, prompt replies or
//!    clean drops on *that* connection — the daemon keeps serving
//!    everyone else.

use scenic::serve::proto::{read_response, write_frame, Request, Response, SampleRequest};
use scenic::serve::{Client, ClientError, Server, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------

/// Boots an in-process daemon on an ephemeral port.
fn daemon() -> ServerHandle {
    daemon_with(ServerConfig::default())
}

fn daemon_with(config: ServerConfig) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect_retry(handle.addr(), Duration::from_secs(5)).expect("connect to daemon")
}

/// Loads a bundled scenario file from `scenarios/`.
fn bundled(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn sample_request(source: &str, world: &str, name: &str, n: usize) -> SampleRequest {
    SampleRequest {
        source: source.to_string(),
        world: world.to_string(),
        name: name.to_string(),
        n,
        seed: 7,
        jobs: 2,
        // Accepted and ignored: the daemon never runs prune guards.
        prune: true,
        engine: String::new(),
        format: "json".into(),
        timeout_ms: None,
    }
}

// ---------------------------------------------------------------------
// Determinism: daemon output is pinned to the same digests as local
// sampling (tests/determinism.rs) for every bundled scenario.
// ---------------------------------------------------------------------

const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_str(mut hash: u64, text: &str) -> u64 {
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn batch_digest(texts: &[String]) -> u64 {
    texts.iter().fold(FNV_INIT, |hash, t| fnv_str(hash, t))
}

/// The pinned 3-scene seed-7 batch digests from `tests/determinism.rs`:
/// the daemon must reproduce local `sample_batch` byte-for-byte.
const BUNDLED_BATCH_DIGESTS: &[(&str, &str, u64)] = &[
    ("simplest.scenic", "gta", 11147000041812585473),
    ("two_cars.scenic", "gta", 12432342917023476994),
    ("badly_parked.scenic", "gta", 13142882594589914072),
    ("gta_intersection.scenic", "gta", 15307603797103711724),
    ("gta_oncoming.scenic", "gta", 16107416849542298254),
    ("mars_bottleneck.scenic", "mars", 432406145982909675),
    ("mars_formation.scenic", "mars", 1255604280676792309),
];

#[test]
fn daemon_scenes_match_the_pinned_batch_digests() {
    let handle = daemon();
    let mut client = connect(&handle);
    for (name, world, expected) in BUNDLED_BATCH_DIGESTS {
        let scenes = client
            .sample_collect(&sample_request(&bundled(name), world, name, 3))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(scenes.len(), 3, "{name}");
        assert_eq!(
            batch_digest(&scenes),
            *expected,
            "{name}: daemon-served batch digest drifted from the local \
             sampling contract (scenes must be byte-identical to \
             `scenic sample` for the same seed)"
        );
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn daemon_streams_are_byte_identical_to_in_process_sampling() {
    use scenic::prelude::*;
    use scenic::serve::format::render_scene;

    let handle = daemon();
    let mut client = connect(&handle);
    let source = bundled("two_cars.scenic");
    let world = scenic::gta::World::generate(scenic::gta::MapConfig::default());
    let scenario = compile_with_world(&source, world.core()).unwrap();
    for format in ["json", "summary", "gta", "wbt"] {
        let local: Vec<String> = Sampler::new(&scenario)
            .with_seed(7)
            .sample_batch(4, 2)
            .unwrap()
            .iter()
            .map(|scene| render_scene(scene, format))
            .collect();
        let mut request = sample_request(&source, "gta", "two_cars", 4);
        request.format = format.into();
        // Indices must arrive in order, 0..n, exactly once.
        let mut seen = Vec::new();
        let mut remote = Vec::new();
        let (scenes, iterations, _elapsed) = client
            .sample(&request, |i, text| {
                seen.push(i);
                remote.push(text.to_string());
            })
            .unwrap();
        assert_eq!(seen, (0..4).collect::<Vec<_>>(), "{format}: stream order");
        assert_eq!(scenes, 4);
        assert!(iterations >= 4);
        assert_eq!(remote, local, "{format}: daemon text differs from local");
    }
}

// ---------------------------------------------------------------------
// Shared cache across clients and requests
// ---------------------------------------------------------------------

#[test]
fn clients_share_one_compile_per_scenario() {
    let handle = daemon();
    let source = bundled("simplest.scenic");
    let mut a = connect(&handle);
    let mut b = connect(&handle);
    match a
        .request(&Request::Compile {
            source: source.clone(),
            world: "gta".into(),
        })
        .unwrap()
    {
        Response::Compiled {
            cached,
            source_hash,
        } => {
            assert!(!cached, "first compile cannot be a hit");
            assert_eq!(source_hash, scenic::core::source_hash(&source));
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // The second client hits the entry the first one created.
    match b
        .request(&Request::Compile {
            source: source.clone(),
            world: "gta".into(),
        })
        .unwrap()
    {
        Response::Compiled { cached, .. } => assert!(cached, "second compile must hit"),
        other => panic!("unexpected reply {other:?}"),
    }
    // ...and sampling reuses it too.
    a.sample_collect(&sample_request(&source, "gta", "simplest", 1))
        .unwrap();
    let stats = b.stats(true).unwrap();
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.cache_misses, 1, "exactly one compile ever ran");
    assert!(stats.cache_hits >= 2);
    assert_eq!(stats.scenes_served, 1);
    assert_eq!(
        stats.per_scenario,
        vec![("simplest".to_string(), 1)],
        "per-scenario scenes served"
    );
}

// ---------------------------------------------------------------------
// Concurrency: interleaved clients, results never cross streams
// ---------------------------------------------------------------------

#[test]
fn eight_concurrent_clients_each_get_exactly_their_scenario() {
    let handle = daemon();
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let (name, world, expected) =
                    BUNDLED_BATCH_DIGESTS[i % BUNDLED_BATCH_DIGESTS.len()];
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
                // Every client also interleaves control traffic with its
                // sampling to stir the dispatch paths.
                client.health().expect("health");
                let mut request = sample_request(&bundled(name), world, name, 3);
                request.jobs = 1 + i % 3;
                let scenes = client
                    .sample_collect(&request)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                client.stats(false).expect("status");
                (name, expected, batch_digest(&scenes))
            })
        })
        .collect();
    for thread in threads {
        let (name, expected, got) = thread.join().expect("client thread");
        assert_eq!(
            got, expected,
            "{name}: a concurrent client received scenes that are not \
             its own (results crossed streams or determinism broke)"
        );
    }
    let mut client = connect(&handle);
    let stats = client.stats(true).unwrap();
    assert_eq!(stats.scenes_served, 24, "8 clients x 3 scenes");
    assert_eq!(
        stats.cache_misses, 7,
        "7 distinct scenarios compile exactly once each"
    );
    assert_eq!(stats.protocol_errors, 0);
}

// ---------------------------------------------------------------------
// Robustness: malformed input hurts only its own connection
// ---------------------------------------------------------------------

/// Asserts the daemon still serves new clients.
fn assert_alive(handle: &ServerHandle) {
    let mut probe = connect(handle);
    probe.health().expect("daemon must keep serving");
}

#[test]
fn truncated_frame_drops_only_that_connection() {
    let handle = daemon();
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        // Claim 100 bytes, send 10, vanish.
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(&[0x7b; 10]).unwrap();
    } // dropped here: the daemon sees EOF mid-frame
    assert_alive(&handle);
}

#[test]
fn oversized_length_prefix_gets_a_typed_error() {
    let handle = daemon();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match read_response(&mut raw).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, "frame-too-large"),
        other => panic!("expected frame-too-large error, got {other:?}"),
    }
    // The daemon closes the connection after a framing error.
    assert!(read_response(&mut raw).unwrap().is_none());
    assert_alive(&handle);
}

#[test]
fn garbage_json_gets_a_typed_error() {
    let handle = daemon();
    // 10,000 open brackets once overflowed the handler thread's stack,
    // which aborts the whole daemon; the parser now stops at its depth
    // bound.
    for body in [b"{this is not json".to_vec(), vec![b'['; 10_000]] {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut raw, &body).unwrap();
        match read_response(&mut raw).unwrap() {
            Some(Response::Error { code, .. }) => assert_eq!(code, "bad-json"),
            other => panic!("expected bad-json error, got {other:?}"),
        }
        assert!(read_response(&mut raw).unwrap().is_none());
        assert_alive(&handle);
    }
}

#[test]
fn an_object_with_200k_keys_is_answered_promptly() {
    // Finding repeated keys by scanning every earlier one made this
    // frame (2.4 MB, well under the frame cap) pin a handler thread for
    // minutes.
    let handle = daemon();
    let mut body = String::from(r#"{"type":"health""#);
    for i in 0..200_000 {
        body.push_str(&format!(r#","k{i}":0"#));
    }
    body.push('}');
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, body.as_bytes()).unwrap();
    match read_response(&mut raw) {
        Ok(Some(Response::Health { ok: true, .. })) => {}
        other => panic!("expected a health reply within 10 s, got {other:?}"),
    }
    assert_alive(&handle);
}

#[test]
fn valid_json_with_wrong_schema_gets_a_typed_error() {
    let handle = daemon();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut raw, br#"{"type": "make-me-a-sandwich"}"#).unwrap();
    match read_response(&mut raw).unwrap() {
        Some(Response::Error { code, .. }) => assert_eq!(code, "bad-message"),
        other => panic!("expected bad-message error, got {other:?}"),
    }
    assert_alive(&handle);
}

#[test]
fn stalled_partial_frame_is_reaped_by_the_read_timeout() {
    // Short read timeout so the stalled connection is reaped quickly.
    let handle = daemon_with(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&[0, 0]).unwrap(); // half a length prefix, then silence
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // The daemon must hang up on us (EOF), not hold the thread forever.
    assert!(
        read_response(&mut raw).unwrap().is_none(),
        "daemon should close a stalled connection"
    );
    assert_alive(&handle);
}

#[test]
fn mid_stream_client_disconnect_does_not_poison_the_daemon() {
    let handle = daemon();
    {
        let mut client = connect(&handle);
        // Start a long streaming reply, read one frame, vanish.
        client
            .send(&Request::Sample(sample_request(
                &bundled("two_cars.scenic"),
                "gta",
                "two_cars",
                50,
            )))
            .unwrap();
        let first = client.recv().unwrap();
        assert!(matches!(first, Response::Scene { .. }), "got {first:?}");
    } // connection dropped with ~49 scenes unsent
      // The daemon's write fails mid-stream; the shared pool and cache
      // must survive and serve the same scenario to the next client.
    let mut client = connect(&handle);
    let scenes = client
        .sample_collect(&sample_request(
            &bundled("two_cars.scenic"),
            "gta",
            "two_cars",
            3,
        ))
        .unwrap();
    assert_eq!(
        batch_digest(&scenes),
        12432342917023476994,
        "post-disconnect batch must still match the pinned digest"
    );
}

// ---------------------------------------------------------------------
// Request-level failures: structured errors, connection stays usable
// ---------------------------------------------------------------------

#[test]
fn failing_scenario_returns_a_structured_error_and_daemon_keeps_serving() {
    let handle = daemon();
    let mut client = connect(&handle);
    // `Car` is undefined in the bare world: sampling fails at request
    // level. The old panic path would have taken a worker thread (and
    // before the WorkerPanic refactor, the daemon's reply) with it.
    let err = client
        .sample_collect(&sample_request("ego = Car\n", "bare", "broken", 2))
        .expect_err("undefined class must fail");
    match err {
        ClientError::Daemon { code, message } => {
            assert_eq!(code, "sample");
            assert!(message.contains("Car"), "unhelpful message: {message}");
        }
        other => panic!("expected a structured daemon error, got {other}"),
    }
    // Same connection: still usable for the next request.
    client
        .health()
        .expect("connection survives a failed request");
    let scenes = client
        .sample_collect(&sample_request("ego = Object at 0 @ 0\n", "bare", "ok", 2))
        .expect("daemon serves after a failed scenario");
    assert_eq!(scenes.len(), 2);
    // Unknown world: a bad-request error, also non-fatal.
    let err = client
        .sample_collect(&sample_request("ego = Object\n", "jupiter", "x", 1))
        .expect_err("unknown world must fail");
    assert!(matches!(err, ClientError::Daemon { ref code, .. } if code == "bad-request"));
    // Unknown engine: same.
    let mut request = sample_request("ego = Object\n", "bare", "x", 1);
    request.engine = "quantum".into();
    let err = client
        .sample_collect(&request)
        .expect_err("unknown engine must fail");
    assert!(matches!(err, ClientError::Daemon { ref code, .. } if code == "bad-request"));
    client.health().expect("still alive after every failure");
}

#[test]
fn a_request_over_the_jobs_cap_is_a_bad_request_and_grows_no_pool() {
    // Each job is a thread of the process-wide pool, which never
    // shrinks, and a failed spawn there panics with the pool's worker
    // list locked, which breaks every later pooled request. Neither
    // request here starts a pool thread: the daemon refuses the first
    // before sampling, and the second runs at jobs 1, inline.
    let pool = scenic::core::WorkerPool::global();
    let before = pool.workers();
    let handle = daemon();
    let mut client = connect(&handle);
    let mut request = sample_request("ego = Object at 0 @ 0\n", "bare", "wide", 64);
    request.jobs = 1_000_000;
    let err = client
        .sample_collect(&request)
        .expect_err("jobs over the cap must fail");
    assert!(
        matches!(err, ClientError::Daemon { ref code, .. } if code == "bad-request"),
        "expected bad-request, got {err}"
    );
    request.jobs = 1;
    request.n = 1;
    let scenes = client
        .sample_collect(&request)
        .expect("the same connection keeps serving");
    assert_eq!(scenes.len(), 1);
    // Other tests in this binary run at most 3 jobs, so they may grow
    // the pool to 2 workers meanwhile. Had the first request sampled,
    // its 64 scenes at 64 jobs would have left 63.
    let after = pool.workers();
    assert!(
        after <= before.max(2),
        "the pool grew from {before} to {after} workers"
    );
}

#[test]
fn exceeded_request_deadline_is_a_typed_timeout_with_partial_results() {
    let handle = daemon();
    let mut client = connect(&handle);
    let mut request = sample_request(&bundled("two_cars.scenic"), "gta", "two_cars", 10);
    request.jobs = 1; // chunk size 1: the deadline check runs per scene
    request.timeout_ms = Some(0); // expires immediately after chunk one
    let mut streamed = 0;
    let err = client
        .sample(&request, |_, _| streamed += 1)
        .expect_err("a 0ms deadline cannot finish 10 scenes");
    assert!(
        matches!(err, ClientError::Daemon { ref code, .. } if code == "timeout"),
        "expected timeout, got {err}"
    );
    assert!(
        streamed >= 1,
        "scenes completed before the deadline are still delivered"
    );
    client.health().expect("connection survives a timeout");
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

#[test]
fn health_status_and_graceful_shutdown() {
    let handle = daemon();
    let mut client = connect(&handle);
    client.health().expect("health");
    let stats = client.stats(false).unwrap();
    assert_eq!(stats.scenes_served, 0);
    assert!(
        stats.per_scenario.is_empty(),
        "status omits per-scenario rows"
    );
    assert!(stats.requests >= 1);
    client.shutdown().expect("graceful shutdown replies first");
    // The handle's own shutdown is now a no-op join; it must not error.
    handle.shutdown().expect("accept loop exits cleanly");
}
