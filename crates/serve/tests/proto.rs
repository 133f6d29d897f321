//! Property tests for the `scenicd` wire protocol: arbitrary requests
//! and responses survive the codec byte-exactly, even when the reader
//! sees the stream in adversarially small pieces (frame boundaries
//! split across partial reads — exactly what a TCP socket does).
//!
//! Drawn text mixes printable ASCII with every kind of byte the JSON
//! layer treats as a run boundary: `"` and `\` (weighted up), `\n`,
//! `\r`, `\t`, other control characters (U+0001, U+001F) and
//! multi-byte characters (`é`, `€`, `😀`). Golden frames at the end pin
//! the exact bytes of one frame of every message variant.

use proptest::prelude::*;
use scenic_serve::proto::{
    read_request, read_response, write_request, write_response, DaemonStats, Request, Response,
    SampleRequest,
};
use std::io::Read;

/// A reader that hands out at most `chunk` bytes per `read` call, so
/// every frame prefix and body crosses several partial reads.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunk: usize) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Builds one of every request variant from drawn primitives.
fn build_request(
    variant: u8,
    text: &str,
    n: usize,
    seed: u64,
    flag: bool,
    timeout: u64,
) -> Request {
    match variant % 7 {
        0 => Request::Compile {
            source: text.to_string(),
            world: "bare".into(),
        },
        1 => Request::Sample(SampleRequest {
            source: text.to_string(),
            world: "gta".into(),
            name: text.chars().rev().collect(),
            n,
            seed,
            jobs: n % 17,
            prune: flag,
            engine: if flag {
                "compiled".into()
            } else {
                String::new()
            },
            format: "json".into(),
            timeout_ms: if flag { Some(timeout) } else { None },
        }),
        2 => Request::Lint {
            file: text.chars().take(20).collect(),
            source: text.to_string(),
            world: "mars".into(),
        },
        3 => Request::Status,
        4 => Request::Stats,
        5 => Request::Health,
        _ => Request::Shutdown,
    }
}

/// Builds one of every response variant from drawn primitives.
fn build_response(variant: u8, text: &str, n: usize, seed: u64, flag: bool) -> Response {
    match variant % 8 {
        0 => Response::Compiled {
            cached: flag,
            source_hash: seed,
        },
        1 => Response::Scene {
            index: n,
            text: text.to_string(),
        },
        2 => Response::Done {
            scenes: n,
            iterations: n.wrapping_mul(3),
            // Drawn f64s may not survive the decimal formatter exactly;
            // a dyadic value does, which is what we need to test the
            // field's round-trip path.
            elapsed_ms: (n as f64) + 0.5,
        },
        3 => Response::Lint {
            text: text.to_string(),
            errors: n % 5,
            warnings: n % 3,
            infos: n % 7,
        },
        4 => Response::Status(DaemonStats {
            uptime_ms: seed % (1 << 50),
            requests: n as u64,
            in_flight: (n % 9) as u64,
            scenes_served: seed % 1_000_003,
            cache_hits: (n % 1001) as u64,
            cache_misses: (n % 13) as u64,
            cache_entries: (n % 13) as u64,
            protocol_errors: (n % 2) as u64,
            per_scenario: vec![
                (text.to_string(), (n % 100) as u64),
                ("other".into(), seed % 7),
            ],
        }),
        5 => Response::Health {
            ok: flag,
            uptime_ms: seed % (1 << 50),
        },
        6 => Response::ShuttingDown,
        _ => Response::Error {
            code: "sample".into(),
            message: text.to_string(),
        },
    }
}

proptest! {
    #[test]
    fn requests_round_trip_through_split_frames(
        variant in proptest::num::u8::ANY,
        text in "[ -~\n\t\r\"\\\\\u{1}\u{1f}é€😀]{0,120}",
        n in 0usize..100_000,
        seed in proptest::num::u64::ANY,
        flag in proptest::bool::ANY,
        timeout in 0u64..1_000_000,
        chunk in 1usize..9,
    ) {
        let request = build_request(variant, &text, n, seed, flag, timeout);
        let mut wire = Vec::new();
        write_request(&mut wire, &request).unwrap();
        let mut reader = ChunkedReader::new(wire, chunk);
        let decoded = read_request(&mut reader).unwrap().unwrap();
        prop_assert_eq!(&decoded, &request);
        prop_assert!(read_request(&mut reader).unwrap().is_none(), "clean EOF after");
    }

    #[test]
    fn responses_round_trip_through_split_frames(
        variant in proptest::num::u8::ANY,
        text in "[ -~\n\t\r\"\\\\\u{1}\u{1f}é€😀]{0,120}",
        n in 0usize..100_000,
        seed in proptest::num::u64::ANY,
        flag in proptest::bool::ANY,
        chunk in 1usize..9,
    ) {
        let response = build_response(variant, &text, n, seed, flag);
        let mut wire = Vec::new();
        write_response(&mut wire, &response).unwrap();
        let mut reader = ChunkedReader::new(wire, chunk);
        let decoded = read_response(&mut reader).unwrap().unwrap();
        prop_assert_eq!(&decoded, &response);
    }

    #[test]
    fn back_to_back_frames_keep_their_boundaries(
        text_a in "[ -~\"\\\\\u{1}é€😀]{0,60}",
        text_b in "[ -~\n\r\t\"\\\\\u{1f}é€😀]{0,60}",
        n in 0usize..1000,
        chunk in 1usize..7,
    ) {
        // Several frames on one stream, read through tiny chunks: each
        // read_response must stop exactly at its frame boundary.
        let frames = vec![
            Response::Scene { index: n, text: text_a.clone() },
            Response::Error { code: "timeout".into(), message: text_b.clone() },
            Response::Done { scenes: n, iterations: n, elapsed_ms: 1.0 },
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_response(&mut wire, frame).unwrap();
        }
        let mut reader = ChunkedReader::new(wire, chunk);
        for frame in &frames {
            prop_assert_eq!(&read_response(&mut reader).unwrap().unwrap(), frame);
        }
        prop_assert!(read_response(&mut reader).unwrap().is_none());
    }

    #[test]
    fn truncation_at_any_byte_is_an_error_never_a_wrong_value(
        text in "[ -~\"\\\\\u{1}é€😀]{0,40}",
        cut_fraction in 0.0..1.0f64,
    ) {
        let response = Response::Scene { index: 1, text: text.clone() };
        let mut wire = Vec::new();
        write_response(&mut wire, &response).unwrap();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((wire.len() - 1) as f64 * cut_fraction) as usize;
        let mut reader = ChunkedReader::new(wire[..cut].to_vec(), 3);
        match read_response(&mut reader) {
            // Cut before the first prefix byte: a clean close.
            Ok(None) => prop_assert_eq!(cut, 0),
            // Any other cut must surface as an error...
            Err(_) => {}
            // ...never as a silently wrong or partial value.
            Ok(Some(value)) => prop_assert!(false, "truncated frame decoded: {value:?}"),
        }
    }
}

/// Scene and source text holding every byte class the JSON writer
/// escapes (`"`, `\`, `\n`, `\r`, `\t`, U+0001, U+001F) beside
/// multi-byte characters it copies as they are.
const TEXT: &str = "say \"hi\" \\ a\nb\rc\td\u{1}e\u{1f}f é 😀";

/// Asserts one frame's exact bytes: its big-endian length prefix, then
/// its JSON body.
fn assert_frame(wire: &[u8], prefix: [u8; 4], body: &str) {
    assert_eq!(wire[..4], prefix, "length prefix of {body}");
    assert_eq!(std::str::from_utf8(&wire[4..]).unwrap(), body);
}

/// The exact bytes of one frame of every request variant. Daemons of
/// other versions read these bytes, so a change here is a protocol
/// change, not a refactor.
#[test]
fn request_frames_keep_their_bytes() {
    let golden: [(Request, [u8; 4], &str); 7] = [
        (
            Request::Compile {
                source: TEXT.into(),
                world: "gta".into(),
            },
            [0, 0, 0, 90],
            r#"{"type":"compile","source":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀","world":"gta"}"#,
        ),
        (
            Request::Sample(SampleRequest {
                source: TEXT.into(),
                world: "gta".into(),
                name: "two_cars.scenic".into(),
                n: 8,
                seed: u64::MAX,
                jobs: 2,
                prune: true,
                engine: "compiled".into(),
                format: "json".into(),
                timeout_ms: Some(1500),
            }),
            [0, 0, 0, 226],
            r#"{"type":"sample","source":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀","world":"gta","name":"two_cars.scenic","n":8,"seed":"18446744073709551615","jobs":2,"prune":true,"engine":"compiled","format":"json","timeout_ms":1500}"#,
        ),
        (
            Request::Lint {
                file: "a.scenic".into(),
                source: TEXT.into(),
                world: "mars".into(),
            },
            [0, 0, 0, 106],
            r#"{"type":"lint","file":"a.scenic","source":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀","world":"mars"}"#,
        ),
        (Request::Status, [0, 0, 0, 17], r#"{"type":"status"}"#),
        (Request::Stats, [0, 0, 0, 16], r#"{"type":"stats"}"#),
        (Request::Health, [0, 0, 0, 17], r#"{"type":"health"}"#),
        (Request::Shutdown, [0, 0, 0, 19], r#"{"type":"shutdown"}"#),
    ];
    for (request, prefix, body) in golden {
        let mut wire = Vec::new();
        write_request(&mut wire, &request).unwrap();
        assert_frame(&wire, prefix, body);
    }
}

/// The exact bytes of one frame of every response variant; clients of
/// other versions read these bytes.
#[test]
fn response_frames_keep_their_bytes() {
    let golden: [(Response, [u8; 4], &str); 8] = [
        (
            Response::Compiled {
                cached: true,
                source_hash: u64::MAX - 1,
            },
            [0, 0, 0, 70],
            r#"{"type":"compiled","cached":true,"source_hash":"18446744073709551614"}"#,
        ),
        (
            Response::Scene {
                index: 3,
                text: TEXT.into(),
            },
            [0, 0, 0, 82],
            r#"{"type":"scene","index":3,"text":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀"}"#,
        ),
        (
            Response::Done {
                scenes: 8,
                iterations: 25,
                elapsed_ms: 12.625,
            },
            [0, 0, 0, 62],
            r#"{"type":"done","scenes":8,"iterations":25,"elapsed_ms":12.625}"#,
        ),
        (
            Response::Lint {
                text: TEXT.into(),
                errors: 1,
                warnings: 2,
                infos: 0,
            },
            [0, 0, 0, 105],
            r#"{"type":"lint","text":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀","errors":1,"warnings":2,"infos":0}"#,
        ),
        (
            Response::Status(DaemonStats {
                uptime_ms: 123_456,
                requests: 9,
                in_flight: 1,
                scenes_served: 40,
                cache_hits: 5,
                cache_misses: 2,
                cache_entries: 2,
                protocol_errors: 0,
                per_scenario: vec![(TEXT.into(), 32), ("simplest.scenic".into(), 8)],
            }),
            [0, 0, 1, 21],
            r#"{"type":"status","uptime_ms":123456,"requests":9,"in_flight":1,"scenes_served":40,"cache_hits":5,"cache_misses":2,"cache_entries":2,"protocol_errors":0,"per_scenario":[{"name":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀","scenes":32},{"name":"simplest.scenic","scenes":8}]}"#,
        ),
        (
            Response::Health {
                ok: true,
                uptime_ms: 77,
            },
            [0, 0, 0, 42],
            r#"{"type":"health","ok":true,"uptime_ms":77}"#,
        ),
        (
            Response::ShuttingDown,
            [0, 0, 0, 24],
            r#"{"type":"shutting-down"}"#,
        ),
        (
            Response::Error {
                code: "bad-request".into(),
                message: TEXT.into(),
            },
            [0, 0, 0, 96],
            r#"{"type":"error","code":"bad-request","message":"say \"hi\" \\ a\nb\rc\td\u0001e\u001ff é 😀"}"#,
        ),
    ];
    for (response, prefix, body) in golden {
        let mut wire = Vec::new();
        write_response(&mut wire, &response).unwrap();
        assert_frame(&wire, prefix, body);
    }
}
