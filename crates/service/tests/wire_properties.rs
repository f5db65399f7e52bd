//! Property tests for the wire protocol: any request/response the encoder
//! can produce must decode back to the same value through the framing
//! layer, oversized frames are refused before buffering, and truncating a
//! valid frame anywhere yields a truncation error, never a wrong decode.

use pc_service::codec::{read_frame, write_frame, CodecError, MAX_FRAME_BYTES};
use pc_service::protocol::{
    decode_request, decode_response, encode_request, encode_request_with, encode_response,
    MetricsBody, OpLatency, Request, Response, StatsBody, TraceBody, TraceRecord,
};
use probable_cause::ErrorString;
use proptest::prelude::*;

const SIZE: u64 = 4096;

/// Deterministically shapes raw generator output into a valid error string.
fn errors_from(bits: Vec<u64>) -> ErrorString {
    let mut bits: Vec<u64> = bits.into_iter().map(|b| b % SIZE).collect();
    bits.sort_unstable();
    bits.dedup();
    ErrorString::from_sorted(bits, SIZE).expect("sorted, deduped, in range")
}

fn label_from(chars: Vec<char>) -> String {
    chars.into_iter().collect()
}

/// Picks one of the request shapes from raw generator output. `which % 9
/// == 1` must stay `Identify`: the oversize test leans on its payload size.
fn request_from(which: u64, bits: Vec<u64>, label: Vec<char>) -> Request {
    match which % 9 {
        0 => Request::Ping,
        1 => Request::Identify {
            errors: errors_from(bits),
        },
        2 => Request::Characterize {
            label: label_from(label),
            errors: errors_from(bits),
        },
        3 => Request::ClusterIngest {
            errors: errors_from(bits),
        },
        4 => Request::Stats,
        5 => Request::Metrics,
        6 => Request::TraceDump,
        7 => Request::Save,
        _ => Request::Shutdown,
    }
}

/// Picks one of the response shapes from raw generator output.
fn response_from(which: u64, label: Vec<char>, x: f64, n: u64, flag: bool) -> Response {
    let label = label_from(label);
    match which % 12 {
        0 => Response::Pong,
        1 => Response::Match { label, distance: x },
        2 => Response::NoMatch { closest: None },
        3 => Response::NoMatch {
            closest: Some((label, x)),
        },
        4 => Response::Characterized {
            label,
            weight: n,
            observations: (n % u64::from(u32::MAX)) as u32 + 1,
            created: flag,
        },
        5 => Response::Clustered {
            cluster: n,
            seeded: flag,
            clusters: n + 1,
        },
        6 => Response::Stats(StatsBody {
            fingerprints: n,
            clusters: n / 2,
            admitted: n + 7,
            rejected: n / 3,
            distance_evals: n * 2,
            worker_panics: n % 5,
            worker_respawns: n % 3,
            degraded: flag,
        }),
        7 => Response::ShuttingDown,
        8 => {
            if flag {
                Response::Busy { retry_after_ms: n }
            } else {
                Response::Error { message: label }
            }
        }
        9 => Response::Metrics(MetricsBody {
            ops: vec![
                OpLatency {
                    op: "identify".to_string(),
                    count: n,
                    p50_ns: n / 2,
                    p90_ns: n / 2 + 9,
                    p99_ns: n + 1,
                    max_ns: n + 2,
                },
                OpLatency {
                    op: label,
                    count: 1,
                    p50_ns: 0,
                    p90_ns: 0,
                    p99_ns: 0,
                    max_ns: 0,
                },
            ],
            queue_depth: n % 7,
            slow_requests: n % 11,
            degraded: flag,
        }),
        10 => Response::TraceDump {
            traces: vec![TraceRecord {
                trace_id: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                op: label,
                seq: n,
                decode_ns: n % 100,
                queue_wait_ns: n % 200,
                score_ns: n % 300,
                encode_ns: n % 50,
                write_ns: n % 60,
                total_ns: n,
                slow: flag,
            }],
        },
        _ => {
            // A traced wrapper around a non-nesting inner response.
            let inner = if flag {
                Response::Pong
            } else {
                Response::Match { label, distance: x }
            };
            Response::Traced {
                inner: Box::new(inner),
                trace: TraceBody {
                    trace_id: n,
                    decode_ns: n % 100,
                    queue_wait_ns: n % 200,
                    score_ns: n % 300,
                    other_ns: n % 40,
                    total_ns: n,
                },
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_roundtrip_through_the_framed_wire(
        seq in any::<u64>(),
        which in any::<u64>(),
        bits in proptest::collection::vec(any::<u64>(), 0..80),
        label in proptest::collection::vec(proptest::char::range('\u{20}', '\u{2FF}'), 0..24),
        traced in any::<bool>(),
    ) {
        let request = request_from(which, bits, label);
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request_with(seq, &request, traced)).expect("vec write");
        let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).expect("own frame parses");
        prop_assert_eq!(
            pc_service::protocol::decode_request_routed(&frame),
            Ok((seq, request, traced, None, None))
        );
    }

    #[test]
    fn responses_roundtrip_through_the_framed_wire(
        seq in any::<u64>(),
        which in any::<u64>(),
        label in proptest::collection::vec(proptest::char::range('\u{20}', '\u{2FF}'), 0..24),
        x in 0.0f64..1.0,
        n in 0u64..1 << 40,
        flag in any::<bool>(),
    ) {
        let response = response_from(which, label, x, n, flag);
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_response(seq, &response)).expect("vec write");
        let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).expect("own frame parses");
        prop_assert_eq!(decode_response(&frame), Ok((seq, response)));
    }

    #[test]
    fn truncating_a_frame_anywhere_is_detected(
        which in any::<u64>(),
        bits in proptest::collection::vec(any::<u64>(), 0..60),
        cut in any::<u64>(),
    ) {
        let request = request_from(which, bits, vec!['x']);
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(1, &request)).expect("vec write");
        // Cut strictly inside the frame: at least one byte kept, one dropped.
        let keep = 1 + (cut as usize) % (wire.len() - 1);
        let mut cut_wire: &[u8] = &wire[..keep];
        match read_frame(&mut cut_wire, MAX_FRAME_BYTES) {
            Err(CodecError::Truncated { missing }) => {
                // Inside the prefix, `missing` counts prefix bytes only;
                // past it, the payload shortfall.
                let expected = if keep < 4 { 4 - keep } else { wire.len() - keep };
                prop_assert_eq!(missing, expected);
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn frames_over_the_cap_are_rejected_without_decoding(
        count in 30u64..80,
        max in 16u32..64,
    ) {
        // 30+ distinct positions always render beyond 64 bytes of JSON.
        let bits: Vec<u64> = (0..count).map(|i| i * 13).collect();
        let request = request_from(1, bits, vec![]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(1, &request)).expect("vec write");
        let announced = u32::from_be_bytes(wire[..4].try_into().unwrap());
        prop_assert!(announced > max);
        match read_frame(&mut wire.as_slice(), max) {
            Err(CodecError::TooLarge { announced: a, max: m }) => {
                prop_assert_eq!((a, m), (announced, max));
            }
            other => prop_assert!(false, "expected TooLarge, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_json_objects(
        key in proptest::collection::vec(proptest::char::range('a', 'z'), 0..8),
        val in any::<u64>(),
    ) {
        // Arbitrary single-field objects: decoding may fail, never panic.
        let mut obj = pc_telemetry::JsonObject::new();
        obj.set(&label_from(key), val);
        let value = pc_telemetry::JsonValue::Object(obj);
        let _ = decode_request(&value);
        let _ = decode_response(&value);
    }
}
