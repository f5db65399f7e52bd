//! Length-prefixed framing for the wire protocol.
//!
//! A frame is a 4-byte big-endian payload length followed by that many bytes
//! of UTF-8 JSON. The length prefix makes message boundaries explicit on a
//! byte stream, lets the receiver reject oversized frames before buffering
//! them, and keeps the decoder trivially resynchronizable: any framing
//! violation is fatal for the connection, never silently skipped.

use pc_telemetry::{counter, JsonObject, JsonParseError, JsonValue};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Default cap on a frame's payload, in bytes (8 MiB).
///
/// A full-chip error string at the paper's highest approximation (~12% flip
/// rate over 64 KiB chips) is well under 1 MiB of JSON; the cap leaves an
/// order of magnitude of headroom while bounding per-connection memory.
pub const MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum CodecError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream ended mid-frame (inside the prefix or the payload).
    Truncated {
        /// Bytes still owed when the stream ended.
        missing: usize,
    },
    /// The prefix announced a payload larger than the receiver's cap.
    TooLarge {
        /// Announced payload length.
        announced: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The payload was not UTF-8.
    BadUtf8,
    /// The payload was not valid JSON.
    BadJson(JsonParseError),
    /// A started frame did not complete within the guard's frame window —
    /// the slow-loris defense: dripping bytes cannot hold a connection open.
    Stalled {
        /// Milliseconds the frame had been in flight.
        elapsed_ms: u64,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Closed => write!(f, "connection closed"),
            CodecError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
            CodecError::TooLarge { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds cap of {max}")
            }
            CodecError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
            CodecError::BadJson(e) => write!(f, "frame payload is not JSON: {e}"),
            CodecError::Stalled { elapsed_ms } => {
                write!(f, "frame stalled mid-flight after {elapsed_ms} ms")
            }
            CodecError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates transport errors; fails without writing anything if the
/// rendered object exceeds `u32` bytes.
pub fn write_frame<W: Write>(w: &mut W, obj: &JsonObject) -> io::Result<()> {
    let payload = obj.to_compact();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 bytes"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()?;
    counter!("service.codec.frames_out").incr();
    counter!("service.codec.bytes_out").add(4 + payload.len() as u64);
    Ok(())
}

/// Reads one frame, enforcing `max_bytes` on the announced payload length.
///
/// # Errors
///
/// [`CodecError::Closed`] on clean end-of-stream at a frame boundary;
/// [`CodecError::Truncated`] if the stream ends anywhere else; the remaining
/// variants for cap, encoding, and transport failures.
pub fn read_frame<R: Read>(r: &mut R, max_bytes: u32) -> Result<JsonValue, CodecError> {
    read_frame_guarded(r, max_bytes, ReadGuard::default())
}

/// The read deadline for [`read_frame_guarded`].
///
/// The limit needs the underlying stream to deliver periodic timeout errors
/// (`WouldBlock`/`TimedOut`) as a polling tick — for a `TcpStream`, set its
/// read timeout to [`ReadGuard::tick`]. The default guard enforces nothing
/// and behaves exactly like a plain read. A quiet stream between frames is
/// never limited.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadGuard {
    /// Maximum time from a frame's first byte to its completion before
    /// [`CodecError::Stalled`] — the slow-loris byte-progress limit: a peer
    /// dripping one byte per tick still cannot hold the frame open past
    /// this window.
    pub frame_timeout: Option<Duration>,
}

impl ReadGuard {
    /// Whether the limit is active.
    pub fn is_active(&self) -> bool {
        self.frame_timeout.is_some()
    }

    /// A polling tick for the stream's read timeout: a quarter of the
    /// limit, clamped to 10–250 ms.
    pub fn tick(&self) -> Duration {
        let limit = self.frame_timeout.unwrap_or(Duration::from_secs(1));
        (limit / 4).clamp(Duration::from_millis(10), Duration::from_millis(250))
    }
}

/// [`read_frame`] with a read deadline.
///
/// # Errors
///
/// Everything [`read_frame`] can raise, plus [`CodecError::Stalled`] when
/// the guard's limit expires.
pub fn read_frame_guarded<R: Read>(
    r: &mut R,
    max_bytes: u32,
    guard: ReadGuard,
) -> Result<JsonValue, CodecError> {
    let mut frame_start: Option<Instant> = None;
    let mut prefix = [0u8; 4];
    read_exact_guarded(r, &mut prefix, true, guard, &mut frame_start)?;
    let announced = u32::from_be_bytes(prefix);
    if announced > max_bytes {
        counter!("service.codec.rejected_oversize").incr();
        return Err(CodecError::TooLarge {
            announced,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; announced as usize];
    read_exact_guarded(r, &mut payload, false, guard, &mut frame_start)?;
    let text = std::str::from_utf8(&payload).map_err(|_| CodecError::BadUtf8)?;
    let value = pc_telemetry::parse_json(text).map_err(CodecError::BadJson)?;
    counter!("service.codec.frames_in").incr();
    counter!("service.codec.bytes_in").add(4 + payload.len() as u64);
    Ok(value)
}

/// Like `read_exact`, but reports a clean close before the first byte as
/// [`CodecError::Closed`] (only when `at_boundary`), any later shortfall as
/// [`CodecError::Truncated`], and treats the stream's timeout errors as a
/// polling tick against the guard's deadline instead of a failure.
fn read_exact_guarded<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
    guard: ReadGuard,
    frame_start: &mut Option<Instant>,
) -> Result<(), CodecError> {
    let mut filled = 0;
    while filled < buf.len() {
        // pc-allow: P004 — `filled < buf.len()` by the loop guard
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Err(CodecError::Closed)
                } else {
                    Err(CodecError::Truncated {
                        missing: buf.len() - filled,
                    })
                };
            }
            Ok(n) => {
                filled += n;
                // The frame clock starts at its first byte, not at the call:
                // a connection may sit quietly at a boundary without
                // penalizing the next frame.
                // pc-allow: D002 — frame stall deadline is wall-clock by contract
                frame_start.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // With no guard there is nothing to poll for — surface the
                // stream's timeout as the transport error it is (plain
                // `read_frame` behavior). An active guard instead treats the
                // timeout as a tick; between frames the wait simply goes on.
                let Some(limit) = guard.frame_timeout else {
                    return Err(CodecError::Io(e));
                };
                if let Some(started) = *frame_start {
                    let elapsed = started.elapsed();
                    if elapsed >= limit {
                        counter!("service.codec.stalled_frames").incr();
                        return Err(CodecError::Stalled {
                            elapsed_ms: elapsed.as_millis() as u64,
                        });
                    }
                }
            }
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonObject {
        let mut obj = JsonObject::new();
        obj.set("op", "ping");
        obj.set("seq", 7u64);
        obj
    }

    #[test]
    fn frame_roundtrips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        let value = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!(value, JsonValue::Object(sample()));
    }

    #[test]
    fn clean_close_between_frames_is_closed() {
        let mut empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut empty, MAX_FRAME_BYTES),
            Err(CodecError::Closed)
        ));
    }

    #[test]
    fn truncated_prefix_and_payload_are_truncated() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        // Inside the prefix.
        let mut cut: &[u8] = &wire[..2];
        assert!(matches!(
            read_frame(&mut cut, MAX_FRAME_BYTES),
            Err(CodecError::Truncated { missing: 2 })
        ));
        // Inside the payload.
        let mut cut: &[u8] = &wire[..wire.len() - 3];
        assert!(matches!(
            read_frame(&mut cut, MAX_FRAME_BYTES),
            Err(CodecError::Truncated { missing: 3 })
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r: &[u8] = &wire;
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(CodecError::TooLarge {
                announced: u32::MAX,
                max: 1024
            })
        ));
    }

    /// Serves scripted chunks, yielding a timeout error between them (and
    /// forever after they run out) — a stand-in for a socket with a read
    /// timeout whose peer sends bytes at its own pace.
    struct DrippingReader {
        chunks: std::collections::VecDeque<Vec<u8>>,
        tick: bool,
    }

    impl DrippingReader {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            DrippingReader {
                chunks: chunks.into(),
                tick: false,
            }
        }
    }

    impl Read for DrippingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.tick || self.chunks.is_empty() {
                self.tick = false;
                std::thread::sleep(Duration::from_millis(2));
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            let mut chunk = self.chunks.pop_front().unwrap();
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                chunk.drain(..n);
                self.chunks.push_front(chunk);
            } else {
                self.tick = true;
            }
            Ok(n)
        }
    }

    #[test]
    fn dripped_frame_times_out_as_stalled() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        // One byte arrives, then the peer goes quiet mid-frame: the frame
        // clock is running, so this must surface as Stalled.
        let mut r = DrippingReader::new(vec![wire[..1].to_vec()]);
        let guard = ReadGuard {
            frame_timeout: Some(Duration::from_millis(25)),
        };
        assert!(matches!(
            read_frame_guarded(&mut r, MAX_FRAME_BYTES, guard),
            Err(CodecError::Stalled { .. })
        ));
    }

    #[test]
    fn guarded_read_survives_ticks_when_bytes_keep_flowing() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        let chunks = wire.chunks(3).map(|c| c.to_vec()).collect();
        let mut r = DrippingReader::new(chunks);
        let guard = ReadGuard {
            frame_timeout: Some(Duration::from_secs(60)),
        };
        let value = read_frame_guarded(&mut r, MAX_FRAME_BYTES, guard).unwrap();
        assert_eq!(value, JsonValue::Object(sample()));
    }

    #[test]
    fn guard_tick_tracks_tightest_limit() {
        let guard = ReadGuard {
            frame_timeout: Some(Duration::from_millis(100)),
        };
        assert!(guard.is_active());
        assert_eq!(guard.tick(), Duration::from_millis(25));
        assert!(!ReadGuard::default().is_active());
    }

    #[test]
    fn non_utf8_and_non_json_payloads_are_rejected() {
        let mut wire = 2u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES),
            Err(CodecError::BadUtf8)
        ));

        let mut wire = 2u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"{]");
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES),
            Err(CodecError::BadJson(_))
        ));
    }
}
