//! Bounded, timeout-tolerant line framing shared by server and client.
//!
//! `BufReader::read_line` has two failure modes that matter at a serving
//! boundary: a read timeout mid-line makes the *caller* responsible for
//! not discarding the partial bytes already buffered (the seed server
//! cleared them, corrupting any request that arrived across a pause),
//! and an adversarial peer that never sends a newline grows the buffer
//! without bound. [`LineReader`] fixes both: partial lines survive
//! `WouldBlock`/`TimedOut` returns ([`ReadOutcome::Idle`]) because the
//! accumulation buffer lives in the reader, and a line that exceeds
//! `max_line_bytes` surfaces as [`ReadOutcome::Overflow`] while buffered
//! memory stays `O(max_line_bytes)`.
//!
//! The framing core is the push-based [`LineBuffer`]: bytes go in via
//! [`LineBuffer::feed`] in whatever chunk sizes the transport produced,
//! complete frames come out of [`LineBuffer::next_frame`]. The server's
//! reactor feeds it straight from nonblocking socket reads; the blocking
//! [`LineReader`] the client reads responses with is a thin read-pump
//! over the same buffer, so both ends share one bounded framing
//! implementation.

use std::io::{self, ErrorKind, Read};
use std::time::{Duration, Instant};

/// Default request-line cap (requests are small; big payloads are a bug
/// or an attack). Response lines use a larger client-side cap — see
/// [`crate::client::ClientConfig`].
pub const DEFAULT_MAX_LINE_BYTES: usize = 256 * 1024;

/// Read granularity; also bounds how far past `max_line_bytes` the
/// pending buffer can momentarily grow.
const CHUNK: usize = 4096;

/// One call's outcome. `Idle` and `Overflow` are states, not errors:
/// the caller decides whether to keep polling or hang up.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete line, `\n` (and any `\r`) stripped. Invalid UTF-8 is
    /// replaced rather than dropped so the caller can report it.
    Line(String),
    /// The peer closed the stream (any unterminated trailing line was
    /// returned as a `Line` by the previous call).
    Eof,
    /// The read timed out (`WouldBlock`/`TimedOut`); any partial line
    /// stays buffered for the next call.
    Idle,
    /// The current line exceeds `max_line_bytes`. The buffered prefix
    /// has been dropped; use [`LineReader::discard_current_line`] to
    /// drain to the newline before closing gracefully.
    Overflow {
        /// Bytes of the oversized line seen so far.
        buffered: usize,
    },
}

/// One frame out of a [`LineBuffer`]. The push-mode analogue of the
/// `Line`/`Overflow` arms of [`ReadOutcome`] (`Eof`/`Idle` are transport
/// conditions the buffer never sees).
#[derive(Debug)]
pub enum Frame {
    /// A complete line, `\n` (and any `\r`) stripped, lossy-decoded.
    Line(String),
    /// The current line exceeds `max_line_bytes`; its buffered prefix
    /// has been dropped. Emitted again for each newline-free feed until
    /// the terminator arrives (the count grows monotonically).
    Overflow {
        /// Bytes of the oversized line seen so far.
        buffered: usize,
    },
}

/// The push-based framing core: feed transport chunks in, pop complete
/// frames out. Memory stays `O(max_line_bytes + feed chunk)` no matter
/// how long an unterminated line runs.
pub struct LineBuffer {
    /// Bytes fed but not yet framed (at most one partial line plus
    /// whatever pipelined lines arrived in the same chunks).
    pending: Vec<u8>,
    /// Scan resume point: everything before it is known newline-free.
    scan_from: usize,
    max_line_bytes: usize,
    /// Oversized-line bytes dropped so far (overflow mode).
    overflowed: usize,
}

impl LineBuffer {
    /// A framer capping any single line at `max_line_bytes`.
    pub fn new(max_line_bytes: usize) -> Self {
        Self {
            pending: Vec::new(),
            scan_from: 0,
            max_line_bytes: max_line_bytes.max(1),
            overflowed: 0,
        }
    }

    /// Append transport bytes. Any chunking is fine — 1-byte reads,
    /// mid-UTF-8 splits, many pipelined lines in one chunk.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (unframed).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Mid-oversized-line: frames are being discarded until the line's
    /// terminating newline arrives.
    pub fn in_overflow(&self) -> bool {
        self.overflowed > 0
    }

    /// Pop one complete line off the front of `pending`, if any.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let pos = self.pending[self.scan_from..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| self.scan_from + p)?;
        let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
        self.scan_from = 0;
        line.pop(); // the '\n'
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(line)
    }

    /// Pop the next frame, or `None` when more input is needed. In
    /// overflow mode the terminator of the rejected line is swallowed
    /// and framing resumes with whatever follows it.
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            if let Some(line) = self.take_line() {
                if self.overflowed > 0 {
                    // The terminator of a line we already rejected:
                    // swallow it and resume normal framing.
                    self.overflowed = 0;
                    continue;
                }
                return Some(Frame::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scan_from = self.pending.len();
            if (self.overflowed > 0 && !self.pending.is_empty())
                || self.pending.len() > self.max_line_bytes
            {
                // Drop the buffered prefix so an endless unterminated
                // line costs O(chunk), not O(line).
                self.overflowed += self.pending.len();
                self.pending.clear();
                self.scan_from = 0;
                return Some(Frame::Overflow {
                    buffered: self.overflowed,
                });
            }
            return None;
        }
    }

    /// Deliver an unterminated trailing line at EOF (at most once; a
    /// rejected oversized tail is never delivered).
    pub fn finish(&mut self) -> Option<String> {
        if self.overflowed > 0 || self.pending.is_empty() {
            return None;
        }
        let line = std::mem::take(&mut self.pending);
        self.scan_from = 0;
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Overflow-mode drain step: scan buffered bytes for the rejected
    /// line's terminator. Returns `true` when it was found (framing has
    /// resumed; bytes after the newline stay buffered), `false` when the
    /// buffer was newline-free and has been discarded.
    pub fn discard_to_newline(&mut self) -> bool {
        if self.overflowed == 0 {
            return true;
        }
        if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            // Found the terminator: drop through it, keep whatever
            // follows, and resume normal framing.
            self.pending.drain(..=pos);
            self.scan_from = 0;
            self.overflowed = 0;
            return true;
        }
        self.overflowed += self.pending.len();
        self.pending.clear();
        self.scan_from = 0;
        false
    }
}

/// An incremental newline framer over any [`Read`]: a read-pump around
/// [`LineBuffer`] for blocking readers (the client).
pub struct LineReader<R> {
    inner: R,
    buf: LineBuffer,
}

impl<R: Read> LineReader<R> {
    /// Wrap a stream, capping any single line at `max_line_bytes`.
    pub fn new(inner: R, max_line_bytes: usize) -> Self {
        Self {
            inner,
            buf: LineBuffer::new(max_line_bytes),
        }
    }

    /// Advance the framer by at most one line. Never blocks longer than
    /// the stream's own read timeout.
    pub fn read_line(&mut self) -> io::Result<ReadOutcome> {
        loop {
            match self.buf.next_frame() {
                Some(Frame::Line(line)) => return Ok(ReadOutcome::Line(line)),
                Some(Frame::Overflow { buffered }) => {
                    return Ok(ReadOutcome::Overflow { buffered })
                }
                None => {}
            }
            if self.buf.in_overflow() {
                // Mid-oversized-line with nothing buffered: stay in the
                // overflow state without reading further; draining is
                // the caller's explicit move (`discard_current_line`).
                return Ok(ReadOutcome::Overflow {
                    buffered: self.buf.overflowed,
                });
            }
            let mut chunk = [0u8; CHUNK];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return Ok(match self.buf.finish() {
                        // Unterminated trailing line at EOF: deliver it once.
                        Some(line) => ReadOutcome::Line(line),
                        None => ReadOutcome::Eof,
                    });
                }
                Ok(n) => self.buf.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(ReadOutcome::Idle)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// After an [`ReadOutcome::Overflow`], drop bytes until the line's
    /// terminating newline, EOF, or `timeout` — whichever comes first.
    ///
    /// Draining before closing turns the close into a graceful FIN: an
    /// immediate close with unread bytes in the socket buffer resets the
    /// connection, which can destroy the error response before a slow
    /// peer reads it.
    pub fn discard_current_line(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.buf.in_overflow() {
            if self.buf.discard_to_newline() {
                return;
            }
            let mut chunk = [0u8; CHUNK];
            match self.inner.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => self.buf.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if Instant::now() >= deadline {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted stream: each entry is either bytes to deliver or a
    /// timeout to inject.
    enum Step {
        Give(&'static [u8]),
        Timeout,
    }

    struct Scripted {
        steps: std::collections::VecDeque<Step>,
    }

    impl Scripted {
        fn new(steps: Vec<Step>) -> Self {
            Self {
                steps: steps.into(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Timeout) => Err(io::Error::new(ErrorKind::WouldBlock, "scripted")),
                Some(Step::Give(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Step::Give(&bytes[n..]));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn partial_line_survives_timeouts() {
        let stream = Scripted::new(vec![
            Step::Give(b"{\"op\":"),
            Step::Timeout,
            Step::Give(b"\"pi"),
            Step::Timeout,
            Step::Timeout,
            Step::Give(b"ng\"}\n"),
        ]);
        let mut reader = LineReader::new(stream, 1024);
        let mut lines = Vec::new();
        loop {
            match reader.read_line().unwrap() {
                ReadOutcome::Line(l) => lines.push(l),
                ReadOutcome::Idle => continue,
                ReadOutcome::Eof => break,
                ReadOutcome::Overflow { .. } => panic!("no overflow expected"),
            }
        }
        assert_eq!(lines, vec!["{\"op\":\"ping\"}".to_string()]);
    }

    #[test]
    fn pipelined_lines_split_on_newlines() {
        let stream = Scripted::new(vec![Step::Give(b"a\nbb\r\nccc\nd")]);
        let mut reader = LineReader::new(stream, 1024);
        let mut lines = Vec::new();
        loop {
            match reader.read_line().unwrap() {
                ReadOutcome::Line(l) => lines.push(l),
                ReadOutcome::Eof => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // The unterminated trailing "d" is delivered at EOF.
        assert_eq!(lines, vec!["a", "bb", "ccc", "d"]);
    }

    #[test]
    fn oversized_line_overflows_with_bounded_memory() {
        let big = vec![b'x'; 64 * 1024];
        let big: &'static [u8] = Box::leak(big.into_boxed_slice());
        let stream = Scripted::new(vec![Step::Give(big), Step::Give(b"\nping\n")]);
        let mut reader = LineReader::new(stream, 1000);
        let overflow = loop {
            match reader.read_line().unwrap() {
                ReadOutcome::Overflow { buffered } => break buffered,
                ReadOutcome::Idle => continue,
                other => panic!("expected overflow, got {other:?}"),
            }
        };
        assert!(overflow > 1000, "overflow reported {overflow} bytes");
        // The pending buffer must not hold the oversized line.
        assert!(reader.buf.buffered() <= CHUNK);
        // Draining resumes normal framing on the next line.
        reader.discard_current_line(Duration::from_secs(1));
        match reader.read_line().unwrap() {
            ReadOutcome::Line(l) => assert_eq!(l, "ping"),
            other => panic!("expected line after drain, got {other:?}"),
        }
    }

    #[test]
    fn eof_without_data_is_eof() {
        let mut reader = LineReader::new(Scripted::new(vec![]), 16);
        assert!(matches!(reader.read_line().unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn line_buffer_reassembles_byte_at_a_time_feeds() {
        let mut buf = LineBuffer::new(64);
        let mut lines = Vec::new();
        for &b in b"a\nbb\r\ncafe\xCC\x81\n" {
            buf.feed(&[b]);
            while let Some(frame) = buf.next_frame() {
                match frame {
                    Frame::Line(l) => lines.push(l),
                    Frame::Overflow { .. } => panic!("no overflow expected"),
                }
            }
        }
        assert_eq!(lines, vec!["a", "bb", "cafe\u{301}"]);
        assert!(buf.finish().is_none());
    }

    #[test]
    fn line_buffer_overflow_spans_chunk_boundaries() {
        let mut buf = LineBuffer::new(10);
        let mut overflowed = 0usize;
        // 30 newline-free bytes in 5-byte chunks: the cap must trigger
        // even though no single feed exceeds it.
        for chunk in [b'x'; 30].chunks(5) {
            buf.feed(chunk);
            while let Some(frame) = buf.next_frame() {
                match frame {
                    Frame::Overflow { buffered } => overflowed = buffered,
                    Frame::Line(l) => panic!("unexpected line {l:?}"),
                }
            }
        }
        assert!(overflowed > 10, "cap never triggered across chunks");
        assert!(buf.in_overflow());
        // Terminator arrives split across feeds, trailing line resumes.
        buf.feed(b"tail");
        assert!(!buf.discard_to_newline());
        buf.feed(b"\nping\n");
        assert!(buf.discard_to_newline());
        match buf.next_frame() {
            Some(Frame::Line(l)) => assert_eq!(l, "ping"),
            other => panic!("expected line after drain, got {other:?}"),
        }
    }
}
