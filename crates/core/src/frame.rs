//! Length-delimited framing: the one byte-level implementation behind both
//! of the system's pipes — the daemon's TCP protocol (`grape-daemon`'s
//! `protocol` module layers UTF-8 JSON on top) and the worker pipes of
//! [`crate::transport::TransportSpec::Process`] ([`crate::worker_proto`]
//! ships binary value trees in them).
//!
//! Every frame is
//!
//! ```text
//! <decimal payload length in bytes> '\n' <payload> '\n'
//! ```
//!
//! The declared length is checked against [`MAX_FRAME_BYTES`] **before**
//! anything is allocated, and the trailing `'\n'` is verified: a payload
//! that overruns or underruns its declared length is a framing error, not
//! a silently misaligned stream.

use std::io::{BufRead, Write};

/// Hard cap on a single frame's payload (64 MiB): a malicious or corrupt
/// length line cannot make the reader allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A framing-level failure.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The frame itself was malformed: bad length line, oversized,
    /// truncated, or a payload overrunning its declared length.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame — length line, payload, terminating newline — and
/// does **not** flush.  The payload is the concatenation of `parts`, so a
/// caller holding a shared pre-encoded piece frames it without copying it
/// into a fresh buffer first.
pub fn put_frame<W: Write + ?Sized, P: AsRef<[u8]>>(w: &mut W, parts: &[P]) -> std::io::Result<()> {
    let len: usize = parts.iter().map(|p| p.as_ref().len()).sum();
    writeln!(w, "{len}")?;
    for part in parts {
        w.write_all(part.as_ref())?;
    }
    w.write_all(b"\n")
}

/// Reads one frame's payload into `payload` (cleared first, so one buffer
/// serves a whole conversation).  Returns `false` on a clean end of stream
/// *before* the length line — EOF anywhere else is a truncated frame.
pub fn read_frame<R: BufRead + ?Sized>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<bool, FrameError> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(false);
    }
    let trimmed = line.trim_end_matches(['\r', '\n']);
    let len: usize = trimmed
        .parse()
        .map_err(|_| FrameError::Malformed(format!("bad frame length line {trimmed:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Malformed(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    payload.clear();
    payload.resize(len + 1, 0);
    r.read_exact(payload).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            FrameError::Malformed(format!("truncated frame (declared {len} bytes)"))
        }
        _ => FrameError::Io(e),
    })?;
    if payload.pop() != Some(b'\n') {
        return Err(FrameError::Malformed(format!(
            "payload overruns its declared length of {len} bytes"
        )));
    }
    Ok(true)
}
