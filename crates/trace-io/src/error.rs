//! The error type shared by every reader, writer and helper in this crate.

use std::fmt;
use std::io;

/// Everything that can go wrong while reading or writing an on-disk trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O failure (file missing, disk full, pipe closed, …).
    Io(io::Error),
    /// The file does not start with the trace magic (or is shorter than the header).
    BadMagic,
    /// The binary header carries a format version this build does not understand.
    UnsupportedVersion(u16),
    /// The stream is structurally invalid: a bad record tag, an over-long varint, a
    /// truncated record stream, trailing bytes after the final record, or a header count
    /// the stream contradicts. The payload pinpoints where and why.
    Corrupt {
        /// Index of the record at which the problem was found.
        at: u64,
        /// Human-readable description of the corruption.
        reason: String,
    },
}

impl TraceIoError {
    /// Builds a [`TraceIoError::Corrupt`] at record `at`.
    pub(crate) fn corrupt(at: u64, reason: impl Into<String>) -> Self {
        TraceIoError::Corrupt {
            at,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::BadMagic => {
                write!(f, "not an athena trace (bad magic)")
            }
            TraceIoError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceIoError::Corrupt { at, reason } => {
                write!(f, "corrupt trace at record {at}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}
