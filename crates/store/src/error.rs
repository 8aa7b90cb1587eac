//! The error type shared by everything in this crate.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::store::FORMAT_VERSION;

/// Everything that can go wrong while opening, reading or writing a result store.
///
/// The discipline mirrors `athena-trace-io`: a store that cannot be read exactly is
/// rejected with an error saying where and why; nothing is silently skipped, repaired or
/// recomputed over.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (disk full, permission denied, …).
    Io(io::Error),
    /// The directory holds no store (no `results.log`) and the open was read-only, so
    /// nothing may be created.
    Missing(PathBuf),
    /// A store file does not start with its magic bytes. The payload names the file
    /// (`"log"` or `"index"`).
    BadMagic(&'static str),
    /// A store file carries a format version this build does not understand. A store is
    /// a cache of simulations, so the remedy is to delete it and let a run refill it.
    UnsupportedVersion {
        /// Which file (`"log"` or `"index"`).
        file: &'static str,
        /// The version found on disk.
        version: u16,
    },
    /// A store file is structurally invalid: a truncated record, a payload or index
    /// checksum mismatch, an index that claims more log than exists. The payload
    /// pinpoints the file, the byte offset and the reason.
    Corrupt {
        /// Which file (`"log"` or `"index"`).
        file: &'static str,
        /// Byte offset of the problem within that file.
        at: u64,
        /// Human-readable description of the corruption.
        reason: String,
    },
    /// Another live process holds the single-writer lock.
    Locked {
        /// Path of the lock file.
        path: PathBuf,
        /// The pid recorded in the lock file, when it could be parsed.
        pid: Option<u32>,
    },
    /// A write was attempted on a store opened read-only.
    ReadOnlyStore,
}

impl StoreError {
    /// Builds a [`StoreError::Corrupt`] in `file` at byte offset `at`.
    pub(crate) fn corrupt(file: &'static str, at: u64, reason: impl Into<String>) -> Self {
        StoreError::Corrupt {
            file,
            at,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Missing(dir) => {
                write!(f, "no result store at {} (read-only open)", dir.display())
            }
            StoreError::BadMagic(file) => {
                write!(f, "not a result-store {file} (bad magic)")
            }
            StoreError::UnsupportedVersion { file, version } => write!(
                f,
                "unsupported store {file} format version {version} (this build reads version \
                 {FORMAT_VERSION}); a result store is a cache: delete its directory and rerun \
                 to refill it"
            ),
            StoreError::Corrupt { file, at, reason } => {
                write!(f, "corrupt store {file} at byte {at}: {reason}")
            }
            StoreError::Locked { path, pid } => match pid {
                Some(pid) => write!(
                    f,
                    "store is locked by live pid {pid} ({}); a store accepts one writer at \
                     a time",
                    path.display()
                ),
                None => write!(
                    f,
                    "store is locked ({}); a store accepts one writer at a time",
                    path.display()
                ),
            },
            StoreError::ReadOnlyStore => write!(f, "store was opened read-only"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}
