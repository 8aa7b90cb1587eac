//! # athena-store
//!
//! A persistent, content-addressed result store: the on-disk cache the experiment engine
//! consults before running any simulation cell.
//!
//! Every cell the engine runs is a pure function of its `Job` (identity-derived seeds,
//! never scheduling state), so a cell's result can be cached durably and keyed by the
//! job's canonical identity hash. This crate stores those results without knowing
//! anything about jobs or simulations: records are opaque byte payloads keyed by a
//! [`RecordKey`] (two 64-bit hashes — the job identity and an output-variant
//! discriminator). The engine layers the job-identity contract and the payload
//! serialisation on top.
//!
//! ## On-disk layout
//!
//! A store is a directory holding three files:
//!
//! * **`results.log`** — the append-only record log: a 16-byte header (magic
//!   `ATHSTORE`, format version, reserved bytes) followed by records, each a fixed
//!   28-byte record header (identity, variant, payload length, payload checksum) plus
//!   the payload bytes. Records are only ever appended; re-putting a key appends a new
//!   record that *supersedes* the old one ([`ResultStore::gc`] drops superseded bytes).
//! * **`index.bin`** — a compact index (key → log offset/length/checksum) rewritten on
//!   clean close, checksummed as a whole and carrying the log length it covers. The
//!   index is a pure cache of the log: if it is missing the log is rescanned; if it
//!   covers a *prefix* of the log (a writer appended and was killed before the clean
//!   close), the tail is rescanned and the index extended. Any other disagreement —
//!   an index longer than the log, a bad checksum, a bad magic or version — is
//!   corruption and fails loudly.
//! * **`lock`** — the single-writer lock, holding the writer's pid. Read-only opens
//!   skip it; a second writer fails loudly ([`StoreError::Locked`]) unless the
//!   recorded pid is provably dead (a killed sweep's stale lock is reclaimed).
//!
//! ## Failure discipline
//!
//! Same sticky-error discipline as `athena-trace-io`: a store that cannot be read
//! *exactly* is rejected with a [`StoreError`] saying where and why — a truncated
//! record, a flipped payload byte (every [`ResultStore::get`] verifies the record
//! checksum), a bad index, an unsupported version. Nothing is silently skipped or
//! recomputed over; the one sanctioned partial state is a log that is a clean record
//! *prefix* of what the index last covered being absent entirely (the index is then
//! rebuilt), because an append-only log's prefix is exactly the valid state of an
//! earlier, interrupted run.
//!
//! ```
//! use athena_store::{RecordKey, ResultStore};
//!
//! let dir = std::env::temp_dir().join(format!("athena-store-doc-{}", std::process::id()));
//! let key = RecordKey { identity: 0xfeed, variant: 1 };
//! {
//!     let mut store = ResultStore::open(&dir, false).unwrap();
//!     store.put(key, b"{\"ipc\":1.25}").unwrap();
//!     assert_eq!(store.get(key).unwrap().as_deref(), Some(&b"{\"ipc\":1.25}"[..]));
//! } // clean close: index written, lock released
//! let mut reopened = ResultStore::open(&dir, true).unwrap();
//! assert_eq!(reopened.get(key).unwrap().as_deref(), Some(&b"{\"ipc\":1.25}"[..]));
//! # drop(reopened);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod store;

pub use error::StoreError;
pub use store::{
    checksum, hash64, GcReport, RecordKey, ResultStore, StorePolicy, StoreStats, VerifyReport,
    FORMAT_VERSION, HASH_START, INDEX_FILE, LOCK_FILE, LOG_FILE,
};
