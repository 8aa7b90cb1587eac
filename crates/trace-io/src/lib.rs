//! # athena-trace-io
//!
//! The on-disk trace format and streaming replay for the Athena reproduction.
//!
//! Every workload in `athena-workloads` is an in-process seeded generator. `trace record`
//! writes a generator's record stream to a binary `.trace` file, and `--trace-dir`
//! replays such files in place of the generators, which reproduces the generated tables
//! byte for byte. The reader and writer hold O(1) state, so a
//! multi-million-instruction trace replays without ever being materialised in memory.
//!
//! [`BinaryTraceReader`] implements [`TraceSource`], so a file-backed trace drops into
//! [`athena_sim::Simulator::run`] — and into the experiment engine's file-backed jobs —
//! exactly like a generator does.
//!
//! ## The binary format (`.trace`)
//!
//! A versioned, hand-rolled container (the offline build has no serde/protobuf): a
//! fixed-size little-endian header followed by varint-packed records.
//!
//! ```text
//! offset  size  field
//! 0       8     magic: the ASCII bytes "ATHTRACE"
//! 8       2     format version, little-endian u16 (currently 1)
//! 10      6     reserved, must be zero
//! 16      8     record (instruction) count, little-endian u64
//! 24      8     load count, little-endian u64
//! 32      —     the records, varint-packed (see below)
//! ```
//!
//! Each record is a one-byte *tag* followed by LEB128 varints. The tag enumerates the
//! instruction kind together with its boolean payload, so the common records cost 2–4
//! bytes instead of the 24 bytes of the in-memory struct:
//!
//! ```text
//! tag  kind                      fields after the tag
//! 0    Alu                       pc-delta
//! 1    Load (independent)        pc-delta, addr-delta
//! 2    Load (dep_on_recent_load) pc-delta, addr-delta
//! 3    Store                     pc-delta, addr-delta
//! 4    Branch (not taken)        pc-delta
//! 5    Branch (taken)            pc-delta
//! ```
//!
//! `pc-delta` is the zigzag-encoded difference from the previous record's program counter
//! (starting from 0); `addr-delta` is the zigzag-encoded difference from the previous
//! memory address touched by a load or store (also starting from 0). Delta-plus-zigzag
//! makes the hot cases — sequential code, streaming and strided data — one-byte varints.
//!
//! **Versioning / compatibility policy:** the version field is bumped whenever the record
//! encoding or header layout changes; readers reject any version they do not know
//! ([`TraceIoError::UnsupportedVersion`]) rather than guessing. Reserved header bytes must
//! be written as zero and are ignored on read, so they are available for backwards
//! compatible extensions within a version. A reader also rejects a bad magic, a truncated
//! record stream (fewer records than the header promised), trailing bytes after the last
//! record, and a header load count that disagrees with the decoded stream — so neither
//! silent truncation nor a corrupted header can masquerade as a valid, shorter workload.
//!
//! ## Worked example
//!
//! Round-trip three records through the binary format in memory, then replay them:
//!
//! ```
//! use std::io::Cursor;
//! use athena_sim::{TraceRecord, TraceSource};
//! use athena_trace_io::{BinaryTraceReader, BinaryTraceWriter};
//!
//! let records = vec![
//!     TraceRecord::load(0x400004, 0x1000_0040, false),
//!     TraceRecord::alu(0x400008),
//!     TraceRecord::branch(0x40000c, true),
//! ];
//!
//! // Write: any `Write + Seek` target works (a file, or an in-memory buffer here).
//! let mut writer = BinaryTraceWriter::new(Cursor::new(Vec::new())).unwrap();
//! for r in &records {
//!     writer.write_record(*r).unwrap();
//! }
//! let bytes = writer.finish().unwrap().into_inner();
//!
//! // Read back, streaming: the reader holds O(1) state regardless of trace length.
//! let mut reader = BinaryTraceReader::new(Cursor::new(&bytes)).unwrap();
//! assert_eq!(reader.header().records, 3);
//! assert_eq!(reader.header().loads, 1);
//! let replayed: Vec<TraceRecord> = std::iter::from_fn(|| reader.next_record()).collect();
//! assert_eq!(replayed, records);
//! ```
//!
//! ## Error handling
//!
//! Construction and [`BinaryTraceReader::try_next`] return [`TraceIoError`]. The
//! [`TraceSource`] impl (which has no error channel) panics on a corrupt or truncated
//! stream instead of silently ending the trace — inside the experiment engine that panic
//! is caught per cell, so one bad trace file fails exactly one cell of a batch, mirroring
//! how a poisoned generated cell behaves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod error;
mod file;
mod varint;

pub use binary::{BinaryTraceReader, BinaryTraceWriter, TraceHeader, HEADER_LEN, MAGIC, VERSION};
pub use error::TraceIoError;
pub use file::{open_trace, record_trace};

// Re-exported so downstream code can name the record types without also depending on
// `athena-sim` directly.
pub use athena_sim::{InstrKind, TraceRecord, TraceSource};
