//! File-level entry points: opening and recording traces.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use athena_sim::TraceSource;

use crate::binary::{BinaryTraceReader, BinaryTraceWriter};
use crate::error::TraceIoError;

/// Opens `path` for streaming replay, validating the header.
pub fn open_trace(path: &Path) -> Result<BinaryTraceReader<BufReader<File>>, TraceIoError> {
    BinaryTraceReader::new(BufReader::new(File::open(path)?))
}

/// Records up to `limit` records from `source` into `path`; returns the number of records
/// written (fewer than `limit` only if the source ends first).
///
/// The copy is streaming: one record is in flight at a time, so recording a
/// multi-million-instruction workload holds O(1) memory.
pub fn record_trace(
    source: &mut dyn TraceSource,
    limit: u64,
    path: &Path,
) -> Result<u64, TraceIoError> {
    let mut writer = BinaryTraceWriter::new(BufWriter::new(File::create(path)?))?;
    while writer.records_written() < limit {
        let Some(r) = source.next_record() else {
            break;
        };
        writer.write_record(r)?;
    }
    let written = writer.records_written();
    writer.finish()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_sim::TraceRecord;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("athena-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<TraceRecord> {
        (0..500u64)
            .map(|i| match i % 4 {
                0 => TraceRecord::load(0x400 + i * 4, 0x1000_0000 + i * 64, i % 8 == 0),
                1 => TraceRecord::store(0x500 + i * 4, 0x2000_0000 + i * 64),
                2 => TraceRecord::branch(0x600 + i * 4, i % 3 == 0),
                _ => TraceRecord::alu(0x700 + i * 4),
            })
            .collect()
    }

    #[test]
    fn record_and_open_round_trip() {
        let records = sample_records();
        let path = temp_path("roundtrip.trace");
        let mut src = records.clone().into_iter();
        let written = record_trace(&mut src, u64::MAX, &path).unwrap();
        assert_eq!(written, records.len() as u64);
        let mut file = open_trace(&path).unwrap();
        assert_eq!(file.header().records, records.len() as u64);
        let replayed: Vec<TraceRecord> = std::iter::from_fn(|| file.next_record()).collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn record_respects_the_limit() {
        let path = temp_path("limited.trace");
        let mut src = sample_records().into_iter();
        let written = record_trace(&mut src, 42, &path).unwrap();
        assert_eq!(written, 42);
        let mut file = open_trace(&path).unwrap();
        assert_eq!(file.header().records, 42);
        assert_eq!(std::iter::from_fn(|| file.next_record()).count(), 42);
    }

    #[test]
    fn opening_a_non_trace_file_fails() {
        let path = temp_path("not-a-trace");
        std::fs::write(&path, b"hello world, definitely not a trace").unwrap();
        assert!(matches!(open_trace(&path), Err(TraceIoError::BadMagic)));
    }
}
