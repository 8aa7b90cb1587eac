//! Property-based tests (proptest shim) for the on-disk trace format: arbitrary record
//! streams round-trip through the binary encoding, and damaged files are rejected rather
//! than silently replayed short.

use std::io::Cursor;

use proptest::prelude::*;

use athena_repro::sim::{TraceRecord, TraceSource};
use athena_repro::trace_io::{BinaryTraceReader, BinaryTraceWriter, TraceIoError, HEADER_LEN};

/// Maps a tuple of draws onto one record, covering every kind and both boolean payloads.
fn record_from((sel, pc, addr): (u32, u64, u64)) -> TraceRecord {
    match sel {
        0 => TraceRecord::alu(pc),
        1 => TraceRecord::load(pc, addr, false),
        2 => TraceRecord::load(pc, addr, true),
        3 => TraceRecord::store(pc, addr),
        4 => TraceRecord::branch(pc, false),
        _ => TraceRecord::branch(pc, true),
    }
}

fn record_strategy() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    // Full-range pcs and addresses: zigzag deltas must survive arbitrary jumps in both
    // directions, including wrapping ones.
    prop::collection::vec((0u32..6, 0u64..u64::MAX, 0u64..u64::MAX), 0..300)
}

fn encode_binary(records: &[TraceRecord]) -> Vec<u8> {
    let mut w = BinaryTraceWriter::new(Cursor::new(Vec::new())).expect("in-memory writer");
    for r in records {
        w.write_record(*r).expect("in-memory write");
    }
    w.finish().expect("finish").into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `TraceRecord` → binary → `TraceRecord` is the identity, for arbitrary streams.
    #[test]
    fn binary_format_round_trips_arbitrary_records(raw in record_strategy()) {
        let records: Vec<TraceRecord> = raw.into_iter().map(record_from).collect();
        let bytes = encode_binary(&records);
        let mut reader = BinaryTraceReader::new(Cursor::new(&bytes)).expect("valid header");
        prop_assert_eq!(reader.header().records, records.len() as u64);
        prop_assert_eq!(
            reader.header().loads,
            records.iter().filter(|r| r.is_load()).count() as u64
        );
        let replayed: Vec<TraceRecord> = std::iter::from_fn(|| reader.next_record()).collect();
        prop_assert_eq!(replayed, records);
    }

    /// Corrupting any single identifying header byte (magic or version) must be rejected
    /// at construction.
    #[test]
    fn corrupt_header_is_rejected(
        raw in record_strategy(),
        byte in 0usize..10,
        flip in 1u32..256,
    ) {
        let records: Vec<TraceRecord> = raw.into_iter().map(record_from).collect();
        let mut bytes = encode_binary(&records);
        bytes[byte] ^= flip as u8;
        match BinaryTraceReader::new(Cursor::new(&bytes)) {
            Err(TraceIoError::BadMagic) | Err(TraceIoError::UnsupportedVersion(_)) => {}
            Ok(_) => prop_assert!(false, "corrupt header byte {byte} was accepted"),
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Corrupting any single header *counter* byte must surface as a corruption error by
    /// the time the stream ends — never as a clean, shorter (or longer) trace.
    #[test]
    fn corrupt_counters_are_rejected(
        raw in record_strategy(),
        byte in 16usize..32,
        flip in 1u32..256,
    ) {
        let records: Vec<TraceRecord> = raw.into_iter().map(record_from).collect();
        let mut bytes = encode_binary(&records);
        bytes[byte] ^= flip as u8;
        let mut reader = BinaryTraceReader::new(Cursor::new(&bytes)).expect("counters are not identity");
        let outcome = loop {
            match reader.try_next() {
                Ok(Some(_)) => {}
                other => break other,
            }
        };
        prop_assert!(
            matches!(outcome, Err(TraceIoError::Corrupt { .. })),
            "corrupt counter byte {byte} ended cleanly: {outcome:?}"
        );
    }

    /// Any strict prefix of a valid trace file must be rejected — a truncated header at
    /// construction, a truncated body while streaming.
    #[test]
    fn truncated_files_are_rejected(raw in record_strategy(), keep_permille in 0u64..1000) {
        let records: Vec<TraceRecord> = raw.into_iter().map(record_from).collect();
        let bytes = encode_binary(&records);
        let keep = (bytes.len() as u64 * keep_permille / 1000) as usize;
        prop_assert!(keep < bytes.len());
        let cut = &bytes[..keep];
        if keep < HEADER_LEN as usize {
            prop_assert!(matches!(
                BinaryTraceReader::new(Cursor::new(cut)),
                Err(TraceIoError::BadMagic)
            ));
        } else {
            let mut reader = BinaryTraceReader::new(Cursor::new(cut)).expect("header is intact");
            let outcome = loop {
                match reader.try_next() {
                    Ok(Some(_)) => {}
                    other => break other,
                }
            };
            prop_assert!(
                matches!(outcome, Err(TraceIoError::Corrupt { .. })),
                "body cut to {keep} bytes ended cleanly: {outcome:?}"
            );
        }
    }
}
