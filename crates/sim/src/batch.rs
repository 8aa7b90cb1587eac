//! Batched record stepping for the profiled hot path.
//!
//! The per-instruction loop used to open a `trace_gen` span around every
//! `next_record()` call and a `core_step` span around every `step()` — 2 × 40 000 span
//! open/close pairs per quick cell, which dwarfed the simulation work they were supposed
//! to measure. [`StepBatch`] amortises that: one span fetches up to [`STEP_BATCH`]
//! records into a reused buffer, a second span steps them all. Phase *shares* stay
//! meaningful (the same work is inside the same phase), only the per-span overhead
//! shrinks by the batch length. Unprofiled runs keep a plain fetch/step loop: the
//! batch's extra copy of every record measured about 10 % slower end to end.
//!
//! Correctness: a trace source is a pure record stream — it never observes simulator
//! state — so fetching records ahead of stepping them cannot reorder or alter anything.
//! The driver steps exactly the records fetched, in order, and never fetches more than
//! the remaining instruction budget, so retire counts and epoch boundaries land on the
//! same instructions as the unbatched loop.

use crate::core::CoreEngine;
use crate::hierarchy::MemoryHierarchy;
use crate::trace::{TraceRecord, TraceSource};

/// Records fetched per `trace_gen` span and stepped per `core_step` span.
///
/// Big enough to make span overhead negligible (2 spans per 64 instructions), small
/// enough that the buffer stays in L1 and a partial final batch wastes nothing.
pub(crate) const STEP_BATCH: usize = 64;

/// A reusable fetch-then-step buffer (allocated once per run, not per batch).
pub(crate) struct StepBatch {
    records: Vec<TraceRecord>,
}

impl StepBatch {
    pub(crate) fn new() -> Self {
        Self {
            records: Vec::with_capacity(STEP_BATCH),
        }
    }

    /// Refills the buffer with up to `min(STEP_BATCH, budget)` records under one
    /// `trace_gen` span. Returns `true` when the trace ended before filling the request
    /// (the caller should stop after stepping what was fetched). Generic, so a
    /// single-core run fetches from its concrete source without a dynamic call.
    pub(crate) fn refill<T: TraceSource + ?Sized>(&mut self, trace: &mut T, budget: u64) -> bool {
        let want = (STEP_BATCH as u64).min(budget) as usize;
        self.records.clear();
        let _span = athena_probe::span(athena_probe::Phase::TraceGen);
        while self.records.len() < want {
            match trace.next_record() {
                Some(record) => self.records.push(record),
                None => return true,
            }
        }
        false
    }

    /// Steps every buffered record, in fetch order, under one `core_step` span.
    pub(crate) fn step_all(&self, engine: &mut CoreEngine, hierarchy: &mut MemoryHierarchy) {
        if self.records.is_empty() {
            return;
        }
        let _span = athena_probe::span(athena_probe::Phase::CoreStep);
        for &record in &self.records {
            engine.step(record, hierarchy);
        }
    }
}
