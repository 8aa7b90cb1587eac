//! Trace record types and the [`TraceSource`] abstraction.
//!
//! The simulator is trace-driven: it consumes a stream of [`TraceRecord`]s describing retired
//! instructions (ALU operations, loads, stores and conditional branches). Traces are normally
//! produced lazily by the generators in the `athena-workloads` crate, but any iterator of
//! records works.

/// The size of a cache line in bytes. All address arithmetic in the simulator assumes this.
pub const LINE_SIZE: u64 = 64;

/// The size of a virtual page in bytes (used for page-crossing checks and OCP features).
pub const PAGE_SIZE: u64 = 4096;

/// One retired instruction in a program trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of the instruction.
    pub pc: u64,
    /// What the instruction does, as far as the timing model cares.
    pub kind: InstrKind,
}

/// The classes of instruction the timing model distinguishes.
///
/// The discriminant is a full word (`repr(u64)`) so a record is copied as whole words.
/// With a one-byte tag, moving an `Option<TraceRecord>` through the stack split the 23
/// bytes behind the tag into overlapping 16- and 8-byte moves, and the profiled batch
/// loop stalled on a failed store-to-load forward for every record it fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum InstrKind {
    /// A non-memory, non-branch instruction. Completes in one cycle.
    Alu,
    /// A load from `addr`.
    ///
    /// When `dep_on_recent_load` is set the load's address depends on the data returned by
    /// the most recent preceding load (pointer chasing), so its request cannot be issued
    /// before that load completes. This is how irregular, latency-bound workloads are
    /// expressed in traces.
    Load {
        /// Byte address accessed by the load.
        addr: u64,
        /// Whether the address generation depends on the previous load's data.
        dep_on_recent_load: bool,
    },
    /// A store to `addr`. Stores retire without stalling the core but do consume cache and
    /// DRAM bandwidth (write-allocate).
    Store {
        /// Byte address written by the store.
        addr: u64,
    },
    /// A conditional branch with its resolved direction.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
}

impl TraceRecord {
    /// Creates an ALU (non-memory, non-branch) record.
    pub fn alu(pc: u64) -> Self {
        Self {
            pc,
            kind: InstrKind::Alu,
        }
    }

    /// Creates a load record.
    pub fn load(pc: u64, addr: u64, dep_on_recent_load: bool) -> Self {
        Self {
            pc,
            kind: InstrKind::Load {
                addr,
                dep_on_recent_load,
            },
        }
    }

    /// Creates a store record.
    pub fn store(pc: u64, addr: u64) -> Self {
        Self {
            pc,
            kind: InstrKind::Store { addr },
        }
    }

    /// Creates a conditional-branch record.
    pub fn branch(pc: u64, taken: bool) -> Self {
        Self {
            pc,
            kind: InstrKind::Branch { taken },
        }
    }

    /// Returns `true` if this record is a load.
    pub fn is_load(&self) -> bool {
        matches!(self.kind, InstrKind::Load { .. })
    }

    /// Returns `true` if this record is a store.
    pub fn is_store(&self) -> bool {
        matches!(self.kind, InstrKind::Store { .. })
    }

    /// Returns `true` if this record is a branch.
    pub fn is_branch(&self) -> bool {
        matches!(self.kind, InstrKind::Branch { .. })
    }

    /// Returns the memory address touched by this record, if any.
    pub fn addr(&self) -> Option<u64> {
        match self.kind {
            InstrKind::Load { addr, .. } | InstrKind::Store { addr } => Some(addr),
            _ => None,
        }
    }

    /// Returns the cache-line-aligned address touched by this record, if any.
    pub fn line_addr(&self) -> Option<u64> {
        self.addr().map(|a| a & !(LINE_SIZE - 1))
    }
}

/// A source of trace records.
///
/// Implemented for any iterator over [`TraceRecord`], and by the replaying generators in the
/// workload crate. Sources may be infinite; the simulator stops after the requested number of
/// instructions.
pub trait TraceSource {
    /// Produces the next instruction, or `None` if the trace is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;
}

impl<I> TraceSource for I
where
    I: Iterator<Item = TraceRecord>,
{
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.next()
    }
}

/// Returns the cache-line-aligned form of `addr`.
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_SIZE - 1)
}

/// Returns the page-aligned form of `addr`.
pub fn page_of(addr: u64) -> u64 {
    addr & !(PAGE_SIZE - 1)
}

/// Returns the cache-line index of `addr` within its page (0..64 for 4 KiB pages).
pub fn line_offset_in_page(addr: u64) -> u64 {
    (addr & (PAGE_SIZE - 1)) / LINE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        let l = TraceRecord::load(0x400, 0x1234, true);
        assert!(l.is_load());
        assert!(!l.is_store());
        assert_eq!(l.addr(), Some(0x1234));
        assert_eq!(l.line_addr(), Some(0x1200));

        let s = TraceRecord::store(0x404, 0xfff);
        assert!(s.is_store());
        assert_eq!(s.line_addr(), Some(0xfc0));

        let b = TraceRecord::branch(0x408, true);
        assert!(b.is_branch());
        assert_eq!(b.addr(), None);

        let a = TraceRecord::alu(0x40c);
        assert_eq!(a.addr(), None);
        assert!(!a.is_branch());
    }

    #[test]
    fn address_helpers() {
        assert_eq!(line_of(0x1001), 0x1000);
        assert_eq!(line_of(0x103f), 0x1000);
        assert_eq!(line_of(0x1040), 0x1040);
        assert_eq!(page_of(0x1fff), 0x1000);
        assert_eq!(line_offset_in_page(0x1000), 0);
        assert_eq!(line_offset_in_page(0x1fc0), 63);
    }

    #[test]
    fn iterator_is_a_trace_source() {
        let mut src = vec![TraceRecord::alu(1), TraceRecord::alu(2)].into_iter();
        assert_eq!(
            TraceSource::next_record(&mut src),
            Some(TraceRecord::alu(1))
        );
        assert_eq!(
            TraceSource::next_record(&mut src),
            Some(TraceRecord::alu(2))
        );
        assert_eq!(TraceSource::next_record(&mut src), None);
    }
}
