//! Fixed-capacity windows for the per-instruction hot path.
//!
//! * [`Ring`] holds the core's reorder-buffer and commit windows: the last `capacity`
//!   retire cycles, oldest first. Both windows are touched twice per instruction, so a
//!   push is one slot write and one counter bump.
//! * [`RecentPages`] is the hierarchy's first-access-to-page filter: the last
//!   [`RECENT_PAGES`] distinct pages in a [`Ring`], evicted FIFO, with a hash set of its
//!   members so a load asks one hash probe instead of scanning the window.
//!
//! Simulated results depend on every decision these make; `tests/properties.rs` drives
//! both against `VecDeque` reference models.

use crate::fastmap::FxHashSet;

/// A FIFO of the last `capacity` values pushed.
#[derive(Debug, Clone)]
pub struct Ring {
    slots: Box<[u64]>,
    /// Next slot to write; once the ring is full it also holds the oldest value.
    head: usize,
    len: usize,
}

impl Ring {
    /// Creates an empty ring. A capacity of 0 behaves as 1 (the window the core's
    /// `VecDeque` gave a zero-sized ROB: pop the one entry, then push).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: vec![0; capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// The value the next [`Ring::push`] displaces: the oldest one, once the ring is full.
    /// `None` while it is still filling.
    #[inline]
    pub fn oldest_if_full(&self) -> Option<u64> {
        (self.len == self.slots.len()).then(|| self.slots[self.head])
    }

    /// Appends `value`, displacing the oldest value once the ring is full.
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.slots[self.head] = value;
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        if self.len < self.slots.len() {
            self.len += 1;
        }
    }
}

/// Distinct pages the first-access-to-page filter remembers.
pub const RECENT_PAGES: usize = 64;

/// The last [`RECENT_PAGES`] distinct pages touched, evicted first in, first out.
///
/// The window is a [`Ring`], so its slots live on the heap: a hierarchy embeds this
/// filter, and a 512-byte inline array raised the heap peak of an 8-core quick cell by
/// about 0.4 MB.
#[derive(Debug, Clone)]
pub struct RecentPages {
    window: Ring,
    members: FxHashSet<u64>,
}

impl Default for RecentPages {
    fn default() -> Self {
        Self {
            window: Ring::new(RECENT_PAGES),
            members: FxHashSet::default(),
        }
    }
}

impl RecentPages {
    /// Records an access to `page`. Returns `true` when `page` is not among the remembered
    /// pages, in which case it is admitted and, with the window full, the oldest page is
    /// forgotten. A page already remembered keeps its place.
    #[inline]
    pub fn touch(&mut self, page: u64) -> bool {
        if self.members.contains(&page) {
            return false;
        }
        if let Some(oldest) = self.window.oldest_if_full() {
            self.members.remove(&oldest);
        }
        self.window.push(page);
        self.members.insert(page);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_reports_the_oldest_value_once_full() {
        let mut r = Ring::new(3);
        for v in 1..=3 {
            assert_eq!(r.oldest_if_full(), None);
            r.push(v);
        }
        assert_eq!(r.oldest_if_full(), Some(1));
        r.push(4);
        assert_eq!(r.oldest_if_full(), Some(2));
    }

    #[test]
    fn zero_capacity_ring_behaves_as_one() {
        let mut r = Ring::new(0);
        assert_eq!(r.oldest_if_full(), None);
        r.push(7);
        assert_eq!(r.oldest_if_full(), Some(7));
        r.push(8);
        assert_eq!(r.oldest_if_full(), Some(8));
    }

    #[test]
    fn recent_pages_evict_first_in_first_out() {
        let mut p = RecentPages::default();
        for page in 0..RECENT_PAGES as u64 {
            assert!(p.touch(page << 12));
        }
        assert!(!p.touch(0), "a remembered page is not a first access");
        assert!(p.touch(1 << 30), "a new page is");
        assert!(p.touch(0), "the new page evicted the oldest, page 0");
        assert!(p.touch(1 << 12), "page 0 coming back evicted page 1");
    }
}
