//! Counting global allocator: allocator calls, live heap bytes and the peak
//! of live bytes since the last [`Counters::reset_peak`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The bookkeeping, apart from the allocator so a scripted pattern can be
/// checked exactly on a private instance while other test threads allocate.
///
/// Relaxed atomics: the counters publish no other data, and every reader
/// takes its snapshot between phases of a run, on the thread driving them.
pub struct Counters {
    calls: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl Counters {
    pub const fn new() -> Self {
        Counters {
            calls: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn on_alloc(&self, size: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.grow(size);
    }

    fn on_dealloc(&self, size: u64) {
        self.live.fetch_sub(size, Relaxed);
    }

    fn on_realloc(&self, old: u64, new: u64) {
        self.calls.fetch_add(1, Relaxed);
        if new >= old {
            self.grow(new - old);
        } else {
            self.live.fetch_sub(old - new, Relaxed);
        }
    }

    fn grow(&self, by: u64) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        // The plain load keeps the common case (below the peak) to a read.
        if live > self.peak.load(Relaxed) {
            self.peak.fetch_max(live, Relaxed);
        }
    }

    /// Allocator calls (alloc, alloc_zeroed, realloc) so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Heap bytes live now.
    pub fn live(&self) -> u64 {
        self.live.load(Relaxed)
    }

    /// Start a new peak measurement at the current live level and return
    /// that level: `peak() - level` is then the growth above it.
    pub fn reset_peak(&self) -> u64 {
        let level = self.live();
        self.peak.store(level, Relaxed);
        level
    }

    /// Highest live level since the last [`Counters::reset_peak`].
    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }
}

/// The process's counters, fed by [`Counting`].
pub static HEAP: Counters = Counters::new();

/// The system allocator with [`HEAP`] wrapped around it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP.on_realloc(layout.size() as u64, new_size as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn scripted_pattern_is_exact_and_excludes_bytes_held_before_the_reset() {
        let c = Counters::new();
        c.on_alloc(1000); // input buffer, held across the driver's life
        let level = c.reset_peak();
        assert_eq!(level, 1000);
        let calls0 = c.calls();
        c.on_alloc(300); // a
        c.on_alloc(500); // b
        c.on_dealloc(300); // a leaves
        c.on_alloc(100); // c arrives after a left: below the a+b peak
        c.on_realloc(500, 650); // b grows by 150: live 750, still below 800
        c.on_realloc(650, 50); // and shrinks
        assert_eq!(c.calls() - calls0, 5);
        assert_eq!(c.peak() - level, 800);
        assert_eq!(c.live() - level, 150);
        c.on_dealloc(1000); // dropping the input later does not move the peak
        assert_eq!(c.peak(), 1800);
    }

    #[test]
    fn global_allocator_feeds_the_counters() {
        // Other test threads allocate too, so only one-sided bounds hold
        // here; the sizes dwarf anything a neighbouring test allocates.
        let calls0 = HEAP.calls();
        let live0 = HEAP.live();
        let mut v: Vec<u8> = black_box(Vec::with_capacity(64 << 20));
        assert!(HEAP.calls() > calls0);
        assert!(HEAP.live() >= live0 + (48 << 20));
        v.shrink_to(1 << 10);
        assert!(HEAP.live() < live0 + (48 << 20));
    }
}
