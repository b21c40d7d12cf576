//! Counting `#[global_allocator]`: heap allocations and bytes requested by
//! the program under test.  Threads that belong to the benchmark itself
//! (the load generator) opt out with [`exclude_current_thread`], so
//! `allocs_per_infer` describes the server, not the client that drives it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The process allocator: `System` plus two relaxed counters.
pub struct CountingAlloc;

// Statistics only — they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialiser and no destructor: touching it inside the
    // allocator can neither allocate nor run after thread teardown.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    // `try_with` fails only during thread teardown; such allocations belong
    // to whatever the thread was, and are counted.
    if !EXCLUDED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Stops counting the calling thread's allocations (for its lifetime).
pub fn exclude_current_thread() {
    EXCLUDED.with(|flag| flag.set(true));
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// The counters are process-wide and the test harness runs tests on
    /// parallel threads, so the check works on differences between a
    /// counted and an excluded thread doing the same large, unmistakable
    /// amount of allocation, forced into sequence with channels.
    #[test]
    fn excluded_thread_is_not_counted() {
        const N: u64 = 200_000;
        fn churn() {
            for i in 0..N {
                std::hint::black_box(Box::new(i));
            }
        }
        let (tx, rx) = mpsc::channel::<()>();
        let before = snapshot();
        let excluded = std::thread::spawn(move || {
            exclude_current_thread();
            churn();
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        excluded.join().unwrap();
        let after_excluded = snapshot().since(before);
        let counted = std::thread::spawn(churn);
        counted.join().unwrap();
        let after_counted = snapshot().since(before);
        // Other tests may allocate concurrently, but nowhere near N times.
        assert!(after_excluded.allocs < N / 2, "{after_excluded:?}");
        assert!(after_counted.allocs >= N, "{after_counted:?}");
        assert!(after_counted.bytes >= N * 8);
    }
}
