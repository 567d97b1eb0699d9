//! Counting global allocator: live-heap high-water mark and allocation
//! count over an armed window.
//!
//! Disarmed (the state during every timed pass) each allocator call costs
//! one relaxed flag load on top of the system allocator. Armed, it tracks
//! the bytes allocated minus the bytes freed since arming and the largest
//! value that difference reached, so a window that constructs an engine,
//! runs one pass and drops the result reports the heap that pass needed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counters are statistics and publish no other data, hence `Relaxed`.
fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the GlobalAlloc contract; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
        System.dealloc(ptr, layout)
    }
}

/// Heap use of one armed window.
#[derive(Debug, Clone, Copy)]
pub struct HeapUse {
    /// Largest (allocated − freed) byte count reached inside the window.
    pub peak_bytes: u64,
    /// Allocator calls that obtained memory (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
}

/// Serialises armed windows (the harness tests run on parallel threads).
static WINDOW: Mutex<()> = Mutex::new(());

/// Runs `f` with the counters armed. Windows must not nest. Allocations
/// made by other threads while a window is open are counted with it; the
/// benchmark binary runs nothing else then.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    // A panic inside an earlier window leaves nothing half-updated here.
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let used = HeapUse {
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        allocs: ALLOCS.load(Ordering::Relaxed),
    };
    (out, used)
}
