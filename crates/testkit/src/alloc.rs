//! A counting global allocator for allocation-budget assertions.
//!
//! The paper's §IV-A memory discipline — buffers allocated once and
//! recycled by reference count — is only checkable if allocations are
//! observable. [`CountingAllocator`] wraps the system allocator with
//! atomic counters; a test or bench binary installs it with
//! `#[global_allocator]` and asserts deltas around the region of
//! interest (the conformance suite pins the steady-state PCIAM pair
//! computation at **zero** allocations; `stitchbench` reports the same
//! count per workload as `core.phase1_allocs`).
//!
//! Two counter scopes are exposed:
//!
//! * process-wide ([`CountingAllocator::allocations`] /
//!   [`CountingAllocator::bytes_allocated`]) — right for sequential
//!   whole-run measurements in a single-purpose binary;
//! * per-thread ([`CountingAllocator::thread_allocations`] /
//!   [`CountingAllocator::thread_bytes_allocated`]) — right for
//!   assertions inside a multi-threaded test harness, where unrelated
//!   tests allocating on sibling threads must not pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialized Cell: no lazy init, no destructor — safe to
    // touch from inside the allocator itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]`-installable wrapper over [`System`] that
/// counts every allocation. Zero-sized; the counters are process-global
/// statics so the type can be constructed in `const` position.
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (const, for `static` initializers).
    pub const fn new() -> CountingAllocator {
        CountingAllocator
    }

    /// Total heap allocations (including reallocations) process-wide.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total heap deallocations process-wide. A reallocation retires one
    /// block and creates one, so `allocations() − deallocations()` is the
    /// number of live blocks.
    pub fn deallocations() -> u64 {
        DEALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested from the heap process-wide.
    pub fn bytes_allocated() -> u64 {
        BYTES_ALLOCATED.load(Ordering::Relaxed)
    }

    /// Heap allocations process-wide of 1 MiB or more
    /// ([`stitch_image::buf::MIN_BYTES`]): blocks the recycler makes once.
    pub fn large_allocations() -> u64 {
        LARGE_ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Heap allocations performed by the *calling thread* only.
    pub fn thread_allocations() -> u64 {
        THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
    }

    /// Total bytes requested from the heap by the *calling thread* only.
    pub fn thread_bytes_allocated() -> u64 {
        THREAD_BYTES.try_with(Cell::get).unwrap_or(0)
    }
}

impl Default for CountingAllocator {
    fn default() -> CountingAllocator {
        CountingAllocator::new()
    }
}

#[inline]
fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    if bytes >= stitch_image::buf::MIN_BYTES {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    // try_with: the TLS slot has no destructor, but stay panic-free
    // during thread teardown regardless.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: delegates verbatim to `System`; the counter updates are
// side-effect-only and allocation-free (atomics + const-init TLS).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
