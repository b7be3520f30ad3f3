//! The one process-wide recycler for buffers of [`MIN_BYTES`] or more
//! (paper §IV-A: allocate once, recycle; DESIGN.md "Buffers").
//!
//! A pass's worker threads live for that pass, and a large buffer one of
//! them freed stayed in its allocator arena, so a process's resident set
//! grew to the sum of the arenas' peaks. Here it goes on a free list keyed
//! by element layout (size and alignment), and the next [`take`] of a
//! similar length, on any thread and in any pass, reuses it.

use std::mem::{self, ManuallyDrop};
use std::sync::{Mutex, MutexGuard};

/// Buffers of fewer bytes than this bypass the recycler.
pub const MIN_BYTES: usize = 1 << 20;

/// An idle block: `cap` elements of its shelf's layout.
struct Idle {
    ptr: *mut u8,
    cap: usize,
}

// SAFETY: `ptr` is the sole owner of a heap block that no `Vec` refers to
// any more and that holds no initialised element (only types without drop
// glue enter); `cap` is a plain count. Sending it is sending an empty `Vec`.
unsafe impl Send for Idle {}

/// Bytes the recycler accounts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Usage {
    /// Bytes taken and not yet given back.
    pub live: usize,
    /// The most bytes ever live at once.
    pub peak: usize,
    /// Bytes idle on the free lists.
    pub idle: usize,
}

struct Recycler {
    /// Idle blocks per element layout `(size, align)`.
    shelves: Vec<((usize, usize), Vec<Idle>)>,
    /// Address and bytes of each buffer taken and not yet given back, so a
    /// buffer made elsewhere (`Image::from_vec`, a clone) never reads as
    /// one returning.
    lent: Vec<(usize, usize)>,
    usage: Usage,
}

static RECYCLER: Mutex<Recycler> = Mutex::new(Recycler {
    shelves: Vec::new(),
    lent: Vec::new(),
    usage: Usage {
        live: 0,
        peak: 0,
        idle: 0,
    },
});

/// Every update leaves the lists and counts consistent, and `give` runs
/// inside `Drop`, which must not panic: a poisoned lock is reused.
fn lock() -> MutexGuard<'static, Recycler> {
    RECYCLER.lock().unwrap_or_else(|e| e.into_inner())
}

impl Recycler {
    fn shelf(&mut self, layout: (usize, usize)) -> Option<&mut Vec<Idle>> {
        let shelf = self.shelves.iter_mut().find(|s| s.0 == layout);
        shelf.map(|(_, idle)| idle)
    }
}

/// The recycler's live, high-water and idle bytes now.
pub fn usage() -> Usage {
    lock().usage
}

/// `len` elements of `T::default()` (zero for every pixel, sample and
/// spectrum type). At [`MIN_BYTES`] or more it reuses the smallest idle
/// buffer of `T`'s layout with a capacity in `[len, len + len/8]`, or
/// allocates room for `len + len/16` (never written: address space, not
/// memory) so the buffer can also serve a slightly longer request.
pub fn take<T: Copy + Default>(len: usize) -> Vec<T> {
    let layout = (mem::size_of::<T>(), mem::align_of::<T>());
    let spare = len.saturating_add(len / 16);
    let sized = len.checked_mul(layout.0).zip(spare.checked_mul(layout.0));
    if sized.is_none_or(|(bytes, _)| bytes < MIN_BYTES) {
        return vec![T::default(); len];
    }
    let reused = {
        let mut r = lock();
        let found = r.shelf(layout).and_then(|idle| {
            let (at, _) = (idle.iter().enumerate())
                .filter(|(_, b)| b.cap >= len && b.cap - len <= len / 8)
                .min_by_key(|(_, b)| b.cap)?;
            Some(idle.swap_remove(at))
        });
        r.usage.idle -= found.as_ref().map_or(0, |b| b.cap * layout.0);
        found
    };
    let v = match reused {
        Some(b) => {
            // SAFETY: `b` was a `Vec` of a type with `T`'s size and
            // alignment and capacity `b.cap` (`give`), so its block has
            // exactly the layout a `Vec<T>` of that capacity allocates; it
            // has no other owner, and length 0 asserts no initialised
            // element.
            let mut v = unsafe { Vec::from_raw_parts(b.ptr.cast::<T>(), 0, b.cap) };
            v.resize(len, T::default());
            v
        }
        None => {
            let mut v = vec![T::default(); spare];
            v.truncate(len);
            v
        }
    };
    let (mut r, bytes) = (lock(), v.capacity() * layout.0);
    r.lent.push((v.as_ptr() as usize, bytes));
    r.usage.live += bytes;
    r.usage.peak = r.usage.peak.max(r.usage.live);
    v
}

/// Returns `v`'s storage. At [`MIN_BYTES`] or more of a type without drop
/// glue it goes on its layout's free list while the live and idle bytes
/// stay within twice the high-water (DESIGN.md "Buffers": why twice), and
/// is freed past that.
pub fn give<T>(v: Vec<T>) {
    let layout = (mem::size_of::<T>(), mem::align_of::<T>());
    let bytes = v.capacity() * layout.0;
    if bytes < MIN_BYTES || mem::needs_drop::<T>() {
        return;
    }
    let mut r = lock();
    let addr = v.as_ptr() as usize;
    if let Some(at) = r.lent.iter().position(|&(a, _)| a == addr) {
        r.usage.live -= r.lent.swap_remove(at).1;
    }
    let Usage { live, peak, idle } = r.usage;
    if live + idle + bytes > 2 * peak {
        return; // the lock is released first, then `v` is freed
    }
    r.usage.idle += bytes;
    let mut v = ManuallyDrop::new(v);
    let block = Idle {
        ptr: v.as_mut_ptr().cast::<u8>(),
        cap: v.capacity(),
    };
    match r.shelf(layout) {
        Some(idle) => idle.push(block),
        None => r.shelves.push((layout, vec![block])),
    }
}
