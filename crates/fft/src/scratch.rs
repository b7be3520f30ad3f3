//! Thread-local scratch buffers for allocation-free transform execution.
//!
//! The paper's §IV-A memory discipline allocates working buffers once and
//! recycles them. This module gives the transforms a per-thread pool of
//! reusable `Vec<Cx<L>>` scratch per lane type: after a warmup call at
//! each size the steady state performs zero heap allocations (asserted
//! by the counting allocator in the conformance suite).
//!
//! Buffers are keyed by nothing — a plain stack of vecs — because the FFT
//! call tree on one thread uses at most a handful of scratch buffers at a
//! time and their capacities converge to the maximum requested length
//! after the first pass. Nested [`take`] calls simply pop distinct
//! vectors, so reentrancy is safe. A 2-D transform takes one buffer for
//! its whole run — panel and chirp-z workspace together — not one per row.

use std::cell::RefCell;

use crate::complex::{Cx, Lane};

/// Per-thread stack of reusable buffers of one lane type.
pub type ScratchPool<L> = RefCell<Vec<Vec<Cx<L>>>>;

thread_local! {
    pub(crate) static POOL_F64: ScratchPool<f64> = const { RefCell::new(Vec::new()) };
    pub(crate) static POOL_F64X4: ScratchPool<[f64; 4]> = const { RefCell::new(Vec::new()) };
    pub(crate) static POOL_F32: ScratchPool<f32> = const { RefCell::new(Vec::new()) };
    pub(crate) static POOL_F32X8: ScratchPool<[f32; 8]> = const { RefCell::new(Vec::new()) };
}

/// A scratch buffer on loan from this thread's pool; goes back on drop.
pub struct Scratch<L: Lane> {
    buf: Vec<Cx<L>>,
    len: usize,
}

/// Borrows a scratch buffer of exactly `len` elements from the
/// thread-local pool.
///
/// The contents are **unspecified** (whatever the last user left): every
/// caller writes what it later reads. At steady state (after the pool
/// has seen this `len` once) the call performs no heap allocation and
/// touches none of the buffer.
pub fn take<L: Lane>(len: usize) -> Scratch<L> {
    let mut buf = L::scratch_pool()
        .try_with(|s| s.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, Cx::default());
    }
    Scratch { buf, len }
}

impl<L: Lane> Scratch<L> {
    /// The `len` elements that were asked for.
    pub fn slice(&mut self) -> &mut [Cx<L>] {
        &mut self.buf[..self.len]
    }
}

impl<L: Lane> Drop for Scratch<L> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let _ = L::scratch_pool().try_with(|s| {
            let mut pool = s.borrow_mut();
            // Bound the pool: the FFT call tree never nests deeper than
            // this, so anything beyond is a leak guard, not a cache.
            if pool.len() < 8 {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn scratch_is_reused() {
        // Same thread, same size: the pool hands back the same storage.
        let ptr1 = take::<f64>(64).slice().as_ptr() as usize;
        let ptr2 = take::<f64>(64).slice().as_ptr() as usize;
        assert_eq!(ptr1, ptr2);
    }

    #[test]
    fn nested_loans_are_distinct_buffers() {
        let (mut outer, mut inner) = (take::<f64>(16), take::<f64>(16));
        outer.slice()[0] = c64(3.0, 0.0);
        inner.slice()[0] = c64(4.0, 0.0);
        assert_eq!(outer.slice()[0].re, 3.0);
    }

    #[test]
    fn every_request_gets_its_exact_length() {
        assert_eq!(take::<f64>(8).slice().len(), 8);
        assert_eq!(take::<[f64; 4]>(1024).slice().len(), 1024);
        assert_eq!(take::<[f32; 8]>(1024).slice().len(), 1024);
        assert_eq!(take::<f64>(1024).slice().len(), 1024);
        assert_eq!(take::<f64>(8).slice().len(), 8);
    }
}
