//! Host-side spectrum buffer pool (paper §IV-A memory discipline).
//!
//! Tile spectra are the dominant host allocation of the CPU stitchers — one
//! `Vec<C32>` half spectrum per forward transform — and each is dropped as
//! soon as the pair refcount hits zero. A [`PooledSpectrum`] hands its
//! storage back on drop, so at steady state the hot path performs **zero**
//! heap allocations (asserted by the counting allocator in the
//! conformance suite). A spectrum of 1 MiB or more goes back to the
//! process-wide [`stitch_image::buf`] recycler, where the next pass — or
//! another pool — takes it; a smaller one waits on this pool's free list.
//!
//! An **elastic** pool ([`SpectrumPool::new`]) never blocks: the pipelined
//! stitchers already bound in-flight tiles with a semaphore. A **bounded**
//! one ([`SpectrumPool::bounded`]) never has more than its cap of buffers
//! on loan or free, and `acquire` blocks at the cap: the batch scheduler's
//! per-job memory quota.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

use stitch_fft::C32;
use stitch_image::buf;

struct PoolState {
    /// Returned buffers under [`buf::MIN_BYTES`]; larger ones go back to
    /// the recycler.
    free: Vec<Vec<C32>>,
    /// Buffers in existence: free-list entries plus outstanding leases.
    /// Detaching a buffer with `into_vec` removes it from the population
    /// (and, in a bounded pool, frees its cap slot).
    population: usize,
}

struct PoolShared {
    buf_len: usize,
    cap: Option<usize>,
    state: Mutex<PoolState>,
    returned: Condvar,
}

impl PoolShared {
    /// Poison-tolerant lock: a worker that panicked while holding the
    /// pool lock must not cascade into every sibling's buffer drop.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A shareable pool of equal-length `Vec<C32>` spectrum buffers.
/// Cloning is cheap and yields a handle to the same pool; the stitcher
/// variants create one pool per run and hand clones to every worker.
#[derive(Clone)]
pub struct SpectrumPool {
    shared: Arc<PoolShared>,
}

impl SpectrumPool {
    /// Creates an empty *elastic* pool of length-`buf_len` buffers:
    /// `acquire` never blocks.
    pub fn new(buf_len: usize) -> SpectrumPool {
        SpectrumPool::build(buf_len, None)
    }

    /// Creates an empty *bounded* pool: at most `cap` buffers ever exist
    /// and [`SpectrumPool::acquire`] blocks once all of them are on loan.
    ///
    /// # Panics
    /// `cap` must be ≥ 1 — a zero-capacity pool would deadlock the first
    /// acquisition.
    pub fn bounded(buf_len: usize, cap: usize) -> SpectrumPool {
        assert!(cap >= 1, "bounded pool needs cap >= 1");
        SpectrumPool::build(buf_len, Some(cap))
    }

    fn build(buf_len: usize, cap: Option<usize>) -> SpectrumPool {
        SpectrumPool {
            shared: Arc::new(PoolShared {
                buf_len,
                cap,
                state: Mutex::new(PoolState {
                    free: Vec::new(),
                    population: 0,
                }),
                returned: Condvar::new(),
            }),
        }
    }

    /// The fixed element count of every buffer in this pool.
    pub fn buf_len(&self) -> usize {
        self.shared.buf_len
    }

    /// The population cap, or `None` for an elastic pool.
    pub fn cap(&self) -> Option<usize> {
        self.shared.cap
    }

    /// Takes a buffer from the free list, or from the recycler when the
    /// list is empty. An elastic pool never blocks; a bounded pool at its
    /// cap blocks until a lease is returned. The contents are
    /// **unspecified** — producers must overwrite every element, which
    /// every `forward_fft` path does.
    pub fn acquire(&self) -> PooledSpectrum {
        let mut state = self.shared.lock();
        loop {
            if let Some(buf) = state.free.pop() {
                debug_assert_eq!(buf.len(), self.shared.buf_len);
                return self.wrap(buf);
            }
            match self.shared.cap {
                Some(cap) if state.population >= cap => {
                    state = self
                        .shared
                        .returned
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
                _ => {
                    state.population += 1;
                    drop(state);
                    return self.wrap(buf::take(self.shared.buf_len));
                }
            }
        }
    }

    fn wrap(&self, data: Vec<C32>) -> PooledSpectrum {
        PooledSpectrum {
            data,
            pool: Arc::clone(&self.shared),
        }
    }

    /// Buffers currently on loan (acquired and not yet returned or
    /// detached). The scheduler's cancellation test asserts this drains
    /// to zero when a job is torn down.
    pub fn leased(&self) -> usize {
        let state = self.shared.lock();
        state.population - state.free.len()
    }

    /// A non-owning handle for an auditor that must not keep the pool's
    /// buffers alive.
    pub fn downgrade(&self) -> WeakSpectrumPool {
        WeakSpectrumPool(Arc::downgrade(&self.shared))
    }
}

/// Non-owning view of a [`SpectrumPool`]; see [`SpectrumPool::downgrade`].
pub struct WeakSpectrumPool(Weak<PoolShared>);

impl WeakSpectrumPool {
    /// The pool, or `None` once it is gone — which it is only when every
    /// handle *and every lease* has been dropped.
    pub fn upgrade(&self) -> Option<SpectrumPool> {
        self.0.upgrade().map(|shared| SpectrumPool { shared })
    }
}

/// A spectrum buffer on loan from a [`SpectrumPool`]. Dereferences to
/// `[C32]`; the storage returns to the pool's free list on drop.
pub struct PooledSpectrum {
    /// Invariant: `data.len() == pool.buf_len` except transiently inside
    /// `drop`/`into_vec`, where it is taken and replaced by an empty vec.
    data: Vec<C32>,
    pool: Arc<PoolShared>,
}

impl PooledSpectrum {
    /// Detaches the buffer from the pool, e.g. to hand it to an owner
    /// with its own storage discipline (`stitch-bench`'s `SpillStore`,
    /// under `paperfigs fig5_real`). The pool never sees this buffer
    /// again; in a bounded pool its cap slot is freed so a replacement can
    /// be allocated.
    pub fn into_vec(mut self) -> Vec<C32> {
        std::mem::take(&mut self.data)
    }
}

impl Deref for PooledSpectrum {
    type Target = [C32];
    fn deref(&self) -> &[C32] {
        &self.data
    }
}

impl DerefMut for PooledSpectrum {
    fn deref_mut(&mut self) -> &mut [C32] {
        &mut self.data
    }
}

impl Drop for PooledSpectrum {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        let mut state = self.pool.lock();
        let recycled = data.len() * std::mem::size_of::<C32>() >= buf::MIN_BYTES;
        if data.len() == self.pool.buf_len && !recycled {
            state.free.push(data);
        } else {
            // Recycled, or detached via into_vec: the buffer leaves the
            // population so a bounded pool can take a replacement.
            state.population = state.population.saturating_sub(1);
            drop(state);
            buf::give(data);
        }
        self.pool.returned.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers in existence (free + leased).
    fn population(pool: &SpectrumPool) -> usize {
        pool.shared.lock().population
    }

    /// Buffers on the free list.
    fn idle(pool: &SpectrumPool) -> usize {
        pool.shared.lock().free.len()
    }

    #[test]
    fn drop_returns_storage_to_pool() {
        let pool = SpectrumPool::new(16);
        let ptr = {
            let mut b = pool.acquire();
            b[0] = C32 { re: 1.0, im: 0.0 };
            b.as_ptr() as usize
        };
        assert_eq!(idle(&pool), 1);
        let b2 = pool.acquire();
        assert_eq!(b2.as_ptr() as usize, ptr, "storage must be recycled");
        assert_eq!(population(&pool), 1);
    }

    #[test]
    fn large_buffers_go_back_to_the_recycler() {
        let len = buf::MIN_BYTES / std::mem::size_of::<C32>();
        let pool = SpectrumPool::bounded(len, 1);
        let held = pool.acquire();
        assert_eq!(held.len(), len);
        drop(held);
        assert_eq!(idle(&pool), 0, "a large buffer never waits idle here");
        assert_eq!(population(&pool), 0, "and leaves the population");
        assert!(buf::usage().peak >= buf::MIN_BYTES);
        drop(pool.acquire());
    }

    #[test]
    fn concurrent_acquires_get_distinct_buffers() {
        let pool = SpectrumPool::new(8);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(population(&pool), 2);
        assert_eq!(pool.leased(), 2);
        drop(a);
        drop(b);
        assert_eq!(idle(&pool), 2);
        assert_eq!(pool.leased(), 0);
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let pool = SpectrumPool::new(4);
        let v = pool.acquire().into_vec();
        assert_eq!(v.len(), 4);
        assert_eq!(idle(&pool), 0, "detached buffer must not return");
        assert_eq!(population(&pool), 0, "detached buffer leaves population");
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = SpectrumPool::new(4);
        let clone = pool.clone();
        drop(clone.acquire());
        assert_eq!(idle(&pool), 1);
    }

    #[test]
    fn bounded_pool_never_exceeds_cap() {
        let pool = SpectrumPool::bounded(8, 2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(population(&pool), 2);
        drop(a);
        let c = pool.acquire(); // the freed lease, not a third buffer
        assert_eq!(population(&pool), 2, "no allocation past the cap");
        drop(b);
        drop(c);
        assert_eq!(pool.leased(), 0);
    }

    #[test]
    fn bounded_acquire_blocks_until_return() {
        let pool = SpectrumPool::bounded(4, 1);
        let held = pool.acquire();
        let p2 = pool.clone();
        let waiter = std::thread::spawn(move || {
            let b = p2.acquire(); // blocks until `held` drops
            b.len()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "acquire must block at the cap");
        drop(held);
        assert_eq!(waiter.join().unwrap(), 4);
        assert_eq!(population(&pool), 1, "the blocked acquire reused storage");
    }

    #[test]
    fn bounded_into_vec_frees_a_cap_slot() {
        let pool = SpectrumPool::bounded(4, 1);
        let v = pool.acquire().into_vec();
        assert_eq!(v.len(), 4);
        // The cap slot came back even though the storage never will.
        assert_eq!(population(&pool), 0, "detached lease frees its slot");
        let _b = pool.acquire();
        assert_eq!(population(&pool), 1);
    }

    #[test]
    fn unbounded_burst_regression_elastic_vs_bounded() {
        // Regression for the scheduler quota fix: a burst of concurrent
        // acquisitions grows an elastic pool without limit, but a bounded
        // pool's population stays pinned at the cap.
        let burst = 16;
        let elastic = SpectrumPool::new(4);
        let held: Vec<_> = (0..burst).map(|_| elastic.acquire()).collect();
        assert_eq!(population(&elastic), burst);
        drop(held);

        // the same burst against a cap of 5: the first five get buffers,
        // the other eleven wait for a return instead of allocating
        let bounded = SpectrumPool::bounded(4, 5);
        let held: Vec<_> = (0..5).map(|_| bounded.acquire()).collect();
        std::thread::scope(|s| {
            for _ in 5..burst {
                s.spawn(|| drop(bounded.acquire()));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(population(&bounded), 5, "burst must not grow past cap");
            drop(held);
        });
        assert_eq!(population(&bounded), 5);
    }
}
