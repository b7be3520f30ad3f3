//! Host-side spectrum buffer pool (paper §IV-A memory discipline).
//!
//! The GPU side already recycles device buffers through
//! `stitch_gpu::memory`'s pool; this module is the host mirror. Tile
//! spectra are the dominant host allocation of the CPU stitchers — one
//! `Vec<C32>` half spectrum per forward transform — and each is dropped as
//! soon as the pair refcount hits zero. [`SpectrumPool`] keeps those
//! buffers on a free list instead: a [`PooledSpectrum`] hands its storage
//! back to the pool on drop, so at steady state the hot path performs
//! **zero** heap allocations (asserted by the counting allocator in the
//! conformance suite).
//!
//! Pools come in two flavours:
//!
//! * **Elastic** ([`SpectrumPool::new`]): `acquire` never blocks, it
//!   allocates when the free list is empty. Backpressure is not this
//!   layer's job — the pipelined stitchers already bound in-flight tiles
//!   with a semaphore, so the pool's population converges to that bound
//!   after warmup.
//! * **Bounded** ([`SpectrumPool::bounded`]): the population (buffers on
//!   the free list plus buffers on loan) never exceeds a hard cap;
//!   `acquire` blocks until a lease is returned once the cap is reached.
//!   This is the enforcement point for the batch scheduler's per-job
//!   memory quotas — a job simply *cannot* allocate past its lease
//!   budget, no matter how its stages interleave.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

use stitch_fft::C32;

struct PoolState {
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
    created: AtomicU64,
    reused: AtomicU64,
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
                created: AtomicU64::new(0),
                reused: AtomicU64::new(0),
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

    /// Takes a buffer from the free list, or allocates one when the list
    /// is empty. An elastic pool never blocks; a bounded pool at its cap
    /// blocks until a lease is returned. The contents are **unspecified**
    /// — producers must overwrite every element, which every
    /// `forward_fft` path does.
    pub fn acquire(&self) -> PooledSpectrum {
        let mut state = self.shared.lock();
        loop {
            if let Some(buf) = state.free.pop() {
                debug_assert_eq!(buf.len(), self.shared.buf_len);
                self.shared.reused.fetch_add(1, Ordering::Relaxed);
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
                    self.shared.created.fetch_add(1, Ordering::Relaxed);
                    return self.wrap(C32::zeroed_vec(self.shared.buf_len));
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

    /// How many buffers the pool has allocated over its lifetime — the
    /// pool's high-water population, and the number the paper's
    /// allocate-once discipline says should stop growing after warmup.
    pub fn created(&self) -> u64 {
        self.shared.created.load(Ordering::Relaxed)
    }

    /// How many acquisitions were served from the free list.
    pub fn reused(&self) -> u64 {
        self.shared.reused.load(Ordering::Relaxed)
    }

    /// Buffers currently sitting on the free list.
    pub fn idle(&self) -> usize {
        self.shared.lock().free.len()
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
        if data.len() == self.pool.buf_len {
            state.free.push(data);
        } else {
            // Detached via into_vec — the buffer leaves the population
            // so a bounded pool can allocate a replacement.
            state.population = state.population.saturating_sub(1);
        }
        drop(state);
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

    #[test]
    fn drop_returns_storage_to_pool() {
        let pool = SpectrumPool::new(16);
        let ptr = {
            let mut b = pool.acquire();
            b[0] = C32 { re: 1.0, im: 0.0 };
            b.as_ptr() as usize
        };
        assert_eq!(pool.idle(), 1);
        let b2 = pool.acquire();
        assert_eq!(b2.as_ptr() as usize, ptr, "storage must be recycled");
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn concurrent_acquires_get_distinct_buffers() {
        let pool = SpectrumPool::new(8);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(pool.created(), 2);
        assert_eq!(pool.leased(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.leased(), 0);
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let pool = SpectrumPool::new(4);
        let v = pool.acquire().into_vec();
        assert_eq!(v.len(), 4);
        assert_eq!(pool.idle(), 0, "detached buffer must not return");
        assert_eq!(population(&pool), 0, "detached buffer leaves population");
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = SpectrumPool::new(4);
        let clone = pool.clone();
        drop(clone.acquire());
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn bounded_pool_never_exceeds_cap() {
        let pool = SpectrumPool::bounded(8, 2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(population(&pool), 2);
        drop(a);
        let c = pool.acquire(); // the freed lease, not a third buffer
        assert_eq!(population(&pool), 2);
        assert_eq!(pool.created(), 2, "no allocation past the cap");
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
        assert_eq!(pool.created(), 1, "the blocked acquire reused storage");
    }

    #[test]
    fn bounded_into_vec_frees_a_cap_slot() {
        let pool = SpectrumPool::bounded(4, 1);
        let v = pool.acquire().into_vec();
        assert_eq!(v.len(), 4);
        // The cap slot came back even though the storage never will.
        assert_eq!(population(&pool), 0, "detached lease frees its slot");
        let _b = pool.acquire();
        assert_eq!(pool.created(), 2);
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
        assert_eq!(bounded.created(), 5);
    }
}
