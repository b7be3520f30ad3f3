//! Shared-resource arbitration: the substrates PR 4 made poolable,
//! arbitrated across jobs instead of within one run.
//!
//! * **Host memory** — a byte budget with RAII [`MemReservation`]s.
//!   Admission control reserves a job's estimated footprint *before* it
//!   runs; the observed high-water mark can therefore never exceed the
//!   budget (asserted by the stress battery). Reservations release on
//!   drop — including a drop during panic unwinding, which is what keeps
//!   one crashing job from starving its siblings forever.
//! * **FFT plans** — one [`Planner`] per [`PlanMode`], shared by every
//!   job; the planner itself caches plans keyed by size, so concurrent
//!   jobs with equal tile dims pay plan construction once.
//! * **Spectrum pools** — bounded [`SpectrumPool`]s handed to jobs as
//!   lease quotas; the arbiter keeps a *non-owning* registry so tests
//!   can assert no job leaked a lease, while each pool's buffers die
//!   with the job that held it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stitch_core::{SpectrumPool, WeakSpectrumPool};
use stitch_fft::{PlanMode, Planner};

/// Why a reservation could not be granted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request alone exceeds the whole budget — it can *never* be
    /// admitted, so the caller should reject the job outright.
    TooLarge {
        /// Bytes requested.
        requested: usize,
        /// The arbiter's total budget.
        budget: usize,
    },
    /// The request fits the budget but not the currently free slice;
    /// admissible later, once running jobs release their reservations.
    WouldOvercommit {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently unreserved.
        free: usize,
    },
    /// The request fits the global budget but would push its scope
    /// (tenant) past that scope's configured cap; admissible later,
    /// once the scope's other reservations release.
    ScopeOvercommit {
        /// Bytes requested.
        requested: usize,
        /// The scope's cap.
        cap: usize,
        /// Bytes the scope currently has reserved.
        used: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TooLarge { requested, budget } => {
                write!(f, "job needs {requested} B, budget is {budget} B")
            }
            AdmissionError::WouldOvercommit { requested, free } => {
                write!(f, "job needs {requested} B, only {free} B free")
            }
            AdmissionError::ScopeOvercommit {
                requested,
                cap,
                used,
            } => {
                write!(
                    f,
                    "scope needs {requested} B more, cap is {cap} B ({used} B used)"
                )
            }
        }
    }
}

struct ArbiterState {
    reserved: usize,
    high_water: usize,
    /// Bytes reserved per scope (tenant). Entries are kept at zero
    /// rather than removed so `scoped_reserved` is cheap and stable.
    scoped: HashMap<String, usize>,
}

struct ArbiterInner {
    budget: usize,
    /// Per-scope byte caps (tenant quotas); scopes without an entry are
    /// bounded only by the global budget.
    caps: Mutex<HashMap<String, usize>>,
    state: Mutex<ArbiterState>,
    planners: Mutex<HashMap<u8, Arc<Planner>>>,
    pools: Mutex<Vec<WeakSpectrumPool>>,
    active_reservations: AtomicUsize,
}

/// Shared-resource arbiter; cheap to clone, all clones share state.
#[derive(Clone)]
pub struct ResourceArbiter {
    inner: Arc<ArbiterInner>,
}

impl ResourceArbiter {
    /// Creates an arbiter over a host-memory budget of `budget` bytes.
    pub fn new(budget: usize) -> ResourceArbiter {
        ResourceArbiter {
            inner: Arc::new(ArbiterInner {
                budget,
                caps: Mutex::new(HashMap::new()),
                state: Mutex::new(ArbiterState {
                    reserved: 0,
                    high_water: 0,
                    scoped: HashMap::new(),
                }),
                planners: Mutex::new(HashMap::new()),
                pools: Mutex::new(Vec::new()),
                active_reservations: AtomicUsize::new(0),
            }),
        }
    }

    /// The total byte budget.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// Bytes currently reserved.
    pub fn reserved(&self) -> usize {
        self.inner.state.lock().reserved
    }

    /// The maximum `reserved()` ever observed. Invariant:
    /// `high_water() <= budget()` — admission control refuses any
    /// reservation that would break it.
    pub fn high_water(&self) -> usize {
        self.inner.state.lock().high_water
    }

    /// Outstanding (undropped) reservations.
    pub fn active_reservations(&self) -> usize {
        self.inner.active_reservations.load(Ordering::Acquire)
    }

    /// Attempts to reserve `bytes` charged against `scope` (in addition
    /// to the global budget). A scope with a configured cap
    /// ([`ResourceArbiter::set_scope_cap`]) is refused with
    /// [`AdmissionError::ScopeOvercommit`] once the cap is reached; a
    /// scope without a cap behaves like an unscoped reservation but its
    /// usage is still accounted ([`ResourceArbiter::scoped_reserved`]).
    pub fn try_reserve_scoped(
        &self,
        scope: Option<&str>,
        bytes: usize,
    ) -> Result<MemReservation, AdmissionError> {
        if bytes > self.inner.budget {
            return Err(AdmissionError::TooLarge {
                requested: bytes,
                budget: self.inner.budget,
            });
        }
        let mut state = self.inner.state.lock();
        if state.reserved + bytes > self.inner.budget {
            return Err(AdmissionError::WouldOvercommit {
                requested: bytes,
                free: self.inner.budget - state.reserved,
            });
        }
        if let Some(scope) = scope {
            let used = state.scoped.get(scope).copied().unwrap_or(0);
            if let Some(cap) = self.inner.caps.lock().get(scope).copied() {
                if used + bytes > cap {
                    return Err(AdmissionError::ScopeOvercommit {
                        requested: bytes,
                        cap,
                        used,
                    });
                }
            }
            *state.scoped.entry(scope.to_string()).or_insert(0) = used + bytes;
        }
        state.reserved += bytes;
        state.high_water = state.high_water.max(state.reserved);
        drop(state);
        self.inner
            .active_reservations
            .fetch_add(1, Ordering::AcqRel);
        Ok(MemReservation {
            arbiter: Arc::clone(&self.inner),
            scope: scope.map(str::to_string),
            bytes,
        })
    }

    /// Caps `scope`'s concurrent reservations at `cap` bytes. Existing
    /// reservations are unaffected; new ones past the cap are refused.
    pub fn set_scope_cap(&self, scope: &str, cap: usize) {
        self.inner.caps.lock().insert(scope.to_string(), cap);
    }

    /// The configured cap for `scope`, if any.
    pub fn scope_cap(&self, scope: &str) -> Option<usize> {
        self.inner.caps.lock().get(scope).copied()
    }

    /// Bytes currently reserved under `scope`.
    pub fn scoped_reserved(&self, scope: &str) -> usize {
        self.inner
            .state
            .lock()
            .scoped
            .get(scope)
            .copied()
            .unwrap_or(0)
    }

    /// The shared FFT planner for `mode` (created on first use). Plans
    /// are cached inside the planner keyed by transform size.
    pub fn planner(&self, mode: PlanMode) -> Arc<Planner> {
        let key = match mode {
            PlanMode::Estimate => 0u8,
            PlanMode::Measure => 1,
            PlanMode::Patient => 2,
        };
        Arc::clone(
            self.inner
                .planners
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::new(Planner::new(mode))),
        )
    }

    /// A bounded spectrum pool of `cap` buffers of `buf_len` elements —
    /// a job's lease quota. The pool is registered with the arbiter so
    /// [`ResourceArbiter::leased_spectra`] can audit for leaks; the
    /// registry holds no buffers, and entries of pools that are gone are
    /// pruned here and by every audit.
    pub fn quota_pool(&self, buf_len: usize, cap: usize) -> SpectrumPool {
        let pool = SpectrumPool::bounded(buf_len, cap.max(1));
        let mut pools = self.inner.pools.lock();
        pools.retain(|p| p.upgrade().is_some());
        pools.push(pool.downgrade());
        pool
    }

    /// Spectrum buffers currently on loan across every pool this arbiter
    /// has handed out. Zero once all jobs have finished or been torn
    /// down — the cancellation and panic tests assert exactly that.
    pub fn leased_spectra(&self) -> usize {
        let mut leased = 0;
        self.inner
            .pools
            .lock()
            .retain(|p| p.upgrade().map(|pool| leased += pool.leased()).is_some());
        leased
    }
}

/// RAII byte reservation from a [`ResourceArbiter`]; releases on drop.
pub struct MemReservation {
    arbiter: Arc<ArbiterInner>,
    scope: Option<String>,
    bytes: usize,
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        let mut state = self.arbiter.state.lock();
        state.reserved = state.reserved.saturating_sub(self.bytes);
        if let Some(scope) = &self.scope {
            if let Some(used) = state.scoped.get_mut(scope) {
                *used = used.saturating_sub(self.bytes);
            }
        }
        drop(state);
        self.arbiter
            .active_reservations
            .fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_track_high_water() {
        let arb = ResourceArbiter::new(100);
        let a = arb.try_reserve_scoped(None, 60).unwrap();
        assert_eq!(arb.reserved(), 60);
        let b = arb.try_reserve_scoped(None, 40).unwrap();
        assert_eq!(arb.reserved(), 100);
        assert_eq!(arb.high_water(), 100);
        drop(a);
        assert_eq!(arb.reserved(), 40);
        drop(b);
        assert_eq!(arb.reserved(), 0);
        assert_eq!(arb.high_water(), 100, "high water is sticky");
        assert_eq!(arb.active_reservations(), 0);
    }

    #[test]
    fn overcommit_is_refused_not_granted() {
        let arb = ResourceArbiter::new(100);
        let _a = arb.try_reserve_scoped(None, 80).unwrap();
        match arb.try_reserve_scoped(None, 30) {
            Err(AdmissionError::WouldOvercommit { requested, free }) => {
                assert_eq!((requested, free), (30, 20));
            }
            Err(other) => panic!("expected WouldOvercommit, got {other:?}"),
            Ok(_) => panic!("expected WouldOvercommit, got a reservation"),
        }
        assert_eq!(arb.high_water(), 80);
    }

    #[test]
    fn too_large_is_permanent() {
        let arb = ResourceArbiter::new(100);
        assert!(matches!(
            arb.try_reserve_scoped(None, 101),
            Err(AdmissionError::TooLarge {
                requested: 101,
                budget: 100
            })
        ));
    }

    #[test]
    fn planners_are_shared_per_mode() {
        let arb = ResourceArbiter::new(0);
        let a = arb.planner(PlanMode::Estimate);
        let b = arb.planner(PlanMode::Estimate);
        assert!(Arc::ptr_eq(&a, &b));
        let c = arb.planner(PlanMode::Measure);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn quota_pools_are_audited() {
        let arb = ResourceArbiter::new(0);
        let pool = arb.quota_pool(8, 2);
        assert_eq!(arb.leased_spectra(), 0);
        let lease = pool.acquire();
        assert_eq!(arb.leased_spectra(), 1);
        drop(lease);
        assert_eq!(arb.leased_spectra(), 0);
    }

    #[test]
    fn registry_does_not_own_pools_but_still_sees_stray_leases() {
        let arb = ResourceArbiter::new(0);
        let pool = arb.quota_pool(8, 2);
        let stray = pool.acquire();
        drop(pool); // the job is gone; its leaked lease keeps the pool state
        assert_eq!(arb.leased_spectra(), 1, "a leak must stay visible");
        drop(stray);
        assert_eq!(arb.leased_spectra(), 0);
        assert!(arb.inner.pools.lock().is_empty(), "dead entry pruned");
        drop(arb.quota_pool(8, 2));
        drop(arb.quota_pool(8, 2));
        assert_eq!(arb.inner.pools.lock().len(), 1, "pruned on registration");
    }

    #[test]
    fn scope_caps_bound_tenants_without_touching_the_global_budget() {
        let arb = ResourceArbiter::new(100);
        arb.set_scope_cap("acme", 50);
        assert_eq!(arb.scope_cap("acme"), Some(50));

        let a = arb.try_reserve_scoped(Some("acme"), 40).unwrap();
        assert_eq!(arb.scoped_reserved("acme"), 40);
        match arb.try_reserve_scoped(Some("acme"), 20) {
            Err(AdmissionError::ScopeOvercommit {
                requested,
                cap,
                used,
            }) => assert_eq!((requested, cap, used), (20, 50, 40)),
            Err(other) => panic!("expected ScopeOvercommit, got {other:?}"),
            Ok(_) => panic!("expected ScopeOvercommit, got a reservation"),
        }
        // another scope (and the uncapped path) still has global room
        let b = arb.try_reserve_scoped(Some("beta"), 50).unwrap();
        assert_eq!(arb.scoped_reserved("beta"), 50);
        drop(a);
        assert_eq!(arb.scoped_reserved("acme"), 0);
        let _c = arb.try_reserve_scoped(Some("acme"), 50).unwrap();
        drop(b);
        assert_eq!(arb.scoped_reserved("beta"), 0);
    }

    #[test]
    fn reservation_released_on_panic_unwind() {
        let arb = ResourceArbiter::new(100);
        let arb2 = arb.clone();
        let _ = std::panic::catch_unwind(move || {
            let _r = arb2.try_reserve_scoped(None, 70).unwrap();
            panic!("job crashed while holding a reservation");
        });
        assert_eq!(arb.reserved(), 0, "unwind must release the bytes");
    }
}
