//! Deterministic device-fault injection.
//!
//! Real accelerators fail in ways the host can observe: transfers abort
//! (ECC errors, PCIe hiccups), kernels return launch errors, allocations
//! spike into out-of-memory when another process claims the card. The
//! stitching system's robustness work needs those failures on demand, so
//! the simulated device can be configured to inject them — seeded and
//! per-operation deterministic, like the tile-level injection in
//! `stitch-core`, so a failing run replays exactly.
//!
//! Faults are *decided before the operation executes* and the stream
//! worker retries the decision up to `max_retries` times, modeling a
//! driver-level retry loop: the operation itself runs exactly once, after
//! a clean decision. A fault that survives every retry is a dead device,
//! reported by panicking the stream worker with a clear message.
//!
//! The `gpu-` keys of a `--fault-spec` string fill a [`GpuFaultConfig`];
//! `stitch_core::FaultSpec::parse` reads them in the same pass as the
//! tile-level keys.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::profile::SpanKind;

/// Configuration for device-level fault injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuFaultConfig {
    /// Seed for the per-operation fault decisions.
    pub seed: u64,
    /// Probability a host→device copy fails on a given attempt.
    pub h2d_fail_rate: f64,
    /// Probability a device→host copy fails on a given attempt.
    pub d2h_fail_rate: f64,
    /// Probability a kernel launch fails on a given attempt.
    pub kernel_fail_rate: f64,
    /// Probability an allocation transiently reports out-of-memory.
    pub oom_spike_rate: f64,
    /// Retry budget per operation before the fault is terminal.
    pub max_retries: u32,
}

impl Default for GpuFaultConfig {
    fn default() -> Self {
        GpuFaultConfig {
            seed: 1,
            h2d_fail_rate: 0.0,
            d2h_fail_rate: 0.0,
            kernel_fail_rate: 0.0,
            oom_spike_rate: 0.0,
            max_retries: 8,
        }
    }
}

/// Counters for injected faults, readable via `Device::fault_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GpuFaultStats {
    /// Host→device copy attempts that faulted (each was retried).
    pub h2d_faults: u64,
    /// Device→host copy attempts that faulted.
    pub d2h_faults: u64,
    /// Kernel launches that faulted.
    pub kernel_faults: u64,
    /// Allocations that transiently reported out-of-memory.
    pub oom_spikes: u64,
}

/// Shared per-device injection state: the config plus the operation
/// counter the seeded decisions key off.
pub(crate) struct GpuFaultState {
    config: GpuFaultConfig,
    ops: AtomicU64,
    h2d_faults: AtomicU64,
    d2h_faults: AtomicU64,
    kernel_faults: AtomicU64,
    oom_spikes: AtomicU64,
}

impl GpuFaultState {
    pub(crate) fn new(config: GpuFaultConfig) -> GpuFaultState {
        GpuFaultState {
            config,
            ops: AtomicU64::new(0),
            h2d_faults: AtomicU64::new(0),
            d2h_faults: AtomicU64::new(0),
            kernel_faults: AtomicU64::new(0),
            oom_spikes: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> GpuFaultStats {
        GpuFaultStats {
            h2d_faults: self.h2d_faults.load(Ordering::Relaxed),
            d2h_faults: self.d2h_faults.load(Ordering::Relaxed),
            kernel_faults: self.kernel_faults.load(Ordering::Relaxed),
            oom_spikes: self.oom_spikes.load(Ordering::Relaxed),
        }
    }

    /// Runs the retry loop for one stream operation of `kind`. Returns
    /// once an attempt comes up clean; panics (dead device) if the fault
    /// outlives the retry budget.
    ///
    /// # Panics
    /// When `max_retries` consecutive decisions for the same operation
    /// all fault.
    pub(crate) fn gate(&self, kind: SpanKind, name: &str) {
        let (rate, counter) = match kind {
            SpanKind::H2D => (self.config.h2d_fail_rate, &self.h2d_faults),
            SpanKind::D2H => (self.config.d2h_fail_rate, &self.d2h_faults),
            SpanKind::Kernel => (self.config.kernel_fail_rate, &self.kernel_faults),
            _ => return,
        };
        if rate <= 0.0 {
            return;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut attempt: u32 = 0;
        while unit(mix(self.config.seed, op, attempt as u64)) < rate {
            counter.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
            assert!(
                attempt <= self.config.max_retries,
                "device fault injection: {kind:?} '{name}' still failing \
                 after {} retries (op {op}, seed {})",
                self.config.max_retries,
                self.config.seed,
            );
        }
    }

    /// Decides whether one allocation attempt spikes into OOM.
    pub(crate) fn oom_spike(&self, attempt: u32) -> bool {
        if self.config.oom_spike_rate <= 0.0 {
            return false;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let spike = unit(mix(self.config.seed, op, attempt as u64)) < self.config.oom_spike_rate;
        if spike {
            self.oom_spikes.fetch_add(1, Ordering::Relaxed);
        }
        spike
    }

    pub(crate) fn max_retries(&self) -> u32 {
        self.config.max_retries
    }
}

/// splitmix64 over (seed, op, attempt) — one independent coin per attempt.
fn mix(seed: u64, op: u64, attempt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(op.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d049bb133111eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Maps a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_is_deterministic_per_seed() {
        let run = |seed| {
            let st = GpuFaultState::new(GpuFaultConfig {
                seed,
                kernel_fail_rate: 0.3,
                ..GpuFaultConfig::default()
            });
            for _ in 0..200 {
                st.gate(SpanKind::Kernel, "k");
            }
            st.stats().kernel_faults
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ");
    }

    #[test]
    fn gate_injects_at_roughly_the_configured_rate() {
        let st = GpuFaultState::new(GpuFaultConfig {
            seed: 11,
            h2d_fail_rate: 0.25,
            ..GpuFaultConfig::default()
        });
        for _ in 0..2000 {
            st.gate(SpanKind::H2D, "h2d");
        }
        let faults = st.stats().h2d_faults;
        // ~0.25/(1-0.25) faults per delivered op ≈ 667; allow wide slack
        assert!(faults > 400 && faults < 1000, "got {faults}");
    }

    #[test]
    fn sync_spans_never_fault() {
        let st = GpuFaultState::new(GpuFaultConfig {
            kernel_fail_rate: 1.0,
            ..GpuFaultConfig::default()
        });
        st.gate(SpanKind::Sync, "event"); // must not panic
        assert_eq!(st.stats(), GpuFaultStats::default());
    }

    #[test]
    #[should_panic(expected = "still failing")]
    fn certain_fault_exhausts_retries() {
        let st = GpuFaultState::new(GpuFaultConfig {
            kernel_fail_rate: 1.0,
            max_retries: 3,
            ..GpuFaultConfig::default()
        });
        st.gate(SpanKind::Kernel, "doomed");
    }
}
