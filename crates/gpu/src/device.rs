//! The simulated accelerator device.
//!
//! Substitutes for the paper's NVIDIA Tesla C2070 cards. What matters to
//! the stitching pipeline is not CUDA itself but the device's *contract*:
//!
//! * device-resident memory with a hard capacity (6 GB on the C2070) that
//!   must be pooled and recycled;
//! * in-order streams whose commands can overlap across streams;
//! * a bounded number of concurrent kernels — and, on Fermi with cuFFT
//!   v5.5, effectively *one* concurrent FFT kernel ("cuFFT allocates a
//!   large number of registers ... prevents the GPU from executing cuFFT
//!   kernels concurrently", §IV-B);
//! * copy engines that run H2D/D2H transfers asynchronously with compute;
//! * transfers that cost real time proportional to bytes moved.
//!
//! All five are modeled here; kernels really execute (on worker threads
//! owned by the device's streams), so results are bit-identical to the CPU
//! path while the scheduling behaves like hardware.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use stitch_fft::Planner;

use crate::fault::{GpuFaultConfig, GpuFaultState, GpuFaultStats};
use crate::memory::{BufferPool, DeviceBuffer, MemoryLedger, OutOfDeviceMemory};
use crate::profile::Profiler;
use crate::semaphore::Semaphore;
use crate::stream::Stream;

/// Simulated device characteristics.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Device memory capacity in bytes (C2070: 6 GB GDDR5).
    pub memory_bytes: usize,
    /// Simulated host→device bandwidth in bytes/s; `None` disables the
    /// transfer-time model (copies still cost the memcpy itself).
    pub h2d_bytes_per_sec: Option<f64>,
    /// Simulated device→host bandwidth in bytes/s.
    pub d2h_bytes_per_sec: Option<f64>,
    /// Fixed kernel launch overhead (the per-launch gap visible in Fig 7).
    pub launch_overhead: Duration,
    /// Deterministic fault injection; `None` (the default) injects
    /// nothing and costs nothing on the command path.
    pub fault: Option<GpuFaultConfig>,
    /// Maximum concurrently *leased* streams ([`Device::lease_stream`]);
    /// `None` (the default) leaves leasing unbounded. Plain
    /// [`Device::create_stream`] is never gated — this only arbitrates
    /// callers that opt into leasing (the batch scheduler).
    pub stream_slots: Option<usize>,
}

/// Maximum concurrently executing kernels (Fermi: 16).
const KERNEL_SLOTS: usize = 16;

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            memory_bytes: 6 * 1024 * 1024 * 1024, // Tesla C2070
            h2d_bytes_per_sec: None,
            d2h_bytes_per_sec: None,
            launch_overhead: Duration::ZERO,
            fault: None,
            stream_slots: None,
        }
    }
}

impl DeviceConfig {
    /// A configuration with PCIe-like transfer costs enabled
    /// (~6 GB/s H2D, ~5 GB/s D2H — PCIe 2.0 x16 era) and a 10 µs launch
    /// overhead, for benchmarks that study copy/compute overlap.
    pub fn with_transfer_model() -> DeviceConfig {
        DeviceConfig {
            h2d_bytes_per_sec: Some(6.0e9),
            d2h_bytes_per_sec: Some(5.0e9),
            launch_overhead: Duration::from_micros(10),
            ..DeviceConfig::default()
        }
    }

    /// A small-memory configuration for tests that exercise pool
    /// exhaustion and recycling.
    pub fn small(memory_bytes: usize) -> DeviceConfig {
        DeviceConfig {
            memory_bytes,
            ..DeviceConfig::default()
        }
    }
}

pub(crate) struct DeviceInner {
    pub(crate) id: usize,
    pub(crate) config: DeviceConfig,
    pub(crate) ledger: Arc<MemoryLedger>,
    pub(crate) kernel_slots: Semaphore,
    pub(crate) h2d_engine: Semaphore,
    pub(crate) d2h_engine: Semaphore,
    pub(crate) fft_lock: Mutex<()>,
    pub(crate) profiler: Profiler,
    pub(crate) planner: Planner,
    pub(crate) fault: Option<GpuFaultState>,
    pub(crate) stream_slots: Option<Arc<Semaphore>>,
    pub(crate) active_stream_leases: AtomicU64,
    pub(crate) total_stream_leases: AtomicU64,
}

/// Handle to one simulated accelerator. Cheap to clone; all clones refer
/// to the same device.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// Creates device `id` with the given configuration.
    pub fn new(id: usize, config: DeviceConfig) -> Device {
        Device {
            inner: Arc::new(DeviceInner {
                id,
                ledger: Arc::new(MemoryLedger::new(config.memory_bytes)),
                kernel_slots: Semaphore::new(KERNEL_SLOTS),
                h2d_engine: Semaphore::new(1),
                d2h_engine: Semaphore::new(1),
                fft_lock: Mutex::new(()),
                profiler: Profiler::new(),
                planner: Planner::default(),
                fault: config.fault.map(GpuFaultState::new),
                stream_slots: config
                    .stream_slots
                    .map(|n| Arc::new(Semaphore::new(n.max(1)))),
                active_stream_leases: AtomicU64::new(0),
                total_stream_leases: AtomicU64::new(0),
                config,
            }),
        }
    }

    /// Device id.
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// The device's timeline profiler (Fig 7/9 recorder).
    pub fn profiler(&self) -> &Profiler {
        &self.inner.profiler
    }

    /// The device-side FFT plan cache (the "cuFFT" of the simulation).
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }

    /// Allocates a zeroed device buffer of `len` elements. Injected OOM
    /// spikes are retried inside this call (modeling a driver retry loop)
    /// and only surface as an error once the retry budget is spent.
    pub fn alloc<T: Default + Clone>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        if let Some(fault) = &self.inner.fault {
            let mut attempt: u32 = 0;
            while fault.oom_spike(attempt) {
                attempt += 1;
                if attempt > fault.max_retries() {
                    let bytes = len * std::mem::size_of::<T>();
                    return Err(OutOfDeviceMemory {
                        requested: bytes,
                        available: self.memory_capacity() - self.memory_used(),
                    });
                }
            }
        }
        DeviceBuffer::alloc(&self.inner.ledger, len)
    }

    /// Pre-allocates a pool of `count` buffers of `buf_len` elements each
    /// (§IV-B memory pool; done once at pipeline start-up).
    pub fn buffer_pool<T: Default + Clone>(
        &self,
        buf_len: usize,
        count: usize,
    ) -> Result<BufferPool<T>, OutOfDeviceMemory> {
        BufferPool::create(&self.inner.ledger, buf_len, count)
    }

    /// Bytes currently allocated on the device.
    pub fn memory_used(&self) -> usize {
        self.inner
            .ledger
            .used
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Device memory capacity in bytes.
    fn memory_capacity(&self) -> usize {
        self.inner.ledger.capacity
    }

    /// Creates a named in-order command stream.
    pub fn create_stream(&self, name: &str) -> Stream {
        Stream::spawn(Arc::clone(&self.inner), name)
    }

    /// Leases a named stream, blocking while all
    /// [`DeviceConfig::stream_slots`] are taken (unbounded when `None`).
    /// The returned [`StreamLease`](crate::StreamLease) dereferences to
    /// the [`Stream`] and releases its slot — and decrements
    /// [`Device::active_stream_leases`] — on drop, including a drop
    /// during panic unwinding.
    pub fn lease_stream(&self, name: &str) -> crate::lease::StreamLease {
        let permit = self.inner.stream_slots.as_ref().map(|s| s.acquire_owned());
        crate::lease::StreamLease::grant(self, name, permit)
    }

    /// Streams currently on lease (created through
    /// [`Device::lease_stream`] and not yet dropped). The scheduler's
    /// cancellation tests assert this drains to zero.
    pub fn active_stream_leases(&self) -> u64 {
        self.inner
            .active_stream_leases
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Total leases granted over the device's lifetime.
    pub fn total_stream_leases(&self) -> u64 {
        self.inner
            .total_stream_leases
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Counters of injected device faults (all zero when fault injection
    /// is disabled).
    pub fn fault_stats(&self) -> GpuFaultStats {
        self.inner
            .fault
            .as_ref()
            .map(|f| f.stats())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_c2070() {
        let d = Device::new(0, DeviceConfig::default());
        assert_eq!(d.memory_capacity(), 6 * 1024 * 1024 * 1024);
        assert_eq!(d.memory_used(), 0);
    }

    #[test]
    fn alloc_accounts_and_frees() {
        let d = Device::new(0, DeviceConfig::small(1024));
        let buf = d.alloc::<u64>(64).unwrap();
        assert_eq!(d.memory_used(), 512);
        assert!(d.alloc::<u64>(128).is_err());
        drop(buf);
        assert_eq!(d.memory_used(), 0);
    }

    #[test]
    fn faulty_copies_still_deliver_correct_data() {
        use crate::fault::GpuFaultConfig;
        let cfg = DeviceConfig {
            fault: Some(GpuFaultConfig {
                seed: 3,
                h2d_fail_rate: 0.3,
                d2h_fail_rate: 0.3,
                kernel_fail_rate: 0.3,
                ..GpuFaultConfig::default()
            }),
            ..DeviceConfig::small(1 << 20)
        };
        let d = Device::new(0, cfg);
        let s = d.create_stream("s0");
        let buf = d.alloc::<u16>(256).unwrap();
        let host: Arc<Vec<u16>> = Arc::new((0..256).collect());
        for _ in 0..20 {
            s.h2d(Arc::clone(&host), &buf);
            let back = s.d2h(&buf).wait();
            assert_eq!(&back, &*host, "faults must be retried, not corrupt data");
        }
        let stats = d.fault_stats();
        assert!(
            stats.h2d_faults + stats.d2h_faults > 0,
            "a 30% rate over 40 copies should have injected something: {stats:?}"
        );
    }

    #[test]
    fn oom_spikes_are_retried_transparently() {
        use crate::fault::GpuFaultConfig;
        let cfg = DeviceConfig {
            fault: Some(GpuFaultConfig {
                seed: 17,
                oom_spike_rate: 0.4,
                ..GpuFaultConfig::default()
            }),
            ..DeviceConfig::small(1 << 20)
        };
        let d = Device::new(0, cfg);
        for _ in 0..50 {
            let buf = d.alloc::<u8>(64).expect("spikes retried inside alloc");
            drop(buf);
        }
        assert!(d.fault_stats().oom_spikes > 0);
    }

    #[test]
    fn pool_charges_device_memory() {
        let d = Device::new(0, DeviceConfig::small(4096));
        let pool = d.buffer_pool::<u8>(1024, 3).unwrap();
        assert_eq!(d.memory_used(), 3072);
        assert_eq!(pool.total(), 3);
        drop(pool);
        assert_eq!(d.memory_used(), 0);
    }
}
