//! # stitch-gpu — simulated accelerator substrate
//!
//! A software model of the CUDA device + cuFFT stack the ICPP 2014
//! stitching paper runs on (NVIDIA Tesla C2070, CUDA/cuFFT v5.5). The
//! paper's contribution is a *pipeline architecture* that hides transfer
//! latency and respects device memory limits; this crate reproduces every
//! hazard that architecture exists to manage:
//!
//! * [`Device`] — finite device memory with allocation accounting,
//!   concurrent-kernel slots, per-direction copy engines, and the Fermi
//!   "one cuFFT kernel at a time" serialization (§IV-B);
//! * [`Stream`] — in-order asynchronous command queues with [`Event`]
//!   cross-stream dependencies and host [`Stream::synchronize`];
//! * [`DeviceBuffer`] / [`BufferPool`] — device-resident memory the host
//!   cannot touch (copies only), pre-allocated pools with blocking
//!   acquisition (§IV-B memory pool);
//! * [`kernels`] — the stitching kernels: real-input 2-D FFT and its
//!   inverse (device plan cache = "cuFFT"), normalized correlation, peak
//!   reduction returning only its scalars;
//! * [`Profiler`] — per-stream span timeline standing in for the NVIDIA
//!   visual profiler (Figs 7 and 9), with the kernel-density metric the
//!   paper reads off those screenshots.
//!
//! Kernels really compute (bit-identical to the CPU path), so
//! correctness tests and scheduling behaviour come from the same code.

#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod kernels;
pub mod lease;
pub mod memory;
pub mod profile;
pub mod semaphore;
pub mod stream;

pub use device::{Device, DeviceConfig};
pub use fault::{GpuFaultConfig, GpuFaultStats};
pub use kernels::MaxLoc;
pub use lease::StreamLease;
pub use memory::{BufferPool, DeviceBuffer, KernelToken, OutOfDeviceMemory, PooledBuffer};
pub use profile::{Profiler, Span, SpanKind};
pub use semaphore::Semaphore;
pub use stream::{Event, HostFuture, Stream};
