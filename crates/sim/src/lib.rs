//! # stitch-sim — virtual-time scaling simulator
//!
//! The paper's scaling results (Table II, Figs 5, 10, 11, 12) were
//! measured on 2× quad-core hyper-threaded Xeons with two Tesla C2070s.
//! This reproduction's evaluation machine has a *single* CPU core, so no
//! wall-clock experiment can show thread or GPU scaling. This crate
//! substitutes a discrete-event simulator: it walks the same task graphs
//! the real implementations in `stitch-core` execute (traversal order,
//! dependency-gated pairs, bounded buffer pools, per-stage FIFO servers,
//! Fermi FFT serialization) and books the work onto a configurable virtual
//! machine ([`MachineSpec`]) using per-operation costs ([`CostModel`])
//! that are either measured on this host's real kernels or back-derived
//! from the paper's own numbers.
//!
//! See `DESIGN.md` ("virtual-time scaling engine") for the full
//! justification of the substitution.

#![warn(missing_docs)]

pub mod cost;
pub mod des;
pub mod scenarios;

pub use cost::{CostModel, MachineSpec};
pub use des::{Server, TokenPool};
pub use scenarios::{
    fig5_compute_fft_ns, fiji_ns, mt_cpu_ns, pipelined_cpu_ns, pipelined_gpu_lanes_ns,
    pipelined_gpu_ns, secs, simple_cpu_ns, simple_gpu_ns, table2_rows, Table2Row,
    FIJI_OVERHEAD_FACTOR,
};
