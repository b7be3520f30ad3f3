//! # stitch-pipeline — general-purpose producer-consumer pipeline framework
//!
//! The coarse-grain execution substrate of the ICPP 2014 stitching system:
//! bounded monitor [`Queue`]s connecting [`Pipeline`] stages, each stage a
//! named group of ≥ 1 worker threads (paper Fig 8). Back-pressure from the
//! queue capacities is what keeps the computation inside its memory budget
//! while still overlapping disk reads, host↔device copies, and compute.
//!
//! The paper's §VI-A names extracting exactly this API as future work
//! ("provide developers with a method to overlap disk and PCI express I/O
//! with computation while staying within strict memory constraints");
//! `stitch-core`'s CPU and GPU pipelines are both built on it.
//!
//! ```
//! use stitch_pipeline::{Pipeline, Queue};
//! use std::sync::{Arc, atomic::{AtomicU32, Ordering}};
//!
//! let q: Queue<u32> = Queue::new(4);
//! let total = Arc::new(AtomicU32::new(0));
//! let mut pl = Pipeline::new();
//! let w = q.writer();
//! pl.add_source("numbers", move || { for i in 1..=10 { w.push(i); } });
//! let t = Arc::clone(&total);
//! pl.add_stage("sum", 2, q.clone(), move |v| { t.fetch_add(v, Ordering::Relaxed); });
//! pl.join().unwrap();
//! assert_eq!(total.load(Ordering::Relaxed), 55);
//! ```

#![warn(missing_docs)]

pub mod queue;
pub mod stage;

pub use queue::{Queue, QueueMetrics, QueueWriter};
pub use stage::{Pipeline, PipelineError, StageReport};
