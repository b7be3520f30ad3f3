//! # stitch-image — image substrate for the stitching system
//!
//! Stands in for libTIFF and the microscope-acquired datasets in the
//! ICPP 2014 stitching paper's stack:
//!
//! * [`Image`] — row-major 2-D raster, 16-bit grayscale working type;
//! * [`buf`] — the one process-wide recycler for buffers of 1 MiB or more;
//! * [`tiff`] — minimal TIFF 6.0 baseline codec (uncompressed grayscale
//!   strips, both byte orders on read);
//! * [`pgm`] — binary PGM for quick visual output of composed plates;
//! * [`Fnv64`] — the workspace's one content digest (FNV-1a 64);
//! * [`par`] — the one order-preserving data-parallel map;
//! * [`opts`] — the one reader for option text (`--flag value`, `key=value`)
//!   and the one range check on plate geometry;
//! * [`synth`] — procedural cell-colony plate generator with ground-truth
//!   stage positions, substituting for the paper's A10 dataset.
//!
//! ```
//! use stitch_image::{Image, tiff};
//! let img = Image::from_fn(32, 16, |x, y| (x * y) as u16);
//! let mut bytes = Vec::new();
//! tiff::write_to(&mut bytes, &img).unwrap();
//! assert_eq!(tiff::decode_tiff(&bytes).unwrap(), img);
//! ```

#![warn(missing_docs)]

pub mod buf;
pub mod digest;
pub mod error;
pub mod flatfield;
pub mod image;
pub mod opts;
pub mod par;
pub mod pgm;
pub mod synth;
pub mod tiff;

pub use digest::Fnv64;
pub use error::{ImageError, Result};
pub use flatfield::{FlatField, FlatFieldEstimator};
pub use image::{round_to_u16, Image};
pub use synth::{
    ChannelConfig, GridManifest, MultiChannelPlate, MultiGridManifest, MultiScanConfig, ScanConfig,
    Scene, SceneParams, SyntheticPlate,
};
