//! A functional simulator of a CUDA-capable GPU for accelerator emulation.
//!
//! The TFApprox paper runs its approximate-convolution kernels on an NVIDIA
//! GTX 1080, storing the multiplier truth table in **texture memory**
//! ("optimized for irregular read-only access and in some GPU architectures
//! even implemented as a dedicated cache"). No GPU is available to this
//! reproduction, so this crate substitutes a simulated device that:
//!
//! 1. **executes the paper's kernels functionally** — the quantizing
//!    image-to-columns kernel (with its prefix-scan patch sums and
//!    `atomicAdd` combination), the tiled LUT-based `ApproxGEMM`, and the
//!    min/max reduction — producing bit-identical results to a real
//!    implementation of the same algorithms, and
//! 2. **accounts costs analytically** — every kernel reports
//!    [`cost::EventCounts`] (FMA ops, texture hits/misses, shared-memory
//!    traffic, atomics, DRAM bytes) which a calibrated [`DeviceConfig`]
//!    converts to seconds, attributed to the paper's Fig. 2 phases via
//!    [`profile::PhaseProfile`].
//!
//! The texture cache is modeled as a 4-way set-associative LRU
//! ([`TextureCache`]: fixed-width sets kept most-recently-used last) so
//! LUT locality — the mechanism the paper's speedup rests on — is
//! actually measured rather than assumed.
//!
//! # Example
//!
//! ```
//! use gpusim::{DeviceConfig, TextureCache};
//!
//! let dev = DeviceConfig::gtx1080();
//! let mut cache = TextureCache::new(dev.tex_cache_bytes, dev.tex_cache_line).unwrap();
//! // A warm LUT access pattern hits almost always:
//! let pattern: Vec<u16> = (0..4096u16).step_by(2).collect();
//! let hits: u64 = (0..4).map(|_| cache.access(&pattern)).sum();
//! assert!(hits as f64 / (4 * pattern.len()) as f64 > 0.9);
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod device;
pub mod kernels;
pub mod profile;
pub mod texture;

pub use cost::EventCounts;
pub use device::DeviceConfig;
pub use kernels::gemm::approx_gemm;
pub use kernels::im2col::{im2col_quant, im2col_quant_on, PatchSumStrategy};
pub use profile::{Phase, PhaseProfile};
pub use texture::TextureCache;
