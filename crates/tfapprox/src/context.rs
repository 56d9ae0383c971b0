//! Shared emulation state: backend selection, profiling, the texture
//! cache, and the persistent worker pool.

use crate::kernel::{auto_kernel, KernelKind, TileConfig};
use crate::Error;
use axtensor::WorkerPool;
use gpusim::{DeviceConfig, EventCounts, PhaseProfile, TextureCache};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Where the approximate convolution is emulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Backend {
    /// Nested loops over the convolution definition with per-tap LUT
    /// lookups — the CPU approach of ALWANN \[12\] that the paper uses as
    /// its approximate-CPU baseline ("difficult to efficiently
    /// parallelize").
    CpuDirect,
    /// Chunked im2col + tiled LUT GEMM on host threads — an optimized CPU
    /// realization of Algorithm 1 (our addition; shows the GEMM
    /// formulation helps even without a GPU).
    CpuGemm,
    /// Algorithm 1 on the simulated CUDA-capable device: quantizing
    /// im2col kernel, tiled `ApproxGEMM` with texture-cache LUT fetches,
    /// analytic cycle accounting (the paper's proposal).
    #[default]
    GpuSim,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Backend::CpuDirect => "cpu-direct",
            Backend::CpuGemm => "cpu-gemm",
            Backend::GpuSim => "gpu-sim",
        };
        f.write_str(s)
    }
}

/// Shared state of one emulation session.
///
/// All `AxConv2D` layers of a transformed graph share one context: the
/// phase profile accumulates across layers and batches, and the simulated
/// texture cache stays warm across kernel launches exactly as the real
/// LUT stays resident on the device.
#[derive(Debug)]
pub struct EmuContext {
    backend: Backend,
    device: DeviceConfig,
    chunk_size: usize,
    threads: usize,
    tiles: TileConfig,
    kernel: KernelKind,
    profile: Mutex<PhaseProfile>,
    events: Mutex<EventCounts>,
    cache: Mutex<TextureCache>,
    /// Spawned on first use and reused for the context's whole lifetime —
    /// the host GEMM backend no longer opens a thread scope per chunk.
    pool: OnceLock<WorkerPool>,
}

impl EmuContext {
    /// A context with the default (GTX-1080-class) device and chunk size.
    #[must_use]
    pub fn new(backend: Backend) -> Self {
        Self::with_device(backend, DeviceConfig::gtx1080())
            .expect("the GTX-1080 texture-cache geometry is valid")
    }

    /// A context with an explicit device configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the device's texture-cache geometry
    /// is invalid (see [`TextureCache::new`]).
    pub fn with_device(backend: Backend, device: DeviceConfig) -> Result<Self, Error> {
        let cache = TextureCache::new(device.tex_cache_bytes, device.tex_cache_line)
            .map_err(|err| Error::Config(format!("device '{}': {err}", device.name)))?;
        Ok(EmuContext {
            backend,
            device,
            // Algorithm 1 splits the batch "into chunks of a constant size
            // to decouple memory usage from convolution parameters".
            chunk_size: 125,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            tiles: TileConfig::default(),
            kernel: auto_kernel(),
            profile: Mutex::new(PhaseProfile::new()),
            events: Mutex::new(EventCounts::new()),
            cache: Mutex::new(cache),
            pool: OnceLock::new(),
        })
    }

    /// Override the Algorithm-1 chunk size (images per chunk).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `chunk_size` is 0 — a zero chunk
    /// would make the chunked GEMM loop silently process nothing.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Result<Self, Error> {
        if chunk_size == 0 {
            return Err(Error::Config(
                "chunk size must be positive (got 0)".to_owned(),
            ));
        }
        self.chunk_size = chunk_size;
        Ok(self)
    }

    /// The selected backend.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The simulated device.
    #[must_use]
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Images per Algorithm-1 chunk.
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Override the host worker-thread count (default: available
    /// parallelism). Takes effect only if set before the pool's first use.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `threads` is 0 — a zero-worker
    /// pool would deadlock the GEMM backend on its first chunk.
    pub fn with_threads(mut self, threads: usize) -> Result<Self, Error> {
        if threads == 0 {
            return Err(Error::Config(
                "thread count must be positive (got 0)".to_owned(),
            ));
        }
        self.threads = threads;
        Ok(self)
    }

    /// Override the cache-blocking panel sizes of the tiled host LUT-GEMM
    /// (already validated non-zero by [`TileConfig::new`]).
    #[must_use]
    pub fn with_tile_config(mut self, tiles: TileConfig) -> Self {
        self.tiles = tiles;
        self
    }

    /// The cache-blocking panel sizes of the tiled host LUT-GEMM.
    #[must_use]
    pub fn tile_config(&self) -> TileConfig {
        self.tiles
    }

    /// Force a specific LUT-GEMM kernel arm instead of the CPU's
    /// automatic choice ([`auto_kernel`]). `KernelKind::ScalarTiled` is
    /// the always-available escape hatch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if this process cannot execute
    /// `kernel` (wrong architecture or missing CPU features) — an
    /// explicit override must never silently downgrade.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Result<Self, Error> {
        if !kernel.is_supported() {
            return Err(Error::Config(format!(
                "kernel '{kernel}' is not supported on this host"
            )));
        }
        self.kernel = kernel;
        Ok(self)
    }

    /// The LUT-GEMM kernel arm this context dispatches to.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The persistent host worker pool, spawned on first use.
    pub fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.threads))
    }

    /// Add phase times (thread-safe).
    pub fn record(&self, profile: &PhaseProfile) {
        self.profile.lock().merge(profile);
    }

    /// Snapshot the accumulated profile.
    #[must_use]
    pub fn profile(&self) -> PhaseProfile {
        *self.profile.lock()
    }

    /// Add raw kernel event counts (GPU backend only).
    pub fn record_events(&self, ev: &EventCounts) {
        *self.events.lock() += *ev;
    }

    /// Snapshot the accumulated raw events (texture hit rates, fetch
    /// counts, DRAM traffic) of the GPU backend.
    #[must_use]
    pub fn events(&self) -> EventCounts {
        *self.events.lock()
    }

    /// Reset the accumulated profile and events (e.g. between
    /// experiments).
    pub fn reset_profile(&self) {
        *self.profile.lock() = PhaseProfile::new();
        *self.events.lock() = EventCounts::new();
    }

    /// Run `f` with exclusive access to the simulated texture cache.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut TextureCache) -> R) -> R {
        f(&mut self.cache.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::Phase;

    #[test]
    fn profile_accumulates_across_records() {
        let ctx = EmuContext::new(Backend::GpuSim);
        let mut p = PhaseProfile::new();
        p.add(Phase::LutLookup, 1.5);
        ctx.record(&p);
        ctx.record(&p);
        assert_eq!(ctx.profile().seconds(Phase::LutLookup), 3.0);
        ctx.reset_profile();
        assert_eq!(ctx.profile().total(), 0.0);
    }

    #[test]
    fn cache_state_persists() {
        let ctx = EmuContext::new(Backend::GpuSim);
        assert_eq!(ctx.with_cache(|c| c.access(&[0])), 0);
        assert_eq!(ctx.with_cache(|c| c.access(&[0])), 1);
    }

    #[test]
    fn zero_chunk_size_rejected_as_error() {
        let err = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(0)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert!(err.to_string().contains("chunk size"), "{err}");
    }

    #[test]
    fn zero_threads_rejected_as_error() {
        let err = EmuContext::new(Backend::CpuGemm)
            .with_threads(0)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert!(err.to_string().contains("thread count"), "{err}");
    }

    #[test]
    fn positive_overrides_accepted() {
        let ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(3)
            .unwrap()
            .with_threads(2)
            .unwrap();
        assert_eq!(ctx.chunk_size(), 3);
    }

    #[test]
    fn kernel_defaults_to_auto_and_accepts_scalar_override() {
        let ctx = EmuContext::new(Backend::CpuGemm);
        assert_eq!(ctx.kernel(), auto_kernel());
        let ctx = ctx.with_kernel(KernelKind::ScalarTiled).unwrap();
        assert_eq!(ctx.kernel(), KernelKind::ScalarTiled);
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn unsupported_kernel_override_rejected() {
        let err = EmuContext::new(Backend::CpuGemm)
            .with_kernel(KernelKind::Avx2Gather)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn backend_display() {
        assert_eq!(Backend::CpuDirect.to_string(), "cpu-direct");
        assert_eq!(Backend::GpuSim.to_string(), "gpu-sim");
    }
}
