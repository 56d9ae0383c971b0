//! Kernel-family selection: one [`KernelKind`] chosen at compile time of
//! a session (or forced explicitly), then threaded through every GEMM
//! call site.
//!
//! The choice is one rule:
//!
//! 1. An explicit override ([`crate::SessionBuilder::kernel`] /
//!    [`crate::EmuContext::with_kernel`]) — always wins, rejected up
//!    front if the CPU cannot run it.
//! 2. Otherwise the hardware, as a plain feature test
//!    ([`auto_kernel`]): `avx512-vbmi` on an x86-64 host with AVX-512
//!    F, BW and VBMI, else `avx2-gather` with AVX2, else `scalar-tiled`.
//!
//! Every arm is bit-identical for the models it handles, so the kernel
//! **cannot change results** — only time. The two SIMD arms share one
//! panel driver and differ only in how they fetch products, so both
//! serve all three accumulator models: exact sums reassociate freely, a
//! [`Accumulator::Wrapping`] sum wraps once at the end, and an
//! [`Accumulator::Saturating`] lane clamps after every tap in the scalar
//! walker's ascending-`k` order. The one downgrade is `Saturating(32)`
//! (or any width outside `1..=31`), whose clamp bounds an i32 lane
//! cannot hold; it runs the scalar walker.

use super::{lut_gemm_tiled_seg, TileConfig};
use crate::accumulator::Accumulator;
use crate::prepared::PreparedFilter;
use axmult::MulLut;
use axquant::QuantParams;
use axtensor::{Matrix, SegmentTable, WorkerPool};
use std::fmt;

/// One arm of the LUT-GEMM kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The portable tiled scalar walker — always available, and the
    /// only arm for a `Saturating(32)` accumulator.
    ScalarTiled,
    /// AVX2 `vpgatherdd` row-gather kernel: 16 products per step fetched
    /// straight from the hoisted 512-byte LUT row — the CPU analogue of
    /// the paper's `tex1Dfetch<ushort>` texture path.
    Avx2Gather,
    /// AVX-512 VBMI `vpermi2b` kernel: each tap's LUT row is split into
    /// byte planes held in registers, and 64 products per step are
    /// looked up with no memory access — the register file in the role
    /// the paper gives the texture cache.
    Avx512Vbmi,
}

impl KernelKind {
    /// The kernel's stable name, as reported in
    /// [`crate::EmulationReport`] / `ServeStats`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::ScalarTiled => "scalar-tiled",
            KernelKind::Avx2Gather => "avx2-gather",
            KernelKind::Avx512Vbmi => "avx512-vbmi",
        }
    }

    /// Whether this process can execute the arm (compile target + runtime
    /// CPUID). [`KernelKind::ScalarTiled`] is always supported.
    #[must_use]
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                KernelKind::ScalarTiled => true,
                KernelKind::Avx2Gather => has!("avx2"),
                // The shared panel packer uses AVX2 on every SIMD arm.
                KernelKind::Avx512Vbmi => {
                    has!("avx2") && has!("avx512f") && has!("avx512bw") && has!("avx512vbmi")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == KernelKind::ScalarTiled
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every kernel arm this process can execute, scalar first.
#[must_use]
pub fn available_kernels() -> Vec<KernelKind> {
    [
        KernelKind::ScalarTiled,
        KernelKind::Avx2Gather,
        KernelKind::Avx512Vbmi,
    ]
    .into_iter()
    .filter(|k| k.is_supported())
    .collect()
}

/// The automatic kernel choice: the most capable arm the CPU runs —
/// `avx512-vbmi`, else `avx2-gather`, else `scalar-tiled`.
#[must_use]
pub fn auto_kernel() -> KernelKind {
    [KernelKind::Avx512Vbmi, KernelKind::Avx2Gather]
        .into_iter()
        .find(|k| k.is_supported())
        .unwrap_or(KernelKind::ScalarTiled)
}

/// The arm that will actually run for a request: a SIMD arm needs
/// runtime CPU support and i32 lanes that hold the accumulator's clamp
/// bounds (every model but `Saturating` outside `1..=31` bits); anything
/// else downgrades to the scalar walker. Sessions, reports and serve
/// stats name this arm, so what they report is what ran.
pub(crate) fn effective(kernel: KernelKind, accumulator: Accumulator) -> KernelKind {
    let lanes_hold = match accumulator {
        Accumulator::Saturating(bits) => (1..=31).contains(&bits),
        _ => true,
    };
    if lanes_hold && kernel.is_supported() {
        kernel
    } else {
        KernelKind::ScalarTiled
    }
}

/// Dispatch the single-segment LUT GEMM to `kernel` (see
/// [`lut_gemm_dispatch_seg`]); bit-identical to
/// [`super::lut_gemm_reference`] whichever arm runs.
///
/// # Panics
///
/// As [`super::lut_gemm_tiled`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_dispatch(
    kernel: KernelKind,
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    input_q: QuantParams,
    lut: &MulLut,
    accumulator: Accumulator,
    tiles: TileConfig,
    pool: &WorkerPool,
) -> Vec<f32> {
    lut_gemm_dispatch_seg(
        kernel,
        patches,
        patch_sums,
        plan,
        std::slice::from_ref(&input_q),
        &SegmentTable::single(patches.rows()),
        lut,
        accumulator,
        tiles,
        pool,
    )
}

/// Dispatch the segmented LUT GEMM to `kernel`, downgrading to the
/// scalar walker whenever the arm cannot handle the request (see
/// [`KernelKind`] and the module docs). All arms produce bits identical
/// to [`super::lut_gemm_reference_seg`], so fused serving, sharding and
/// conformance guarantees are kernel-independent.
///
/// # Panics
///
/// As [`super::lut_gemm_tiled_seg`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_dispatch_seg(
    kernel: KernelKind,
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    lut: &MulLut,
    accumulator: Accumulator,
    tiles: TileConfig,
    pool: &WorkerPool,
) -> Vec<f32> {
    match effective(kernel, accumulator) {
        #[cfg(target_arch = "x86_64")]
        k @ (KernelKind::Avx2Gather | KernelKind::Avx512Vbmi) => super::simd::lut_gemm_simd_seg(
            k,
            patches,
            patch_sums,
            plan,
            seg_q,
            segments,
            lut,
            accumulator,
            pool,
        ),
        _ => lut_gemm_tiled_seg(
            patches,
            patch_sums,
            plan,
            seg_q,
            segments,
            lut,
            accumulator,
            tiles,
            pool,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelKind::ScalarTiled.name(), "scalar-tiled");
        assert_eq!(KernelKind::Avx2Gather.name(), "avx2-gather");
        assert_eq!(KernelKind::Avx512Vbmi.name(), "avx512-vbmi");
        for k in available_kernels() {
            assert_eq!(k.to_string(), k.name());
        }
    }

    #[test]
    fn scalar_is_always_supported_and_listed() {
        assert!(KernelKind::ScalarTiled.is_supported());
        let avail = available_kernels();
        assert_eq!(avail[0], KernelKind::ScalarTiled);
        assert!(avail.iter().all(|k| k.is_supported()));
    }

    #[test]
    fn auto_kernel_is_stable_and_supported() {
        let k = auto_kernel();
        assert!(k.is_supported());
        assert_eq!(k, auto_kernel(), "the choice must not flap");
        #[cfg(target_arch = "x86_64")]
        let (avx2, vbmi) = {
            use std::arch::is_x86_feature_detected as has;
            (
                has!("avx2"),
                has!("avx2") && has!("avx512f") && has!("avx512bw") && has!("avx512vbmi"),
            )
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, vbmi) = (false, false);
        let want = if vbmi {
            KernelKind::Avx512Vbmi
        } else if avx2 {
            KernelKind::Avx2Gather
        } else {
            KernelKind::ScalarTiled
        };
        assert_eq!(
            k, want,
            "auto is avx512-vbmi with AVX-512 F/BW/VBMI, else avx2-gather with AVX2, else scalar"
        );
    }

    #[test]
    fn every_model_runs_on_the_chosen_arm_except_saturating_32() {
        for k in available_kernels() {
            for accumulator in [
                Accumulator::Exact,
                Accumulator::Saturating(1),
                Accumulator::Saturating(12),
                Accumulator::Saturating(31),
                Accumulator::Wrapping(1),
                Accumulator::Wrapping(10),
                Accumulator::Wrapping(32),
            ] {
                assert_eq!(effective(k, accumulator), k, "{k} {accumulator:?}");
            }
            assert_eq!(
                effective(k, Accumulator::Saturating(32)),
                KernelKind::ScalarTiled,
                "{k}"
            );
        }
        // An arm the CPU cannot run downgrades whatever the model.
        for k in [KernelKind::Avx2Gather, KernelKind::Avx512Vbmi] {
            if !k.is_supported() {
                assert_eq!(
                    effective(k, Accumulator::Exact),
                    KernelKind::ScalarTiled,
                    "{k}"
                );
            }
        }
    }
}
