//! The LUT-GEMM kernel family — a tiled scalar arm and two SIMD arms
//! behind one dispatch, all pinned bit-for-bit to an untiled golden model.
//!
//! `BENCH_conv.json` shows the emulated-multiply inner loop (the
//! `lutlookup` phase) dominating steady-state time on every backend. The
//! paper attacks exactly this loop by keeping the 128 kB multiplier table
//! in a fast read-only memory and batching lookups; this module is the
//! CPU realization of that idea, structured as a small family:
//!
//! - [`lut_gemm_reference`] / [`lut_gemm_reference_seg`] — the untiled
//!   per-row golden model every other arm is pinned against.
//! - `scalar` (private) — the tiled, register-micro-tile walker
//!   ([`lut_gemm_tiled`] / [`lut_gemm_tiled_seg`]): LUT-row hoisting,
//!   `MC×KC×NC` cache blocking, [`MR`]-row register micro-tiles, and
//!   contiguous-row-span thread sharding whose per-row fold order is
//!   partition-independent (bit-identical across thread counts, even
//!   under order-sensitive [`Accumulator`] models).
//! - `simd` (private, x86-64 only) — one panel driver with two ways to
//!   fetch products from the hoisted 512-byte LUT row of
//!   [`axmult::MulLut::padded_entries`]: `avx2-gather` (a `vpgatherdd`
//!   per 8 products) and `avx512-vbmi` (the row held in registers as
//!   byte planes, a `vpermi2b` lookup per 64). Both serve every
//!   accumulator model but `Saturating(32)` — exact sums, one final
//!   wrap, or an in-lane clamp per tap; the module's source carries the
//!   bit-identity argument.
//! - [`dispatch`] — the [`dispatch::KernelKind`] selector: an explicit
//!   override, otherwise the most capable arm the CPU runs
//!   (`avx512-vbmi`, then `avx2-gather`, then `scalar-tiled`); a
//!   `Saturating(32)` accumulator, whose clamp bounds no i32 lane holds,
//!   falls back to the scalar walker.
//!
//! Both entry-point flavours come *segmented*
//! ([`lut_gemm_reference_seg`], [`lut_gemm_tiled_seg`],
//! [`dispatch::lut_gemm_dispatch_seg`]) threading a [`SegmentTable`]
//! over the output rows: each row dequantizes under its own segment's
//! input parameters via a precomputed [`SegmentEpilogue`](crate::prepared::SegmentEpilogue), so a fused
//! multi-request batch runs as **one** blocked GEMM while staying
//! bit-identical to per-request solo runs. The unsegmented names are
//! thin single-segment wrappers.

pub mod dispatch;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use dispatch::{auto_kernel, available_kernels, KernelKind};

use crate::accumulator::Accumulator;
use crate::prepared::PreparedFilter;
use crate::Error;
use axmult::{MulLut, Signedness};
use axquant::QuantParams;
use axtensor::{Matrix, SegmentTable, WorkerPool};
use serde::{Deserialize, Serialize};

/// Output positions per register micro-tile: the scalar microkernel
/// streams this many patch rows in parallel while holding one LUT row
/// hoisted.
pub const MR: usize = 8;

/// Cache-blocking panel sizes of the tiled LUT GEMM.
///
/// `mc` rows (output positions) × `nc` columns (output channels) form the
/// accumulator tile; the shared `K` dimension (taps) is consumed in `kc`
/// slices. The defaults size the accumulator tile at 8 kB
/// (`64 × 16 × 8 B`) so it shares L1 with the active LUT rows and the
/// `MR×KC` patch micro-panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileConfig {
    mc: usize,
    kc: usize,
    nc: usize,
}

impl TileConfig {
    /// A tile configuration with explicit panel sizes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if any dimension is zero — a
    /// zero-sized panel would make the blocked loops process nothing.
    pub fn new(mc: usize, kc: usize, nc: usize) -> Result<Self, Error> {
        if mc == 0 || kc == 0 || nc == 0 {
            return Err(Error::Config(format!(
                "tile sizes must be positive (got mc={mc}, kc={kc}, nc={nc})"
            )));
        }
        Ok(TileConfig { mc, kc, nc })
    }

    /// Rows (output positions) per accumulator tile.
    #[must_use]
    pub fn mc(&self) -> usize {
        self.mc
    }

    /// Taps per `K` panel.
    #[must_use]
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// Output channels per accumulator tile.
    #[must_use]
    pub fn nc(&self) -> usize {
        self.nc
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            mc: 64,
            kc: 512,
            nc: 16,
        }
    }
}

/// The LUT-emulated dot product of one patch row with one filter column
/// (both as 8-bit byte patterns). The exact-accumulator cases take a
/// branch-free path; narrower accumulator models fold per tap.
#[inline]
pub(crate) fn lut_dot(
    patch: &[u8],
    fcol: &[u8],
    lut: &MulLut,
    signedness: Signedness,
    accumulator: Accumulator,
) -> i64 {
    match (accumulator, signedness) {
        (Accumulator::Exact, Signedness::Signed) => patch
            .iter()
            .zip(fcol)
            .map(|(&a, &b)| i64::from(lut.fetch(a, b) as i16))
            .sum(),
        (Accumulator::Exact, Signedness::Unsigned) => patch
            .iter()
            .zip(fcol)
            .map(|(&a, &b)| i64::from(lut.fetch(a, b)))
            .sum(),
        _ => fold_taps(0, patch, fcol, lut, signedness, accumulator),
    }
}

/// Check the shared operand invariants of the segmented GEMM entry
/// points.
fn check_seg_operands(
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
) {
    assert_eq!(patches.cols(), plan.k(), "patch length != plan K");
    assert_eq!(patch_sums.len(), patches.rows(), "patch-sum count");
    assert_eq!(
        segments.total(),
        patches.rows(),
        "segment table must cover every patch row"
    );
    assert_eq!(
        seg_q.len(),
        segments.len(),
        "one input-quantization param set per segment"
    );
}

/// The untiled LUT GEMM — one per-tap `lut_dot` fold per output element,
/// walking the row-major patch matrix. Single-threaded; this is the
/// golden model the tiled path is pinned against.
///
/// A single-segment wrapper over [`lut_gemm_reference_seg`].
///
/// Returns the `rows × c_out` output, row-major (channel-contiguous).
///
/// # Panics
///
/// Panics if `patches.cols() != plan.k()` or
/// `patch_sums.len() != patches.rows()`.
#[must_use]
pub fn lut_gemm_reference(
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    input_q: QuantParams,
    lut: &MulLut,
    accumulator: Accumulator,
) -> Vec<f32> {
    lut_gemm_reference_seg(
        patches,
        patch_sums,
        plan,
        std::slice::from_ref(&input_q),
        &SegmentTable::single(patches.rows()),
        lut,
        accumulator,
    )
}

/// The untiled *segmented* LUT GEMM: row `r` dequantizes under the input
/// parameters of the segment `segments` assigns it to. The fold over `K`
/// is unchanged — segmentation only selects the Eq. 4 epilogue constants
/// — so each row's bits equal a solo [`lut_gemm_reference`] run over its
/// segment with `seg_q[s]`.
///
/// Returns the `rows × c_out` output, row-major (channel-contiguous).
///
/// # Panics
///
/// Panics if `patches.cols() != plan.k()`,
/// `patch_sums.len() != patches.rows()`,
/// `segments.total() != patches.rows()`, or
/// `seg_q.len() != segments.len()`.
#[must_use]
pub fn lut_gemm_reference_seg(
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    lut: &MulLut,
    accumulator: Accumulator,
) -> Vec<f32> {
    check_seg_operands(patches, patch_sums, plan, seg_q, segments);
    let c_out = plan.c_out();
    let signedness = lut.signedness();
    let epi = plan.segment_epilogue(seg_q);
    let row_seg = segments.element_segments();
    let mut out = vec![0f32; patches.rows() * c_out];
    for (r, out_row) in out.chunks_mut(c_out.max(1)).enumerate() {
        let patch = patches.row(r);
        let sp = patch_sums[r];
        let s = row_seg[r] as usize;
        for (c, out_v) in out_row.iter_mut().enumerate() {
            let acc = lut_dot(patch, plan.channel_bytes(c), lut, signedness, accumulator);
            *out_v = epi.dequantize(s, c, acc, sp);
        }
    }
    out
}

/// The tiled, thread-sharded LUT GEMM over the row-major patch matrix
/// (the same operand [`lut_gemm_reference`] consumes).
///
/// A single-segment wrapper over [`lut_gemm_tiled_seg`].
///
/// Output rows are sharded across `pool`; each span is walked in
/// [`TileConfig`] blocks by the register micro-tile kernel with the
/// active LUT row hoisted out of the inner loop. For every output element
/// the taps fold in ascending-`k` order exactly like the reference, so
/// the result is bit-identical to [`lut_gemm_reference`] for **any**
/// accumulator model and any thread count.
///
/// Returns the `rows × c_out` output, row-major (channel-contiguous).
///
/// # Panics
///
/// Panics if `patches.cols() != plan.k()` or
/// `patch_sums.len() != patches.rows()`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_tiled(
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    input_q: QuantParams,
    lut: &MulLut,
    accumulator: Accumulator,
    tiles: TileConfig,
    pool: &WorkerPool,
) -> Vec<f32> {
    lut_gemm_tiled_seg(
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

/// The tiled, thread-sharded *segmented* LUT GEMM — one fused blocked
/// sweep over a multi-request patch matrix, with each output row
/// dequantized under its own segment's input parameters.
///
/// The fold over `K` and the contiguous-row-span sharding are exactly
/// those of [`lut_gemm_tiled`]; the segment table only drives the Eq. 4
/// epilogue, via a [`SegmentEpilogue`](crate::prepared::SegmentEpilogue)
/// lookup. The result is bit-identical to [`lut_gemm_reference_seg`] for
/// any accumulator model, tile shape, and thread count — and therefore to
/// running each segment alone and concatenating.
///
/// Returns the `rows × c_out` output, row-major (channel-contiguous).
///
/// # Panics
///
/// As [`lut_gemm_reference_seg`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_tiled_seg(
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
    check_seg_operands(patches, patch_sums, plan, seg_q, segments);
    let rows = patches.rows();
    let c_out = plan.c_out();
    let mut out = vec![0f32; rows * c_out];
    if rows == 0 || c_out == 0 {
        return out;
    }
    let epi = plan.segment_epilogue(seg_q);
    let row_seg = segments.element_segments();
    let epi_ref = &epi;
    let row_seg_ref: &[u32] = &row_seg;

    // Contiguous row spans, one job each. The per-row fold order does not
    // depend on the partition, so any `threads` gives identical bits.
    let rows_per = rows.div_ceil(pool.threads()).max(1);
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(rows.div_ceil(rows_per));
    for (t, span) in out.chunks_mut(rows_per * c_out).enumerate() {
        let r0 = t * rows_per;
        jobs.push(Box::new(move || {
            scalar::tile_span(
                r0,
                span,
                patches,
                patch_sums,
                plan,
                row_seg_ref,
                epi_ref,
                lut,
                accumulator,
                tiles,
            );
        }));
    }
    pool.run(jobs);
    out
}

/// Continue an order-sensitive fold from `acc` across one tap panel.
#[inline]
fn fold_taps(
    mut acc: i64,
    prow: &[u8],
    fcol: &[u8],
    lut: &MulLut,
    signedness: Signedness,
    accumulator: Accumulator,
) -> i64 {
    for (&a, &b) in prow.iter().zip(fcol) {
        let raw = lut.fetch(a, b);
        let prod = match signedness {
            Signedness::Signed => i64::from(raw as i16),
            Signedness::Unsigned => i64::from(raw),
        };
        acc = accumulator.add(acc, prod);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use axquant::{FilterQuantization, QuantRange, RoundMode};
    use axtensor::{rng, FilterShape};

    fn setup(
        rows: usize,
        fs: FilterShape,
        seed: u64,
    ) -> (Matrix<u8>, Vec<i64>, PreparedFilter, QuantParams) {
        let input_q = QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven);
        let k = fs.patch_len();
        let bytes: Vec<u8> = (0..rows * k)
            .map(|i| ((i as u64).wrapping_mul(seed ^ 0x9E37_79B9) >> 3) as u8)
            .collect();
        let patches = Matrix::from_vec(rows, k, bytes).unwrap();
        // Patch sums are logical sums of the byte patterns (signed decode).
        let sums: Vec<i64> = (0..rows)
            .map(|r| {
                patches
                    .row(r)
                    .iter()
                    .map(|&b| i64::from(b as i8))
                    .sum::<i64>()
            })
            .collect();
        let filter = rng::uniform_filter(fs, seed, -0.5, 0.5);
        let fq: FilterQuantization =
            QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven).into();
        let plan = PreparedFilter::from_filter(&filter, &fq);
        (patches, sums, plan, input_q)
    }

    /// Shared operand builder for the per-arm unit tests (the SIMD
    /// module reuses it): an *approximate* multiplier, so a broken
    /// plane/row derivation cannot hide behind exact-product symmetry.
    pub(crate) fn setup_operands(
        rows: usize,
        fs: FilterShape,
        seed: u64,
        signedness: Signedness,
    ) -> (Matrix<u8>, Vec<i64>, PreparedFilter, QuantParams, MulLut) {
        let (patches, sums, plan, input_q) = setup(rows, fs, seed);
        let lut = MulLut::from_fn(signedness, |a, b| (a * b) & !0x3);
        (patches, sums, plan, input_q, lut)
    }

    #[test]
    fn tiled_matches_reference_across_tile_shapes() {
        let fs = FilterShape::new(3, 3, 5, 7);
        let (patches, sums, plan, input_q) = setup(53, fs, 11);
        let lut = MulLut::exact(Signedness::Signed);
        let reference =
            lut_gemm_reference(&patches, &sums, &plan, input_q, &lut, Accumulator::Exact);
        let pool = WorkerPool::new(2);
        for (mc, kc, nc) in [(1, 1, 1), (8, 16, 4), (64, 512, 16), (100, 100, 100)] {
            let tiles = TileConfig::new(mc, kc, nc).unwrap();
            let tiled = lut_gemm_tiled(
                &patches,
                &sums,
                &plan,
                input_q,
                &lut,
                Accumulator::Exact,
                tiles,
                &pool,
            );
            assert_eq!(tiled, reference, "tiles ({mc}, {kc}, {nc})");
        }
    }

    #[test]
    fn tiled_matches_reference_under_order_sensitive_accumulators() {
        // Saturating/wrapping folds are order-sensitive: the tiled path
        // must replay the exact ascending-k fold sequence, micro-tile and
        // panel boundaries notwithstanding.
        let fs = FilterShape::new(3, 3, 4, 6);
        let (patches, sums, plan, input_q) = setup(29, fs, 3);
        let lut = MulLut::exact(Signedness::Signed);
        for accumulator in [Accumulator::Saturating(12), Accumulator::Wrapping(10)] {
            let reference = lut_gemm_reference(&patches, &sums, &plan, input_q, &lut, accumulator);
            for threads in [1, 3] {
                let pool = WorkerPool::new(threads);
                let tiled = lut_gemm_tiled(
                    &patches,
                    &sums,
                    &plan,
                    input_q,
                    &lut,
                    accumulator,
                    TileConfig::new(7, 5, 3).unwrap(),
                    &pool,
                );
                assert_eq!(tiled, reference, "{accumulator:?} x{threads}");
            }
        }
    }

    #[test]
    fn tiled_is_thread_count_invariant() {
        let fs = FilterShape::new(1, 1, 32, 8);
        let (patches, sums, plan, input_q) = setup(64, fs, 21);
        let lut = MulLut::exact(Signedness::Unsigned);
        let run = |threads: usize| {
            let pool = WorkerPool::new(threads);
            lut_gemm_tiled(
                &patches,
                &sums,
                &plan,
                input_q,
                &lut,
                Accumulator::Exact,
                TileConfig::default(),
                &pool,
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    /// Distinct per-segment input params so a wrong epilogue pick is
    /// guaranteed to change bits.
    fn seg_params() -> Vec<QuantParams> {
        [(-1.0, 1.0), (-2.0, 0.5), (0.0, 3.0), (-0.25, 0.25)]
            .iter()
            .map(|&(lo, hi)| {
                QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven)
            })
            .collect()
    }

    fn sub_matrix(patches: &Matrix<u8>, start: usize, end: usize, k: usize) -> Matrix<u8> {
        let bytes: Vec<u8> = (start..end).flat_map(|r| patches.row(r).to_vec()).collect();
        Matrix::from_vec(end - start, k, bytes).unwrap()
    }

    #[test]
    fn segmented_reference_is_per_segment_reference_chained() {
        // The fused golden must equal solo goldens over each segment's
        // rows with that segment's params, concatenated — including an
        // empty segment in the middle.
        let fs = FilterShape::new(3, 3, 4, 5);
        let (patches, sums, plan, _) = setup(14, fs, 17);
        let segments = SegmentTable::from_counts(&[5, 0, 8, 1]);
        let seg_q = seg_params();
        let lut = MulLut::exact(Signedness::Signed);
        for accumulator in [Accumulator::Exact, Accumulator::Saturating(12)] {
            let fused = lut_gemm_reference_seg(
                &patches,
                &sums,
                &plan,
                &seg_q,
                &segments,
                &lut,
                accumulator,
            );
            let mut chained = Vec::new();
            for (s, (start, end)) in segments.iter().enumerate() {
                let sub = sub_matrix(&patches, start, end, fs.patch_len());
                chained.extend(lut_gemm_reference(
                    &sub,
                    &sums[start..end],
                    &plan,
                    seg_q[s],
                    &lut,
                    accumulator,
                ));
            }
            assert_eq!(fused, chained, "{accumulator:?}");
        }
    }

    #[test]
    fn segmented_tiled_matches_segmented_reference() {
        let fs = FilterShape::new(3, 3, 5, 7);
        let (patches, sums, plan, input_q) = setup(23, fs, 9);
        let mut seg_q = seg_params();
        seg_q.push(input_q);
        let segments = SegmentTable::from_counts(&[4, 0, 9, 2, 8]);
        let lut = MulLut::exact(Signedness::Signed);
        for accumulator in [
            Accumulator::Exact,
            Accumulator::Saturating(12),
            Accumulator::Wrapping(10),
        ] {
            let reference = lut_gemm_reference_seg(
                &patches,
                &sums,
                &plan,
                &seg_q,
                &segments,
                &lut,
                accumulator,
            );
            for threads in [1, 3] {
                let pool = WorkerPool::new(threads);
                let tiled = lut_gemm_tiled_seg(
                    &patches,
                    &sums,
                    &plan,
                    &seg_q,
                    &segments,
                    &lut,
                    accumulator,
                    TileConfig::new(7, 5, 3).unwrap(),
                    &pool,
                );
                assert_eq!(tiled, reference, "{accumulator:?} x{threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "segment table must cover every patch row")]
    fn segmented_gemm_rejects_short_segment_table() {
        let fs = FilterShape::new(1, 1, 2, 2);
        let (patches, sums, plan, input_q) = setup(4, fs, 2);
        let lut = MulLut::exact(Signedness::Signed);
        let _ = lut_gemm_reference_seg(
            &patches,
            &sums,
            &plan,
            &[input_q],
            &SegmentTable::from_counts(&[3]),
            &lut,
            Accumulator::Exact,
        );
    }

    #[test]
    fn empty_inputs_produce_empty_outputs() {
        let fs = FilterShape::new(3, 3, 2, 4);
        let (_, _, plan, input_q) = setup(1, fs, 5);
        let lut = MulLut::exact(Signedness::Signed);
        let pool = WorkerPool::new(2);
        let patches = Matrix::<u8>::zeros(0, fs.patch_len());
        let out = lut_gemm_tiled(
            &patches,
            &[],
            &plan,
            input_q,
            &lut,
            Accumulator::Exact,
            TileConfig::default(),
            &pool,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn zero_tile_dimensions_rejected() {
        for (mc, kc, nc) in [(0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            let err = TileConfig::new(mc, kc, nc).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
            assert!(err.to_string().contains("tile sizes"), "{err}");
        }
    }

    #[test]
    fn default_tiles_are_valid_and_l1_sized() {
        let t = TileConfig::default();
        assert!(TileConfig::new(t.mc(), t.kc(), t.nc()).is_ok());
        // Accumulator tile stays within an 8 kB L1 budget.
        assert!(t.mc() * t.nc() * 8 <= 8 * 1024);
    }
}
