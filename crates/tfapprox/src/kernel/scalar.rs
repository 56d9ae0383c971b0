//! The scalar tiled span walker — the portable arm of the kernel family.
//!
//! [`tile_span`] walks one contiguous output-row span in [`TileConfig`]
//! blocks with the active LUT row hoisted. Exact and
//! [`Accumulator::Wrapping`] sums take the exact path — a wrapping sum
//! wraps once in the epilogue, as on the SIMD arms — and only
//! [`Accumulator::Saturating`] replays the ascending-`k` tap sequence per
//! output. It is the arm every host without AVX2 runs, and the only one
//! for `Saturating(32)`, whose clamp bounds no SIMD lane holds.

use super::{fold_taps, lut_dot, TileConfig, MR};
use crate::accumulator::Accumulator;
use crate::prepared::{PreparedFilter, SegmentEpilogue};
use axmult::{MulLut, Signedness};
use axtensor::Matrix;

/// Run the blocked microkernel over output rows `r0 .. r0 + span/c_out`.
#[allow(clippy::too_many_arguments)]
pub(super) fn tile_span(
    r0: usize,
    out_span: &mut [f32],
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    row_seg: &[u32],
    epi: &SegmentEpilogue,
    lut: &MulLut,
    accumulator: Accumulator,
    tiles: TileConfig,
) {
    let c_out = plan.c_out();
    let k_total = plan.k();
    let span_rows = out_span.len() / c_out;
    let signedness = lut.signedness();
    // Accumulator tile, channel-major: acc[co * mw + i] is output
    // position `mb + i`, channel `nb + co`.
    let mut acc = vec![0i64; tiles.mc() * tiles.nc()];
    for mb in (0..span_rows).step_by(tiles.mc()) {
        let mw = tiles.mc().min(span_rows - mb);
        for nb in (0..c_out).step_by(tiles.nc()) {
            let nw = tiles.nc().min(c_out - nb);
            acc[..nw * mw].fill(0);
            for kb in (0..k_total).step_by(tiles.kc()) {
                let kw = tiles.kc().min(k_total - kb);
                // Register micro-tiles: MR patch-row streams at a time,
                // reused across the whole channel tile while their
                // MR×kw bytes stay L1-resident.
                let mut rs = 0usize;
                while rs + MR <= mw {
                    let base = r0 + mb + rs;
                    let prows: [&[u8]; MR] =
                        std::array::from_fn(|i| &patches.row(base + i)[kb..kb + kw]);
                    for co in 0..nw {
                        let fcol = &plan.channel_bytes(nb + co)[kb..kb + kw];
                        let acc_mr = &mut acc[co * mw + rs..][..MR];
                        match signedness {
                            Signedness::Signed => micro_mr(
                                acc_mr,
                                &prows,
                                fcol,
                                lut,
                                |raw| i64::from(raw as i16),
                                accumulator,
                            ),
                            Signedness::Unsigned => {
                                micro_mr(acc_mr, &prows, fcol, lut, i64::from, accumulator);
                            }
                        }
                    }
                    rs += MR;
                }
                // Scalar tail for the last partial micro-tile.
                for r in rs..mw {
                    let prow = &patches.row(r0 + mb + r)[kb..kb + kw];
                    for co in 0..nw {
                        let fcol = &plan.channel_bytes(nb + co)[kb..kb + kw];
                        let slot = &mut acc[co * mw + r];
                        *slot = match accumulator {
                            // A clamp cannot fold a pre-reduced partial;
                            // replay the taps.
                            Accumulator::Saturating(_) => {
                                fold_taps(*slot, prow, fcol, lut, signedness, accumulator)
                            }
                            _ => *slot + lut_dot(prow, fcol, lut, signedness, Accumulator::Exact),
                        };
                    }
                }
            }
            // Epilogue: the one wrap of a wrapping model, then Eq. 4
            // correction + dequantization under the owning segment's
            // constants, written to the channel-contiguous output tile.
            for (co, acc_col) in acc[..nw * mw].chunks(mw).enumerate() {
                let c = nb + co;
                for (i, &a) in acc_col.iter().enumerate() {
                    let r = r0 + mb + i;
                    let sp = patch_sums[r];
                    let a = accumulator.wrap_sum(a);
                    out_span[(mb + i) * c_out + c] = epi.dequantize(row_seg[r] as usize, c, a, sp);
                }
            }
        }
    }
}

/// The register micro-tile: fold one `kw`-tap filter column into `MR`
/// accumulators at once, all held in registers, with each tap's 512-byte
/// LUT row hoisted out of the `MR` sweep. Only a saturating model folds
/// per tap; every other sum is exact here.
#[inline]
fn micro_mr<D: Fn(u16) -> i64 + Copy>(
    acc_mr: &mut [i64],
    prows: &[&[u8]; MR],
    fcol: &[u8],
    lut: &MulLut,
    decode: D,
    accumulator: Accumulator,
) {
    let mut a = [0i64; MR];
    a.copy_from_slice(&acc_mr[..MR]);
    match accumulator {
        Accumulator::Saturating(_) => {
            for (k, &fb) in fcol.iter().enumerate() {
                let row = lut.row(fb);
                for i in 0..MR {
                    a[i] = accumulator.add(a[i], decode(row[prows[i][k] as usize]));
                }
            }
        }
        _ => {
            for (k, &fb) in fcol.iter().enumerate() {
                let row = lut.row(fb);
                for i in 0..MR {
                    a[i] += decode(row[prows[i][k] as usize]);
                }
            }
        }
    }
    acc_mr[..MR].copy_from_slice(&a);
}
