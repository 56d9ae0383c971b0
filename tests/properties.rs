//! Property-based tests over the core data structures and invariants.

use axmult::{MulLut, Signedness};
use axquant::{QuantParams, QuantRange, RoundMode};
use axtensor::{ops, rng, ConvGeometry, FilterShape, Padding, Shape4};
use proptest::prelude::*;
use std::sync::Arc;
use tfapprox::{AxConv2D, Backend, EmuContext};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Gate-level array multipliers are exact for arbitrary widths.
    #[test]
    fn netlist_multiplier_exact(wa in 2u32..7, wb in 2u32..7, a in 0u64..128, b in 0u64..128) {
        let a = a & ((1 << wa) - 1);
        let b = b & ((1 << wb) - 1);
        let nl = axcircuit::builder::MultiplierSpec::unsigned(wa, wb).build().unwrap();
        prop_assert_eq!(nl.eval_words(&[a, b]).unwrap(), a * b);
    }

    /// Signed netlist multipliers match two's-complement products.
    #[test]
    fn signed_netlist_multiplier_exact(a in -16i64..16, b in -16i64..16) {
        let nl = axcircuit::builder::MultiplierSpec::signed(5, 5).build().unwrap();
        let got = nl.eval_words(&[(a as u64) & 0x1F, (b as u64) & 0x1F]).unwrap();
        prop_assert_eq!(got, ((a * b) as u64) & 0x3FF);
    }

    /// Dropping more partial-product cells never increases gate count.
    #[test]
    fn truncation_monotone_in_gates(k1 in 0u32..8, k2 in 0u32..8) {
        let (lo, hi) = (k1.min(k2), k1.max(k2));
        let a = axcircuit::approx::truncated_unsigned(8, lo).unwrap();
        let b = axcircuit::approx::truncated_unsigned(8, hi).unwrap();
        prop_assert!(b.n_gates() <= a.n_gates());
    }

    /// LUT binary serialization round-trips for arbitrary tables.
    #[test]
    fn lut_bytes_roundtrip(mask in 0u32..0xFFFF, signed in any::<bool>()) {
        let s = if signed { Signedness::Signed } else { Signedness::Unsigned };
        let lut = MulLut::from_fn(s, |a, b| (a * b) ^ (mask as i32));
        let back = MulLut::from_bytes(&lut.to_bytes(), s).unwrap();
        prop_assert_eq!(back, lut);
    }

    /// Quantization: zero is exactly representable and the round-trip
    /// error is bounded by half a step, for arbitrary ranges.
    #[test]
    fn quantization_invariants(lo in -100.0f32..0.0, span in 0.01f32..200.0, x in -100.0f32..100.0) {
        let hi = lo + span;
        let p = QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven);
        prop_assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
        let clamped = x.clamp(lo.min(0.0), hi.max(0.0));
        let back = p.dequantize(p.quantize(clamped));
        prop_assert!((back - clamped).abs() <= 0.75 * p.scale() + 1e-5);
    }

    /// GEMM-formulated f32 convolution equals the direct definition for
    /// random geometries.
    #[test]
    fn conv_gemm_equals_direct(
        n in 1usize..3, hw in 4usize..9, c_in in 1usize..4, c_out in 1usize..4,
        k in 1usize..4, stride in 1usize..3, same in any::<bool>(), seed in 0u64..1000,
    ) {
        let padding = if same { Padding::Same } else { Padding::Valid };
        prop_assume!(hw >= k);
        let geom = ConvGeometry::default().with_stride(stride).with_padding(padding);
        let input = rng::uniform(Shape4::new(n, hw, hw, c_in), seed, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(k, k, c_in, c_out), seed + 1, -0.5, 0.5);
        let d = ops::conv2d_direct(&input, &filter, geom).unwrap();
        let g = ops::conv2d_gemm(&input, &filter, geom).unwrap();
        prop_assert!(d.max_abs_diff(&g).unwrap() < 1e-4);
    }

    /// The two CPU emulation backends agree bit-tightly on random
    /// convolutions with random catalog-style LUTs.
    #[test]
    fn cpu_backends_agree(seed in 0u64..500, trunc in 0u32..8, stride in 1usize..3) {
        let input = rng::uniform(Shape4::new(2, 6, 6, 2), seed, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), seed + 9, -0.5, 0.5);
        let lut = MulLut::from_fn(Signedness::Signed, move |a, b| {
            let exact = a * b;
            (exact >> trunc) << trunc
        });
        let geom = ConvGeometry::default().with_stride(stride);
        let run = |backend: Backend| {
            let ctx = Arc::new(EmuContext::new(backend).with_chunk_size(1).unwrap());
            AxConv2D::new(filter.clone(), geom, lut.clone(), ctx)
                .convolve(&input)
                .unwrap()
        };
        let a = run(Backend::CpuDirect);
        let b = run(Backend::CpuGemm);
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    /// Eq. 4's correction is an identity: for an exact LUT the emulated
    /// output equals the plain quantized convolution regardless of the
    /// zero-points involved.
    #[test]
    fn eq4_identity_random_ranges(
        lo_i in -4.0f32..-0.1, hi_i in 0.1f32..4.0,
        lo_f in -2.0f32..-0.05, hi_f in 0.05f32..2.0,
        seed in 0u64..300,
    ) {
        let input = rng::uniform(Shape4::new(1, 5, 5, 2), seed, lo_i, hi_i);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 2), seed + 3, lo_f, hi_f);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let layer = AxConv2D::new(
            filter.clone(),
            ConvGeometry::default(),
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let out = layer.convolve(&input).unwrap();
        // Against the f32 convolution: only quantization noise remains.
        let float_ref = ops::conv2d_direct(&input, &filter, ConvGeometry::default()).unwrap();
        let in_scale = (hi_i.max(0.0) - lo_i.min(0.0)) / 255.0;
        let f_scale = (hi_f.max(0.0) - lo_f.min(0.0)) / 255.0;
        let bound = 18.0 * (in_scale * 2.0 + f_scale * 4.0) + 1e-3;
        prop_assert!(out.max_abs_diff(&float_ref).unwrap() < bound);
    }

    /// Batch chunking never changes the emulated output.
    #[test]
    fn chunking_invariant(seed in 0u64..200, chunk in 1usize..6) {
        let input = rng::uniform(Shape4::new(5, 5, 5, 2), seed, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 2), seed + 7, -0.5, 0.5);
        let lut = MulLut::exact(Signedness::Signed);
        let run = |c: usize| {
            let ctx = Arc::new(EmuContext::new(Backend::CpuGemm).with_chunk_size(c).unwrap());
            AxConv2D::new(filter.clone(), ConvGeometry::default(), lut.clone(), ctx)
                .convolve(&input)
                .unwrap()
        };
        prop_assert!(run(chunk).max_abs_diff(&run(5)).unwrap() < 1e-6);
    }

    /// The hit count a texture-cache access returns lies within the
    /// number of fetches, does not depend on how a stream is split into
    /// calls, and re-touching the last index immediately must hit.
    #[test]
    fn cache_stats_invariants(raw in proptest::collection::vec(0u32..65536, 1..400)) {
        let indices: Vec<u16> = raw.iter().map(|&i| i as u16).collect();
        let mut cache = gpusim::TextureCache::new(4096, 32).unwrap();
        let mut split = cache.clone();
        let hits = cache.access(&indices);
        prop_assert!(hits <= indices.len() as u64);
        let singles: u64 = indices.iter().map(|&i| split.access(&[i])).sum();
        prop_assert_eq!(singles, hits);
        let last = *indices.last().unwrap();
        prop_assert_eq!(cache.access(&[last]), 1);
    }

    /// The fixed-width texture cache classifies every fetch exactly as the
    /// reference LRU does, on every geometry the cache ablation sweeps.
    #[test]
    fn texture_cache_matches_reference_lru(
        raw in proptest::collection::vec(0u32..65536, 1..3000),
        bits in 6u32..17,
    ) {
        // Narrowing the index range makes hits and evictions common.
        let indices: Vec<u16> = raw.iter().map(|&i| (i & ((1 << bits) - 1)) as u16).collect();
        for kib in [4usize, 16, 48, 64, 256] {
            let mut cache = gpusim::TextureCache::new(kib * 1024, 32).unwrap();
            let mut oracle = ReferenceLru::new(kib * 1024, 32, 4);
            for (n, &i) in indices.iter().enumerate() {
                prop_assert_eq!(cache.access(&[i]) == 1, oracle.access(u32::from(i)), "{} KiB, fetch {}", kib, n);
            }
        }
    }
}

/// The per-access `Vec<Vec<u64>>` LRU model the texture cache is checked
/// against: `sets[s]` holds up to `ways` line tags, most recently used last.
struct ReferenceLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    elems_per_line: u64,
    n_sets: u64,
}

impl ReferenceLru {
    fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let n_sets = (capacity_bytes / line_bytes / ways).max(1) as u64;
        ReferenceLru {
            sets: vec![Vec::with_capacity(ways); n_sets as usize],
            ways,
            elems_per_line: (line_bytes / 2) as u64,
            n_sets,
        }
    }

    /// Whether fetching element `index` hits; updates the LRU state.
    fn access(&mut self, index: u32) -> bool {
        let line = u64::from(index) / self.elems_per_line;
        let entries = &mut self.sets[(line % self.n_sets) as usize];
        if let Some(pos) = entries.iter().position(|&t| t == line) {
            let tag = entries.remove(pos);
            entries.push(tag);
            true
        } else {
            if entries.len() == self.ways {
                entries.remove(0);
            }
            entries.push(line);
            false
        }
    }
}
