//! Shared helpers for the table/figure generator binaries.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! TFApprox paper (see DESIGN.md for the experiment index):
//!
//! - `table1` — Table I: CIFAR-10 processing time across ResNet-8…62 for
//!   accurate/approximate layers on CPU/GPU, with speedups.
//! - `fig2` — Fig. 2: the phase breakdown of total time.
//! - `ablation_cache` — texture-cache size ablation (design decision 1).
//! - `ablation_im2col` — patch-sum strategy ablation (design decision 4).
//!
//! [`conv_engine`] holds the prepared-execution benchmark suite driven by
//! `benches/conv_engine.rs`, which emits the `BENCH_conv.json` trajectory
//! file through the [`json`] writer (re-exported from
//! [`tfapprox::json`]). [`pareto`] holds the
//! accuracy-vs-power evaluation sweep behind `pareto_bench` and
//! `BENCH_pareto.json`.

pub mod conv_engine;
pub use tfapprox::json;
pub mod pareto;
pub mod serve_bench;

/// One row of Table I: (depth, L, MACs ×10⁶, cpu_acc (tinit, tcomp),
/// gpu_acc, cpu_approx, gpu_approx).
pub type Table1Row = (
    usize,
    usize,
    u64,
    (f64, f64),
    (f64, f64),
    (f64, f64),
    (f64, f64),
);

/// The paper's published Table I, used for side-by-side printing.
pub const PAPER_TABLE1: [Table1Row; 10] = [
    (8, 7, 21, (0.2, 4.4), (1.8, 0.2), (0.2, 341.0), (1.7, 1.5)),
    (14, 13, 35, (0.2, 7.4), (1.9, 0.3), (0.2, 724.0), (1.8, 3.1)),
    (
        20,
        19,
        49,
        (0.2, 10.4),
        (1.8, 0.5),
        (0.2, 1105.0),
        (1.8, 4.7),
    ),
    (
        26,
        25,
        63,
        (0.2, 13.4),
        (1.9, 0.6),
        (0.2, 1489.0),
        (1.8, 6.2),
    ),
    (
        32,
        31,
        77,
        (0.3, 16.3),
        (1.9, 0.7),
        (0.3, 1876.0),
        (1.9, 7.9),
    ),
    (
        38,
        37,
        91,
        (0.3, 19.3),
        (1.9, 0.8),
        (0.3, 2259.0),
        (1.9, 9.4),
    ),
    (
        44,
        43,
        106,
        (0.3, 22.3),
        (1.9, 0.9),
        (0.3, 2640.0),
        (2.0, 10.9),
    ),
    (
        50,
        49,
        120,
        (0.3, 25.2),
        (1.9, 1.1),
        (0.3, 3025.0),
        (2.0, 12.6),
    ),
    (
        56,
        55,
        134,
        (0.3, 28.1),
        (1.9, 1.2),
        (0.3, 3409.0),
        (2.0, 13.9),
    ),
    (
        62,
        61,
        148,
        (0.3, 31.1),
        (1.9, 1.3),
        (0.3, 3796.0),
        (2.3, 15.5),
    ),
];

/// The paper's Fig. 2 percentages `(init, other, quantization, lut)` for
/// the GPU implementation, by depth.
pub const PAPER_FIG2_GPU: [(usize, [f64; 4]); 4] = [
    (8, [55.0, 22.0, 14.0, 9.0]),
    (32, [19.0, 38.0, 18.0, 25.0]),
    (50, [13.0, 42.0, 19.0, 26.0]),
    (62, [10.0, 43.0, 20.0, 26.0]),
];

/// The paper's Fig. 2 percentages `(init, other, quantization, lut)` for
/// the CPU implementation, by depth.
pub const PAPER_FIG2_CPU: [(usize, [f64; 4]); 4] = [
    (8, [1.33, 63.0, 9.0, 27.0]),
    (32, [0.89, 64.0, 7.0, 28.0]),
    (50, [0.84, 64.0, 7.0, 28.0]),
    (62, [0.83, 64.0, 7.0, 28.0]),
];

/// Format seconds as the paper does: `tinit + tcomp`.
#[must_use]
pub fn fmt_pair(tinit: f64, tcomp: f64) -> String {
    format!("{tinit:.1} + {tcomp:.1} s")
}

/// Format a speedup factor.
#[must_use]
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.1} x")
}

/// Parse a simple `--flag value` style argument list.
#[must_use]
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare flag is present.
#[must_use]
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_all_ten_depths() {
        let depths: Vec<usize> = PAPER_TABLE1.iter().map(|r| r.0).collect();
        assert_eq!(depths, axnn::resnet::TABLE1_DEPTHS.to_vec());
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--images", "100", "--measure"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(arg_value(&args, "--images").as_deref(), Some("100"));
        assert_eq!(arg_value(&args, "--sample"), None);
        assert!(has_flag(&args, "--measure"));
        assert!(!has_flag(&args, "--verbose"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_pair(1.8, 0.25), "1.8 + 0.2 s");
        assert_eq!(fmt_speedup(206.33), "206.3 x");
    }
}
