//! The accuracy-vs-power Pareto sweep behind `BENCH_pareto.json`.
//!
//! The paper's headline use case (its Table 1 analogue): for every
//! approximate multiplier, what does approximation *cost* in model
//! quality, and what does it *buy* in hardware? This suite closes the
//! emulate → serve → evaluate loop:
//!
//! - sweeps the **full multiplier catalog** — every built-in plus a
//!   circuit compiled on the spot from the committed
//!   `docs/netlists/mul8u_trunc3.nl` netlist through the
//!   [`tfapprox::compile`] pipeline — × the 3 accumulator models
//!   (`Exact`, `Saturating(12)`, `Wrapping(16)`) over a ResNet-8
//!   [`Session`] on [`SyntheticCifar10`] inputs,
//! - drives each accumulator's sweep through
//!   [`tfapprox::sweep::sweep_uniform`], so every point after the first
//!   pays [`Session::reassign`] plan transplant instead of a cold
//!   compile,
//! - scores each point's top-1 classes ([`argmax_classes`]) against the
//!   **exact-multiplier anchor of the same signedness under the same
//!   accumulator** ([`class_agreement`]) — so the exact multipliers sit
//!   at agreement 1.0 by construction, and signed/unsigned quantization
//!   differences never masquerade as approximation error,
//! - joins each point with the [`axcircuit::cost::evaluate`] unit-gate
//!   power/area model (netlist-backed entries) and the exhaustive
//!   [`axmult::ErrorMetrics`] columns (all entries; behavioral built-ins
//!   without a netlist carry *only* these), and
//! - flags the accuracy/power **Pareto frontier**: a point is on the
//!   frontier iff it has a power column and no other such point reaches
//!   agreement ≥ with power ≤ (one strictly better).
//!
//! The `pareto_bench` binary drives [`run_suite`] and writes the
//! `tfapprox-bench-pareto/1` report with [`write_report`]; the
//! bench-smoke integration test validates the emitted JSON. Pass
//! `--quick` (or set `BENCH_PARETO_QUICK=1`) for the CI smoke sweep
//! (fewer images × a multiplier subset), `--images N` to override the
//! per-point image count, and `BENCH_PARETO_OUT` to override the output
//! path (default: `BENCH_pareto.json` at the workspace root).

use crate::json;
use axmult::{AxMultiplier, ErrorMetrics, MultError, Signedness};
use axnn::dataset::{argmax_classes, class_agreement, SyntheticCifar10};
use axnn::resnet::ResNetConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tfapprox::compile::compile_netlist;
use tfapprox::sweep::sweep_uniform;
use tfapprox::{Accumulator, Backend, Session, WorkerPool};

/// Seed of the synthetic evaluation set (every run scores the same
/// images).
pub const DATASET_SEED: u64 = 2020;

/// Seed of the ResNet-8 weights (the model every point runs).
pub const MODEL_SEED: u64 = 42;

/// Images scored per sweep point in full mode.
pub const FULL_IMAGES: usize = 128;

/// Images scored per sweep point in quick (CI smoke) mode.
pub const QUICK_IMAGES: usize = 8;

/// Name under which the committed demo netlist is compiled + registered.
pub const COMPILED_NAME: &str = "mul8u_trunc3";

/// The committed gate-level netlist compiled into the sweep, proving the
/// bring-your-own-multiplier path feeds the evaluation loop.
pub const COMPILED_NETLIST: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../docs/netlists/mul8u_trunc3.nl"
));

/// The multiplier subset swept in quick mode: both exact anchors, one
/// approximate entry per signedness, and the compiled netlist.
pub const QUICK_MULTIPLIERS: [&str; 6] = [
    "mul8s_exact",
    "mul8s_bam_v8h0",
    "mul8u_exact",
    "mul8u_trunc4",
    "mul8u_drum4",
    COMPILED_NAME,
];

/// The 3 accumulator models swept, with their report labels.
pub const ACCUMULATORS: [(&str, Accumulator); 3] = [
    ("exact", Accumulator::Exact),
    ("saturating-12", Accumulator::Saturating(12)),
    ("wrapping-16", Accumulator::Wrapping(16)),
];

/// One (multiplier × accumulator) evaluation point.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Multiplier name (catalog or registered).
    pub multiplier: String,
    /// The multiplier's catalog description.
    pub description: String,
    /// `"signed"` or `"unsigned"`.
    pub signedness: Signedness,
    /// `"builtin"` for catalog entries, `"compiled"` for the netlist
    /// compiled by this suite.
    pub source: &'static str,
    /// Accumulator label (see [`ACCUMULATORS`]).
    pub accumulator: &'static str,
    /// The anchor run this point was scored against (the exact
    /// multiplier of the same signedness, same accumulator).
    pub anchor: String,
    /// Images scored.
    pub images: usize,
    /// Top-1 class agreement with the anchor in `[0, 1]`.
    pub agreement: f64,
    /// Images whose top-1 class differed from the anchor's.
    pub disagreements: usize,
    /// Exhaustive LUT error metrics (every point carries these).
    pub metrics: ErrorMetrics,
    /// Unit-gate hardware cost — `None` for behavioral built-ins with no
    /// netlist (e.g. `mul8u_udm`), which carry only error columns.
    pub cost: Option<axcircuit::cost::HardwareCost>,
    /// Inference wall-clock for this point, seconds.
    pub wall_s: f64,
    /// On the accuracy/power Pareto frontier (always `false` for points
    /// without a power column).
    pub pareto_frontier: bool,
}

/// The whole sweep: every point plus the run's fixed parameters.
#[derive(Debug, Clone)]
pub struct ParetoReport {
    /// One point per multiplier × accumulator, in sweep order.
    pub points: Vec<ParetoPoint>,
    /// Distinct multipliers swept.
    pub multipliers: usize,
    /// Replaced conv layers of the ResNet-8 session.
    pub conv_layers: usize,
    /// Images scored per point.
    pub images: usize,
}

/// The compiled-netlist sweep entry: parse + compile + register the
/// committed `mul8u_trunc3` netlist (idempotent — a prior registration
/// is reused, so tests and the bin can share a process).
///
/// # Errors
///
/// Propagates netlist parse and compile/registration failures.
pub fn compiled_entry() -> Result<AxMultiplier, Box<dyn std::error::Error>> {
    if let Some(m) = axmult::registry::get(COMPILED_NAME) {
        return Ok(m);
    }
    let netlist = axcircuit::text::parse(COMPILED_NETLIST)?;
    let threads = std::thread::available_parallelism().map_or(2, usize::from);
    let pool = WorkerPool::new(threads);
    let compiled = compile_netlist(&netlist, COMPILED_NAME, Signedness::Unsigned, &pool)?;
    match compiled.register() {
        Ok(()) => Ok(compiled.multiplier().clone()),
        // A concurrent caller registered the same netlist first.
        Err(e @ MultError::DuplicateMultiplier { .. }) => {
            axmult::registry::get(COMPILED_NAME).ok_or_else(|| e.into())
        }
        Err(e) => Err(e.into()),
    }
}

/// The sweep's multiplier list: the full catalog plus the compiled
/// entry, ordered signed-then-unsigned with each signedness group led by
/// its exact anchor — so consecutive points share signedness (maximal
/// `reassign` plan transplant) and every anchor is measured before the
/// candidates scored against it.
///
/// # Errors
///
/// Propagates catalog and netlist-compilation failures.
pub fn sweep_multipliers(quick: bool) -> Result<Vec<AxMultiplier>, Box<dyn std::error::Error>> {
    let mut mults = axmult::catalog()?;
    mults.push(compiled_entry()?);
    if quick {
        mults.retain(|m| QUICK_MULTIPLIERS.contains(&m.name()));
    }
    // Stable partition: signed before unsigned, exact anchor first
    // within each group.
    mults.sort_by_key(|m| {
        (
            m.signedness() != Signedness::Signed,
            !m.metrics().is_exact(),
        )
    });
    Ok(mults)
}

fn point_stub(mult: &AxMultiplier, accumulator: &'static str, anchor: &str) -> ParetoPoint {
    ParetoPoint {
        multiplier: mult.name().to_owned(),
        description: mult.description().to_owned(),
        signedness: mult.signedness(),
        source: if mult.name() == COMPILED_NAME {
            "compiled"
        } else {
            "builtin"
        },
        accumulator,
        anchor: anchor.to_owned(),
        images: 0,
        agreement: f64::NAN,
        disagreements: 0,
        metrics: mult.metrics(),
        cost: mult.cost(),
        wall_s: 0.0,
        pareto_frontier: false,
    }
}

/// Compute the accuracy/power frontier flags in place: a point is
/// flagged iff it has a power column and no other power-carrying point
/// weakly dominates it (agreement ≥ and power ≤, one strict). Dominance
/// is judged across the *entire* report — accumulator models compete,
/// because a deployment picks one (multiplier, accumulator) pair.
pub fn compute_frontier(points: &mut [ParetoPoint]) {
    let flags: Vec<bool> = points
        .iter()
        .map(|p| {
            let Some(pc) = p.cost else { return false };
            !points.iter().any(|q| {
                let Some(qc) = q.cost else { return false };
                q.agreement >= p.agreement
                    && qc.power <= pc.power
                    && (q.agreement > p.agreement || qc.power < pc.power)
            })
        })
        .collect();
    for (p, flag) in points.iter_mut().zip(flags) {
        p.pareto_frontier = flag;
    }
}

/// Run the full sweep. `quick` shrinks images and the multiplier set for
/// CI smoke; `images` overrides the per-point image count when `Some`.
///
/// # Errors
///
/// Propagates catalog, compile, session, and inference failures.
pub fn run_suite(
    quick: bool,
    images: Option<usize>,
) -> Result<ParetoReport, Box<dyn std::error::Error>> {
    let images = images.unwrap_or(if quick { QUICK_IMAGES } else { FULL_IMAGES });
    assert!(images > 0, "a sweep point must score at least one image");
    let mults = sweep_multipliers(quick)?;
    let input = SyntheticCifar10::new(DATASET_SEED).batch_sized(0, images);
    let graph = ResNetConfig::with_depth(8)?.build(MODEL_SEED)?;

    let mut points: Vec<ParetoPoint> = Vec::with_capacity(mults.len() * ACCUMULATORS.len());
    let mut conv_layers = 0usize;
    for (label, accumulator) in ACCUMULATORS {
        let base = Session::builder()
            .backend(Backend::CpuGemm)
            .accumulator(accumulator)
            .multiplier_named("mul8s_exact")
            .compile(&graph)?;
        conv_layers = base.replaced_layers();
        // The anchor classes of each signedness, filled in sweep order:
        // the exact entries lead their groups (see `sweep_multipliers`),
        // so an anchor is always recorded before it is needed.
        let mut anchors: [Option<Vec<u8>>; 2] = [None, None];
        let swept = sweep_uniform(&base, &mults, |_mult, session| {
            let t0 = Instant::now();
            let (outputs, _) = session.infer_batches(std::slice::from_ref(&input))?;
            let wall_s = t0.elapsed().as_secs_f64();
            Ok((argmax_classes(&outputs[0]), wall_s))
        })?;
        for (mult, (classes, wall_s)) in mults.iter().zip(swept) {
            let slot = usize::from(mult.signedness() == Signedness::Unsigned);
            if mult.metrics().is_exact() && anchors[slot].is_none() {
                anchors[slot] = Some(classes.clone());
            }
            let anchor_classes = anchors[slot]
                .as_ref()
                .expect("exact anchor precedes its signedness group");
            let anchor_name = match mult.signedness() {
                Signedness::Signed => "mul8s_exact",
                Signedness::Unsigned => "mul8u_exact",
            };
            let mut point = point_stub(mult, label, anchor_name);
            point.images = images;
            point.agreement = class_agreement(&classes, anchor_classes);
            point.disagreements = classes
                .iter()
                .zip(anchor_classes)
                .filter(|(a, b)| a != b)
                .count();
            point.wall_s = wall_s;
            points.push(point);
        }
    }
    compute_frontier(&mut points);
    Ok(ParetoReport {
        multipliers: mults.len(),
        conv_layers,
        images,
        points,
    })
}

/// Check the report's acceptance invariants, returning the first
/// violation: exact multipliers at agreement 1.0, agreements in
/// `[0, 1]`, and no flagged point dominated by another.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_invariants(report: &ParetoReport) -> Result<(), String> {
    for p in &report.points {
        if !(0.0..=1.0).contains(&p.agreement) {
            return Err(format!(
                "{}/{}: agreement {} outside [0, 1]",
                p.multiplier, p.accumulator, p.agreement
            ));
        }
        if p.metrics.is_exact() && p.agreement != 1.0 {
            return Err(format!(
                "{}/{}: exact multiplier off its own anchor (agreement {})",
                p.multiplier, p.accumulator, p.agreement
            ));
        }
        if p.cost.is_none() && p.pareto_frontier {
            return Err(format!(
                "{}/{}: frontier flag without a power column",
                p.multiplier, p.accumulator
            ));
        }
    }
    for p in report.points.iter().filter(|p| p.pareto_frontier) {
        let pc = p.cost.expect("checked above");
        for q in &report.points {
            let Some(qc) = q.cost else { continue };
            if q.agreement >= p.agreement
                && qc.power <= pc.power
                && (q.agreement > p.agreement || qc.power < pc.power)
            {
                return Err(format!(
                    "flagged {}/{} is dominated by {}/{}",
                    p.multiplier, p.accumulator, q.multiplier, q.accumulator
                ));
            }
        }
    }
    Ok(())
}

fn cost_field(
    cost: Option<axcircuit::cost::HardwareCost>,
    f: impl Fn(&axcircuit::cost::HardwareCost) -> String,
) -> String {
    cost.as_ref().map_or_else(|| "null".to_owned(), f)
}

/// Render the whole report as the `tfapprox-bench-pareto/1` JSON
/// document.
#[must_use]
pub fn report_json(report: &ParetoReport, quick: bool) -> String {
    let points: Vec<String> = report
        .points
        .iter()
        .map(|p| {
            json::object(&[
                ("multiplier", json::string(&p.multiplier)),
                ("description", json::string(&p.description)),
                (
                    "signedness",
                    json::string(match p.signedness {
                        Signedness::Signed => "signed",
                        Signedness::Unsigned => "unsigned",
                    }),
                ),
                ("source", json::string(p.source)),
                ("accumulator", json::string(p.accumulator)),
                ("anchor", json::string(&p.anchor)),
                ("images", json::integer(p.images as u64)),
                ("agreement", json::number(p.agreement)),
                ("disagreements", json::integer(p.disagreements as u64)),
                ("mae", json::number(p.metrics.mae)),
                ("wce", json::integer(u64::from(p.metrics.wce))),
                ("mre", json::number(p.metrics.mre)),
                ("error_rate", json::number(p.metrics.error_rate)),
                ("mae_percent", json::number(p.metrics.mae_percent)),
                ("area", cost_field(p.cost, |c| json::number(c.area))),
                ("power", cost_field(p.cost, |c| json::number(c.power))),
                ("delay", cost_field(p.cost, |c| json::number(c.delay))),
                ("pdp", cost_field(p.cost, |c| json::number(c.pdp()))),
                (
                    "gates",
                    cost_field(p.cost, |c| json::integer(c.gates as u64)),
                ),
                ("wall_s", json::number(p.wall_s)),
                ("pareto_frontier", json::boolean(p.pareto_frontier)),
            ])
        })
        .collect();
    let accumulators: Vec<String> = ACCUMULATORS
        .iter()
        .map(|(label, _)| json::string(label))
        .collect();
    json::object(&[
        ("schema", json::string("tfapprox-bench-pareto/1")),
        ("mode", json::string(if quick { "quick" } else { "full" })),
        (
            "threads",
            json::integer(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        (
            "model",
            json::object(&[
                ("network", json::string("resnet-8")),
                ("backend", json::string("cpu-gemm")),
                ("conv_layers", json::integer(report.conv_layers as u64)),
                ("model_seed", json::integer(MODEL_SEED)),
                ("dataset", json::string("synthetic-cifar10")),
                ("dataset_seed", json::integer(DATASET_SEED)),
                ("images", json::integer(report.images as u64)),
            ]),
        ),
        (
            "anchor_policy",
            json::string(
                "exact multiplier of the same signedness under the same accumulator model",
            ),
        ),
        ("accumulators", json::array(&accumulators)),
        ("multipliers", json::integer(report.multipliers as u64)),
        ("points", json::array(&points)),
    ])
}

/// Default output path: `BENCH_pareto.json` at the workspace root (or
/// `$BENCH_PARETO_OUT`).
#[must_use]
pub fn default_out_path() -> PathBuf {
    if let Ok(p) = std::env::var("BENCH_PARETO_OUT") {
        return PathBuf::from(p);
    }
    // crates/bench -> workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("BENCH_pareto.json");
    p
}

/// Write the report to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report(path: &Path, report: &ParetoReport, quick: bool) -> std::io::Result<()> {
    std::fs::write(path, report_json(report, quick) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_order_keeps_anchors_first() {
        let mults = sweep_multipliers(false).unwrap();
        // Catalog (16) + compiled entry.
        assert_eq!(mults.len(), 17);
        assert_eq!(mults[0].name(), "mul8s_exact");
        let first_unsigned = mults
            .iter()
            .position(|m| m.signedness() == Signedness::Unsigned)
            .unwrap();
        assert_eq!(mults[first_unsigned].name(), "mul8u_exact");
        // Signed prefix, unsigned suffix: exactly one signedness flip.
        let flips = mults
            .windows(2)
            .filter(|w| w[0].signedness() != w[1].signedness())
            .count();
        assert_eq!(flips, 1);
        assert!(mults.iter().any(|m| m.name() == COMPILED_NAME));
    }

    #[test]
    fn quick_subset_contains_both_anchors() {
        let mults = sweep_multipliers(true).unwrap();
        assert_eq!(mults.len(), QUICK_MULTIPLIERS.len());
        assert!(mults.iter().any(|m| m.name() == "mul8s_exact"));
        assert!(mults.iter().any(|m| m.name() == "mul8u_exact"));
        assert!(mults.iter().any(|m| m.name() == COMPILED_NAME));
    }

    #[test]
    fn frontier_flags_are_non_dominated() {
        fn pt(name: &str, agreement: f64, power: Option<f64>) -> ParetoPoint {
            ParetoPoint {
                multiplier: name.to_owned(),
                description: String::new(),
                signedness: Signedness::Unsigned,
                source: "builtin",
                accumulator: "exact",
                anchor: "mul8u_exact".to_owned(),
                images: 1,
                agreement,
                disagreements: 0,
                metrics: ErrorMetrics::of_lut(&axmult::MulLut::exact(Signedness::Unsigned)),
                cost: power.map(|p| axcircuit::cost::HardwareCost {
                    area: p,
                    power: p,
                    delay: 1.0,
                    gates: 1,
                }),
                wall_s: 0.0,
                pareto_frontier: false,
            }
        }
        let mut points = vec![
            pt("best", 1.0, Some(10.0)),     // frontier
            pt("cheap", 0.5, Some(1.0)),     // frontier (cheapest)
            pt("dominated", 0.5, Some(5.0)), // dominated by "cheap"
            pt("costless", 0.9, None),       // no power column -> never flagged
            pt("tie", 0.5, Some(1.0)),       // equal to "cheap": neither dominates
        ];
        compute_frontier(&mut points);
        let flags: Vec<bool> = points.iter().map(|p| p.pareto_frontier).collect();
        assert_eq!(flags, [true, true, false, false, true]);
    }

    #[test]
    fn compiled_entry_is_idempotent() {
        let a = compiled_entry().unwrap();
        let b = compiled_entry().unwrap();
        assert_eq!(a.name(), COMPILED_NAME);
        assert_eq!(a.lut(), b.lut());
        assert!(a.cost().is_some(), "compiled entries carry a cost column");
        assert!(axmult::catalog::by_name(COMPILED_NAME).is_ok());
    }
}
