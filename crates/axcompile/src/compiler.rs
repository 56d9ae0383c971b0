//! The netlist → LUT compilation pipeline.

use crate::CompileError;
use axcircuit::cost::{self, HardwareCost};
use axcircuit::equiv::{self, Equivalence};
use axcircuit::truth::TruthTable;
use axcircuit::{CircuitError, Netlist};
use axmult::{AxMultiplier, ErrorMetrics, MulLut, MultError, Signedness};

/// Number of LUT entries for an 8×8 multiplier (2¹⁶ operand pairs).
const N_ENTRIES: usize = 1 << 16;
/// Bit-parallel sweeps needed to cover the full space (64 pairs per sweep).
const N_SWEEPS: usize = N_ENTRIES / 64;

/// Something that can run a batch of independent jobs to completion.
///
/// The compiler shards the 2¹⁶-entry sweep into independent jobs; how they
/// run is the caller's business. [`SerialExecutor`] runs them inline;
/// `tfapprox::compile::PoolExecutor` implements it over the persistent
/// `WorkerPool`, so compilation rides the same threads that serve
/// inference.
pub trait Executor {
    /// Run every job to completion before returning.
    fn run_jobs<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>);
}

/// Runs jobs inline on the calling thread. The zero-dependency default.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn run_jobs<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        for job in jobs {
            job();
        }
    }
}

/// Fill `entries` with output words for the stitched indices
/// `base0 .. base0 + entries.len()`, 64 per bit-parallel sweep.
///
/// Input bit `k` of the lane carrying index `i` is bit `k` of `i` — the
/// same packing as `TruthTable::from_netlist`, so shards concatenate into
/// the exact table the unsharded path produces.
fn fill_range(nl: &Netlist, base0: usize, entries: &mut [u32]) -> Result<(), CircuitError> {
    let n_bits = nl.n_inputs() as usize;
    let mut lanes = vec![0u64; n_bits];
    let mut off = 0usize;
    while off < entries.len() {
        let base = base0 + off;
        let lanes_used = 64usize.min(entries.len() - off);
        for (k, lane) in lanes.iter_mut().enumerate() {
            let mut v = 0u64;
            for l in 0..lanes_used {
                if ((base + l) >> k) & 1 == 1 {
                    v |= 1 << l;
                }
            }
            *lane = v;
        }
        let out = nl.eval_lanes(&lanes)?;
        for l in 0..lanes_used {
            let mut word = 0u32;
            for (bit, &ow) in out.iter().enumerate() {
                if (ow >> l) & 1 == 1 {
                    word |= 1 << bit;
                }
            }
            entries[off + l] = word;
        }
        off += lanes_used;
    }
    Ok(())
}

/// How a compiled multiplier came to be: sizes, sharding, verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReport {
    /// Gate count of the source netlist.
    pub gates: usize,
    /// Logic depth of the source netlist.
    pub depth: u32,
    /// Bit-parallel sweeps evaluated (1024 for the full 2¹⁶ space).
    pub sweeps: usize,
    /// Shards the sweep was split into.
    pub shards: usize,
    /// Whether the sharded result was diffed against the single-threaded
    /// golden sweep (always true for an admitted multiplier).
    pub lut_verified: bool,
    /// Whether an `equiv::check` against a reference netlist also ran.
    pub equiv_verified: bool,
}

/// A netlist staged for compilation into an [`AxMultiplier`].
///
/// ```
/// use axcompile::{CompileRequest, SerialExecutor};
/// use axmult::Signedness;
///
/// # fn main() -> Result<(), axcompile::CompileError> {
/// let nl = axcircuit::approx::truncated_unsigned(8, 4)?;
/// let compiled = CompileRequest::new(&nl, "doc_trunc4_example", Signedness::Unsigned)
///     .run(&SerialExecutor)?;
/// assert_eq!(compiled.multiplier().lut().product(16, 16), 256);
/// assert!(!compiled.metrics().is_exact());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompileRequest<'a> {
    netlist: &'a Netlist,
    name: String,
    description: Option<String>,
    signedness: Signedness,
    shards: usize,
    reference: Option<&'a Netlist>,
}

impl<'a> CompileRequest<'a> {
    /// Stage `netlist` for compilation under `name`.
    #[must_use]
    pub fn new(netlist: &'a Netlist, name: impl Into<String>, signedness: Signedness) -> Self {
        CompileRequest {
            netlist,
            name: name.into(),
            description: None,
            signedness,
            shards: 8,
            reference: None,
        }
    }

    /// Human description for the catalog entry. Defaults to a summary of
    /// the netlist (gate count and depth).
    #[must_use]
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Number of shards to split the 1024-sweep evaluation into (clamped
    /// to `1..=1024`). Default 8.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Additionally require exhaustive equivalence to `reference` (via
    /// [`axcircuit::equiv::check`]) before admission. Use this to pin a
    /// hand-written netlist against a generator-built one.
    #[must_use]
    pub fn verify_against(mut self, reference: &'a Netlist) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Compile: exhaustively evaluate all 2¹⁶ operand pairs (sharded over
    /// `exec`), verify against the single-threaded golden sweep (and the
    /// reference netlist, if any), attach hardware cost and error metrics.
    ///
    /// # Errors
    ///
    /// - [`CompileError::Shape`] unless the netlist declares exactly two
    ///   8-bit operands and `1..=32` outputs.
    /// - [`CompileError::NotEquivalent`] if a reference was supplied and
    ///   the netlist disagrees with it anywhere.
    /// - [`CompileError::Mismatch`] if the sharded sweep disagrees with
    ///   the golden sweep (a compiler bug, never bad input).
    /// - [`CompileError::Circuit`] / [`CompileError::Mult`] for bubbled-up
    ///   evaluation and LUT-conversion failures.
    pub fn run(self, exec: &impl Executor) -> Result<CompiledMultiplier, CompileError> {
        let nl = self.netlist;
        if nl.operand_widths() != [8, 8] || nl.outputs().is_empty() || nl.outputs().len() > 32 {
            return Err(CompileError::Shape {
                widths: nl.operand_widths().to_vec(),
                outputs: nl.outputs().len(),
            });
        }
        if let Some(reference) = self.reference {
            match equiv::check(nl, reference)? {
                Equivalence::Equal => {}
                Equivalence::Differs { input, left, right } => {
                    return Err(CompileError::NotEquivalent { input, left, right });
                }
            }
        }

        // Sharded exhaustive sweep: each shard owns a contiguous,
        // sweep-aligned slice of the stitched index space.
        let shards = self.shards.clamp(1, N_SWEEPS);
        let sweeps_per_shard = N_SWEEPS.div_ceil(shards);
        let chunk = sweeps_per_shard * 64;
        let mut entries = vec![0u32; N_ENTRIES];
        let n_jobs = N_ENTRIES.div_ceil(chunk);
        let mut shard_errors: Vec<Option<CircuitError>> = vec![None; n_jobs];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = entries
            .chunks_mut(chunk)
            .zip(shard_errors.iter_mut())
            .enumerate()
            .map(|(i, (slice, slot))| {
                let base0 = i * chunk;
                Box::new(move || {
                    if let Err(e) = fill_range(nl, base0, slice) {
                        *slot = Some(e);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        exec.run_jobs(jobs);
        if let Some(e) = shard_errors.into_iter().flatten().next() {
            return Err(e.into());
        }

        // Golden diff: the unsharded reference path must agree entry for
        // entry before the LUT is admitted.
        let golden = TruthTable::from_netlist(nl)?;
        if let Some(index) = (0..N_ENTRIES).find(|&i| entries[i] != golden.entries()[i]) {
            return Err(CompileError::Mismatch {
                index,
                got: entries[index],
                expected: golden.entries()[index],
            });
        }

        let tt = TruthTable::from_parts(entries, 8, 8, golden.width_out())?;
        let lut = MulLut::from_truth_table(&tt, self.signedness)?;
        let cost: HardwareCost = cost::evaluate(nl);
        let metrics = ErrorMetrics::of_lut(&lut);
        let description = self.description.unwrap_or_else(|| {
            format!(
                "compiled {} netlist: {} gates, depth {}",
                self.signedness,
                nl.n_gates(),
                nl.depth()
            )
        });
        let report = CompileReport {
            gates: nl.n_gates(),
            depth: nl.depth(),
            sweeps: N_SWEEPS,
            shards: n_jobs,
            lut_verified: true,
            equiv_verified: self.reference.is_some(),
        };
        Ok(CompiledMultiplier {
            multiplier: AxMultiplier::new(self.name, description, lut, Some(cost)),
            metrics,
            report,
        })
    }
}

/// A catalog-grade multiplier produced by [`CompileRequest::run`].
#[derive(Debug, Clone)]
pub struct CompiledMultiplier {
    multiplier: AxMultiplier,
    metrics: ErrorMetrics,
    report: CompileReport,
}

impl CompiledMultiplier {
    /// The compiled catalog entry (name, description, LUT, hardware cost).
    #[must_use]
    pub fn multiplier(&self) -> &AxMultiplier {
        &self.multiplier
    }

    /// Consume into the catalog entry.
    #[must_use]
    pub fn into_multiplier(self) -> AxMultiplier {
        self.multiplier
    }

    /// Full-input-space error metrics of the compiled LUT.
    #[must_use]
    pub fn metrics(&self) -> &ErrorMetrics {
        &self.metrics
    }

    /// How the compilation went: sizes, sharding, verification.
    #[must_use]
    pub fn report(&self) -> &CompileReport {
        &self.report
    }

    /// Register the compiled multiplier in the process-wide
    /// [`axmult::registry`], making it resolvable by name everywhere a
    /// catalog name is accepted.
    ///
    /// # Errors
    ///
    /// Returns [`MultError::DuplicateMultiplier`] if the name is taken.
    pub fn register(&self) -> Result<(), MultError> {
        axmult::registry::register(self.multiplier.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcircuit::approx;
    use axcircuit::builder::MultiplierSpec;

    fn compile_serial(nl: &Netlist, name: &str) -> Result<CompiledMultiplier, CompileError> {
        CompileRequest::new(nl, name, Signedness::Unsigned).run(&SerialExecutor)
    }

    #[test]
    fn compiled_exact_matches_exact_lut() {
        let nl = approx::exact_unsigned(8).unwrap();
        let compiled = compile_serial(&nl, "cmp_test_exact").unwrap();
        assert_eq!(
            *compiled.multiplier().lut(),
            MulLut::exact(Signedness::Unsigned)
        );
        assert!(compiled.metrics().is_exact());
        let report = compiled.report();
        assert_eq!(report.sweeps, 1024);
        assert!(report.lut_verified);
        assert!(!report.equiv_verified);
        assert_eq!(report.gates, nl.n_gates());
    }

    #[test]
    fn compiled_signed_exact_matches_exact_lut() {
        let nl = approx::exact_signed(8).unwrap();
        let compiled = CompileRequest::new(&nl, "cmp_test_sexact", Signedness::Signed)
            .run(&SerialExecutor)
            .unwrap();
        assert_eq!(
            *compiled.multiplier().lut(),
            MulLut::exact(Signedness::Signed)
        );
    }

    #[test]
    fn sharding_is_invisible_in_the_result() {
        let nl = approx::broken_array_unsigned(8, 6, 1).unwrap();
        let one = CompileRequest::new(&nl, "cmp_test_s1", Signedness::Unsigned)
            .with_shards(1)
            .run(&SerialExecutor)
            .unwrap();
        for shards in [3usize, 8, 64, 1024, 5000] {
            let many = CompileRequest::new(&nl, "cmp_test_sn", Signedness::Unsigned)
                .with_shards(shards)
                .run(&SerialExecutor)
                .unwrap();
            assert_eq!(
                many.multiplier().lut(),
                one.multiplier().lut(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn non_8x8_shapes_rejected() {
        let nl = MultiplierSpec::unsigned(4, 4).build().unwrap();
        let err = compile_serial(&nl, "cmp_test_4x4").unwrap_err();
        assert!(matches!(err, CompileError::Shape { ref widths, .. } if widths == &[4, 4]));
        // No outputs declared is also a shape error, not a panic.
        let empty = Netlist::with_operands(&[8, 8]);
        let err = compile_serial(&empty, "cmp_test_empty").unwrap_err();
        assert!(matches!(err, CompileError::Shape { outputs: 0, .. }));
    }

    #[test]
    fn equiv_verification_accepts_equivalent_reference() {
        let nl = approx::exact_unsigned(8).unwrap();
        let reference = MultiplierSpec::unsigned(8, 8).build().unwrap();
        let compiled = CompileRequest::new(&nl, "cmp_test_eq", Signedness::Unsigned)
            .verify_against(&reference)
            .run(&SerialExecutor)
            .unwrap();
        assert!(compiled.report().equiv_verified);
    }

    #[test]
    fn equiv_verification_rejects_nonequivalent_reference() {
        let nl = approx::truncated_unsigned(8, 4).unwrap();
        let reference = approx::exact_unsigned(8).unwrap();
        let err = CompileRequest::new(&nl, "cmp_test_neq", Signedness::Unsigned)
            .verify_against(&reference)
            .run(&SerialExecutor)
            .unwrap_err();
        match err {
            CompileError::NotEquivalent { input, left, right } => {
                // The witness must be real: re-evaluate both netlists there.
                let a = input & 0xFF;
                let b = (input >> 8) & 0xFF;
                assert_eq!(nl.eval_words(&[a, b]).unwrap(), left);
                assert_eq!(reference.eval_words(&[a, b]).unwrap(), right);
                assert_ne!(left, right);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn compiled_cost_matches_cost_model() {
        let nl = approx::truncated_unsigned(8, 2).unwrap();
        let compiled = compile_serial(&nl, "cmp_test_cost").unwrap();
        assert_eq!(compiled.multiplier().cost().unwrap(), cost::evaluate(&nl));
    }

    #[test]
    fn register_makes_name_resolvable() {
        let nl = approx::truncated_unsigned(8, 5).unwrap();
        let compiled = compile_serial(&nl, "cmp_test_registered_trunc5").unwrap();
        compiled.register().unwrap();
        let resolved = axmult::catalog::by_name("cmp_test_registered_trunc5").unwrap();
        assert_eq!(resolved.lut(), compiled.multiplier().lut());
        // Double registration of the same name is a typed error.
        assert!(matches!(
            compiled.register().unwrap_err(),
            MultError::DuplicateMultiplier { .. }
        ));
        axmult::registry::unregister("cmp_test_registered_trunc5");
    }

    #[test]
    fn parsed_text_netlist_compiles() {
        // End-to-end within the crate: text → netlist → LUT.
        let text = axcircuit::text::format(&approx::truncated_unsigned(8, 3).unwrap(), "t3");
        let nl = axcircuit::text::parse(&text).unwrap();
        let compiled = compile_serial(&nl, "cmp_test_text").unwrap();
        let direct = compile_serial(
            &approx::truncated_unsigned(8, 3).unwrap(),
            "cmp_test_direct",
        )
        .unwrap();
        assert_eq!(compiled.multiplier().lut(), direct.multiplier().lut());
    }

    #[test]
    fn default_description_mentions_the_netlist() {
        let nl = approx::exact_unsigned(8).unwrap();
        let compiled = compile_serial(&nl, "cmp_test_desc").unwrap();
        let desc = compiled.multiplier().description().to_string();
        assert!(desc.contains("gates"), "{desc}");
        let custom = CompileRequest::new(&nl, "cmp_test_desc2", Signedness::Unsigned)
            .with_description("hand written")
            .run(&SerialExecutor)
            .unwrap();
        assert_eq!(custom.multiplier().description(), "hand written");
    }
}
