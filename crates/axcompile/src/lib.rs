//! Circuit-to-LUT compiler: bring-your-own approximate multipliers.
//!
//! The TFApprox paper's premise is emulating *arbitrary* approximate
//! multipliers inside DNN inference — not just a fixed catalog. This crate
//! is the bridge from a gate-level design to a servable multiplier:
//!
//! 1. **Input**: an [`axcircuit::Netlist`] — built with
//!    [`axcircuit::builder`]/[`axcircuit::approx`], or parsed from the
//!    textual format in [`axcircuit::text`].
//! 2. **Exhaustive evaluation**: all 2¹⁶ operand pairs through the
//!    bit-parallel evaluator (64 pairs per sweep, 1024 sweeps), sharded
//!    over an [`Executor`] — serial by default, the shared `WorkerPool`
//!    in the full stack.
//! 3. **Verification**: the sharded table is diffed entry-for-entry
//!    against the single-threaded golden sweep, and optionally checked
//!    equivalent to a reference netlist via [`axcircuit::equiv`].
//! 4. **Characterization**: unit-gate hardware cost
//!    ([`axcircuit::cost::evaluate`]) and full-space error metrics
//!    ([`axmult::ErrorMetrics::of_lut`]) attached.
//! 5. **Admission**: the result is a catalog-grade [`axmult::AxMultiplier`]
//!    that [`CompiledMultiplier::register`] drops into the process-wide
//!    [`axmult::registry`], after which sessions and serving resolve it by
//!    name exactly like a built-in.
//!
//! ```
//! use axcompile::{CompileRequest, SerialExecutor};
//! use axmult::Signedness;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = axcircuit::approx::broken_array_unsigned(8, 8, 0)?;
//! let compiled = CompileRequest::new(&netlist, "my_bam_v8", Signedness::Unsigned)
//!     .run(&SerialExecutor)?;
//! // Bit-identical to the built-in compiled from the same generator.
//! let builtin = axmult::catalog::by_name("mul8u_bam_v8h0")?;
//! assert_eq!(compiled.multiplier().lut(), builtin.lut());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod compiler;
mod error;

pub use compiler::{CompileReport, CompileRequest, CompiledMultiplier, Executor, SerialExecutor};
pub use error::CompileError;
