//! Approximate 8-bit multiplier models for DNN accelerator emulation.
//!
//! The TFApprox paper (DATE 2020) represents every approximate multiplier in
//! the emulated accelerator's MAC datapath by its complete truth table: a
//! 256×256 table of 16-bit products (128 kB) indexed by stitching the two
//! 8-bit operands into one 16-bit value. This crate provides:
//!
//! - [`MulLut`]: that look-up table, with binary (de)serialization in the
//!   flat little-endian `u16[65536]` layout used by the original
//!   `tf-approximate` release,
//! - [`behavioral`]: well-known behavioral approximate multiplier families
//!   (truncation, DRUM, Mitchell's logarithmic multiplier, the Kulkarni
//!   underdesigned multiplier),
//! - conversion from gate-level [`axcircuit`] netlists (array multipliers,
//!   broken-array multipliers) via their exhaustive truth tables,
//! - [`error`]: full-input-space error metrics (MAE, WCE, MRE, error rate,
//!   MSE) used to rank candidate multipliers,
//! - [`mod@catalog`]: a named catalog of ready-made multipliers with hardware
//!   cost estimates, standing in for the EvoApprox8b library,
//! - [`mod@registry`]: a process-wide registry where user-compiled
//!   multipliers (see the `axcompile` crate) are addressable by name, with
//!   [`catalog::by_name`] resolving built-ins first, then the registry.
//!
//! # Example
//!
//! ```
//! use axmult::{MulLut, Signedness};
//!
//! # fn main() -> Result<(), axmult::MultError> {
//! let exact = MulLut::exact(Signedness::Signed);
//! assert_eq!(exact.product(-128, 127), -128 * 127);
//! let bytes = exact.to_bytes();
//! assert_eq!(bytes.len(), 128 * 1024);
//! let back = MulLut::from_bytes(&bytes, Signedness::Signed)?;
//! assert_eq!(back, exact);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod behavioral;
pub mod catalog;
pub mod error;
pub mod lut;
pub mod profile;
pub mod registry;

mod err;

pub use catalog::{catalog, AxMultiplier};
pub use err::MultError;
pub use error::ErrorMetrics;
pub use lut::{MulLut, Signedness, LUT_BYTES, LUT_ENTRIES};
pub use profile::MagnitudeProfile;
