//! Bring-your-own multipliers: the [`axcompile`] pipeline wired to the
//! emulation stack.
//!
//! This module closes the loop the paper opens — *arbitrary* approximate
//! multipliers in the MAC datapath, not just catalog entries:
//!
//! 1. Describe the multiplier as a gate-level netlist — built with
//!    [`axcircuit::builder`]/[`axcircuit::approx`], or parsed from the
//!    textual format in [`axcircuit::text`].
//! 2. Compile it here: the exhaustive 2¹⁶ sweep is sharded over the same
//!    persistent [`WorkerPool`] that runs inference (through
//!    [`PoolExecutor`], this module's [`axcompile::Executor`]), verified
//!    against the golden sweep,
//!    and characterized with hardware cost + error metrics.
//! 3. [`CompiledMultiplier::register`] it, and the custom name resolves
//!    everywhere a built-in does: [`crate::SessionBuilder::multiplier_named`],
//!    [`crate::Assignment::uniform_named`], serving keys.
//!
//! ```
//! use tfapprox::prelude::*;
//! use tfapprox::compile::compile_netlist;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = axcircuit::approx::truncated_unsigned(8, 4)?;
//! let pool = tfapprox::WorkerPool::new(2);
//! let compiled = compile_netlist(&netlist, "doc_my_trunc4", Signedness::Unsigned, &pool)?;
//! compiled.register()?;
//! // Now addressable by name, exactly like a catalog entry.
//! let assignment = Assignment::uniform_named("doc_my_trunc4")?;
//! # axmult::registry::unregister("doc_my_trunc4");
//! # let _ = assignment;
//! # Ok(())
//! # }
//! ```

use axcircuit::Netlist;
use axtensor::WorkerPool;

pub use axcompile::{
    CompileError, CompileReport, CompileRequest, CompiledMultiplier, Executor, SerialExecutor,
};
pub use axmult::Signedness;

/// A [`WorkerPool`] as the compiler's [`Executor`].
#[derive(Debug, Clone, Copy)]
pub struct PoolExecutor<'a>(pub &'a WorkerPool);

impl Executor for PoolExecutor<'_> {
    fn run_jobs<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        self.0.run(jobs);
    }
}

/// Import a pre-baked LUT file (the flat little-endian `u16[65536]`
/// layout written by [`axmult::MulLut::save`] and the original
/// `tf-approximate` tooling, e.g. the published EvoApprox8b tables) and
/// register it under `name`, so it resolves everywhere a built-in or
/// compiled multiplier does.
///
/// An imported table has no netlist, so it carries no hardware-cost
/// column — only the exhaustively computed [`axmult::ErrorMetrics`]
/// (available via [`axmult::AxMultiplier::metrics`] on the returned
/// entry).
///
/// # Errors
///
/// - [`crate::Error::Io`] if the file cannot be read.
/// - [`crate::Error::Mult`] with [`axmult::MultError::BadLutSize`] if the
///   file is truncated or oversized (anything but exactly 128 KiB), and
///   with [`axmult::MultError::DuplicateMultiplier`] if `name` is already
///   taken.
pub fn import_lut_file(
    path: impl AsRef<std::path::Path>,
    name: impl Into<String>,
    signedness: Signedness,
) -> Result<axmult::AxMultiplier, crate::Error> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let lut = axmult::MulLut::from_bytes(&bytes, signedness)?;
    let mult = axmult::AxMultiplier::new(
        name,
        format!("imported {signedness} LUT from {}", path.display()),
        lut,
        None,
    );
    axmult::registry::register(mult.clone())?;
    Ok(mult)
}

/// Compile a netlist into a catalog-grade multiplier on `pool`, sharding
/// the exhaustive sweep so every worker thread stays busy.
///
/// This is the convenience path; use [`CompileRequest`] directly for a
/// custom description, shard count, or an `equiv`-checked reference.
///
/// # Errors
///
/// See [`CompileRequest::run`].
pub fn compile_netlist(
    netlist: &Netlist,
    name: impl Into<String>,
    signedness: Signedness,
    pool: &WorkerPool,
) -> Result<CompiledMultiplier, CompileError> {
    CompileRequest::new(netlist, name, signedness)
        .with_shards(pool.threads() * 4)
        .run(&PoolExecutor(pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcircuit::approx;

    #[test]
    fn worker_pool_compile_matches_serial() {
        let nl = approx::broken_array_unsigned(8, 7, 1).unwrap();
        let pool = WorkerPool::new(4);
        let pooled = compile_netlist(&nl, "tfc_test_pool", Signedness::Unsigned, &pool).unwrap();
        let serial = CompileRequest::new(&nl, "tfc_test_serial", Signedness::Unsigned)
            .run(&SerialExecutor)
            .unwrap();
        assert_eq!(pooled.multiplier().lut(), serial.multiplier().lut());
        assert!(pooled.report().shards > 1, "pool path must shard");
    }

    #[test]
    fn import_round_trips_a_saved_lut() {
        // A table written by `MulLut::save` imports bit-identically and
        // resolves by name through the catalog, like a compiled entry.
        let dir = std::env::temp_dir().join("tfapprox_import_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bin");
        let lut = axmult::MulLut::from_fn(Signedness::Signed, |a, b| a * b - (b & 3));
        lut.save(&path).unwrap();
        let imported = import_lut_file(&path, "tfc_test_import_rt", Signedness::Signed).unwrap();
        assert_eq!(imported.lut(), &lut);
        assert_eq!(imported.cost(), None, "no netlist, no cost column");
        assert!(!imported.metrics().is_exact());
        let resolved = axmult::catalog::by_name("tfc_test_import_rt").unwrap();
        assert_eq!(resolved.lut(), &lut);
        // Re-importing under the same name is a typed duplicate error.
        let err = import_lut_file(&path, "tfc_test_import_rt", Signedness::Signed).unwrap_err();
        assert!(
            matches!(
                err,
                crate::Error::Mult(axmult::MultError::DuplicateMultiplier { .. })
            ),
            "{err}"
        );
        axmult::registry::unregister("tfc_test_import_rt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn import_rejects_wrong_sized_files() {
        let dir = std::env::temp_dir().join("tfapprox_import_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (fname, len) in [
            ("short.bin", 100usize),
            ("long.bin", axmult::lut::LUT_BYTES + 2),
        ] {
            let path = dir.join(fname);
            std::fs::write(&path, vec![0u8; len]).unwrap();
            let err =
                import_lut_file(&path, "tfc_test_import_bad", Signedness::Unsigned).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::Error::Mult(axmult::MultError::BadLutSize { got, .. }) if got == len
                ),
                "{len}: {err}"
            );
            std::fs::remove_file(&path).ok();
        }
        // A bad file must register nothing.
        assert!(axmult::registry::get("tfc_test_import_bad").is_none());
        // A missing file is a typed I/O error.
        let err = import_lut_file(
            dir.join("does_not_exist.bin"),
            "tfc_test_import_missing",
            Signedness::Unsigned,
        )
        .unwrap_err();
        assert!(matches!(err, crate::Error::Io(_)), "{err}");
    }

    #[test]
    fn registered_compile_resolves_through_by_name() {
        let nl = approx::exact_unsigned(8).unwrap();
        let pool = WorkerPool::new(2);
        let compiled =
            compile_netlist(&nl, "tfc_test_exact_reg", Signedness::Unsigned, &pool).unwrap();
        compiled.register().unwrap();
        let resolved = axmult::catalog::by_name("tfc_test_exact_reg").unwrap();
        // Bit-identical to the built-in exact multiplier.
        let builtin = axmult::catalog::by_name("mul8u_exact").unwrap();
        assert_eq!(resolved.lut(), builtin.lut());
        axmult::registry::unregister("tfc_test_exact_reg");
    }
}
