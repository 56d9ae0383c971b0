//! `tfapprox-compile` — compile a textual gate-level multiplier netlist
//! into a characterized 256×256 LUT, from the command line.
//!
//! The input is the `docs/NETLIST_FORMAT.md` format (`.operands 8 8`,
//! `.gate` lines in definition order, `.outputs`). The compiler runs the
//! exhaustive 2¹⁶ operand sweep bit-parallel across a worker pool,
//! verifies the sharded result against a golden single-threaded sweep,
//! and prints the hardware-cost and error characterization a catalog
//! entry would carry. `--out` additionally writes the 128 KiB LUT in the
//! `MulLut` binary format, loadable with `axmult::MulLut::load`.
//!
//! Alternatively, `--import FILE` skips the netlist pipeline entirely
//! and registers a pre-baked 128 KiB LUT file (the `MulLut::save` /
//! EvoApprox8b binary layout) via `tfapprox::compile::import_lut_file`,
//! printing the same error characterization; truncated or oversized
//! files are a typed error, never a silently misread table.
//!
//! ```text
//! tfapprox-compile <netlist-file | -> [options]
//! tfapprox-compile --import <file.bin> [options]
//!   --name NAME    multiplier name (default: the input file stem)
//!   --signed       interpret operands as two's-complement i8 (default u8)
//!   --threads N    worker threads for the sweep (default 4)
//!   --shards N     sweep shards (default threads * 4)
//!   --out FILE     also write the (compiled or imported) LUT in MulLut
//!                  binary format
//! ```

use axmult::Signedness;
use std::process::ExitCode;
use tfapprox::compile::{CompileRequest, CompiledMultiplier, PoolExecutor};
use tfapprox::WorkerPool;

const USAGE: &str = "usage: tfapprox-compile <netlist-file | - | --import <file.bin>> \
                     [--name NAME] [--signed] [--threads N] [--shards N] [--out FILE]";

struct Options {
    input: Input,
    name: Option<String>,
    signedness: Signedness,
    threads: usize,
    shards: Option<usize>,
    out: Option<String>,
}

enum Input {
    /// A netlist file path, or `-` for stdin.
    Netlist(String),
    /// A pre-baked LUT binary to import.
    Lut(String),
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input: Option<Input> = None;
    let mut name = None;
    let mut signedness = Signedness::Unsigned;
    let mut threads = 4usize;
    let mut shards = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--name" => name = Some(value("--name")?),
            "--import" => {
                if input.is_some() {
                    return Err(format!("--import conflicts with a netlist input\n{USAGE}"));
                }
                input = Some(Input::Lut(value("--import")?));
            }
            "--signed" => signedness = Signedness::Signed,
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--shards" => {
                shards = Some(
                    value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
            }
            "--out" => out = Some(value("--out")?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if input.is_none() && !other.starts_with("--") => {
                input = Some(Input::Netlist(other.to_owned()));
            }
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Options {
        input: input.ok_or_else(|| format!("no netlist or --import file given\n{USAGE}"))?,
        name,
        signedness,
        threads,
        shards,
        out,
    })
}

fn derive_name(explicit: &Option<String>, input: &str) -> Result<String, String> {
    match explicit {
        Some(n) => Ok(n.clone()),
        None => std::path::Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .filter(|s| !s.is_empty() && s != "-")
            .ok_or_else(|| {
                "cannot derive a multiplier name from the input; pass --name".to_owned()
            }),
    }
}

/// The `--import` path: load + register a pre-baked LUT binary and print
/// its characterization (no netlist, so no cost columns).
fn run_import(opts: &Options, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let name = derive_name(&opts.name, path)?;
    let mult = tfapprox::compile::import_lut_file(path, &name, opts.signedness)?;
    println!(
        "{name}: imported {} LUT from {path} ({} bytes), registered",
        mult.signedness(),
        axmult::lut::LUT_BYTES
    );
    let m = mult.metrics();
    println!(
        "error: MAE {:.4}  WCE {}  MRE {:.6}  error-rate {:.4}  MAE% {:.4}",
        m.mae, m.wce, m.mre, m.error_rate, m.mae_percent
    );
    println!("cost:  none (imported tables carry no netlist)");
    if let Some(out) = &opts.out {
        mult.lut().save(out)?;
        println!("wrote {out} ({} bytes)", axmult::lut::LUT_BYTES);
    }
    Ok(())
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let input = match &opts.input {
        Input::Lut(path) => return run_import(opts, path),
        Input::Netlist(input) => input,
    };
    let src = if input == "-" {
        std::io::read_to_string(std::io::stdin())?
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("cannot read '{input}': {e}"))?
    };
    // Parse errors carry the 1-based source line, so a bad netlist fails
    // here with "line N: ..." rather than deep inside the sweep.
    let netlist = axcircuit::text::parse(&src)?;

    let name = derive_name(&opts.name, input)?;

    let pool = WorkerPool::new(opts.threads);
    let shards = opts.shards.unwrap_or(pool.threads() * 4);
    let compiled: CompiledMultiplier = CompileRequest::new(&netlist, &name, opts.signedness)
        .with_shards(shards)
        .run(&PoolExecutor(&pool))?;

    let report = compiled.report();
    println!("{name}: {} gates, depth {}", report.gates, report.depth);
    println!(
        "sweep: {} bit-parallel passes in {} shards, golden-verified: {}",
        report.sweeps, report.shards, report.lut_verified
    );
    let m = compiled.metrics();
    println!(
        "error: MAE {:.4}  WCE {}  MRE {:.6}  error-rate {:.4}  MAE% {:.4}",
        m.mae, m.wce, m.mre, m.error_rate, m.mae_percent
    );
    if let Some(cost) = compiled.multiplier().cost() {
        println!(
            "cost:  area {:.1}  power {:.1}  delay {:.1}  PDP {:.1}",
            cost.area,
            cost.power,
            cost.delay,
            cost.pdp()
        );
    }
    if let Some(out) = &opts.out {
        compiled.multiplier().lut().save(out)?;
        println!("wrote {out} ({} bytes)", axmult::lut::LUT_BYTES);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tfapprox-compile: {e}");
            ExitCode::FAILURE
        }
    }
}
