//! `serve_bench` — the serving-throughput sweep behind `BENCH_serve.json`.
//!
//! Sweeps offered load (client threads) × batch budget against one
//! `ServeEngine`, plus tenants × offered load against a multi-tenant
//! registry-backed engine, next to a serial `Session::infer` baseline,
//! and writes the `tfapprox-bench-serve/4`
//! report (with p50/p95/p99 latency per sweep point). Pass `--quick`
//! (or set `BENCH_SERVE_QUICK=1`) for the CI smoke sweep;
//! `BENCH_SERVE_OUT` overrides the output path.

use tfapprox_bench::serve_bench;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_SERVE_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let report = serve_bench::run_suite(quick);

    println!(
        "serial baseline: {} requests, {:.1} images/s",
        report.serial.requests, report.serial.images_per_second
    );
    println!(
        "{:>7} {:>6} {:>6} {:>9} {:>10} {:>11} {:>8} {:>6}",
        "clients", "budget", "shards", "occupancy", "images/s", "vs-budget1", "batches", "nfused"
    );
    for s in &report.samples {
        println!(
            "{:>7} {:>6} {:>6} {:>9.2} {:>10.1} {:>10.2}x {:>8} {:>6}",
            s.clients,
            s.max_batch_images,
            s.shards,
            s.mean_occupancy,
            s.images_per_second,
            serve_bench::speedup_vs_single_request(&report, s),
            s.batches,
            s.fused_batches,
        );
    }

    println!(
        "{:>7} {:>7} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "tenants", "clients", "occupancy", "images/s", "p50 ms", "p95 ms", "p99 ms"
    );
    for t in &report.tenant_samples {
        println!(
            "{:>7} {:>7} {:>9.2} {:>10.1} {:>9.2} {:>9.2} {:>9.2}",
            t.tenants,
            t.clients,
            t.mean_occupancy,
            t.images_per_second,
            t.p50_s * 1e3,
            t.p95_s * 1e3,
            t.p99_s * 1e3,
        );
    }

    let path = serve_bench::default_out_path();
    serve_bench::write_report(&path, &report, quick).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
