//! The serving-throughput benchmark behind `BENCH_serve.json`.
//!
//! Sweeps **offered load × batch budget** against one
//! [`tfapprox::ServeEngine`] over a compiled session, next to a serial
//! `Session::infer` baseline:
//!
//! - *offered load*: how many client threads submit their requests (each
//!   client bursts its whole request set asynchronously, then waits on
//!   every ticket — the regime where coalescing can actually bite);
//! - *batch budget*: [`ServeConfig::with_max_batch_images`] — budget 1 is
//!   the single-request serving point the batched points are compared to.
//!
//! The engine runs every micro-batch as one segment-aware fused graph
//! pass. Every (clients, budget) case records end-to-end wall-clock
//! throughput (first submission to last response), the engine's own
//! occupancy/batch/fused-batch counters, the p50/p95/p99
//! submit-to-response latency from the engine's streaming histogram, and
//! the speedup against the budget-1 case at the same offered load. A second
//! sweep — **tenants × offered load** — drives a multi-tenant engine
//! over a [`SessionRegistry`] (one multiplier variant per tenant,
//! admitted through the `reassign` plan-transplant path) and records the
//! same latency tail per point, plus the registry's hit/miss/eviction
//! counters. The `serve_bench` binary drives [`run_suite`] and writes
//! the `tfapprox-bench-serve/4` report with [`write_report`]; the
//! bench-smoke integration test validates the emitted JSON. Pass
//! `--quick` (or set `BENCH_SERVE_QUICK=1`) for a smaller sweep,
//! `BENCH_SERVE_OUT` to override the output path (default:
//! `BENCH_serve.json` at the workspace root).

use crate::json;
use axnn::layers::{Conv2D, ReLU};
use axnn::Graph;
use axtensor::{rng, ConvGeometry, FilterShape, Shape4, Tensor};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tfapprox::serve::{ServeConfig, ServeEngine, SessionKey, SessionRegistry};
use tfapprox::{Assignment, Backend, Session};

/// Images per request (every request in the sweep is the same size, so
/// occupancy in requests and in images tell the same story).
pub const IMAGES_PER_REQUEST: usize = 2;

/// The batch budgets swept (in images). Budget 1 forces one batch per
/// request — the single-request serving baseline.
pub const BUDGET_SWEEP: [usize; 3] = [1, 4, 16];

/// The offered-load sweep: client threads bursting requests.
pub const CLIENT_SWEEP: [usize; 2] = [1, 4];

/// The tenant-count sweep of the multi-tenant cases: 1 is the
/// single-tenant shim, the larger points key-partition the same offered
/// load across that many multiplier variants.
pub const TENANT_SWEEP: [usize; 3] = [1, 2, 4];

/// The multiplier each tenant serves: index 0 is the anchor (installed),
/// the rest are variants admitted through `reassign` plan transplant.
pub const TENANT_MULTIPLIERS: [&str; 4] = [
    "mul8s_bam_v8h0",
    "mul8s_exact",
    "mul8s_drum4",
    "mul8s_mitchell",
];

/// One swept serving measurement.
#[derive(Debug, Clone)]
pub struct ServeSample {
    /// Client threads submitting concurrently.
    pub clients: usize,
    /// Shard workers in the engine.
    pub shards: usize,
    /// Micro-batch image budget.
    pub max_batch_images: usize,
    /// Flush window in queue-poll ticks.
    pub flush_ticks: usize,
    /// Requests completed (all of them — the queue is sized to shed
    /// nothing).
    pub requests: u64,
    /// Images served.
    pub images: u64,
    /// Micro-batches the engine formed.
    pub batches: u64,
    /// Micro-batches that coalesced more than one request (always 0 when
    /// the budget forces single-request batches).
    pub fused_batches: u64,
    /// Mean requests per micro-batch.
    pub mean_occupancy: f64,
    /// Requests shed (must be 0 in this sweep).
    pub requests_shed: u64,
    /// Wall-clock seconds from first submission to last response.
    pub wall_s: f64,
    /// End-to-end throughput: `images / wall_s`.
    pub images_per_second: f64,
    /// The engine's own busy-time throughput ([`tfapprox::ServeStats`]).
    pub engine_images_per_second: f64,
    /// Median submit-to-response latency, in seconds.
    pub p50_s: f64,
    /// 95th-percentile submit-to-response latency, in seconds.
    pub p95_s: f64,
    /// 99th-percentile submit-to-response latency, in seconds.
    pub p99_s: f64,
}

/// One swept multi-tenant measurement: `tenants` sessions behind one
/// registry, `clients` threads round-robining keyed requests.
#[derive(Debug, Clone)]
pub struct TenantSample {
    /// Tenant sessions behind the registry (1 = the single-tenant shim).
    pub tenants: usize,
    /// Client threads submitting concurrently.
    pub clients: usize,
    /// Shard workers in the engine.
    pub shards: usize,
    /// Micro-batch image budget.
    pub max_batch_images: usize,
    /// Requests completed.
    pub requests: u64,
    /// Images served.
    pub images: u64,
    /// Micro-batches the engine formed (never mixing tenants).
    pub batches: u64,
    /// Micro-batches that coalesced more than one request.
    pub fused_batches: u64,
    /// Mean requests per micro-batch.
    pub mean_occupancy: f64,
    /// Requests shed (must be 0 in this sweep).
    pub requests_shed: u64,
    /// Wall-clock seconds from first submission to last response.
    pub wall_s: f64,
    /// End-to-end throughput: `images / wall_s`.
    pub images_per_second: f64,
    /// Median submit-to-response latency, in seconds.
    pub p50_s: f64,
    /// 95th-percentile submit-to-response latency, in seconds.
    pub p95_s: f64,
    /// 99th-percentile submit-to-response latency, in seconds.
    pub p99_s: f64,
    /// Registry lookups answered from a resident session.
    pub registry_hits: u64,
    /// Registry lookups that compiled (admissions + revivals).
    pub registry_misses: u64,
    /// Registry LRU evictions during the case.
    pub registry_evictions: u64,
}

/// The serial baseline: the same requests through `Session::infer`, one
/// at a time on one thread.
#[derive(Debug, Clone)]
pub struct SerialBaseline {
    /// Requests run.
    pub requests: u64,
    /// Images run.
    pub images: u64,
    /// Wall-clock seconds for the whole loop.
    pub wall_s: f64,
    /// `images / wall_s`.
    pub images_per_second: f64,
}

/// The whole suite: baseline plus the load × budget sweep.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Serial `Session::infer` baseline.
    pub serial: SerialBaseline,
    /// One sample per (clients, budget) point.
    pub samples: Vec<ServeSample>,
    /// One sample per (tenants, clients) point of the multi-tenant sweep.
    pub tenant_samples: Vec<TenantSample>,
    /// Replaced conv layers of the benched session's graph.
    pub conv_layers: usize,
}

/// The benchmark model: three stacked convolutions with a ReLU between —
/// big enough that a request is real work, small enough to sweep in CI.
fn bench_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.input();
    let f1 = rng::uniform_filter(FilterShape::new(3, 3, 3, 8), 31, -0.5, 0.5);
    let c1 = g
        .add(
            "conv1",
            Arc::new(Conv2D::new(f1, ConvGeometry::default())),
            &[x],
        )
        .unwrap();
    let r1 = g.add("relu1", Arc::new(ReLU::new()), &[c1]).unwrap();
    let f2 = rng::uniform_filter(FilterShape::new(3, 3, 8, 8), 32, -0.5, 0.5);
    let c2 = g
        .add(
            "conv2",
            Arc::new(Conv2D::new(f2, ConvGeometry::default().with_stride(2))),
            &[r1],
        )
        .unwrap();
    let r2 = g.add("relu2", Arc::new(ReLU::new()), &[c2]).unwrap();
    let f3 = rng::uniform_filter(FilterShape::new(3, 3, 8, 4), 33, -0.5, 0.5);
    let c3 = g
        .add(
            "conv3",
            Arc::new(Conv2D::new(f3, ConvGeometry::default())),
            &[r2],
        )
        .unwrap();
    g.set_output(c3).unwrap();
    g
}

fn bench_session() -> Arc<Session> {
    let mult = axmult::catalog::by_name("mul8s_bam_v8h0").expect("catalog");
    Arc::new(
        Session::builder()
            .backend(Backend::CpuGemm)
            .chunk_size(16)
            .multiplier(&mult)
            .compile(&bench_graph())
            .expect("bench session compiles"),
    )
}

/// Deterministic request input (4×4 activations, 3 channels — the
/// deep-thin serving regime where per-pass fixed costs are a real
/// fraction of a request, which is exactly where batching and fusion
/// are supposed to pay).
fn request(seed: u64) -> Tensor<f32> {
    rng::uniform(Shape4::new(IMAGES_PER_REQUEST, 4, 4, 3), seed, -1.0, 1.0)
}

fn serial_baseline(session: &Session, requests: usize) -> SerialBaseline {
    // Warm-up (plans are already eager; this warms caches/allocator).
    let _ = session.infer(&request(0)).expect("warmup");
    let t0 = Instant::now();
    for seed in 0..requests {
        let _ = session.infer(&request(seed as u64)).expect("serial infer");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let images = (requests * IMAGES_PER_REQUEST) as u64;
    SerialBaseline {
        requests: requests as u64,
        images,
        wall_s,
        images_per_second: if wall_s > 0.0 {
            images as f64 / wall_s
        } else {
            0.0
        },
    }
}

/// One engine measurement: `clients` threads each burst
/// `requests_per_client` submissions, then wait every ticket.
fn run_case(
    session: &Arc<Session>,
    clients: usize,
    budget: usize,
    shards: usize,
    requests_per_client: usize,
) -> ServeSample {
    let config = ServeConfig::new()
        .with_max_batch_images(budget)
        .with_flush_ticks(2)
        .with_shards(shards)
        .with_queue_depth(clients * requests_per_client + 1);
    let engine = ServeEngine::new(Arc::clone(session), config).expect("engine");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let engine = &engine;
            scope.spawn(move || {
                let tickets: Vec<_> = (0..requests_per_client)
                    .map(|i| {
                        let seed = (c * requests_per_client + i) as u64;
                        engine.submit(request(seed)).expect("queue sized to fit")
                    })
                    .collect();
                for t in tickets {
                    let _ = t.wait().expect("response");
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    ServeSample {
        clients,
        shards,
        max_batch_images: budget,
        flush_ticks: config.flush_ticks(),
        requests: stats.requests,
        images: stats.images,
        batches: stats.batches,
        fused_batches: stats.fused_batches,
        mean_occupancy: stats.mean_occupancy,
        requests_shed: stats.shed,
        wall_s,
        images_per_second: if wall_s > 0.0 {
            stats.images as f64 / wall_s
        } else {
            0.0
        },
        engine_images_per_second: stats.images_per_second,
        p50_s: stats.p50_latency_s,
        p95_s: stats.p95_latency_s,
        p99_s: stats.p99_latency_s,
    }
}

/// One multi-tenant measurement: a fresh registry with `tenants`
/// sessions (anchor + `reassign`-admitted variants), `clients` threads
/// round-robining keyed requests across the tenants.
fn run_tenant_case(
    session: &Arc<Session>,
    tenants: usize,
    clients: usize,
    shards: usize,
    requests_per_client: usize,
) -> TenantSample {
    assert!(tenants >= 1 && tenants <= TENANT_MULTIPLIERS.len());
    let registry = Arc::new(SessionRegistry::new(TENANT_MULTIPLIERS.len()).expect("capacity"));
    let anchor_key = registry
        .install("bench", Arc::clone(session))
        .expect("install anchor");
    let mut keys: Vec<SessionKey> = vec![anchor_key.clone()];
    for name in TENANT_MULTIPLIERS.iter().take(tenants).skip(1) {
        let mult = axmult::catalog::by_name(name).expect("catalog");
        keys.push(
            registry
                .admit("bench", &Assignment::uniform(mult))
                .expect("admit variant"),
        );
    }
    let budget = 8;
    let config = ServeConfig::new()
        .with_max_batch_images(budget)
        .with_flush_ticks(2)
        .with_shards(shards)
        .with_queue_depth(clients * requests_per_client + 1);
    let engine =
        ServeEngine::with_registry(Arc::clone(&registry), anchor_key, config).expect("engine");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let engine = &engine;
            let keys = &keys;
            scope.spawn(move || {
                let tickets: Vec<_> = (0..requests_per_client)
                    .map(|i| {
                        let seed = (c * requests_per_client + i) as u64;
                        let key = &keys[(c + i) % keys.len()];
                        engine
                            .submit_to(key, request(seed))
                            .expect("queue sized to fit")
                    })
                    .collect();
                for t in tickets {
                    let _ = t.wait().expect("response");
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    let rstats = registry.stats();
    TenantSample {
        tenants,
        clients,
        shards,
        max_batch_images: budget,
        requests: stats.requests,
        images: stats.images,
        batches: stats.batches,
        fused_batches: stats.fused_batches,
        mean_occupancy: stats.mean_occupancy,
        requests_shed: stats.shed,
        wall_s,
        images_per_second: if wall_s > 0.0 {
            stats.images as f64 / wall_s
        } else {
            0.0
        },
        p50_s: stats.p50_latency_s,
        p95_s: stats.p95_latency_s,
        p99_s: stats.p99_latency_s,
        registry_hits: rstats.hits,
        registry_misses: rstats.misses,
        registry_evictions: rstats.evictions,
    }
}

/// Run the full suite. `quick` shrinks the request counts for CI smoke.
#[must_use]
pub fn run_suite(quick: bool) -> SuiteReport {
    let session = bench_session();
    let requests_per_client = if quick { 8 } else { 256 };
    let serial = serial_baseline(&session, if quick { 8 } else { 256 });
    let shards = 2;
    let mut samples = Vec::new();
    for &clients in &CLIENT_SWEEP {
        for &budget in &BUDGET_SWEEP {
            samples.push(run_case(
                &session,
                clients,
                budget,
                shards,
                requests_per_client,
            ));
        }
    }
    let mut tenant_samples = Vec::new();
    for &tenants in &TENANT_SWEEP {
        for &clients in &CLIENT_SWEEP {
            tenant_samples.push(run_tenant_case(
                &session,
                tenants,
                clients,
                shards,
                requests_per_client,
            ));
        }
    }
    SuiteReport {
        serial,
        samples,
        tenant_samples,
        conv_layers: session.replaced_layers(),
    }
}

/// Speedup of `sample` against the budget-1 point at the same offered
/// load (1.0 when that point is the sample itself): the payoff of
/// coalescing requests into fused micro-batches over single-request
/// serving.
#[must_use]
pub fn speedup_vs_single_request(report: &SuiteReport, sample: &ServeSample) -> f64 {
    report
        .samples
        .iter()
        .find(|s| s.clients == sample.clients && s.max_batch_images == 1)
        .map_or(f64::NAN, |single| {
            if single.images_per_second > 0.0 {
                sample.images_per_second / single.images_per_second
            } else {
                f64::NAN
            }
        })
}

/// Render the whole report as the `tfapprox-bench-serve/4` JSON document.
#[must_use]
pub fn report_json(report: &SuiteReport, quick: bool) -> String {
    let serial = json::object(&[
        ("requests", json::integer(report.serial.requests)),
        ("images", json::integer(report.serial.images)),
        ("wall_s", json::number(report.serial.wall_s)),
        (
            "images_per_second",
            json::number(report.serial.images_per_second),
        ),
    ]);
    let cases: Vec<String> = report
        .samples
        .iter()
        .map(|s| {
            json::object(&[
                ("clients", json::integer(s.clients as u64)),
                ("shards", json::integer(s.shards as u64)),
                ("max_batch_images", json::integer(s.max_batch_images as u64)),
                ("flush_ticks", json::integer(s.flush_ticks as u64)),
                ("requests", json::integer(s.requests)),
                ("images", json::integer(s.images)),
                ("batches", json::integer(s.batches)),
                ("fused_batches", json::integer(s.fused_batches)),
                ("mean_occupancy", json::number(s.mean_occupancy)),
                ("requests_shed", json::integer(s.requests_shed)),
                ("wall_s", json::number(s.wall_s)),
                ("images_per_second", json::number(s.images_per_second)),
                (
                    "engine_images_per_second",
                    json::number(s.engine_images_per_second),
                ),
                ("p50_s", json::number(s.p50_s)),
                ("p95_s", json::number(s.p95_s)),
                ("p99_s", json::number(s.p99_s)),
                (
                    "speedup_vs_single_request",
                    json::number(speedup_vs_single_request(report, s)),
                ),
            ])
        })
        .collect();
    let tenant_cases: Vec<String> = report
        .tenant_samples
        .iter()
        .map(|s| {
            json::object(&[
                ("tenants", json::integer(s.tenants as u64)),
                ("clients", json::integer(s.clients as u64)),
                ("shards", json::integer(s.shards as u64)),
                ("max_batch_images", json::integer(s.max_batch_images as u64)),
                ("requests", json::integer(s.requests)),
                ("images", json::integer(s.images)),
                ("batches", json::integer(s.batches)),
                ("fused_batches", json::integer(s.fused_batches)),
                ("mean_occupancy", json::number(s.mean_occupancy)),
                ("requests_shed", json::integer(s.requests_shed)),
                ("wall_s", json::number(s.wall_s)),
                ("images_per_second", json::number(s.images_per_second)),
                ("p50_s", json::number(s.p50_s)),
                ("p95_s", json::number(s.p95_s)),
                ("p99_s", json::number(s.p99_s)),
                ("registry_hits", json::integer(s.registry_hits)),
                ("registry_misses", json::integer(s.registry_misses)),
                ("registry_evictions", json::integer(s.registry_evictions)),
            ])
        })
        .collect();
    json::object(&[
        ("schema", json::string("tfapprox-bench-serve/4")),
        ("mode", json::string(if quick { "quick" } else { "full" })),
        (
            "threads",
            json::integer(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        (
            "session",
            json::object(&[
                ("backend", json::string("cpu-gemm")),
                ("conv_layers", json::integer(report.conv_layers as u64)),
                (
                    "images_per_request",
                    json::integer(IMAGES_PER_REQUEST as u64),
                ),
            ]),
        ),
        ("serial", serial),
        ("cases", json::array(&cases)),
        ("tenant_cases", json::array(&tenant_cases)),
    ])
}

/// Default output path: `BENCH_serve.json` at the workspace root (or
/// `$BENCH_SERVE_OUT`).
#[must_use]
pub fn default_out_path() -> PathBuf {
    if let Ok(p) = std::env::var("BENCH_SERVE_OUT") {
        return PathBuf::from(p);
    }
    // crates/bench -> workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("BENCH_serve.json");
    p
}

/// Write the report to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report(path: &Path, report: &SuiteReport, quick: bool) -> std::io::Result<()> {
    std::fs::write(path, report_json(report, quick) + "\n")
}
