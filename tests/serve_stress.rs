//! Concurrency stress tests of the serving engine.
//!
//! N client threads hammer one `ServeEngine` with interleaved single- and
//! multi-image requests. Every test asserts the engine's three hard
//! contracts:
//!
//! 1. **No deadlock** — each test body runs under a watchdog thread and
//!    fails fast (instead of hanging the runner) if it exceeds its
//!    timeout.
//! 2. **Exactly one response per request** — every submitted request
//!    resolves exactly once; nothing is lost or duplicated.
//! 3. **Bit identity** — a served response equals serial
//!    `Session::infer` of the same input, regardless of batch
//!    composition, arrival order, flush window, or shard count.

use axnn::layers::{Conv2D, ReLU};
use axnn::Graph;
use axtensor::{rng, ConvGeometry, FilterShape, Shape4, Tensor};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;
use tfapprox::serve::{ServeConfig, ServeEngine, SessionKey, SessionRegistry};
use tfapprox::{Assignment, Backend, Error, Session};

/// Hard watchdog: run `body` on its own thread and panic if it does not
/// finish within `timeout` — a deadlocked engine fails the suite instead
/// of hanging it.
fn with_watchdog<F: FnOnce() + Send + 'static>(timeout: Duration, body: F) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => worker.join().expect("stress body panicked"),
        Err(_) => panic!("watchdog: stress body exceeded {timeout:?} — deadlock?"),
    }
}

/// A small two-conv + ReLU graph: fast enough to hammer in debug mode,
/// deep enough to exercise the transform and the chunked backends.
fn tiny_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.input();
    let f1 = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 7, -0.5, 0.5);
    let c1 = g
        .add(
            "conv1",
            Arc::new(Conv2D::new(f1, ConvGeometry::default())),
            &[x],
        )
        .unwrap();
    let r1 = g.add("relu1", Arc::new(ReLU::new()), &[c1]).unwrap();
    let f2 = rng::uniform_filter(FilterShape::new(3, 3, 3, 2), 8, -0.5, 0.5);
    let c2 = g
        .add(
            "conv2",
            Arc::new(Conv2D::new(f2, ConvGeometry::default())),
            &[r1],
        )
        .unwrap();
    g.set_output(c2).unwrap();
    g
}

/// One shared session for the whole suite (compilation is not what these
/// tests measure).
fn shared_session() -> Arc<Session> {
    static SESSION: OnceLock<Arc<Session>> = OnceLock::new();
    Arc::clone(SESSION.get_or_init(|| {
        let mult = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        Arc::new(
            Session::builder()
                .backend(Backend::CpuGemm)
                .chunk_size(4)
                .threads(2)
                .multiplier(&mult)
                .compile(&tiny_graph())
                .unwrap(),
        )
    }))
}

/// Deterministic request input: `seed` fixes the data, `images` the batch
/// size (0 is legal and exercises the shaped-empty path).
fn request(seed: u64, images: usize) -> Tensor<f32> {
    rng::uniform(Shape4::new(images, 5, 5, 2), seed, -1.0, 1.0)
}

/// Serial golden outputs for seeds `0..seeds`, one per (seed, size) used
/// by the stress clients.
fn serial_golden(session: &Session, seeds: u64) -> HashMap<(u64, usize), Tensor<f32>> {
    let mut golden = HashMap::new();
    for seed in 0..seeds {
        for images in 0..4 {
            golden.insert(
                (seed, images),
                session.infer(&request(seed, images)).unwrap(),
            );
        }
    }
    golden
}

/// The core stress body: `clients` threads × `per_client` requests of
/// interleaved sizes against one engine; every response checked for bit
/// identity and counted exactly once.
fn hammer(shards: usize, clients: usize, per_client: usize, config: ServeConfig) {
    let session = shared_session();
    let golden = serial_golden(&session, clients as u64);
    let engine = ServeEngine::new(Arc::clone(&session), config).unwrap();
    let responses: Vec<usize> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let engine = &engine;
                let golden = &golden;
                scope.spawn(move || {
                    let mut answered = 0usize;
                    for i in 0..per_client {
                        // Interleave single-image, multi-image, and the
                        // occasional zero-image request.
                        let images = [1, 2, 3, 1, 0][i % 5];
                        let seed = c as u64;
                        let out = engine
                            .infer(request(seed, images))
                            .unwrap_or_else(|e| panic!("client {c} request {i}: {e}"));
                        assert_eq!(
                            &out,
                            &golden[&(seed, images)],
                            "client {c} request {i} (images {images}) differs from serial \
                             Session::infer on {shards} shard(s)"
                        );
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total: usize = responses.iter().sum();
    assert_eq!(
        total,
        clients * per_client,
        "every request must get exactly one response"
    );
    let stats = engine.stats();
    assert_eq!(stats.requests, (clients * per_client) as u64);
    assert_eq!(stats.shed, 0, "queue was deep enough — nothing may shed");
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
}

/// The multi-tenant stress body: a registry with three tenants (the
/// anchor plus two multiplier variants), `clients` threads round-robining
/// keyed requests of interleaved sizes. Every response must be
/// bit-identical to a solo `Session::infer` on **its own** tenant's
/// session — micro-batches never mix tenants, so neither do bits.
fn hammer_multi_tenant(shards: usize, clients: usize, per_client: usize, capacity: usize) {
    let anchor = shared_session(); // mul8s_bam_v8h0
    let registry = Arc::new(SessionRegistry::new(capacity).unwrap());
    let key_anchor = registry.install("tiny", Arc::clone(&anchor)).unwrap();
    let variant = |name: &str| {
        registry
            .admit(
                "tiny",
                &Assignment::uniform(axmult::catalog::by_name(name).unwrap()),
            )
            .unwrap()
    };
    let keys: Vec<SessionKey> = vec![
        key_anchor.clone(),
        variant("mul8s_exact"),
        variant("mul8s_drum4"),
    ];
    // Independent solo sessions as goldens (not resolved through the
    // registry, so a registry bug cannot hide behind shared state).
    let solo = |name: &str| {
        let mult = axmult::catalog::by_name(name).unwrap();
        Arc::new(
            Session::builder()
                .backend(Backend::CpuGemm)
                .chunk_size(4)
                .threads(2)
                .multiplier(&mult)
                .compile(&tiny_graph())
                .unwrap(),
        )
    };
    let solos: Vec<Arc<Session>> = vec![
        Arc::clone(&anchor),
        solo("mul8s_exact"),
        solo("mul8s_drum4"),
    ];
    let mut golden: HashMap<(usize, u64, usize), Tensor<f32>> = HashMap::new();
    for (t, s) in solos.iter().enumerate() {
        for seed in 0..clients as u64 {
            for images in 0..4 {
                golden.insert((t, seed, images), s.infer(&request(seed, images)).unwrap());
            }
        }
    }

    let engine = ServeEngine::with_registry(
        Arc::clone(&registry),
        key_anchor,
        ServeConfig::new()
            .with_shards(shards)
            .with_max_batch_images(4)
            .with_flush_ticks(1)
            .with_queue_depth(4096),
    )
    .unwrap();
    thread::scope(|scope| {
        for c in 0..clients {
            let engine = &engine;
            let keys = &keys;
            let golden = &golden;
            scope.spawn(move || {
                for i in 0..per_client {
                    let tenant = (c + i) % keys.len();
                    let images = [1, 2, 3, 1, 0][i % 5];
                    let seed = c as u64;
                    let out = engine
                        .infer_to(&keys[tenant], request(seed, images))
                        .unwrap_or_else(|e| panic!("client {c} request {i}: {e}"));
                    assert_eq!(
                        &out,
                        &golden[&(tenant, seed, images)],
                        "client {c} request {i} (tenant {tenant}, images {images}) differs \
                         from its tenant's serial Session::infer on {shards} shard(s)"
                    );
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.requests, (clients * per_client) as u64);
    assert_eq!(stats.shed, 0, "queue was deep enough — nothing may shed");
    assert_eq!(stats.deadline_shed, 0, "no deadlines were set");
    assert!(stats.p50_latency_s > 0.0 && stats.p50_latency_s <= stats.p99_latency_s);
}

/// Starvation regression: a hot tenant saturating the submission queue
/// with already-expired requests must not make a cold tenant's requests
/// disappear. While the single shard is parked, the queue stays full —
/// the cold tenant's submissions come back as explicit
/// [`Error::Overloaded`] (never a silent drop), the hot tenant's
/// accepted-but-expired requests surface as deadline sheds charged to
/// *its* per-tenant row, and after the storm the cold tenant is served
/// bit-identically. Every counter is checked for exact equality with the
/// client-side tally.
#[test]
fn hot_tenant_cannot_silently_starve_cold_tenants() {
    with_watchdog(Duration::from_secs(120), || {
        const QUEUE_DEPTH: usize = 4;
        let anchor = shared_session();
        let registry = Arc::new(SessionRegistry::new(2).unwrap());
        let hot_key = registry.install("tiny", Arc::clone(&anchor)).unwrap();
        let cold_key = registry
            .admit(
                "tiny",
                &Assignment::uniform(axmult::catalog::by_name("mul8s_exact").unwrap()),
            )
            .unwrap();
        let cold_golden = {
            let mult = axmult::catalog::by_name("mul8s_exact").unwrap();
            let solo = Session::builder()
                .backend(Backend::CpuGemm)
                .chunk_size(4)
                .threads(2)
                .multiplier(&mult)
                .compile(&tiny_graph())
                .unwrap();
            solo.infer(&request(7, 2)).unwrap()
        };
        let engine = ServeEngine::with_registry(
            Arc::clone(&registry),
            hot_key.clone(),
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(1)
                .with_flush_ticks(0)
                .with_queue_depth(QUEUE_DEPTH),
        )
        .unwrap();

        // Park the single shard on a large batch: until it finishes, no
        // pops happen and the queue can only fill.
        let busy = engine.submit(request(99, 32)).unwrap();

        // The hot tenant floods with zero-budget requests — every
        // accepted one is doomed to a deadline shed at pop time. (The
        // shard may pop the parked request off the queue concurrently, so
        // occupancy at acceptance time is racy; the client-side tallies
        // below are what must reconcile exactly.)
        let mut hot_doomed = Vec::new();
        let mut hot_overloaded = 0u64;
        let mut hot_seed = 0u64;
        let mut flood = |hot_doomed: &mut Vec<_>, hot_overloaded: &mut u64| {
            // Submit until the queue rejects: on return the queue was full
            // a moment ago.
            for _ in 0..2 * QUEUE_DEPTH + 8 {
                hot_seed += 1;
                match engine.submit_within(&hot_key, request(hot_seed, 1), Duration::ZERO) {
                    Ok(t) => hot_doomed.push(t),
                    Err(Error::Overloaded { depth }) => {
                        assert_eq!(depth, QUEUE_DEPTH);
                        *hot_overloaded += 1;
                        return true;
                    }
                    Err(e) => panic!("hot flood: unexpected error {e}"),
                }
            }
            false
        };
        assert!(
            flood(&mut hot_doomed, &mut hot_overloaded),
            "a zero-budget flood must hit the queue bound"
        );

        // The cold tenant knocks while the queue is saturated: the shed
        // must be an explicit, typed error — not a vanished request. A
        // pop can race between the flood and the knock, so top up and
        // retry (bounded); accepted knocks carry no deadline and must all
        // be answered later.
        let mut cold_overloaded = 0u64;
        let mut cold_pending = Vec::new();
        let mut cold_shed_observed = false;
        for _ in 0..100 {
            assert!(flood(&mut hot_doomed, &mut hot_overloaded));
            match engine.submit_to(&cold_key, request(7, 2)) {
                Err(Error::Overloaded { depth }) => {
                    assert_eq!(depth, QUEUE_DEPTH);
                    cold_overloaded += 1;
                    cold_shed_observed = true;
                    break;
                }
                Ok(t) => cold_pending.push(t),
                Err(e) => panic!("cold tenant: unexpected error {e}"),
            }
        }
        assert!(
            cold_shed_observed,
            "a saturated queue must surface to the cold tenant as Overloaded"
        );

        // Drain the storm: the parked batch answers, every accepted hot
        // request resolves as DeadlineExceeded (exactly once each).
        assert!(busy.wait().is_ok());
        let hot_doomed_n = hot_doomed.len() as u64;
        for (i, t) in hot_doomed.into_iter().enumerate() {
            match t.wait() {
                Err(Error::DeadlineExceeded { budget }) => {
                    assert_eq!(budget, Duration::ZERO)
                }
                other => panic!("doomed hot request {i} resolved as {other:?}"),
            }
        }
        let mut cold_answered = 0u64;
        for t in cold_pending {
            let out = t.wait().expect("accepted cold knock must be answered");
            assert_eq!(out, cold_golden, "cold tenant served wrong bits");
            cold_answered += 1;
        }

        // After the storm the cold tenant is served, bit-identical to its
        // own solo session.
        loop {
            match engine.infer_to(&cold_key, request(7, 2)) {
                Ok(out) => {
                    assert_eq!(out, cold_golden, "cold tenant served wrong bits");
                    cold_answered += 1;
                    break;
                }
                Err(Error::Overloaded { .. }) => {
                    cold_overloaded += 1; // storm still draining — retry
                    thread::yield_now();
                }
                Err(e) => panic!("cold tenant retry: unexpected error {e}"),
            }
        }

        // Exact accounting under contention: every client-side outcome
        // reappears in exactly one engine counter.
        let stats = engine.stats();
        assert_eq!(stats.shed, hot_overloaded + cold_overloaded);
        assert_eq!(stats.deadline_shed, hot_doomed_n);
        assert_eq!(stats.requests, 1 + cold_answered);
        let row = |key: &SessionKey| {
            stats
                .per_tenant
                .iter()
                .find(|t| &t.key == key)
                .unwrap_or_else(|| panic!("missing per-tenant row for {key}"))
                .clone()
        };
        let hot = row(&hot_key);
        assert_eq!(
            hot.requests, 1,
            "only the parked batch answered for the hot tenant"
        );
        assert_eq!(hot.deadline_shed, hot_doomed_n);
        let cold = row(&cold_key);
        assert_eq!(cold.requests, cold_answered);
        assert_eq!(
            cold.deadline_shed, 0,
            "cold tenant never carried a deadline"
        );
        let per_tenant_sum: u64 = stats.per_tenant.iter().map(|t| t.deadline_shed).sum();
        assert_eq!(per_tenant_sum, stats.deadline_shed);
    });
}

#[test]
fn stress_multi_tenant_two_shards() {
    with_watchdog(Duration::from_secs(120), || {
        hammer_multi_tenant(2, 6, 15, 4);
    });
}

#[test]
fn stress_multi_tenant_four_shards_with_eviction_churn() {
    // Capacity 1 forces the two non-anchor tenants to evict each other
    // continuously while four shards serve all three.
    with_watchdog(Duration::from_secs(120), || {
        hammer_multi_tenant(4, 6, 12, 1);
    });
}

#[test]
fn stress_one_shard() {
    with_watchdog(Duration::from_secs(120), || {
        hammer(
            1,
            6,
            15,
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(4)
                .with_flush_ticks(1)
                .with_queue_depth(1024),
        );
    });
}

#[test]
fn stress_two_shards() {
    with_watchdog(Duration::from_secs(120), || {
        hammer(
            2,
            6,
            15,
            ServeConfig::new()
                .with_shards(2)
                .with_max_batch_images(4)
                .with_flush_ticks(1)
                .with_queue_depth(1024),
        );
    });
}

#[test]
fn stress_four_shards() {
    with_watchdog(Duration::from_secs(120), || {
        hammer(
            4,
            8,
            15,
            ServeConfig::new()
                .with_shards(4)
                .with_max_batch_images(6)
                .with_flush_ticks(2)
                .with_queue_depth(1024),
        );
    });
}

#[test]
fn async_submission_resolves_out_of_order_waits() {
    // Submit everything first, wait in reverse order: tickets are
    // independent oneshots, so wait order must not matter.
    with_watchdog(Duration::from_secs(120), || {
        let session = shared_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new().with_shards(2).with_max_batch_images(4),
        )
        .unwrap();
        let tickets: Vec<_> = (0..20)
            .map(|i| {
                let images = (i % 3) + 1;
                (
                    i as u64,
                    images,
                    engine.submit(request(i as u64, images)).unwrap(),
                )
            })
            .collect();
        for (seed, images, ticket) in tickets.into_iter().rev() {
            let out = ticket.wait().unwrap();
            assert_eq!(out, session.infer(&request(seed, images)).unwrap());
        }
    });
}

#[test]
fn zero_image_request_through_engine_matches_serial() {
    with_watchdog(Duration::from_secs(60), || {
        let session = shared_session();
        let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new()).unwrap();
        let out = engine.infer(request(3, 0)).unwrap();
        let serial = session.infer(&request(3, 0)).unwrap();
        assert_eq!(out, serial);
        assert_eq!(out.shape().n, 0);
        assert_eq!(out.shape().c, 2, "shaped-empty output, not just empty");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized segment layouts through the fused path: any request
    /// composition (zero-image segments included) run through
    /// `Session::infer_fused` directly AND through the engine's fused
    /// micro-batches stays bit-identical to serial inference.
    #[test]
    fn proptest_random_segment_layouts_fuse_bit_identically(
        sizes in proptest::collection::vec(0usize..4, 1..16),
        budget in 1usize..9,
        shards in 1usize..3,
    ) {
        let sizes_for_watchdog = sizes.clone();
        with_watchdog(Duration::from_secs(120), move || {
            let sizes = sizes_for_watchdog;
            let session = shared_session();
            let golden: Vec<Tensor<f32>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| session.infer(&request(i as u64, n)).unwrap())
                .collect();
            // Direct fused inference over the raw composition.
            let requests: Vec<Tensor<f32>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| request(i as u64, n))
                .collect();
            let fused = session.infer_fused(&requests).unwrap();
            assert_eq!(fused.len(), sizes.len());
            for (i, out) in fused.iter().enumerate() {
                assert_eq!(
                    out, &golden[i],
                    "direct infer_fused diverged on request {i} of layout {sizes:?}"
                );
            }
            // The engine path, with the composition shaped by coalescing.
            let engine = ServeEngine::new(
                Arc::clone(&session),
                ServeConfig::new()
                    .with_shards(shards)
                    .with_max_batch_images(budget)
                    .with_flush_ticks(1)
                    .with_queue_depth(4096),
            )
            .unwrap();
            let tickets: Vec<_> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (i, engine.submit(request(i as u64, n)).unwrap()))
                .collect();
            for (i, ticket) in tickets {
                assert_eq!(
                    ticket.wait().unwrap(),
                    golden[i],
                    "engine diverged on request {i} of layout {sizes:?} \
                     under budget {budget}, {shards} shard(s)"
                );
            }
            let stats = engine.stats();
            assert_eq!(stats.requests, sizes.len() as u64);
            assert!(stats.fused_batches <= stats.batches);
        });
    }

    /// Randomized arrival orders, request sizes, batch budgets, flush
    /// windows, and shard counts: every response stays bit-identical to
    /// serial inference and every ticket resolves exactly once.
    #[test]
    fn proptest_random_arrivals_stay_bit_identical(
        sizes in proptest::collection::vec(0usize..4, 1..24),
        budget in 1usize..9,
        flush in 0usize..3,
        shards in 1usize..4,
    ) {
        let sizes_for_watchdog = sizes.clone();
        with_watchdog(Duration::from_secs(120), move || {
            let session = shared_session();
            let engine = ServeEngine::new(
                Arc::clone(&session),
                ServeConfig::new()
                    .with_shards(shards)
                    .with_max_batch_images(budget)
                    .with_flush_ticks(flush)
                    .with_queue_depth(4096),
            )
            .unwrap();
            // Arrival order is the vector order; submissions are
            // immediate so coalescing composition varies per case.
            let tickets: Vec<_> = sizes_for_watchdog
                .iter()
                .enumerate()
                .map(|(i, &images)| (i as u64, images, engine.submit(request(i as u64, images)).unwrap()))
                .collect();
            let mut resolved = 0usize;
            for (seed, images, ticket) in tickets {
                let out = ticket.wait().unwrap();
                let serial = session.infer(&request(seed, images)).unwrap();
                assert_eq!(
                    out, serial,
                    "request (seed {seed}, images {images}) differs under budget \
                     {budget}, flush {flush}, shards {shards}"
                );
                resolved += 1;
            }
            assert_eq!(resolved, sizes_for_watchdog.len());
        });
    }
}
