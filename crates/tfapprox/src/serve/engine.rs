//! The serving engine: keyed admission, micro-batch coalescing,
//! event-driven shard wakeup, and SLO-aware shedding.

use super::histogram::LatencyHistogram;
use super::registry::{SessionKey, SessionRegistry};
use crate::{Error, Session};
use axtensor::{Tensor, WorkerPool};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The unit of [`ServeConfig::flush_ticks`]: one tick is 200 µs of
/// coalescing budget. A shard holding a partial micro-batch flushes at
/// the **deadline** `first-pop time + flush_ticks × FLUSH_TICK` (or
/// earlier, if a member's SLO deadline is tighter) — it sleeps on the
/// arrival condvar until that deadline and is woken by arrivals, never
/// by a poll timer.
pub const FLUSH_TICK: Duration = Duration::from_micros(200);

/// Configuration of a [`ServeEngine`].
///
/// # Example
///
/// ```
/// use tfapprox::serve::ServeConfig;
/// let cfg = ServeConfig::new()
///     .with_max_batch_images(16)
///     .with_flush_ticks(2)
///     .with_shards(2)
///     .with_queue_depth(512);
/// assert_eq!(cfg.max_batch_images(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    max_batch_images: usize,
    flush_ticks: usize,
    shards: usize,
    queue_depth: usize,
}

impl ServeConfig {
    /// The default configuration: up to 32 images per micro-batch, a
    /// 2-tick flush deadline, one shard and a 256-request queue.
    #[must_use]
    pub fn new() -> Self {
        ServeConfig {
            max_batch_images: 32,
            flush_ticks: 2,
            shards: 1,
            queue_depth: 256,
        }
    }

    /// Image budget of one micro-batch: a shard stops coalescing once the
    /// batch holds at least this many images. A single request larger
    /// than the budget still runs (as a batch of its own).
    #[must_use]
    pub fn with_max_batch_images(mut self, max_batch_images: usize) -> Self {
        self.max_batch_images = max_batch_images;
        self
    }

    /// Flush deadline, in ticks of [`FLUSH_TICK`]: a shard holding a
    /// partial micro-batch flushes it `flush_ticks × FLUSH_TICK` after
    /// popping its first request (sooner if a member's SLO deadline is
    /// tighter). `0` flushes as soon as the queue holds no further
    /// coalescable request. The shard sleeps until the deadline and is
    /// woken by arrivals — there is no poll loop.
    #[must_use]
    pub fn with_flush_ticks(mut self, flush_ticks: usize) -> Self {
        self.flush_ticks = flush_ticks;
        self
    }

    /// Number of shard workers forming and executing micro-batches
    /// concurrently (each serves every tenant; outputs are
    /// shard-invariant).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Bound of the submission queue, in requests (shared across all
    /// tenants). Submissions beyond it are shed with
    /// [`Error::Overloaded`].
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// The micro-batch image budget.
    #[must_use]
    pub fn max_batch_images(&self) -> usize {
        self.max_batch_images
    }

    /// The flush deadline in ticks of [`FLUSH_TICK`].
    #[must_use]
    pub fn flush_ticks(&self) -> usize {
        self.flush_ticks
    }

    /// The shard-worker count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The submission-queue bound in requests.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Reject configurations that would deadlock or process nothing —
    /// the same typed-`Err`-at-the-boundary convention as
    /// [`crate::SessionBuilder`].
    fn validate(&self) -> Result<(), Error> {
        if self.max_batch_images == 0 {
            return Err(Error::Config(
                "serve max_batch_images must be positive (got 0)".to_owned(),
            ));
        }
        if self.shards == 0 {
            return Err(Error::Config(
                "serve shards must be positive (got 0)".to_owned(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(Error::Config(
                "serve queue_depth must be positive (got 0)".to_owned(),
            ));
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-tenant slice of the engine's counters, keyed by the tenant's
/// [`SessionKey`]. Rows are ordered by the key's display form
/// (`model@mult`), so snapshots are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServeStats {
    /// The tenant the counters belong to.
    pub key: SessionKey,
    /// Requests answered through batch execution for this tenant
    /// (successfully or with a batch failure).
    pub requests: u64,
    /// This tenant's requests shed at batch-formation time because their
    /// SLO deadline had already expired — the per-tenant split of
    /// [`ServeStats::deadline_shed`], so a noisy neighbour blowing its
    /// own budget is visible as *its* problem, not smeared over the tier.
    pub deadline_shed: u64,
}

/// A point-in-time snapshot of the engine's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Micro-batches formed and executed.
    pub batches: u64,
    /// Requests answered through batch execution (successfully or with a
    /// batch failure). Shed requests are counted separately.
    pub requests: u64,
    /// Images answered across all requests.
    pub images: u64,
    /// Requests shed at submission time (queue full).
    pub shed: u64,
    /// Requests shed at batch-formation time because their SLO deadline
    /// had already expired.
    pub deadline_shed: u64,
    /// Mean requests per micro-batch (`requests / batches`; 0.0 before
    /// the first batch). Occupancy above 1 means coalescing is happening.
    pub mean_occupancy: f64,
    /// Sustained serving throughput: images answered per second of shard
    /// busy time (time spent inside `infer_fused`, summed over shards).
    /// Idle gaps between batches do not dilute it.
    pub images_per_second: f64,
    /// Median submit-to-response latency of answered requests, in
    /// seconds (0.0 before the first response). Estimated from the
    /// engine's streaming [`LatencyHistogram`].
    pub p50_latency_s: f64,
    /// 95th-percentile submit-to-response latency, in seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile submit-to-response latency, in seconds — the tail
    /// that governs how much load the tier can admit under an SLO.
    pub p99_latency_s: f64,
    /// Micro-batches that coalesced more than one request into their
    /// fused graph pass (a subset of `batches`). Every batch runs fused;
    /// a single-request batch is a one-segment fused batch and is not
    /// counted here.
    pub fused_batches: u64,
    /// Per-tenant counters, ordered by the key's display form. Empty
    /// until the first request is answered or shed on a deadline.
    pub per_tenant: Vec<TenantServeStats>,
    /// The LUT-GEMM kernel arm the default tenant's session runs (a
    /// [`crate::kernel::KernelKind`] name, as [`crate::Session::kernel`]
    /// reports it), so serving throughput rows are attributable to the
    /// kernel that produced them.
    pub kernel: &'static str,
}

/// One queued request: the tenant key, its resolved session (held so an
/// LRU eviction can never invalidate an in-flight request), the input,
/// the oneshot responder, and the latency bookkeeping.
struct Request {
    key: SessionKey,
    session: Arc<Session>,
    input: Tensor<f32>,
    responder: mpsc::SyncSender<Result<Tensor<f32>, Error>>,
    submitted: Instant,
    /// The absolute SLO deadline, if the request was submitted with one.
    deadline: Option<(Instant, Duration)>,
}

impl Request {
    /// Whether this request may join `other`'s fused micro-batch: same
    /// tenant and same image shape `(h, w, c)`. Image *counts* may differ
    /// freely (zero included — an empty request is an empty segment).
    fn fuses_with(&self, other: &Request) -> bool {
        let (a, b) = (self.input.shape(), other.input.shape());
        self.key == other.key && (a.h, a.w, a.c) == (b.h, b.w, b.c)
    }
}

struct ServeQueue {
    requests: VecDeque<Request>,
    shutdown: bool,
}

/// Per-tenant counter cell behind [`Shared::tenants`].
#[derive(Default)]
struct TenantCounters {
    requests: u64,
    deadline_shed: u64,
}

/// State shared between the engine handle and its shard workers.
struct Shared {
    registry: Arc<SessionRegistry>,
    /// Kernel-arm name of the default tenant's session, snapshot at
    /// engine construction for [`ServeStats::kernel`].
    kernel: &'static str,
    default_key: SessionKey,
    config: ServeConfig,
    queue: Mutex<ServeQueue>,
    arrival: Condvar,
    batches: AtomicU64,
    fused_batches: AtomicU64,
    requests: AtomicU64,
    images: AtomicU64,
    shed: AtomicU64,
    deadline_shed: AtomicU64,
    busy_nanos: AtomicU64,
    latency: LatencyHistogram,
    /// Per-tenant counters. A mutex (not atomics) because the map grows
    /// with tenant arrivals; it is taken once per batch and per shed,
    /// never on the submit path.
    tenants: Mutex<HashMap<SessionKey, TenantCounters>>,
}

impl Shared {
    /// Answer an expired request with [`Error::DeadlineExceeded`]
    /// and drop it from the pipeline; pass a live request through.
    fn unless_expired(&self, request: Request, now: Instant) -> Option<Request> {
        match request.deadline {
            Some((at, budget)) if now >= at => {
                self.deadline_shed.fetch_add(1, Ordering::Relaxed);
                self.tenants
                    .lock()
                    .expect("serve tenant counters")
                    .entry(request.key.clone())
                    .or_default()
                    .deadline_shed += 1;
                let _ = request
                    .responder
                    .send(Err(Error::DeadlineExceeded { budget }));
                None
            }
            _ => Some(request),
        }
    }

    /// Form the next micro-batch: pop the first live request, then
    /// coalesce arrivals of the same key and image shape (see
    /// [`Request::fuses_with`]) until the image budget is met or the
    /// flush deadline — `flush_ticks × FLUSH_TICK` past the first pop,
    /// capped by the tightest member SLO deadline — passes. The shard
    /// sleeps on the arrival condvar in between: wakeups are submissions
    /// (or shutdown), not poll ticks. Returns `None` when the engine is
    /// shut down *and* the queue is drained — pending requests are
    /// always served first.
    fn next_batch(&self) -> Option<Vec<Request>> {
        let budget = self.config.max_batch_images;
        let flush_budget = FLUSH_TICK.saturating_mul(self.config.flush_ticks as u32);
        let mut q = self.queue.lock().expect("serve queue");
        // Pop the first live request (shedding expired ones), sleeping
        // while the queue is empty.
        let first = loop {
            match q.requests.pop_front() {
                Some(r) => {
                    if let Some(live) = self.unless_expired(r, Instant::now()) {
                        break live;
                    }
                }
                None => {
                    if q.shutdown {
                        return None;
                    }
                    q = self.arrival.wait(q).expect("serve wait");
                }
            }
        };
        let mut flush_at = Instant::now() + flush_budget;
        if let Some((at, _)) = first.deadline {
            flush_at = flush_at.min(at);
        }
        let mut images = first.input.shape().n;
        let mut batch = vec![first];
        loop {
            // Drain every queued request that fuses with the first (front
            // to back; other tenants' and other shapes' requests keep
            // their positions).
            let now = Instant::now();
            let mut i = 0;
            while images < budget && i < q.requests.len() {
                if q.requests[i].fuses_with(&batch[0]) {
                    let r = q.requests.remove(i).expect("index in range");
                    if let Some(live) = self.unless_expired(r, now) {
                        images += live.input.shape().n;
                        if let Some((at, _)) = live.deadline {
                            flush_at = flush_at.min(at);
                        }
                        batch.push(live);
                    }
                } else {
                    i += 1;
                }
            }
            if images >= budget || q.shutdown {
                break;
            }
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            // Event-driven wait: woken by an arrival or the deadline,
            // whichever comes first.
            let (guard, _) = self
                .arrival
                .wait_timeout(q, flush_at - now)
                .expect("serve wait");
            q = guard;
        }
        Some(batch)
    }

    /// Run one micro-batch as **one** fused [`Session::infer_fused`]
    /// graph pass and deliver per-request responses, recording each
    /// submit-to-response latency. A single request is a one-segment
    /// fused batch; segment-aware quantization keeps every member's
    /// response bit-identical to a solo run. A failed — or even
    /// panicking — batch answers every member with
    /// [`Error::BatchFailed`] and leaves the shard alive for the next
    /// batch: never a silent drop, never a dead engine.
    ///
    /// [`Session::infer_fused`]: crate::Session::infer_fused
    fn execute(&self, batch: Vec<Request>) {
        debug_assert!(
            batch.iter().all(|r| r.fuses_with(&batch[0])),
            "a micro-batch must hold one tenant and one image shape only"
        );
        let key = batch[0].key.clone();
        let session = Arc::clone(&batch[0].session);
        let mut inputs = Vec::with_capacity(batch.len());
        let mut waiters = Vec::with_capacity(batch.len());
        for r in batch {
            inputs.push(r.input);
            waiters.push((r.responder, r.submitted));
        }
        let images: usize = inputs.iter().map(|t| t.shape().n).sum();
        let t0 = Instant::now();
        // A panic escaping here would unwind the whole shard loop: the
        // pool's catch would keep the *thread* alive but the loop job
        // would be gone, and with one shard every later accepted request
        // would hang forever. Contain it at the batch boundary instead.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.infer_fused(&inputs)
        }));
        self.busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if waiters.len() > 1 {
            self.fused_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.requests
            .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        self.images.fetch_add(images as u64, Ordering::Relaxed);
        self.tenants
            .lock()
            .expect("serve tenant counters")
            .entry(key)
            .or_default()
            .requests += waiters.len() as u64;
        let failure = match result {
            Ok(Ok(outputs)) => {
                debug_assert_eq!(outputs.len(), waiters.len());
                for (out, (tx, submitted)) in outputs.into_iter().zip(waiters) {
                    // A dropped Ticket is the receiver's choice, not a
                    // lost response; ignore the send error.
                    let _ = tx.send(Ok(out));
                    self.latency.record(submitted.elapsed());
                }
                return;
            }
            Ok(Err(e)) => e.to_string(),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "batch execution panicked".to_owned());
                format!("panic: {msg}")
            }
        };
        for (tx, submitted) in waiters {
            let _ = tx.send(Err(Error::BatchFailed(failure.clone())));
            self.latency.record(submitted.elapsed());
        }
    }

    fn shard_loop(&self) {
        while let Some(batch) = self.next_batch() {
            self.execute(batch);
        }
    }
}

/// A pending response: wait on it to receive the request's output.
///
/// Each submitted request gets exactly one ticket and each ticket
/// resolves exactly once — to the output tensor or to an explicit
/// [`Error`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Tensor<f32>, Error>>,
}

impl Ticket {
    /// Block until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the engine's explicit per-request error — a failed batch,
    /// a deadline shed, or a severed response channel (a shard panicked
    /// mid-batch).
    pub fn wait(self) -> Result<Tensor<f32>, Error> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(Error::BatchFailed("response channel severed".into())))
    }
}

/// A multi-tenant serving engine: many compiled sessions from one
/// [`SessionRegistry`], one shared submission queue, shard workers with
/// event-driven wakeup, and per-request SLO deadlines.
///
/// [`ServeEngine::new`] is the single-tenant shim — it wraps one session
/// in a fresh registry under the default key, so [`ServeEngine::submit`]
/// and [`ServeEngine::infer`] keep their PR-5 shape.
/// [`ServeEngine::with_registry`] is the multi-tenant entry point:
/// submissions carry a [`SessionKey`] and coalesce per key and image
/// shape (a micro-batch never mixes tenants or shapes), so every
/// response stays **bit-identical** to a solo [`Session::infer`] of the
/// same input on that tenant's session, regardless of which tenant mix
/// shared the batch window.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfapprox::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = axnn::resnet::ResNetConfig::with_depth(8)?.build(42)?;
/// let mult = axmult::catalog::by_name("mul8s_exact")?;
/// let session = Arc::new(
///     Session::builder()
///         .backend(Backend::CpuGemm)
///         .multiplier(&mult)
///         .compile(&graph)?,
/// );
/// let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new())?;
///
/// let input = axtensor::rng::uniform(axnn::resnet::cifar_input_shape(1), 7, -1.0, 1.0);
/// let served = engine.infer(input.clone())?;
/// assert_eq!(served, session.infer(&input)?); // bit-identical to solo
/// assert!(engine.stats().p50_latency_s > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct ServeEngine {
    shared: Arc<Shared>,
    /// The shard workers live on a dedicated pool; `Drop` shuts the queue
    /// down first, so the pool's own shutdown can join them.
    pool: WorkerPool,
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.shared.config)
            .field("shards", &self.pool.threads())
            .field("default_key", &self.shared.default_key)
            .finish_non_exhaustive()
    }
}

/// The model name [`ServeEngine::new`] installs its session under.
pub const DEFAULT_MODEL: &str = "default";

impl ServeEngine {
    /// Start a single-tenant engine over one compiled session — the
    /// PR-5 surface, now a shim over a one-entry [`SessionRegistry`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a zero batch budget, shard count, or
    /// queue depth.
    pub fn new(session: Arc<Session>, config: ServeConfig) -> Result<Self, Error> {
        let registry = Arc::new(SessionRegistry::new(1)?);
        let default_key = registry.install(DEFAULT_MODEL, session)?;
        Self::with_registry(registry, default_key, config)
    }

    /// Start a multi-tenant engine over `registry`. `default_key` is the
    /// tenant [`ServeEngine::submit`]/[`ServeEngine::infer`] route to;
    /// keyed submissions ([`ServeEngine::submit_to`]) may address any
    /// key the registry can resolve.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an invalid `config` or a
    /// `default_key` the registry cannot resolve; propagates a
    /// compile-on-miss failure for the default key.
    pub fn with_registry(
        registry: Arc<SessionRegistry>,
        default_key: SessionKey,
        config: ServeConfig,
    ) -> Result<Self, Error> {
        config.validate()?;
        // Fail fast on an unservable default tenant; note its kernel arm
        // for stats attribution while we hold the session.
        let kernel = registry.session_for(&default_key)?.kernel().name();
        let shared = Arc::new(Shared {
            registry,
            kernel,
            default_key,
            config,
            queue: Mutex::new(ServeQueue {
                requests: VecDeque::new(),
                shutdown: false,
            }),
            arrival: Condvar::new(),
            batches: AtomicU64::new(0),
            fused_batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            images: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            tenants: Mutex::new(HashMap::new()),
        });
        let pool = WorkerPool::new(config.shards);
        for _ in 0..config.shards {
            let shard = Arc::clone(&shared);
            pool.submit(Box::new(move || shard.shard_loop()));
        }
        Ok(ServeEngine { shared, pool })
    }

    /// The session registry the engine serves from.
    #[must_use]
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.shared.registry
    }

    fn enqueue(
        &self,
        key: &SessionKey,
        input: Tensor<f32>,
        budget: Option<Duration>,
    ) -> Result<Ticket, Error> {
        // Admission: resolve (and compile-on-miss) before taking the
        // queue lock, so a cold tenant never stalls the submit path of
        // the hot ones.
        let session = self.shared.registry.session_for(key)?;
        let (tx, rx) = mpsc::sync_channel(1);
        let submitted = Instant::now();
        let deadline = budget.map(|b| (submitted + b, b));
        {
            let mut q = self.shared.queue.lock().expect("serve queue");
            if q.shutdown {
                return Err(Error::ShuttingDown);
            }
            if q.requests.len() >= self.shared.config.queue_depth {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Overloaded {
                    depth: self.shared.config.queue_depth,
                });
            }
            q.requests.push_back(Request {
                key: key.clone(),
                session,
                input,
                responder: tx,
                submitted,
                deadline,
            });
        }
        self.shared.arrival.notify_all();
        Ok(Ticket { rx })
    }

    /// Submit one request (a batch tensor of zero or more images) to the
    /// default tenant and get a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overloaded`] if the bounded queue is full —
    /// explicit backpressure at submission time — or
    /// [`Error::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: Tensor<f32>) -> Result<Ticket, Error> {
        let key = self.shared.default_key.clone();
        self.enqueue(&key, input, None)
    }

    /// Submit one request to the tenant `key` addresses. The request
    /// coalesces only with requests of the same key — a micro-batch
    /// never mixes tenants — and if the key's session was evicted it is
    /// recompiled on admission (the key carries its resolved
    /// multipliers).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit`], plus [`Error::Config`] for a key
    /// whose model is not installed in the registry, and any
    /// compile-on-miss failure.
    pub fn submit_to(&self, key: &SessionKey, input: Tensor<f32>) -> Result<Ticket, Error> {
        self.enqueue(key, input, None)
    }

    /// Submit with an SLO latency budget: if the request is still
    /// waiting when a shard would start its micro-batch and `budget` has
    /// already elapsed, it is shed with [`Error::DeadlineExceeded`]
    /// instead of burning compute on a response the caller has given up
    /// on. A pending deadline also tightens its batch's flush deadline,
    /// so a tight-SLO request is never parked for the full flush window.
    ///
    /// The deadline bounds *queue wait*, not execution: a request whose
    /// batch has started executes to completion.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_to`]; the deadline itself surfaces on
    /// the [`Ticket`], not here.
    pub fn submit_within(
        &self,
        key: &SessionKey,
        input: Tensor<f32>,
        budget: Duration,
    ) -> Result<Ticket, Error> {
        self.enqueue(key, input, Some(budget))
    }

    /// Submit one request to the default tenant and block for its
    /// response — the synchronous convenience over
    /// [`ServeEngine::submit`] + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit`] and [`Ticket::wait`].
    pub fn infer(&self, input: Tensor<f32>) -> Result<Tensor<f32>, Error> {
        self.submit(input)?.wait()
    }

    /// Submit to a tenant key and block for the response — the
    /// synchronous convenience over [`ServeEngine::submit_to`] +
    /// [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit_to`] and [`Ticket::wait`].
    pub fn infer_to(&self, key: &SessionKey, input: Tensor<f32>) -> Result<Tensor<f32>, Error> {
        self.submit_to(key, input)?.wait()
    }

    /// Snapshot the engine's counters, including the latency
    /// percentiles of every answered request and the per-tenant
    /// request/shed split.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let batches = self.shared.batches.load(Ordering::Relaxed);
        let requests = self.shared.requests.load(Ordering::Relaxed);
        let images = self.shared.images.load(Ordering::Relaxed);
        let busy_s = self.shared.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let mut per_tenant: Vec<TenantServeStats> = self
            .shared
            .tenants
            .lock()
            .expect("serve tenant counters")
            .iter()
            .map(|(key, c)| TenantServeStats {
                key: key.clone(),
                requests: c.requests,
                deadline_shed: c.deadline_shed,
            })
            .collect();
        per_tenant.sort_by_key(|t| t.key.to_string());
        ServeStats {
            batches,
            requests,
            images,
            shed: self.shared.shed.load(Ordering::Relaxed),
            deadline_shed: self.shared.deadline_shed.load(Ordering::Relaxed),
            mean_occupancy: if batches == 0 {
                0.0
            } else {
                requests as f64 / batches as f64
            },
            images_per_second: if busy_s > 0.0 {
                images as f64 / busy_s
            } else {
                0.0
            },
            p50_latency_s: self.shared.latency.quantile_seconds(0.50),
            p95_latency_s: self.shared.latency.quantile_seconds(0.95),
            p99_latency_s: self.shared.latency.quantile_seconds(0.99),
            fused_batches: self.shared.fused_batches.load(Ordering::Relaxed),
            per_tenant,
            kernel: self.shared.kernel,
        }
    }
}

impl Drop for ServeEngine {
    /// Graceful shutdown: refuse new submissions, let the shard workers
    /// drain and answer every pending request, then join them (via the
    /// pool's own shutdown, which runs after this body).
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("serve queue");
            q.shutdown = true;
        }
        self.shared.arrival.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, Backend, Session};
    use axnn::layers::{Conv2D, ReLU};
    use axnn::Graph;
    use axtensor::{rng, ConvGeometry, FilterShape, Shape4};

    /// A tiny two-conv graph: fast enough for debug-mode tests while
    /// still exercising the transform (two AxConv2D + observers).
    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input();
        let f1 = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 11, -0.5, 0.5);
        let c1 = g
            .add(
                "conv1",
                Arc::new(Conv2D::new(f1, ConvGeometry::default())),
                &[x],
            )
            .unwrap();
        let r1 = g.add("relu1", Arc::new(ReLU::new()), &[c1]).unwrap();
        let f2 = rng::uniform_filter(FilterShape::new(3, 3, 3, 2), 12, -0.5, 0.5);
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

    fn tiny_session_with(mult_name: &str) -> Arc<Session> {
        let mult = axmult::catalog::by_name(mult_name).unwrap();
        Arc::new(
            Session::builder()
                .backend(Backend::CpuGemm)
                .chunk_size(4)
                .threads(2)
                .multiplier(&mult)
                .compile(&tiny_graph())
                .unwrap(),
        )
    }

    fn tiny_session() -> Arc<Session> {
        tiny_session_with("mul8s_exact")
    }

    fn input(seed: u64, n: usize) -> Tensor<f32> {
        rng::uniform(Shape4::new(n, 5, 5, 2), seed, -1.0, 1.0)
    }

    #[test]
    fn config_validation_rejects_zeros() {
        let session = tiny_session();
        for cfg in [
            ServeConfig::new().with_max_batch_images(0),
            ServeConfig::new().with_shards(0),
            ServeConfig::new().with_queue_depth(0),
        ] {
            let err = ServeEngine::new(Arc::clone(&session), cfg).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
    }

    #[test]
    fn served_response_is_bit_identical_to_solo_infer() {
        let session = tiny_session();
        let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new()).unwrap();
        for seed in 0..4 {
            let x = input(seed, 2);
            let served = engine.infer(x.clone()).unwrap();
            assert_eq!(served, session.infer(&x).unwrap(), "seed {seed}");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.images, 8);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.deadline_shed, 0);
        assert!(stats.batches >= 1);
        assert!(stats.images_per_second > 0.0);
    }

    #[test]
    fn coalescing_batches_queued_requests() {
        let session = tiny_session();
        // One shard and a generous flush deadline: requests submitted
        // before it passes coalesce into few batches.
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new()
                .with_max_batch_images(8)
                .with_flush_ticks(50),
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..8)
            .map(|s| engine.submit(input(s, 1)).unwrap())
            .collect();
        for (s, t) in tickets.into_iter().enumerate() {
            let out = t.wait().unwrap();
            assert_eq!(out, session.infer(&input(s as u64, 1)).unwrap());
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 8);
        assert!(
            stats.batches < 8,
            "expected coalescing, got {} batches for 8 requests",
            stats.batches
        );
        assert!(stats.mean_occupancy > 1.0);
    }

    #[test]
    fn full_queue_sheds_with_explicit_error() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new()
                .with_queue_depth(2)
                .with_max_batch_images(1)
                .with_shards(1),
        )
        .unwrap();
        // A large first request keeps the single shard busy while the
        // queue fills behind it.
        let busy = engine.submit(input(99, 32)).unwrap();
        let mut held = Vec::new();
        let mut shed = 0usize;
        for s in 0..12 {
            match engine.submit(input(s, 1)) {
                Ok(t) => held.push((s, t)),
                Err(Error::Overloaded { depth }) => {
                    assert_eq!(depth, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "queue depth 2 must shed under a burst of 12");
        assert!(engine.stats().shed >= shed as u64);
        // Every accepted request still resolves, bit-identically.
        assert!(busy.wait().is_ok());
        for (s, t) in held {
            assert_eq!(t.wait().unwrap(), session.infer(&input(s, 1)).unwrap());
        }
    }

    #[test]
    fn drop_drains_pending_requests() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new().with_max_batch_images(4),
        )
        .unwrap();
        let tickets: Vec<(u64, Ticket)> = (0..6)
            .map(|s| (s, engine.submit(input(s, 1)).unwrap()))
            .collect();
        drop(engine); // graceful: answers everything before joining
        for (s, t) in tickets {
            assert_eq!(t.wait().unwrap(), session.infer(&input(s, 1)).unwrap());
        }
    }

    #[test]
    fn zero_image_request_resolves_with_shaped_empty_output() {
        let session = tiny_session();
        let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new()).unwrap();
        let out = engine.infer(input(1, 0)).unwrap();
        assert_eq!(out.shape().n, 0);
        assert_eq!(out, session.infer(&input(1, 0)).unwrap());
        let stats = engine.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.images, 0);
    }

    #[test]
    fn oversized_request_still_runs_as_its_own_batch() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new().with_max_batch_images(2),
        )
        .unwrap();
        let x = input(5, 7); // far over the 2-image budget
        assert_eq!(engine.infer(x.clone()).unwrap(), session.infer(&x).unwrap());
    }

    #[test]
    fn failed_batch_answers_every_member_and_engine_survives() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(8)
                .with_flush_ticks(20),
        )
        .unwrap();
        // A request whose channel count mismatches the graph fails its
        // own micro-batch — it never shares one with a well-shaped
        // neighbour — and hears so explicitly.
        let x = input(21, 2);
        let t_before = engine.submit(x.clone()).unwrap();
        let bad = Tensor::<f32>::zeros(Shape4::new(1, 5, 5, 7));
        let t_bad = engine.submit(bad).unwrap();
        let t_after = engine.submit(x.clone()).unwrap();
        let err = t_bad.wait().unwrap_err();
        assert!(matches!(err, Error::BatchFailed(_)), "{err}");
        // Its neighbours and the single shard are unharmed.
        let golden = session.infer(&x).unwrap();
        assert_eq!(t_before.wait().unwrap(), golden);
        assert_eq!(t_after.wait().unwrap(), golden);
        assert_eq!(engine.infer(x).unwrap(), golden);
    }

    #[test]
    fn panicking_batch_answers_failed_and_engine_survives() {
        use axnn::layer::Layer;
        use axnn::NnError;

        /// A layer that panics when any forwarded tensor holds a negative
        /// value — a stand-in for an internal invariant violation.
        #[derive(Debug)]
        struct PanicOnNegative;
        impl Layer for PanicOnNegative {
            fn op_name(&self) -> &str {
                "PanicOnNegative"
            }
            fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
                Ok(inputs[0])
            }
            fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
                assert!(
                    inputs[0].as_slice().iter().all(|&v| v >= 0.0),
                    "negative activation"
                );
                Ok(inputs[0].clone())
            }
        }

        let mut g = Graph::new();
        let x = g.input();
        let trap = g.add("trap", Arc::new(PanicOnNegative), &[x]).unwrap();
        let f = rng::uniform_filter(FilterShape::new(3, 3, 2, 2), 5, -0.5, 0.5);
        let c = g
            .add(
                "conv",
                Arc::new(Conv2D::new(f, ConvGeometry::default())),
                &[trap],
            )
            .unwrap();
        g.set_output(c).unwrap();
        let mult = axmult::catalog::by_name("mul8s_exact").unwrap();
        let session = Arc::new(
            Session::builder()
                .backend(Backend::CpuGemm)
                .multiplier(&mult)
                .compile(&g)
                .unwrap(),
        );
        let engine =
            ServeEngine::new(Arc::clone(&session), ServeConfig::new().with_shards(1)).unwrap();

        // A panicking batch must answer with an explicit Failed error…
        let poison = Tensor::<f32>::full(Shape4::new(1, 5, 5, 2), -1.0);
        let err = engine.infer(poison).unwrap_err();
        match &err {
            Error::BatchFailed(msg) => {
                assert!(msg.contains("panic"), "{msg}")
            }
            other => panic!("expected Failed, got {other}"),
        }
        // …and the single shard must keep serving afterwards.
        let ok = Tensor::<f32>::full(Shape4::new(1, 5, 5, 2), 0.5);
        assert_eq!(
            engine.infer(ok.clone()).unwrap(),
            session.infer(&ok).unwrap()
        );
    }

    #[test]
    fn fused_execution_is_bit_identical_to_solo_infer() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(16)
                .with_flush_ticks(50),
        )
        .unwrap();
        // Varied image counts (0, 1, 2) so fused batches hold empty and
        // tiny segments; solo inference is the golden.
        let count = |s: u64| (s % 3) as usize;
        let tickets: Vec<Ticket> = (0..6)
            .map(|s| engine.submit(input(s, count(s))).unwrap())
            .collect();
        for (s, t) in tickets.into_iter().enumerate() {
            let golden = session.infer(&input(s as u64, count(s as u64))).unwrap();
            assert_eq!(t.wait().unwrap(), golden, "request {s}");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 6);
        // Every multi-request batch counts as fused; coalescing itself
        // is timing-dependent, so only assert when it happened.
        if stats.batches < 6 {
            assert!(stats.fused_batches >= 1, "{stats:?}");
        }
        assert!(stats.fused_batches <= stats.batches, "{stats:?}");
    }

    #[test]
    fn shape_mixed_requests_never_share_a_batch() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(16)
                .with_flush_ticks(50),
        )
        .unwrap();
        // Same tenant, two spatial shapes, interleaved: the queue is
        // split into one batch per shape, never a mixed one, and every
        // response stays bit-identical to a solo run.
        let small = |s: u64| rng::uniform(Shape4::new(1, 5, 5, 2), s, -1.0, 1.0);
        let big = |s: u64| rng::uniform(Shape4::new(2, 7, 7, 2), s, -1.0, 1.0);
        let inputs: Vec<Tensor<f32>> = (0..6)
            .map(|s| if s % 2 == 0 { small(s) } else { big(s) })
            .collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| engine.submit(x.clone()).unwrap())
            .collect();
        for (i, (x, t)) in inputs.iter().zip(tickets).enumerate() {
            assert_eq!(t.wait().unwrap(), session.infer(x).unwrap(), "request {i}");
        }
        // Two shapes need at least two batches; a mixed batch would have
        // failed its concatenation and answered `BatchFailed` above.
        let stats = engine.stats();
        assert_eq!(stats.requests, 6);
        assert!(stats.batches >= 2, "{stats:?}");
    }

    #[test]
    fn per_tenant_stats_split_requests_by_key() {
        let anchor = tiny_session();
        let registry = Arc::new(SessionRegistry::new(4).unwrap());
        let key_a = registry.install("tiny", Arc::clone(&anchor)).unwrap();
        let bam = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let key_b = registry.admit("tiny", &Assignment::uniform(bam)).unwrap();
        let engine =
            ServeEngine::with_registry(registry, key_a.clone(), ServeConfig::new()).unwrap();
        for seed in 0..3 {
            engine.infer_to(&key_a, input(seed, 1)).unwrap();
        }
        engine.infer_to(&key_b, input(9, 1)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.per_tenant.len(), 2);
        let row = |key: &SessionKey| {
            stats
                .per_tenant
                .iter()
                .find(|t| &t.key == key)
                .unwrap_or_else(|| panic!("missing tenant row for {key}"))
        };
        assert_eq!(row(&key_a).requests, 3);
        assert_eq!(row(&key_b).requests, 1);
        assert_eq!(row(&key_a).deadline_shed, 0);
        assert_eq!(row(&key_b).deadline_shed, 0);
        // Rows are ordered by display form — deterministic snapshots.
        let names: Vec<String> = stats.per_tenant.iter().map(|t| t.key.to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn serve_error_display_names_the_cause() {
        assert!(Error::Overloaded { depth: 8 }
            .to_string()
            .contains("queue full (8"));
        assert!(Error::ShuttingDown.to_string().contains("shutting"));
        assert!(Error::DeadlineExceeded {
            budget: Duration::from_millis(5)
        }
        .to_string()
        .contains("deadline"));
        assert!(Error::BatchFailed("boom".into())
            .to_string()
            .contains("boom"));
    }

    #[test]
    fn keyed_submissions_route_to_their_tenant() {
        // Two tenants with different multipliers over one anchor: each
        // keyed response must be bit-identical to ITS tenant's solo
        // session — never the other's.
        let anchor = tiny_session();
        let registry = Arc::new(SessionRegistry::new(4).unwrap());
        let key_exact = registry.install("tiny", Arc::clone(&anchor)).unwrap();
        let bam = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let key_bam = registry.admit("tiny", &Assignment::uniform(bam)).unwrap();
        let solo_bam = tiny_session_with("mul8s_bam_v8h0");
        let engine = ServeEngine::with_registry(
            registry,
            key_exact.clone(),
            ServeConfig::new().with_shards(2).with_max_batch_images(4),
        )
        .unwrap();
        for seed in 0..4 {
            let x = input(seed, 2);
            let exact_out = engine.infer_to(&key_exact, x.clone()).unwrap();
            let bam_out = engine.infer_to(&key_bam, x.clone()).unwrap();
            assert_eq!(exact_out, anchor.infer(&x).unwrap(), "seed {seed}");
            assert_eq!(bam_out, solo_bam.infer(&x).unwrap(), "seed {seed}");
            assert_ne!(
                exact_out, bam_out,
                "the two multipliers must actually differ for this check to mean anything"
            );
        }
        // The default-key shim routes to the anchor tenant.
        let x = input(9, 1);
        assert_eq!(engine.infer(x.clone()).unwrap(), anchor.infer(&x).unwrap());
    }

    #[test]
    fn micro_batches_never_mix_tenants() {
        // One shard, wide-open flush window, both tenants' requests
        // queued together: coalescing must split them by key, and every
        // response stays bit-identical to its own tenant.
        let anchor = tiny_session();
        let registry = Arc::new(SessionRegistry::new(4).unwrap());
        let key_a = registry.install("tiny", Arc::clone(&anchor)).unwrap();
        let bam = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let key_b = registry.admit("tiny", &Assignment::uniform(bam)).unwrap();
        let solo_b = tiny_session_with("mul8s_bam_v8h0");
        let engine = ServeEngine::with_registry(
            registry,
            key_a.clone(),
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(16)
                .with_flush_ticks(25),
        )
        .unwrap();
        let tickets: Vec<_> = (0..10)
            .map(|s| {
                let key = if s % 2 == 0 { &key_a } else { &key_b };
                (s, engine.submit_to(key, input(s as u64, 1)).unwrap())
            })
            .collect();
        for (s, t) in tickets {
            let golden = if s % 2 == 0 {
                anchor.infer(&input(s as u64, 1)).unwrap()
            } else {
                solo_b.infer(&input(s as u64, 1)).unwrap()
            };
            assert_eq!(t.wait().unwrap(), golden, "request {s}");
        }
    }

    #[test]
    fn expired_deadline_sheds_with_deadline_exceeded() {
        let session = tiny_session();
        let engine = ServeEngine::new(
            Arc::clone(&session),
            ServeConfig::new()
                .with_shards(1)
                .with_max_batch_images(1)
                .with_queue_depth(64),
        )
        .unwrap();
        let key = engine.shared.default_key.clone();
        // Keep the single shard busy so the zero-budget request is
        // guaranteed to wait past its (immediate) deadline.
        let busy = engine.submit(input(99, 24)).unwrap();
        let doomed = engine
            .submit_within(&key, input(1, 1), Duration::ZERO)
            .unwrap();
        let err = doomed.wait().unwrap_err();
        match err {
            Error::DeadlineExceeded { budget } => {
                assert_eq!(budget, Duration::ZERO)
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(busy.wait().is_ok());
        let stats = engine.stats();
        assert_eq!(stats.deadline_shed, 1);
        // Sheds are not counted as answered requests.
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn generous_deadline_resolves_normally() {
        let session = tiny_session();
        let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new()).unwrap();
        let key = engine.shared.default_key.clone();
        let x = input(3, 2);
        let out = engine
            .submit_within(&key, x.clone(), Duration::from_secs(60))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out, session.infer(&x).unwrap());
        assert_eq!(engine.stats().deadline_shed, 0);
    }

    #[test]
    fn latency_percentiles_populate_and_order() {
        let session = tiny_session();
        let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new()).unwrap();
        for seed in 0..6 {
            engine.infer(input(seed, 1)).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.p50_latency_s > 0.0);
        assert!(stats.p50_latency_s <= stats.p95_latency_s);
        assert!(stats.p95_latency_s <= stats.p99_latency_s);
    }

    #[test]
    fn single_tenant_shim_exposes_registry_and_default_key() {
        let session = tiny_session();
        let engine = ServeEngine::new(Arc::clone(&session), ServeConfig::new()).unwrap();
        let key = engine.shared.default_key.clone();
        assert_eq!(key.model(), DEFAULT_MODEL);
        let resolved = engine.registry().session_for(&key).unwrap();
        assert!(Arc::ptr_eq(&resolved, &session));
        let stats = engine.registry().stats();
        assert_eq!(stats.models, 1);
        // infer_to with the default key is exactly infer.
        let x = input(2, 1);
        let keyed = engine.infer_to(&key, x.clone()).unwrap();
        assert_eq!(keyed, session.infer(&x).unwrap());
        assert_eq!(engine.infer(x.clone()).unwrap(), keyed);
    }
}
