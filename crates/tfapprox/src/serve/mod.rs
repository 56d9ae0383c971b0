//! The serving tier: many compiled [`Session`]s behind one admission
//! queue, with micro-batching, event-driven shards, and SLO shedding.
//!
//! PRs 2–4 made one `Session::infer` call fast; PR 5 let many concurrent
//! callers share one session's speed. This module generalises that to
//! the paper's real shape — *many* approximate-multiplier configurations
//! served at once (the ALWANN design-space story of
//! conf_date_VaverkaMVS20) — by splitting the tier into three parts:
//!
//! - [`registry`] — a [`SessionRegistry`] holding compiled sessions
//!   keyed by `(model, resolved per-layer multipliers)` behind an LRU of
//!   compiled plans. Admission of a new multiplier variant compiles
//!   on-miss through [`Session::reassign`], so the plan-transplant path
//!   makes a cold tenant pay input-side work only.
//! - [`engine`] — the [`ServeEngine`]: keyed submission
//!   ([`ServeEngine::submit_to`]) over one shared worker pool, per-key
//!   micro-batch coalescing, **event-driven** shard wakeup (a shard
//!   sleeps on the arrival condvar until its flush *deadline*; there is
//!   no poll tick), per-request SLO deadlines with
//!   [`Error::DeadlineExceeded`] shedding, and bounded-queue
//!   backpressure with [`Error::Overloaded`].
//! - [`histogram`] — a lock-free streaming [`LatencyHistogram`] that
//!   gives [`ServeStats`] its p50/p95/p99 submit-to-response latencies:
//!   the tail numbers that govern how much load the tier can admit.
//!
//! # Request lifecycle
//!
//! **Admission** (resolve the [`SessionKey`] through the registry,
//! compile-on-miss, bounded-queue check) → **keyed coalesce** (a shard
//! pops the first live request and coalesces only arrivals with the
//! same key *and* the same image shape `(h, w, c)`; a request of
//! another shape keeps its queue position for a batch of its own) →
//! **wakeup** (the shard sleeps until its flush deadline — or the
//! tightest member SLO deadline — and is woken by arrivals) → **shed or
//! execute** (expired requests answer `DeadlineExceeded`; the batch —
//! a single request is a one-segment batch — executes as **one fused**
//! [`Session::infer_fused`] graph pass, then answers every member).
//!
//! # Determinism
//!
//! A request's output is **bit-identical** whether it ran solo or in
//! any batch composition, on any shard, under any tenant mix, before or
//! after an LRU eviction of its session. The fused micro-batch earns
//! this guarantee through **segments**: the batch tensor carries an
//! [`axtensor::SegmentTable`] marking each request's image span, the
//! transformed graph's `Min`/`Max` observers reduce *per segment*
//! (never across request boundaries), and the LUT-GEMM epilogue applies
//! each segment's own quantization parameters to its rows. The
//! cross-contamination that once made fusion unsafe — whole-tensor
//! range observers bleeding one caller's data into another's
//! quantization grid — is gone by construction, and the conformance
//! suite pins `infer_fused` against solo `infer` bit-for-bit across
//! every backend and accumulator model.
//!
//! [`Session`]: crate::Session
//! [`Session::reassign`]: crate::Session::reassign
//! [`Error::DeadlineExceeded`]: crate::Error::DeadlineExceeded
//! [`Error::Overloaded`]: crate::Error::Overloaded
//! [`Session::infer_fused`]: crate::Session::infer_fused
//! [`Session::infer`]: crate::Session::infer

#![deny(missing_docs)]

pub mod engine;
pub mod histogram;
pub mod registry;

pub use engine::{
    ServeConfig, ServeEngine, ServeStats, TenantServeStats, Ticket, DEFAULT_MODEL, FLUSH_TICK,
};
pub use histogram::LatencyHistogram;
pub use registry::{RegistryStats, SessionKey, SessionRegistry};
