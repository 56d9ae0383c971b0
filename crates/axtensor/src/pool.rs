//! A persistent scoped worker pool, and the span rule every split op
//! follows.
//!
//! The pool is spawned once (per emulation context, or per serving
//! engine) and reused for its whole lifetime; [`WorkerPool::run`] submits
//! a batch of borrowing closures and blocks until all of them have
//! executed, which is what makes lending stack references to long-lived
//! workers sound.
//!
//! Element-wise layers, the range observers and the quantizing im2col cut
//! their work into contiguous [`spans`] of whole units (pixels, patch
//! rows): at most one span per pool thread, each of at least
//! [`SPAN_GRAIN`] elements, and anything smaller runs inline. Every span
//! computes exactly what the serial loop computes over its units, so the
//! results do not depend on the thread count.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolState {
    queue: Mutex<PoolQueue>,
    work_cv: Condvar,
}

/// A fixed-size pool of worker threads executing batches of scoped jobs.
pub struct WorkerPool {
    state: Arc<PoolState>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(PoolState {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("emu-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            state,
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueue one `'static` job without waiting for it — the
    /// fire-and-forget counterpart of [`WorkerPool::run`], used by
    /// long-lived residents such as a serving engine's shard loops. A
    /// panicking job is caught so the worker thread stays alive for
    /// subsequent submissions.
    ///
    /// # Panics
    ///
    /// Panics if the pool has already been shut down.
    pub fn submit(&self, job: Box<dyn FnOnce() + Send + 'static>) {
        let mut queue = self.state.queue.lock().expect("pool queue");
        assert!(!queue.shutdown, "worker pool already shut down");
        queue.jobs.push_back(Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(job));
        }));
        drop(queue);
        self.state.work_cv.notify_one();
    }

    /// Execute every job in `jobs` on the pool, blocking until all have
    /// finished. Jobs may borrow from the caller's stack: because this
    /// method does not return before the last job completes, no borrow
    /// outlives its referent.
    ///
    /// A batch of exactly one job runs on the calling thread: the caller
    /// would only block on it, and sessions that share one context (and
    /// so one pool) must not queue their single-job GEMMs behind each
    /// other on the pool's workers.
    ///
    /// A batch of more than one job must not be submitted from inside a
    /// pool job (the worker would wait on work only it could execute).
    ///
    /// # Panics
    ///
    /// Panics if any job panicked (after all jobs have finished).
    pub fn run<'env>(&self, mut jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.len() <= 1 {
            if let Some(job) = jobs.pop() {
                let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
                assert!(!panicked, "a worker-pool job panicked");
            }
            return;
        }
        let total = jobs.len();
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let panicked = Arc::new(AtomicBool::new(false));
        {
            let mut queue = self.state.queue.lock().expect("pool queue");
            assert!(!queue.shutdown, "worker pool already shut down");
            for job in jobs {
                // SAFETY: the only thing erased here is the `'env`
                // lifetime bound. The loop below blocks until all `total`
                // jobs have signalled completion, so every borrow captured
                // by `job` is still live whenever the job runs.
                let job: Job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'env>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(job)
                };
                let done = Arc::clone(&done);
                let panicked = Arc::clone(&panicked);
                queue.jobs.push_back(Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                        panicked.store(true, Ordering::SeqCst);
                    }
                    let (count, cv) = &*done;
                    *count.lock().expect("completion count") += 1;
                    cv.notify_all();
                }));
            }
            self.state.work_cv.notify_all();
        }
        let (count, cv) = &*done;
        let mut finished = count.lock().expect("completion count");
        while *finished < total {
            finished = cv.wait(finished).expect("completion wait");
        }
        assert!(
            !panicked.load(Ordering::SeqCst),
            "a worker-pool job panicked"
        );
    }
}

/// Fewest elements one span of a split op holds; smaller work runs inline.
pub const SPAN_GRAIN: usize = 16 * 1024;

/// Cut `units` units of `unit_len` elements each into contiguous spans
/// (ranges of units): at most one per thread of `pool`, each of at least
/// [`SPAN_GRAIN`] elements. Without a pool, or below two grains, this is
/// the one span `0..units`.
#[must_use]
pub fn spans(pool: Option<&WorkerPool>, units: usize, unit_len: usize) -> Vec<Range<usize>> {
    let threads = pool.map_or(1, WorkerPool::threads);
    let min_units = SPAN_GRAIN.div_ceil(unit_len.max(1));
    let count = (units / min_units).clamp(1, threads);
    (0..count)
        .map(|i| units * i / count..units * (i + 1) / count)
        .collect()
}

/// Split `data` into one mutable slice per span of [`spans`], each of
/// `unit_len` elements per unit.
///
/// # Panics
///
/// Panics if the spans need more than `data.len()` elements.
pub fn split_spans<'a, T>(
    mut data: &'a mut [T],
    spans: &[Range<usize>],
    unit_len: usize,
) -> Vec<&'a mut [T]> {
    spans
        .iter()
        .map(|span| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(span.len() * unit_len);
            data = tail;
            head
        })
        .collect()
}

/// Run `jobs` — one per span — on `pool` and return their results in
/// span order. A single job, or no pool, runs on the calling thread.
///
/// # Panics
///
/// Panics if a job panicked (after all jobs have finished).
pub fn run_spans<'env, R, F>(pool: Option<&WorkerPool>, jobs: Vec<F>) -> Vec<R>
where
    R: Send + 'env,
    F: FnOnce() -> R + Send + 'env,
{
    let Some(pool) = pool else {
        return jobs.into_iter().map(|job| job()).collect();
    };
    let mut results: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    pool.run(
        results
            .iter_mut()
            .zip(jobs)
            .map(|(slot, job)| {
                Box::new(move || *slot = Some(job())) as Box<dyn FnOnce() + Send + '_>
            })
            .collect(),
    );
    results
        .into_iter()
        .map(|r| r.expect("the pool ran every job"))
        .collect()
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut queue) = self.state.queue.lock() {
            queue.shutdown = true;
        }
        self.state.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("pool queue");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = state.work_cv.wait(queue).expect("pool wait");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn spans_follow_the_grain_and_the_thread_count() {
        let pool = WorkerPool::new(3);
        // Below two grains: one span, whatever the pool.
        assert_eq!(spans(Some(&pool), 31, 1024), vec![0..31]);
        assert_eq!(spans(None, 1 << 20, 1), vec![0..1 << 20]);
        assert_eq!(spans(Some(&pool), 0, 16), vec![0..0]);
        // Two grains of 1-element units: two spans of one grain each.
        assert_eq!(
            spans(Some(&pool), 2 * SPAN_GRAIN, 1),
            vec![0..SPAN_GRAIN, SPAN_GRAIN..2 * SPAN_GRAIN]
        );
        // Plenty of work: one span per thread, each whole units of at
        // least a grain, covering every unit once.
        for (units, unit_len) in [(1000, 64), (1001, 48), (7, 1 << 15)] {
            let got = spans(Some(&pool), units, unit_len);
            assert!(got.len() <= pool.threads());
            assert_eq!(got.first().unwrap().start, 0);
            assert_eq!(got.last().unwrap().end, units);
            for pair in got.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            if got.len() > 1 {
                assert!(got.iter().all(|s| s.len() * unit_len >= SPAN_GRAIN));
            }
        }
        assert_eq!(spans(Some(&pool), 1000, 64).len(), 3);
        assert_eq!(spans(Some(&WorkerPool::new(1)), 1000, 64).len(), 1);
    }

    #[test]
    fn run_spans_returns_results_in_span_order() {
        let pool = WorkerPool::new(2);
        let mut data = vec![0u32; 3 * SPAN_GRAIN];
        let ranges = spans(Some(&pool), data.len(), 1);
        assert_eq!(ranges.len(), 2);
        let jobs: Vec<_> = split_spans(&mut data, &ranges, 1)
            .into_iter()
            .zip(&ranges)
            .map(|(out, span)| {
                move || {
                    for (i, v) in out.iter_mut().enumerate() {
                        *v = (span.start + i) as u32;
                    }
                    span.start
                }
            })
            .collect();
        assert_eq!(run_spans(Some(&pool), jobs), vec![0, ranges[1].start]);
        assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn runs_borrowing_jobs_to_completion() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 64];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(16)
            .enumerate()
            .map(|(i, slab)| {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    for (j, v) in slab.iter_mut().enumerate() {
                        *v = i * 100 + j;
                    }
                });
                job
            })
            .collect();
        pool.run(jobs);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i / 16) * 100 + i % 16);
        }
    }

    #[test]
    fn reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                    job
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run(Vec::new());
    }

    #[test]
    fn single_job_runs_on_the_calling_thread() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool.run(vec![
            Box::new(|| ran_on = Some(std::thread::current().id()))
                as Box<dyn FnOnce() + Send + '_>,
        ]);
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn zero_thread_request_still_works() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicBool::new(false);
        pool.run(vec![
            Box::new(|| ran.store(true, Ordering::SeqCst)) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn submit_runs_detached_jobs() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(i).expect("send result")));
        }
        let mut got: Vec<i32> = (0..8).map(|_| rx.recv().expect("job ran")).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn submitted_panic_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(Box::new(|| panic!("boom")));
        // The single worker caught the panic and still serves both APIs.
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(Box::new(move || tx.send(42u8).expect("send")));
        assert_eq!(rx.recv().expect("worker alive"), 42);
        let ran = AtomicBool::new(false);
        pool.run(vec![
            Box::new(|| ran.store(true, Ordering::SeqCst)) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "worker-pool job panicked")]
    fn job_panic_propagates_after_batch() {
        let pool = WorkerPool::new(2);
        let survivor = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&survivor);
        pool.run(vec![
            Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>,
            Box::new(move || flag.store(true, Ordering::SeqCst)),
        ]);
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let pool = WorkerPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>
            ]);
        }));
        // A one-job batch runs on the caller but keeps the batch panic
        // contract: the job's own panic is caught, then re-raised as the
        // pool's.
        let payload = result.expect_err("the job panicked");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"a worker-pool job panicked")
        );
        // The worker thread is still alive and accepts new work.
        let ran = AtomicBool::new(false);
        pool.run(vec![
            Box::new(|| ran.store(true, Ordering::SeqCst)) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(ran.load(Ordering::SeqCst));
    }
}
