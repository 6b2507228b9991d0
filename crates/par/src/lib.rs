//! # owlp-par — deterministic data-parallel execution
//!
//! A small persistent worker pool used by every hot path of the
//! reproduction (GEMM verification, tensor encode/decode, the event-driven
//! array simulator, the serving pool). Its one contract is **determinism**:
//! for a pure per-chunk function, the result of [`map_chunks`] is
//! bit-for-bit identical at every thread count, including 1.
//!
//! Three design rules make that structural rather than conventional:
//!
//! 1. **Fixed chunk grid.** Work over `0..n` is split into contiguous
//!    chunks of a caller-chosen `grain`; chunk boundaries depend only on
//!    `(n, grain)`, never on the thread count or scheduling. A function
//!    whose per-chunk value depends on the chunk shape (e.g. a blocked
//!    reduction) therefore still sees the *same* blocks at every budget.
//! 2. **Ordered assembly.** Each chunk's result lands in a slot indexed by
//!    its chunk id; the output vector is assembled in chunk order after all
//!    workers quiesce. Callers that reduce across chunks do so serially over
//!    this ordered vector, so reduction order is fixed too.
//! 3. **Dynamic scheduling of chunks, not of values.** Workers pull chunk
//!    ids from an atomic counter (good load balance for skewed tiles), but
//!    since a chunk's value is a pure function of its range, *which* worker
//!    computes it cannot matter.
//!
//! ## Worker reuse and the serial-fallback threshold
//!
//! Worker threads are spawned once (lazily, up to the largest budget ever
//! requested) and parked between jobs, so a parallel call costs one
//! condvar broadcast instead of a `thread::spawn` per worker per call —
//! the difference between profitable and regressive fan-out for the
//! many-small-dispatch paths (event-sim per-column passes, per-token
//! decode). On top of that, [`Pool::run`] falls back to a plain serial
//! loop whenever the caller's estimated work is under
//! [`MIN_PARALLEL_OPS`]: dispatching threads for less work than the
//! dispatch itself costs can only lose. The weighted entry points
//! ([`map_chunks_weighted`], [`map_indexed_weighted`]) are how hot paths
//! communicate that estimate.
//!
//! The thread budget comes from the `OWLP_THREADS` environment variable
//! (unset/invalid/0 ⇒ `std::thread::available_parallelism()`), **clamped to
//! the machine's real hardware parallelism** — oversubscribing a host with
//! more software threads than cores cannot make a compute-bound loop
//! faster, only less deterministic in wall-clock. A scoped [`with_threads`]
//! override takes precedence *unclamped* — the override is what the
//! determinism property tests use to exercise 8-way schedules on any host
//! without racing on the process environment. Inside a worker, nested
//! calls run serially (budget 1): the top-level call owns the parallelism,
//! which keeps thread counts bounded and oversubscription impossible.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Environment variable naming the worker-thread budget.
pub const ENV_THREADS: &str = "OWLP_THREADS";

/// Minimum estimated scalar-op-equivalents a weighted call must carry
/// before it fans out. Calibrated against the pool's dispatch cost (one
/// lock + condvar broadcast + chunk-counter traffic, order ~10 µs): below
/// roughly 32 Ki scalar ops the serial loop finishes before the workers
/// would have woken.
pub const MIN_PARALLEL_OPS: u64 = 1 << 15;

/// Hard cap on pool threads, far above any sane budget — a safety net
/// against a runaway `OWLP_THREADS`, not a tuning knob.
const MAX_POOL_THREADS: usize = 64;

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers: nested parallel calls run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The machine's real hardware parallelism, detected once and cached.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The number of worker threads a parallel call may use right now:
/// 1 inside a dispatched chunk, else a [`with_threads`] override if one is
/// active (unclamped), else `OWLP_THREADS` — clamped to
/// [`hardware_threads`] — else the machine's available parallelism.
///
/// Always ≥ 1; a budget of 1 means "run serially on the calling thread".
pub fn thread_budget() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    let hw = hardware_threads();
    env_threads().map_or(hw, |n| n.min(hw))
}

fn env_threads() -> Option<usize> {
    std::env::var(ENV_THREADS)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

/// Runs `f` with the thread budget pinned to `threads` (min 1) on this
/// thread, restoring the previous budget afterwards (also on unwind).
///
/// This is the race-free way to compare thread counts in one process:
///
/// ```
/// let serial = owlp_par::with_threads(1, || owlp_par::map_chunks(10, 3, |r| r.len()));
/// let parallel = owlp_par::with_threads(8, || owlp_par::map_chunks(10, 3, |r| r.len()));
/// assert_eq!(serial, parallel);
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(threads.max(1)))));
    f()
}

/// Number of chunks the fixed grid splits `n` items into at `grain`.
pub fn chunk_count(n: usize, grain: usize) -> usize {
    n.div_ceil(grain.max(1))
}

fn chunk_range(c: usize, grain: usize, n: usize) -> Range<usize> {
    let lo = c * grain;
    lo..(lo + grain).min(n)
}

// ---------------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------------

/// Type-erased per-chunk work. The pointee lives on the dispatching
/// caller's stack; the dispatch protocol in [`Pool::run`] guarantees no
/// worker dereferences it after the caller returns.
type ChunkFn<'a> = dyn Fn(usize) + Sync + 'a;

/// One dispatched job: the chunk function plus the claim counter.
struct Job {
    f: *const ChunkFn<'static>,
    chunks: usize,
    /// Next unclaimed chunk id; stores `chunks` to short-circuit on panic.
    next: AtomicUsize,
    /// First panic payload from any chunk (caller re-raises it).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `f` points at a `Sync` closure that the dispatching thread keeps
// alive (and borrowed) until every registered worker has deregistered.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

#[derive(Default)]
struct PoolState {
    /// The job currently offered to workers (`None` between jobs).
    job: Option<Arc<Job>>,
    /// Bumped per job so a worker never re-enters a job it already ran.
    seq: u64,
    /// Worker threads spawned so far.
    spawned: usize,
    /// Workers currently registered on the offered job.
    active: usize,
}

/// The process-wide persistent worker pool.
///
/// Workers are spawned on first demand (up to the requested budget, capped
/// at [`MAX_POOL_THREADS`]) and then parked on a condvar between jobs —
/// reused across every parallel call for the life of the process, which is
/// what makes many-small-dispatch hot paths (event-sim column passes)
/// profitable at all.
pub struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a new job is offered.
    work: Condvar,
    /// Signalled when the last registered worker deregisters.
    done: Condvar,
    /// Serialises top-level dispatches; a concurrent caller runs serially
    /// (bit-identical by the determinism contract) instead of blocking.
    dispatch: Mutex<()>,
}

impl Pool {
    /// The global pool.
    pub fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            dispatch: Mutex::new(()),
        })
    }

    /// Runs `f(0..chunks)` with up to `helpers` pool workers assisting the
    /// calling thread, falling back to a plain serial loop when the fan-out
    /// cannot pay for itself:
    ///
    /// * fewer than two chunks, or a zero helper budget;
    /// * an estimated total work (`total_ops`, when given) under
    ///   [`MIN_PARALLEL_OPS`] — the tuned threshold below which dispatch
    ///   overhead exceeds the work itself;
    /// * a nested call from inside a pool worker, or a dispatch already in
    ///   flight on another thread (results are identical either way; the
    ///   serial loop is the non-blocking choice).
    ///
    /// A panic in any chunk propagates to the caller with its original
    /// payload after remaining chunks are cancelled.
    pub fn run(
        &'static self,
        chunks: usize,
        helpers: usize,
        total_ops: Option<u64>,
        f: &ChunkFn<'_>,
    ) {
        let serial = chunks <= 1
            || helpers == 0
            || total_ops.is_some_and(|ops| ops < MIN_PARALLEL_OPS)
            || IN_WORKER.with(Cell::get);
        if serial {
            for c in 0..chunks {
                f(c);
            }
            return;
        }
        let Some(_dispatch) = self.dispatch.try_lock() else {
            // Another thread owns the pool: run serially, but as a worker
            // would, so nested calls see budget 1 on this branch too.
            in_worker_scope(|| {
                for c in 0..chunks {
                    f(c);
                }
            });
            return;
        };
        let job = Arc::new(Job {
            // SAFETY (lifetime erasure): the quiesce protocol below keeps
            // the pointee alive until every registered worker lets go.
            f: unsafe { std::mem::transmute::<*const ChunkFn<'_>, *const ChunkFn<'static>>(f) },
            chunks,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.state.lock();
            let want = helpers.min(MAX_POOL_THREADS);
            while st.spawned < want {
                let spawned = std::thread::Builder::new()
                    .name(format!("owlp-par-{}", st.spawned))
                    .spawn(move || worker_loop(Pool::get()))
                    .is_ok();
                if !spawned {
                    break; // fewer helpers; the caller still drains chunks
                }
                st.spawned += 1;
            }
            st.job = Some(job.clone());
            st.seq = st.seq.wrapping_add(1);
            self.work.notify_all();
        }
        // The caller participates (it counts toward the budget); nested
        // parallel calls inside `f` must run serially here exactly as they
        // do inside a pool worker.
        in_worker_scope(|| run_chunks(&job));
        // Quiesce: withdraw the job so no new worker registers, then wait
        // until every registered worker has deregistered — only then is the
        // erased borrow of `f` (and of everything it captures) dead.
        let mut st = self.state.lock();
        st.job = None;
        while st.active > 0 {
            self.done.wait(&mut st);
        }
        drop(st);
        let payload = job.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Runs `f` with this thread marked as a pool worker, so nested parallel
/// calls inside it run serially; restores the previous mark afterwards
/// (also on unwind).
fn in_worker_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// Claims and runs chunks until the counter is exhausted, capturing the
/// first panic and cancelling the remainder.
fn run_chunks(job: &Job) {
    loop {
        let c = job.next.fetch_add(1, Ordering::Relaxed);
        if c >= job.chunks {
            return;
        }
        // SAFETY: the dispatching caller keeps the pointee alive until all
        // registered workers deregister (quiesce protocol in `Pool::run`).
        let f = unsafe { &*job.f };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(c))) {
            let mut slot = job.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            job.next.store(job.chunks, Ordering::Relaxed);
        }
    }
}

fn worker_loop(pool: &'static Pool) {
    IN_WORKER.with(|w| w.set(true));
    let mut last_seq = 0u64;
    let mut st = pool.state.lock();
    loop {
        let job = match st.job.as_ref() {
            Some(job) if st.seq != last_seq => job.clone(),
            _ => {
                pool.work.wait(&mut st);
                continue;
            }
        };
        last_seq = st.seq;
        st.active += 1;
        drop(st);
        run_chunks(&job);
        st = pool.state.lock();
        st.active -= 1;
        if st.active == 0 {
            pool.done.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Mapping entry points.
// ---------------------------------------------------------------------------

/// Maps `f` over the fixed chunk grid of `0..n` (contiguous ranges of at
/// most `grain` indices) and returns the per-chunk results **in chunk
/// order**. Runs on up to [`thread_budget`] threads (the caller plus
/// persistent pool workers); with a budget of 1 (or a single chunk) it
/// degenerates to a plain serial loop on the calling thread.
///
/// A panic in `f` propagates to the caller, exactly as it would serially.
pub fn map_chunks<U, F>(n: usize, grain: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    map_chunks_inner(n, grain, None, f)
}

/// [`map_chunks`] with a per-item work estimate (scalar-op equivalents):
/// when `n × ops_per_item` is under [`MIN_PARALLEL_OPS`] the call runs
/// serially regardless of budget — the fix for hot paths whose individual
/// dispatches are too small to pay for fan-out.
pub fn map_chunks_weighted<U, F>(n: usize, grain: usize, ops_per_item: u64, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    let total = (n as u64).saturating_mul(ops_per_item.max(1));
    map_chunks_inner(n, grain, Some(total), f)
}

fn map_chunks_inner<U, F>(n: usize, grain: usize, total_ops: Option<u64>, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    let grain = grain.max(1);
    let chunks = n.div_ceil(grain);
    let workers = thread_budget().min(chunks);
    if workers <= 1 || total_ops.is_some_and(|ops| ops < MIN_PARALLEL_OPS) {
        return (0..chunks).map(|c| f(chunk_range(c, grain, n))).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let chunk_fn = |c: usize| {
        let out = f(chunk_range(c, grain, n));
        *slots[c].lock() = Some(out);
    };
    Pool::get().run(chunks, workers - 1, total_ops, &chunk_fn);
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every chunk id was claimed"))
        .collect()
}

/// Maps `f` over `0..n` item-wise and returns the results in index order,
/// scheduling `grain` indices per chunk. Equivalent to
/// `(0..n).map(f).collect()` at every thread count.
pub fn map_indexed<U, F>(n: usize, grain: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if thread_budget() <= 1 || chunk_count(n, grain) <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out = Vec::with_capacity(n);
    for chunk in map_chunks(n, grain, |r| r.map(&f).collect::<Vec<U>>()) {
        out.extend(chunk);
    }
    out
}

/// [`map_indexed`] with a per-item work estimate — see
/// [`map_chunks_weighted`] for the fallback rule.
pub fn map_indexed_weighted<U, F>(n: usize, grain: usize, ops_per_item: u64, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if thread_budget() <= 1
        || chunk_count(n, grain) <= 1
        || (n as u64).saturating_mul(ops_per_item.max(1)) < MIN_PARALLEL_OPS
    {
        return (0..n).map(f).collect();
    }
    let mut out = Vec::with_capacity(n);
    for chunk in map_chunks(n, grain, |r| r.map(&f).collect::<Vec<U>>()) {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunk_grid_is_fixed() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(8, 4), 2);
        assert_eq!(chunk_count(9, 4), 3);
        assert_eq!(chunk_range(2, 4, 9), 8..9);
    }

    #[test]
    fn map_chunks_orders_results_at_every_budget() {
        let expect: Vec<Range<usize>> = vec![0..3, 3..6, 6..9, 9..10];
        for t in [1, 2, 4, 8] {
            let got = with_threads(t, || map_chunks(10, 3, |r| r));
            assert_eq!(got, expect, "threads {t}");
        }
    }

    #[test]
    fn map_indexed_matches_serial_iterator() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for t in [1, 2, 4, 8] {
            assert_eq!(with_threads(t, || map_indexed(100, 7, |i| i * i)), expect);
        }
    }

    #[test]
    fn weighted_variants_match_unweighted_results() {
        let expect: Vec<usize> = (0..200).map(|i| i + 1).collect();
        for t in [1, 4, 8] {
            // Tiny estimated work → serial fallback path.
            let small = with_threads(t, || map_indexed_weighted(200, 8, 1, |i| i + 1));
            assert_eq!(small, expect, "threads {t} (small)");
            // Huge estimated work → pool path.
            let big = with_threads(t, || {
                map_indexed_weighted(200, 8, u64::MAX / 4096, |i| i + 1)
            });
            assert_eq!(big, expect, "threads {t} (big)");
            let chunked = with_threads(t, || map_chunks_weighted(200, 8, 1 << 20, |r| r.len()));
            assert_eq!(chunked.iter().sum::<usize>(), 200, "threads {t} (chunks)");
        }
    }

    #[test]
    fn budget_override_wins_and_restores() {
        let outer = thread_budget();
        let inner = with_threads(3, thread_budget);
        assert_eq!(inner, 3);
        assert_eq!(thread_budget(), outer);
        // Zero is clamped to 1, not treated as "default".
        assert_eq!(with_threads(0, thread_budget), 1);
    }

    #[test]
    fn default_budget_is_clamped_to_hardware() {
        // Without an override, the resolved budget never exceeds the real
        // core count (the override path is deliberately unclamped).
        assert!(thread_budget() <= hardware_threads());
        assert_eq!(with_threads(64, thread_budget), 64);
    }

    #[test]
    fn nested_calls_run_serially_inside_workers() {
        let nested_budgets = with_threads(4, || map_indexed(4, 1, |_| thread_budget()));
        assert_eq!(nested_budgets, vec![1; 4]);
    }

    #[test]
    fn nested_calls_run_serially_while_another_thread_holds_the_pool() {
        // The holder's first chunk waits until every caller has finished,
        // so the holder keeps the pool and each caller's dispatch takes the
        // serial fallback. Nested calls must read budget 1 on both branches.
        const CALLERS: usize = 3;
        let inside = std::sync::Barrier::new(CALLERS + 1);
        let done = std::sync::Barrier::new(CALLERS + 1);
        let hold = |i: usize| {
            if i == 0 {
                inside.wait();
                done.wait();
            }
            thread_budget()
        };
        std::thread::scope(|s| {
            let holder = s.spawn(|| with_threads(2, || map_indexed(2, 1, hold)));
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        inside.wait();
                        let nested = with_threads(4, || map_indexed(8, 1, |_| thread_budget()));
                        done.wait();
                        nested
                    })
                })
                .collect();
            for c in callers {
                assert_eq!(c.join().expect("no panic"), vec![1; 8]);
            }
            assert_eq!(holder.join().expect("no panic"), vec![1; 2]);
        });
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        with_threads(8, || {
            map_indexed(50, 1, |i| hits[i].fetch_add(1, Ordering::Relaxed))
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(with_threads(4, || map_chunks(0, 8, |r| r)).is_empty());
        assert!(with_threads(4, || map_indexed(0, 8, |i| i)).is_empty());
    }

    #[test]
    fn pool_workers_are_reused_across_calls() {
        // Repeated dispatches must not grow the pool beyond the budget:
        // the whole point of the persistent pool is amortised spawning.
        for _ in 0..50 {
            let v = with_threads(4, || map_indexed(64, 1, |i| i));
            assert_eq!(v.len(), 64);
        }
        let spawned = Pool::get().state.lock().spawned;
        assert!(spawned <= MAX_POOL_THREADS, "spawned {spawned}");
    }

    #[test]
    fn concurrent_top_level_calls_agree() {
        // Two threads dispatching at once: one wins the pool, the other
        // silently runs serially — results are identical either way.
        let expect: Vec<usize> = (0..500).map(|i| i * 3).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| with_threads(4, || map_indexed(500, 7, |i| i * 3))))
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), expect);
            }
        });
    }

    #[test]
    #[should_panic(expected = "chunk 3 exploded")]
    fn worker_panics_propagate() {
        // The pool cancels outstanding chunks and re-raises the original
        // payload on the calling thread; the caller never observes a
        // silently truncated result.
        with_threads(4, || {
            map_chunks(8, 1, |r| {
                if r.start == 3 {
                    panic!("chunk 3 exploded");
                }
                r.start
            })
        });
    }
}
