//! # slime-par
//!
//! A zero-dependency (std-only) thread pool for the SLIME4Rec workspace,
//! built so that **parallel execution is bitwise identical to serial
//! execution**. The offline-purity rule bans rayon; this crate is the
//! sanctioned substitute, and the `thread-discipline` lint bans raw
//! `thread::spawn` everywhere else so all parallelism flows through here.
//!
//! Determinism contract (every public helper obeys it):
//!
//! * The chunk grid is a pure function of `(n, chunk)` — never of the
//!   thread count. Threads race only over *which* chunk they claim, not
//!   over where chunk boundaries fall.
//! * Floating-point accumulation must stay inside one chunk, or go through
//!   [`parallel_map_reduce`], which folds per-chunk partials in ascending
//!   chunk order on the calling thread.
//!
//! Under those two rules `SLIME_THREADS=1` and `SLIME_THREADS=64` produce
//! identical bits, which is what the end-to-end determinism test in
//! `crates/core/tests/determinism.rs` asserts.
//!
//! Thread count resolution: [`set_threads`] override, else the
//! `SLIME_THREADS` environment variable, else `available_parallelism()`.
//! Workers are spawned lazily on first parallel call and persist for the
//! process lifetime, so per-thread caches (e.g. the FFT plan cache in
//! `slime-fft`) are built once per worker, not once per call.

mod pool;

use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Resolved thread count; 0 means "not yet initialized".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the pool size: beyond this, scheduling overhead dwarfs
/// any win on the array sizes this workspace handles.
const MAX_THREADS: usize = 256;

/// Hardware parallelism as reported by the OS (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn resolve_from_env() -> usize {
    match std::env::var("SLIME_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => {
                // lint-allow(raw-print): one-time startup warning about a bad env var
                eprintln!("slime-par: ignoring invalid SLIME_THREADS={v:?} (want an integer >= 1)");
                available_threads()
            }
        },
        Err(_) => available_threads(),
    }
}

std::thread_local! {
    /// This thread's cap on [`num_threads`]; 0 means uncapped.
    static THREAD_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The number of threads parallel helpers will use (publisher included):
/// the process-wide count, lowered to this thread's [`set_thread_cap`].
///
/// First call resolves `SLIME_THREADS` / `available_parallelism()` and
/// caches the result; [`set_threads`] overrides it at any time.
pub fn num_threads() -> usize {
    let global = process_threads();
    match THREAD_CAP.with(std::cell::Cell::get) {
        0 => global,
        cap => global.min(cap),
    }
}

/// Cap the thread count of parallel calls published from the calling
/// thread at `n` (0 lifts the cap). Other threads, and the process-wide
/// count, are untouched: an embedded serving daemon limits its own
/// forward passes without changing anyone else's parallelism.
pub fn set_thread_cap(n: usize) {
    THREAD_CAP.with(|c| c.set(n.min(MAX_THREADS)));
}

/// The process-wide thread count, resolved on first use.
fn process_threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = resolve_from_env();
    // Racing first calls resolve to the same value; keep whichever landed.
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Override the thread count (CLI `--threads`, bench sweeps, tests).
/// Values are clamped to `1..=256`. Takes effect for subsequent parallel
/// calls; already-spawned workers beyond the new count idle harmlessly.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Cumulative pool counters since process start (or the last
/// [`reset_pool_stats`]). The pool has no dependencies, so trace layers
/// poll this and republish the numbers as gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Jobs dispatched to the worker pool.
    pub jobs_published: u64,
    /// Grids that ran on the serial fast path (single chunk, one thread,
    /// or a nested call).
    pub jobs_serial: u64,
    /// Total chunks executed across all jobs.
    pub chunks_executed: u64,
    /// Largest chunk grid seen (the peak queue depth of the job board).
    pub max_grid: u64,
    /// Persistent workers spawned (monotone; workers never exit).
    pub workers_spawned: u64,
}

/// Snapshot the pool counters.
pub fn pool_stats() -> ParStats {
    ParStats {
        jobs_published: pool::JOBS_PUBLISHED.load(Ordering::Relaxed),
        jobs_serial: pool::JOBS_SERIAL.load(Ordering::Relaxed),
        chunks_executed: pool::CHUNKS_EXECUTED.load(Ordering::Relaxed),
        max_grid: pool::MAX_GRID.load(Ordering::Relaxed),
        workers_spawned: pool::WORKERS_SPAWNED.load(Ordering::Relaxed),
    }
}

/// Scheduling hooks for an external profiling layer (`slime-trace`).
///
/// slime-par is a dependency-free leaf and the nondeterminism lint (L9)
/// bans clock reads in numeric crates, so the pool cannot time itself.
/// Instead it reports scheduling *events* through this trait and the
/// observer — installed once, typically by `slime-trace` when tracing is
/// enabled — owns every clock read. With no observer installed the only
/// cost on the dispatch path is one relaxed atomic load per job.
///
/// Contract for implementations:
///
/// * Methods must not panic and must not call back into slime-par
///   (`worker_begin`/`worker_end` run on pool worker threads).
/// * `job_begin` returns a token identifying the job; returning `0` means
///   "not interested" and suppresses the per-worker hooks for that job.
/// * For published (non-serial) jobs, every participating thread brackets
///   its chunk-claiming loop with `worker_begin`/`worker_end` (`worker` is
///   `0` for the publishing thread, `1..` for pool workers — see
///   [`current_worker`]). `job_end` fires on the publishing thread after
///   all chunks completed. Serial jobs report only `job_begin`/`job_end`.
pub trait ParObserver: Sync {
    /// A job grid is about to run. `elems`/`chunk` describe the caller's
    /// request (`n_chunks = ceil(elems / chunk)` for the `parallel_*`
    /// helpers); `serial` is true on the inline fast path.
    fn job_begin(&self, elems: usize, chunk: usize, n_chunks: usize, serial: bool) -> u64;
    /// A thread joined job `token` and will start claiming chunks.
    fn worker_begin(&self, token: u64, worker: usize);
    /// A thread finished claiming chunks for job `token` (`chunks` of them).
    fn worker_end(&self, token: u64, worker: usize, chunks: u64);
    /// All chunks of job `token` completed; the publisher is about to
    /// return to its caller.
    fn job_end(&self, token: u64);
}

static OBSERVER: OnceLock<&'static dyn ParObserver> = OnceLock::new();

/// Install the process-wide scheduling observer. The first call wins;
/// later calls are ignored (the observer is wired into running worker
/// threads and cannot be swapped out safely).
pub fn set_observer(obs: &'static dyn ParObserver) {
    let _ = OBSERVER.set(obs);
}

#[inline]
pub(crate) fn observer() -> Option<&'static dyn ParObserver> {
    OBSERVER.get().copied()
}

/// Stable id of the calling thread within the pool: `0` for any thread
/// that is not a pool worker (including the publisher, which participates
/// as worker zero), `1..` for persistent pool workers.
pub fn current_worker() -> usize {
    pool::current_worker()
}

/// Zero the pool counters except `workers_spawned` (workers persist, so
/// that count reflects live state rather than a per-run delta).
pub fn reset_pool_stats() {
    pool::JOBS_PUBLISHED.store(0, Ordering::Relaxed);
    pool::JOBS_SERIAL.store(0, Ordering::Relaxed);
    pool::CHUNKS_EXECUTED.store(0, Ordering::Relaxed);
    pool::MAX_GRID.store(0, Ordering::Relaxed);
}

/// Run `f(start, end)` over every chunk of `0..n`, in parallel.
///
/// The grid is `ceil(n / chunk)` half-open ranges of length `chunk` (the
/// last may be shorter), identical at every thread count. `f` must only
/// write state that is disjoint between chunks (see [`UnsafeSlice`] for
/// handing out disjoint views of one buffer).
///
/// Nested calls from inside a parallel task run inline on the worker.
pub fn parallel_for(n: usize, chunk: usize, f: impl Fn(usize, usize) + Sync) {
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    pool::pool().run(n, chunk, n_chunks, &|i| {
        let start = i * chunk;
        f(start, (start + chunk).min(n));
    });
}

/// Deterministic chunked reduction: `map(start, end)` produces one partial
/// per chunk (in parallel), then the partials are folded with `reduce` in
/// ascending chunk order on the calling thread. Returns `None` for `n == 0`.
///
/// Because the grid depends only on `(n, chunk)` and the fold order is
/// fixed, the result is bitwise identical for any thread count — including
/// non-associative `f32`/`f64` sums.
pub fn parallel_map_reduce<T: Send>(
    n: usize,
    chunk: usize,
    map: impl Fn(usize, usize) -> T + Sync,
    mut reduce: impl FnMut(T, T) -> T,
) -> Option<T> {
    if n == 0 {
        return None;
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let mut partials: Vec<MaybeUninit<T>> = (0..n_chunks).map(|_| MaybeUninit::uninit()).collect();
    {
        let out = UnsafeSlice::new(&mut partials);
        pool::pool().run(n, chunk, n_chunks, &|i| {
            let start = i * chunk;
            let v = map(start, (start + chunk).min(n));
            // SAFETY: each chunk index is claimed exactly once, so slot `i`
            // has exactly one writer and no readers until the join.
            unsafe { out.write(i, MaybeUninit::new(v)) };
        });
    }
    // SAFETY: `run` returned, so every slot was initialized exactly once.
    let mut it = partials
        .into_iter()
        .map(|s| unsafe { s.assume_init_read() });
    let first = it.next()?;
    Some(it.fold(first, |acc, v| reduce(acc, v)))
}

/// Parallel map over a slice, preserving order: `out[i] = f(i, &items[i])`.
/// `chunk` items are processed per task.
pub fn parallel_map<I: Sync, T: Send>(
    items: &[I],
    chunk: usize,
    f: impl Fn(usize, &I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    let mut out: Vec<MaybeUninit<T>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    {
        let w = UnsafeSlice::new(&mut out);
        parallel_for(n, chunk, |lo, hi| {
            // lint-proof(l8): w[lo .. hi]
            for i in lo..hi {
                // SAFETY: chunks partition 0..n, so element `i` has exactly
                // one writer.
                unsafe { w.write(i, MaybeUninit::new(f(i, &items[i]))) };
            }
        });
    }
    // SAFETY: every element was initialized exactly once; MaybeUninit<T>
    // and T share layout.
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut T, out.len(), out.capacity()) }
}

/// An unsynchronized shared view of a mutable slice, for parallel tasks
/// that write provably disjoint elements (matmul row blocks, per-batch FFT
/// planes, per-vocab-row gradient scatters).
///
/// All access methods are `unsafe`: the caller must guarantee that no two
/// concurrent tasks touch the same index, and that nobody reads an element
/// while another task writes it. The kernels in `slime-tensor` uphold this
/// by deriving every index range from the (thread-count-independent) chunk
/// grid.
/// With the `sanitize-race` feature the slice additionally keeps a shadow
/// interval log: every `write`/`slice_mut` records its half-open index
/// range (plus a stable per-thread worker tag) under a mutex, and the
/// first claim that overlaps an earlier one panics *before* any aliasing
/// access is created. The log never touches payload bytes, so enabling the
/// sanitizer is bitwise-neutral — the determinism matrix must pass
/// unchanged under it.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
    #[cfg(feature = "sanitize-race")]
    shadow: sanitize::ShadowLog,
}

// SAFETY: the pointer came from an exclusive borrow; disjointness of
// concurrent access is the caller's obligation (every method is unsafe).
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap an exclusively borrowed slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
            #[cfg(feature = "sanitize-race")]
            shadow: sanitize::ShadowLog::new(),
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overwrite element `i` (the old value is not dropped — intended for
    /// `Copy` payloads and `MaybeUninit` slots).
    ///
    /// # Safety
    /// `i < len()`, and no other task reads or writes element `i`
    /// concurrently.
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        #[cfg(feature = "sanitize-race")]
        self.shadow.claim(i, i + 1);
        self.ptr.add(i).write(value);
    }

    /// An exclusive sub-slice `[start, start + len)`.
    ///
    /// # Safety
    /// The range is in bounds and no other task touches any element of it
    /// for the lifetime of the returned borrow.
    #[allow(clippy::mut_from_ref)] // the whole point: caller-proven disjointness
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        #[cfg(feature = "sanitize-race")]
        self.shadow.claim(start, start + len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Shadow interval log backing the `sanitize-race` feature: a dynamic
/// cross-check of the static `disjoint-writer` (L8) lint proofs. Form-2
/// proofs (`target[elem for i in lo..hi]`) assert per-element disjointness
/// the lint cannot discharge statically; this log discharges it at runtime.
#[cfg(feature = "sanitize-race")]
mod sanitize {
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Monotone source of worker tags. Deliberately not
    /// `thread::current().id()`: the nondeterminism lint (L9) bans
    /// ThreadId-keyed logic in numeric crates, and a small dense counter
    /// reads better in panic messages anyway.
    static NEXT_WORKER_TAG: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static WORKER_TAG: Cell<u64> = const { Cell::new(0) };
    }

    /// Stable per-thread tag, assigned on first claim from that thread.
    fn worker_tag() -> u64 {
        WORKER_TAG.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_WORKER_TAG.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Per-`UnsafeSlice` log of half-open claims, keyed by claim start.
    /// The map invariant is that stored intervals are pairwise disjoint,
    /// so the predecessor of a new claim's end is the only candidate
    /// overlap — one `range` probe per claim.
    pub(crate) struct ShadowLog {
        claims: Mutex<BTreeMap<usize, (usize, u64)>>,
    }

    impl ShadowLog {
        pub(crate) fn new() -> ShadowLog {
            ShadowLog {
                claims: Mutex::new(BTreeMap::new()),
            }
        }

        /// Record `[start, end)` for the calling worker; panic on the
        /// first overlap with any earlier claim on this slice. The panic
        /// fires *before* the caller creates its aliasing view, so a
        /// caught violation never executes an actual racy write.
        pub(crate) fn claim(&self, start: usize, end: usize) {
            if start >= end {
                return;
            }
            let me = worker_tag();
            let mut map = self.claims.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((&s, &(e, w))) = map.range(..end).next_back() {
                if e > start {
                    // lint-allow(panic): panicking on overlap is the sanitizer's contract
                    panic!(
                        "sanitize-race: overlapping UnsafeSlice claims: \
                         [{start}, {end}) by worker {me} overlaps [{s}, {e}) by worker {w}"
                    );
                }
            }
            map.insert(start, (end, me));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Tests that mutate the global thread count serialize through here and
    /// restore a known state on drop.
    static THREAD_KNOB: Mutex<()> = Mutex::new(());

    struct Knob(std::sync::MutexGuard<'static, ()>);
    fn knob(n: usize) -> Knob {
        let g = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        Knob(g)
    }
    impl Drop for Knob {
        fn drop(&mut self) {
            set_threads(4);
        }
    }

    #[test]
    fn thread_cap_lowers_only_the_calling_thread() {
        let _k = knob(4);
        set_thread_cap(1);
        assert_eq!(num_threads(), 1);
        // Another thread still sees the process-wide count.
        assert_eq!(
            std::thread::scope(|s| s.spawn(num_threads).join().unwrap()),
            4
        );
        // A cap above the process count does not raise it.
        set_thread_cap(8);
        assert_eq!(num_threads(), 4);
        set_thread_cap(0);
        assert_eq!(num_threads(), 4);
    }

    #[test]
    fn chunk_grid_covers_everything_exactly_once() {
        let _k = knob(4);
        for (n, chunk) in [
            (1usize, 1usize),
            (7, 3),
            (100, 1),
            (100, 7),
            (64, 64),
            (5, 100),
        ] {
            let seen = Mutex::new(vec![0u32; n]);
            parallel_for(n, chunk, |lo, hi| {
                assert!(lo < hi && hi <= n);
                assert!(hi - lo <= chunk);
                let mut s = seen.lock().unwrap();
                for i in lo..hi {
                    s[i] += 1;
                }
            });
            assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn map_reduce_is_bitwise_stable_across_thread_counts() {
        // A deliberately ill-conditioned sum: reassociation changes bits.
        let xs: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32 * 0.731).sin() * 1e4).exp2().fract() - 0.5)
            .collect();
        let sum = |_k: &Knob| {
            parallel_map_reduce(
                xs.len(),
                97,
                |lo, hi| xs[lo..hi].iter().sum::<f32>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let k1 = knob(1);
        let serial = sum(&k1);
        drop(k1);
        for t in [2, 3, 8] {
            let kt = knob(t);
            assert_eq!(serial.to_bits(), sum(&kt).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let _k = knob(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, 13, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let _k = knob(4);
        let hits = Mutex::new(0usize);
        parallel_for(8, 1, |_, _| {
            parallel_for(8, 1, |lo, hi| {
                *hits.lock().unwrap() += hi - lo;
            });
        });
        assert_eq!(hits.into_inner().unwrap(), 64);
    }

    #[test]
    fn pool_actually_uses_multiple_threads() {
        let _k = knob(4);
        let ids = Mutex::new(HashSet::new());
        // Many tiny chunks with a touch of work so workers get a chance to
        // claim some; on a single-core box this may still collapse to one
        // thread, so assert coverage rather than concurrency.
        let n = 64;
        let seen = Mutex::new(vec![false; n]);
        parallel_for(n, 1, |lo, _| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            ids.lock().unwrap().insert(std::thread::current().id());
            seen.lock().unwrap()[lo] = true;
        });
        assert!(seen.into_inner().unwrap().iter().all(|&b| b));
        assert!(!ids.into_inner().unwrap().is_empty());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let _k = knob(4);
        let r = std::panic::catch_unwind(|| {
            parallel_for(16, 1, |lo, _| {
                if lo == 7 {
                    panic!("boom");
                }
            });
        });
        assert!(r.is_err());
        // The pool must still be usable afterwards.
        let total = parallel_map_reduce(100, 9, |lo, hi| (hi - lo) as u64, |a, b| a + b);
        assert_eq!(total, Some(100));
    }

    #[test]
    fn unsafe_slice_disjoint_writes() {
        let _k = knob(4);
        let mut buf = vec![0u64; 257];
        {
            let w = UnsafeSlice::new(&mut buf);
            parallel_for(257, 10, |lo, hi| {
                let s = unsafe { w.slice_mut(lo, hi - lo) };
                for (off, v) in s.iter_mut().enumerate() {
                    *v = (lo + off) as u64;
                }
            });
        }
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn set_threads_clamps_and_num_threads_is_positive() {
        let _k = knob(4);
        set_threads(0);
        assert_eq!(num_threads(), 1);
        set_threads(100_000);
        assert_eq!(num_threads(), MAX_THREADS);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn pool_stats_count_jobs_and_chunks() {
        let k = knob(4);
        let before = pool_stats();
        parallel_for(64, 1, |_, _| {});
        let after = pool_stats();
        assert!(after.jobs_published > before.jobs_published);
        assert!(after.chunks_executed >= before.chunks_executed + 64);
        assert!(after.max_grid >= 64);
        drop(k);

        let _k1 = knob(1);
        let before = pool_stats();
        parallel_for(8, 1, |_, _| {});
        let after = pool_stats();
        assert!(after.jobs_serial > before.jobs_serial);
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let _k = knob(4);
        parallel_for(0, 8, |_, _| panic!("must not run"));
        assert_eq!(parallel_map_reduce(0, 8, |_, _| 1u32, |a, b| a + b), None);
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &v| v).is_empty());
    }
}
