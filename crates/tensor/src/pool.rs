//! Thread-local, size-bucketed recycling pool for `f32` buffers.
//!
//! Training and full-ranking inference allocate the same few buffer shapes
//! over and over — `[B, V]` logit planes, `[B, N, D]` activations, `[V, D]`
//! gradient tables — and the default allocator services each one with a
//! fresh `mmap`/`memset` round-trip once sizes cross the malloc arena
//! threshold. The pool short-circuits that churn: when the last `NdArray`
//! referencing a buffer drops, the buffer parks in a per-thread free list
//! keyed by power-of-two capacity, and the next allocation of a compatible
//! size reuses it.
//!
//! # Determinism safety
//!
//! Pooling is invisible to computed values by construction. A buffer leaves
//! the pool in one of three states only:
//!
//! 1. **empty** (`len == 0`, via [`take_empty`]) — the caller then fills it
//!    exclusively through safe `Vec` growth (`push`/`extend`/`resize`), so
//!    stale contents are never readable;
//! 2. **fully overwritten** (via [`take_filled`]) — every slot is set to the
//!    requested fill value before the buffer is handed out; or
//! 3. **to be overwritten** (via [`take_unfilled`]) — length `n` with stale
//!    (but initialized) contents, for kernels that write every element
//!    before reading any. Under `--features sanitize` the buffer is poisoned
//!    with NaN first, so a kernel that reads before writing trips the
//!    sanitizer at the op that produced it.
//!
//! No code path observes recycled bytes, so losses, weights, and rankings
//! are bitwise identical with the pool on or off — a claim CI enforces by
//! running `crates/core/tests/determinism.rs` under `SLIME_POOL=0` and `=1`
//! crossed with `SLIME_THREADS=1/4`.
//!
//! # Bucket rounding
//!
//! A request for `n` elements is served from the bucket holding capacities
//! in `[2^ceil(log2 n), 2^(ceil(log2 n)+1))`; misses allocate exactly the
//! bucket's lower bound so the buffer re-enters the same bucket on recycle.
//! Rounding wastes < 2x capacity in the worst case and makes lookups O(1).
//! Buffers below [`MIN_POOLED_LEN`] skip the pool (malloc's small-size bins
//! already handle them well); each bucket holds at most [`MAX_PER_BUCKET`]
//! entries so a burst of allocations cannot pin memory forever.
//!
//! # Control
//!
//! The pool is on by default. `SLIME_POOL=0` (or the CLI's `--no-pool`,
//! which calls [`set_enabled`]) turns it off; every `take_*` then falls
//! through to plain allocation and every recycle drops the buffer. Global
//! hit/miss/bytes-reused counters feed the `mem_sweep` bench and tests.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Buffers shorter than this bypass the pool entirely.
pub const MIN_POOLED_LEN: usize = 16;

/// Buffers longer than this (512 MiB of f32) are never pooled.
pub const MAX_POOLED_LEN: usize = 1 << 27;

/// Retained buffers per bucket; excess recycles are dropped.
const MAX_PER_BUCKET: usize = 32;

const STATE_UNRESOLVED: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

/// Tri-state enabled flag: resolved lazily from `SLIME_POOL` on first use,
/// overridable at runtime via [`set_enabled`].
static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread free lists, indexed by `ceil(log2 capacity)`. Thread-local
    /// storage needs no locks and matches the engine's memory flow: `NdArray`
    /// is `Rc`-based (`!Send`), so a buffer is always recycled on the thread
    /// that allocated it.
    static FREE: RefCell<Vec<Vec<Vec<f32>>>> = RefCell::new(Vec::new());
}

/// Snapshot of the global pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a recycled buffer.
    pub hits: u64,
    /// Pool-eligible allocations that fell through to the allocator.
    pub misses: u64,
    /// Total bytes served from recycled buffers.
    pub bytes_reused: u64,
}

impl PoolStats {
    /// Fraction of pool-eligible allocations served from the free list.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Whether pooling is active, resolving `SLIME_POOL` on first call.
pub fn enabled() -> bool {
    // lint-allow(panic): `.load` is AtomicU8, not serialize::load; cuts a misresolved call edge
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_from_env(),
    }
}

fn resolve_from_env() -> bool {
    let off = std::env::var("SLIME_POOL")
        .map(|v| matches!(v.trim(), "0" | "false" | "off"))
        .unwrap_or(false);
    let state = if off { STATE_OFF } else { STATE_ON };
    // A concurrent set_enabled may race this store; last writer wins, which
    // is fine — both derive from explicit user intent.
    STATE.store(state, Ordering::Relaxed);
    !off
}

/// Force pooling on or off (wins over `SLIME_POOL`). The CLI's `--no-pool`
/// flag and the determinism tests call this.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    if !on {
        clear_local();
    }
}

/// Drop every buffer parked in the current thread's free lists.
pub fn clear_local() {
    let _ = FREE.try_with(|f| f.borrow_mut().clear());
}

/// Current global counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
    }
}

/// Zero the global counters (benchmarks call this after warmup).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    BYTES_REUSED.store(0, Ordering::Relaxed);
}

/// Bucket index whose every resident has capacity >= `n` (`n >= 1`).
#[inline]
fn bucket_for_request(n: usize) -> usize {
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Bucket index a buffer of `capacity` can serve: largest `b` with
/// `2^b <= capacity`, so every take from bucket `b` fits.
#[inline]
fn bucket_for_capacity(capacity: usize) -> usize {
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// An empty (`len == 0`) buffer with capacity for at least `min_cap`
/// elements — recycled when possible, freshly allocated otherwise. The
/// caller must fill it through safe `Vec` growth; recycled contents are
/// never exposed.
pub fn take_empty(min_cap: usize) -> Vec<f32> {
    match reuse(min_cap) {
        Reuse::Hit(mut v) => {
            v.clear();
            v
        }
        // Allocate the bucket's lower bound so this buffer recycles back
        // into the bucket it was served from.
        Reuse::Miss(bucket) => Vec::with_capacity(1usize << bucket),
        Reuse::Bypass => Vec::with_capacity(min_cap),
    }
}

/// A buffer of exactly `n` elements whose contents are unspecified: the
/// caller must write every element before reading any. Saves the fill pass
/// of [`take_filled`] for kernels that overwrite their whole output.
///
/// Contents are always initialized memory — a recycled buffer keeps the
/// length it was last used at, so only the part it never held is zeroed,
/// and a miss allocates zeroed memory. Under `--features sanitize` every
/// slot is NaN instead, so a read before the write surfaces as a non-finite
/// op output.
pub fn take_unfilled(n: usize) -> Vec<f32> {
    let mut v = match reuse(n) {
        Reuse::Hit(v) => v,
        // The bucket's capacity, zeroed only up to `n` below (like
        // `take_filled`), so no page past `n` is touched.
        Reuse::Miss(bucket) => Vec::with_capacity(1usize << bucket),
        Reuse::Bypass => Vec::with_capacity(n),
    };
    if v.len() >= n {
        v.truncate(n);
    } else {
        v.resize(n, 0.0);
    }
    #[cfg(feature = "sanitize")]
    v.fill(f32::NAN);
    v
}

/// Outcome of a free-list lookup for a request of `n` elements.
enum Reuse {
    /// A recycled buffer with capacity >= `n` (its length is what its last
    /// user left).
    Hit(Vec<f32>),
    /// Pool-eligible but the bucket (given) was empty.
    Miss(usize),
    /// Out of the pooled size range, or the pool is off.
    Bypass,
}

fn reuse(n: usize) -> Reuse {
    if n < MIN_POOLED_LEN || n > MAX_POOLED_LEN || !enabled() {
        return Reuse::Bypass;
    }
    let bucket = bucket_for_request(n);
    let reused = FREE
        .try_with(|f| {
            let mut lists = f.borrow_mut();
            lists.get_mut(bucket).and_then(Vec::pop)
        })
        .unwrap_or(None);
    match reused {
        Some(v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_REUSED.fetch_add(4 * n as u64, Ordering::Relaxed);
            Reuse::Hit(v)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Reuse::Miss(bucket)
        }
    }
}

/// A buffer of exactly `n` elements, every slot set to `value`.
pub fn take_filled(n: usize, value: f32) -> Vec<f32> {
    let mut v = take_empty(n);
    v.resize(n, value);
    v
}

/// Return a buffer to the current thread's free list (or drop it if the
/// pool is off, the bucket is full, or the size is out of range).
// lint-allow(panic): the free-list Vec is resized to bucket + 1 right before the index
pub fn recycle(v: Vec<f32>) {
    let capacity = v.capacity();
    if capacity < MIN_POOLED_LEN || capacity > MAX_POOLED_LEN || !enabled() {
        return;
    }
    let bucket = bucket_for_capacity(capacity);
    // try_with: recycling can run during thread teardown (TLS destructors),
    // where touching FREE again would panic; just drop the buffer then.
    let _ = FREE.try_with(|f| {
        let mut lists = f.borrow_mut();
        if lists.len() <= bucket {
            lists.resize_with(bucket + 1, Vec::new);
        }
        let slot = &mut lists[bucket];
        if slot.len() < MAX_PER_BUCKET {
            slot.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enabled flag and counters are process-global; serialize the
    /// tests that toggle or assert on them.
    static KNOB: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        KNOB.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn recycle_then_take_hits_same_bucket() {
        let _g = lock();
        set_enabled(true);
        let before = stats();
        let v = take_filled(100, 1.0);
        let ptr = v.as_ptr();
        recycle(v);
        let v2 = take_filled(100, 0.0);
        assert_eq!(v2.as_ptr(), ptr, "expected the recycled buffer back");
        assert!(stats().hits > before.hits);
        recycle(v2);
    }

    #[test]
    fn reused_buffers_come_back_clean() {
        let _g = lock();
        set_enabled(true);
        let mut v = take_filled(64, 7.5);
        v.iter_mut().for_each(|x| *x = f32::NAN);
        recycle(v);
        let z = take_filled(64, 0.0);
        assert!(z.iter().all(|&x| x == 0.0), "stale contents leaked");
        let e = take_empty(64);
        assert!(e.is_empty(), "take_empty must hand out len-0 buffers");
        recycle(z);
        recycle(e);
    }

    #[test]
    fn bucket_rounding_covers_requests() {
        let _g = lock();
        set_enabled(true);
        // A buffer recycled from a 100-element request must satisfy any
        // later request up to its bucket bound.
        let v = take_empty(100);
        assert!(v.capacity() >= 128, "miss should allocate the bucket bound");
        recycle(v);
        let v2 = take_empty(128);
        assert!(v2.capacity() >= 128);
        recycle(v2);
        assert_eq!(bucket_for_request(1), 0);
        assert_eq!(bucket_for_request(16), 4);
        assert_eq!(bucket_for_request(17), 5);
        assert_eq!(bucket_for_capacity(16), 4);
        assert_eq!(bucket_for_capacity(31), 4);
        assert_eq!(bucket_for_capacity(32), 5);
    }

    #[test]
    fn disabled_pool_never_reuses() {
        let _g = lock();
        set_enabled(false);
        let before = stats();
        let v = take_filled(256, 1.0);
        recycle(v);
        let v2 = take_filled(256, 2.0);
        assert!(v2.iter().all(|&x| x == 2.0));
        let after = stats();
        assert_eq!(after.hits, before.hits, "disabled pool must not hit");
        assert_eq!(after.misses, before.misses, "disabled pool must not count");
        set_enabled(true);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let _g = lock();
        set_enabled(true);
        let before = stats();
        let v = take_filled(MIN_POOLED_LEN - 1, 1.0);
        recycle(v);
        let after = stats();
        assert_eq!(after.hits + after.misses, before.hits + before.misses);
    }

    #[test]
    fn unfilled_takes_have_the_requested_length() {
        let _g = lock();
        set_enabled(true);
        // A recycled buffer shorter than the request (it last held 40 of
        // its 64 slots) and a longer one both come back at exactly `n`.
        let short = take_filled(40, 3.0);
        recycle(short);
        let v = take_unfilled(60);
        assert_eq!(v.len(), 60);
        recycle(v);
        let w = take_unfilled(33);
        assert_eq!(w.len(), 33);
        recycle(w);
        // Off-pool sizes and a disabled pool fall through to allocation.
        assert_eq!(take_unfilled(MIN_POOLED_LEN - 1).len(), MIN_POOLED_LEN - 1);
        set_enabled(false);
        assert_eq!(take_unfilled(100).len(), 100);
        set_enabled(true);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn unfilled_takes_are_poisoned_under_sanitize() {
        let _g = lock();
        set_enabled(true);
        let v = take_filled(200, 1.0);
        recycle(v);
        let hit = take_unfilled(150);
        assert!(hit.iter().all(|x| x.is_nan()), "recycled take not poisoned");
        let miss = take_unfilled(1 << 20);
        assert!(miss.iter().all(|x| x.is_nan()), "fresh take not poisoned");
        recycle(hit);
        recycle(miss);
    }

    #[test]
    fn hit_rate_math() {
        let s = PoolStats {
            hits: 9,
            misses: 1,
            bytes_reused: 0,
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }
}
