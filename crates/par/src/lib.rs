//! Std-only parallel-map substrate for the CAROL reproduction.
//!
//! The experiment harness fans the same simulation out over many seeds
//! (`carol::runner::run_seeds`) and many policy × seed pairs (the Fig. 5
//! sweep). Each unit of work is a pure function of its input — every seed
//! owns its RNG streams — so the fan-out is embarrassingly parallel, and
//! the only hard requirement is that parallel execution stays **bit
//! identical** to serial execution.
//!
//! [`par_map_threads`] guarantees exactly that: workers pull items off a
//! shared atomic queue (single-queue work stealing) but every result is
//! written back to the slot of its *input index*, so the output order —
//! and, for pure per-item functions, every output bit — is independent of
//! thread count and OS scheduling. [`par_map_init`] is the same engine with
//! per-worker state — the batched surrogate engines use it to keep one
//! model replica per worker rather than cloning one per chunk.
//!
//! Every fan-out takes its worker count (`1` is the serial in-place
//! path; values are clamped to ≥ 1). [`thread_count`] is the default
//! callers pass: [`std::thread::available_parallelism`], pinned by the
//! `CAROL_THREADS` environment variable when set. No threads are spawned
//! for empty or single-item inputs.
//!
//! `CAROL_THREADS` has a SIMD sibling: `CAROL_SIMD` pins the f64 kernel
//! backend (`auto|scalar`) in `nn::kernel`, resolved once per
//! process exactly like the thread override. Both knobs exist for the
//! same reason — every engine is bit-identical across their settings, so
//! either can be pinned freely for debugging or CI without changing a
//! single output bit.
//!
//! This crate uses only scoped threads from `std` (borrowed inputs and
//! closures need no `'static` bound) and depends only on the vendored
//! serde stub, which [`EngineConfig`] — the worker count every batched
//! subsystem shares — derives its wire format from.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "CAROL_THREADS";

/// Parses a `CAROL_THREADS`-style value: empty / unparsable strings are
/// ignored (`None`), `0` is clamped up to 1 worker.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// The default worker count of a fan-out: the `CAROL_THREADS` override if
/// set and parsable, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when even that is unavailable).
pub fn thread_count() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Worker count of the batched engines: CAROL's surrogate evaluation
/// (`CarolConfig`) and GON training (`TrainConfig`).
///
/// One value describes how many workers a batched engine fans out over;
/// [`EngineConfig::worker_count`] resolves an unset count through
/// [`thread_count`], the one place the `CAROL_THREADS` environment
/// override is read.
///
/// # Examples
///
/// ```
/// let engine = par::EngineConfig::default();
/// assert!(engine.worker_count() >= 1);
/// assert_eq!(par::EngineConfig::batched(1).worker_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker-thread override; `None` defers to `CAROL_THREADS` /
    /// available parallelism via [`thread_count`].
    pub threads: Option<usize>,
}

impl EngineConfig {
    /// Batched engine with an explicit pinned worker count (what tests
    /// use to compare 1-vs-N bit identity without touching the
    /// environment).
    pub fn batched(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
        }
    }

    /// Resolves the effective worker count: the explicit `threads`
    /// override if present, otherwise [`thread_count`] (which consults
    /// `CAROL_THREADS`).
    pub fn worker_count(&self) -> usize {
        self.threads.map(|n| n.max(1)).unwrap_or_else(thread_count)
    }
}

/// Order-preserving parallel map over a slice on `threads` workers
/// (1 ⇒ serial in-place, no threads spawned). The `CAROL_THREADS`
/// override is *not* consulted here: callers that want it pass
/// [`thread_count`].
///
/// `f` must be a pure function of the item for the parallel result to be
/// bit-identical to the serial one; the scheduling itself never reorders
/// outputs. Panics in `f` propagate to the caller once all workers have
/// stopped.
///
/// # Examples
///
/// ```
/// let squares = par::par_map_threads(par::thread_count(), &[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_init(threads, items, || (), |_, item| f(item))
}

/// [`par_map_threads`] with per-worker state: `init` builds one `S` per
/// worker and `f` receives it mutably alongside every item the worker
/// claims. This is how the batched engines keep **one model replica per
/// worker** instead of cloning a model per chunk.
///
/// `init` runs `min(threads, items.len())` times (at least once unless
/// the input is empty), on the calling thread. Output order is input
/// order. For the parallel result to be bit-identical to the serial one,
/// `f`'s output must not depend on what earlier items left in the state
/// (a model's forward caches are overwritten, never read, by the next
/// forward — that is the contract the engines rely on).
///
/// # Examples
///
/// ```
/// // A scratch buffer per worker, reused across that worker's items.
/// let lens = par::par_map_init(2, &["ab", "cde"], Vec::new, |buf: &mut Vec<u8>, s| {
///     buf.clear();
///     buf.extend_from_slice(s.as_bytes());
///     buf.len()
/// });
/// assert_eq!(lens, vec![2, 3]);
/// ```
pub fn par_map_init<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    I: Fn() -> S,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    let mut states: Vec<S> = (0..workers).map(|_| init()).collect();
    par_map_states(&mut states, items, f)
}

/// [`par_map_init`] over states the caller keeps from call to call: one
/// worker per state (at most one per item), each running `f` on its own
/// state. The states carry whatever the caller's workers keep warm
/// between calls (a model replica and its buffers, a scratch topology),
/// under the same contract: `f`'s output must not depend on what earlier
/// items left in a state.
///
/// # Panics
///
/// Panics if `states` is empty and `items` is not.
pub fn par_map_states<T, S, R, F>(states: &mut [S], items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = states.len().min(items.len());
    if workers <= 1 {
        if items.is_empty() {
            return Vec::new();
        }
        let state = states.first_mut().expect("a state per worker");
        return items.iter().map(|item| f(state, item)).collect();
    }

    // Single shared queue: workers race on `next` and claim whole items.
    // Results land in the slot of their input index, so output order (and
    // bit-for-bit content, for pure `f`) is schedule-independent. The
    // per-slot mutexes are uncontended — every index is claimed exactly
    // once — and exist only to hand `Send` results across threads safely.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for state in &mut states[..workers] {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(state, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped an item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = par_map_threads(8, &input, |&x| x * 2);
        assert_eq!(out, input.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_with_uneven_work() {
        let input: Vec<u64> = (0..64).collect();
        // Uneven per-item cost: late items finish before early ones, so an
        // order bug would surface as a permuted output.
        let work = |&x: &u64| -> u64 {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = par_map_threads(1, &input, work);
        let parallel = par_map_threads(4, &input, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_threads(64, &[1, 2, 3], |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_threads(2, &[1, 2, 3, 4], |&x| {
                assert_ne!(x, 3, "boom");
                x
            })
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn threads_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("not a number")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), Some(1), "0 clamps to 1 worker");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn engine_config_defaults_and_helpers() {
        assert_eq!(EngineConfig::default().threads, None);
        assert_eq!(EngineConfig::batched(4).worker_count(), 4);
        assert_eq!(
            EngineConfig::batched(0).worker_count(),
            1,
            "0 clamps to 1 worker"
        );
        assert_eq!(
            EngineConfig { threads: Some(0) }.worker_count(),
            1,
            "explicit Some(0) clamps too"
        );
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        let calls = AtomicUsize::new(0);
        let init = || {
            calls.fetch_add(1, Ordering::Relaxed);
        };
        let input: Vec<u32> = (0..40).collect();
        // (1, all 40): the serial path inits exactly once.
        for (threads, items) in [(4usize, &input[..]), (8, &input[..3]), (1, &input[..])] {
            calls.store(0, Ordering::Relaxed);
            let out = par_map_init(threads, items, init, |_, &x| x + 1);
            assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
            let n = calls.load(Ordering::Relaxed);
            assert!(
                (1..=threads.min(items.len())).contains(&n),
                "{threads} threads over {} items: {n} init calls",
                items.len()
            );
        }

        calls.store(0, Ordering::Relaxed);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_init(4, &empty, init, |_, &x| x).is_empty());
        assert!(par_map_init(1, &empty, init, |_, &x| x).is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0, "empty input never inits");
    }

    #[test]
    fn init_state_parallel_matches_serial_with_uneven_work() {
        let input: Vec<u64> = (0..64).collect();
        // Per-worker scratch reused across items; uneven cost makes late
        // items finish first, so an order bug would permute the output.
        let work = |scratch: &mut Vec<u64>, &x: &u64| -> u64 {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            scratch.clear();
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                scratch.push(acc);
            }
            scratch.iter().fold(0u64, |a, &v| a ^ v)
        };
        let serial = par_map_init(1, &input, Vec::new, work);
        for threads in [2, 4] {
            assert_eq!(par_map_init(threads, &input, Vec::new, work), serial);
        }
    }

    #[test]
    fn non_copy_results_survive() {
        let out = par_map_threads(3, &[1, 2, 3], |&x| vec![x; x]);
        assert_eq!(out, vec![vec![1], vec![2, 2], vec![3, 3, 3]]);
    }
}
