//! Work-stealing task scheduler for the evaluation runner.
//!
//! [`par_map`] maps a function over a slice on scoped worker threads
//! and returns results in input order. Unlike the earlier fork-join
//! helper it is built around three ideas:
//!
//! * **Per-worker deques, stealing idle workers busy.** Each worker
//!   owns a deque of task indices (Chase–Lev style discipline over
//!   `std` primitives: LIFO `pop_back` on the owner's side for cache
//!   locality, FIFO `pop_front` steals from victims so the oldest —
//!   largest-remaining — work migrates first). A worker whose deque
//!   runs dry sweeps the other deques in a deterministic order; the
//!   sweep coming up empty means every task has been claimed and the
//!   worker retires. Task *indices* are what move between threads, so
//!   the deques carry no borrowed data and the whole scheduler is
//!   `forbid(unsafe_code)`-clean.
//!
//! * **One process-wide worker budget instead of nested pools.** The
//!   number of live helper threads across *all* concurrent and nested
//!   [`par_map`] calls is bounded by `NVP_THREADS` (or hardware
//!   parallelism) minus one; see [`crate::par::thread_budget`]. A
//!   nested call — an experiment's point sweep running inside the
//!   campaign-level map — never spawns a fresh full-size pool: the
//!   calling worker always contributes work itself, and extra helpers
//!   are recruited **dynamically between tasks** only while budget
//!   tokens are free. When the wide part of the campaign drains and
//!   other workers retire, their tokens flow to whatever long-tail
//!   experiment (e.g. F12's Monte-Carlo trials) is still submitting
//!   fine-grained tasks, which is exactly the tail the old
//!   whole-experiment fan-out serialized.
//!
//! * **Pre-allocated per-index result slots.** Every task writes its
//!   result into its own pre-allocated slot — no shared `Mutex<Vec>`
//!   on the hot path, no final sort. Input order falls out of the slot
//!   indices, so parallel and sequential execution stay byte-identical
//!   no matter how tasks were stolen.
//!
//! A panic inside the mapped function propagates to the caller with
//! its **original payload**: each worker catches the unwind, the first
//! payload is parked, every worker stops claiming tasks, and after the
//! scope joins the helpers the caller resumes the unwind. (Letting a
//! helper's panic reach the scope instead would replace the payload
//! with a generic "a scoped thread panicked".) Deque locks are
//! recovered from poisoning for the same reason.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Scope;

use crate::par::{thread_budget, thread_count};

/// Scheduler counters since process start (monotone; see
/// [`sched_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks submitted through the scheduler (including inline runs).
    pub tasks: u64,
    /// Tasks claimed from another worker's deque.
    pub steals: u64,
    /// Helper threads spawned.
    pub helpers: u64,
}

impl SchedStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-run deltas against the process-wide counters.
    #[must_use]
    pub fn since(self, earlier: SchedStats) -> SchedStats {
        SchedStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steals: self.steals.saturating_sub(earlier.steals),
            helpers: self.helpers.saturating_sub(earlier.helpers),
        }
    }
}

static TASKS: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);
static HELPERS: AtomicU64 = AtomicU64::new(0);

/// Helper threads currently live across every concurrent/nested
/// [`par_map`] call — the enforcement point of the process-wide budget.
static HELPERS_LIVE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide scheduler counters.
#[must_use]
pub fn sched_stats() -> SchedStats {
    SchedStats {
        tasks: TASKS.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
        helpers: HELPERS.load(Ordering::Relaxed),
    }
}

/// Claims one helper-thread token if the process-wide budget allows,
/// i.e. fewer than `thread_budget() - 1` helpers are live.
fn try_acquire_helper() -> bool {
    let limit = thread_budget().saturating_sub(1);
    let mut cur = HELPERS_LIVE.load(Ordering::Relaxed);
    while cur < limit {
        match HELPERS_LIVE.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

/// Returns a helper token on worker exit — also on unwind, so a
/// panicking worker can never leak budget.
struct HelperToken;

impl Drop for HelperToken {
    fn drop(&mut self) {
        HELPERS_LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Locks a deque, recovering from poisoning: the deques hold plain
/// indices (no invariants to protect), and surfacing the *original*
/// worker panic beats replacing it with a `PoisonError`.
fn lock_deque(deque: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    deque.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One `par_map` invocation: the task list, the per-worker deques, and
/// the result slots. Shared by reference with every worker the call
/// recruits.
struct Run<'env, T, R, F> {
    items: &'env [T],
    f: &'env F,
    /// One slot per task index; each is locked at most twice (result
    /// store, final take), so there is no cross-task contention.
    slots: &'env [Mutex<Option<R>>],
    /// Per-worker task-index deques; owner pops the back, thieves pop
    /// the front.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Indices still sitting in some deque (i.e. claimable). Recruiting
    /// stops once this reaches zero — tasks already executing cannot be
    /// helped.
    unclaimed: AtomicUsize,
    /// Next worker id to hand to a newly recruited helper (0 is the
    /// caller).
    next_worker: AtomicUsize,
    /// Worker-slot cap for this call (`thread_count` of the task
    /// count).
    workers: usize,
    /// First panic payload caught in a worker; set together with
    /// [`Self::aborted`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Tells every worker to stop claiming tasks (a sibling panicked).
    aborted: AtomicBool,
}

impl<'env, T, R, F> Run<'env, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn new(items: &'env [T], f: &'env F, slots: &'env [Mutex<Option<R>>], workers: usize) -> Self {
        // Contiguous chunks: worker `w` seeds its deque with the w-th
        // slice of the index space, so LIFO local pops stay dense while
        // FIFO steals peel whole untouched prefixes from idle workers.
        let mut deques: Vec<Mutex<VecDeque<usize>>> = Vec::with_capacity(workers);
        let per = items.len().div_ceil(workers);
        for w in 0..workers {
            let lo = (w * per).min(items.len());
            let hi = ((w + 1) * per).min(items.len());
            deques.push(Mutex::new((lo..hi).collect()));
        }
        Run {
            items,
            f,
            slots,
            deques,
            unclaimed: AtomicUsize::new(items.len()),
            next_worker: AtomicUsize::new(1),
            workers,
            panic: Mutex::new(None),
            aborted: AtomicBool::new(false),
        }
    }

    /// The parked panic payload, if any worker panicked.
    fn into_panic(self) -> Option<Box<dyn Any + Send>> {
        self.panic.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// LIFO pop from the worker's own deque.
    fn pop_local(&self, w: usize) -> Option<usize> {
        let idx = lock_deque(&self.deques[w]).pop_back();
        if idx.is_some() {
            self.unclaimed.fetch_sub(1, Ordering::Relaxed);
        }
        idx
    }

    /// FIFO steal, sweeping victims in a deterministic order starting
    /// after the thief. An empty sweep means every task is claimed.
    fn steal(&self, w: usize) -> Option<usize> {
        for off in 1..self.workers {
            let victim = (w + off) % self.workers;
            let idx = lock_deque(&self.deques[victim]).pop_front();
            if idx.is_some() {
                self.unclaimed.fetch_sub(1, Ordering::Relaxed);
                STEALS.fetch_add(1, Ordering::Relaxed);
                return idx;
            }
        }
        None
    }

    /// Spawns one more helper if claimable work remains, a worker slot
    /// is open, and the process-wide budget has a token. Every worker
    /// calls this between tasks, so capacity freed elsewhere (an outer
    /// experiment finishing) is recruited into whatever call still has
    /// queued tasks.
    fn maybe_recruit<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        if self.unclaimed.load(Ordering::Relaxed) == 0
            || self.next_worker.load(Ordering::Relaxed) >= self.workers
            || !try_acquire_helper()
        {
            return;
        }
        let id = self.next_worker.fetch_add(1, Ordering::Relaxed);
        if id >= self.workers {
            // Lost the worker-slot race; hand the token straight back.
            HELPERS_LIVE.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        HELPERS.fetch_add(1, Ordering::Relaxed);
        scope.spawn(move || {
            let _token = HelperToken;
            self.work(scope, id);
        });
    }

    /// A worker's main loop: local pops, then steals, recruiting
    /// between tasks; retires when a full steal sweep finds nothing or
    /// a sibling panicked.
    fn work<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, w: usize) {
        while !self.aborted.load(Ordering::Relaxed) {
            let Some(i) = self.pop_local(w).or_else(|| self.steal(w)) else {
                return;
            };
            self.maybe_recruit(scope);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.f)(&self.items[i])
            })) {
                Ok(r) => {
                    // A slot is written exactly once: indices live in
                    // exactly one deque and are claimed exactly once.
                    *self.slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(r);
                }
                Err(payload) => {
                    // Park the first payload; the caller re-raises it
                    // after the scope joins every helper.
                    let mut slot =
                        self.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.get_or_insert(payload);
                    drop(slot);
                    self.aborted.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Maps `f` over `items` on the work-stealing scheduler, preserving
/// input order in the output. The caller always participates; helper
/// threads are recruited from the process-wide budget while spare
/// capacity and claimable tasks both exist. With a budget of one (or a
/// single item) this degrades to an inline sequential map with zero
/// scheduling overhead, which is also what every nested call does while
/// the pool is saturated.
pub(crate) fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    TASKS.fetch_add(items.len() as u64, Ordering::Relaxed);
    let workers = thread_count(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    {
        let run = Run::new(items, &f, &slots, workers);
        std::thread::scope(|s| run.work(s, 0));
        // The scope has joined every helper: either all slots are
        // written, or a worker parked a panic to re-raise here.
        if let Some(payload) = run.into_panic() {
            std::panic::resume_unwind(payload);
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every claimed task stores its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::set_thread_override;

    use crate::par::test_override_lock as override_lock;

    #[test]
    fn preserves_input_order() {
        let _guard = override_lock();
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..100).collect();
        // Uneven per-item cost to scramble completion order.
        let out = par_map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        set_thread_override(None);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn steal_heavy_randomized_costs_stay_ordered() {
        let _guard = override_lock();
        set_thread_override(Some(8));
        // Seeded LCG task costs: a few long poles early in the index
        // space force the other workers to steal the rest.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let costs: Vec<u64> = (0..64)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 56
            })
            .collect();
        let before = sched_stats();
        let out = par_map(&costs, |&c| {
            // Busy-spin proportional to the seeded cost so stealing
            // actually happens (sleep would just idle every worker).
            let mut acc = 0u64;
            for i in 0..(c * 2_000) {
                acc = acc.wrapping_add(i ^ c);
            }
            std::hint::black_box(acc);
            c
        });
        let after = sched_stats();
        set_thread_override(None);
        assert_eq!(out, costs, "steal-heavy scheduling must not reorder results");
        assert_eq!(after.since(before).tasks, 64);
    }

    #[test]
    fn panic_in_task_propagates() {
        let _guard = override_lock();
        set_thread_override(Some(4));
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                assert!(x != 17, "boom at 17");
                x
            })
        }));
        set_thread_override(None);
        let err = result.expect_err("worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom at 17"), "original panic payload lost: {msg}");
    }

    #[test]
    fn nested_calls_share_one_budget() {
        let _guard = override_lock();
        set_thread_override(Some(3));
        // 3 threads total => at most 2 helpers live across all nesting
        // levels, however deep the nested maps go.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static MAX_LIVE: AtomicUsize = AtomicUsize::new(0);
        let track = || {
            let n = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            MAX_LIVE.fetch_max(n, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(100));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        };
        let outer: Vec<u32> = (0..8).collect();
        let sums = par_map(&outer, |&o| {
            let inner: Vec<u32> = (0..8).collect();
            par_map(&inner, |&i| {
                track();
                o * 100 + i
            })
            .into_iter()
            .sum::<u32>()
        });
        set_thread_override(None);
        let expect: Vec<u32> = (0..8).map(|o| (0..8).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(sums, expect);
        // Caller + 2 budget helpers = 3 concurrently running tasks max.
        assert!(
            MAX_LIVE.load(Ordering::SeqCst) <= 3,
            "budget exceeded: {} tasks ran concurrently under NVP_THREADS=3",
            MAX_LIVE.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn sequential_override_runs_inline() {
        let _guard = override_lock();
        set_thread_override(Some(1));
        let before = sched_stats();
        let items: Vec<u32> = (0..10).collect();
        let out = par_map(&items, |&x| x * 3);
        let after = sched_stats();
        set_thread_override(None);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        let delta = after.since(before);
        assert_eq!(delta.tasks, 10);
        assert_eq!(delta.helpers, 0, "NVP_THREADS=1 must never spawn helpers");
    }
}
