//! The workspace's one deterministic worker pool, and the host-thread
//! count that decides whether a kernel may borrow an idle core.
//!
//! Every parallel path — the experiment harness's sweeps, the serving
//! layer's tenant lanes and the two helper threads — runs on this module.
//! The contract of [`par_map`] is what makes output byte-identical for any
//! thread count: workers decide only *when* an item runs, never *what* it
//! computes or where its result lands.
//!
//! The pool counts the host threads it runs: each [`par_map`] worker
//! (the calling thread included) and each granted [`HelperSlot`]. A
//! helper thread may start only while that count, plus the caller when it
//! is not a pool worker, is below [`std::thread::available_parallelism`],
//! so a helper never competes with pool workers or its own caller for a
//! core. Two users take slots: the hash join's probe planner, and the
//! engine, which moves the accountant of a long calm access run onto a
//! helper (see [`engine`](crate::engine)).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Host threads the pool currently runs: [`par_map`] workers plus granted
/// helper slots.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is running as a [`par_map`] worker (and so is
    /// already in [`RUNNING`]).
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// One counted host thread; uncounts it on drop, also while unwinding.
struct Counted;

impl Counted {
    fn enter() -> Self {
        RUNNING.fetch_add(1, Ordering::AcqRel);
        Counted
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        RUNNING.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A counted [`par_map`] worker: marks its thread as one while it runs.
struct Worker {
    _counted: Counted,
    was_worker: bool,
}

impl Worker {
    fn enter() -> Self {
        Worker {
            _counted: Counted::enter(),
            was_worker: WORKER.with(|w| w.replace(true)),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(self.was_worker));
    }
}

/// Cores this process may use (cached: the lookup reads the scheduler
/// affinity and cgroup quota).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The right to run one kernel helper thread, counted as a pool thread
/// until it is dropped.
pub struct HelperSlot {
    _counted: Counted,
}

/// Grant a [`HelperSlot`] if the pool's threads and the caller leave a
/// core idle, i.e. while the count of threads the pool runs, plus the
/// caller when it is not a [`par_map`] worker, is below
/// [`std::thread::available_parallelism`]. A caller outside the pool
/// therefore gets at most `cores - 1` slots. The slot is counted until it
/// is dropped.
pub fn try_helper_slot() -> Option<HelperSlot> {
    let cores = cores();
    let caller = usize::from(!WORKER.with(Cell::get));
    RUNNING
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |running| {
            (running + caller < cores).then_some(running + 1)
        })
        .ok()
        .map(|_| HelperSlot { _counted: Counted })
}

/// Compute `f(0)`, …, `f(n - 1)` on up to `jobs` workers and return the
/// results in index order. The calling thread is one of the workers; the
/// others are scoped threads. Workers claim indices from an atomic
/// counter, so for a deterministic `f` the result is identical for any job
/// count. Collecting the result into a `Result` therefore fails with the
/// lowest failing index, whichever worker reached it first. Every worker
/// is counted as a pool thread while it runs.
pub fn par_map<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
        let _worker = Worker::enter();
        let mut mine = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; the results are
            // published by the joins below.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return mine;
            }
            mine.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs.max(1).min(n)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("par_map worker panicked"));
        }
        for (i, v) in done {
            slots[i] = Some(v);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by a worker"))
        .collect()
}

/// The count is process-wide: this crate's tests that start pool threads,
/// take helper slots or read the count run one at a time under this lock.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pool's current count of host threads (for this crate's tests).
#[cfg(test)]
pub(crate) fn running() -> usize {
    RUNNING.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn par_map_merges_in_index_order_for_any_job_count() {
        let _serial = serial();
        let serial = par_map(1, 10, |i| i * i);
        assert_eq!(serial, (0..10).map(|i| i * i).collect::<Vec<_>>());
        for jobs in [2, 4, 16] {
            assert_eq!(par_map(jobs, 10, |i| i * i), serial, "jobs {jobs}");
        }
    }

    #[test]
    fn result_items_fail_with_the_lowest_failing_index() {
        let _serial = serial();
        // Items 3 and 7 fail; 7 fails fast while 3 is slow, so a worker
        // usually reaches the higher failure first.
        let item = |i: usize| -> Result<usize, usize> {
            match i {
                3 => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    Err(3)
                }
                7 => Err(7),
                _ => Ok(i),
            }
        };
        for jobs in [1, 2, 4, 16] {
            let out: Result<Vec<usize>, usize> = par_map(jobs, 12, item).into_iter().collect();
            assert_eq!(out, Err(3), "jobs {jobs}");
        }
    }

    #[test]
    fn empty_input_returns_empty() {
        let _serial = serial();
        for jobs in [1, 4] {
            assert!(par_map(jobs, 0, |i| i).is_empty());
        }
    }

    #[test]
    fn no_helper_slot_while_every_core_runs_a_worker() {
        let _serial = serial();
        let cores = cores();
        // Every worker waits until all are running, tries for a slot, and
        // waits again so none leaves the pool before the others tried.
        let running = Barrier::new(cores);
        let tried = Barrier::new(cores);
        let granted = par_map(cores, cores, |_| {
            running.wait();
            let slot = try_helper_slot();
            tried.wait();
            slot.is_some()
        });
        assert_eq!(granted, vec![false; cores]);
        assert_eq!(RUNNING.load(Ordering::Acquire), 0, "workers uncounted");
    }

    #[test]
    fn one_worker_leaves_an_idle_core_for_a_helper() {
        let _serial = serial();
        let cores = cores();
        let seen = par_map(1, 1, |_| {
            let worker_only = RUNNING.load(Ordering::Acquire);
            let slot = try_helper_slot();
            let with_slot = RUNNING.load(Ordering::Acquire);
            let granted = slot.is_some();
            drop(slot);
            let dropped = RUNNING.load(Ordering::Acquire);
            let held_in_panic = std::cell::Cell::new(0);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _slot = try_helper_slot();
                held_in_panic.set(RUNNING.load(Ordering::Acquire));
                panic!("helper body fails");
            }));
            assert!(unwound.is_err());
            let after_panic = RUNNING.load(Ordering::Acquire);
            let held_in_panic = held_in_panic.get();
            (
                worker_only,
                granted,
                with_slot,
                dropped,
                held_in_panic,
                after_panic,
            )
        });
        let (worker_only, granted, with_slot, dropped, held_in_panic, after_panic) = seen[0];
        assert_eq!(worker_only, 1, "the calling worker is counted");
        // On a one-core machine the worker already fills the only core, so
        // no slot can be granted: only the grant assertions are skipped.
        if cores >= 2 {
            assert!(granted, "one worker on {cores} cores leaves a core idle");
            assert_eq!(with_slot, 2, "a granted slot is counted");
            assert_eq!(held_in_panic, 2, "the slot is held until the panic");
        } else {
            assert!(!granted);
        }
        assert_eq!(dropped, 1, "a dropped slot is uncounted");
        assert_eq!(after_panic, 1, "a slot dropped by unwinding is uncounted");
        assert_eq!(RUNNING.load(Ordering::Acquire), 0);
    }

    /// A thread outside the pool counts itself: it may take slots only for
    /// the other cores, and dropping them restores the count.
    #[test]
    fn a_lone_caller_gets_at_most_cores_minus_one_slots() {
        let _serial = serial();
        let cores = cores();
        let before = RUNNING.load(Ordering::Acquire);
        let slots: Vec<HelperSlot> = std::iter::from_fn(try_helper_slot).take(cores).collect();
        assert!(
            slots.len() < cores,
            "a lone caller took {} slots on {cores} cores",
            slots.len()
        );
        if before == 0 {
            assert_eq!(slots.len(), cores - 1, "every other core is idle");
        }
        drop(slots);
        assert_eq!(RUNNING.load(Ordering::Acquire), before);
        // Inside the pool the worker is already counted: one worker may
        // take the same `cores - 1` slots.
        let inside = par_map(1, 1, |_| {
            std::iter::from_fn(try_helper_slot)
                .take(cores)
                .collect::<Vec<_>>()
                .len()
        });
        assert!(inside[0] < cores);
    }
}
