//! The workspace's one deterministic worker pool.
//!
//! Every parallel path — the experiment harness's sweeps and the serving
//! layer's tenant lanes — runs on [`par_map`]. Its contract is what makes
//! output byte-identical for any thread count: workers decide only *when*
//! an item runs, never *what* it computes or where its result lands.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Compute `f(0)`, …, `f(n - 1)` on up to `jobs` workers and return the
/// results in index order. The calling thread is one of the workers; the
/// others are scoped threads. Workers claim indices from an atomic
/// counter, so for a deterministic `f` the result is identical for any job
/// count. Collecting the result into a `Result` therefore fails with the
/// lowest failing index, whichever worker reached it first.
pub fn par_map<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_merges_in_index_order_for_any_job_count() {
        let serial = par_map(1, 10, |i| i * i);
        assert_eq!(serial, (0..10).map(|i| i * i).collect::<Vec<_>>());
        for jobs in [2, 4, 16] {
            assert_eq!(par_map(jobs, 10, |i| i * i), serial, "jobs {jobs}");
        }
    }

    #[test]
    fn result_items_fail_with_the_lowest_failing_index() {
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
        for jobs in [1, 4] {
            assert!(par_map(jobs, 0, |i| i).is_empty());
        }
    }
}
