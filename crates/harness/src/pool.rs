//! A work-stealing thread pool for static task sets.
//!
//! Built on `std::thread::scope` + mutex-guarded deques (the build
//! environment has no external crates): the task set is split round-robin
//! across per-worker deques; each worker pops from the *back* of its own
//! deque and, when empty, steals from the *front* of a victim's. Stealing
//! from the opposite end keeps contention low (owner and thief touch
//! different ends) and steals the tasks the owner would reach last.
//!
//! Because the task set is static — no task enqueues further tasks — a
//! worker may exit as soon as every deque is empty; tasks still in flight
//! on other workers need no help. Results land in a slot-per-task vector,
//! so output order is plan order regardless of which worker ran what.
//!
//! Two entry points with different failure contracts:
//!
//! * [`run`] — a panicking task propagates its panic to the caller;
//! * [`run_isolated`] — each task runs under `catch_unwind`, so a panic
//!   becomes an `Err(message)` in that task's slot and every other task's
//!   result survives. This is what the resilient runner builds on.
//!
//! Lock poisoning is recovered, not propagated: a queue or result mutex
//! poisoned by a panicking task holds plain data (task indices / finished
//! results), which stays valid whatever the panic interrupted.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Runs `n_tasks` tasks on `workers` threads and returns the results in
/// task-index order.
///
/// `task` must be safe to call from several threads at once (`Sync`); it
/// receives the task index. `workers` is clamped to `1..=n_tasks`.
///
/// # Panics
///
/// Re-raises the panic of any panicking task.
pub fn run<T, F>(n_tasks: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_tasks == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n_tasks);
    if workers == 1 {
        // Serial reference path: no threads, same results by construction.
        return (0..n_tasks).map(task).collect();
    }

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            // Round-robin split: worker w owns tasks w, w+workers, ...
            Mutex::new((w..n_tasks).step_by(workers).collect())
        })
        .collect();
    let results: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let task = &task;
            handles.push(scope.spawn(move || {
                loop {
                    // Own deque first (back), then steal (front). A poisoned
                    // lock still guards valid data — recover, don't abort.
                    // dpm-lint: allow(slice_index, reason = "w < workers == queues.len() by the spawn loop bound")
                    let mut claimed = queues[w]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop_back();
                    if claimed.is_none() {
                        for offset in 1..workers {
                            let victim = (w + offset) % workers;
                            // dpm-lint: allow(slice_index, reason = "victim < workers == queues.len() by the modulus")
                            claimed = queues[victim]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .pop_front();
                            if claimed.is_some() {
                                break;
                            }
                        }
                    }
                    let Some(index) = claimed else {
                        return; // Static task set: empty everywhere = done.
                    };
                    let value = task(index);
                    // dpm-lint: allow(slice_index, reason = "index came off a deque seeded with 0..n_tasks == results.len()")
                    *results[index]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(value);
                }
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // dpm-lint: allow(no_panic, reason = "structural invariant: the deques are seeded with every index exactly once and workers only exit when all are empty")
                .expect("every task index was claimed exactly once")
        })
        .collect()
}

/// Renders a caught panic payload as a message: the payload itself when
/// it is a string (as `panic!` with a message makes it).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "panicked with a non-string payload".to_owned()
    }
}

/// As [`run`], but each task is isolated with `catch_unwind`: a panicking
/// task yields `Err(panic message)` in its own slot instead of tearing down
/// the pool, and every other task's result is preserved.
///
/// The closure is wrapped in `AssertUnwindSafe`: the pool never reuses
/// whatever state the panic may have left behind — each task's slot is
/// written exactly once, and the deques hold plain indices.
pub fn run_isolated<T, F>(n_tasks: usize, workers: usize, task: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run(n_tasks, workers, |index| {
        catch_unwind(AssertUnwindSafe(|| task(index)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// The machine's available parallelism (defaulting to 1 if unknown) — the
/// default worker count for runners and CLI tools.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_task_order() {
        let out = run(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn each_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run(64, 5, |i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run(37, 1, |i| i as u64 * 3 + 1);
        for workers in [2, 3, 8, 64] {
            assert_eq!(run(37, workers, |i| i as u64 * 3 + 1), serial);
        }
    }

    #[test]
    fn handles_empty_and_tiny_task_sets() {
        assert!(run(0, 4, |i| i).is_empty());
        assert_eq!(run(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn workers_zero_is_clamped() {
        assert_eq!(run(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_task_durations_are_balanced() {
        // Front-loaded long tasks: stealing must keep everyone busy; the
        // assertion is only about correctness, the balancing is observable
        // as wall-clock on multicore hosts.
        let out = run(24, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..24).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "task 7 exploded")]
    fn task_panics_propagate() {
        run(16, 4, |i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
            i
        });
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn isolated_panic_keeps_other_results() {
        for workers in [1, 4] {
            let out = run_isolated(16, workers, |i| {
                assert!(i != 7, "task 7 exploded");
                i * 2
            });
            assert_eq!(out.len(), 16);
            for (i, slot) in out.iter().enumerate() {
                if i == 7 {
                    let err = slot.as_ref().unwrap_err();
                    assert!(err.contains("task 7 exploded"), "got {err}");
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn isolated_handles_non_string_panic_payload() {
        let out = run_isolated(2, 1, |i| {
            if i == 1 {
                std::panic::panic_any(42_u32);
            }
            i
        });
        assert_eq!(out[0], Ok(0));
        assert!(out[1].as_ref().unwrap_err().contains("panicked"));
        assert_eq!(
            out[1].as_ref().unwrap_err(),
            "panicked with a non-string payload"
        );
    }

    #[test]
    fn isolated_survives_many_panics_across_workers() {
        // Every odd task panics; all even results must still come back —
        // this is the "poisoned mutexes must not take the run down" case.
        let out = run_isolated(40, 8, |i| {
            assert!(i % 2 == 0, "odd task {i}");
            i
        });
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(slot.is_ok(), i % 2 == 0, "slot {i}: {slot:?}");
        }
    }
}
