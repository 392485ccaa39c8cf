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
//! A panicking task propagates its panic to the caller of [`run`]. Callers
//! that must survive task panics catch them inside the task: the
//! resilient runner wraps each attempt in `catch_unwind` and renders the
//! payload with [`panic_message`].
//!
//! Lock poisoning is recovered, not propagated: a queue or result mutex
//! poisoned by a panicking task holds plain data (task indices / finished
//! results), which stays valid whatever the panic interrupted.

use std::collections::VecDeque;
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
    fn panic_message_renders_string_and_other_payloads() {
        let caught = |payload: Box<dyn std::any::Any + Send>| panic_message(payload.as_ref());
        assert_eq!(caught(Box::new("static str")), "static str");
        assert_eq!(caught(Box::new(String::from("formatted"))), "formatted");
        assert_eq!(
            caught(Box::new(42_u32)),
            "panicked with a non-string payload"
        );
    }
}
