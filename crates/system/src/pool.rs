//! The one job runner behind sweeps, campaigns and predictor tournaments.
//!
//! [`run`] spawns a fixed set of scoped worker threads that pull job ids
//! from one shared queue, and hands every result to a consumer on the
//! calling thread, in completion order. One worker takes the same path as
//! many: it is one spawned thread. A panicking job stops dispatch; results
//! that already finished still reach the consumer, and then the job's own
//! panic payload is re-raised on the calling thread.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Runs `jobs` jobs on `cap.unwrap_or(available_parallelism)` worker
/// threads, clamped to `1..=jobs`.
///
/// `order` receives that worker count and returns the `jobs` job ids in
/// dispatch order. Each worker takes the next id, computes `job(id)`, and
/// sends the result to `consume(id, result)`, which runs on the calling
/// thread in completion order. A consumer error stops dispatch the way a
/// panic does; it is returned once the jobs already running have drained,
/// and their results are dropped.
///
/// # Panics
///
/// Re-raises the first panicking job's payload, after every worker has
/// stopped and every finished result has reached `consume`.
pub(crate) fn run<T: Send, E>(
    jobs: usize,
    cap: Option<usize>,
    order: impl FnOnce(usize) -> Vec<usize>,
    job: impl Fn(usize) -> T + Sync,
    mut consume: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    if jobs == 0 {
        return Ok(());
    }
    let workers = cap
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
        .clamp(1, jobs);
    let order = order(workers);
    debug_assert_eq!(order.len(), jobs, "the dispatch order names every job once");
    // Both atomics are `Relaxed`: they publish no other data. `next` hands
    // out dispatch slots; `stop` only ends the worker loops early.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let mut result = Ok(());
    let mut panicked = None;
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (order, next, stop, job) = (&order, &next, &stop, &job);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Some(&id) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(id)));
                    if outcome.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    if tx.send((id, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (id, outcome) in rx {
            match outcome {
                Ok(value) if result.is_ok() => {
                    result = consume(id, value);
                    if result.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                Ok(_) => {}
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    result
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;
    use std::sync::Mutex;

    use super::*;

    /// Runs `jobs` identity jobs on `cap` workers; returns the consumed ids.
    fn consumed(jobs: usize, cap: usize) -> Vec<usize> {
        let mut seen = Vec::new();
        let Ok(()) = run(
            jobs,
            Some(cap),
            |_| (0..jobs).collect(),
            |id| id * 10,
            |id, value| {
                assert_eq!(value, id * 10);
                seen.push(id);
                Ok::<(), Infallible>(())
            },
        );
        seen.sort_unstable();
        seen
    }

    #[test]
    fn more_workers_than_jobs_runs_each_job_once() {
        let mut workers_seen = 0;
        let Ok(()) = run(
            3,
            Some(64),
            |workers| {
                workers_seen = workers;
                vec![2, 0, 1]
            },
            |id| id,
            |_, _| Ok::<(), Infallible>(()),
        );
        assert_eq!(
            workers_seen, 3,
            "the worker count is clamped to the job count"
        );
        assert_eq!(consumed(3, 64), [0, 1, 2]);
        assert_eq!(consumed(5, 1), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_jobs_run_nothing() {
        let Ok(()) = run(
            0,
            None,
            |_| unreachable!("no order is needed for zero jobs"),
            |_| -> u8 { unreachable!("no job runs") },
            |_, _| -> Result<(), Infallible> { unreachable!("nothing is consumed") },
        );
        assert!(consumed(0, 4).is_empty());
    }

    /// Runs `jobs` jobs on `workers` threads where job `bad` panics; returns
    /// the panic message, the ids started and the ids consumed.
    fn panicking(jobs: usize, workers: usize, bad: usize) -> (String, Vec<usize>, Vec<usize>) {
        let started = Mutex::new(Vec::new());
        let mut seen = Vec::new();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(
                jobs,
                Some(workers),
                |_| (0..jobs).collect(),
                |id| {
                    started.lock().unwrap().push(id);
                    if id == bad {
                        panic!("job {id} failed");
                    }
                    id
                },
                |id, _| {
                    seen.push(id);
                    Ok::<(), Infallible>(())
                },
            )
        }));
        let payload = caught.expect_err("the job's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the original payload, not a scope-join panic");
        let mut started = started.into_inner().unwrap();
        started.sort_unstable();
        seen.sort_unstable();
        (message, started, seen)
    }

    #[test]
    fn a_panicking_job_reraises_its_own_payload() {
        for workers in [1, 2] {
            let (message, _, _) = panicking(8, workers, 5);
            assert_eq!(message, "job 5 failed", "{workers} worker(s)");
        }
    }

    #[test]
    fn no_job_starts_after_a_panic() {
        // The jobs before the panic finish and are consumed; nothing after
        // it starts.
        let (_, started, seen) = panicking(6, 1, 2);
        assert_eq!(started, [0, 1, 2]);
        assert_eq!(seen, [0, 1]);
    }

    #[test]
    fn a_consumer_error_stops_consumption_and_is_returned() {
        let mut seen = Vec::new();
        let result = run(
            100,
            Some(1),
            |_| (0..100).collect(),
            |id| id,
            |id, _| {
                seen.push(id);
                if id == 3 {
                    Err(id)
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result, Err(3));
        assert_eq!(seen, [0, 1, 2, 3]);
    }
}
