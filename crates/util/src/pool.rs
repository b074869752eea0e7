//! Deterministic scoped fan-out: a minimal std-only thread pool.
//!
//! The figure suite is embarrassingly parallel — every sweep cell
//! (policy × cluster size × arrival rate × seed) is an independent
//! simulation — but the outputs must stay bit-for-bit reproducible.
//! [`run_indexed`] provides exactly that contract: jobs are identified
//! by their submission index, workers claim indices from a shared
//! counter, and every result is stored in the slot of its *index*, never
//! appended in completion order. The returned vector is therefore
//! identical for any worker count, including 1 (which runs inline on the
//! calling thread with no pool at all).
//!
//! Threads are scoped (`std::thread::scope`), so jobs may borrow from
//! the caller's stack; a panicking job is re-raised on the calling
//! thread after the scope joins.
//!
//! The worker count is always the caller's argument: nothing here reads
//! the environment. The experiment harness passes the `workers` of its
//! run context.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available to this process (at least 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs `count` jobs — `job(0)`, `job(1)`, ... — across at most
/// `workers` scoped threads and returns their results **ordered by job
/// index**, regardless of completion order.
///
/// `workers` is clamped to `[1, count]`. With one worker the jobs run
/// inline on the calling thread, so a single-worker invocation is
/// *exactly* the sequential loop (no spawn, no synchronization). If any
/// job panics, the panic is propagated to the caller after all workers
/// have joined.
pub fn run_indexed<T, F>(workers: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, count);
    if workers == 1 {
        return (0..count).map(job).collect();
    }

    // One slot per job, filled under its own (uncontended) mutex: each
    // index is claimed by exactly one worker, so every lock is taken
    // exactly twice — once to store, once to drain.
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                // Guided self-scheduling: each claim takes a shrinking
                // chunk of the remaining indices (1/(4·workers) of what's
                // left, at least 1) instead of one index per atomic op.
                // Early claims are large — fewer counter round-trips,
                // better cache locality across neighboring cells — while
                // the chunks taper to single jobs near the end, so the
                // last stragglers still balance across workers.
                scope.spawn(|| loop {
                    let claimed = next.load(Ordering::Relaxed);
                    if claimed >= count {
                        break;
                    }
                    let chunk = ((count - claimed) / (4 * workers)).max(1);
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= count {
                        break;
                    }
                    let end = (start + chunk).min(count);
                    for (i, slot) in (start..end).zip(&slots[start..end]) {
                        let value = job(i);
                        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                        *slot = Some(value);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut out = Vec::with_capacity(count);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(value) => out.push(value),
            // Unreachable once every worker joined cleanly: each index
            // below `count` is claimed and stored exactly once.
            None => crate::invariant::invariant_failed(format_args!(
                "pool job {i} of {count} produced no result"
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order_under_adversarial_delays() {
        // Later-submitted jobs finish first: job i sleeps inversely to
        // its index, so completion order is (roughly) the reverse of
        // submission order. The output must still be index-ordered.
        let count = 16;
        let out = run_indexed(4, count, |i| {
            std::thread::sleep(Duration::from_millis(2 * (count - i) as u64));
            i * 10
        });
        let expect: Vec<usize> = (0..count).map(|i| i * 10).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let sequential = run_indexed(1, 20, |i| i * i);
        for workers in [2, 3, 4, 7, 20, 64] {
            assert_eq!(run_indexed(workers, 20, |i| i * i), sequential);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let out = run_indexed(8, 100, |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_indexed(4, 0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let inputs: Vec<u64> = (0..10).map(|i| i * 3).collect();
        let out = run_indexed(3, inputs.len(), |i| inputs[i] + 1);
        assert_eq!(out, vec![1, 4, 7, 10, 13, 16, 19, 22, 25, 28]);
    }

    #[test]
    #[should_panic(expected = "job seven failed")]
    fn worker_panics_propagate_to_the_caller() {
        let _ = run_indexed(4, 10, |i| {
            if i == 7 {
                // lint-allow: test-only panic exercising propagation.
                panic!("job seven failed");
            }
            i
        });
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn chunked_claiming_covers_awkward_counts() {
        // Counts around chunking boundaries (primes, one more than a
        // multiple of 4·workers, tiny counts vs many workers): every
        // index must run exactly once and land in its own slot.
        for count in [1, 2, 3, 7, 17, 33, 97, 128] {
            for workers in [2, 3, 5, 8] {
                let runs = AtomicUsize::new(0);
                let out = run_indexed(workers, count, |i| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    i
                });
                assert_eq!(runs.load(Ordering::Relaxed), count);
                assert_eq!(out, (0..count).collect::<Vec<_>>());
            }
        }
    }
}
