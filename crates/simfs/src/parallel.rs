//! Deterministic fork-join harness for multi-process experiments.
//!
//! The paper's swarm scenario (§IV.E) launches up to 100 processes, each
//! opening and querying its own bag. [`run_parallel`] reproduces that:
//! each task gets an [`IoCtx`] pre-configured with the declared concurrency
//! (so cost models apply contention), tasks run on real threads, and the
//! reported makespan is the *maximum* virtual time across tasks — the time
//! the whole swarm analysis takes.

use std::time::Duration;

use crate::clock::IoCtx;

/// Result of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Per-task session contexts, in task order.
    pub tasks: Vec<IoCtx>,
}

impl ParallelOutcome {
    /// Virtual makespan: the slowest task's clock.
    pub fn makespan_ns(&self) -> u64 {
        self.tasks.iter().map(|c| c.elapsed_ns()).max().unwrap_or(0)
    }

    pub fn makespan(&self) -> Duration {
        Duration::from_nanos(self.makespan_ns())
    }

    /// Sum of all tasks' virtual time (aggregate resource seconds).
    pub fn total_ns(&self) -> u64 {
        self.tasks.iter().map(|c| c.elapsed_ns()).sum()
    }
}

/// Run `n_tasks` closures concurrently, each with an `IoCtx` declaring the
/// full task count as its concurrency (the paper dedicates one process per
/// bag, all started simultaneously).
///
/// The closure receives `(task_index, &mut IoCtx)`. Panics in tasks
/// propagate. Determinism: each task's virtual clock depends only on its
/// own operation sequence and the declared concurrency — not on host
/// scheduling — so results are reproducible run to run.
pub fn run_parallel<F>(n_tasks: usize, f: F) -> ParallelOutcome
where
    F: Fn(usize, &mut IoCtx) + Send + Sync,
{
    let mut ctxs: Vec<IoCtx> =
        (0..n_tasks).map(|_| IoCtx::with_concurrency(n_tasks as u32)).collect();

    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(n_tasks);
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            handles.push(scope.spawn(move || {
                f(i, ctx);
            }));
        }
        for h in handles {
            h.join().expect("parallel task panicked");
        }
    });

    ParallelOutcome { tasks: ctxs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::mem::MemStorage;
    use crate::storage::Storage;
    use crate::timed::TimedStorage;

    #[test]
    fn makespan_is_max_total_is_sum() {
        let outcome = run_parallel(4, |i, ctx| {
            ctx.charge_ns((i as u64 + 1) * 100);
        });
        assert_eq!(outcome.makespan_ns(), 400);
        assert_eq!(outcome.total_ns(), 1000);
    }

    #[test]
    fn tasks_see_declared_concurrency() {
        let outcome = run_parallel(8, |_, ctx| {
            assert_eq!(ctx.concurrency, 8);
        });
        assert_eq!(outcome.tasks.len(), 8);
    }

    #[test]
    fn contention_visible_through_storage() {
        let fs = TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4());
        let mut setup = IoCtx::new();
        for i in 0..8 {
            fs.append(&format!("/bag{i}"), &vec![0u8; 1 << 20], &mut setup).unwrap();
        }

        // 1 process reading one file vs 8 processes each reading their own:
        // per-process time must grow under contention.
        let solo = run_parallel(1, |_, ctx| {
            fs.read_all("/bag0", ctx).unwrap();
        });
        let crowd = run_parallel(8, |i, ctx| {
            fs.read_all(&format!("/bag{i}"), ctx).unwrap();
        });
        assert!(crowd.makespan_ns() > solo.makespan_ns() * 4);
    }

    #[test]
    fn determinism_across_runs() {
        let fs = TimedStorage::new(MemStorage::new(), DeviceModel::hdd());
        let mut setup = IoCtx::new();
        for i in 0..4 {
            fs.append(&format!("/f{i}"), &vec![0u8; 64 * 1024], &mut setup).unwrap();
        }
        let run = || {
            run_parallel(4, |i, ctx| {
                fs.read_all(&format!("/f{i}"), ctx).unwrap();
            })
            .makespan_ns()
        };
        assert_eq!(run(), run());
    }
}
