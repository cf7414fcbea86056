//! Job launcher: run N ranks of the same program.

use crate::affinity;
use crate::collectives::CollectiveAlgo;
use crate::comm::Comm;
use crate::sched::Scheduler;
use rbamr_fault::{FaultInjector, FaultPlan};
use rbamr_perfmodel::{Clock, CostModel, Machine, TimeBreakdown};
use std::sync::Arc;

/// What one rank produced: its closure's return value and its final
/// virtual-time breakdown.
#[derive(Debug)]
pub struct RankResult<R> {
    /// The rank id.
    pub rank: usize,
    /// The closure's return value.
    pub value: R,
    /// Virtual time accumulated by the rank (communication plus whatever
    /// its device/host kernels charged to the same clock).
    pub time: TimeBreakdown,
}

/// A simulated cluster: a machine description plus a rank launcher.
///
/// `Cluster::run` is the `mpirun` analogue: it spawns one carrier
/// thread per rank, hands each a [`Comm`] bound to a fresh virtual
/// [`Clock`], runs the closure, and joins. Only
/// [`Cluster::with_workers`] carriers are runnable at once — the rest
/// are parked cooperatively by the scheduler ([`crate::sched`]), which
/// is what lets one box simulate thousands of ranks. Panics in any rank
/// propagate (the job "aborts"): the panicking rank's own payload is
/// re-raised and every peer fails fast with a typed
/// [`crate::PeerPanicked`].
pub struct Cluster {
    machine: Machine,
    cost: Arc<CostModel>,
    fault_plan: Option<Arc<FaultPlan>>,
    workers: Option<usize>,
    stack_size: Option<usize>,
    collectives: CollectiveAlgo,
}

impl Cluster {
    /// A cluster of ranks on the given machine model.
    pub fn new(machine: Machine) -> Self {
        let cost = Arc::new(CostModel::new(machine.clone()));
        Self {
            machine,
            cost,
            fault_plan: None,
            workers: None,
            stack_size: None,
            collectives: CollectiveAlgo::default(),
        }
    }

    /// Bound how many simulated ranks are runnable at once (default:
    /// the process's CPUs). `RBAMR_NETSIM_WORKERS` overrides at
    /// runtime. With one worker the schedule is a fully deterministic
    /// round-robin — the reference the equivalence tests compare every
    /// other worker count against. When ranks share the slots, each
    /// slot runs on one CPU of the process (see [`crate::sched`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Per-rank carrier-thread stack size in bytes (default: the std
    /// default, overridable at runtime via `RBAMR_NETSIM_STACK_KB`).
    /// Thousand-rank jobs shrink this to keep virtual memory bounded.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Select how payload-moving collectives exchange frames (default
    /// [`CollectiveAlgo::RecursiveDoubling`]); equivalence tests pin
    /// [`CollectiveAlgo::Flat`] as the reference. Reductions are
    /// unaffected.
    pub fn with_collectives(mut self, algo: CollectiveAlgo) -> Self {
        self.collectives = algo;
        self
    }

    /// Attach a seeded fault plan: every rank launched by
    /// [`Cluster::run`] gets a [`FaultInjector`] for the plan, wired
    /// into its [`Comm`] (and retrievable via
    /// [`Comm::fault_injector`] to also wire into the rank's device).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// The machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The shared cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn resolve_workers(&self, nranks: usize) -> usize {
        let configured = std::env::var("RBAMR_NETSIM_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .or(self.workers)
            .unwrap_or_else(|| {
                // The process's set, not `available_parallelism()`: the
                // caller may be a carrier pinned to one CPU.
                match affinity::process_cpus().len() {
                    0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    cpus => cpus,
                }
            });
        configured.clamp(1, nranks)
    }

    fn resolve_stack_size(&self) -> Option<usize> {
        std::env::var("RBAMR_NETSIM_STACK_KB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|kb| kb * 1024)
            .or(self.stack_size)
    }

    /// Run `nranks` copies of `f` concurrently and collect their
    /// results, ordered by rank.
    ///
    /// Each rank gets its own [`Clock`]; pass the clock to a
    /// device or host kernels to have computation and
    /// communication accumulate into one per-rank timeline. The job's
    /// elapsed time is the per-category max over ranks (BSP convention,
    /// see [`TimeBreakdown::max_per_category`]).
    ///
    /// # Panics
    /// Panics if `nranks == 0` or any rank panics. When a rank panics,
    /// the job is poisoned: peers parked in communication fail fast
    /// (typed [`crate::PeerPanicked`]) and the *origin* rank's own
    /// panic payload is the one re-raised here.
    pub fn run<R, F>(&self, nranks: usize, f: F) -> Vec<RankResult<R>>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        assert!(nranks > 0, "Cluster::run: need at least one rank");
        let shared = Arc::new(Scheduler::new(nranks, self.resolve_workers(nranks)));
        let stack_size = self.resolve_stack_size();
        let algo = self.collectives;
        type Carried<R> = Result<RankResult<R>, Box<dyn std::any::Any + Send + 'static>>;
        let mut outcomes: Vec<Carried<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nranks)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    let cost = Arc::clone(&self.cost);
                    let plan = self.fault_plan.clone();
                    let f = &f;
                    let mut builder = std::thread::Builder::new().name(format!("rank{rank}"));
                    if let Some(bytes) = stack_size {
                        builder = builder.stack_size(bytes);
                    }
                    builder
                        .spawn_scoped(scope, move || -> Carried<R> {
                            let clock = Clock::new();
                            let mut comm =
                                Comm::new(rank, Arc::clone(&shared), clock.clone(), cost, algo);
                            if let Some(plan) = plan {
                                comm.set_fault_injector(FaultInjector::new(plan, rank));
                            }
                            // Park until the scheduler grants this rank
                            // a run slot.
                            if let Err(poisoned) = shared.task_started(rank) {
                                return Err(Box::new(poisoned));
                            }
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)))
                            {
                                Ok(value) => {
                                    let result = RankResult { rank, value, time: clock.snapshot() };
                                    shared.task_finished(rank);
                                    Ok(result)
                                }
                                Err(payload) => {
                                    shared.task_panicked(rank);
                                    Err(payload)
                                }
                            }
                        })
                        .expect("spawn rank carrier thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(Err)).collect()
        });
        if outcomes.iter().all(|o| o.is_ok()) {
            return outcomes
                .into_iter()
                .map(|o| o.unwrap_or_else(|_| unreachable!("checked Ok above")))
                .collect();
        }
        // At least one rank panicked: re-raise the origin rank's own
        // payload (the first poisoner), not a peer's secondary
        // PeerPanicked, so the test-visible failure is the root cause.
        let origin = shared.poison_origin();
        let panicked: Vec<usize> =
            outcomes.iter().enumerate().filter(|(_, o)| o.is_err()).map(|(rank, _)| rank).collect();
        let chosen = origin
            .filter(|o| panicked.contains(o))
            .or_else(|| panicked.first().copied())
            .expect("at least one rank panicked");
        match outcomes.swap_remove(chosen) {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(_) => unreachable!("chosen rank verified Err above"),
        }
    }

    /// Combine per-rank breakdowns into the job's elapsed breakdown
    /// (per-category max over ranks — the slowest rank paces each BSP
    /// phase).
    pub fn job_time<R>(results: &[RankResult<R>]) -> TimeBreakdown {
        results.iter().fold(TimeBreakdown::default(), |acc, r| acc.max_per_category(&r.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_perfmodel::Category;

    #[test]
    fn ranks_are_ordered_and_complete() {
        let cluster = Cluster::new(Machine::ipa_cpu_node());
        let results = cluster.run(4, |comm| comm.rank() * 10);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.rank, i);
            assert_eq!(r.value, i * 10);
        }
    }

    #[test]
    fn job_time_is_per_category_max() {
        let cluster = Cluster::new(Machine::ipa_cpu_node());
        let results = cluster.run(3, |comm| {
            // Rank r charges r seconds of hydro time.
            comm.clock().advance(Category::HydroKernel, comm.rank() as f64);
        });
        let t = Cluster::job_time(&results);
        assert_eq!(t.get(Category::HydroKernel), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Cluster::new(Machine::ipa_cpu_node()).run(0, |_comm| ());
    }

    #[test]
    #[should_panic(expected = "rank exploded")]
    fn rank_panics_propagate() {
        Cluster::new(Machine::ipa_cpu_node()).run(2, |comm| {
            if comm.rank() == 1 {
                panic!("rank exploded");
            }
            // Rank 0 returns immediately; no communication so no deadlock.
        });
    }

    #[test]
    fn worker_limit_still_runs_every_rank() {
        // More ranks than worker slots: the scheduler multiplexes.
        let results = Cluster::new(Machine::ipa_cpu_node())
            .with_workers(2)
            .run(16, |comm| comm.allreduce_sum(1.0, Category::Other));
        for r in &results {
            assert_eq!(r.value, 16.0);
        }
    }

    /// Each rank's own CPUs at three points of a run that hands slots
    /// over at every collective.
    #[cfg(target_os = "linux")]
    fn rank_cpus(ranks: usize, workers: usize) -> Vec<Vec<usize>> {
        let results =
            Cluster::new(Machine::ipa_cpu_node()).with_workers(workers).run(ranks, |comm| {
                let mut seen = vec![affinity::current_cpus()];
                comm.allreduce_max(comm.rank() as f64);
                seen.push(affinity::current_cpus());
                comm.barrier(Category::Other);
                seen.push(affinity::current_cpus());
                seen
            });
        results.into_iter().flat_map(|r| r.value).collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_rank_sharing_slots_runs_on_one_cpu_of_the_process() {
        let process = affinity::process_cpus();
        for cpus in rank_cpus(4, 2) {
            assert!(matches!(cpus[..], [cpu] if process.contains(&cpu)), "{cpus:?} of {process:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_rank_with_its_own_slot_or_the_only_slot_is_not_pinned() {
        let process = affinity::process_cpus();
        for (ranks, workers) in [(2, 2), (4, 1)] {
            for cpus in rank_cpus(ranks, workers) {
                assert_eq!(cpus, process, "{ranks} ranks on {workers} workers");
            }
        }
    }

    #[test]
    fn tiny_stacks_are_enough_for_comm_only_ranks() {
        let results = Cluster::new(Machine::ipa_cpu_node())
            .with_workers(4)
            .with_stack_size(256 * 1024)
            .run(64, |comm| comm.allreduce_max(comm.rank() as f64));
        for r in &results {
            assert_eq!(r.value, 63.0);
        }
    }
}
