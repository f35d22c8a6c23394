//! Parallel scenario execution with deterministic result ordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::record::{LinkRecord, Record};
use crate::scenario::Scenario;
use crate::ExpError;

/// Runs a batch of scenarios and collects their records.
///
/// The batch is first planned as a set of distinct simulations: one DRAM
/// job per distinct (DRAM configuration, mapping, interleaver sizing,
/// controller, tenant stage) tuple and one link job per distinct
/// [`LinkStage`](crate::LinkStage).  Each job runs once, and the results are
/// joined into one [`Record`] per scenario, so a campaign whose cells repeat
/// a (preset, mapping) pair or a (depth, code rate) pair simulates each only
/// once.  Every record carries its own scenario ID and thread count; records
/// sharing a DRAM job carry that job's [`Record::wall_time_s`] and
/// [`Record::sim_cycles_per_second`].
///
/// Jobs are distributed over `std::thread` workers via an atomic work queue
/// in first-appearance order; each result is stored at its job's index and
/// records are joined in scenario order, so the output **does not depend on
/// the worker count** — a 1-worker and an N-worker run of the same
/// experiment produce identical record vectors.
///
/// # Examples
///
/// ```
/// use tbi_dram::DramStandard;
/// use tbi_interleaver::{InterleaverSpec, MappingKind};
/// use tbi_exp::{Experiment, Scenario};
///
/// # fn main() -> Result<(), tbi_exp::ExpError> {
/// let spec = InterleaverSpec::from_burst_count(2_000);
/// let scenarios = vec![
///     Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::RowMajor, spec)?,
///     Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::Optimized, spec)?,
/// ];
/// let records = Experiment::new(scenarios).with_workers(2).run()?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].mapping, "row-major");
/// assert_eq!(records[1].mapping, "optimized");
/// assert!(records.iter().all(|r| r.min_utilization > 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    scenarios: Vec<Scenario>,
    workers: usize,
}

impl Experiment {
    /// Creates an experiment running `scenarios` on a single worker.
    #[must_use]
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Self {
            scenarios,
            workers: 1,
        }
    }

    /// Sets the worker count (clamped to at least 1).  The result order does
    /// not depend on this value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the worker count to the available hardware parallelism (capped
    /// at the scenario count).
    #[must_use]
    pub fn with_auto_workers(self) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let cap = self.scenarios.len().max(1);
        self.with_workers(parallelism.min(cap))
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scenarios in execution (and result) order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Runs every distinct simulation of the batch once and returns one
    /// record per scenario, in scenario order.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbi_dram::DramStandard;
    /// use tbi_exp::{Experiment, Scenario};
    /// use tbi_interleaver::{InterleaverSpec, MappingKind};
    ///
    /// # fn main() -> Result<(), tbi_exp::ExpError> {
    /// let scenario = Scenario::preset(
    ///     DramStandard::Ddr4,
    ///     3200,
    ///     MappingKind::Optimized,
    ///     InterleaverSpec::from_burst_count(2_000),
    /// )?;
    /// let records = Experiment::new(vec![scenario]).run()?;
    /// assert_eq!(records.len(), 1);
    /// assert!(records[0].min_utilization > 0.5);
    /// assert!(records[0].simulated_cycles > 0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Scenario`] naming the first failing scenario in
    /// scenario order (not completion order, so the reported error is also
    /// deterministic across worker counts).
    pub fn run(&self) -> Result<Vec<Record>, ExpError> {
        let plan = Plan::new(&self.scenarios);
        let outcomes = self.pool(plan.jobs.len(), |index| match plan.jobs[index] {
            Job::Dram(first) => Outcome::Dram(self.scenarios[first].run_dram().map(Box::new)),
            Job::Link(first) => Outcome::Link(
                self.scenarios[first]
                    .link()
                    .expect("link jobs are planned for scenarios with a link stage")
                    .run(),
            ),
        });
        let (mut dram, mut links) = (Vec::new(), Vec::new());
        for outcome in outcomes {
            match outcome {
                Outcome::Dram(result) => dram.push(result),
                Outcome::Link(result) => links.push(result),
            }
        }
        self.scenarios
            .iter()
            .zip(&plan.cells)
            .map(|(scenario, &(dram_job, link_job))| {
                dram[dram_job]
                    .clone()
                    .and_then(|record| {
                        let link = link_job.map(|job| links[job].clone()).transpose()?;
                        Ok(scenario.join(*record, link))
                    })
                    .map_err(|source| ExpError::Scenario {
                        id: scenario.id(),
                        detail: scenario.to_string(),
                        source: Box::new(source),
                    })
            })
            .collect()
    }

    /// Runs `job(0..jobs)` on the worker pool and returns the results in job
    /// order.
    fn pool<T: Send>(&self, jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        if self.workers == 1 || jobs <= 1 {
            for (index, slot) in slots.iter_mut().enumerate() {
                *slot = Some(job(index));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let results = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..self.workers.min(jobs) {
                    scope.spawn(|| loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs {
                            break;
                        }
                        let outcome = job(index);
                        results.lock().expect("result mutex poisoned")[index] = Some(outcome);
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every job index was executed"))
            .collect()
    }
}

/// One distinct simulation of a batch, named by the index of the first
/// scenario it appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// The scenario's DRAM step.
    Dram(usize),
    /// The scenario's link stage.
    Link(usize),
}

/// The result of one [`Job`] (the record is boxed to keep the variants of
/// similar size).
enum Outcome {
    Dram(Result<Box<Record>, ExpError>),
    Link(Result<LinkRecord, ExpError>),
}

/// The distinct simulations behind a batch of scenarios and how each
/// scenario joins them.
#[derive(Debug, Default)]
struct Plan {
    /// Jobs in first-appearance order.
    jobs: Vec<Job>,
    /// Per scenario: its DRAM job's index among the DRAM jobs, and its link
    /// job's index among the link jobs.
    cells: Vec<(usize, Option<usize>)>,
}

impl Plan {
    fn new(scenarios: &[Scenario]) -> Self {
        let mut plan = Plan::default();
        let mut dram_firsts: Vec<usize> = Vec::new();
        let mut link_firsts: Vec<usize> = Vec::new();
        for (index, scenario) in scenarios.iter().enumerate() {
            let dram = dram_firsts
                .iter()
                .position(|&first| scenarios[first].same_dram_step(scenario))
                .unwrap_or_else(|| {
                    plan.jobs.push(Job::Dram(index));
                    dram_firsts.push(index);
                    dram_firsts.len() - 1
                });
            let link = scenario.link().map(|stage| {
                link_firsts
                    .iter()
                    .position(|&first| scenarios[first].link() == Some(stage))
                    .unwrap_or_else(|| {
                        plan.jobs.push(Job::Link(index));
                        link_firsts.push(index);
                        link_firsts.len() - 1
                    })
            });
            plan.cells.push((dram, link));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use tbi_dram::DramStandard;
    use tbi_interleaver::{InterleaverSpec, MappingKind};

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .preset(DramStandard::Ddr3, 800)
            .unwrap()
            .preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .sizes([1_000, 3_000])
            .mappings(MappingKind::TABLE1)
    }

    #[test]
    fn empty_experiment_yields_no_records() {
        let records = Experiment::new(Vec::new()).with_workers(4).run().unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let sequential = small_grid().into_experiment().run().unwrap();
        let parallel = small_grid()
            .into_experiment()
            .with_workers(4)
            .run()
            .unwrap();
        assert_eq!(sequential.len(), 8);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn records_follow_scenario_order() {
        let experiment = small_grid().into_experiment().with_workers(3);
        let ids: Vec<String> = experiment.scenarios().iter().map(Scenario::id).collect();
        let records = experiment.run().unwrap();
        let record_ids: Vec<&str> = records.iter().map(|r| r.scenario_id.as_str()).collect();
        assert_eq!(ids, record_ids);
    }

    #[test]
    fn first_failing_scenario_is_reported_in_order() {
        // Index 0 and 2 both fail (the interleaver cannot fit); the reported
        // scenario must be index 0 for any worker count.
        let spec = InterleaverSpec::from_burst_count(100_000_000_000);
        let ok_spec = InterleaverSpec::from_burst_count(1_000);
        let scenarios = vec![
            Scenario::preset(DramStandard::Ddr3, 800, MappingKind::RowMajor, spec).unwrap(),
            Scenario::preset(DramStandard::Ddr3, 800, MappingKind::RowMajor, ok_spec).unwrap(),
            Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::RowMajor, spec).unwrap(),
        ];
        let first_id = scenarios[0].id();
        for workers in [1, 4] {
            let err = Experiment::new(scenarios.clone())
                .with_workers(workers)
                .run()
                .unwrap_err();
            match err {
                ExpError::Scenario { id, .. } => assert_eq!(id, first_id),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    /// (DRAM jobs, link jobs) of a batch's plan.
    fn job_counts(scenarios: &[Scenario]) -> (usize, usize) {
        let jobs = Plan::new(scenarios).jobs;
        let dram = jobs
            .iter()
            .filter(|job| matches!(job, Job::Dram(_)))
            .count();
        (dram, jobs.len() - dram)
    }

    #[test]
    fn campaign_plan_runs_each_preset_mapping_and_fec_cell_once() {
        use crate::campaign::CampaignConfig;
        use tbi_satcom::{LinkProfile, Weather};
        // The committed campaign grid: 4 presets x 2 mappings x 3 depths x
        // 3 code rates.
        let mut config = CampaignConfig::new(LinkProfile::leo_pass(45.0, Weather::Clear));
        for (standard, rate) in [
            (DramStandard::Ddr4, 3200),
            (DramStandard::Hbm2, 2400),
            (DramStandard::Gddr6, 16000),
            (DramStandard::Ddr5Stacked, 6400),
        ] {
            config = config.preset(standard, rate).unwrap();
        }
        let scenarios = config.build().scenarios();
        assert_eq!(scenarios.len(), 72);
        assert_eq!(job_counts(&scenarios), (8, 9));
        // First-appearance order: the first (preset, mapping) pair brings
        // the DRAM job and all nine link jobs, every later pair one DRAM job.
        let plan = Plan::new(&scenarios);
        assert_eq!(plan.jobs[0], Job::Dram(0));
        assert_eq!(plan.jobs[1..10], (0..9).map(Job::Link).collect::<Vec<_>>());
        assert_eq!(
            plan.jobs[10..],
            (1..8).map(|pair| Job::Dram(9 * pair)).collect::<Vec<_>>()
        );
        for (index, &cell) in plan.cells.iter().enumerate() {
            assert_eq!(cell, (index / 9, Some(index % 9)));
        }
    }

    #[test]
    fn table1_and_tenant_plans_have_no_repeats() {
        let table1 = SweepGrid::new()
            .all_presets()
            .unwrap()
            .size(1 << 17)
            .mappings(MappingKind::TABLE1)
            .scenarios();
        assert_eq!(table1.len(), 20);
        assert_eq!(job_counts(&table1), (20, 0));

        let mut tenants = Vec::new();
        for (standard, rate) in [(DramStandard::Ddr4, 3200), (DramStandard::Lpddr4, 4266)] {
            for channels in [1, 2] {
                let dram = tbi_dram::DramConfig::preset(standard, rate)
                    .unwrap()
                    .with_topology(tbi_dram::ChannelTopology::new(channels, 1));
                for streams in [8u32, 64] {
                    let spec = InterleaverSpec::from_burst_count((1 << 16) / u64::from(streams));
                    for policy in tbi_sched::SchedPolicyKind::ALL {
                        tenants.push(
                            Scenario::custom(dram.clone(), MappingKind::Optimized, spec)
                                .with_tenants(crate::TenantStage::new(streams, policy))
                                .with_threads(2),
                        );
                    }
                }
            }
        }
        assert_eq!(tenants.len(), 24);
        assert_eq!(job_counts(&tenants), (24, 0));
    }

    #[test]
    fn auto_workers_is_at_least_one() {
        let experiment = Experiment::new(Vec::new()).with_auto_workers();
        assert!(experiment.workers() >= 1);
        let experiment = small_grid().into_experiment().with_auto_workers();
        assert!(experiment.workers() >= 1);
        assert!(experiment.workers() <= 8);
    }

    #[test]
    fn with_workers_clamps_zero() {
        assert_eq!(Experiment::new(Vec::new()).with_workers(0).workers(), 1);
    }
}
