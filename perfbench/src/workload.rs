//! The benchmark's workloads: how each one is set up from the seed, run
//! through the public API, checked and digested.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
use tbi_exp::campaign::DEFAULT_CAMPAIGN_SEED;
use tbi_exp::{
    Campaign, ExpError, Experiment, LinkRecord, Record, Scenario, SweepGrid, TenantStage,
};
use tbi_interleaver::{InterleaverSpec, MappingKind, TriangularInterleaver};
use tbi_sched::SchedPolicyKind;

use crate::stats::fnv1a64;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's ten presets × {row-major, optimized} on one channel.
    Table1,
    /// The committed downlink campaign grid with a seeded link.
    Campaign,
    /// The multi-tenant scheduler sweep.
    Tenants,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Table1, Kind::Campaign, Kind::Tenants];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1 => "table1",
            Kind::Campaign => "campaign",
            Kind::Tenants => "tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Experiment workers the workload runs with.
    pub fn workers(self) -> usize {
        match self {
            Kind::Campaign => 2,
            Kind::Table1 | Kind::Tenants => 1,
        }
    }

    /// Channel-drive threads of each scenario.
    pub fn threads(self) -> usize {
        match self {
            Kind::Tenants => 2,
            Kind::Table1 | Kind::Campaign => 1,
        }
    }
}

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Interleaver bursts of each Table I cell.
    pub table1_bursts: u64,
    /// Interleaver bursts of the DRAM side of each campaign cell.
    pub campaign_bursts: u64,
    /// Link trials at the campaign's deepest interleaver.
    pub campaign_trials: u32,
    /// Aggregate bursts of each tenant cell, split across its streams.
    pub tenant_bursts: u64,
}

/// The sizes the benchmark measures.
pub const FULL: Size = Size {
    table1_bursts: 1 << 17,
    campaign_bursts: 20_000,
    campaign_trials: 8,
    tenant_bursts: 1 << 16,
};

const TENANT_PRESETS: [(DramStandard, u32); 2] =
    [(DramStandard::Ddr4, 3200), (DramStandard::Lpddr4, 4266)];
const TENANT_CHANNELS: [u32; 2] = [1, 2];
const TENANT_STREAMS: [u32; 2] = [8, 64];
/// Smallest per-stream interleaver, as in the `tenant_sweep` binary.
const MIN_STREAM_BURSTS: u64 = 64;

/// A workload ready to run: its cells, in record order.
pub struct Workload {
    pub kind: Kind,
    pub scenarios: Vec<Scenario>,
    campaign: Option<Campaign>,
}

/// The per-cell outcome of one run: a record, or why the cell failed.
pub type CellResult = Result<Record, String>;

impl Workload {
    /// Builds the workload: presets, grid or campaign expansion and scenario
    /// construction — everything before the first cell simulates.  Only the
    /// campaign's link seed depends on `seed`.
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Result<Workload, ExpError> {
        let workload = match kind {
            Kind::Table1 => {
                let scenarios = SweepGrid::new()
                    .all_presets()?
                    .size(size.table1_bursts)
                    .mappings(MappingKind::TABLE1)
                    .scenarios();
                Workload {
                    kind,
                    scenarios,
                    campaign: None,
                }
            }
            Kind::Campaign => {
                let campaign = tbi_bench::build_campaign(
                    size.campaign_bursts,
                    kind.workers(),
                    DEFAULT_CAMPAIGN_SEED.wrapping_add(seed),
                    size.campaign_trials,
                )?;
                Workload {
                    kind,
                    scenarios: campaign.scenarios(),
                    campaign: Some(campaign),
                }
            }
            Kind::Tenants => {
                let mut scenarios = Vec::new();
                for (standard, rate) in TENANT_PRESETS {
                    let preset = DramConfig::preset(standard, rate)?;
                    for channels in TENANT_CHANNELS {
                        let dram = preset
                            .clone()
                            .with_topology(ChannelTopology::new(channels, 1));
                        for streams in TENANT_STREAMS {
                            let per_stream =
                                (size.tenant_bursts / u64::from(streams)).max(MIN_STREAM_BURSTS);
                            let spec = InterleaverSpec::from_burst_count(per_stream);
                            for policy in SchedPolicyKind::ALL {
                                scenarios.push(
                                    Scenario::custom(dram.clone(), MappingKind::Optimized, spec)
                                        .with_tenants(TenantStage::new(streams, policy))
                                        .with_threads(kind.threads()),
                                );
                            }
                        }
                    }
                }
                Workload {
                    kind,
                    scenarios,
                    campaign: None,
                }
            }
        };
        Ok(workload)
    }

    /// Runs every cell through the public entry point (`Campaign::run` or
    /// `Experiment::run`).  A failing cell does not abort the run: when the
    /// entry point reports an error, the cells are re-run one by one so each
    /// failure is attributed to its own cell.
    pub fn run(&self) -> Vec<CellResult> {
        let all = match &self.campaign {
            Some(campaign) => campaign.run().map(|report| report.records),
            None => Experiment::new(self.scenarios.clone())
                .with_workers(self.kind.workers())
                .run(),
        };
        match all {
            Ok(records) if records.len() == self.scenarios.len() => {
                records.into_iter().map(Ok).collect()
            }
            Ok(records) => vec![
                Err(format!(
                    "{} records for {} cells",
                    records.len(),
                    self.scenarios.len()
                ));
                self.scenarios.len()
            ],
            Err(_) => self
                .scenarios
                .iter()
                .map(|scenario| scenario.run().map_err(|error| error.to_string()))
                .collect(),
        }
    }

    /// Applies the output checks to a run, turning every cell that fails one
    /// into an error naming the check.
    pub fn check(&self, results: Vec<CellResult>) -> Vec<CellResult> {
        let mut results: Vec<CellResult> = results
            .into_iter()
            .zip(&self.scenarios)
            .map(|(result, scenario)| {
                result.and_then(|record| check_record(scenario, &record).map(|()| record))
            })
            .collect();
        for (index, reason) in self.link_failures(&results) {
            results[index] = Err(reason);
        }
        results
    }

    /// Campaign cells that fail a link check.  The checks group cells by
    /// their scenarios, independently of the campaign report's own tests:
    ///
    /// - cells sharing a link stage carry the same link summary, since links
    ///   do not depend on the memory axis;
    /// - per (preset, mapping), the post-FEC BER summed over the code rates
    ///   is strictly lower at the deepest interleaver than at the shallowest.
    ///
    /// Steps between adjacent depths at a single rate are not checked: at
    /// the campaign's 8 trials they lie within the Monte Carlo noise (on
    /// seeds 0..40, 19 seeds had a rising step), while the summed
    /// deepest-to-shallowest ratio stayed at or below 0.62 (mean 0.43).
    fn link_failures(&self, results: &[CellResult]) -> Vec<(usize, String)> {
        let mut failures = Vec::new();
        let mut shared: HashMap<String, LinkRecord> = HashMap::new();
        let mut curves: BTreeMap<(String, String), Vec<(usize, usize)>> = BTreeMap::new();
        for (index, scenario) in self.scenarios.iter().enumerate() {
            let (Some(key), Some(stage)) = (link_key(scenario), scenario.link()) else {
                continue;
            };
            curves
                .entry((scenario.dram().label(), scenario.mapping().label()))
                .or_default()
                .push((stage.config.codewords, index));
            let Some(link) = results[index].as_ref().ok().and_then(|record| record.link) else {
                continue;
            };
            if *shared.entry(key).or_insert(link) != link {
                failures.push((
                    index,
                    format!(
                        "{}: link summary differs from an earlier cell with the same link",
                        scenario.id()
                    ),
                ));
            }
        }
        for ((dram, mapping), cells) in curves {
            let shallow = cells.iter().map(|&(depth, _)| depth).min();
            let deep = cells.iter().map(|&(depth, _)| depth).max();
            let pooled = |depth: Option<usize>| -> Option<f64> {
                cells
                    .iter()
                    .filter(|&&(d, _)| Some(d) == depth)
                    .map(|&(_, index)| {
                        let record = results[index].as_ref().ok()?;
                        record.link.map(|link| link.post_fec_ber)
                    })
                    .sum()
            };
            // Cells that already failed leave the curve unchecked.
            if let (Some(shallow_ber), Some(deep_ber)) = (pooled(shallow), pooled(deep)) {
                if deep_ber.partial_cmp(&shallow_ber) != Some(Ordering::Less) {
                    failures.extend(cells.iter().map(|&(_, index)| {
                        (
                            index,
                            format!(
                                "{dram} {mapping}: post-FEC BER summed over the code rates is \
                                 {deep_ber} at depth {deep:?}, not below {shallow_ber} at depth \
                                 {shallow:?}"
                            ),
                        )
                    }));
                }
            }
        }
        failures
    }
}

/// The per-record output checks.
pub fn check_record(scenario: &Scenario, record: &Record) -> Result<(), String> {
    if record.scenario_id != scenario.id() {
        return Err(format!(
            "record {} answers cell {}",
            record.scenario_id,
            scenario.id()
        ));
    }
    for (name, value) in [
        ("write_utilization", record.write_utilization),
        ("read_utilization", record.read_utilization),
        ("min_utilization", record.min_utilization),
    ] {
        if !(0.0..=1.0).contains(&value) {
            return Err(format!(
                "{}: {name} {value} outside [0, 1]",
                record.scenario_id
            ));
        }
    }
    let peak = scenario.dram().aggregate_peak_bandwidth_gbps();
    if !(record.aggregate_gbps >= 0.0 && record.aggregate_gbps <= peak) {
        return Err(format!(
            "{}: aggregate {} Gb/s exceeds the {} channel(s) × preset peak {} Gb/s",
            record.scenario_id,
            record.aggregate_gbps,
            scenario.dram().topology.channels,
            scenario.dram().peak_bandwidth_gbps()
        ));
    }
    if scenario.tenants().is_some() != record.tenants.is_some()
        || scenario.link().is_some() != record.link.is_some()
    {
        return Err(format!(
            "{}: stage summaries do not match the cell's stages",
            record.scenario_id
        ));
    }
    if requests(record) == 0 {
        return Err(format!("{}: no requests completed", record.scenario_id));
    }
    Ok(())
}

/// Key of a cell's DRAM simulation: every input that determines its
/// result.
pub fn dram_key(scenario: &Scenario) -> String {
    format!(
        "{:?}|{}|{:?}|{:?}|{:?}",
        scenario.dram(),
        scenario.mapping().label(),
        scenario.spec(),
        scenario.controller(),
        scenario.tenants()
    )
}

/// Key of a cell's link simulation: depth, code and seed.
pub fn link_key(scenario: &Scenario) -> Option<String> {
    scenario.link().map(|link| {
        format!(
            "{}|{}|{}|{}",
            link.config.codewords, link.config.rs_data_len, link.config.rs_code_len, link.seed
        )
    })
}

/// Simulated DRAM requests a record reports: the tenants' completed
/// requests, or both phases of the triangular index space.
pub fn requests(record: &Record) -> u64 {
    match &record.tenants {
        Some(tenants) => tenants.per_tenant.iter().map(|t| t.requests).sum(),
        None => TriangularInterleaver::new(record.dimension).map_or(0, |t| 2 * t.len()),
    }
}

/// Worst premium-tenant p99 latency of a tenant record.
pub fn premium_p99(record: &Record) -> Option<u64> {
    record.tenants.as_ref().and_then(|tenants| {
        tenants
            .per_tenant
            .iter()
            .filter(|t| t.qos == "premium")
            .map(|t| t.p99_latency_cycles)
            .max()
    })
}

/// Digests of the simulated record fields (wall-time fields excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// Every simulated field of every record.
    pub all: u64,
    /// Records with their link summaries removed.
    pub dram: u64,
    /// The link summaries alone.
    pub link: u64,
}

impl Digests {
    pub fn of(records: &[Record]) -> Digests {
        let mut all = String::new();
        let mut dram = String::new();
        let mut link = String::new();
        for record in records {
            let mut simulated = record.clone();
            simulated.wall_time_s = 0.0;
            simulated.sim_cycles_per_second = 0.0;
            all.push_str(&format!("{simulated:?}\n"));
            link.push_str(&format!("{:?}\n", simulated.link.take()));
            dram.push_str(&format!("{simulated:?}\n"));
        }
        Digests {
            all: fnv1a64(all.as_bytes()),
            dram: fnv1a64(dram.as_bytes()),
            link: fnv1a64(link.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a unit test, large enough for a nonzero BER at
    /// every campaign depth.
    const TINY: Size = Size {
        table1_bursts: 2_000,
        campaign_bursts: 2_000,
        campaign_trials: 2,
        tenant_bursts: 4_096,
    };

    fn digests(kind: Kind, seed: u64) -> Digests {
        let workload = Workload::setup(kind, seed, TINY).unwrap();
        let records: Vec<Record> = workload
            .check(workload.run())
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        Digests::of(&records)
    }

    #[test]
    fn workloads_have_their_documented_shapes() {
        let cells = |kind| Workload::setup(kind, 0, TINY).unwrap().scenarios.len();
        assert_eq!(cells(Kind::Table1), 20);
        assert_eq!(cells(Kind::Campaign), 72);
        assert_eq!(cells(Kind::Tenants), 24);
        assert_eq!(Kind::parse("campaign"), Some(Kind::Campaign));
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn seed_reaches_only_the_campaign_link() {
        let campaign = (digests(Kind::Campaign, 1), digests(Kind::Campaign, 2));
        assert_ne!(campaign.0.link, campaign.1.link);
        assert_eq!(campaign.0.dram, campaign.1.dram);
        for kind in [Kind::Table1, Kind::Tenants] {
            assert_eq!(digests(kind, 1), digests(kind, 2), "{}", kind.name());
        }
    }

    #[test]
    fn output_checks_reject_impossible_records() {
        let workload = Workload::setup(Kind::Table1, 0, TINY).unwrap();
        let scenario = &workload.scenarios[0];
        let good = scenario.run().unwrap();
        assert_eq!(check_record(scenario, &good), Ok(()));
        assert_eq!(requests(&good), 2 * scenario.spec().total_positions());

        let mut over = good.clone();
        over.read_utilization = 1.5;
        assert!(check_record(scenario, &over).is_err());
        let mut fast = good.clone();
        fast.aggregate_gbps = scenario.dram().peak_bandwidth_gbps() * 1.01;
        assert!(check_record(scenario, &fast).is_err());
        assert!(check_record(&workload.scenarios[1], &good).is_err());
    }

    #[test]
    fn a_failed_cell_counts_instead_of_aborting() {
        let workload = Workload::setup(Kind::Table1, 0, TINY).unwrap();
        let mut results = workload.run();
        if let Ok(record) = &mut results[3] {
            record.write_utilization = -0.1;
        }
        let checked = workload.check(results);
        assert_eq!(checked.iter().filter(|r| r.is_err()).count(), 1);
        assert!(checked[3].is_err());
    }

    #[test]
    fn link_checks_fail_the_cells_they_cover() {
        let workload = Workload::setup(Kind::Campaign, 0, TINY).unwrap();
        let clean = workload.check(workload.run());
        assert!(clean.iter().all(Result::is_ok));
        let failed = |results: &[CellResult]| -> Vec<usize> {
            let mut failed: Vec<usize> = workload
                .link_failures(results)
                .into_iter()
                .map(|(index, _)| index)
                .collect();
            failed.sort_unstable();
            failed
        };
        // Cells 0..9 are the first (preset, mapping) curve: depths 8, 32
        // and 128 × three rates.  Raising the deepest three past the
        // shallowest fails the whole curve.
        let mut raised = clean.clone();
        let shallow: f64 = (0..3)
            .map(|i| raised[i].as_ref().unwrap().link.unwrap().post_fec_ber)
            .sum();
        for record in raised[6..9].iter_mut().flatten() {
            record.link.as_mut().unwrap().post_fec_ber = shallow;
        }
        // The raised cells also no longer match the later cells sharing
        // their links (the deepest cells of every other curve).
        let expected: Vec<usize> = (0..9)
            .chain((1..8).flat_map(|curve| curve * 9 + 6..curve * 9 + 9))
            .collect();
        assert_eq!(failed(&raised), expected);
        // Cell 9 shares cell 0's link (same depth and rate, next mapping).
        let mut diverged = clean;
        diverged[9]
            .as_mut()
            .unwrap()
            .link
            .as_mut()
            .unwrap()
            .frame_error_rate += 0.5;
        assert_eq!(failed(&diverged), vec![9]);
    }
}
