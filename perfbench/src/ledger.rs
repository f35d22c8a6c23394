//! The traced run: each cell is replayed through the layers' public calls,
//! each call timed from outside, and the replay's simulated results are
//! checked bit for bit against the untraced record.

use std::time::Instant;

use tbi_dram::channel::{ChannelRouter, CombinedStats};
use tbi_dram::{MemorySystem, Request, Stats};
use tbi_exp::{Record, Scenario, TenantStage};
use tbi_interleaver::mapping::{ChannelMapping, ChannelTraceGenerator};
use tbi_interleaver::{AccessPhase, TraceGenerator};
use tbi_sched::{PhasePattern, SchedConfig, StreamScheduler, StreamSpec};

const PHASES: [AccessPhase; 2] = [AccessPhase::Write, AccessPhase::Read];

/// Time and work each layer spent over the replayed cells.
#[derive(Debug, Default)]
pub struct Spans {
    /// Mapping construction and materialized request streams.
    pub trace_s: f64,
    pub trace_requests: u64,
    /// `MemorySystem` construction and `run_trace` (single-channel cells).
    pub controller_s: f64,
    pub controller_requests: u64,
    /// Every controller statistics window the replay produced.
    pub controller_stats: Stats,
    /// `ChannelRouter` construction and the phase drive the scenario uses.
    pub channel_s: f64,
    pub channel_requests: u64,
    /// `run_phase_threaded` at one and at two threads (cells with at least
    /// two channels), for the thread speed-up.
    pub channel_one_thread_s: f64,
    pub channel_two_threads_s: f64,
    pub channel_spread: f64,
    /// `StreamScheduler::new` and `StreamScheduler::run`.
    pub sched_setup_s: f64,
    pub sched_s: f64,
    pub sched_requests: u64,
    pub deadline_misses: u64,
    pub fairness: Vec<f64>,
    /// `LinkStage::run`.
    pub link_s: f64,
    pub codewords: u64,
    pub symbols: u64,
}

impl Spans {
    /// Every layer span that is part of a cell's own run.
    pub fn layers_s(&self) -> [f64; 6] {
        [
            self.trace_s,
            self.controller_s,
            self.channel_s,
            self.sched_setup_s,
            self.sched_s,
            self.link_s,
        ]
    }
}

fn timed<T>(span: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    *span += started.elapsed().as_secs_f64();
    value
}

/// Replays one cell layer by layer and checks that the replay reproduces
/// the untraced `record`.
pub fn replay(scenario: &Scenario, record: &Record, spans: &mut Spans) -> Result<(), String> {
    if let Some(stage) = scenario.tenants() {
        replay_tenants(scenario, stage, record, spans)?;
    } else if scenario.dram().topology.is_single() {
        replay_single(scenario, record, spans)?;
    } else {
        replay_channels(scenario, record, spans)?;
    }
    if let Some(stage) = scenario.link() {
        let link = timed(&mut spans.link_s, || stage.run()).map_err(|e| e.to_string())?;
        let codewords = u64::from(stage.trials.max(1)) * stage.config.codewords as u64;
        spans.codewords += codewords;
        spans.symbols += codewords * stage.config.rs_code_len as u64;
        if record.link != Some(link) {
            return Err(format!(
                "{}: replayed link summary differs",
                record.scenario_id
            ));
        }
    }
    Ok(())
}

/// Compares replayed values with the record's, bit for bit.
fn expect_bits(record: &Record, fields: &[(&str, f64, f64)]) -> Result<(), String> {
    for &(name, recorded, replayed) in fields {
        if recorded.to_bits() != replayed.to_bits() {
            return Err(format!(
                "{}: {name} recorded {recorded} but the traced replay gives {replayed}",
                record.scenario_id
            ));
        }
    }
    Ok(())
}

fn expect_counts(record: &Record, activates: u64, simulated_cycles: u64) -> Result<(), String> {
    if (record.activates, record.simulated_cycles) != (activates, simulated_cycles) {
        return Err(format!(
            "{}: recorded activates/cycles {}/{} but the traced replay gives {activates}/\
             {simulated_cycles}",
            record.scenario_id, record.activates, record.simulated_cycles
        ));
    }
    Ok(())
}

fn replay_single(scenario: &Scenario, record: &Record, spans: &mut Spans) -> Result<(), String> {
    let dram = scenario.dram();
    let spec = scenario.spec();
    let mapping =
        timed(&mut spans.trace_s, || scenario.build_mapping()).map_err(|e| e.to_string())?;
    let generator = TraceGenerator::new(spec.triangular(), mapping.as_ref());
    let mut system = timed(&mut spans.controller_s, || {
        MemorySystem::with_controller(dram.clone(), *scenario.controller())
    })
    .map_err(|e| e.to_string())?;
    let mut phase_stats = Vec::with_capacity(2);
    for phase in PHASES {
        let requests: Vec<Request> =
            timed(&mut spans.trace_s, || generator.requests(phase).collect());
        spans.trace_requests += requests.len() as u64;
        spans.controller_requests += requests.len() as u64;
        let stats = timed(&mut spans.controller_s, || {
            let stats = system.run_trace(requests);
            system.reset_stats();
            stats
        });
        spans.controller_stats.merge(&stats);
        phase_stats.push(stats);
    }
    let (write, read) = (&phase_stats[0], &phase_stats[1]);
    let mut totals = write.clone();
    totals.merge(read);
    let (clock, width) = (dram.clock_mhz(), dram.geometry.bus_width_bits);
    expect_bits(
        record,
        &[
            (
                "write_utilization",
                record.write_utilization,
                write.bus_utilization(),
            ),
            (
                "read_utilization",
                record.read_utilization,
                read.bus_utilization(),
            ),
            (
                "sustained_gbps",
                record.sustained_gbps,
                write
                    .achieved_bandwidth_gbps(clock, width)
                    .min(read.achieved_bandwidth_gbps(clock, width)),
            ),
            (
                "write_row_hit_rate",
                record.write_row_hit_rate,
                write.row_hit_rate(),
            ),
            (
                "read_row_hit_rate",
                record.read_row_hit_rate,
                read.row_hit_rate(),
            ),
        ],
    )?;
    expect_counts(record, totals.activates, totals.elapsed_cycles)
}

fn replay_channels(scenario: &Scenario, record: &Record, spans: &mut Spans) -> Result<(), String> {
    let dram = scenario.dram();
    let channels = dram.topology.channels;
    let mapping = timed(&mut spans.trace_s, || {
        ChannelMapping::new(scenario.mapping(), dram, scenario.spec().dimension())
    })
    .map_err(|e| e.to_string())?;
    let generator = ChannelTraceGenerator::new(&mapping);
    let streams: Vec<Vec<Vec<Request>>> = PHASES
        .iter()
        .map(|&phase| {
            timed(&mut spans.trace_s, || {
                (0..channels)
                    .map(|channel| generator.channel_requests(phase, channel).collect())
                    .collect()
            })
        })
        .collect();
    let requests: u64 = streams.iter().flatten().map(|s| s.len() as u64).sum();
    spans.trace_requests += requests;
    spans.channel_requests += requests;

    // One full write-then-read drive on a fresh router; `threads` of `None`
    // is the sequential laggard loop.
    let drive = |threads: Option<usize>, span: &mut f64| -> Result<Vec<CombinedStats>, String> {
        let inputs = streams.clone();
        timed(span, || {
            let mut router = ChannelRouter::new(dram.clone(), *scenario.controller())
                .map_err(|e| e.to_string())?;
            let mut phase_stats = Vec::with_capacity(2);
            for traces in inputs {
                let traces: Vec<_> = traces.into_iter().map(Vec::into_iter).collect();
                phase_stats.push(match threads {
                    Some(threads) => router.run_phase_threaded(traces, threads),
                    None => router.run_phase(traces),
                });
                router.reset_stats();
            }
            Ok(phase_stats)
        })
    };
    let threads = scenario.threads();
    let used = drive((threads > 1).then_some(threads), &mut spans.channel_s)?;
    if channels >= 2 {
        let one = drive(Some(1), &mut spans.channel_one_thread_s)?;
        let two = drive(Some(2), &mut spans.channel_two_threads_s)?;
        if one != used || two != used {
            return Err(format!(
                "{}: threaded channel drive differs from the scenario's drive",
                record.scenario_id
            ));
        }
    }
    let (write, read) = (&used[0], &used[1]);
    let mut activates = 0;
    let mut cycles = 0;
    for (w, r) in write.per_channel().iter().zip(read.per_channel()) {
        spans.controller_stats.merge(w);
        spans.controller_stats.merge(r);
        activates += w.activates + r.activates;
        cycles += w.elapsed_cycles + r.elapsed_cycles;
    }
    let spread = write.utilization_spread().max(read.utilization_spread());
    spans.channel_spread = spans.channel_spread.max(spread);
    let (clock, width) = (dram.clock_mhz(), dram.geometry.bus_width_bits);
    expect_bits(
        record,
        &[
            (
                "write_utilization",
                record.write_utilization,
                write.utilization(),
            ),
            (
                "read_utilization",
                record.read_utilization,
                read.utilization(),
            ),
            (
                "aggregate_gbps",
                record.aggregate_gbps,
                write
                    .aggregate_bandwidth_gbps(clock, width)
                    .min(read.aggregate_bandwidth_gbps(clock, width)),
            ),
            (
                "channel_utilization_spread",
                record.channel_utilization_spread,
                spread,
            ),
            (
                "write_row_hit_rate",
                record.write_row_hit_rate,
                write.aggregate().row_hit_rate(),
            ),
            (
                "read_row_hit_rate",
                record.read_row_hit_rate,
                read.aggregate().row_hit_rate(),
            ),
        ],
    )?;
    expect_counts(record, activates, cycles)
}

fn replay_tenants(
    scenario: &Scenario,
    stage: &TenantStage,
    record: &Record,
    spans: &mut Spans,
) -> Result<(), String> {
    let dram = scenario.dram();
    let scheduler = timed(&mut spans.sched_setup_s, || {
        let streams = (0..stage.streams)
            .map(|index| {
                StreamSpec::new(format!("tenant-{index:04}"), *scenario.spec())
                    .with_qos(TenantStage::qos_for(index))
                    .with_mapping(scenario.mapping())
                    .with_pattern(PhasePattern::Alternating)
                    .with_blocks(stage.blocks)
            })
            .collect();
        let sched = SchedConfig::new(stage.policy)
            .with_max_in_flight(stage.max_in_flight_blocks)
            .with_threads(scenario.threads());
        StreamScheduler::new(dram.clone(), *scenario.controller(), streams, sched)
    })
    .map_err(|e| e.to_string())?;
    let report = timed(&mut spans.sched_s, || scheduler.run());
    spans.sched_requests += report.total_requests();
    spans.deadline_misses += report.total_deadline_misses();
    spans.fairness.push(report.fairness_index());
    let mut activates = 0;
    let mut cycles = 0;
    for stats in report.stats.per_channel() {
        spans.controller_stats.merge(stats);
        activates += stats.activates;
        cycles += stats.elapsed_cycles;
    }
    let summary = record
        .tenants
        .as_ref()
        .ok_or_else(|| format!("{}: no tenant summary", record.scenario_id))?;
    expect_bits(
        record,
        &[
            (
                "min_utilization",
                record.min_utilization,
                report.stats.utilization(),
            ),
            (
                "channel_utilization_spread",
                record.channel_utilization_spread,
                report.stats.utilization_spread(),
            ),
            (
                "row_hit_rate",
                record.write_row_hit_rate,
                report.stats.aggregate().row_hit_rate(),
            ),
            (
                "fairness_index",
                summary.fairness_index,
                report.fairness_index(),
            ),
        ],
    )?;
    let replayed_p99: Vec<u64> = report.tenants.iter().map(|t| t.latency.p99()).collect();
    let recorded_p99: Vec<u64> = summary
        .per_tenant
        .iter()
        .map(|t| t.p99_latency_cycles)
        .collect();
    if replayed_p99 != recorded_p99 || summary.deadline_misses != report.total_deadline_misses() {
        return Err(format!(
            "{}: replayed tenant latencies or deadline misses differ",
            record.scenario_id
        ));
    }
    expect_counts(record, activates, cycles)
}
