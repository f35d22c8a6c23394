//! End-to-end and per-layer benchmark of the tbi workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|campaign|tenants> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the record digests and host facts.  See `perfbench/README.md` for the
//! metric definitions.

mod host;
mod ledger;
mod stats;
mod workload;

use std::time::Instant;

use tbi_exp::serialize::{records_to_csv, records_to_json};
use tbi_exp::Record;

use crate::ledger::Spans;
use crate::stats::{
    failed_share, geomean, median, parallel_efficiency, pool_self_time, ratio, repeat_share,
    self_time,
};
use crate::workload::{
    dram_key, link_key, premium_p99, requests, CellResult, Digests, Kind, Workload, FULL,
};

/// Set-ups timed before the first iteration and again after every untraced
/// iteration; `setup_s` is the median of all of them.  Spreading the samples
/// over the run keeps a short stretch of slow host from deciding the figure.
const SETUP_REPEATS: usize = 11;

const USAGE: &str = "usage: perfbench --workload <table1|campaign|tenants> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Cell outcomes of every iteration, with the checks that span iterations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digests: Option<Digests>,
    unstable: bool,
    /// The first iteration's records (all iterations must agree).
    records: Vec<Record>,
}

impl Tally {
    /// Counts one iteration's checked outcomes and returns its records.
    fn add(&mut self, results: Vec<CellResult>) -> Vec<Record> {
        self.attempted += results.len() as u64;
        let mut records = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(record) => records.push(record),
                Err(reason) => {
                    self.failed += 1;
                    eprintln!("perfbench: failed cell: {reason}");
                }
            }
        }
        let digests = Digests::of(&records);
        match self.digests {
            None => {
                self.digests = Some(digests);
                self.records = records.clone();
            }
            Some(first) if first != digests => {
                self.unstable = true;
                eprintln!("perfbench: simulated records differ between iterations");
            }
            Some(_) => {}
        }
        records
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut setup_times = Vec::new();
    let workload = match time_setups(&args, &mut setup_times) {
        Ok(workload) => workload,
        Err(error) => {
            eprintln!("perfbench: set-up failed: {error}");
            std::process::exit(1);
        }
    };

    let mut tally = Tally::default();
    let (iterations, metrics) = if args.trace {
        traced(&workload, args.seconds, &mut tally)
    } else {
        untraced(&workload, &args, &mut setup_times, &mut tally)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && !tally.unstable && finite;

    let digests = tally.digests.expect("at least one iteration ran");
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"iterations\": {iterations}, \
         \"cells\": {}, \"digest\": \"{:016x}\", \"dram_digest\": \"{:016x}\", \
         \"link_digest\": \"{:016x}\", \"host\": {{\"nproc\": {}, \"workers\": {}, \
         \"threads\": {}, \"commit\": \"{}\", \"profile\": \"{}\"}}}}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        workload.scenarios.len(),
        digests.all,
        digests.dram,
        digests.link,
        host::nproc(),
        args.kind.workers(),
        args.kind.threads(),
        host::commit(),
        host::profile(),
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
}

/// Sets the workload up [`SETUP_REPEATS`] times, appending each set-up's
/// wall time to `samples`, and returns the last one.
fn time_setups(args: &Args, samples: &mut Vec<f64>) -> Result<Workload, tbi_exp::ExpError> {
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let built = Workload::setup(args.kind, args.seed, FULL)?;
        samples.push(started.elapsed().as_secs_f64());
        workload = Some(built);
    }
    Ok(workload.expect("SETUP_REPEATS is positive"))
}

/// Runs `iteration` back to back until `seconds` have passed (at least once)
/// and returns how many ran.
fn repeat_for(seconds: f64, mut iteration: impl FnMut()) -> usize {
    let started = Instant::now();
    let mut count = 0;
    while count == 0 || started.elapsed().as_secs_f64() < seconds {
        iteration();
        count += 1;
    }
    count
}

/// The end-to-end run: the workload through its public entry point, back to
/// back.  Throughput is taken over the whole measured window: on a shared
/// host whose speed drifts over seconds, the window total is steadier than
/// a median of iterations.
fn untraced(
    workload: &Workload,
    args: &Args,
    setup_times: &mut Vec<f64>,
    tally: &mut Tally,
) -> (usize, Vec<Metric>) {
    let (mut carried, mut wall_s, mut cpu_s) = (0u64, 0.0, 0.0);
    let iterations = repeat_for(args.seconds, || {
        let cpu = host::cpu_seconds();
        let started = Instant::now();
        let results = std::hint::black_box(workload.run());
        let wall = started.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu;
        let records = tally.add(workload.check(results));
        carried += records.iter().map(requests).sum::<u64>();
        wall_s += wall;
        cpu_s += cpu;
        time_setups(args, setup_times).expect("the first set-up of the same inputs succeeded");
    });
    let records = &tally.records;
    let utilization: Vec<f64> = records.iter().map(|r| r.min_utilization).collect();
    let premium: Vec<f64> = records
        .iter()
        .filter_map(premium_p99)
        .map(|p99| p99 as f64)
        .collect();
    let metrics = vec![
        metric("requests_per_s", ratio(carried as f64, wall_s), "req/s"),
        metric("requests_per_cpu_s", ratio(carried as f64, cpu_s), "req/s"),
        metric("setup_s", median(setup_times), "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric(
            "min_utilization",
            geomean(&utilization).unwrap_or(f64::NAN),
            "fraction",
        ),
        metric(
            "premium_p99_cycles",
            geomean(&premium).unwrap_or(f64::NAN),
            "cycles",
        ),
        metric(
            "ok_share",
            1.0 - failed_share(tally.failed, tally.attempted),
            "fraction",
        ),
    ];
    (iterations, metrics)
}

/// The traced run: per iteration, the untraced entry point once, every cell
/// through `Scenario::run` alone, and every cell replayed layer by layer;
/// medians of the per-layer figures over the iterations.
fn traced(workload: &Workload, seconds: f64, tally: &mut Tally) -> (usize, Vec<Metric>) {
    let workers = workload.kind.workers();
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let iterations = repeat_for(seconds, || {
        let started = Instant::now();
        let results = workload.run();
        let runner_s = started.elapsed().as_secs_f64();
        let mut results = workload.check(results);

        let mut cell_s = 0.0;
        let mut spans = Spans::default();
        let mut replay_s = 0.0;
        for (result, scenario) in results.iter_mut().zip(&workload.scenarios) {
            let Ok(record) = result.as_ref() else {
                continue;
            };
            let started = Instant::now();
            let alone = scenario.run();
            cell_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let replayed = ledger::replay(scenario, record, &mut spans);
            replay_s += started.elapsed().as_secs_f64();
            let verdict = match alone {
                Ok(alone) if alone == *record => replayed,
                Ok(_) => Err(format!("{}: Scenario::run differs", record.scenario_id)),
                Err(error) => Err(error.to_string()),
            };
            if let Err(reason) = verdict {
                *result = Err(reason);
            }
        }
        let records = tally.add(results);

        let started = Instant::now();
        let bytes = records_to_json(&records).len() + records_to_csv(&records).len();
        let serialize_s = started.elapsed().as_secs_f64();

        let scenario_self_s = self_time(cell_s, &spans.layers_s());
        let stats = &spans.controller_stats;
        let per = |busy: f64, count: u64| ratio(busy * 1e9, count as f64);
        let share = |busy: f64| ratio(busy, cell_s);
        let dram_keys: Vec<String> = workload.scenarios.iter().map(dram_key).collect();
        let link_keys: Vec<String> = workload.scenarios.iter().filter_map(link_key).collect();
        samples.push(vec![
            metric("interleaver.trace.busy_s", spans.trace_s, "s"),
            metric(
                "interleaver.trace.requests",
                spans.trace_requests as f64,
                "count",
            ),
            metric(
                "interleaver.trace.ns_per_request",
                per(spans.trace_s, spans.trace_requests),
                "ns",
            ),
            metric("interleaver.trace.share", share(spans.trace_s), "fraction"),
            metric("dram.controller.busy_s", spans.controller_s, "s"),
            metric(
                "dram.controller.requests",
                spans.controller_requests as f64,
                "count",
            ),
            metric(
                "dram.controller.ns_per_request",
                per(spans.controller_s, spans.controller_requests),
                "ns",
            ),
            metric(
                "dram.controller.share",
                share(spans.controller_s),
                "fraction",
            ),
            metric(
                "dram.controller.sim_cycles",
                stats.elapsed_cycles as f64,
                "cycles",
            ),
            metric(
                "dram.controller.row_hit_rate",
                stats.row_hit_rate(),
                "fraction",
            ),
            metric("dram.controller.activates", stats.activates as f64, "count"),
            metric(
                "dram.controller.stall_cycles",
                stats.stall_cycles as f64,
                "cycles",
            ),
            metric("dram.channel.busy_s", spans.channel_s, "s"),
            metric(
                "dram.channel.requests",
                spans.channel_requests as f64,
                "count",
            ),
            metric(
                "dram.channel.ns_per_request",
                per(spans.channel_s, spans.channel_requests),
                "ns",
            ),
            metric("dram.channel.share", share(spans.channel_s), "fraction"),
            metric(
                "dram.channel.thread_speedup",
                ratio(spans.channel_one_thread_s, spans.channel_two_threads_s),
                "x",
            ),
            metric(
                "dram.channel.utilization_spread",
                spans.channel_spread,
                "fraction",
            ),
            metric("sched.scheduler.setup_s", spans.sched_setup_s, "s"),
            metric("sched.scheduler.busy_s", spans.sched_s, "s"),
            metric(
                "sched.scheduler.requests",
                spans.sched_requests as f64,
                "count",
            ),
            metric(
                "sched.scheduler.ns_per_request",
                per(spans.sched_setup_s + spans.sched_s, spans.sched_requests),
                "ns",
            ),
            metric(
                "sched.scheduler.share",
                share(spans.sched_setup_s + spans.sched_s),
                "fraction",
            ),
            metric(
                "sched.scheduler.deadline_misses",
                spans.deadline_misses as f64,
                "count",
            ),
            metric(
                "sched.scheduler.fairness_index",
                geomean(&spans.fairness).unwrap_or(f64::NAN),
                "index",
            ),
            metric("satcom.link.busy_s", spans.link_s, "s"),
            metric("satcom.link.codewords", spans.codewords as f64, "count"),
            metric("satcom.link.symbols", spans.symbols as f64, "count"),
            metric(
                "satcom.link.ns_per_symbol",
                per(spans.link_s, spans.symbols),
                "ns",
            ),
            metric("satcom.link.share", share(spans.link_s), "fraction"),
            metric(
                "exp.runner.self_s",
                pool_self_time(runner_s, cell_s, workers),
                "s",
            ),
            metric(
                "exp.runner.parallel_efficiency",
                parallel_efficiency(cell_s, runner_s, workers),
                "fraction",
            ),
            metric("exp.scenario.self_s", scenario_self_s, "s"),
            metric("exp.serialize.busy_s", serialize_s, "s"),
            metric("exp.serialize.bytes", bytes as f64, "bytes"),
            metric("repeat.dram_share", repeat_share(&dram_keys), "fraction"),
            metric("repeat.link_share", repeat_share(&link_keys), "fraction"),
            metric(
                "tracing.overhead_share",
                ratio(replay_s, cell_s) - 1.0,
                "fraction",
            ),
            metric("tracing.residual_share", share(scenario_self_s), "fraction"),
        ]);
    });
    let mut metrics: Vec<Metric> = samples[0]
        .iter()
        .enumerate()
        .map(|(index, first)| {
            let values: Vec<f64> = samples.iter().map(|sample| sample[index].value).collect();
            metric(first.name, median(&values), first.unit)
        })
        .collect();
    metrics.push(metric(
        "failed_share",
        failed_share(tally.failed, tally.attempted),
        "fraction",
    ));
    (iterations, metrics)
}
