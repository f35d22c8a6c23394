//! The `tbi_bench` harness: one binary over a [`Workload`] enum that
//! regenerates every table, sweep and committed `BENCH_*.json` artifact of
//! the workspace, plus the regression gate that re-runs the same workloads.
//!
//! The heavy lifting lives in [`tbi_exp`]: each workload declares a
//! [`SweepGrid`] or a set of scenarios, runs it through an
//! [`Experiment`](tbi_exp::Experiment) and formats the resulting
//! [`Record`]s.  This crate hosts the command-line surface
//! ([`HarnessOptions`] parsed against each workload's [`Flag`] list), the
//! workload runs and their gate checks.
//!
//! ```text
//! cargo run --release -p tbi_bench -- <workload> [flags]
//! cargo run --release -p tbi_bench -- gate [--bursts <n>] [--workers <n>] [artifact.json ...]
//! ```

pub mod gate;
mod runs;
pub mod workload;

use std::path::PathBuf;

use tbi_dram::{ControllerConfig, DramStandard, RefreshMode, TimingEngine};
use tbi_exp::search::SearchSettings;
use tbi_exp::{Campaign, CampaignConfig, ExpError, Record, RefreshSetting, SweepGrid};
use tbi_interleaver::MappingKind;
use tbi_satcom::{LinkProfile, Weather};

pub use workload::{Document, Workload};

/// Default interleaver size (in DRAM bursts) of the harness workloads.
///
/// The paper uses 12.5 M elements; the default here is smaller so that the
/// full table regenerates in seconds.  Utilization converges quickly with
/// size (see the `size_sweep` workload), and `--full` switches to the
/// paper's exact size.
pub const DEFAULT_BURSTS: u64 = 1 << 20;

/// One command-line argument a workload may accept.  Each workload lists
/// the flags it accepts ([`Workload::flags`]); [`HarnessOptions::parse`]
/// rejects every other flag and [`HarnessOptions::usage`] documents exactly
/// the listed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--full`: the paper's exact 12.5 M-burst interleaver.
    Full,
    /// `--bursts <n>`: interleaver size in DRAM bursts.
    Bursts,
    /// `--no-refresh`: disable DRAM refresh.
    NoRefresh,
    /// `--engine <cycle|event>`: timing engine.
    Engine,
    /// `--channels <n>`: channels per configuration.
    Channels,
    /// `--ranks <n>`: ranks per channel.
    Ranks,
    /// `--workers <n>`: sweep worker threads.
    Workers,
    /// `--threads <n>`: worker threads inside each scenario.
    Threads,
    /// `--json <path>`: JSON output path.
    Json,
    /// `--csv <path>`: CSV output path.
    Csv,
    /// `--seed <n>`: mapping-search RNG seed.
    Seed,
    /// `--restarts <n>`: mapping-search starting points.
    Restarts,
    /// `--budget <n>`: mapping-search evaluation budget.
    Budget,
    /// `--neighbors <n>`: mapping-search candidates per step.
    Neighbors,
    /// `--strategy <s>`: mapping-search algorithm.
    Strategy,
    /// `--surrogate <n>`: portfolio surrogate divisor.
    Surrogate,
    /// `--promote <k>`: portfolio candidates promoted per surrogate batch.
    Promote,
    /// `--sa-temp <n>`: portfolio annealing temperature.
    SaTemp,
    /// `--transfer`: portfolio cross-preset seeding.
    Transfer,
    /// Positional `[a|b|c|d|all] [rows cols]`: the Figure 1 panel and grid
    /// corner size.
    Panel,
    /// Positional `[artifact.json ...]`: committed artifacts to gate.
    Artifacts,
}

impl Flag {
    /// Every flag, in usage order.
    pub const ALL: [Flag; 21] = [
        Flag::Full,
        Flag::Bursts,
        Flag::NoRefresh,
        Flag::Engine,
        Flag::Channels,
        Flag::Ranks,
        Flag::Workers,
        Flag::Threads,
        Flag::Json,
        Flag::Csv,
        Flag::Seed,
        Flag::Restarts,
        Flag::Budget,
        Flag::Neighbors,
        Flag::Strategy,
        Flag::Surrogate,
        Flag::Promote,
        Flag::SaTemp,
        Flag::Transfer,
        Flag::Panel,
        Flag::Artifacts,
    ];

    /// The flag as typed on the command line (`None` for positionals).
    #[must_use]
    pub fn name(self) -> Option<&'static str> {
        Some(match self {
            Flag::Full => "--full",
            Flag::Bursts => "--bursts",
            Flag::NoRefresh => "--no-refresh",
            Flag::Engine => "--engine",
            Flag::Channels => "--channels",
            Flag::Ranks => "--ranks",
            Flag::Workers => "--workers",
            Flag::Threads => "--threads",
            Flag::Json => "--json",
            Flag::Csv => "--csv",
            Flag::Seed => "--seed",
            Flag::Restarts => "--restarts",
            Flag::Budget => "--budget",
            Flag::Neighbors => "--neighbors",
            Flag::Strategy => "--strategy",
            Flag::Surrogate => "--surrogate",
            Flag::Promote => "--promote",
            Flag::SaTemp => "--sa-temp",
            Flag::Transfer => "--transfer",
            Flag::Panel | Flag::Artifacts => return None,
        })
    }

    /// The usage form and help line of the flag, quoting the default from
    /// `defaults` where the flag has one.
    fn help(self, defaults: &HarnessOptions) -> (&'static str, String) {
        match self {
            Flag::Full => (
                "--full",
                "evaluate the paper's exact 12.5 M-burst interleaver".to_string(),
            ),
            Flag::Bursts => (
                "--bursts <n>",
                format!(
                    "interleaver size in DRAM bursts (default {})",
                    defaults.bursts
                ),
            ),
            Flag::NoRefresh => (
                "--no-refresh",
                "disable DRAM refresh (the paper's in-text experiment)".to_string(),
            ),
            Flag::Engine => (
                "--engine <e>",
                "timing engine: `event` (default) or `cycle` (reference)".to_string(),
            ),
            Flag::Channels => (
                "--channels <n>",
                "independent DRAM channels per configuration (default 1)".to_string(),
            ),
            Flag::Ranks => ("--ranks <n>", "ranks per channel (default 1)".to_string()),
            Flag::Workers => (
                "--workers <n>",
                "worker threads for the sweep (default: all cores)".to_string(),
            ),
            Flag::Threads => (
                "--threads <n>",
                "worker threads per scenario, driving its channels (default 1)".to_string(),
            ),
            Flag::Json => (
                "--json <path>",
                "write the JSON document to <path>".to_string(),
            ),
            Flag::Csv => (
                "--csv <path>",
                "write the records as CSV to <path>".to_string(),
            ),
            Flag::Seed => (
                "--seed <n>",
                "RNG seed; fixed seeds reproduce bit-identical searches (default 0)".to_string(),
            ),
            Flag::Restarts => (
                "--restarts <n>",
                "hill-climb starting points per preset (default 4)".to_string(),
            ),
            Flag::Budget => (
                "--budget <n>",
                "full-size candidate evaluations per preset (default 400)".to_string(),
            ),
            Flag::Neighbors => (
                "--neighbors <n>",
                "candidates per climb step (default 8)".to_string(),
            ),
            Flag::Strategy => (
                "--strategy <s>",
                "greedy | portfolio (default greedy)".to_string(),
            ),
            Flag::Surrogate => (
                "--surrogate <n>",
                "portfolio: pre-screen at bursts/n; 0 disables (default 0)".to_string(),
            ),
            Flag::Promote => (
                "--promote <k>",
                "portfolio: candidates promoted per surrogate batch (default 2)".to_string(),
            ),
            Flag::SaTemp => (
                "--sa-temp <n>",
                "portfolio: initial annealing temperature in 1e-6 units (default 150)".to_string(),
            ),
            Flag::Transfer => (
                "--transfer",
                "portfolio: seed each preset with earlier presets' winners".to_string(),
            ),
            Flag::Panel => (
                "[a|b|c|d|all] [rows cols]",
                "Figure 1 panel (default all) and grid corner size (default 8 8)".to_string(),
            ),
            Flag::Artifacts => (
                "[artifact.json ...]",
                "committed artifacts to gate (default: every gated workload)".to_string(),
            ),
        }
    }
}

/// Command-line options of the harness workloads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HarnessOptions {
    /// Interleaver size in bursts.
    pub bursts: u64,
    /// Disable refresh (the paper's in-text experiment).
    pub no_refresh: bool,
    /// Worker threads for the experiment run (0 = automatic).
    pub workers: usize,
    /// Worker threads *inside* each scenario, driving the per-channel
    /// controllers (results are bit-identical for any value; default 1).
    pub threads: usize,
    /// Write the JSON document to this path.
    pub json: Option<PathBuf>,
    /// Write the records as CSV to this path.
    pub csv: Option<PathBuf>,
    /// Timing engine advancing the DRAM clock (event-driven by default; the
    /// cycle-accurate engine remains selectable as the reference).
    pub engine: TimingEngine,
    /// Independent DRAM channels per configuration (1 = the paper's device).
    pub channels: u32,
    /// Ranks per channel (1 = the paper's device).
    pub ranks: u32,
    /// Mapping-search settings (`--seed`, `--restarts`, `--budget`, ...).
    pub search: SearchSettings,
    /// Mapping search: seed each preset with earlier presets' winners.
    pub transfer: bool,
    /// Figure 1 panel: `a`–`d` or `all`.
    pub panel: String,
    /// Figure 1 grid corner size as `(rows, cols)`.
    pub grid: (u32, u32),
    /// Committed artifacts to gate.
    pub artifacts: Vec<PathBuf>,
    /// `--help`/`-h` was requested; the binary should print usage and exit.
    pub help: bool,
}

/// Takes the value of a value-taking flag.
fn value_of<I: Iterator<Item = String>>(iter: &mut I, flag: &str) -> Result<String, String> {
    iter.next()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses a non-negative integer flag value.
fn number_of<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    value: &str,
    what: &str,
) -> Result<T, String> {
    value
        .parse()
        .map_err(|e| format!("invalid {what} `{value}`: {e}"))
}

/// Parses a search-flag value that must be at least 1.
fn positive_u32(value: &str, flag: &str) -> Result<u32, String> {
    let n: u32 = number_of(value, &format!("{flag} value"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

impl HarnessOptions {
    /// The defaults used when no flags are given.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bursts: DEFAULT_BURSTS,
            no_refresh: false,
            workers: 0,
            threads: 1,
            json: None,
            csv: None,
            engine: TimingEngine::default(),
            channels: 1,
            ranks: 1,
            search: SearchSettings {
                seed: 0,
                ..SearchSettings::default()
            },
            transfer: false,
            panel: "all".to_string(),
            grid: (8, 8),
            artifacts: Vec::new(),
            help: false,
        }
    }

    /// Parses command-line arguments against the `accepted` flag list on top
    /// of `self`.  `--help`/`-h` is always accepted: it sets
    /// [`HarnessOptions::help`] and stops parsing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable error message for unknown flags, flags the
    /// list does not accept, malformed or out-of-range numbers and missing
    /// flag values.  Parsing never panics.
    pub fn parse<I: IntoIterator<Item = String>>(
        mut self,
        accepted: &[Flag],
        args: I,
    ) -> Result<Self, String> {
        let mut iter = args.into_iter();
        let mut positionals = Vec::new();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                self.help = true;
                return Ok(self);
            }
            let Some(flag) = Flag::ALL
                .into_iter()
                .find(|f| f.name() == Some(arg.as_str()))
            else {
                if arg.starts_with('-') {
                    return Err(format!("unknown option `{arg}`"));
                }
                positionals.push(arg);
                continue;
            };
            if !accepted.contains(&flag) {
                return Err(format!("option `{arg}` is not supported here"));
            }
            self.apply(flag, &arg, &mut iter)?;
        }
        if accepted.contains(&Flag::Panel) {
            self.apply_panel(&positionals)?;
        } else if accepted.contains(&Flag::Artifacts) {
            self.artifacts = positionals.into_iter().map(PathBuf::from).collect();
        } else if let Some(arg) = positionals.first() {
            return Err(format!("unexpected argument `{arg}`"));
        }
        Ok(self)
    }

    /// Applies one named flag, taking its value from `iter`.
    fn apply<I: Iterator<Item = String>>(
        &mut self,
        flag: Flag,
        arg: &str,
        iter: &mut I,
    ) -> Result<(), String> {
        match flag {
            Flag::Full => self.bursts = 12_500_000,
            Flag::NoRefresh => self.no_refresh = true,
            Flag::Transfer => self.transfer = true,
            Flag::Bursts => {
                self.bursts = number_of(&value_of(iter, arg)?, "burst count")?;
                if self.bursts == 0 {
                    return Err("burst count must be non-zero".to_string());
                }
            }
            Flag::Workers => {
                self.workers = number_of(&value_of(iter, arg)?, "worker count")?;
                if self.workers == 0 {
                    return Err(
                        "worker count must be at least 1 (omit --workers for all cores)"
                            .to_string(),
                    );
                }
            }
            Flag::Threads => {
                self.threads = number_of(&value_of(iter, arg)?, "thread count")?;
                if self.threads == 0 {
                    return Err("thread count must be at least 1".to_string());
                }
            }
            Flag::Channels | Flag::Ranks => {
                let what = if flag == Flag::Channels {
                    "channel"
                } else {
                    "rank"
                };
                let value = value_of(iter, arg)?;
                let count: u32 = number_of(&value, &format!("{what} count"))?;
                if count == 0 || !count.is_power_of_two() {
                    return Err(format!(
                        "{what} count must be a non-zero power of two, got `{value}`"
                    ));
                }
                if flag == Flag::Channels {
                    self.channels = count;
                } else {
                    self.ranks = count;
                }
            }
            Flag::Json => self.json = Some(PathBuf::from(value_of(iter, arg)?)),
            Flag::Csv => self.csv = Some(PathBuf::from(value_of(iter, arg)?)),
            Flag::Engine => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--engine requires `cycle` or `event`".to_string())?;
                self.engine = match value.as_str() {
                    "cycle" => TimingEngine::Cycle,
                    "event" => TimingEngine::Event,
                    other => {
                        return Err(format!(
                            "invalid engine `{other}` (expected `cycle` or `event`)"
                        ))
                    }
                };
            }
            Flag::Seed => {
                self.search.seed = number_of(&value_of(iter, arg)?, "--seed value")?;
            }
            Flag::Restarts => self.search.restarts = positive_u32(&value_of(iter, arg)?, arg)?,
            Flag::Budget => self.search.budget = positive_u32(&value_of(iter, arg)?, arg)?,
            Flag::Neighbors => self.search.neighbors = positive_u32(&value_of(iter, arg)?, arg)?,
            Flag::Promote => self.search.promote = positive_u32(&value_of(iter, arg)?, arg)?,
            Flag::Surrogate => {
                self.search.surrogate_divisor =
                    number_of(&value_of(iter, arg)?, "--surrogate value")?;
            }
            Flag::SaTemp => {
                self.search.sa_temp_micro = number_of(&value_of(iter, arg)?, "--sa-temp value")?;
            }
            Flag::Strategy => self.search.strategy = value_of(iter, arg)?.parse()?,
            Flag::Panel | Flag::Artifacts => unreachable!("positionals have no flag name"),
        }
        Ok(())
    }

    /// Parses Figure 1's positionals: a panel letter, then an optional grid
    /// corner size (`rows`, then `cols`).
    fn apply_panel(&mut self, positionals: &[String]) -> Result<(), String> {
        if positionals.len() > 3 {
            return Err(format!(
                "unexpected argument `{}` (expected [a|b|c|d|all] [rows cols])",
                positionals[3]
            ));
        }
        if let Some(panel) = positionals.first() {
            if !matches!(panel.as_str(), "a" | "b" | "c" | "d" | "all") {
                return Err(format!(
                    "invalid panel `{panel}` (expected a, b, c, d or all)"
                ));
            }
            self.panel.clone_from(panel);
        }
        if let Some(rows) = positionals.get(1) {
            self.grid.0 = number_of(rows, "grid row count")?;
        }
        if let Some(cols) = positionals.get(2) {
            self.grid.1 = number_of(cols, "grid column count")?;
        }
        Ok(())
    }

    /// Usage text of `command`, documenting exactly the `accepted` flags
    /// with `self` as the defaults; `--help` is always included.
    #[must_use]
    pub fn usage(&self, command: &str, about: &str, accepted: &[Flag]) -> String {
        let selected: Vec<(&str, String)> = Flag::ALL
            .into_iter()
            .filter(|flag| accepted.contains(flag))
            .map(|flag| flag.help(self))
            .collect();
        let mut out = format!("usage: tbi_bench {command}");
        for (form, _) in &selected {
            if form.starts_with('[') {
                out.push_str(&format!(" {form}"));
            } else {
                out.push_str(&format!(" [{form}]"));
            }
        }
        out.push_str(&format!(" [--help]\n\n{about}\n\noptions:\n"));
        for (form, help) in &selected {
            if form.len() < 16 {
                out.push_str(&format!("  {form:<16} {help}\n"));
            } else {
                out.push_str(&format!("  {form}\n  {:<16} {help}\n", ""));
            }
        }
        out.push_str("  -h, --help       print this help");
        out
    }

    /// The controller configuration implied by the options.
    #[must_use]
    pub fn controller(&self) -> ControllerConfig {
        ControllerConfig {
            refresh_mode: self.no_refresh.then_some(RefreshMode::Disabled),
            engine: self.engine,
            ..ControllerConfig::default()
        }
    }

    /// The refresh-axis setting implied by `--no-refresh`.
    #[must_use]
    pub fn refresh_setting(&self) -> RefreshSetting {
        if self.no_refresh {
            RefreshSetting::Disabled
        } else {
            RefreshSetting::Standard
        }
    }

    /// Runs a grid through an [`Experiment`](tbi_exp::Experiment) with the
    /// configured worker count.
    ///
    /// # Errors
    ///
    /// Propagates [`ExpError`] from the first failing scenario.
    pub fn run_grid(&self, grid: SweepGrid) -> Result<Vec<Record>, ExpError> {
        self.run(grid.threads(self.threads).into_experiment())
    }

    /// Runs an experiment with the configured worker count.
    ///
    /// # Errors
    ///
    /// Propagates [`ExpError`] from the first failing scenario.
    pub fn run(&self, experiment: tbi_exp::Experiment) -> Result<Vec<Record>, ExpError> {
        let experiment = if self.workers == 0 {
            experiment.with_auto_workers()
        } else {
            experiment.with_workers(self.workers)
        };
        experiment.run()
    }
}

/// Formats one Table-I-style row: configuration, write/read utilization for
/// the row-major and the optimized mapping records.
#[must_use]
pub fn format_table1_row(label: &str, row_major: &Record, optimized: &Record) -> String {
    format!(
        "{label:<14} {:>8.2} % {:>8.2} % {:>10.2} % {:>8.2} %",
        row_major.write_utilization * 100.0,
        row_major.read_utilization * 100.0,
        optimized.write_utilization * 100.0,
        optimized.read_utilization * 100.0,
    )
}

/// Runs the Table I pair for every preset configuration through a
/// [`SweepGrid`] and returns the records in the paper's row order:
/// `(row-major, optimized)` adjacent per configuration.
///
/// # Errors
///
/// Returns [`ExpError`] naming the failing scenario, e.g. when a custom
/// `--bursts` size does not fit one of the presets.
pub fn run_table1(options: &HarnessOptions) -> Result<Vec<Record>, ExpError> {
    let grid = SweepGrid::new()
        .all_presets()?
        .channel_count(options.channels)
        .rank_count(options.ranks)
        .size(options.bursts)
        .mappings(MappingKind::TABLE1)
        .refresh(options.refresh_setting())
        .controller(options.controller());
    options.run_grid(grid)
}

/// Device axis of the downlink campaign bench: the paper's DDR4 baseline
/// plus the three modern presets with their baked native topologies.
pub const CAMPAIGN_PRESETS: [(DramStandard, u32); 4] = [
    (DramStandard::Ddr4, 3200),
    (DramStandard::Hbm2, 2400),
    (DramStandard::Gddr6, 16000),
    (DramStandard::Ddr5Stacked, 6400),
];

/// Peak pass elevation of the campaign's link profile (degrees).  High
/// enough that the fade rate varies meaningfully over the pass, while the
/// low-elevation edges keep every depth's post-FEC BER nonzero.
pub const CAMPAIGN_PEAK_ELEVATION_DEG: f64 = 45.0;

/// Weather of the campaign's link profile.
pub const CAMPAIGN_WEATHER: Weather = Weather::Clear;

/// The campaign bench's shared pass profile: a clear-sky LEO pass whose
/// edge segments dominate the error budget.
#[must_use]
pub fn campaign_profile() -> LinkProfile {
    LinkProfile::leo_pass(CAMPAIGN_PEAK_ELEVATION_DEG, CAMPAIGN_WEATHER)
}

/// Builds the campaign the `campaign_sweep` workload runs and the gate
/// replays: [`CAMPAIGN_PRESETS`] × the Table I mapping pair × the default
/// depth and code-rate axes under [`campaign_profile`].
/// The seed and trial count are parameters so the gate can replay the
/// committed artifact's exact link simulations.
///
/// # Errors
///
/// Returns [`ExpError::Dram`] if a campaign preset is unknown (which would
/// mean the preset tables and this list drifted apart).
pub fn build_campaign(
    bursts: u64,
    workers: usize,
    seed: u64,
    trials: u32,
) -> Result<Campaign, ExpError> {
    let mut config = CampaignConfig::new(campaign_profile())
        .size(bursts)
        .workers(workers)
        .seed(seed)
        .trials(trials);
    for (standard, rate) in CAMPAIGN_PRESETS {
        config = config.preset(standard, rate)?;
    }
    Ok(config.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_exp::search::SearchStrategy;

    /// Parses `args` against the full Table I flag set.
    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        Workload::Table1.parse_options(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parse_defaults() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.bursts, DEFAULT_BURSTS);
        assert!(!options.no_refresh);
        assert_eq!(options.workers, 0);
        assert!(options.json.is_none() && options.csv.is_none());
        assert!(!options.help);
        assert_eq!(options, HarnessOptions::new());
    }

    #[test]
    fn parse_flags() {
        let options = parse(&["--no-refresh", "--bursts", "4096"]).unwrap();
        assert!(options.no_refresh);
        assert_eq!(options.bursts, 4096);
        let full = parse(&["--full"]).unwrap();
        assert_eq!(full.bursts, 12_500_000);
    }

    #[test]
    fn parse_output_and_worker_flags() {
        let options = parse(&["--json", "out.json", "--csv", "out.csv", "--workers", "3"]).unwrap();
        assert_eq!(
            options.json.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(
            options.csv.as_deref(),
            Some(std::path::Path::new("out.csv"))
        );
        assert_eq!(options.workers, 3);
    }

    #[test]
    fn parse_threads_flag() {
        assert_eq!(HarnessOptions::new().threads, 1);
        let options = parse(&["--threads", "4"]).unwrap();
        assert_eq!(options.threads, 4);
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
    }

    #[test]
    fn parse_engine_flag() {
        assert_eq!(HarnessOptions::new().engine, TimingEngine::Event);
        let cycle = parse(&["--engine", "cycle"]).unwrap();
        assert_eq!(cycle.engine, TimingEngine::Cycle);
        assert_eq!(cycle.controller().engine, TimingEngine::Cycle);
        let event = parse(&["--engine", "event"]).unwrap();
        assert_eq!(event.engine, TimingEngine::Event);
        assert!(parse(&["--engine"]).is_err());
        assert!(parse(&["--engine", "warp"]).is_err());
    }

    #[test]
    fn engine_flag_flows_into_table1_scenarios() {
        let options = HarnessOptions {
            bursts: 2_000,
            engine: TimingEngine::Cycle,
            ..HarnessOptions::new()
        };
        let cycle_records = run_table1(&options).unwrap();
        let event_records = run_table1(&HarnessOptions {
            engine: TimingEngine::Event,
            ..options.clone()
        })
        .unwrap();
        // Different engines, bit-identical records — the transition-safety
        // invariant, visible end to end through the CLI surface.
        assert_eq!(cycle_records, event_records);
    }

    #[test]
    fn parse_help_short_circuits() {
        for flag in ["--help", "-h"] {
            let options = parse(&[flag, "--nope"]).unwrap();
            assert!(options.help, "{flag} should set help");
        }
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--bursts"]).is_err());
        assert!(parse(&["--bursts", "abc"]).is_err());
        assert!(parse(&["--bursts", "0"]).is_err());
        assert!(parse(&["--workers", "x"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--csv"]).is_err());
        assert!(parse(&["stray"]).is_err());
        // Known flags another workload owns are rejected, not ignored.
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(Workload::Fig1
            .parse_options(["--bursts", "100"].map(String::from))
            .is_err());
    }

    /// Every malformed command line must produce a clean `Err` with a
    /// human-readable message — parsing never panics, whatever the input.
    #[test]
    fn parse_errors_cleanly_never_panics() {
        use Workload::{Fig1, MappingSearch, Table1};
        let cases: &[(Workload, &[&str])] = &[
            // Explicit zero workers: ambiguous (0 used to mean "auto"), now
            // rejected with a hint.
            (Table1, &["--workers", "0"]),
            // Missing values for every value-taking flag.
            (Table1, &["--bursts"]),
            (Table1, &["--workers"]),
            (Table1, &["--threads"]),
            (Table1, &["--json"]),
            (Table1, &["--csv"]),
            (Table1, &["--engine"]),
            (Table1, &["--channels"]),
            (Table1, &["--ranks"]),
            (MappingSearch, &["--seed"]),
            (MappingSearch, &["--strategy"]),
            // Unknown flags, including near-misses.
            (Table1, &["--nope"]),
            (Table1, &["--burst", "100"]),
            (Table1, &["-x"]),
            (Table1, &["bursts"]),
            // Engine typos.
            (Table1, &["--engine", "warp"]),
            (Table1, &["--engine", "Event"]),
            (Table1, &["--engine", ""]),
            // Malformed and out-of-range numbers.
            (Table1, &["--bursts", "-5"]),
            (Table1, &["--bursts", "1e6"]),
            (Table1, &["--workers", "many"]),
            (Table1, &["--threads", "0"]),
            (Table1, &["--threads", "-1"]),
            (Table1, &["--channels", "0"]),
            (Table1, &["--channels", "3"]),
            (Table1, &["--ranks", "0"]),
            (Table1, &["--ranks", "6"]),
            (Table1, &["--channels", "x"]),
            (MappingSearch, &["--restarts", "0"]),
            (MappingSearch, &["--budget", "99999999999"]),
            (MappingSearch, &["--strategy", "random"]),
            (MappingSearch, &["--sa-temp", "-5"]),
            // Figure 1 positionals: unknown panel, malformed grid sizes
            // (which used to fall back to 8 silently) and extra arguments.
            (Fig1, &["e"]),
            (Fig1, &["d", "abc", "xyz"]),
            (Fig1, &["d", "8", "xyz"]),
            (Fig1, &["all", "4294967296"]),
            (Fig1, &["d", "-1", "4"]),
            (Fig1, &["d", "4", "4", "4"]),
        ];
        for (workload, case) in cases {
            let args: Vec<String> = case.iter().map(|s| (*s).to_string()).collect();
            let result = std::panic::catch_unwind(|| workload.parse_options(args.clone()));
            let outcome = result.unwrap_or_else(|_| panic!("{case:?} panicked"));
            let err = outcome.expect_err(&format!("{case:?} should be rejected"));
            assert!(!err.is_empty(), "{case:?} produced an empty error message");
        }
    }

    #[test]
    fn parse_workers_zero_error_names_the_remedy() {
        let err = parse(&["--workers", "0"]).unwrap_err();
        assert!(err.contains("omit --workers"), "unhelpful message: {err}");
    }

    #[test]
    fn parse_channel_and_rank_flags() {
        let options = parse(&["--channels", "4", "--ranks", "2"]).unwrap();
        assert_eq!(options.channels, 4);
        assert_eq!(options.ranks, 2);
        let defaults = HarnessOptions::new();
        assert_eq!(defaults.channels, 1);
        assert_eq!(defaults.ranks, 1);
    }

    #[test]
    fn parse_fig1_positionals() {
        let parse_fig1 = |args: &[&str]| {
            Workload::Fig1
                .parse_options(args.iter().map(|s| (*s).to_string()))
                .unwrap()
        };
        let defaults = parse_fig1(&[]);
        assert_eq!((defaults.panel.as_str(), defaults.grid), ("all", (8, 8)));
        let options = parse_fig1(&["d", "4", "6", "--workers", "1"]);
        assert_eq!((options.panel.as_str(), options.grid), ("d", (4, 6)));
        assert_eq!(options.workers, 1);
        assert_eq!(parse_fig1(&["b", "3"]).grid, (3, 8));
    }

    #[test]
    fn parse_search_flags() {
        let options = Workload::MappingSearch
            .parse_options(
                [
                    "--strategy",
                    "portfolio",
                    "--seed",
                    "7",
                    "--restarts",
                    "8",
                    "--budget",
                    "80",
                    "--sa-temp",
                    "0",
                    "--transfer",
                    "--no-refresh",
                ]
                .map(String::from),
            )
            .unwrap();
        assert_eq!(options.search.strategy, SearchStrategy::Portfolio);
        assert_eq!(options.search.seed, 7);
        assert_eq!(options.search.restarts, 8);
        assert_eq!(options.search.budget, 80);
        assert_eq!(options.search.sa_temp_micro, 0);
        assert!(options.transfer && options.no_refresh);
        // Without flags the search runs from seed 0, not the library default.
        assert_eq!(HarnessOptions::new().search.seed, 0);
    }

    #[test]
    fn parse_gate_artifacts() {
        let options = HarnessOptions {
            bursts: workload::GATE_BURSTS,
            ..HarnessOptions::new()
        }
        .parse(
            workload::GATE_FLAGS,
            ["a.json", "--workers", "2", "b.json"].map(String::from),
        )
        .unwrap();
        assert_eq!(options.bursts, workload::GATE_BURSTS);
        assert_eq!(options.workers, 2);
        assert_eq!(
            options.artifacts,
            [PathBuf::from("a.json"), PathBuf::from("b.json")]
        );
    }

    #[test]
    fn usage_mentions_every_flag() {
        let usage = Workload::Table1.usage();
        for flag in [
            "--full",
            "--bursts",
            "--no-refresh",
            "--engine",
            "--channels",
            "--ranks",
            "--workers",
            "--threads",
            "--json",
            "--csv",
            "--help",
        ] {
            assert!(usage.contains(flag), "usage missing {flag}");
        }
        assert!(usage.starts_with("usage: tbi_bench table1"));
    }

    #[test]
    fn channel_flags_flow_into_table1_records() {
        let options = HarnessOptions {
            bursts: 2_000,
            channels: 2,
            ..HarnessOptions::new()
        };
        let records = run_table1(&options).unwrap();
        assert_eq!(records.len(), 20);
        assert!(records.iter().all(|r| r.channels == 2 && r.ranks == 1));
        assert!(records.iter().all(|r| r.scenario_id.ends_with("/c2r1")));
    }

    #[test]
    fn usage_for_lists_only_the_supported_flags() {
        let usage = Workload::Fig1.usage();
        for flag in ["--workers", "--json", "--csv", "--help", "[a|b|c|d|all]"] {
            assert!(usage.contains(flag), "usage missing {flag}");
        }
        for flag in ["--full", "--bursts", "--no-refresh"] {
            assert!(!usage.contains(flag), "usage wrongly lists {flag}");
        }
    }

    #[test]
    fn controller_reflects_refresh_flag() {
        let mut options = HarnessOptions::new();
        assert_eq!(options.controller().refresh_mode, None);
        assert_eq!(options.refresh_setting(), RefreshSetting::Standard);
        options.no_refresh = true;
        assert_eq!(
            options.controller().refresh_mode,
            Some(tbi_dram::RefreshMode::Disabled)
        );
        assert_eq!(options.refresh_setting(), RefreshSetting::Disabled);
    }

    #[test]
    fn run_table1_returns_adjacent_pairs_in_paper_order() {
        let options = HarnessOptions {
            bursts: 2_000,
            ..HarnessOptions::new()
        };
        let records = run_table1(&options).unwrap();
        assert_eq!(records.len(), 2 * tbi_dram::standards::ALL_CONFIGS.len());
        for (pair, (standard, rate)) in records
            .chunks(2)
            .zip(tbi_dram::standards::ALL_CONFIGS.iter())
        {
            let label = format!("{}-{rate}", standard.name());
            assert_eq!(pair[0].dram_label, label);
            assert_eq!(pair[0].mapping, "row-major");
            assert_eq!(pair[1].dram_label, label);
            assert_eq!(pair[1].mapping, "optimized");
        }
    }

    #[test]
    fn run_table1_propagates_oversize_errors() {
        let options = HarnessOptions {
            bursts: 100_000_000_000,
            ..HarnessOptions::new()
        };
        let err = run_table1(&options).unwrap_err();
        let message = err.to_string();
        assert!(matches!(err, ExpError::Scenario { .. }));
        assert!(message.contains("scenario"), "got: {message}");
        assert!(message.contains("bursts"), "got: {message}");
    }

    #[test]
    fn format_row_contains_all_four_numbers() {
        let options = HarnessOptions {
            bursts: 5_000,
            no_refresh: true,
            ..HarnessOptions::new()
        };
        let grid = SweepGrid::new()
            .preset(tbi_dram::DramStandard::Ddr3, 800)
            .unwrap()
            .size(options.bursts)
            .mappings(MappingKind::TABLE1)
            .refresh(options.refresh_setting());
        let records = options.run_grid(grid).unwrap();
        let row = format_table1_row("DDR3-800", &records[0], &records[1]);
        assert!(row.starts_with("DDR3-800"));
        assert_eq!(row.matches('%').count(), 4);
    }
}
