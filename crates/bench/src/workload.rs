//! The harness workloads: one [`Workload`] value per table, sweep or
//! committed artifact.  Each value owns its accepted flags, its run, its
//! committed artifact name and its gate checks, so the binary, the CI gate
//! and the tests all run the same code.
//!
//! The regression gate ([`run_gate`]) re-runs every gated workload at a
//! small size and judges the document it produces: [`Workload::checks`]
//! compare headline metrics against the committed artifact through
//! [`crate::gate::evaluate`], and [`Workload::assertions`] check the
//! document's structure.  Both print `PASS`/`FAIL <bench>/<check>` lines.

use std::path::{Path, PathBuf};

use tbi_exp::json::{parse, JsonValue};

use crate::gate::{evaluate, Check, CheckKind, CheckResult, GateReport};
use crate::{runs, Flag, HarnessOptions};

/// One harness workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I of the paper.
    Table1,
    /// Every mapping scheme on every preset.
    Ablation,
    /// Figure 1 of the paper.
    Fig1,
    /// Utilization across interleaver sizes.
    SizeSweep,
    /// Event vs. cycle timing engine (`BENCH_engine.json`).
    EngineSpeed,
    /// Channel-axis scaling (`BENCH_channels.json`).
    ChannelSweep,
    /// Mapping design-space search (`BENCH_dse.json`).
    MappingSearch,
    /// Batched vs. scalar address generation (`BENCH_mapgen.json`).
    MapgenSpeed,
    /// Multi-tenant scheduler sweep (`BENCH_tenants.json`).
    TenantSweep,
    /// Threaded per-channel drive (`BENCH_parallel.json`).
    ParallelSweep,
    /// End-to-end downlink campaign (`BENCH_campaign.json`).
    CampaignSweep,
}

/// What one workload run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The human-readable table, one entry per line.
    pub table: Vec<String>,
    /// The JSON document: the records, or the workload's artifact.
    pub json: String,
    /// The records as CSV, when `--csv` was given and the workload has one.
    pub csv: Option<String>,
    /// A bit-identity check inside the run failed; the binary exits 1 after
    /// writing the document.
    pub diverged: bool,
}

/// A structural gate assertion over the fresh document (first argument)
/// and the committed artifact (second; an empty object for workloads
/// without one).  `Err` carries the diagnostic of the first violation.
pub type Assertion = fn(&JsonValue, &JsonValue) -> Result<(), String>;

/// Flags shared by the Table I style sweeps.
const SWEEP_FLAGS: &[Flag] = &[
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
];

/// Flags of the `gate` command.
pub const GATE_FLAGS: &[Flag] = &[Flag::Bursts, Flag::Workers, Flag::Artifacts];

/// Interleaver size of the gate's re-runs unless `--bursts` overrides it: a
/// small fraction of the committed full-scale runs, so the whole gate stays
/// in CI-smoke territory.
pub const GATE_BURSTS: u64 = 20_000;

/// One-line description of the `gate` command.
pub const GATE_ABOUT: &str = "re-run every gated workload at a small size and fail (exit 1) if \
                              a check regresses against its committed artifact";

impl Workload {
    /// Every workload, in the order the help lists them.
    pub const ALL: [Workload; 11] = [
        Workload::Table1,
        Workload::Ablation,
        Workload::Fig1,
        Workload::SizeSweep,
        Workload::EngineSpeed,
        Workload::ChannelSweep,
        Workload::MappingSearch,
        Workload::MapgenSpeed,
        Workload::TenantSweep,
        Workload::ParallelSweep,
        Workload::CampaignSweep,
    ];

    /// The command-line name, which is also the artifact's `bench` tag.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Ablation => "ablation",
            Workload::Fig1 => "fig1",
            Workload::SizeSweep => "size_sweep",
            Workload::EngineSpeed => "engine_speed",
            Workload::ChannelSweep => "channel_sweep",
            Workload::MappingSearch => "mapping_search",
            Workload::MapgenSpeed => "mapgen_speed",
            Workload::TenantSweep => "tenant_sweep",
            Workload::ParallelSweep => "parallel_sweep",
            Workload::CampaignSweep => "campaign_sweep",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One-line description for `--help`.
    #[must_use]
    pub fn about(self) -> &'static str {
        match self {
            Workload::Table1 => "Table I: row-major vs. optimized utilization on all ten presets",
            Workload::Ablation => "minimum-phase utilization of every mapping scheme per preset",
            Workload::Fig1 => "Figure 1: the mapping schemes as text grids on a miniature device",
            Workload::SizeSweep => "utilization across a fixed ladder of interleaver sizes",
            Workload::EngineSpeed => {
                "event vs. cycle timing engine on the Table I sweep, records bit-identical"
            }
            Workload::ChannelSweep => "aggregate-bandwidth scaling over 1/2/4 channels",
            Workload::MappingSearch => {
                "mapping design-space search vs. the paper's optimized scheme"
            }
            Workload::MapgenSpeed => "batched vs. scalar address generation, bit-identical",
            Workload::TenantSweep => "multi-tenant scheduler: streams x policy x channels",
            Workload::ParallelSweep => {
                "threaded per-channel drive: threads x channels, bit-identical to 1 thread"
            }
            Workload::CampaignSweep => {
                "end-to-end downlink campaign: BER/bandwidth frontier per preset"
            }
        }
    }

    /// The flags the workload accepts; every other flag is rejected.
    #[must_use]
    pub fn flags(self) -> &'static [Flag] {
        match self {
            Workload::Table1 | Workload::Ablation => SWEEP_FLAGS,
            Workload::Fig1 => &[Flag::Workers, Flag::Json, Flag::Csv, Flag::Panel],
            Workload::SizeSweep => &[Flag::NoRefresh, Flag::Workers, Flag::Json, Flag::Csv],
            Workload::EngineSpeed => &[
                Flag::Full,
                Flag::Bursts,
                Flag::Channels,
                Flag::Ranks,
                Flag::Workers,
                Flag::Json,
            ],
            Workload::ChannelSweep => &[
                Flag::Full,
                Flag::Bursts,
                Flag::Ranks,
                Flag::Workers,
                Flag::Json,
            ],
            Workload::MappingSearch => &[
                Flag::Full,
                Flag::Bursts,
                Flag::NoRefresh,
                Flag::Workers,
                Flag::Json,
                Flag::Csv,
                Flag::Seed,
                Flag::Restarts,
                Flag::Budget,
                Flag::Neighbors,
            ],
            Workload::MapgenSpeed => &[
                Flag::Full,
                Flag::Bursts,
                Flag::Channels,
                Flag::Ranks,
                Flag::Json,
            ],
            Workload::TenantSweep => &[Flag::Bursts, Flag::Engine, Flag::Workers, Flag::Json],
            Workload::ParallelSweep => &[Flag::Full, Flag::Bursts, Flag::Json],
            Workload::CampaignSweep => &[Flag::Full, Flag::Bursts, Flag::Workers, Flag::Json],
        }
    }

    /// The committed artifact the workload writes by default (when `--json`
    /// is not given) and is gated against.
    #[must_use]
    pub fn artifact(self) -> Option<&'static str> {
        match self {
            Workload::Table1 | Workload::Ablation | Workload::Fig1 | Workload::SizeSweep => None,
            Workload::EngineSpeed => Some("BENCH_engine.json"),
            Workload::ChannelSweep => Some("BENCH_channels.json"),
            Workload::MappingSearch => Some("BENCH_dse.json"),
            Workload::MapgenSpeed => Some("BENCH_mapgen.json"),
            Workload::TenantSweep => Some("BENCH_tenants.json"),
            Workload::ParallelSweep => Some("BENCH_parallel.json"),
            Workload::CampaignSweep => Some("BENCH_campaign.json"),
        }
    }

    /// The headline-metric checks the gate judges with
    /// [`crate::gate::evaluate`] against the committed artifact.
    #[must_use]
    pub fn checks(self) -> Vec<Check> {
        match self {
            Workload::Table1 | Workload::Ablation | Workload::Fig1 | Workload::SizeSweep => {
                Vec::new()
            }
            Workload::EngineSpeed => vec![
                Check::new("records_identical", CheckKind::MustBeTrue),
                Check::new("speedup", CheckKind::AbsFloor(1.0)),
            ],
            Workload::ChannelSweep => vec![
                Check::new("min_scaling_1_to_2_optimized", CheckKind::MinRatio(0.75)),
                Check::new("min_scaling_1_to_2_optimized", CheckKind::AbsFloor(1.5)),
            ],
            Workload::MappingSearch => {
                vec![Check::new("min_row_hit_gain", CheckKind::MinRatio(0.95))]
            }
            Workload::MapgenSpeed => vec![
                Check::new("all_identical", CheckKind::MustBeTrue),
                // The committed minimum is > 5x; even on a loaded CI box the
                // batched gather kernel must stay well ahead of scalar.
                Check::new("min_permutation_gather_speedup", CheckKind::AbsFloor(1.5)),
            ],
            Workload::TenantSweep => vec![Check::new(
                "max_premium_p99_ratio",
                CheckKind::AbsFloor(1.1),
            )],
            Workload::ParallelSweep => vec![Check::new("all_identical", CheckKind::MustBeTrue)],
            Workload::CampaignSweep => vec![
                Check::new("ber_strictly_decreases_with_depth", CheckKind::MustBeTrue),
                Check::new("all_frontiers_nonempty", CheckKind::MustBeTrue),
                // The mappings are distinguishable even at gate scale, but the
                // absolute shift grows with burst count, so gate on a floor
                // rather than a ratio against the full-size committed value.
                Check::new("min_mapping_bandwidth_shift", CheckKind::AbsFloor(0.01)),
                Check::new("max_aggregate_gbps", CheckKind::MinRatio(0.5)),
            ],
        }
    }

    /// The structural assertions the gate checks on the fresh document.
    #[must_use]
    pub fn assertions(self) -> &'static [(&'static str, Assertion)] {
        match self {
            Workload::Ablation | Workload::Fig1 | Workload::SizeSweep => &[],
            Workload::Table1 => &[("records", table1_records)],
            Workload::EngineSpeed => &[("bench", same_bench)],
            Workload::ChannelSweep => &[
                ("bench", same_bench),
                ("scenarios", channel_scenarios),
                ("records", channel_records),
            ],
            Workload::MappingSearch => &[
                ("bench", same_bench),
                ("settings", search_settings),
                ("search", search_rows),
            ],
            Workload::MapgenSpeed => &[("bench", same_bench), ("rows", mapgen_rows)],
            Workload::TenantSweep => &[
                ("bench", same_bench),
                ("axes", tenant_axes),
                ("records", tenant_records),
            ],
            Workload::ParallelSweep => &[
                ("bench", same_bench),
                ("rows", parallel_rows),
                ("speedup_4ch_4t", parallel_speedup),
            ],
            Workload::CampaignSweep => &[
                ("bench", same_bench),
                ("scenarios", campaign_scenarios),
                ("ber_curves", campaign_curves),
                ("frontiers", campaign_frontiers),
                ("records", campaign_records),
            ],
        }
    }

    /// The `--help` text, generated from [`Workload::flags`].
    #[must_use]
    pub fn usage(self) -> String {
        let about = match self.artifact() {
            Some(artifact) => format!(
                "{}.\nWrites {artifact} unless --json names another path.",
                self.about()
            ),
            None => format!("{}.", self.about()),
        };
        HarnessOptions::new().usage(self.name(), &about, self.flags())
    }

    /// Parses command-line arguments against [`Workload::flags`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown, unsupported or
    /// malformed arguments; see [`HarnessOptions::parse`].
    pub fn parse_options<I: IntoIterator<Item = String>>(
        self,
        args: I,
    ) -> Result<HarnessOptions, String> {
        HarnessOptions::new().parse(self.flags(), args)
    }

    /// Runs the workload.  With a `committed` artifact, `mapping_search`
    /// replays its search settings and `campaign_sweep` its link seed and
    /// trial count instead of the defaults.
    ///
    /// # Errors
    ///
    /// Returns the message of the first failing scenario or setting.
    pub fn run(
        self,
        options: &HarnessOptions,
        committed: Option<&JsonValue>,
    ) -> Result<Document, String> {
        match self {
            Workload::Table1 => runs::table1(options),
            Workload::Ablation => runs::ablation(options),
            Workload::Fig1 => runs::fig1(options),
            Workload::SizeSweep => runs::size_sweep(options),
            Workload::EngineSpeed => runs::engine_speed(options),
            Workload::ChannelSweep => runs::channel_sweep(options),
            Workload::MappingSearch => runs::mapping_search(options, committed),
            Workload::MapgenSpeed => runs::mapgen_speed(options),
            Workload::TenantSweep => runs::tenant_sweep(options),
            Workload::ParallelSweep => runs::parallel_sweep(options),
            Workload::CampaignSweep => runs::campaign_sweep(options, committed),
        }
    }

    /// Writes the document: its JSON to `--json` (or the workload's artifact
    /// when it has one) and its CSV to `--csv`, reporting each path on
    /// standard error.
    ///
    /// # Errors
    ///
    /// Names the path that could not be written.
    pub fn write(self, document: &Document, options: &HarnessOptions) -> Result<(), String> {
        let json = options
            .json
            .clone()
            .or_else(|| self.artifact().map(PathBuf::from));
        let outputs = [
            (json, Some(&document.json)),
            (options.csv.clone(), document.csv.as_ref()),
        ];
        for (path, contents) in outputs {
            if let (Some(path), Some(contents)) = (path, contents) {
                std::fs::write(&path, contents)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
        Ok(())
    }

    /// Runs the workload at gate size and judges the fresh document against
    /// `committed`: the metric checks first, then the assertions.
    ///
    /// # Errors
    ///
    /// Returns the run's error, or a parse error if the document is not
    /// valid JSON.
    pub fn gate(self, committed: &JsonValue, gate: &HarnessOptions) -> Result<GateReport, String> {
        let options = HarnessOptions {
            bursts: gate.bursts,
            workers: if self.flags().contains(&Flag::Workers) {
                gate.workers
            } else {
                0
            },
            ..HarnessOptions::new()
        };
        let document = self.run(&options, Some(committed))?;
        for line in &document.table {
            eprintln!("{line}");
        }
        let fresh = parse(&document.json)
            .map_err(|e| format!("{}: fresh document is not valid JSON: {e}", self.name()))?;
        let mut report = evaluate(self.name(), &fresh, committed, &self.checks());
        for (name, assertion) in self.assertions() {
            let outcome = assertion(&fresh, committed);
            report.results.push(CheckResult {
                metric: (*name).to_string(),
                kind: CheckKind::MustBeTrue,
                passed: outcome.is_ok(),
                detail: outcome.err().unwrap_or_else(|| "true".to_string()),
            });
        }
        Ok(report)
    }
}

/// Reads a committed artifact and resolves its `bench` tag to the
/// workload that writes it.
///
/// # Errors
///
/// Names the file if it cannot be read or parsed, has no `bench` tag, or
/// its tag names no artifact workload.
pub fn committed_artifact(path: &Path) -> Result<(Workload, JsonValue), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let committed = parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let bench = committed
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{} has no `bench` tag", path.display()))?;
    let workload = Workload::parse(bench)
        .filter(|w| w.artifact().is_some())
        .ok_or_else(|| format!("{}: unknown bench tag `{bench}`", path.display()))?;
    Ok((workload, committed))
}

/// The regression gate: judges each artifact in `options.artifacts` (or,
/// with none given, every gated workload against its committed artifact),
/// printing one report per workload.  Returns whether every check passed.
#[must_use]
pub fn run_gate(options: &HarnessOptions) -> bool {
    let targets: Vec<Result<(Workload, JsonValue), String>> = if options.artifacts.is_empty() {
        Workload::ALL
            .into_iter()
            .filter(|w| !w.checks().is_empty() || !w.assertions().is_empty())
            .map(|w| match w.artifact() {
                Some(artifact) => committed_artifact(Path::new(artifact)),
                None => Ok((w, JsonValue::Object(Vec::new()))),
            })
            .collect()
    } else {
        options
            .artifacts
            .iter()
            .map(|path| committed_artifact(path))
            .collect()
    };
    eprintln!(
        "gate: {} workload(s) at {} bursts per re-run scenario",
        targets.len(),
        options.bursts
    );
    let mut all_passed = true;
    for target in targets {
        let report = target.and_then(|(workload, committed)| {
            eprintln!("gating {} ...", workload.name());
            workload.gate(&committed, options)
        });
        match report {
            Ok(report) => {
                print!("{}", report.render());
                all_passed &= report.passed();
            }
            Err(message) => {
                eprintln!("error: {message}");
                all_passed = false;
            }
        }
    }
    all_passed
}

// ---------------------------------------------------------------------------
// Structural assertions on the fresh documents.

fn ensure(condition: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(message())
    }
}

fn field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    doc.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn number(doc: &JsonValue, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn string<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn boolean(doc: &JsonValue, key: &str) -> Result<bool, String> {
    field(doc, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` is not a boolean"))
}

fn array<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

/// The `[a, b, ...]` numbers of an array-of-numbers key.
fn numbers(doc: &JsonValue, key: &str) -> Result<Vec<f64>, String> {
    array(doc, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("`{key}` holds a non-number"))
        })
        .collect()
}

/// The document's `bench` tag matches the committed artifact's.
fn same_bench(fresh: &JsonValue, committed: &JsonValue) -> Result<(), String> {
    let (fresh, committed) = (string(fresh, "bench")?, string(committed, "bench")?);
    ensure(fresh == committed, || {
        format!("fresh tag `{fresh}`, committed `{committed}`")
    })
}

fn table1_records(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let records = fresh.as_array().ok_or("document is not a record array")?;
    ensure(records.len() == 20, || {
        format!("{} records, expected 20", records.len())
    })?;
    for record in records {
        let id = string(record, "scenario_id")?;
        let utilization = number(record, "min_utilization")?;
        ensure((0.0..=1.0).contains(&utilization), || {
            format!("{id}: min_utilization {utilization} outside [0, 1]")
        })?;
        ensure(id.starts_with(string(record, "dram")?), || {
            format!("{id}: scenario id does not start with its dram label")
        })?;
        ensure(
            number(record, "simulated_cycles")? > 0.0 && number(record, "wall_time_s")? > 0.0,
            || format!("{id}: no simulated cycles or wall time"),
        )?;
    }
    Ok(())
}

fn channel_scenarios(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let scenarios = number(fresh, "scenarios")?;
    ensure(scenarios == 12.0, || {
        format!("{scenarios} scenarios, expected 12")
    })
}

fn channel_records(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    for record in array(fresh, "records")? {
        let id = string(record, "scenario_id")?;
        let channels = number(record, "channels")?;
        ensure(
            [1.0, 2.0, 4.0].contains(&channels) && number(record, "ranks")? == 1.0,
            || format!("{id}: topology outside channels 1/2/4 x rank 1"),
        )?;
        ensure(number(record, "aggregate_gbps")? > 0.0, || {
            format!("{id}: no aggregate bandwidth")
        })?;
    }
    Ok(())
}

/// The document records the settings the gate replayed from the committed
/// artifact.
fn search_settings(fresh: &JsonValue, committed: &JsonValue) -> Result<(), String> {
    let presets = number(fresh, "presets")?;
    ensure(presets == 10.0, || {
        format!("{presets} presets, expected 10")
    })?;
    boolean(fresh, "all_beat_optimized")?;
    let (settings, no_refresh) = runs::replay_search(committed)?;
    let budget = number(fresh, "budget")?;
    ensure(budget == f64::from(settings.budget), || {
        format!("budget {budget}, replayed {}", settings.budget)
    })?;
    ensure(boolean(fresh, "refresh_disabled")? == no_refresh, || {
        "refresh condition differs from the committed run".to_string()
    })
}

fn search_rows(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let budget = number(fresh, "budget")?;
    for search in array(fresh, "search")? {
        let dram = string(search, "dram")?;
        let evaluations = number(search, "evaluations")?;
        ensure((1.0..=budget).contains(&evaluations), || {
            format!("{dram}: {evaluations} evaluations outside 1..={budget}")
        })?;
        let rate = number(search, "discovered_row_hit_rate")?;
        ensure(rate > 0.0 && rate <= 1.0, || {
            format!("{dram}: discovered row-hit rate {rate} outside (0, 1]")
        })?;
        // The winner's label names one of the searchable families; a
        // free-shape tiling winner has no bit-sliced form, so its
        // permutation/fold fields stay empty and best.mapping is the
        // authoritative description.
        let label = string(field(search, "best")?, "mapping")?;
        let permutation = string(search, "permutation")?;
        let fold = string(search, "fold")?;
        let family = label.split(':').next().unwrap_or_default();
        ensure(
            ["permutation", "xorfold", "tiled"].contains(&family),
            || format!("{dram}: winner `{label}` is not a searchable family"),
        )?;
        ensure(permutation.chars().all(|c| "HKGBRC".contains(c)), || {
            format!("{dram}: permutation `{permutation}` has unknown field codes")
        })?;
        let consistent = if label.starts_with("tiled:") {
            permutation.is_empty() && fold.is_empty()
        } else if fold.is_empty() {
            label == format!("permutation:{permutation}")
        } else {
            label == format!("xorfold:{permutation}|{fold}")
        };
        ensure(consistent, || {
            format!("{dram}: label `{label}` disagrees with permutation `{permutation}` / fold `{fold}`")
        })?;
        // Every start clears the row-major baseline's thrashing read phase.
        let row_major = field(search, "row_major")?;
        let base = (number(row_major, "write_row_hit_rate")?
            + number(row_major, "read_row_hit_rate")?)
            / 2.0;
        ensure(rate > base, || {
            format!("{dram}: discovered row-hit rate {rate} does not beat row-major {base}")
        })?;
    }
    Ok(())
}

fn mapgen_rows(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let rows = array(fresh, "rows")?;
    let mut gather = 0;
    for row in rows {
        let name = format!("{} / {}", string(row, "config")?, string(row, "scheme")?);
        ensure(boolean(row, "identical")?, || {
            format!("{name}: batch differs from scalar")
        })?;
        ensure(
            number(row, "scalar_addresses_per_s")? > 0.0
                && number(row, "batch_addresses_per_s")? > 0.0,
            || format!("{name}: zero address rate"),
        )?;
        if string(row, "scheme")? == "permutation-gather" {
            gather += 1;
            ensure(!boolean(row, "shift_mask")?, || {
                format!("{name}: gather permutation took the shift/mask path")
            })?;
        }
    }
    ensure(gather == 10, || {
        format!("{gather} permutation-gather rows, expected 10")
    })
}

fn tenant_axes(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let scenarios = number(fresh, "scenarios")?;
    ensure(scenarios == 24.0, || {
        format!("{scenarios} scenarios, expected 24")
    })?;
    let policies: Vec<&str> = array(fresh, "policies")?
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    ensure(policies == ["round_robin", "weighted_share", "edf"], || {
        format!("policies {policies:?}")
    })?;
    for cell in array(fresh, "contended_cells")? {
        let per_policy = array(cell, "per_policy")?.len();
        ensure(per_policy == 3, || {
            format!(
                "{}: {per_policy} policies in the contended cell",
                string(cell, "dram").unwrap_or("?")
            )
        })?;
    }
    Ok(())
}

fn tenant_records(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    for record in array(fresh, "records")? {
        let id = string(record, "scenario_id")?;
        let tenants = field(record, "tenants")?;
        let policy = string(tenants, "policy")?;
        ensure(
            ["round_robin", "weighted_share", "edf"].contains(&policy),
            || format!("{id}: unknown policy `{policy}`"),
        )?;
        let streams = number(tenants, "streams")?;
        let per_tenant = array(tenants, "per_tenant")?;
        ensure(
            (streams == 8.0 || streams == 64.0) && per_tenant.len() as f64 == streams,
            || format!("{id}: {} tenants for {streams} streams", per_tenant.len()),
        )?;
        let fairness = number(tenants, "fairness_index")?;
        ensure(1.0 / streams <= fairness && fairness <= 1.0 + 1e-9, || {
            format!("{id}: fairness {fairness} outside [1/{streams}, 1]")
        })?;
        let mut worst_p99: f64 = 0.0;
        for tenant in per_tenant {
            let qos = string(tenant, "qos")?;
            ensure(
                ["premium", "standard", "best_effort"].contains(&qos),
                || format!("{id}: unknown QoS `{qos}`"),
            )?;
            let p99 = number(tenant, "p99_latency_cycles")?;
            ensure(p99 >= number(tenant, "p50_latency_cycles")?, || {
                format!("{id}: a tenant's p99 is below its p50")
            })?;
            ensure(number(tenant, "requests")? > 0.0, || {
                format!("{id}: a tenant completed no requests")
            })?;
            worst_p99 = worst_p99.max(p99);
        }
        ensure(number(tenants, "worst_p99_cycles")? == worst_p99, || {
            format!("{id}: worst_p99_cycles is not the worst per-tenant p99")
        })?;
    }
    Ok(())
}

fn parallel_rows(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    for key in ["channel_axis", "thread_axis"] {
        let axis = numbers(fresh, key)?;
        ensure(axis == [1.0, 2.0, 4.0], || format!("{key} {axis:?}"))?;
    }
    for row in array(fresh, "rows")? {
        let name = format!(
            "{} c{} s{} t{}",
            string(row, "workload")?,
            number(row, "channels")?,
            number(row, "streams")?,
            number(row, "threads")?
        );
        ensure(boolean(row, "identical_to_1_thread")?, || {
            format!("{name}: differs from the 1-thread run")
        })?;
        ensure(number(row, "wall_s")? > 0.0, || {
            format!("{name}: no wall time")
        })?;
    }
    Ok(())
}

/// A wall-clock speedup is only physically possible on a multi-core host,
/// so the 4-channel / 4-thread floor applies only with ≥ 4 cores.
fn parallel_speedup(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let cores = number(fresh, "host_parallelism")?;
    if cores < 4.0 {
        eprintln!("  speedup_4ch_4t floor skipped on a {cores}-core host");
        return Ok(());
    }
    let speedup = number(fresh, "speedup_4ch_4t")?;
    ensure(speedup >= 1.5, || {
        format!("speedup {speedup} below 1.5 on a {cores}-core host")
    })
}

fn campaign_scenarios(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    let scenarios = number(fresh, "scenarios")?;
    ensure(scenarios == 72.0, || {
        format!("{scenarios} scenarios, expected 72")
    })?;
    let frontiers = array(fresh, "frontiers")?.len();
    ensure(frontiers == 4, || {
        format!("{frontiers} frontiers, expected 4")
    })
}

/// Re-derives the waterfall from the curves: at every code rate, deeper
/// interleaving never raises the post-FEC BER and the shallowest depth
/// leaves residual errors.
fn campaign_curves(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    for curve in array(fresh, "ber_curves")? {
        let rate = format!("{}/{}", number(curve, "k")?, number(curve, "n")?);
        let points = array(curve, "curve")?
            .iter()
            .map(|point| match point.as_array() {
                Some([depth, ber]) => depth.as_f64().zip(ber.as_f64()),
                _ => None,
            })
            .collect::<Option<Vec<(f64, f64)>>>()
            .ok_or_else(|| format!("rate {rate}: malformed curve point"))?;
        ensure(points.first().is_some_and(|&(_, ber)| ber > 0.0), || {
            format!("rate {rate}: the shallowest depth has no residual errors")
        })?;
        for pair in points.windows(2) {
            let ((d0, b0), (d1, b1)) = (pair[0], pair[1]);
            ensure(d1 > d0 && (b1 < b0 || (b0 == 0.0 && b1 == 0.0)), || {
                format!("rate {rate}: BER {b0} at depth {d0} -> {b1} at depth {d1}")
            })?;
        }
    }
    Ok(())
}

/// Along every frontier, goodput and post-FEC BER both strictly decrease.
fn campaign_frontiers(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    for frontier in array(fresh, "frontiers")? {
        let dram = string(frontier, "dram")?;
        let points = array(frontier, "points")?;
        for pair in points.windows(2) {
            ensure(
                number(&pair[1], "goodput_gbps")? < number(&pair[0], "goodput_gbps")?
                    && number(&pair[1], "post_fec_ber")? < number(&pair[0], "post_fec_ber")?,
                || format!("{dram}: frontier is not strictly decreasing"),
            )?;
        }
    }
    Ok(())
}

fn campaign_records(fresh: &JsonValue, _: &JsonValue) -> Result<(), String> {
    for record in array(fresh, "records")? {
        let id = string(record, "scenario_id")?;
        let link = field(record, "link")?;
        ensure(number(link, "post_fec_ber")? >= 0.0, || {
            format!("{id}: negative post-FEC BER")
        })?;
        let rate = number(link, "code_rate")?;
        ensure(rate > 0.0 && rate < 1.0, || {
            format!("{id}: code rate {rate} outside (0, 1)")
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flags each workload's own binary accepted before the workloads
    /// shared one binary, straight from their usage texts — except that
    /// `mapping_search` has since lost its algorithm knobs (`--strategy`,
    /// `--surrogate`, `--promote`, `--sa-temp`, `--transfer`).
    const PARENT_FLAGS: [(&str, &[&str]); 11] = [
        (
            "table1",
            &[
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
            ],
        ),
        (
            "ablation",
            &[
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
            ],
        ),
        ("fig1", &["--workers", "--json", "--csv"]),
        (
            "size_sweep",
            &["--no-refresh", "--workers", "--json", "--csv"],
        ),
        (
            "engine_speed",
            &[
                "--full",
                "--bursts",
                "--channels",
                "--ranks",
                "--workers",
                "--json",
            ],
        ),
        (
            "channel_sweep",
            &["--full", "--bursts", "--ranks", "--workers", "--json"],
        ),
        (
            "mapping_search",
            &[
                "--full",
                "--bursts",
                "--no-refresh",
                "--workers",
                "--json",
                "--csv",
                "--seed",
                "--restarts",
                "--budget",
                "--neighbors",
            ],
        ),
        (
            "mapgen_speed",
            &["--full", "--bursts", "--channels", "--ranks", "--json"],
        ),
        (
            "tenant_sweep",
            &["--bursts", "--engine", "--workers", "--json"],
        ),
        ("parallel_sweep", &["--full", "--bursts", "--json"]),
        (
            "campaign_sweep",
            &["--full", "--bursts", "--workers", "--json"],
        ),
    ];

    /// A valid invocation of `flag` (with a value when it takes one).
    fn valid_args(flag: &str) -> Vec<String> {
        let value = match flag {
            "--full" | "--no-refresh" => None,
            "--engine" => Some("cycle"),
            "--json" => Some("out.json"),
            "--csv" => Some("out.csv"),
            _ => Some("2"),
        };
        std::iter::once(flag)
            .chain(value)
            .map(String::from)
            .collect()
    }

    #[test]
    fn each_workload_accepts_exactly_its_parent_binary_flags() {
        let every_flag: Vec<&str> = Flag::ALL.into_iter().filter_map(Flag::name).collect();
        for (name, accepted) in PARENT_FLAGS {
            let workload = Workload::parse(name).expect("workload exists");
            for flag in &every_flag {
                let outcome = workload.parse_options(valid_args(flag));
                if accepted.contains(flag) {
                    assert!(outcome.is_ok(), "{name} rejects {flag}: {outcome:?}");
                } else {
                    let err = outcome.expect_err(&format!("{name} accepts {flag}"));
                    assert!(err.contains(flag), "{name} {flag}: {err}");
                }
            }
        }
        assert_eq!(PARENT_FLAGS.len(), Workload::ALL.len());
    }

    #[test]
    fn every_workload_has_a_help_text_listing_its_flags() {
        for workload in Workload::ALL {
            let options = workload
                .parse_options(["--help".to_string()])
                .expect("--help parses");
            assert!(options.help);
            let usage = workload.usage();
            assert!(
                usage.starts_with(&format!("usage: tbi_bench {}", workload.name())),
                "{usage}"
            );
            for flag in workload.flags().iter().filter_map(|f| f.name()) {
                assert!(
                    usage.contains(flag),
                    "{} usage misses {flag}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("gate"), None);
        assert_eq!(Workload::parse("perf_gate"), None);
    }

    /// No artifact lands without a gate: every committed `BENCH_*.json` at
    /// the repository root names a workload that writes it and has checks.
    #[test]
    fn every_committed_artifact_names_a_gated_workload() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let (workload, _) = committed_artifact(&path).unwrap();
            assert!(!workload.checks().is_empty(), "{name}: no metric checks");
            assert_eq!(workload.artifact(), Some(name.as_str()));
            seen.push(workload);
        }
        let artifacts = Workload::ALL.iter().filter(|w| w.artifact().is_some());
        assert_eq!(
            seen.len(),
            artifacts.count(),
            "an artifact workload has no committed file"
        );
    }

    #[test]
    fn assertions_report_the_first_violation() {
        let fresh = parse(
            r#"{"bench": "parallel_sweep", "host_parallelism": 8,
            "speedup_4ch_4t": 1.2}"#,
        )
        .unwrap();
        let err = parallel_speedup(&fresh, &fresh).unwrap_err();
        assert!(err.contains("below 1.5"), "{err}");
        let two_cores = parse(r#"{"host_parallelism": 2, "speedup_4ch_4t": 0.9}"#).unwrap();
        assert!(parallel_speedup(&two_cores, &two_cores).is_ok());
        let other = parse(r#"{"bench": "tenant_sweep"}"#).unwrap();
        assert!(same_bench(&fresh, &other).is_err());
        assert!(same_bench(&fresh, &fresh).is_ok());
    }
}
