//! The workload runs behind [`Workload::run`](crate::Workload::run): each
//! one runs its sweep, renders its table and serializes the JSON document
//! it writes.  None of them touch the file system or exit the process.

use std::time::Instant;

use tbi_dram::standards::ALL_CONFIGS;
use tbi_dram::{
    AddressBatch, BitPermutation, ChannelTopology, DramConfig, DramConfigBuilder, DramStandard,
    PermutationMapping, PhysicalAddress, TimingEngine,
};
use tbi_exp::campaign::{DEFAULT_CAMPAIGN_SEED, DEFAULT_CODE_RATES, DEFAULT_DEPTHS};
use tbi_exp::json::JsonValue;
use tbi_exp::search::{MappingSearch, SearchRecord, SearchSettings, MATCH_TOLERANCE};
use tbi_exp::serialize::{
    json_number, json_string, records_to_csv, records_to_json, search_records_to_csv,
    search_records_to_json,
};
use tbi_exp::{Experiment, Record, Scenario, SweepGrid, TenantStage};
use tbi_interleaver::mapping::{render_grid, ChannelMapping, DramMapping, PermutedMapping};
use tbi_interleaver::{InterleaverSpec, MappingKind};
use tbi_sched::SchedPolicyKind;

use crate::workload::Document;
use crate::{
    build_campaign, format_table1_row, run_table1, HarnessOptions, CAMPAIGN_PEAK_ELEVATION_DEG,
    CAMPAIGN_PRESETS, CAMPAIGN_WEATHER,
};

/// The two presets of the channel and tenant sweeps.
const SWEEP_PRESETS: [(DramStandard, u32); 2] =
    [(DramStandard::Ddr4, 3200), (DramStandard::Lpddr4, 4266)];

/// Minimum per-stream interleaver size of the tenant cells, so every stream
/// runs a non-trivial triangular block even when `--bursts` is small.
const MIN_STREAM_BURSTS: u64 = 64;

fn text(error: impl std::fmt::Display) -> String {
    error.to_string()
}

fn preset(standard: DramStandard, rate: u32) -> Result<DramConfig, String> {
    DramConfig::preset(standard, rate).map_err(text)
}

/// A document whose JSON (and CSV, when requested) is the record list.
fn records_document(table: Vec<String>, records: &[Record], options: &HarnessOptions) -> Document {
    Document {
        table,
        json: records_to_json(records),
        csv: options.csv.as_ref().map(|_| records_to_csv(records)),
        diverged: false,
    }
}

/// A document with a hand-formatted JSON artifact.
fn artifact_document(table: Vec<String>, json: String, diverged: bool) -> Document {
    Document {
        table,
        json,
        csv: None,
        diverged,
    }
}

/// Table I: row-major vs. optimized utilization on all ten presets.
pub(crate) fn table1(options: &HarnessOptions) -> Result<Document, String> {
    let records = run_table1(options).map_err(text)?;
    let mut table = vec![
        "Table I: DRAM bandwidth utilizations".to_string(),
        format!(
            "(triangular block interleaver, {} bursts{})",
            options.bursts,
            if options.no_refresh {
                ", refresh disabled"
            } else {
                ""
            }
        ),
        String::new(),
        format!(
            "{:<14} {:>10} {:>10} {:>12} {:>10}",
            "DRAM", "RowMaj Wr", "RowMaj Rd", "Optim Wr", "Optim Rd"
        ),
        "-".repeat(62),
    ];
    for pair in records.chunks_exact(2) {
        table.push(format_table1_row(&pair[0].dram_label, &pair[0], &pair[1]));
    }
    table.push(String::new());
    table.push("Minimum (throughput-limiting) utilization per configuration:".to_string());
    table.push(format!(
        "{:<14} {:>10} {:>10} {:>8}",
        "DRAM", "Row-Major", "Optimized", "Speedup"
    ));
    table.push("-".repeat(48));
    for pair in records.chunks_exact(2) {
        let [row_major, optimized] = pair else {
            unreachable!("chunks_exact(2) yields pairs");
        };
        table.push(format!(
            "{:<14} {:>8.2} % {:>8.2} % {:>7.2}x",
            row_major.dram_label,
            row_major.min_utilization * 100.0,
            optimized.min_utilization * 100.0,
            optimized.speedup_over(row_major)
        ));
    }
    Ok(records_document(table, &records, options))
}

/// Ablation: every mapping scheme on every preset.
pub(crate) fn ablation(options: &HarnessOptions) -> Result<Document, String> {
    let grid = SweepGrid::new()
        .all_presets()
        .map_err(text)?
        .channel_count(options.channels)
        .rank_count(options.ranks)
        .size(options.bursts)
        .mappings(MappingKind::ALL)
        .refresh(options.refresh_setting())
        .controller(options.controller());
    let records = options.run_grid(grid).map_err(text)?;

    let mut table = vec![
        "Ablation: minimum-phase bandwidth utilization per mapping scheme".to_string(),
        format!("(interleaver of {} bursts)", options.bursts),
        String::new(),
    ];
    let mut header = format!("{:<14}", "DRAM");
    for kind in MappingKind::ALL {
        header.push_str(&format!(" {:>21}", kind.name()));
    }
    table.push(header);
    table.push("-".repeat(14 + 22 * MappingKind::ALL.len()));
    for row in records.chunks(MappingKind::ALL.len()) {
        let mut line = format!("{:<14}", row[0].dram_label);
        for record in row {
            line.push_str(&format!(" {:>19.2} %", record.min_utilization * 100.0));
        }
        table.push(line);
    }
    Ok(records_document(table, &records, options))
}

/// The miniature configuration behind the paper's Figure 1: two banks (in
/// two bank groups) and four-burst pages on an otherwise DDR4-like device.
fn figure_config() -> Result<DramConfig, String> {
    DramConfigBuilder::from_preset(DramStandard::Ddr4, 1600)
        .map_err(text)?
        .bank_groups(2)
        .banks_per_group(1)
        .rows(1 << 10)
        .columns_per_row(4)
        .bus_width_bits(64)
        .build()
        .map_err(text)
}

/// The schemes of Fig. 1a–1d, with their panel letter and caption.
const PANELS: [(&str, MappingKind, &str); 4] = [
    (
        "a",
        MappingKind::BankRoundRobin,
        "Fig. 1a — bank round-robin (diagonal) pattern:",
    ),
    (
        "b",
        MappingKind::Tiled,
        "Fig. 1b — page tiling (one page per rectangle):",
    ),
    (
        "c",
        MappingKind::OptimizedNoStagger,
        "Fig. 1c — banks, columns and rows combined:",
    ),
    (
        "d",
        MappingKind::Optimized,
        "Fig. 1d — full optimized mapping with bank-dependent column offset:",
    ),
];

/// Figure 1: the mapping schemes as text grids over the top-left corner of
/// the index space, plus their utilization on the miniature device.
pub(crate) fn fig1(options: &HarnessOptions) -> Result<Document, String> {
    let config = figure_config()?;
    // A 64-dimension triangle (2080 bursts) — the largest size that keeps the
    // miniature device comfortably filled.
    let spec = InterleaverSpec::from_burst_count(2_080);
    let (rows, cols) = options.grid;

    let mut table = Vec::new();
    let mut scenarios = Vec::new();
    for (letter, kind, caption) in PANELS
        .iter()
        .filter(|(letter, _, _)| options.panel == "all" || options.panel == *letter)
    {
        let scenario =
            Scenario::custom(config.clone(), *kind, spec).with_id(format!("fig1{letter}"));
        let mapping = scenario.build_mapping().map_err(text)?;
        table.push((*caption).to_string());
        table.push(render_grid(mapping.as_ref(), rows, cols));
        scenarios.push(scenario);
    }
    let records = options.run(Experiment::new(scenarios)).map_err(text)?;

    table.push(format!(
        "Minimum-phase utilization on the miniature device ({} bursts):",
        spec.burst_count()
    ));
    for record in &records {
        table.push(format!(
            "  {:<22} {:>6.2} %",
            record.mapping,
            record.min_utilization * 100.0
        ));
    }
    Ok(records_document(table, &records, options))
}

/// Interleaver sizes of the size sweep.
const SIZES: [u64; 4] = [100_000, 400_000, 1_600_000, 6_400_000];

/// The paper's in-text claim that other interleaver dimensions "differ only
/// slightly": both Table I mappings across a ladder of sizes.
pub(crate) fn size_sweep(options: &HarnessOptions) -> Result<Document, String> {
    // The sweep focuses on the most bandwidth-sensitive configurations.
    let configs = [
        (DramStandard::Ddr4, 3200),
        (DramStandard::Lpddr4, 4266),
        (DramStandard::Lpddr5, 8533),
    ];
    let mut grid = SweepGrid::new()
        .sizes(SIZES)
        .mappings(MappingKind::TABLE1)
        .refresh(options.refresh_setting());
    for (standard, rate) in configs {
        grid = grid.preset(standard, rate).map_err(text)?;
    }
    let records = options.run_grid(grid).map_err(text)?;

    let mut table = vec![
        "Interleaver-size sweep: minimum-phase utilization".to_string(),
        String::new(),
        format!(
            "{:<14} {:>12} {:>12} {:>12}",
            "DRAM", "bursts", "row-major", "optimized"
        ),
        "-".repeat(54),
    ];
    // Grid nesting is DRAM → size → mapping, so the pair for one
    // (configuration, size) cell is adjacent.
    for pair in records.chunks_exact(2) {
        let [row_major, optimized] = pair else {
            unreachable!("chunks_exact(2) yields pairs");
        };
        table.push(format!(
            "{:<14} {:>12} {:>10.2} % {:>10.2} %",
            row_major.dram_label,
            row_major.bursts,
            row_major.min_utilization * 100.0,
            optimized.min_utilization * 100.0
        ));
    }
    Ok(records_document(table, &records, options))
}

/// Times both timing engines on the Table I sweep and checks that their
/// records are bit-identical.
pub(crate) fn engine_speed(options: &HarnessOptions) -> Result<Document, String> {
    let timed = |engine: TimingEngine| -> Result<(Vec<Record>, f64), String> {
        eprintln!("running {engine:?} engine ...");
        let started = Instant::now();
        let records = run_table1(&HarnessOptions {
            engine,
            ..options.clone()
        })
        .map_err(text)?;
        Ok((records, started.elapsed().as_secs_f64()))
    };
    eprintln!(
        "engine_speed: full Table I sweep at {} bursts per scenario",
        options.bursts
    );
    let (cycle_records, cycle_wall_s) = timed(TimingEngine::Cycle)?;
    let (event_records, event_wall_s) = timed(TimingEngine::Event)?;

    // `Record`'s PartialEq deliberately ignores the wall-clock fields, so
    // this compares exactly the deterministic simulation outputs.
    let identical = cycle_records == event_records;
    for (c, e) in cycle_records
        .iter()
        .zip(&event_records)
        .filter(|(c, e)| c != e)
    {
        eprintln!(
            "RECORD DIVERGENCE in {}:\n  cycle: {c:?}\n  event: {e:?}",
            c.scenario_id
        );
    }

    let simulated_cycles: u64 = event_records.iter().map(|r| r.simulated_cycles).sum();
    let speedup = if event_wall_s > 0.0 {
        cycle_wall_s / event_wall_s
    } else {
        f64::INFINITY
    };
    let table = vec![
        format!(
            "Table I sweep ({} scenarios, {} bursts each):",
            event_records.len(),
            options.bursts
        ),
        format!("  simulated cycles (total) : {simulated_cycles}"),
        format!("  cycle engine wall time   : {cycle_wall_s:.3} s"),
        format!("  event engine wall time   : {event_wall_s:.3} s"),
        format!("  speedup (cycle / event)  : {speedup:.2}x"),
        format!("  records bit-identical    : {identical}"),
    ];
    #[allow(clippy::cast_precision_loss)]
    let cycles = simulated_cycles as f64;
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"scenarios\": {},\n  \"workers\": {},\n  \
         \"simulated_cycles_total\": {},\n  \"cycle_wall_s\": {},\n  \"event_wall_s\": {},\n  \
         \"speedup\": {},\n  \"cycle_sim_cycles_per_second\": {},\n  \
         \"event_sim_cycles_per_second\": {},\n  \"records_identical\": {}\n}}\n",
        json_string("engine_speed"),
        options.bursts,
        event_records.len(),
        options.workers,
        simulated_cycles,
        json_number(cycle_wall_s),
        json_number(event_wall_s),
        json_number(speedup),
        json_number(cycles / cycle_wall_s.max(f64::MIN_POSITIVE)),
        json_number(cycles / event_wall_s.max(f64::MIN_POSITIVE)),
        identical,
    );
    Ok(artifact_document(table, json, !identical))
}

/// The channel axis of the channel sweep.
const CHANNEL_AXIS: [u32; 3] = [1, 2, 4];

/// The channel axis (1 → 2 → 4) for the Table I pair on two presets, with
/// the optimized mapping's aggregate-bandwidth scaling.
pub(crate) fn channel_sweep(options: &HarnessOptions) -> Result<Document, String> {
    let mut grid = SweepGrid::new()
        .channels(CHANNEL_AXIS)
        .rank_count(options.ranks)
        .size(options.bursts)
        .mappings(MappingKind::TABLE1)
        .controller(options.controller());
    for (standard, rate) in SWEEP_PRESETS {
        grid = grid.preset(standard, rate).map_err(text)?;
    }
    eprintln!(
        "channel_sweep: {} scenarios at {} bursts each (channels {CHANNEL_AXIS:?}, {} rank(s))",
        grid.len(),
        options.bursts,
        options.ranks,
    );
    let records = options.run_grid(grid).map_err(text)?;

    let mut table = vec![format!(
        "{:<14} {:>4} {:>12} {:>14} {:>12} {:>8}",
        "config", "ch", "mapping", "aggregate", "min util", "spread"
    )];
    for record in &records {
        table.push(format!(
            "{:<14} {:>4} {:>12} {:>9.2} Gb/s {:>11.2} % {:>8.4}",
            record.dram_label,
            record.channels,
            record.mapping,
            record.aggregate_gbps,
            record.min_utilization * 100.0,
            record.channel_utilization_spread,
        ));
    }
    let optimized_at = |dram: &str, channels: u32| -> f64 {
        records
            .iter()
            .find(|r| r.dram_label == dram && r.mapping == "optimized" && r.channels == channels)
            .expect("sweep covers every (dram, mapping, channels) cell")
            .aggregate_gbps
    };
    let mut scaling_json = Vec::new();
    let mut min_scaling_1_to_2 = f64::INFINITY;
    for (standard, rate) in SWEEP_PRESETS {
        let dram = format!("{}-{rate}", standard.name());
        for &to in &CHANNEL_AXIS[1..] {
            let factor = optimized_at(&dram, to) / optimized_at(&dram, 1);
            if to == 2 {
                min_scaling_1_to_2 = min_scaling_1_to_2.min(factor);
            }
            table.push(format!(
                "{dram}: optimized aggregate bandwidth x{factor:.3} at {to} channels"
            ));
            scaling_json.push(format!(
                "{{\"dram\":{},\"mapping\":\"optimized\",\"from_channels\":1,\
                 \"to_channels\":{to},\"bandwidth_scaling\":{}}}",
                json_string(&dram),
                json_number(factor),
            ));
        }
    }
    table.push(format!(
        "minimum 1->2 channel scaling (optimized): {min_scaling_1_to_2:.3}x"
    ));

    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"ranks\": {},\n  \"scenarios\": {},\n  \
         \"channel_axis\": [1,2,4],\n  \"min_scaling_1_to_2_optimized\": {},\n  \
         \"scaling\": [\n    {}\n  ],\n  \"records\": {}}}\n",
        json_string("channel_sweep"),
        options.bursts,
        options.ranks,
        records.len(),
        json_number(min_scaling_1_to_2),
        scaling_json.join(",\n    "),
        records_to_json(&records),
    );
    Ok(artifact_document(table, json, false))
}

/// Replay budget cap of a gated mapping search: the committed artifact may
/// spend hundreds of full-size evaluations per preset, but the gate re-runs
/// on a reduced index space where a slice of that budget already
/// rediscovers competitive mappings.
const GATE_SEARCH_BUDGET: u32 = 96;

/// Reads an integer setting from a committed artifact.
///
/// # Errors
///
/// Fails naming `key` if it is missing, not a number, or not an integer
/// that survived the artifact's f64 round-trip exactly.
fn committed_u64(committed: &JsonValue, key: &str) -> Result<u64, String> {
    let n = committed
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("committed artifact has no numeric `{key}`"))?;
    // The JSON layer carries numbers as f64, which is only exact for
    // integers up to 2^53 — reject anything that cannot have survived the
    // round-trip unchanged (a silently rounded seed would re-run the
    // workload with different channel realisations).
    if n.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&n) {
        return Err(format!(
            "committed `{key}` ({n}) is not an exactly-representable integer"
        ));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(n as u64)
}

/// Reads a `u32` setting from a committed artifact (see
/// [`committed_u64`]), failing naming `key` if it does not fit.
fn committed_u32(committed: &JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(committed_u64(committed, key)?)
        .map_err(|_| format!("committed `{key}` out of range"))
}

/// The search the committed `BENCH_dse.json` ran: its settings (with the
/// budget capped at [`GATE_SEARCH_BUDGET`]) and its refresh condition.
pub(crate) fn replay_search(committed: &JsonValue) -> Result<(SearchSettings, bool), String> {
    let settings = SearchSettings {
        seed: committed_u64(committed, "seed")?,
        restarts: committed_u32(committed, "restarts")?,
        budget: committed_u32(committed, "budget")?.min(GATE_SEARCH_BUDGET),
        neighbors: committed_u32(committed, "neighbors")?,
        workers: 0,
    };
    let no_refresh = match committed.get("refresh_disabled") {
        None => false,
        Some(value) => value
            .as_bool()
            .ok_or("committed `refresh_disabled` is not a boolean")?,
    };
    Ok((settings, no_refresh))
}

/// Mapping design-space exploration on every Table I preset, against the
/// paper's hand-optimized scheme.  With a `committed` artifact the search
/// replays its settings instead of the command line's.
pub(crate) fn mapping_search(
    options: &HarnessOptions,
    committed: Option<&JsonValue>,
) -> Result<Document, String> {
    let (settings, no_refresh) = match committed {
        Some(committed) => replay_search(committed)?,
        None => (options.search, options.no_refresh),
    };
    let settings = SearchSettings {
        workers: options.workers,
        ..settings
    };
    let controller = HarnessOptions {
        no_refresh,
        ..options.clone()
    }
    .controller();
    let spec = InterleaverSpec::from_burst_count(options.bursts);
    eprintln!(
        "mapping_search: {} presets x {} evaluations at {} bursts \
         (seed {}, {} restarts, {} neighbors/step)",
        ALL_CONFIGS.len(),
        settings.budget,
        options.bursts,
        settings.seed,
        settings.restarts,
        settings.neighbors,
    );

    let mut table = vec![format!(
        "{:<14} {:>6} {:>6} {:>10} {:>10} {:>7} {:>10} {:>10}  fold",
        "config", "evals", "moves", "dse hit", "paper hit", "gain", "dse util", "paper util",
    )];
    let mut records: Vec<SearchRecord> = Vec::with_capacity(ALL_CONFIGS.len());
    for (standard, rate) in ALL_CONFIGS {
        let record = MappingSearch::new(preset(*standard, *rate)?, spec, settings)
            .with_controller(controller)
            .run()
            .map_err(text)?;
        eprintln!(
            "  {}: row-hit gain {:.6}x",
            record.dram_label,
            record.row_hit_gain()
        );
        table.push(format!(
            "{:<14} {:>6} {:>6} {:>9.2} % {:>9.2} % {:>6.3}x {:>9.2} % {:>9.2} %  {}",
            record.dram_label,
            record.evaluations,
            record.accepted_moves,
            record.discovered_row_hit_rate() * 100.0,
            record.optimized_row_hit_rate() * 100.0,
            record.row_hit_gain(),
            record.best.min_utilization * 100.0,
            record.optimized.min_utilization * 100.0,
            if record.fold.is_empty() {
                "-"
            } else {
                &record.fold
            },
        ));
        records.push(record);
    }

    let all_match = records.iter().all(SearchRecord::matches_or_beats_optimized);
    let all_beat = records.iter().all(SearchRecord::beats_optimized);
    let min_gain = records
        .iter()
        .map(SearchRecord::row_hit_gain)
        .fold(f64::INFINITY, f64::min);
    table.push(format!(
        "discovered mappings strictly beat the paper's optimized row-hit rate on {}/{} presets, \
         match-or-beat on {}/{} (min gain {min_gain:.6}x; matches = within \
         {MATCH_TOLERANCE:e} relative)",
        records.iter().filter(|r| r.beats_optimized()).count(),
        records.len(),
        records
            .iter()
            .filter(|r| r.matches_or_beats_optimized())
            .count(),
        records.len(),
    ));

    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"seed\": {},\n  \"restarts\": {},\n  \
         \"budget\": {},\n  \"neighbors\": {},\n  \"presets\": {},\n  \
         \"refresh_disabled\": {},\n  \"match_tolerance\": {},\n  \
         \"all_match_or_beat_optimized\": {},\n  \"all_beat_optimized\": {},\n  \
         \"min_row_hit_gain\": {},\n  \
         \"search\": {}}}\n",
        json_string("mapping_search"),
        options.bursts,
        settings.seed,
        settings.restarts,
        settings.budget,
        settings.neighbors,
        records.len(),
        no_refresh,
        json_number(MATCH_TOLERANCE),
        all_match,
        all_beat,
        json_number(min_gain),
        search_records_to_json(&records),
    );
    Ok(Document {
        table,
        json,
        csv: options
            .csv
            .as_ref()
            .map(|_| search_records_to_csv(&records)),
        diverged: false,
    })
}

/// Every address-generation measurement maps at least this many positions
/// (small index spaces are repeated), keeping rates stable independent of
/// `--bursts`.
const TARGET_POSITIONS: u64 = 2_000_000;

/// Largest index-space dimension whose triangle fits in `bursts` positions
/// (at least 2).
fn dimension_for(bursts: u64) -> u32 {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    let mut n = (((8.0 * bursts as f64 + 1.0).sqrt() - 1.0) / 2.0) as u64;
    while (n + 1) * (n + 2) / 2 <= bursts {
        n += 1;
    }
    while n > 2 && n * (n + 1) / 2 > bursts {
        n -= 1;
    }
    u32::try_from(n.max(2)).expect("dimension fits u32")
}

/// The triangle's positions in write-phase (row-wise) order.
fn triangle_coords(n: u32) -> Vec<(u32, u32)> {
    let positions = (n as usize) * (n as usize + 1) / 2;
    let mut coords = Vec::with_capacity(positions);
    for i in 0..n {
        for j in 0..(n - i) {
            coords.push((i, j));
        }
    }
    coords
}

/// FNV-1a over every lane value in element order — a deterministic
/// fingerprint of the produced addresses, identical for both paths when and
/// only when the batches agree bit for bit.
fn batch_checksum(batch: &AddressBatch) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for index in 0..batch.len() {
        let (channel, address) = batch.get(index);
        for value in [
            channel,
            address.rank,
            address.bank_group,
            address.bank,
            address.row,
            address.column,
        ] {
            hash = (hash ^ u64::from(value)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// One benched (preset, scheme) combination of the mapgen workload.
struct KernelRow {
    config: String,
    scheme: String,
    positions: u64,
    reps: u64,
    scalar_addresses_per_s: f64,
    batch_addresses_per_s: f64,
    speedup: f64,
    identical: bool,
    checksum: u64,
    /// `Some` for permutation rows: whether the scalar decode takes the
    /// contiguous shift/mask fast path.
    shift_mask: Option<bool>,
    /// `Some` for permutation rows: contiguous runs in the batch scatter
    /// plan (6 = one per field = fully contiguous).
    scatter_segments: Option<u32>,
}

impl KernelRow {
    fn to_json(&self) -> String {
        let plan = match (self.shift_mask, self.scatter_segments) {
            (Some(shift_mask), Some(segments)) => {
                format!(",\"shift_mask\":{shift_mask},\"scatter_segments\":{segments}")
            }
            _ => String::new(),
        };
        format!(
            "{{\"config\":{},\"scheme\":{},\"positions\":{},\"reps\":{},\
             \"scalar_addresses_per_s\":{},\"batch_addresses_per_s\":{},\
             \"speedup\":{},\"identical\":{},\"checksum\":\"{:016x}\"{}}}",
            json_string(&self.config),
            json_string(&self.scheme),
            self.positions,
            self.reps,
            json_number(self.scalar_addresses_per_s),
            json_number(self.batch_addresses_per_s),
            json_number(self.speedup),
            self.identical,
            self.checksum,
            plan,
        )
    }
}

/// Times `scalar` and `batch` (each filling an [`AddressBatch`] from
/// `coords`) over enough repetitions to map [`TARGET_POSITIONS`] positions,
/// and verifies the two outputs are bit-identical.
fn measure<S, B>(
    config: &str,
    scheme: &str,
    coords: &[(u32, u32)],
    scalar: S,
    batch: B,
) -> KernelRow
where
    S: Fn(&[(u32, u32)], &mut AddressBatch),
    B: Fn(&[(u32, u32)], &mut AddressBatch),
{
    let positions = coords.len() as u64;
    let reps = TARGET_POSITIONS.div_ceil(positions);
    let mut scalar_out = AddressBatch::with_capacity(coords.len());
    let mut batch_out = AddressBatch::with_capacity(coords.len());

    // Untimed warm-up doubles as the bit-identity check.
    scalar(coords, &mut scalar_out);
    batch(coords, &mut batch_out);
    let identical = scalar_out == batch_out;
    let checksum = batch_checksum(&batch_out);

    let started = Instant::now();
    for _ in 0..reps {
        scalar_out.clear();
        scalar(coords, &mut scalar_out);
    }
    std::hint::black_box(&scalar_out);
    let scalar_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for _ in 0..reps {
        batch_out.clear();
        batch(coords, &mut batch_out);
    }
    std::hint::black_box(&batch_out);
    let batch_s = started.elapsed().as_secs_f64();

    #[allow(clippy::cast_precision_loss)]
    let mapped = (reps * positions) as f64;
    let scalar_rate = mapped / scalar_s.max(f64::MIN_POSITIVE);
    let batch_rate = mapped / batch_s.max(f64::MIN_POSITIVE);
    KernelRow {
        config: config.to_string(),
        scheme: scheme.to_string(),
        positions,
        reps,
        scalar_addresses_per_s: scalar_rate,
        batch_addresses_per_s: batch_rate,
        speedup: batch_rate / scalar_rate.max(f64::MIN_POSITIVE),
        identical,
        checksum,
        shift_mask: None,
        scatter_segments: None,
    }
}

/// The scalar reference fill of a single-channel mapping: the per-element
/// `map` loop every mapping had before the batched kernels existed.
fn scalar_map_fill(mapping: &dyn DramMapping, coords: &[(u32, u32)], out: &mut AddressBatch) {
    out.reserve(coords.len());
    for &(i, j) in coords {
        out.push(0, mapping.map(i, j));
    }
}

/// The scalar reference fill of a channel-routing mapping.
fn scalar_route_fill(
    route: impl Fn(u32, u32) -> (u32, PhysicalAddress),
    coords: &[(u32, u32)],
    out: &mut AddressBatch,
) {
    out.reserve(coords.len());
    for &(i, j) in coords {
        let (channel, address) = route(i, j);
        out.push(channel, address);
    }
}

/// A deliberately non-contiguous permutation: the decode-scheme layout with
/// its bottom bits swapped against high bits, so every scalar decode takes
/// the per-bit gather path while the batch kernel still runs a handful of
/// scatter segments.
fn gather_permutation(scheme: BitPermutation) -> BitPermutation {
    let top = scheme.fields().len() - 1;
    scheme.with_swap(0, top).with_swap(1, top / 2)
}

/// Batched vs. scalar address generation on every Table I preset plus
/// channel-routed rows, with a bit-identity check on every row.
pub(crate) fn mapgen_speed(options: &HarnessOptions) -> Result<Document, String> {
    let n = dimension_for(options.bursts);
    let coords = triangle_coords(n);
    // Channel-routed rows need a real multi-channel subsystem; default to
    // 2 × 2 when the options leave the paper's single-channel topology.
    let topology = if options.channels * options.ranks == 1 {
        ChannelTopology::new(2, 2)
    } else {
        ChannelTopology::new(options.channels, options.ranks)
    };
    eprintln!(
        "mapgen_speed: {} positions (n = {n}) per scheme, {} presets",
        coords.len(),
        ALL_CONFIGS.len()
    );

    let mut rows: Vec<KernelRow> = Vec::new();
    for (standard, rate) in ALL_CONFIGS {
        let config = preset(*standard, *rate)?;
        let label = config.label();
        eprintln!("  {label} ...");
        for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
            let mapping = kind.build(&config, n).map_err(text)?;
            rows.push(measure(
                &label,
                kind.name(),
                &coords,
                |coords, out| scalar_map_fill(mapping.as_ref(), coords, out),
                |coords, out| mapping.map_batch(coords, out),
            ));
        }
        let scheme_permutation = BitPermutation::for_scheme(
            config.decode_scheme,
            &config.geometry,
            ChannelTopology::default(),
        )
        .map_err(text)?;
        for (scheme, permutation) in [
            ("permutation-scheme", scheme_permutation),
            ("permutation-gather", gather_permutation(scheme_permutation)),
        ] {
            let decoder =
                PermutationMapping::new(config.geometry, ChannelTopology::default(), permutation)
                    .map_err(text)?;
            let mapping =
                PermutedMapping::new(config.geometry, ChannelTopology::default(), permutation, n)
                    .map_err(text)?;
            let mut row = measure(
                &label,
                scheme,
                &coords,
                |coords, out| scalar_route_fill(|i, j| mapping.route(i, j), coords, out),
                |coords, out| mapping.route_batch(coords, out),
            );
            row.shift_mask = Some(decoder.is_shift_mask());
            row.scatter_segments = Some(decoder.scatter_segments());
            rows.push(row);
        }
    }

    // Channel-routed rows: one representative preset scaled out to the
    // selected topology.
    let chan_config = preset(DramStandard::Ddr4, 3200)?.with_topology(topology);
    let chan_label = format!(
        "{}@{}x{}",
        chan_config.label(),
        topology.channels,
        topology.ranks
    );
    eprintln!("  {chan_label} (channel-routed) ...");
    let chan_permutation =
        BitPermutation::for_scheme(chan_config.decode_scheme, &chan_config.geometry, topology)
            .map_err(text)?;
    for kind in [
        MappingKind::RowMajor,
        MappingKind::Optimized,
        MappingKind::Permutation(chan_permutation),
    ] {
        let scheme = format!("channel-routed:{}", kind.name());
        let mapping = ChannelMapping::new(kind, &chan_config, n).map_err(text)?;
        rows.push(measure(
            &chan_label,
            &scheme,
            &coords,
            |coords, out| scalar_route_fill(|i, j| mapping.route(i, j), coords, out),
            |coords, out| mapping.route_batch(coords, out),
        ));
    }

    let all_identical = rows.iter().all(|row| row.identical);
    for row in rows.iter().filter(|row| !row.identical) {
        eprintln!(
            "BATCH DIVERGENCE: {} / {} — batched addresses differ from scalar",
            row.config, row.scheme
        );
    }
    let min_gather_speedup = rows
        .iter()
        .filter(|row| row.scheme == "permutation-gather")
        .map(|row| row.speedup)
        .fold(f64::INFINITY, f64::min);

    let mut table = vec![format!(
        "mapping kernels ({} rows, {} positions each):",
        rows.len(),
        coords.len()
    )];
    for row in &rows {
        table.push(format!(
            "  {:<14} {:<28} scalar {:>7.1} M/s  batch {:>7.1} M/s  {:>5.2}x{}",
            row.config,
            row.scheme,
            row.scalar_addresses_per_s / 1e6,
            row.batch_addresses_per_s / 1e6,
            row.speedup,
            if row.identical { "" } else { "  DIVERGED" },
        ));
    }
    table.push(format!(
        "  min permutation-gather speedup : {min_gather_speedup:.2}x"
    ));
    table.push(format!(
        "  batches bit-identical          : {all_identical}"
    ));

    let rows_json: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"positions\": {},\n  \"dimension\": {},\n  \
         \"channel_topology\": {},\n  \"min_permutation_gather_speedup\": {},\n  \
         \"all_identical\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_string("mapgen_speed"),
        options.bursts,
        coords.len(),
        n,
        json_string(&format!("{}x{}", topology.channels, topology.ranks)),
        json_number(min_gather_speedup),
        all_identical,
        rows_json.join(",\n"),
    );
    Ok(artifact_document(table, json, !all_identical))
}

/// Stream counts of the tenant sweep.
const STREAM_AXIS: [u32; 2] = [8, 64];

/// Worst p99 over the premium-class tenants of a record.
fn premium_p99(record: &Record) -> u64 {
    record
        .tenants
        .as_ref()
        .expect("tenant records carry a summary")
        .per_tenant
        .iter()
        .filter(|t| t.qos == "premium")
        .map(|t| t.p99_latency_cycles)
        .max()
        .unwrap_or(0)
}

/// The multi-tenant scheduler axes — streams × policy × channels — on two
/// presets, with the premium-tenant p99 spread across policies on each
/// preset's most-contended cell.
pub(crate) fn tenant_sweep(options: &HarnessOptions) -> Result<Document, String> {
    const TENANT_CHANNELS: [u32; 2] = [1, 2];
    let mut scenarios = Vec::new();
    for (standard, rate) in SWEEP_PRESETS {
        let preset = preset(standard, rate)?;
        for &channels in &TENANT_CHANNELS {
            let dram = preset
                .clone()
                .with_topology(ChannelTopology::new(channels, 1));
            for &streams in &STREAM_AXIS {
                let per_stream = (options.bursts / u64::from(streams)).max(MIN_STREAM_BURSTS);
                let spec = InterleaverSpec::from_burst_count(per_stream);
                for policy in SchedPolicyKind::ALL {
                    scenarios.push(
                        Scenario::custom(dram.clone(), MappingKind::Optimized, spec)
                            .with_engine(options.engine)
                            .with_tenants(TenantStage::new(streams, policy)),
                    );
                }
            }
        }
    }
    eprintln!(
        "tenant_sweep: {} scenarios, {} aggregate bursts per cell (streams {STREAM_AXIS:?}, \
         channels {TENANT_CHANNELS:?}, policies {:?})",
        scenarios.len(),
        options.bursts,
        SchedPolicyKind::ALL.map(|p| p.label()),
    );
    let records = options.run(Experiment::new(scenarios)).map_err(text)?;

    let mut table = vec![format!(
        "{:<14} {:>3} {:>8} {:>15} {:>13} {:>13} {:>9} {:>7}",
        "config", "ch", "streams", "policy", "premium p99", "worst p99", "fairness", "misses"
    )];
    for record in &records {
        let tenants = record.tenants.as_ref().expect("tenant summary");
        table.push(format!(
            "{:<14} {:>3} {:>8} {:>15} {:>13} {:>13} {:>9.4} {:>7}",
            record.dram_label,
            record.channels,
            tenants.streams,
            tenants.policy,
            premium_p99(record),
            tenants.worst_p99_cycles,
            tenants.fairness_index,
            tenants.deadline_misses,
        ));
    }

    // Headline: on each preset's most-contended cell (max streams, one
    // channel), the ratio between the worst and the best policy's premium
    // p99 — how much tail latency a premium tenant gains from the right
    // scheduling policy.
    let contended_streams = STREAM_AXIS[STREAM_AXIS.len() - 1];
    let mut cell_json = Vec::new();
    let mut max_ratio: f64 = 0.0;
    for (standard, rate) in SWEEP_PRESETS {
        let dram = format!("{}-{rate}", standard.name());
        let cells: Vec<&Record> = SchedPolicyKind::ALL
            .iter()
            .map(|policy| {
                records
                    .iter()
                    .find(|r| {
                        r.dram_label == dram
                            && r.channels == 1
                            && r.tenants.as_ref().is_some_and(|t| {
                                t.streams == contended_streams && t.policy == policy.label()
                            })
                    })
                    .expect("sweep covers every (dram, streams, channels, policy) cell")
            })
            .collect();
        let p99s: Vec<u64> = cells.iter().map(|r| premium_p99(r)).collect();
        let best = p99s.iter().copied().min().unwrap_or(1).max(1);
        let worst = p99s.iter().copied().max().unwrap_or(0);
        #[allow(clippy::cast_precision_loss)]
        let ratio = worst as f64 / best as f64;
        max_ratio = max_ratio.max(ratio);
        table.push(format!(
            "{dram}: premium p99 spread across policies at {contended_streams} streams / 1 \
             channel: x{ratio:.3}"
        ));
        let per_policy: Vec<String> = cells
            .iter()
            .map(|record| {
                let tenants = record.tenants.as_ref().expect("tenant summary");
                format!(
                    "{{\"policy\":{},\"premium_p99_cycles\":{},\"worst_p99_cycles\":{},\
                     \"fairness_index\":{}}}",
                    json_string(&tenants.policy),
                    premium_p99(record),
                    tenants.worst_p99_cycles,
                    json_number(tenants.fairness_index),
                )
            })
            .collect();
        cell_json.push(format!(
            "{{\"dram\":{},\"streams\":{contended_streams},\"channels\":1,\
             \"premium_p99_ratio\":{},\"per_policy\":[{}]}}",
            json_string(&dram),
            json_number(ratio),
            per_policy.join(","),
        ));
    }
    table.push(format!(
        "maximum premium-p99 policy spread: x{max_ratio:.3}"
    ));

    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"stream_axis\": [8,64],\n  \
         \"channel_axis\": [1,2],\n  \"policies\": [{}],\n  \"scenarios\": {},\n  \
         \"max_premium_p99_ratio\": {},\n  \"contended_cells\": [\n    {}\n  ],\n  \
         \"records\": {}}}\n",
        json_string("tenant_sweep"),
        options.bursts,
        SchedPolicyKind::ALL
            .map(|p| json_string(p.label()))
            .join(","),
        records.len(),
        json_number(max_ratio),
        cell_json.join(",\n    "),
        records_to_json(&records),
    );
    Ok(artifact_document(table, json, false))
}

/// One measured (workload, channels, streams, threads) cell of the
/// parallel sweep.
struct ThreadRow {
    workload: &'static str,
    channels: u32,
    /// Tenant streams of the cell (0 for the plain `table1` rows).
    streams: u32,
    threads: usize,
    wall_s: f64,
    speedup_vs_1_thread: f64,
    identical_to_1_thread: bool,
}

impl ThreadRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"channels\":{},\"streams\":{},\"threads\":{},\
             \"wall_s\":{},\"speedup_vs_1_thread\":{},\"identical_to_1_thread\":{}}}",
            json_string(self.workload),
            self.channels,
            self.streams,
            self.threads,
            json_number(self.wall_s),
            json_number(self.speedup_vs_1_thread),
            self.identical_to_1_thread,
        )
    }
}

/// Thread counts of the parallel sweep.
const THREAD_AXIS: [usize; 3] = [1, 2, 4];

/// Measures one cell across the thread axis on a single experiment worker:
/// the 1-thread run is the sequential reference, every other thread count
/// must reproduce its records bit-for-bit.
fn sweep_threads(
    workload: &'static str,
    channels: u32,
    streams: u32,
    scenarios: &[Scenario],
    rows: &mut Vec<ThreadRow>,
) -> Result<(), String> {
    let mut reference: Option<(Vec<Record>, f64)> = None;
    for &threads in &THREAD_AXIS {
        let threaded: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_threads(threads))
            .collect();
        let started = Instant::now();
        let records = Experiment::new(threaded)
            .with_workers(1)
            .run()
            .map_err(text)?;
        let wall_s = started.elapsed().as_secs_f64();
        let (identical, speedup) = match &reference {
            None => (true, 1.0),
            Some((baseline, baseline_wall_s)) => (
                baseline == &records,
                baseline_wall_s / wall_s.max(f64::MIN_POSITIVE),
            ),
        };
        if !identical {
            eprintln!(
                "RECORD DIVERGENCE: {workload} c{channels} s{streams} at {threads} thread(s)"
            );
        }
        rows.push(ThreadRow {
            workload,
            channels,
            streams,
            threads,
            wall_s,
            speedup_vs_1_thread: speedup,
            identical_to_1_thread: identical,
        });
        if reference.is_none() {
            reference = Some((records, wall_s));
        }
    }
    Ok(())
}

/// The threaded per-channel drive across threads × channels (Table I pair)
/// and 4-channel tenant rows, each threaded run checked bit-for-bit against
/// its 1-thread reference.
pub(crate) fn parallel_sweep(options: &HarnessOptions) -> Result<Document, String> {
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let preset = preset(DramStandard::Ddr4, 3200)?;
    eprintln!(
        "parallel_sweep: {} bursts per scenario, channels {CHANNEL_AXIS:?} x threads \
         {THREAD_AXIS:?} (+ tenant rows at streams {STREAM_AXIS:?}), host parallelism {}",
        options.bursts, host_parallelism,
    );

    let mut rows: Vec<ThreadRow> = Vec::new();
    let spec = InterleaverSpec::from_burst_count(options.bursts);
    for &channels in &CHANNEL_AXIS {
        let dram = preset
            .clone()
            .with_topology(ChannelTopology::new(channels, 1));
        let scenarios: Vec<Scenario> = MappingKind::TABLE1
            .into_iter()
            .map(|kind| Scenario::custom(dram.clone(), kind, spec))
            .collect();
        sweep_threads("table1", channels, 0, &scenarios, &mut rows)?;
    }
    let tenant_dram = preset.with_topology(ChannelTopology::new(4, 1));
    for &streams in &STREAM_AXIS {
        let per_stream = (options.bursts / u64::from(streams)).max(MIN_STREAM_BURSTS);
        let spec = InterleaverSpec::from_burst_count(per_stream);
        let scenarios = [
            Scenario::custom(tenant_dram.clone(), MappingKind::Optimized, spec)
                .with_tenants(TenantStage::new(streams, SchedPolicyKind::WeightedShare)),
        ];
        sweep_threads("tenants", 4, streams, &scenarios, &mut rows)?;
    }

    let all_identical = rows.iter().all(|row| row.identical_to_1_thread);
    let speedup_4ch_4t = rows
        .iter()
        .find(|row| row.workload == "table1" && row.channels == 4 && row.threads == 4)
        .map_or(0.0, |row| row.speedup_vs_1_thread);

    let mut table = vec![format!(
        "{:<10} {:>3} {:>8} {:>8} {:>10} {:>9} {:>10}",
        "workload", "ch", "streams", "threads", "wall s", "speedup", "identical"
    )];
    for row in &rows {
        table.push(format!(
            "{:<10} {:>3} {:>8} {:>8} {:>10.3} {:>8.2}x {:>10}",
            row.workload,
            row.channels,
            row.streams,
            row.threads,
            row.wall_s,
            row.speedup_vs_1_thread,
            row.identical_to_1_thread,
        ));
    }
    table.push(format!(
        "  4-channel / 4-thread speedup : {speedup_4ch_4t:.2}x"
    ));
    table.push(format!("  records bit-identical        : {all_identical}"));

    let rows_json: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"host_parallelism\": {},\n  \
         \"channel_axis\": [1,2,4],\n  \"thread_axis\": [1,2,4],\n  \"stream_axis\": [8,64],\n  \
         \"speedup_4ch_4t\": {},\n  \"all_identical\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_string("parallel_sweep"),
        options.bursts,
        host_parallelism,
        json_number(speedup_4ch_4t),
        all_identical,
        rows_json.join(",\n"),
    );
    Ok(artifact_document(table, json, !all_identical))
}

/// Independent link trials per campaign cell: smooths the error-rate
/// estimates so the depth waterfall is strict at every code rate.
const CAMPAIGN_TRIALS: u32 = 8;

/// The end-to-end downlink campaign: depth × code rate × mapping × preset
/// under a clear-sky LEO pass, reduced to one BER/bandwidth frontier per
/// preset.  With a `committed` artifact the campaign replays its link seed
/// and trial count.
pub(crate) fn campaign_sweep(
    options: &HarnessOptions,
    committed: Option<&JsonValue>,
) -> Result<Document, String> {
    let (seed, trials) = match committed {
        Some(committed) => (
            committed_u64(committed, "seed")?,
            committed_u32(committed, "trials")?,
        ),
        None => (DEFAULT_CAMPAIGN_SEED, CAMPAIGN_TRIALS),
    };
    let campaign = build_campaign(options.bursts, options.workers, seed, trials).map_err(text)?;
    eprintln!(
        "campaign_sweep: {} cells at {} bursts each ({} presets, depths {DEFAULT_DEPTHS:?}, \
         pass peak {CAMPAIGN_PEAK_ELEVATION_DEG} deg in {CAMPAIGN_WEATHER})",
        campaign.scenarios().len(),
        options.bursts,
        CAMPAIGN_PRESETS.len(),
    );
    let report = campaign.run().map_err(text)?;

    let mut table = vec![format!(
        "{:<16} {:>12} {:>6} {:>7} {:>12} {:>14}",
        "config", "mapping", "depth", "rate", "post-FEC BER", "goodput"
    )];
    for frontier in &report.frontiers {
        for point in &frontier.points {
            table.push(format!(
                "{:<16} {:>12} {:>6} {:>7.3} {:>12.3e} {:>9.2} Gb/s",
                frontier.dram_label,
                point.mapping,
                point.interleaver_depth,
                point.code_rate,
                point.post_fec_ber,
                point.goodput_gbps,
            ));
        }
    }
    let monotone = report.ber_strictly_decreases_with_depth(&DEFAULT_CODE_RATES);
    let mut min_shift = f64::INFINITY;
    let mut max_aggregate: f64 = 0.0;
    for frontier in &report.frontiers {
        min_shift = min_shift.min(report.mapping_bandwidth_shift(&frontier.dram_label));
        for record in report
            .records
            .iter()
            .filter(|r| r.dram_label == frontier.dram_label)
        {
            max_aggregate = max_aggregate.max(record.aggregate_gbps);
        }
    }
    let all_frontiers_nonempty = report.frontiers.iter().all(|f| !f.points.is_empty());
    table.push(format!(
        "BER strictly decreases with depth at every rate: {monotone}"
    ));
    table.push(format!(
        "minimum mapping bandwidth shift across presets: {:.3}x",
        1.0 + min_shift
    ));
    for (k, n) in DEFAULT_CODE_RATES {
        let curve: Vec<String> = report
            .ber_by_depth(k, n)
            .iter()
            .map(|(depth, ber)| format!("d{depth}={ber:.3e}"))
            .collect();
        table.push(format!("rate {k}/{n}: {}", curve.join(" -> ")));
    }

    let curve_json: Vec<String> = DEFAULT_CODE_RATES
        .iter()
        .map(|&(k, n)| {
            let points: Vec<String> = report
                .ber_by_depth(k, n)
                .iter()
                .map(|&(depth, ber)| format!("[{depth},{}]", json_number(ber)))
                .collect();
            format!("{{\"k\":{k},\"n\":{n},\"curve\":[{}]}}", points.join(","))
        })
        .collect();
    let mut frontier_json = Vec::new();
    for frontier in &report.frontiers {
        let dominant = report
            .dominant_mapping(&frontier.dram_label)
            .ok_or_else(|| format!("campaign preset {} has no cells", frontier.dram_label))?;
        let points: Vec<String> = frontier
            .points
            .iter()
            .map(|point| {
                format!(
                    "{{\"mapping\":{},\"interleaver_depth\":{},\"code_rate\":{},\
                     \"post_fec_ber\":{},\"frame_error_rate\":{},\"aggregate_gbps\":{},\
                     \"goodput_gbps\":{}}}",
                    json_string(&point.mapping),
                    point.interleaver_depth,
                    json_number(point.code_rate),
                    json_number(point.post_fec_ber),
                    json_number(point.frame_error_rate),
                    json_number(point.aggregate_gbps),
                    json_number(point.goodput_gbps),
                )
            })
            .collect();
        frontier_json.push(format!(
            "{{\"dram\":{},\"dominant_mapping\":{},\"points\":[\n      {}\n    ]}}",
            json_string(&frontier.dram_label),
            json_string(&dominant),
            points.join(",\n      "),
        ));
    }
    let rates_json: Vec<String> = DEFAULT_CODE_RATES
        .iter()
        .map(|(k, n)| format!("[{k},{n}]"))
        .collect();
    let depths_json: Vec<String> = DEFAULT_DEPTHS.iter().map(|d| format!("{d}")).collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"trials\": {},\n  \"seed\": {},\n  \
         \"peak_elevation_deg\": {},\n  \"weather\": {},\n  \"depths\": [{}],\n  \
         \"code_rates\": [{}],\n  \"scenarios\": {},\n  \
         \"ber_strictly_decreases_with_depth\": {},\n  \"all_frontiers_nonempty\": {},\n  \
         \"min_mapping_bandwidth_shift\": {},\n  \"max_aggregate_gbps\": {},\n  \
         \"ber_curves\": [\n    {}\n  ],\n  \"frontiers\": [\n    {}\n  ],\n  \"records\": {}}}\n",
        json_string("campaign_sweep"),
        options.bursts,
        trials,
        seed,
        json_number(CAMPAIGN_PEAK_ELEVATION_DEG),
        json_string(CAMPAIGN_WEATHER.name()),
        depths_json.join(","),
        rates_json.join(","),
        report.records.len(),
        monotone,
        all_frontiers_nonempty,
        json_number(min_shift),
        json_number(max_aggregate),
        curve_json.join(",\n    "),
        frontier_json.join(",\n    "),
        records_to_json(&report.records),
    );
    Ok(artifact_document(table, json, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_exp::json::parse;

    /// The settings header of the committed `BENCH_dse.json`.
    const DSE_FIELDS: [(&str, &str); 5] = [
        ("seed", "0"),
        ("restarts", "8"),
        ("budget", "80"),
        ("neighbors", "8"),
        ("refresh_disabled", "true"),
    ];

    /// The DSE header with one field's value replaced.
    fn dse_with(key: &str, value: &str) -> JsonValue {
        let fields: Vec<String> = DSE_FIELDS
            .iter()
            .map(|&(k, v)| format!("\"{k}\": {}", if k == key { value } else { v }))
            .collect();
        parse(&format!("{{{}}}", fields.join(", "))).unwrap()
    }

    #[test]
    fn replay_search_reads_the_committed_settings() {
        let (settings, no_refresh) = replay_search(&dse_with("", "")).unwrap();
        assert_eq!(settings.seed, 0);
        assert_eq!(settings.restarts, 8);
        assert_eq!(settings.budget, 80);
        assert_eq!(settings.neighbors, 8);
        assert!(no_refresh);
        let (settings, _) = replay_search(&dse_with("budget", "400")).unwrap();
        assert_eq!(settings.budget, GATE_SEARCH_BUDGET);
        let err = replay_search(&dse_with("refresh_disabled", "1")).unwrap_err();
        assert!(err.contains("`refresh_disabled`"), "{err}");
    }

    /// Every committed integer setting goes through the exact-integer check:
    /// a fractional or negative value fails naming its key instead of being
    /// truncated into a different search.
    #[test]
    fn committed_search_settings_must_be_exact_integers() {
        for (key, bad) in [
            ("restarts", "2.7"),
            ("budget", "-5"),
            ("neighbors", "1.5"),
            ("seed", "0.5"),
        ] {
            let err = replay_search(&dse_with(key, bad)).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{key} = {bad}: {err}");
        }
    }

    #[test]
    fn committed_u32_rejects_missing_and_out_of_range_keys() {
        let doc = parse(r#"{"restarts": 3, "trials": 5000000000}"#).unwrap();
        assert_eq!(committed_u32(&doc, "restarts"), Ok(3));
        assert!(committed_u32(&doc, "missing").is_err());
        assert!(committed_u32(&doc, "trials")
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn dimension_fits_the_triangle() {
        for bursts in [1, 3, 20_000, 1 << 20] {
            let n = u64::from(dimension_for(bursts));
            assert!(n == 2 || n * (n + 1) / 2 <= bursts, "{bursts}");
            assert!((n + 1) * (n + 2) / 2 > bursts, "{bursts}");
        }
    }
}
