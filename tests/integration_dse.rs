//! End-to-end tests of the mapping design-space exploration:
//! seed-reproducibility at any worker count, and replay of every winner
//! family (tiled, folded, permutation) as an ordinary scenario on both
//! timing engines.

use tbi::{
    BitPermutation, DramConfig, DramStandard, InterleaverSpec, MappingKind, MappingSearch,
    Scenario, SearchSettings, SweepGrid, TimingEngine,
};

fn settings(workers: usize) -> SearchSettings {
    SearchSettings {
        seed: 7,
        restarts: 3,
        budget: 10,
        neighbors: 4,
        workers,
    }
}

fn run_search(workers: usize) -> tbi::SearchRecord {
    let dram = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
    MappingSearch::new(
        dram,
        InterleaverSpec::from_burst_count(4_000),
        settings(workers),
    )
    .run()
    .unwrap()
}

/// The acceptance-criterion invariant: a fixed seed reproduces the search
/// bit-for-bit at any worker count (records compare on every deterministic
/// field).
#[test]
fn search_is_bit_reproducible_for_a_fixed_seed_at_any_worker_count() {
    let one = run_search(1);
    let four = run_search(4);
    let auto = run_search(0);
    assert_eq!(one, four);
    assert_eq!(one, auto);
    assert_eq!(one.permutation, four.permutation);
    assert_eq!(one.best.activates, four.best.activates);
}

/// Replays a search winner from its label alone as an ordinary scenario on
/// both timing engines; both must reproduce the search's own record.
fn assert_winner_replays(dram: DramConfig, spec: InterleaverSpec, outcome: &tbi::SearchRecord) {
    let winner = MappingKind::parse_label(&outcome.best.mapping).unwrap();
    assert_eq!(winner.label(), outcome.best.mapping);
    let scenario = Scenario::custom(dram, winner, spec);
    let event = scenario.clone().run().unwrap();
    let cycle = scenario.with_engine(TimingEngine::Cycle).run().unwrap();
    assert_eq!(
        event, cycle,
        "both engines agree on {}",
        outcome.best.mapping
    );
    assert_eq!(event, outcome.best, "replay reproduces the search record");
}

/// A discovered mapping replays as an ordinary scenario: the search's own
/// record is reproduced exactly, on both timing engines.
#[test]
fn discovered_permutations_replay_as_ordinary_scenarios_on_both_engines() {
    let outcome = run_search(1);
    assert_winner_replays(
        DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap(),
        InterleaverSpec::from_burst_count(4_000),
        &outcome,
    );
}

/// A free-shape tiling winner has no bit-sliced form: only its
/// `tiled:HxW` label describes it, and that label alone must replay.  On
/// DDR3-800 the 11x11 tile strictly beats the paper's optimized scheme.
#[test]
fn tiled_winners_replay_from_their_label_on_both_engines() {
    let dram = DramConfig::preset(DramStandard::Ddr3, 800).unwrap();
    let spec = InterleaverSpec::from_burst_count(200_000);
    let outcome = MappingSearch::new(dram.clone(), spec, settings(0))
        .run()
        .unwrap();
    assert_eq!(outcome.best.mapping, "tiled:11x11");
    assert!(outcome.permutation.is_empty() && outcome.fold.is_empty());
    assert!(outcome.beats_optimized());
    assert_winner_replays(dram, spec, &outcome);
}

/// Permutation design points ride the regular sweep machinery: they expand
/// through `SweepGrid` with distinct stable IDs next to the named schemes.
#[test]
fn permutations_sweep_through_the_grid_next_to_named_schemes() {
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let permutation = BitPermutation::for_scheme(
        tbi::dram::DecodeScheme::default(),
        &dram.geometry,
        tbi::ChannelTopology::default(),
    )
    .unwrap();
    let records = SweepGrid::new()
        .dram(dram)
        .size(2_000)
        .mapping(MappingKind::Optimized)
        .mapping(MappingKind::Permutation(permutation))
        .into_experiment()
        .with_workers(2)
        .run()
        .unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].mapping, "optimized");
    let label = format!("permutation:{permutation}");
    assert_eq!(records[1].mapping, label);
    assert!(records[1].scenario_id.contains(&label));
    assert_ne!(records[0].scenario_id, records[1].scenario_id);
}
