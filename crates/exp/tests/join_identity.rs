//! The experiment runner plans a batch as distinct DRAM and link
//! simulations, runs each once and joins the results into one record per
//! scenario.  These tests pin the join against the per-scenario path:
//! joined records equal `Scenario::run` records at any worker count, every
//! record keeps its own ID and thread count, and a failing batch still
//! names its first failing scenario in scenario order.

use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
use tbi_exp::{CampaignConfig, ExpError, Experiment, LinkStage, Record, Scenario};
use tbi_interleaver::{InterleaverSpec, MappingKind};
use tbi_satcom::{LinkConfig, LinkProfile, Weather};

fn per_scenario(scenarios: &[Scenario]) -> Vec<Record> {
    scenarios.iter().map(|s| s.run().unwrap()).collect()
}

fn assert_own_identity(scenarios: &[Scenario], records: &[Record]) {
    assert_eq!(scenarios.len(), records.len());
    for (scenario, record) in scenarios.iter().zip(records) {
        assert_eq!(record.scenario_id, scenario.id());
        assert_eq!(record.threads as usize, scenario.threads());
    }
}

/// A campaign whose 16 cells share 4 DRAM runs and 4 link runs.
#[test]
fn joined_campaign_records_equal_per_scenario_runs() {
    let scenarios = CampaignConfig::new(LinkProfile::leo_pass(45.0, Weather::Clear))
        .preset(DramStandard::Ddr4, 3200)
        .unwrap()
        .preset(DramStandard::Gddr6, 16000)
        .unwrap()
        .depths([4, 16])
        .code_rates([(239, 255), (223, 255)])
        .size(1_500)
        .trials(2)
        .build()
        .scenarios();
    assert_eq!(scenarios.len(), 16);
    let alone = per_scenario(&scenarios);
    for workers in [1, 2, 4] {
        let joined = Experiment::new(scenarios.clone())
            .with_workers(workers)
            .run()
            .unwrap();
        assert_eq!(joined, alone, "{workers} worker(s)");
        assert_own_identity(&scenarios, &joined);
    }
}

/// Scenarios that differ only in ID, thread count or link stage share one
/// DRAM run, yet each record carries its own ID, threads and link summary.
#[test]
fn scenarios_sharing_a_dram_run_keep_their_own_fields() {
    let spec = InterleaverSpec::from_burst_count(2_000);
    let single = Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::Optimized, spec).unwrap();
    let dual = Scenario::custom(
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(2, 1)),
        MappingKind::RowMajor,
        spec,
    );
    let link = |seed| LinkStage::new(0.02).with_seed(seed);
    let scenarios = vec![
        single.clone(),
        single.clone().with_id("renamed"),
        single.clone().with_threads(2),
        single.clone().with_link(link(1)),
        single.clone().with_link(link(2)).with_id("seed-2"),
        single
            .clone()
            .with_link(link(1))
            .with_threads(3)
            .with_id("seed-1"),
        dual.clone().with_threads(2),
        dual.clone().with_link(link(2)).with_id("dual-seed-2"),
        dual.with_link(link(1)),
    ];
    let alone = per_scenario(&scenarios);
    for workers in [1, 2, 4] {
        let joined = Experiment::new(scenarios.clone())
            .with_workers(workers)
            .run()
            .unwrap();
        assert_eq!(joined, alone, "{workers} worker(s)");
        assert_own_identity(&scenarios, &joined);
        // Records sharing a DRAM run carry that run's wall-clock fields.
        for shared in &joined[1..6] {
            assert_eq!(shared.wall_time_s, joined[0].wall_time_s);
            assert_eq!(
                shared.sim_cycles_per_second,
                joined[0].sim_cycles_per_second
            );
        }
        assert_eq!(joined[8].wall_time_s, joined[6].wall_time_s);
        assert_eq!(joined[3].link, joined[8].link);
        assert_eq!(joined[4].link, joined[7].link);
        assert_ne!(joined[3].link, joined[4].link);
    }
}

/// Asserts that the batch fails with `expected`'s own ID and `Display`
/// detail, wrapping an error accepted by `source`, at 1 and 4 workers.
fn assert_first_failure(
    scenarios: &[Scenario],
    expected: &Scenario,
    source: impl Fn(&ExpError) -> bool,
) {
    for workers in [1, 4] {
        match Experiment::new(scenarios.to_vec())
            .with_workers(workers)
            .run()
        {
            Err(ExpError::Scenario {
                id,
                detail,
                source: cause,
            }) => {
                assert_eq!(id, expected.id(), "{workers} worker(s)");
                assert_eq!(detail, expected.to_string(), "{workers} worker(s)");
                assert!(source(&cause), "{workers} worker(s): {cause:?}");
            }
            other => panic!("{workers} worker(s): unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn a_shared_failing_dram_run_names_the_first_failing_scenario() {
    let oversized = InterleaverSpec::from_burst_count(100_000_000_000);
    let ok = Scenario::preset(
        DramStandard::Ddr3,
        800,
        MappingKind::RowMajor,
        InterleaverSpec::from_burst_count(1_000),
    )
    .unwrap();
    let failing = Scenario::preset(DramStandard::Ddr3, 800, MappingKind::RowMajor, oversized)
        .unwrap()
        .with_link(LinkStage::new(0.02));
    let scenarios = vec![
        ok,
        failing.clone().with_id("first"),
        failing.clone().with_id("second").with_threads(2),
        failing.with_link(LinkStage::new(0.05)).with_id("third"),
    ];
    let is_interleaver = |e: &ExpError| matches!(e, ExpError::Interleaver(_));
    assert_first_failure(&scenarios, &scenarios[1], is_interleaver);
    let reversed: Vec<Scenario> = scenarios.iter().rev().cloned().collect();
    assert_first_failure(&reversed, &reversed[0], is_interleaver);
}

#[test]
fn an_earlier_rejected_link_stage_wins_over_a_later_dram_failure() {
    let spec = InterleaverSpec::from_burst_count(1_000);
    let rejected = LinkStage::new(0.02).with_config(LinkConfig {
        codewords: 0,
        ..LinkConfig::default()
    });
    let bad_link = Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::Optimized, spec)
        .unwrap()
        .with_link(rejected)
        .with_id("bad-link");
    let bad_dram = Scenario::preset(
        DramStandard::Ddr3,
        800,
        MappingKind::RowMajor,
        InterleaverSpec::from_burst_count(100_000_000_000),
    )
    .unwrap()
    .with_id("bad-dram");
    let scenarios = vec![bad_link.clone(), bad_dram.clone()];
    assert_first_failure(&scenarios, &bad_link, |e| matches!(e, ExpError::Satcom(_)));
    let scenarios = vec![bad_dram.clone(), bad_link];
    assert_first_failure(&scenarios, &bad_dram, |e| {
        matches!(e, ExpError::Interleaver(_))
    });
}
