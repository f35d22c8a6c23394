//! Randomized differential testing of the channel drives: for **random**
//! small geometries, channel topologies, controller configurations, request
//! patterns and worker counts, both [`ChannelRouter::run_phase`] and
//! [`ChannelRouter::run_phase_threaded`] must produce [`CombinedStats`]
//! bit-identical to an independent reference — every per-channel field,
//! including diagnostics such as `stall_cycles`.
//!
//! The router drives each channel through its own saturating loop (in
//! channel order, or on workers).  The reference in this file drives all
//! channels under a laggard-first shared clock instead, built only from the
//! router's public stepping API, so it shares no drive code with the paths
//! it checks.  Channels share no state, so neither the driving order, the
//! worker count nor the channel-to-worker distribution may leak into the
//! results.  This suite pins that invariant the same way
//! `engine_differential.rs` pins cycle/event equivalence.  The case count
//! follows proptest's default (64) and is raised in CI via
//! `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tbi_dram::{
    ChannelRouter, ChannelTopology, CombinedStats, ControllerConfig, DramConfig, PagePolicy,
    RefreshMode, Request, SchedulingPolicy, TimingEngine,
};

/// Builds a small, valid multi-channel DRAM configuration from sampled axis
/// indices (the `engine_differential.rs` generator plus a channel axis).
fn small_config(
    preset_idx: usize,
    bank_groups: u32,
    banks_per_group: u32,
    rows_log2: u32,
    cols_log2: u32,
    channels: u32,
    ranks: u32,
) -> DramConfig {
    let presets = tbi_dram::standards::ALL_CONFIGS;
    let (standard, rate) = presets[preset_idx % presets.len()];
    let mut config = DramConfig::preset(standard, rate).expect("preset exists");
    config.geometry.bank_groups = bank_groups;
    config.geometry.banks_per_group = banks_per_group;
    config.geometry.rows = 1 << rows_log2;
    config.geometry.columns_per_row = 1 << cols_log2;
    config.topology = ChannelTopology::new(channels, ranks);
    config.validate().expect("sampled configuration is valid");
    config
}

/// Generates one channel's request pattern mixing sequential runs (row
/// hits), strided jumps (conflicts, bank/rank switches) and direction
/// changes — addresses are channel-local, as `run_phase` expects.
fn pattern(config: &DramConfig, seed: u64, requests: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = config.geometry.total_bursts() * u64::from(config.topology.ranks);
    let mut out = Vec::with_capacity(requests);
    let mut cursor = rng.gen_range(0..capacity);
    while out.len() < requests {
        let run = rng.gen_range(1..16usize).min(requests - out.len());
        let writes = rng.gen_bool(0.5);
        for _ in 0..run {
            let address = config.decode_linear(cursor % capacity);
            out.push(if writes {
                Request::write(address)
            } else {
                Request::read(address)
            });
            cursor += 1;
        }
        cursor = if rng.gen_bool(0.5) {
            cursor.wrapping_add(rng.gen_range(1..64))
        } else {
            rng.gen_range(0..capacity)
        };
    }
    out
}

/// Per-channel traces for `config`, sized unevenly (channel `c` gets
/// `base + 97 * c` requests) so the laggard-driven admission order is
/// exercised, not just the symmetric case.
fn traces(config: &DramConfig, seed: u64, base: usize) -> Vec<Vec<Request>> {
    (0..config.topology.channels)
        .map(|channel| {
            pattern(
                config,
                seed ^ (u64::from(channel) << 32),
                base + 97 * channel as usize,
            )
        })
        .collect()
}

/// The reference drive: every channel's free queue slots are refilled
/// from its own trace, then the channel whose local clock is furthest
/// behind steps until it can accept again, until no channel has pending
/// work; finally every channel drains.
fn laggard_reference(router: &mut ChannelRouter, traces: &[Vec<Request>]) -> CombinedStats {
    let mut traces: Vec<_> = traces.iter().map(|t| t.iter().copied()).collect();
    loop {
        for (channel, trace) in (0..router.channels()).zip(&mut traces) {
            let controller = router.controller_mut(channel);
            for request in trace.by_ref().take(controller.free_slots()) {
                assert!(controller.enqueue(request), "enqueue within free_slots");
            }
        }
        let Some(channel) = router.laggard_channel() else {
            break;
        };
        let controller = router.controller_mut(channel);
        controller.step();
        while !controller.can_accept() && controller.pending_requests() > 0 {
            controller.step();
        }
    }
    for channel in 0..router.channels() {
        router.controller_mut(channel).drain();
    }
    router.stats()
}

/// How [`run`] drives the router.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Reference,
    Sequential,
    Threaded(usize),
}

/// Drives `router` over `traces` and returns the combined statistics.
fn drive(router: &mut ChannelRouter, traces: &[Vec<Request>], how: Drive) -> CombinedStats {
    let iters = || traces.iter().map(|t| t.iter().copied()).collect::<Vec<_>>();
    match how {
        Drive::Reference => laggard_reference(router, traces),
        Drive::Sequential => router.run_phase(iters()),
        Drive::Threaded(threads) => router.run_phase_threaded(iters(), threads),
    }
}

/// Drives a fresh router over `traces` and returns the combined statistics.
fn run(
    config: &DramConfig,
    ctrl: ControllerConfig,
    traces: &[Vec<Request>],
    how: Drive,
) -> CombinedStats {
    let mut router = ChannelRouter::new(config.clone(), ctrl).expect("router builds");
    drive(&mut router, traces, how)
}

proptest! {
    /// The headline differential property: the sequential and threaded
    /// drives reproduce the reference `CombinedStats` for random (geometry
    /// × channel topology × refresh × scheduling × page-policy × queue ×
    /// engine × pattern × thread-count) combinations, including thread
    /// counts that are odd or exceed the channel count.
    #[test]
    fn threaded_drive_matches_sequential_on_random_configurations(
        preset_idx in 0usize..10,
        bank_groups_log2 in 0u32..3,
        banks_per_group_log2 in 1u32..3,
        rows_log2 in 6u32..8,
        cols_log2 in 4u32..7,
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        refresh_idx in 0usize..4,
        scheduling_idx in 0usize..2,
        page_idx in 0usize..2,
        queue_idx in 0usize..3,
        engine_idx in 0usize..2,
        threads_idx in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = small_config(
            preset_idx,
            1 << bank_groups_log2,
            1 << banks_per_group_log2,
            rows_log2,
            cols_log2,
            1 << channels_log2,
            1 << ranks_log2,
        );
        let ctrl = ControllerConfig {
            refresh_mode: [
                None,
                Some(RefreshMode::AllBank),
                Some(RefreshMode::PerBank),
                Some(RefreshMode::Disabled),
            ][refresh_idx],
            scheduling: [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs][scheduling_idx],
            page_policy: [PagePolicy::Open, PagePolicy::Closed][page_idx],
            queue_capacity: [2, 8, 64][queue_idx],
            engine: [TimingEngine::Cycle, TimingEngine::Event][engine_idx],
        };
        // 1, 2, 4 workers plus an odd count that never divides the
        // power-of-two channel axis evenly.
        let threads = [1usize, 2, 4, 3][threads_idx];
        let traces = traces(&config, seed, 400);
        let reference = run(&config, ctrl, &traces, Drive::Reference);
        for how in [Drive::Sequential, Drive::Threaded(threads)] {
            let stats = run(&config, ctrl, &traces, how);
            prop_assert_eq!(
                &reference,
                &stats,
                "{:?} drive diverged: topology={:?} ctrl={:?} seed={}",
                how,
                config.topology,
                ctrl,
                seed
            );
        }
        let completed: u64 = reference
            .per_channel()
            .iter()
            .map(|s| s.completed_requests)
            .sum();
        let expected: u64 = traces.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(completed, expected);
    }

    /// Consecutive measurement windows (write phase, statistics reset, read
    /// phase on the same router) must also match the reference for the
    /// sequential drive and every thread count — any cross-phase clock or
    /// bank-state divergence desynchronizes the second window.
    #[test]
    fn threaded_drive_matches_sequential_across_stats_windows(
        preset_idx in 0usize..10,
        channels_log2 in 0u32..3,
        threads_idx in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = small_config(preset_idx, 2, 2, 7, 5, 1 << channels_log2, 1);
        let ctrl = ControllerConfig::default();
        let threads = [1usize, 2, 4, 3][threads_idx];
        let run_windows = |how: Drive| -> Vec<CombinedStats> {
            let mut router =
                ChannelRouter::new(config.clone(), ctrl).expect("router builds");
            let mut windows = Vec::new();
            for (phase, writes) in [(0u64, true), (1, false)] {
                let phase_traces: Vec<Vec<Request>> = traces(&config, seed ^ phase, 200)
                    .into_iter()
                    .map(|trace| {
                        trace
                            .into_iter()
                            .map(|r| {
                                if writes {
                                    Request::write(r.address)
                                } else {
                                    Request::read(r.address)
                                }
                            })
                            .collect()
                    })
                    .collect();
                windows.push(drive(&mut router, &phase_traces, how));
                router.reset_stats();
            }
            windows
        };
        let reference = run_windows(Drive::Reference);
        for how in [Drive::Sequential, Drive::Threaded(threads)] {
            prop_assert_eq!(
                &reference,
                &run_windows(how),
                "{:?} windows diverged, seed {}",
                how,
                seed
            );
        }
    }
}
