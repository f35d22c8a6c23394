//! Multi-channel scale-out: one [`Controller`] per channel.
//!
//! DRAM channels are fully independent — each has its own command/address
//! bus, data bus and controller — so a multi-channel subsystem multiplies
//! peak bandwidth by the channel count.  The [`ChannelRouter`] owns one
//! [`Controller`] per channel of the configuration's
//! [`ChannelTopology`](crate::ChannelTopology).
//!
//! Because the channels do not interact, a phase is driven channel by
//! channel: every channel runs its own request stream through the one
//! saturating drive loop (fill the free queue slots, step until a slot
//! frees up, refill, …, drain) that
//! [`MemorySystem::run_trace`](crate::MemorySystem::run_trace) also uses.
//! Interleaving the channels under a shared laggard-first clock would only
//! reorder *when* each channel's operations run, never *which* operations
//! run, so the per-channel statistics do not depend on the driving order —
//! `tests/parallel_differential.rs` pins this against an independent
//! laggard-interleaved reference loop.  Aggregation happens in
//! [`CombinedStats`]: byte counts and command counts sum across channels,
//! while the elapsed time of the subsystem is the **maximum** over the
//! per-channel elapsed times (the slowest channel finishes last).
//!
//! With a `1 × 1` topology the router degenerates to exactly one controller
//! and reproduces the single-channel results bit-identically on both timing
//! engines.
//!
//! # Threaded drive mode
//!
//! [`ChannelRouter::run_phase_threaded`] runs the same per-channel drive
//! with the channels split into contiguous chunks, one
//! [`std::thread::scope`] worker per chunk.  Channels share no state, so the
//! per-channel [`Stats`] — reassembled in channel order at the join — are
//! **bit-identical to [`ChannelRouter::run_phase`] for any thread count**.
//! See `docs/ARCHITECTURE.md` for the determinism invariants.

use crate::controller::{Controller, ControllerConfig};
use crate::error::ConfigError;
use crate::request::Request;
use crate::standards::DramConfig;
use crate::stats::Stats;

/// Per-channel statistics of one measurement window plus aggregation
/// helpers.
///
/// # Examples
///
/// ```
/// use tbi_dram::channel::CombinedStats;
/// use tbi_dram::Stats;
///
/// let mut fast = Stats::new();
/// fast.elapsed_cycles = 100;
/// fast.data_bus_busy_cycles = 90;
/// let mut slow = Stats::new();
/// slow.elapsed_cycles = 120;
/// slow.data_bus_busy_cycles = 84;
/// let combined = CombinedStats::new(vec![fast, slow]);
/// assert_eq!(combined.aggregate().elapsed_cycles, 120);
/// assert_eq!(combined.aggregate().data_bus_busy_cycles, 174);
/// assert!((combined.utilization() - 174.0 / 240.0).abs() < 1e-12);
/// assert!((combined.utilization_spread() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CombinedStats {
    per_channel: Vec<Stats>,
}

impl CombinedStats {
    /// Wraps per-channel statistics (one entry per channel, channel order).
    #[must_use]
    pub fn new(per_channel: Vec<Stats>) -> Self {
        Self { per_channel }
    }

    /// The per-channel statistics in channel order.
    #[must_use]
    pub fn per_channel(&self) -> &[Stats] {
        &self.per_channel
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.per_channel.len()
    }

    /// Aggregated statistics: every counter sums across channels except
    /// `elapsed_cycles`, which is the maximum (channels run concurrently, so
    /// the subsystem finishes when the slowest channel does).
    ///
    /// The reduction uses only commutative, associative operations
    /// (unsigned sums and an unsigned max), so the result is independent of
    /// the order in which per-channel entries are visited — a property the
    /// threaded drive mode relies on and a unit test pins.  The
    /// `per_channel` vector itself is always assembled in channel order by
    /// [`ChannelRouter::stats`], regardless of which worker thread finished
    /// first.
    ///
    /// For a single channel this returns that channel's statistics
    /// unchanged.
    #[must_use]
    pub fn aggregate(&self) -> Stats {
        let mut total = Stats::new();
        let mut max_elapsed = 0u64;
        for stats in &self.per_channel {
            total.merge(stats);
            max_elapsed = max_elapsed.max(stats.elapsed_cycles);
        }
        total.elapsed_cycles = max_elapsed;
        total
    }

    /// Aggregate data-bus utilization in `[0, 1]`: total busy cycles over
    /// `channels × max elapsed` — the fraction of the subsystem's combined
    /// bus-time that carried data.  Idle tail cycles of faster channels count
    /// against it, exactly as they would in hardware.
    ///
    /// Like [`CombinedStats::aggregate`], the computation reduces with a sum
    /// and a max only, so it is independent of per-channel visiting order
    /// (threading-order-independent by construction).
    ///
    /// Returns exactly `0.0` (never NaN) when the set is empty or no channel
    /// has elapsed cycles, so zero-traffic windows serialize cleanly.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let elapsed = self.aggregate().elapsed_cycles;
        if elapsed == 0 || self.per_channel.is_empty() {
            return 0.0;
        }
        let busy: u64 = self
            .per_channel
            .iter()
            .map(|s| s.data_bus_busy_cycles)
            .sum();
        busy as f64 / (elapsed as f64 * self.per_channel.len() as f64)
    }

    /// Spread (max − min) of the per-channel bus utilizations: 0 for a
    /// single channel or a perfectly balanced stripe, larger when the
    /// channel-interleaved mapping leaves some channels under-loaded.
    ///
    /// Edge cases are defined (and pinned by tests) so no NaN can leak into
    /// serialized records: an empty set and a single channel both yield
    /// exactly `0.0`, and a zero-traffic channel (zero elapsed cycles)
    /// contributes a utilization of `0.0` — so one idle channel next to one
    /// busy channel yields the busy channel's utilization as the spread.
    #[must_use]
    pub fn utilization_spread(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for stats in &self.per_channel {
            // `bus_utilization` defines 0/0 as 0.0, keeping idle channels
            // finite here.
            let u = stats.bus_utilization();
            min = min.min(u);
            max = max.max(u);
        }
        if self.per_channel.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Aggregate achieved bandwidth in Gbit/s: the subsystem-wide
    /// utilization scaled by the combined peak of all channel buses.
    #[must_use]
    pub fn aggregate_bandwidth_gbps(&self, clock_mhz: f64, bus_width_bits: u32) -> f64 {
        self.utilization()
            * clock_mhz
            * 1.0e6
            * 2.0
            * f64::from(bus_width_bits)
            * self.per_channel.len() as f64
            / 1.0e9
    }
}

/// One [`Controller`] per channel.
///
/// # Examples
///
/// ```
/// use tbi_dram::channel::ChannelRouter;
/// use tbi_dram::{ChannelTopology, ControllerConfig, DramConfig, DramStandard, Request};
///
/// # fn main() -> Result<(), tbi_dram::ConfigError> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?
///     .with_topology(ChannelTopology::new(2, 1));
/// let mut router = ChannelRouter::new(config.clone(), ControllerConfig::default())?;
/// // Stripe 4096 sequential bursts across both channels.
/// let traces: Vec<Vec<Request>> = (0..2)
///     .map(|c| {
///         (0..4096u64)
///             .filter(|i| i % 2 == c)
///             .map(|i| Request::write(config.decode_linear(i / 2)))
///             .collect()
///     })
///     .collect();
/// let stats = router.run_phase(traces.into_iter().map(Vec::into_iter).collect());
/// assert_eq!(stats.aggregate().completed_requests, 4096);
/// assert!(stats.utilization() > 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChannelRouter {
    controllers: Vec<Controller>,
}

impl ChannelRouter {
    /// Creates one controller per channel of `config.topology`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the DRAM or controller configuration is
    /// invalid.
    pub fn new(config: DramConfig, ctrl: ControllerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let controllers = (0..config.topology.channels)
            .map(|_| Controller::new(config.clone(), ctrl))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { controllers })
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.controllers.len() as u32
    }

    /// The controller of channel `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn controller(&self, channel: u32) -> &Controller {
        &self.controllers[channel as usize]
    }

    /// Mutable access to the controller of channel `channel` — the seam
    /// external drive loops (e.g. the `tbi_sched` stream scheduler) use to
    /// enqueue requests, step the laggard and drain completion logs.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn controller_mut(&mut self, channel: u32) -> &mut Controller {
        &mut self.controllers[channel as usize]
    }

    /// The channel whose local clock is furthest behind among channels with
    /// pending requests — the one a laggard-first drive loop advances next —
    /// or `None` when no channel has pending work.
    #[must_use]
    pub fn laggard_channel(&self) -> Option<u32> {
        self.controllers
            .iter()
            .zip(0u32..)
            .filter(|(c, _)| c.pending_requests() > 0)
            .min_by_key(|(c, _)| c.now())
            .map(|(_, channel)| channel)
    }

    /// The DRAM configuration shared by every channel.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        self.controllers[0].config()
    }

    /// Enqueues `request` on `channel`, returning `false` when that
    /// channel's transaction queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn enqueue(&mut self, channel: u32, request: Request) -> bool {
        self.controllers[channel as usize].enqueue(request)
    }

    /// Feeds one request stream through each channel, keeping every
    /// channel's queue saturated (back-pressure per channel), then drains
    /// all channels and returns the per-channel statistics of the window.
    ///
    /// `traces` must hold exactly one iterator per channel, in channel
    /// order.  The channels are driven one after another in channel order;
    /// because channels do not interact, each channel's statistics equal a
    /// stand-alone [`MemorySystem`](crate::MemorySystem) run of the same
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the channel count.
    pub fn run_phase<I>(&mut self, traces: Vec<I>) -> CombinedStats
    where
        I: Iterator<Item = Request>,
    {
        assert_eq!(
            traces.len(),
            self.controllers.len(),
            "one trace per channel required"
        );
        for (controller, trace) in self.controllers.iter_mut().zip(traces) {
            drive_channel(controller, trace);
        }
        self.stats()
    }

    /// Runs the same phase as [`ChannelRouter::run_phase`] with the
    /// channels spread over `threads` worker threads, producing
    /// **bit-identical** [`CombinedStats`] (and, when completion logging is
    /// enabled, bit-identical per-channel completion logs) for any
    /// `threads` value.
    ///
    /// Every worker drives its channels with the same per-channel loop as
    /// the sequential path, and the per-channel statistics are reassembled
    /// in channel order at the join, so the result does not depend on
    /// thread count, channel-to-worker assignment, or completion order of
    /// the workers.  `threads` is clamped to `1..=channels`; with a single
    /// thread the channels are driven inline on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the channel count.
    pub fn run_phase_threaded<I>(&mut self, traces: Vec<I>, threads: usize) -> CombinedStats
    where
        I: Iterator<Item = Request> + Send,
    {
        assert_eq!(
            traces.len(),
            self.controllers.len(),
            "one trace per channel required"
        );
        on_workers(&mut self.controllers, traces, threads, drive_channel);
        self.stats()
    }

    /// Drains every channel to completion, optionally in parallel.
    ///
    /// Draining is a per-channel operation (step until idle, then finalize
    /// the elapsed window), so running the drains on `threads` workers
    /// produces bit-identical controller state to draining each channel in
    /// channel order.  External drive loops whose *decision* phase is
    /// inherently sequential — the `tbi_sched` stream scheduler's policy
    /// loop — use this to parallelize their final drain segment.
    pub fn drain_all(&mut self, threads: usize) {
        let channels = self.controllers.len();
        on_workers(
            &mut self.controllers,
            vec![(); channels],
            threads,
            |c, ()| c.drain(),
        );
    }

    /// Snapshot of every channel's current statistics window.
    #[must_use]
    pub fn stats(&self) -> CombinedStats {
        CombinedStats::new(self.controllers.iter().map(|c| c.stats().clone()).collect())
    }

    /// Resets every channel's statistics window (bank and queue state are
    /// preserved, so a write phase can be followed by a measured read
    /// phase).
    pub fn reset_stats(&mut self) {
        for controller in &mut self.controllers {
            controller.reset_stats();
        }
    }
}

/// Drives one channel to completion: fills the free queue slots from
/// `trace`, steps until a slot frees up, refills, and so on until the trace
/// is exhausted and the queue empty, then drains.
///
/// This is the crate's one saturating drive loop.  While the queue is full
/// no request can arrive, so stepping until a slot frees up is
/// indistinguishable from refilling after every step, and it skips the
/// refill bookkeeping.
pub(crate) fn drive_channel<I: Iterator<Item = Request>>(controller: &mut Controller, trace: I) {
    let mut trace = trace.fuse();
    loop {
        // Fill exactly the free queue slots (no failed-enqueue probing).
        let mut free = controller.free_slots();
        while free > 0 {
            match trace.next() {
                Some(request) => {
                    let accepted = controller.enqueue(request);
                    debug_assert!(accepted, "enqueue within free_slots cannot fail");
                    free -= 1;
                }
                None => break,
            }
        }
        if controller.pending_requests() == 0 {
            break;
        }
        controller.step();
        while !controller.can_accept() && controller.pending_requests() > 0 {
            controller.step();
        }
    }
    controller.drain();
}

/// Applies `work` to every controller paired with its item, on up to
/// `threads` scoped workers, each owning a contiguous chunk of channels.
/// The chunking only balances load: channels share no state, so the result
/// is the same as applying `work` in channel order on the calling thread,
/// which is what happens when `threads` is 1.
fn on_workers<T: Send>(
    controllers: &mut [Controller],
    items: Vec<T>,
    threads: usize,
    work: impl Fn(&mut Controller, T) + Sync,
) {
    let threads = threads.clamp(1, controllers.len().max(1));
    if threads == 1 {
        for (controller, item) in controllers.iter_mut().zip(items) {
            work(controller, item);
        }
        return;
    }
    let chunk = controllers.len().div_ceil(threads);
    let mut items = items.into_iter();
    let work = &work;
    std::thread::scope(|scope| {
        for controllers in controllers.chunks_mut(chunk) {
            let chunk_items: Vec<T> = items.by_ref().take(controllers.len()).collect();
            scope.spawn(move || {
                for (controller, item) in controllers.iter_mut().zip(chunk_items) {
                    work(controller, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ChannelTopology;
    use crate::sim::MemorySystem;
    use crate::standards::DramStandard;

    fn config(channels: u32, ranks: u32) -> DramConfig {
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(channels, ranks))
    }

    fn sequential(config: &DramConfig, n: u64) -> impl Iterator<Item = Request> + '_ {
        (0..n).map(|i| Request::write(config.decode_linear(i)))
    }

    #[test]
    fn single_channel_router_matches_memory_system_bit_exactly() {
        let cfg = config(1, 1);
        let n = 20_000u64;
        let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let combined = router.run_phase(vec![sequential(&cfg, n)]);
        let mut system = MemorySystem::new(cfg.clone()).unwrap();
        let reference = system.run_trace(sequential(&cfg, n));
        assert_eq!(combined.per_channel(), std::slice::from_ref(&reference));
        assert_eq!(combined.aggregate(), reference);
    }

    #[test]
    fn two_channels_double_completed_work_at_similar_elapsed_time() {
        let n = 20_000u64;
        let single_cfg = config(1, 1);
        let mut single =
            ChannelRouter::new(single_cfg.clone(), ControllerConfig::default()).unwrap();
        let single_stats = single.run_phase(vec![sequential(&single_cfg, n)]);

        let dual_cfg = config(2, 1);
        let mut dual = ChannelRouter::new(dual_cfg.clone(), ControllerConfig::default()).unwrap();
        let dual_stats = dual.run_phase(vec![sequential(&dual_cfg, n), sequential(&dual_cfg, n)]);

        assert_eq!(
            dual_stats.aggregate().completed_requests,
            2 * single_stats.aggregate().completed_requests
        );
        // Each channel runs the same stream, so the (max) elapsed time stays
        // flat and the aggregate bandwidth doubles.
        assert_eq!(
            dual_stats.aggregate().elapsed_cycles,
            single_stats.aggregate().elapsed_cycles
        );
        let single_bw = single_stats.aggregate_bandwidth_gbps(single_cfg.clock_mhz(), 64);
        let dual_bw = dual_stats.aggregate_bandwidth_gbps(dual_cfg.clock_mhz(), 64);
        assert!(
            dual_bw > 1.95 * single_bw,
            "aggregate bandwidth should double: {single_bw} vs {dual_bw}"
        );
        assert_eq!(dual_stats.utilization_spread(), 0.0);
    }

    #[test]
    fn per_channel_stats_are_independent_of_sibling_traffic() {
        // Channel 0 gets the same stream in both runs; channel 1's load must
        // not change channel 0's statistics.
        let cfg = config(2, 1);
        let n = 8_000u64;
        let run = |sibling: u64| {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            let traces: Vec<Box<dyn Iterator<Item = Request>>> = vec![
                Box::new(sequential(&cfg, n)),
                Box::new(sequential(&cfg, sibling)),
            ];
            router.run_phase(traces).per_channel()[0].clone()
        };
        assert_eq!(run(0), run(3 * n));
    }

    #[test]
    fn dual_rank_channel_completes_and_pays_rank_switches() {
        // Two bus-saturating streams that rotate bank groups identically;
        // one stays on rank 0, the other also flips the rank every access
        // and must pay the tRTRS bubble on top, while still completing
        // everything.
        use crate::address::PhysicalAddress;
        let cfg = config(1, 2);
        let n = 400u64;
        let addr = |i: u64, alternate: bool| {
            let rank = if alternate { (i % 2) as u32 } else { 0 };
            PhysicalAddress::new((i % 4) as u32, 0, 0, (i / 4) as u32).with_rank(rank)
        };
        let run = |alternate: bool| {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            router
                .run_phase(vec![(0..n).map(move |i| Request::write(addr(i, alternate)))])
                .aggregate()
        };
        let same = run(false);
        let alternating = run(true);
        assert_eq!(same.completed_requests, n);
        assert_eq!(alternating.completed_requests, n);
        assert!(
            alternating.elapsed_cycles > same.elapsed_cycles,
            "rank alternation must pay switch bubbles: {} vs {}",
            alternating.elapsed_cycles,
            same.elapsed_cycles
        );
    }

    #[test]
    fn empty_combined_stats_are_zero() {
        let empty = CombinedStats::default();
        assert_eq!(empty.utilization(), 0.0);
        assert_eq!(empty.utilization_spread(), 0.0);
        assert_eq!(empty.aggregate(), Stats::new());
    }

    #[test]
    fn single_channel_combined_stats_are_the_channel_stats() {
        let mut stats = Stats::new();
        stats.elapsed_cycles = 500;
        stats.data_bus_busy_cycles = 400;
        stats.completed_requests = 100;
        let combined = CombinedStats::new(vec![stats.clone()]);
        assert_eq!(combined.aggregate(), stats);
        assert_eq!(combined.utilization_spread(), 0.0);
        assert!((combined.utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_channels_never_produce_nan() {
        // An idle channel (zero elapsed cycles) next to a busy one: every
        // derived metric must stay finite, with the idle channel counting as
        // utilization 0.
        let mut busy = Stats::new();
        busy.elapsed_cycles = 200;
        busy.data_bus_busy_cycles = 150;
        let combined = CombinedStats::new(vec![busy, Stats::new()]);
        assert!(combined.utilization().is_finite());
        assert!((combined.utilization() - 150.0 / 400.0).abs() < 1e-12);
        assert!((combined.utilization_spread() - 0.75).abs() < 1e-12);
        assert!(combined.aggregate_bandwidth_gbps(1600.0, 64).is_finite());
        assert_eq!(combined.aggregate().elapsed_cycles, 200);

        // All channels idle: everything is exactly zero.
        let idle = CombinedStats::new(vec![Stats::new(), Stats::new()]);
        assert_eq!(idle.utilization(), 0.0);
        assert_eq!(idle.utilization_spread(), 0.0);
        assert_eq!(idle.aggregate_bandwidth_gbps(1600.0, 64), 0.0);
    }

    #[test]
    fn combined_stats_reduction_is_order_independent() {
        // The aggregate/utilization/spread reductions use only commutative,
        // associative operations (sums, max, min), so any permutation of the
        // per-channel entries yields identical derived metrics.  This is the
        // property that makes the threaded drive mode safe: it never matters
        // which worker finishes first, only that `stats()` assembles the
        // vector in channel order.
        let mut a = Stats::new();
        a.elapsed_cycles = 120;
        a.data_bus_busy_cycles = 84;
        a.completed_requests = 7;
        let mut b = Stats::new();
        b.elapsed_cycles = 100;
        b.data_bus_busy_cycles = 90;
        b.row_hits = 3;
        let mut c = Stats::new();
        c.elapsed_cycles = 50;
        c.data_bus_busy_cycles = 10;
        c.stall_cycles = 5;
        let reference = CombinedStats::new(vec![a.clone(), b.clone(), c.clone()]);
        let permutations = [
            vec![a.clone(), c.clone(), b.clone()],
            vec![b.clone(), a.clone(), c.clone()],
            vec![b.clone(), c.clone(), a.clone()],
            vec![c.clone(), a.clone(), b.clone()],
            vec![c, b, a],
        ];
        for permuted in permutations {
            let combined = CombinedStats::new(permuted);
            assert_eq!(combined.aggregate(), reference.aggregate());
            assert_eq!(combined.utilization(), reference.utilization());
            assert_eq!(
                combined.utilization_spread(),
                reference.utilization_spread()
            );
            assert_eq!(
                combined.aggregate_bandwidth_gbps(1600.0, 64),
                reference.aggregate_bandwidth_gbps(1600.0, 64)
            );
        }
    }

    #[test]
    fn threaded_run_phase_is_bit_identical_for_any_thread_count() {
        // Four channels with deliberately unbalanced streams; every thread
        // count (including one that does not divide the channel count) must
        // reproduce the sequential CombinedStats bit-exactly.
        let cfg = config(4, 1);
        let lengths = [9_000u64, 500, 4_321, 7];
        let traces = |cfg: &DramConfig| -> Vec<_> {
            lengths
                .iter()
                .map(|&n| {
                    let cfg = cfg.clone();
                    (0..n).map(move |i| Request::write(cfg.decode_linear(i)))
                })
                .collect()
        };
        let mut sequential = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let reference = sequential.run_phase(traces(&cfg));
        for threads in [1usize, 2, 3, 4, 16] {
            let mut threaded =
                ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            let stats = threaded.run_phase_threaded(traces(&cfg), threads);
            assert_eq!(stats, reference, "threads={threads}");
        }
    }

    #[test]
    fn threaded_run_phase_preserves_completion_log_ordering() {
        // With completion logging on, the per-channel completion logs (the
        // per-request ordering the stream scheduler observes) must match the
        // sequential path exactly, channel by channel.
        let cfg = config(2, 1);
        let n = 3_000u64;
        let run = |threads: Option<usize>| {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            for channel in 0..2 {
                router.controller_mut(channel).set_completion_logging(true);
            }
            let traces = vec![
                Box::new(sequential(&cfg, n)) as Box<dyn Iterator<Item = Request> + Send>,
                Box::new(sequential(&cfg, n / 3)),
            ];
            let stats = match threads {
                None => router.run_phase(traces),
                Some(t) => router.run_phase_threaded(traces, t),
            };
            let logs: Vec<Vec<_>> = (0..2)
                .map(|c| router.controller_mut(c).drain_completions().collect())
                .collect();
            (stats, logs)
        };
        let (reference_stats, reference_logs) = run(None);
        for threads in [1usize, 2, 5] {
            let (stats, logs) = run(Some(threads));
            assert_eq!(stats, reference_stats, "threads={threads}");
            assert_eq!(logs, reference_logs, "threads={threads}");
        }
    }

    #[test]
    fn drain_all_threaded_matches_sequential_drain() {
        // Partially-filled queues drained in parallel must finalize exactly
        // the same per-channel windows as channel-order drains.
        let cfg = config(4, 1);
        let build = || {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            for channel in 0..4u32 {
                for i in 0..(16 * (u64::from(channel) + 1)) {
                    router.enqueue(channel, Request::write(cfg.decode_linear(i)));
                }
            }
            router
        };
        let mut reference = build();
        reference.drain_all(1);
        for threads in [2usize, 3, 4] {
            let mut threaded = build();
            threaded.drain_all(threads);
            assert_eq!(threaded.stats(), reference.stats(), "threads={threads}");
        }
    }

    #[test]
    fn completion_logging_is_observational_and_complete() {
        let cfg = config(1, 1);
        let n = 5_000u64;
        let mut plain = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let plain_stats = plain.run_phase(vec![sequential(&cfg, n)]);

        let mut logged = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        logged.controller_mut(0).set_completion_logging(true);
        let logged_stats = logged.run_phase(vec![sequential(&cfg, n)]);
        assert_eq!(plain_stats, logged_stats, "logging must not perturb timing");

        let completions: Vec<_> = logged.controller_mut(0).drain_completions().collect();
        assert_eq!(completions.len() as u64, n);
        let geometry = cfg.geometry;
        let flat_banks = geometry.total_banks();
        for completion in &completions {
            assert!(completion.flat_bank < flat_banks);
            assert!(completion.data_end > 0);
        }
        // The log drains destructively.
        assert_eq!(logged.controller_mut(0).drain_completions().count(), 0);
    }

    #[test]
    fn mid_phase_source_exhaustion_terminates_and_matches_iterator_path() {
        // One channel's stream dries up mid-phase (after 1000 requests
        // while the sibling channel still has work): the run must terminate
        // cleanly, match stand-alone runs of the same streams, and the
        // threaded drive must agree.
        let cfg = config(2, 1);
        let n = 6_000u64;
        let cut = 1_000usize;
        let traces = || -> Vec<Box<dyn Iterator<Item = Request> + Send + '_>> {
            vec![
                Box::new(sequential(&cfg, n)),
                Box::new(sequential(&cfg, n).take(cut)),
            ]
        };
        let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let stats = router.run_phase(traces());
        for (channel, trace) in traces().into_iter().enumerate() {
            let mut system = MemorySystem::new(cfg.clone()).unwrap();
            assert_eq!(stats.per_channel()[channel], system.run_trace(trace));
        }
        assert_eq!(stats.per_channel()[1].completed_requests, cut as u64);
        let mut threaded = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        assert_eq!(threaded.run_phase_threaded(traces(), 2), stats);
    }
}
