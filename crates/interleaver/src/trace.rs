//! DRAM request trace generation for the two interleaver access phases.

use tbi_dram::{AddressBatch, PhysicalAddress, Request};

use crate::mapping::{DramMapping, BATCH_CHUNK};
use crate::triangular::TriangularInterleaver;

/// The two access phases of a triangular block interleaver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPhase {
    /// Row-wise writing of incoming symbols.
    Write,
    /// Column-wise reading of interleaved symbols.
    Read,
}

impl AccessPhase {
    /// Both phases in their natural order.
    pub const ALL: [AccessPhase; 2] = [AccessPhase::Write, AccessPhase::Read];

    /// Human-readable name ("write" / "read").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccessPhase::Write => "write",
            AccessPhase::Read => "read",
        }
    }

    /// The request this phase issues to `address`: a write for
    /// [`AccessPhase::Write`], a read for [`AccessPhase::Read`].
    pub(crate) fn request(self, address: PhysicalAddress) -> Request {
        match self {
            AccessPhase::Write => Request::write(address),
            AccessPhase::Read => Request::read(address),
        }
    }
}

/// The position order of one phase over the triangle: row by row for the
/// write phase, column by column for the read phase.  Both sweep lines of
/// length `n - outer`; they only differ in which coordinate is the line
/// index.
#[derive(Debug, Clone)]
pub(crate) struct PositionWalk {
    phase: AccessPhase,
    n: u32,
    /// Row index (write phase) or column index (read phase).
    outer: u32,
    /// Position within the current row/column, `0..n - outer`.
    inner: u32,
    /// Positions not yet visited.
    remaining: u64,
}

impl PositionWalk {
    /// The walk of `phase` over the triangle of dimension `n`.
    pub(crate) fn new(phase: AccessPhase, n: u32) -> Self {
        let len = u64::from(n) * (u64::from(n) + 1) / 2;
        Self {
            phase,
            n,
            outer: 0,
            inner: 0,
            remaining: len,
        }
    }

    /// The phase being walked.
    pub(crate) fn phase(&self) -> AccessPhase {
        self.phase
    }

    /// Positions not yet visited.
    pub(crate) fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Stages the next (up to [`BATCH_CHUNK`]) positions into `coords` and
    /// returns them; empty once the walk is over.
    pub(crate) fn next_chunk<'c>(
        &mut self,
        coords: &'c mut [(u32, u32); BATCH_CHUNK],
    ) -> &'c [(u32, u32)] {
        let take = self.remaining.min(BATCH_CHUNK as u64) as usize;
        for slot in coords.iter_mut().take(take) {
            *slot = match self.phase {
                AccessPhase::Write => (self.outer, self.inner),
                AccessPhase::Read => (self.inner, self.outer),
            };
            self.inner += 1;
            if self.inner >= self.n - self.outer {
                self.inner = 0;
                self.outer += 1;
            }
        }
        self.remaining -= take as u64;
        &coords[..take]
    }
}

impl std::fmt::Display for AccessPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the burst-level DRAM request stream of an interleaver phase.
///
/// The generator is lazy: requests are produced on the fly so even the
/// paper's 12.5 M-burst interleaver does not need to be materialised.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::{AccessPhase, MappingKind, TraceGenerator};
/// use tbi_interleaver::triangular::TriangularInterleaver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 1600)?;
/// let mapping = MappingKind::Optimized.build(&config, 64)?;
/// let interleaver = TriangularInterleaver::new(64)?;
/// let gen = TraceGenerator::new(interleaver, mapping.as_ref());
/// let writes: Vec<_> = gen.requests(AccessPhase::Write).collect();
/// assert_eq!(writes.len() as u64, interleaver.len());
/// assert!(writes.iter().all(|r| r.is_write()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
pub struct TraceGenerator<'a> {
    interleaver: TriangularInterleaver,
    mapping: &'a dyn DramMapping,
}

impl std::fmt::Debug for TraceGenerator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceGenerator")
            .field("interleaver", &self.interleaver)
            .field("mapping", &self.mapping.name())
            .finish()
    }
}

impl<'a> TraceGenerator<'a> {
    /// Creates a trace generator for `interleaver` using `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping was built for a smaller index space than the
    /// interleaver dimension.
    #[must_use]
    pub fn new(interleaver: TriangularInterleaver, mapping: &'a dyn DramMapping) -> Self {
        assert!(
            mapping.dimension() >= interleaver.dimension(),
            "mapping dimension {} smaller than interleaver dimension {}",
            mapping.dimension(),
            interleaver.dimension()
        );
        Self {
            interleaver,
            mapping,
        }
    }

    /// The interleaver whose accesses are generated.
    #[must_use]
    pub fn interleaver(&self) -> TriangularInterleaver {
        self.interleaver
    }

    /// Lazily yields the request stream of `phase` in its natural order.
    ///
    /// The returned [`PhaseTrace`] maps positions a chunk at a time and
    /// hands out one [`Request`] at a time — the whole trace is never
    /// materialised, so even the paper's 12.5 M-burst interleaver costs
    /// O(1) memory, and the DRAM engines consume requests exactly as fast as
    /// they can retire them (back-pressure through
    /// [`MemorySystem::run_trace`](tbi_dram::MemorySystem::run_trace)).
    #[must_use]
    pub fn requests(&self, phase: AccessPhase) -> PhaseTrace<'a> {
        PhaseTrace {
            mapping: self.mapping,
            walk: PositionWalk::new(phase, self.interleaver.dimension()),
            buffer: Vec::new(),
            position: 0,
            scratch: AddressBatch::new(),
        }
    }

    /// Number of requests per phase (equal to the interleaver length).
    #[must_use]
    pub fn requests_per_phase(&self) -> u64 {
        self.interleaver.len()
    }
}

/// A streaming iterator over the burst-level DRAM requests of one interleaver
/// access phase.
///
/// Produced by [`TraceGenerator::requests`].  Write phases walk the triangle
/// row-wise and yield [`Request::write`]s; read phases walk it column-wise
/// and yield [`Request::read`]s.  `next` refills an internal chunk through
/// [`PhaseTrace::fill_batch`], so every position is mapped by the batched
/// kernel.  The iterator is exact-sized and fused.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::triangular::TriangularInterleaver;
/// use tbi_interleaver::{AccessPhase, MappingKind, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 1600)?;
/// let mapping = MappingKind::Optimized.build(&config, 32)?;
/// let interleaver = TriangularInterleaver::new(32)?;
/// let gen = TraceGenerator::new(interleaver, mapping.as_ref());
/// let mut trace = gen.requests(AccessPhase::Read);
/// assert_eq!(trace.len(), interleaver.len() as usize);
/// let first = trace.next().expect("non-empty trace");
/// assert!(!first.is_write());
/// assert_eq!(trace.len() as u64, interleaver.len() - 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PhaseTrace<'a> {
    mapping: &'a dyn DramMapping,
    walk: PositionWalk,
    /// Requests mapped ahead for `next`, served from `buffer[position..]`.
    buffer: Vec<Request>,
    position: usize,
    /// Scratch SoA buffer for [`PhaseTrace::fill_batch`] (reused across
    /// calls).
    scratch: AddressBatch,
}

impl PhaseTrace<'_> {
    /// Appends up to roughly `max` of the remaining requests to `out` (the
    /// last mapping chunk may overshoot slightly; fewer when the trace ends
    /// first) and returns how many were appended.
    ///
    /// Positions are mapped in [`DramMapping::map_batch`] slices, so the
    /// per-request mapping cost is the batched kernel's instead of a scalar
    /// `map` call.  The appended sequence is exactly the iterator's — mixing
    /// `next` and `fill_batch` calls is allowed and never reorders or drops
    /// requests.
    ///
    /// Returns `0` if and only if the trace is exhausted.
    pub fn fill_batch(&mut self, out: &mut Vec<Request>, max: usize) -> usize {
        let before = out.len();
        // Requests `next` already mapped come first.
        out.extend_from_slice(&self.buffer[self.position..]);
        self.position = self.buffer.len();
        let mut coords = [(0u32, 0u32); BATCH_CHUNK];
        while out.len() - before < max && self.walk.remaining() > 0 {
            let chunk = self.walk.next_chunk(&mut coords);
            self.scratch.clear();
            self.mapping.map_batch(chunk, &mut self.scratch);
            let phase = self.walk.phase();
            out.extend((0..chunk.len()).map(|index| phase.request(self.scratch.address(index))));
        }
        out.len() - before
    }
}

impl std::fmt::Debug for PhaseTrace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseTrace")
            .field("mapping", &self.mapping.name())
            .field("walk", &self.walk)
            .field("buffered", &(self.buffer.len() - self.position))
            .finish()
    }
}

impl Iterator for PhaseTrace<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.position == self.buffer.len() {
            let mut buffer = std::mem::take(&mut self.buffer);
            buffer.clear();
            self.position = 0;
            self.fill_batch(&mut buffer, BATCH_CHUNK);
            self.buffer = buffer;
        }
        let request = *self.buffer.get(self.position)?;
        self.position += 1;
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Requests left: the ones mapped ahead plus the unmapped positions.
        let remaining = self.walk.remaining() + (self.buffer.len() - self.position) as u64;
        // On targets where `usize` cannot hold the 64-bit remaining count
        // (paper-sized traces exceed 2^32 positions on 32-bit hosts), report
        // an honest "at least usize::MAX, upper bound unknown" instead of
        // silently saturating both bounds to a wrong exact size.
        match usize::try_from(remaining) {
            Ok(remaining) => (remaining, Some(remaining)),
            Err(_) => (usize::MAX, None),
        }
    }
}

// `len()` must equal the exact element count, which only fits in `usize` on
// 64-bit targets; 32-bit consumers get the honest `size_hint` above instead.
#[cfg(target_pointer_width = "64")]
impl ExactSizeIterator for PhaseTrace<'_> {}

impl std::iter::FusedIterator for PhaseTrace<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingKind;
    use std::collections::HashSet;
    use tbi_dram::{DramConfig, DramStandard};

    fn setup(n: u32) -> (DramConfig, TriangularInterleaver) {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let interleaver = TriangularInterleaver::new(n).unwrap();
        (config, interleaver)
    }

    #[test]
    fn phases_have_names() {
        assert_eq!(AccessPhase::Write.to_string(), "write");
        assert_eq!(AccessPhase::Read.to_string(), "read");
        assert_eq!(AccessPhase::ALL.len(), 2);
    }

    #[test]
    fn write_and_read_traces_cover_the_same_addresses() {
        let (config, interleaver) = setup(48);
        for kind in MappingKind::ALL {
            let mapping = kind.build(&config, 48).unwrap();
            let gen = TraceGenerator::new(interleaver, mapping.as_ref());
            let writes: HashSet<_> = gen
                .requests(AccessPhase::Write)
                .map(|r| r.address)
                .collect();
            let reads: HashSet<_> = gen.requests(AccessPhase::Read).map(|r| r.address).collect();
            assert_eq!(writes, reads, "{kind}");
            assert_eq!(writes.len() as u64, interleaver.len(), "{kind}");
        }
    }

    #[test]
    fn request_kinds_match_phase() {
        let (config, interleaver) = setup(16);
        let mapping = MappingKind::RowMajor.build(&config, 16).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        assert!(gen.requests(AccessPhase::Write).all(|r| r.is_write()));
        assert!(gen.requests(AccessPhase::Read).all(|r| !r.is_write()));
        assert_eq!(gen.requests_per_phase(), interleaver.len());
    }

    #[test]
    fn phase_trace_matches_the_reference_index_orders() {
        let (config, interleaver) = setup(33);
        let mapping = MappingKind::Optimized.build(&config, 33).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let writes: Vec<_> = gen.requests(AccessPhase::Write).collect();
        let expected: Vec<_> = interleaver
            .write_order()
            .map(|(i, j)| Request::write(mapping.map(i, j)))
            .collect();
        assert_eq!(writes, expected);
        let reads: Vec<_> = gen.requests(AccessPhase::Read).collect();
        let expected: Vec<_> = interleaver
            .read_order()
            .map(|(i, j)| Request::read(mapping.map(i, j)))
            .collect();
        assert_eq!(reads, expected);
    }

    #[test]
    fn phase_trace_is_exact_sized_and_fused() {
        let (config, interleaver) = setup(12);
        let mapping = MappingKind::RowMajor.build(&config, 12).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let mut trace = gen.requests(AccessPhase::Write);
        let mut remaining = interleaver.len() as usize;
        assert_eq!(trace.len(), remaining);
        while trace.next().is_some() {
            remaining -= 1;
            assert_eq!(trace.len(), remaining);
        }
        assert_eq!(trace.len(), 0);
        assert!(trace.next().is_none(), "fused after exhaustion");
        assert!(trace.next().is_none());
    }

    #[test]
    fn size_hint_is_exact_at_every_step() {
        let (config, interleaver) = setup(12);
        let mapping = MappingKind::RowMajor.build(&config, 12).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let mut trace = gen.requests(AccessPhase::Write);
        let mut expected = interleaver.len() as usize;
        assert_eq!(trace.size_hint(), (expected, Some(expected)));
        while trace.next().is_some() {
            expected -= 1;
            let (lower, upper) = trace.size_hint();
            assert_eq!(lower, expected, "lower bound must stay exact");
            assert_eq!(upper, Some(expected), "upper bound must stay exact");
        }
        assert_eq!(trace.size_hint(), (0, Some(0)));
    }

    /// The requests of `phase` by a scalar `DramMapping::map` walk over the
    /// triangle, sharing no code with `PhaseTrace`.
    fn scalar_requests(mapping: &dyn DramMapping, n: u32, phase: AccessPhase) -> Vec<Request> {
        let mut requests = Vec::new();
        for outer in 0..n {
            for inner in 0..n - outer {
                requests.push(match phase {
                    AccessPhase::Write => Request::write(mapping.map(outer, inner)),
                    AccessPhase::Read => Request::read(mapping.map(inner, outer)),
                });
            }
        }
        requests
    }

    #[test]
    fn fill_batch_yields_the_iterator_sequence() {
        let (config, interleaver) = setup(37);
        for kind in MappingKind::ALL {
            let mapping = kind.build(&config, 37).unwrap();
            let gen = TraceGenerator::new(interleaver, mapping.as_ref());
            for phase in AccessPhase::ALL {
                let scalar = scalar_requests(mapping.as_ref(), 37, phase);
                let iterated: Vec<_> = gen.requests(phase).collect();
                assert_eq!(iterated, scalar, "{kind} {phase} iterator");
                for max in [1usize, 64, 1000] {
                    let mut trace = gen.requests(phase);
                    let mut batched = Vec::new();
                    loop {
                        let appended = trace.fill_batch(&mut batched, max);
                        if appended == 0 {
                            break;
                        }
                    }
                    assert_eq!(batched, scalar, "{kind} {phase} max={max}");
                    assert_eq!(trace.fill_batch(&mut batched, max), 0, "stays exhausted");
                }
            }
        }
    }

    #[test]
    fn fill_batch_and_next_can_be_mixed() {
        let (config, interleaver) = setup(29);
        let mapping = MappingKind::Optimized.build(&config, 29).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let scalar = scalar_requests(mapping.as_ref(), 29, AccessPhase::Read);
        let mut trace = gen.requests(AccessPhase::Read);
        let mut mixed = Vec::new();
        while mixed.len() < scalar.len() {
            if let Some(request) = trace.next() {
                mixed.push(request);
            } else {
                break;
            }
            assert_eq!(trace.len(), scalar.len() - mixed.len(), "len stays exact");
            trace.fill_batch(&mut mixed, 10);
        }
        assert_eq!(mixed, scalar);
        assert!(trace.next().is_none());
    }

    #[test]
    #[should_panic(expected = "smaller than interleaver dimension")]
    fn mismatched_dimensions_panic() {
        let (config, _) = setup(16);
        let mapping = MappingKind::Optimized.build(&config, 8).unwrap();
        let interleaver = TriangularInterleaver::new(16).unwrap();
        let _ = TraceGenerator::new(interleaver, mapping.as_ref());
    }
}
