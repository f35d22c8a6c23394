//! The benchmark's own arithmetic: medians, geometric means, self times,
//! shares and digests.  Kept free of I/O so every formula is unit-tested.

use std::collections::HashSet;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of strictly positive `values`.  The empty product is 1, so
/// a workload with no cell of a kind reports the neutral value 1.  `None`
/// if any value is not strictly positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    if values.is_empty() {
        return Some(1.0);
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Self time of a span: its wall time minus the time its child spans cover.
/// Not clamped, so a negative value shows children measured longer than
/// their parent.
pub fn self_time(wall_s: f64, children_s: &[f64]) -> f64 {
    wall_s - children_s.iter().sum::<f64>()
}

/// Self time of a worker pool: its wall time minus the cell time each of
/// `workers` workers carried on average.
pub fn pool_self_time(wall_s: f64, cell_s: f64, workers: usize) -> f64 {
    wall_s - cell_s / workers.max(1) as f64
}

/// Parallel efficiency of a pool: summed cell time over wall × workers.
pub fn parallel_efficiency(cell_s: f64, wall_s: f64, workers: usize) -> f64 {
    ratio(cell_s, wall_s * workers.max(1) as f64)
}

/// Share of attempted cells that failed.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Share of items whose key already appeared at an earlier position.
pub fn repeat_share<K: std::hash::Hash + Eq>(keys: &[K]) -> f64 {
    let mut seen = HashSet::with_capacity(keys.len());
    let repeats = keys.iter().filter(|key| !seen.insert(*key)).count();
    ratio(repeats as f64, keys.len() as f64)
}

/// 64-bit FNV-1a hash, printed as the digest of simulated records.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_values_empty_and_invalid() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), Some(1.0));
        assert_eq!(geomean(&[2.0, 0.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert!((self_time(10.0, &[3.0, 4.5]) - 2.5).abs() < 1e-12);
        assert_eq!(self_time(1.0, &[]), 1.0);
        assert!(self_time(1.0, &[0.7, 0.5]) < 0.0);
    }

    #[test]
    fn pool_self_time_and_efficiency() {
        // Two workers carrying 18 s of cells in a 10 s wall: 1 s of pool
        // overhead, 90 % efficiency.
        assert!((pool_self_time(10.0, 18.0, 2) - 1.0).abs() < 1e-12);
        assert!((parallel_efficiency(18.0, 10.0, 2) - 0.9).abs() < 1e-12);
        assert_eq!(parallel_efficiency(1.0, 0.0, 1), 0.0);
    }

    #[test]
    fn failed_share_counts_against_attempted() {
        assert_eq!(failed_share(0, 20), 0.0);
        assert_eq!(failed_share(5, 20), 0.25);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn repeat_share_counts_later_duplicates() {
        assert_eq!(repeat_share(&["a", "b", "c"]), 0.0);
        assert_eq!(repeat_share(&["a", "a", "b", "a"]), 0.5);
        assert_eq!(repeat_share::<&str>(&[]), 0.0);
        // The campaign's shape: 8 distinct DRAM tuples each repeated over
        // 9 link cells repeat in 64 of 72 cells.
        let keys: Vec<u32> = (0..72).map(|cell| cell / 9).collect();
        assert_eq!(repeat_share(&keys), 64.0 / 72.0);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
