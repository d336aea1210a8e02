//! The benchmark's metric math, kept free of I/O so its unit tests pin
//! every formula the report depends on.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; `NaN` when
/// empty. Nearest-rank returns a value that was actually measured, so a
/// p90 over 100 rounds is the 90th smallest round and exactly ten rounds
/// lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many samples lie strictly above the `q` percentile — the report
/// states it next to every tail percentile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&x| x > p).count()
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a parent span `[start, end)`: its duration minus the part
/// of it that the union of its children covers. Children running in
/// parallel lanes overlap; the union counts each covered instant once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(ps, pe), e.clamp(ps, pe)))
        .collect();
    (pe - ps) - union_len(&clipped)
}

/// Effective number of parallel lanes of executor calls: the summed
/// closure time divided by the summed call wall time (0 when no call
/// took any time).
pub fn lane_busy(calls: &[(u64, u64)], closures: &[(u64, u64)]) -> f64 {
    let len = |v: &[(u64, u64)]| v.iter().map(|(s, e)| e - s).sum::<u64>();
    let wall = len(calls);
    if wall == 0 {
        return 0.0;
    }
    len(closures) as f64 / wall as f64
}

/// Share of invited uploads that never reached the aggregate:
/// `Σ dropped ÷ Σ (completed + dropped)`, 0 when nothing was attempted.
pub fn failed_upload_frac(completed: &[usize], dropped: &[usize]) -> f64 {
    let c: usize = completed.iter().sum();
    let d: usize = dropped.iter().sum();
    if c + d == 0 {
        0.0
    } else {
        d as f64 / (c + d) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_rounds_leaves_ten_beyond() {
        let rounds: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&rounds, 0.9), 90.0);
        assert_eq!(beyond(&rounds, 0.9), 10);
        assert_eq!(median(&rounds), 50.0);
    }

    #[test]
    fn percentile_edges() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.0), 1.0);
        assert_eq!(percentile(&[2.0, 1.0], 1.0), 2.0);
        // Ties above the percentile are not "beyond" it.
        let tied = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(beyond(&tied, 0.5), 0);
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (7, 7)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        // Two lanes: [10, 60) and [20, 90) overlap on [20, 60); together
        // they cover [10, 90) of the parent's [0, 100).
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 90)]), 20);
        // A child poking outside its parent is clipped to it.
        assert_eq!(self_time((0, 100), &[(50, 150)]), 50);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn lane_busy_counts_overlap_twice() {
        assert_eq!(lane_busy(&[(0, 100)], &[(0, 100), (0, 100)]), 2.0);
        assert_eq!(lane_busy(&[(0, 100)], &[(0, 50), (50, 100)]), 1.0);
        assert_eq!(lane_busy(&[(0, 100)], &[(0, 25)]), 0.25);
        // Pooled over calls: (100 + 60) ÷ (100 + 100).
        assert_eq!(
            lane_busy(&[(0, 100), (200, 300)], &[(0, 100), (200, 260)]),
            0.8
        );
        assert_eq!(lane_busy(&[(5, 5)], &[]), 0.0);
    }

    #[test]
    fn failed_upload_frac_pools_rounds() {
        assert_eq!(failed_upload_frac(&[10, 10], &[0, 0]), 0.0);
        assert_eq!(failed_upload_frac(&[30, 20], &[10, 20]), 0.375);
        assert_eq!(failed_upload_frac(&[0], &[40]), 1.0);
        assert_eq!(failed_upload_frac(&[], &[]), 0.0);
    }
}
