//! Percentiles, quiet segments and the per-segment latency recorder.
//!
//! Every end-to-end timing is a percentile over the pooled samples of the
//! **three quietest of the five measured segments** — quietest by the very
//! percentile asked for, so a p99 drops the two segments with the highest
//! p99 of their own. A stall or a noisy neighbour that lands in one or two
//! segments drops those segments, not the result; and pooling three segments
//! puts three times the samples behind a p99 than the median of five
//! per-segment p99s would — which matters where the distribution has its knee
//! right at p99 and a per-segment estimate flips between the two sides of it.

use std::time::Instant;

/// Segments the measured phase is cut into.
pub const SEGMENTS: usize = 5;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Segments kept of [`SEGMENTS`] when pooling.
const QUIET: usize = 3;

/// The `p`-th percentile over the pooled samples of the [`QUIET`] non-empty
/// segments whose own `p`-th percentile is lowest. `None` when no segment
/// holds a sample.
pub fn quiet_percentile(segments: &[Vec<u64>], p: f64) -> Option<f64> {
    let mut sorted: Vec<Vec<u64>> = segments.iter().filter(|s| !s.is_empty()).cloned().collect();
    for s in &mut sorted {
        s.sort_unstable();
    }
    sorted.sort_by_key(|s| percentile(s, p));
    let mut pool = sorted
        .into_iter()
        .take(QUIET)
        .flatten()
        .collect::<Vec<u64>>();
    pool.sort_unstable();
    (!pool.is_empty()).then(|| percentile(&pool, p) as f64)
}

/// The highest of p99 / p99.9 / p99.99 that leaves at least ten samples
/// beyond it in a sample of `n`, or `None` when even p99 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [(99.99, 10_000), (99.9, 1_000), (99.0, 100)]
        .into_iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map(|(p, _)| p)
}

/// Nanosecond latency samples, one bucket per `(segment, op kind)`.
pub struct Recorder {
    kinds: Vec<&'static str>,
    samples: Vec<Vec<Vec<u64>>>,
    /// The segment `record` currently files into; [`DISCARD`] drops samples.
    pub segment: usize,
}

/// The segment whose samples nobody reads: operations run to get caches
/// warm again after another scenario had the processor.
pub const DISCARD: usize = SEGMENTS;

impl Recorder {
    pub fn new(kinds: &[&'static str]) -> Recorder {
        Recorder {
            kinds: kinds.to_vec(),
            samples: vec![vec![Vec::new(); kinds.len()]; SEGMENTS],
            segment: 0,
        }
    }

    /// Forget every sample (the warm-up's are not the run's).
    pub fn reset(&mut self) {
        *self = Recorder::new(&self.kinds);
    }

    fn kind(&self, kind: &str) -> usize {
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("unknown op kind {kind}"))
    }

    pub fn record(&mut self, kind: &str, ns: u64) {
        let k = self.kind(kind);
        if let Some(segment) = self.samples.get_mut(self.segment) {
            segment[k].push(ns);
        }
    }

    /// Time `f` and file it under `kind`.
    pub fn time<R>(&mut self, kind: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(kind, t.elapsed().as_nanos() as u64);
        r
    }

    fn segments_of(&self, kind: &str) -> Vec<Vec<u64>> {
        let k = self.kind(kind);
        self.samples.iter().map(|seg| seg[k].clone()).collect()
    }

    /// [`quiet_percentile`] of `kind`, in microseconds.
    pub fn us(&self, kind: &str, p: f64) -> Option<f64> {
        quiet_percentile(&self.segments_of(kind), p).map(|ns| ns / 1e3)
    }

    /// Sum of every sample of `kind`, in nanoseconds.
    pub fn total_ns(&self, kind: &str) -> u64 {
        let k = self.kind(kind);
        self.samples.iter().flat_map(|seg| seg[k].iter()).sum()
    }

    /// One human line per op kind: count, p50, p99, the highest percentile
    /// the sample supports, and the max (pooled over segments; not gated).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for kind in &self.kinds {
            let mut all: Vec<u64> = self.segments_of(kind).concat();
            if all.is_empty() {
                continue;
            }
            all.sort_unstable();
            let us = |p: f64| percentile(&all, p) as f64 / 1e3;
            out.push_str(&format!(
                "  {kind:<12} n={:<8} p50={:.1}us p99={:.1}us",
                all.len(),
                us(50.0),
                us(99.0)
            ));
            if let Some(p) = tail_percentile(all.len()).filter(|p| *p > 99.0) {
                out.push_str(&format!(" p{p}={:.1}us", us(p)));
            }
            out.push_str(&format!(" max={:.1}us\n", us(100.0)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_percentile_drops_the_two_noisiest_segments() {
        // Three quiet segments, one shifted 2x as a whole, one whose tail is
        // 100x: the reported p99 is the quiet segments'.
        let quiet: Vec<u64> = (1..=1000).collect();
        let slow: Vec<u64> = quiet.iter().map(|s| s * 2).collect();
        let mut stalled: Vec<u64> = quiet.iter().map(|s| s + 1).collect();
        for s in stalled.iter_mut().skip(900) {
            *s *= 100;
        }
        let segs = vec![quiet.clone(), slow, quiet.clone(), stalled, quiet];
        assert_eq!(quiet_percentile(&segs, 99.0), Some(990.0));
        assert_eq!(quiet_percentile(&segs, 50.0), Some(500.0));
        assert_eq!(quiet_percentile(&[vec![], vec![]], 50.0), None);
        // Empty segments are skipped, not counted as zero.
        assert_eq!(quiet_percentile(&[vec![], vec![5]], 50.0), Some(5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(999), None);
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn recorder_files_by_segment_and_kind() {
        let mut r = Recorder::new(&["read", "update"]);
        r.record("read", 1_000);
        r.segment = 1;
        r.record("read", 3_000);
        r.record("update", 9_000);
        r.segment = DISCARD;
        r.record("read", 1_000_000);
        assert_eq!(r.total_ns("read"), 4_000);
        // Both segments are pooled: nearest rank of [1 000, 3 000].
        assert_eq!(r.us("read", 50.0), Some(1.0));
        assert_eq!(r.us("update", 50.0), Some(9.0));
    }
}
