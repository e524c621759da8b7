//! Deterministic online quantile sketch: an HDR-style log-bucketed
//! histogram over microsecond durations.
//!
//! No randomness, no retained samples, fixed bucket count. Values below
//! `2^SUB_BITS` get exact unit-width buckets; above that, each octave
//! `[2^k, 2^(k+1))` is split into `2^SUB_BITS` equal sub-buckets, so a
//! bucket's width is at most `1/2^SUB_BITS` of its lower edge. Reported
//! quantiles are the *upper edge* of the bucket holding the rank, which
//! bounds the error one-sidedly:
//!
//! ```text
//! exact ≤ reported ≤ exact × (1 + RELATIVE_ERROR)
//! ```
//!
//! (the proptest in `tests/proptests.rs` checks exactly this bound
//! against sorted exact percentiles).

/// Sub-bucket resolution exponent: `2^SUB_BITS` sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32
/// Values saturate below `2^MAX_OCTAVE` µs (~12.7 virtual days).
const MAX_OCTAVE: u32 = 40;
const BUCKETS: usize = SUB + (MAX_OCTAVE - SUB_BITS) as usize * SUB;

/// One-sided relative error bound of reported quantiles.
// audit:allow(U01): the sketch accuracy oracles (tests/proptests.rs,
// tests/live_observability.rs) bound quantile error by it.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

/// Fixed-memory histogram of `u64` microsecond values.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let v = v.min((1u64 << MAX_OCTAVE) - 1);
        let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        SUB + (msb - SUB_BITS) as usize * SUB + sub
    }

    /// Upper edge of bucket `idx` — the value reported for ranks that
    /// land in it.
    fn upper(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let oct = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        let shift = oct as u32;
        let lo = ((SUB + sub) as u64) << shift;
        lo + (1u64 << shift) - 1
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum of the recorded values (not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum of the recorded values; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Absorbs every sample of `other` into `self`. Buckets are aligned
    /// by construction (same fixed geometry), so merging is an
    /// element-wise sum and the merged sketch is *identical* to one that
    /// recorded both sample sets directly — the ≤[`RELATIVE_ERROR`]
    /// one-sided quantile bound is preserved exactly (property-tested in
    /// `tests/proptests.rs`).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (0..=1): the upper edge of the bucket
    /// containing the rank-`⌈q·n⌉` smallest sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the exact max (the top bucket's
                // upper edge can overshoot it).
                return Self::upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// A run-so-far / recent-window split over one metric: samples land in
/// the `window` sketch; [`BaselineSketch::rotate`] merges the window
/// into the `baseline` and clears it. Drift detectors (exo-watch's
/// queue-delay blowup) compare the current window's quantiles against
/// the baseline of everything that came before it — the "is *now*
/// different from *this run so far*" question a single cumulative
/// sketch cannot answer.
#[derive(Debug, Clone, Default)]
pub struct BaselineSketch {
    baseline: QuantileSketch,
    window: QuantileSketch,
}

impl BaselineSketch {
    pub fn new() -> BaselineSketch {
        BaselineSketch::default()
    }

    /// Records into the current window.
    pub fn record(&mut self, v: u64) {
        self.window.record(v);
    }

    /// Run-so-far sketch, excluding the current window.
    pub fn baseline(&self) -> &QuantileSketch {
        &self.baseline
    }

    /// The current (not yet rotated) window sketch.
    pub fn window(&self) -> &QuantileSketch {
        &self.window
    }

    /// Folds the current window into the baseline and starts a fresh
    /// window. Merging is exact (aligned buckets), so after any sequence
    /// of rotations `baseline` is identical to a sketch that recorded
    /// every pre-window sample directly.
    pub fn rotate(&mut self) {
        let window = std::mem::take(&mut self.window);
        self.baseline.merge(&window);
    }

    /// Everything recorded so far, baseline and window merged: the
    /// same sketch as one that recorded every sample directly, however
    /// often the window was rotated.
    pub fn cumulative(&self) -> QuantileSketch {
        let mut all = self.baseline.clone();
        all.merge(&self.window);
        all
    }

    /// Total samples recorded (baseline + window).
    pub fn count(&self) -> u64 {
        self.baseline.count() + self.window.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 1, 5, 17, 31] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 5);
        assert_eq!(s.quantile(1.0), 31);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 31);
    }

    #[test]
    fn quantiles_bound_exact_values() {
        let mut s = QuantileSketch::new();
        let vals: Vec<u64> = (0..10_000u64).map(|i| i * 37 + 13).collect();
        for &v in &vals {
            s.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = s.quantile(q);
            assert!(est >= exact, "q={q}: {est} < {exact}");
            assert!(
                est as f64 <= exact as f64 * (1.0 + RELATIVE_ERROR),
                "q={q}: {est} vs {exact}"
            );
        }
    }

    #[test]
    fn saturates_at_cap_without_panicking() {
        let mut s = QuantileSketch::new();
        s.record(u64::MAX);
        s.record(1 << 50);
        assert_eq!(s.count(), 2);
        assert!(s.quantile(1.0) >= (1u64 << MAX_OCTAVE) - (1 << (MAX_OCTAVE - SUB_BITS)));
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0usize;
        for v in (0..1_000_000u64).step_by(997) {
            let i = QuantileSketch::index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i < BUCKETS);
            last = i;
        }
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn merge_is_identical_to_direct_recording() {
        let (mut a, mut b, mut direct) = (
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        );
        for v in (0..500u64).map(|i| i * 101 + 7) {
            a.record(v);
            direct.record(v);
        }
        for v in (0..300u64).map(|i| i * 977 + 3) {
            b.record(v);
            direct.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), direct.count());
        assert_eq!(a.min(), direct.min());
        assert_eq!(a.max(), direct.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), direct.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merging_an_empty_sketch_is_a_noop() {
        let mut a = QuantileSketch::new();
        a.record(42);
        a.merge(&QuantileSketch::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), 42);
        assert_eq!(a.max(), 42);
        let mut empty = QuantileSketch::new();
        empty.merge(&a);
        assert_eq!(empty.quantile(0.5), a.quantile(0.5));
    }

    #[test]
    fn baseline_split_rotates_window_into_baseline() {
        let mut s = BaselineSketch::new();
        for v in [10u64, 12, 11, 13] {
            s.record(v);
        }
        assert_eq!(s.baseline().count(), 0);
        assert_eq!(s.window().count(), 4);
        s.rotate();
        assert_eq!(s.baseline().count(), 4);
        assert_eq!(s.window().count(), 0);
        // A drifted second window never contaminates the baseline until
        // rotated.
        for v in [500u64, 510] {
            s.record(v);
        }
        assert_eq!(s.baseline().quantile(0.99), 13);
        let p50 = s.window().quantile(0.5);
        assert!((500..=500 + (500.0 * RELATIVE_ERROR) as u64).contains(&p50));
        assert_eq!(s.count(), 6);
        s.rotate();
        assert_eq!(s.baseline().max(), 510);
    }
}
