//! Synthetic biased-order dataset.
//!
//! Binary classification with `FEATURES` continuous features and a linear
//! ground truth. Samples are generated **sorted by label** within and
//! across partitions: partition `m` of `M` holds mostly-negative samples
//! for small `m` and mostly-positive for large `m`. Consuming them in
//! order (no shuffle) or in small windows therefore feeds SGD long
//! single-class runs — the order bias that makes shuffle quality show up
//! in convergence, as in the paper's HIGGS experiments.
//!
//! Generation reads one *trial stream* per partition: trial `t` is the
//! `t`-th run of 29 SplitMix64 draws (28 features, then noise), labelled
//! by the sign of `w · x + noise`. Sample `i` takes the first remaining
//! trial whose label it wants. This is rejection sampling — a rejected
//! trial consumes its 29 draws like an accepted one — so the stream does
//! not depend on which labels are wanted, and `Trials` can draw and
//! label it eight trials at a time. DESIGN.md §15.10 gives the exactness
//! argument.

use bytes::Bytes;
use exo_sim::SplitMix64;

/// Features per sample (HIGGS has 28).
pub const FEATURES: usize = 28;

/// Bytes per encoded sample: f32 features + f32 label.
pub const SAMPLE_BYTES: usize = (FEATURES + 1) * 4;

/// Dataset description.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Total samples across all partitions.
    pub samples: usize,
    /// Number of partitions (map tasks per shuffle epoch).
    pub partitions: usize,
    /// Generation seed.
    pub seed: u64,
    /// Logical bytes each sample stands for (on-disk format + decode
    /// volume). The in-memory feature vector is `SAMPLE_BYTES`; stored
    /// formats like CSV/Parquet with decode overhead are several times
    /// larger, which is what makes single-process loaders the bottleneck
    /// in Fig 8.
    pub logical_bytes_per_sample: u64,
}

impl DatasetSpec {
    /// A dataset whose logical size equals its in-memory size.
    pub fn new(samples: usize, partitions: usize, seed: u64) -> DatasetSpec {
        DatasetSpec {
            samples,
            partitions,
            seed,
            logical_bytes_per_sample: SAMPLE_BYTES as u64,
        }
    }

    /// Set the logical (stored/decoded) bytes per sample.
    pub fn with_logical_sample_bytes(mut self, bytes: u64) -> DatasetSpec {
        self.logical_bytes_per_sample = bytes;
        self
    }

    /// Samples in one partition.
    pub fn samples_per_partition(&self) -> usize {
        self.samples / self.partitions
    }

    /// Logical bytes of one partition.
    pub fn partition_bytes(&self) -> u64 {
        self.samples_per_partition() as u64 * self.logical_bytes_per_sample
    }

    /// Logical bytes for `n` samples.
    pub fn logical_for(&self, n: usize) -> u64 {
        n as u64 * self.logical_bytes_per_sample
    }
}

/// Ground-truth weights (fixed, so train/test agree).
pub fn true_weights(seed: u64) -> [f32; FEATURES] {
    let mut rng = SplitMix64::new(seed ^ 0xFEED_FACE);
    std::array::from_fn(|_| (rng.next_f64() as f32 - 0.5) * 2.0)
}

/// Trials drawn and labelled per batch; each lane holds one trial.
const LANES: usize = 8;

/// The trial stream of one generator seed, drawn and labelled [`LANES`]
/// trials at a time, each kept encoded as the sample it would become.
struct Trials {
    rng: SplitMix64,
    w: [f32; FEATURES],
    /// Encoded trials of the current batch (features, then label).
    batch: [[u8; SAMPLE_BYTES]; LANES],
    positive: [bool; LANES],
    /// First lane of `batch` not yet consumed.
    next: usize,
}

impl Trials {
    /// Draws and labels the next [`LANES`] trials in stream order.
    fn refill(&mut self) {
        let mut x = [[0f32; LANES]; FEATURES];
        let mut noise = [0f32; LANES];
        for (l, sample) in self.batch.iter_mut().enumerate() {
            for (j, bytes) in sample.chunks_exact_mut(4).take(FEATURES).enumerate() {
                let v = (self.rng.next_f64() as f32 - 0.5) * 2.0;
                x[j][l] = v;
                bytes.copy_from_slice(&v.to_le_bytes());
            }
            noise[l] = (self.rng.next_f64() as f32 - 0.5) * 0.2;
        }
        let dot = lane_dots(&x, &self.w);
        for l in 0..LANES {
            let positive = dot[l] + noise[l] > 0.0;
            let label: f32 = if positive { 1.0 } else { 0.0 };
            self.batch[l][FEATURES * 4..].copy_from_slice(&label.to_le_bytes());
            self.positive[l] = positive;
        }
        self.next = 0;
    }

    /// The encoded first remaining trial labelled `positive`; every
    /// trial before it is rejected.
    fn next_labelled(&mut self, positive: bool) -> &[u8; SAMPLE_BYTES] {
        loop {
            if self.next == LANES {
                self.refill();
            }
            let l = self.next;
            self.next += 1;
            if self.positive[l] == positive {
                return &self.batch[l];
            }
        }
    }
}

/// Each lane's `w · x`, summed in feature order as a lone trial sums it,
/// so every lane rounds exactly as that trial would.
fn lane_dots(x: &[[f32; LANES]; FEATURES], w: &[f32; FEATURES]) -> [f32; LANES] {
    // -0.0 is the neutral element `Iterator::sum` starts from.
    let mut dot = [-0.0f32; LANES];
    for (xj, wj) in x.iter().zip(w) {
        for (d, v) in dot.iter_mut().zip(xj) {
            *d += v * wj;
        }
    }
    dot
}

/// `n` encoded samples from the trial stream of `stream_seed`, sample `i`
/// labelled `positive(i)`.
fn gen_samples(
    data_seed: u64,
    stream_seed: u64,
    n: usize,
    positive: impl Fn(usize) -> bool,
) -> Vec<u8> {
    let mut trials = Trials {
        rng: SplitMix64::new(stream_seed),
        w: true_weights(data_seed),
        batch: [[0; SAMPLE_BYTES]; LANES],
        positive: [false; LANES],
        next: LANES,
    };
    let mut buf = Vec::with_capacity(n * SAMPLE_BYTES);
    for i in 0..n {
        buf.extend_from_slice(trials.next_labelled(positive(i)));
    }
    buf
}

/// Generate partition `m` as an encoded block (deterministic). The
/// positive-class fraction ramps from ~5% in the first partition to ~95%
/// in the last — the label-ordered layout.
pub fn gen_block(spec: &DatasetSpec, m: usize) -> Bytes {
    let n = spec.samples_per_partition();
    let frac_pos = if spec.partitions == 1 {
        0.5
    } else {
        0.05 + 0.9 * m as f64 / (spec.partitions - 1) as f64
    };
    let stream = spec.seed ^ (m as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
    Bytes::from(gen_samples(spec.seed, stream, n, |i| {
        (i as f64 / n as f64) < frac_pos
    }))
}

/// Decode a block into (features, labels).
pub fn decode_block(data: &[u8]) -> (Vec<[f32; FEATURES]>, Vec<f32>) {
    assert_eq!(data.len() % SAMPLE_BYTES, 0, "whole samples only");
    let f32_le = |b: &[u8]| f32::from_le_bytes(b.try_into().expect("f32"));
    data.chunks_exact(SAMPLE_BYTES)
        .map(|s| {
            let (features, label) = s.split_at(FEATURES * 4);
            let mut x = [0f32; FEATURES];
            for (v, b) in x.iter_mut().zip(features.chunks_exact(4)) {
                *v = f32_le(b);
            }
            (x, f32_le(label))
        })
        .unzip()
}

/// A held-out balanced test set (not label-ordered).
pub fn test_set(spec: &DatasetSpec, n: usize) -> (Vec<[f32; FEATURES]>, Vec<f32>) {
    decode_block(&gen_samples(spec.seed, spec.seed ^ 0x07E5_75E7, n, |i| {
        i % 2 == 0
    }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-sample rejection loop the trial stream replaced: the oracle.
    fn oracle_sample(
        rng: &mut SplitMix64,
        w: &[f32],
        want_positive: bool,
    ) -> ([f32; FEATURES], f32) {
        loop {
            let mut x = [0f32; FEATURES];
            for v in &mut x {
                *v = (rng.next_f64() as f32 - 0.5) * 2.0;
            }
            let dot: f32 = x.iter().zip(w).map(|(a, b)| a * b).sum();
            let noise = (rng.next_f64() as f32 - 0.5) * 0.2;
            let label = dot + noise > 0.0;
            if label == want_positive {
                return (x, if label { 1.0 } else { 0.0 });
            }
        }
    }

    fn oracle_encode(samples: impl Iterator<Item = ([f32; FEATURES], f32)>) -> Vec<u8> {
        let mut buf = Vec::new();
        for (x, y) in samples {
            for v in x.iter().chain([&y]) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    fn oracle_block(spec: &DatasetSpec, m: usize) -> Vec<u8> {
        let n = spec.samples_per_partition();
        let w = true_weights(spec.seed);
        let mut rng = SplitMix64::new(spec.seed ^ (m as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
        let frac_pos = if spec.partitions == 1 {
            0.5
        } else {
            0.05 + 0.9 * m as f64 / (spec.partitions - 1) as f64
        };
        oracle_encode((0..n).map(|i| {
            let want_positive = (i as f64 / n as f64) < frac_pos;
            oracle_sample(&mut rng, &w, want_positive)
        }))
    }

    fn oracle_test_set(spec: &DatasetSpec, n: usize) -> Vec<u8> {
        let w = true_weights(spec.seed);
        let mut rng = SplitMix64::new(spec.seed ^ 0x07E5_75E7);
        oracle_encode((0..n).map(|i| oracle_sample(&mut rng, &w, i % 2 == 0)))
    }

    /// FNV-1a 64 of `bytes`: the golden pins' checksum.
    pub(crate) fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn spec() -> DatasetSpec {
        DatasetSpec::new(4000, 8, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_block(&spec(), 3), gen_block(&spec(), 3));
        assert_ne!(gen_block(&spec(), 3), gen_block(&spec(), 4));
    }

    #[test]
    fn codec_roundtrips() {
        let b = gen_block(&spec(), 2);
        let (xs, ys) = decode_block(&b);
        assert_eq!(xs.len(), 500);
        assert_eq!(ys.len(), 500);
        assert!(ys.iter().all(|&y| y == 0.0 || y == 1.0));
    }

    #[test]
    fn label_order_bias_ramps_across_partitions() {
        let s = spec();
        let frac = |m: usize| {
            let (_, ys) = decode_block(&gen_block(&s, m));
            ys.iter().sum::<f32>() / ys.len() as f32
        };
        assert!(frac(0) < 0.2, "first partition mostly negative");
        assert!(frac(7) > 0.8, "last partition mostly positive");
    }

    #[test]
    fn test_set_is_balanced() {
        let (_, ys) = test_set(&spec(), 1000);
        let pos = ys.iter().sum::<f32>();
        assert!((400.0..600.0).contains(&pos));
    }

    /// Lengths and checksums of blocks generated by the per-sample
    /// rejection loop, before the trial stream replaced it: one
    /// partition, a sample count not a multiple of the lane count, and
    /// zero or one sample per partition among them.
    #[test]
    fn gen_block_matches_golden_checksums() {
        let golden = [
            (4000, 8, 42, 0, 58_000, 0xdfc4_4418_4bc7_0082),
            (4000, 8, 42, 3, 58_000, 0x110e_6c9b_f2df_a962),
            (4000, 8, 42, 7, 58_000, 0xeff1_9595_fd13_916d),
            (1000, 1, 7, 0, 116_000, 0x40c4_08eb_c951_21f3),
            (3021, 3, 5, 1, 116_812, 0xe748_6d14_7915_12b9),
            (5, 8, 1, 2, 0, 0xcbf2_9ce4_8422_2325),
            (8, 8, 1, 0, 116, 0x1d3e_9881_5c0a_ea9f),
            (8, 8, 1, 7, 116, 0x68ff_9844_1f6b_d6c2),
            (10_000, 8, 123, 5, 145_000, 0x7bc5_be7b_04f8_f5e0),
        ];
        for (samples, partitions, seed, m, len, sum) in golden {
            let b = gen_block(&DatasetSpec::new(samples, partitions, seed), m);
            assert_eq!(
                (b.len(), fnv(&b)),
                (len, sum),
                "{samples} {partitions} {seed} {m}"
            );
        }
    }

    #[test]
    fn test_set_matches_golden_checksum() {
        let (xs, ys) = test_set(&spec(), 2000);
        let bytes = oracle_encode(xs.into_iter().zip(ys));
        assert_eq!((bytes.len(), fnv(&bytes)), (232_000, 0x0c5e_be89_7596_35f4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn trial_stream_equals_rejection_loop(
            samples in 0usize..600,
            partitions in 1usize..6,
            seed in any::<u64>(),
            m in 0usize..6,
        ) {
            let spec = DatasetSpec::new(samples, partitions, seed);
            let m = m % partitions;
            prop_assert_eq!(&gen_block(&spec, m)[..], &oracle_block(&spec, m)[..]);
        }

        /// Values over twenty binary orders of magnitude, so a sum in
        /// any other order rounds differently.
        #[test]
        fn lane_dots_sum_in_feature_order(seed in any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            let mut wide = || ((rng.next_f64() - 0.5) * f64::powi(2.0, rng.next_below(20) as i32 - 10)) as f32;
            let w: [f32; FEATURES] = std::array::from_fn(|_| wide());
            let x: [[f32; LANES]; FEATURES] = std::array::from_fn(|_| std::array::from_fn(|_| wide()));
            let dots = lane_dots(&x, &w);
            for (l, dot) in dots.iter().enumerate() {
                let alone: f32 = x.iter().zip(&w).map(|(xj, wj)| xj[l] * wj).sum();
                prop_assert_eq!(dot.to_bits(), alone.to_bits());
            }
        }

        #[test]
        fn test_set_equals_rejection_loop(seed in any::<u64>(), n in 0usize..300) {
            let spec = DatasetSpec::new(8, 1, seed);
            let (xs, ys) = test_set(&spec, n);
            prop_assert_eq!(oracle_encode(xs.into_iter().zip(ys)), oracle_test_set(&spec, n));
        }
    }
}
