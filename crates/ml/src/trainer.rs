//! Training with Exoshuffle-based per-epoch shuffle, pipelined with GPU
//! compute (Listing 2 `model_training`, Fig 2d-ii).
//!
//! The driver launches epoch `e+1`'s shuffle before consuming epoch `e`'s
//! blocks; blocks are `get`-ed one at a time as the shuffle produces them,
//! and the GPU's step time is charged on the virtual clock while the data
//! plane keeps shuffling in the background.

use std::sync::Arc;

use exo_rt::{ObjectRef, Payload, RtHandle};
use exo_shuffle::{run_shuffle, Block, ShuffleJob, ShuffleVariant, ShuffleWindow};
use exo_sim::{SimDuration, SplitMix64};

use crate::dataset::{decode_block, gen_block, test_set, DatasetSpec, SAMPLE_BYTES};
use crate::model::LogisticModel;

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Dataset description.
    pub dataset: DatasetSpec,
    /// Epochs to train.
    pub epochs: usize,
    /// SGD mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Shuffle strategy per epoch.
    pub variant: ShuffleVariant,
    /// Full or windowed shuffle (Fig 9's full vs partial).
    pub window: ShuffleWindow,
    /// GPU time per sample (virtual), nanoseconds.
    pub gpu_ns_per_sample: f64,
}

/// What a training run produced.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Wall (virtual) duration of each epoch.
    pub epoch_times: Vec<SimDuration>,
    /// Test accuracy after each epoch.
    pub accuracy: Vec<f64>,
    /// End-to-end time.
    pub total_time: SimDuration,
}

/// Build the per-epoch random-reshuffle job. Each map reads its partition
/// and scatters samples uniformly at random across reducers; each reducer
/// gathers its samples in a local permutation. Task RNGs differ per epoch
/// because the tasks are new submissions.
pub fn reshuffle_job(spec: DatasetSpec, maps: usize, reduces: usize) -> ShuffleJob {
    let map = Arc::new(move |m: usize, r_total: usize, rng: &mut SplitMix64| {
        let block = gen_block(&spec, m);
        // Every destination first, in sample order, so each output is
        // allocated at its final size.
        let dests: Vec<usize> = (0..block.len() / SAMPLE_BYTES)
            .map(|_| rng.next_below(r_total as u64) as usize)
            .collect();
        let mut counts = vec![0; r_total];
        for &d in &dests {
            counts[d] += 1;
        }
        let mut outs: Vec<Vec<u8>> = counts
            .into_iter()
            .map(|c| Vec::with_capacity(c * SAMPLE_BYTES))
            .collect();
        for (s, &d) in block.chunks_exact(SAMPLE_BYTES).zip(&dests) {
            outs[d].extend_from_slice(s);
        }
        outs.into_iter()
            .map(|o| {
                let logical = spec.logical_for(o.len() / SAMPLE_BYTES);
                Payload::scaled(o, logical)
            })
            .collect()
    });
    let combine = Arc::new(|blocks: &[Block]| {
        let mut out = Vec::new();
        let mut logical = 0;
        for b in blocks {
            out.extend_from_slice(b.data);
            logical += b.logical;
        }
        Payload::scaled(out, logical)
    });
    let reduce = Arc::new(|r: usize, blocks: &[Payload]| {
        // Local permutation, deterministic in the partition contents,
        // gathered straight from the input blocks.
        let mut samples: Vec<&[u8]> = blocks
            .iter()
            .flat_map(|b| b.data.chunks_exact(SAMPLE_BYTES))
            .collect();
        let bytes: usize = blocks.iter().map(|b| b.data.len()).sum();
        let mut rng = SplitMix64::new(r as u64 ^ (bytes as u64).rotate_left(17));
        rng.shuffle(&mut samples);
        let logical = blocks.iter().map(|b| b.logical).sum();
        Payload::scaled(samples.concat(), logical)
    });
    ShuffleJob::new(maps, reduces, map, combine, reduce)
        .with_io(spec.partition_bytes(), 0)
        .with_cpu(
            exo_rt::CpuCost::input_throughput(500.0 * 1e6),
            exo_rt::CpuCost::input_throughput(1000.0 * 1e6),
            exo_rt::CpuCost::input_throughput(800.0 * 1e6),
        )
}

/// A window's shuffle with every task pinned to one node (fully local).
fn local_window_shuffle(
    rt: &RtHandle,
    job: &exo_shuffle::ShuffleJob,
    node: exo_rt::NodeId,
) -> Vec<ObjectRef> {
    let (m_total, r_total) = (job.num_maps, job.num_reduces);
    let map_out: Vec<Vec<ObjectRef>> = (0..m_total)
        .map(|m| {
            let map = job.map.clone();
            rt.task(move |ctx: exo_rt::TaskCtx| {
                let mut rng = ctx.rng;
                map(m, r_total, &mut rng)
            })
            .num_returns(r_total)
            .on_node(node)
            .cpu(job.map_cpu)
            .shape(job.map_shape())
            .reads_input(job.map_input_bytes)
            .label("map")
            .submit()
        })
        .collect();
    (0..r_total)
        .map(|r| {
            let reduce = job.reduce.clone();
            let column: Vec<&ObjectRef> = map_out.iter().map(|row| &row[r]).collect();
            rt.task(move |ctx: exo_rt::TaskCtx| vec![reduce(r, &ctx.args)])
                .args(column)
                .on_node(node)
                .cpu(job.reduce_cpu)
                .shape(job.reduce_shape())
                .label("reduce")
                .submit_one()
        })
        .collect()
}

fn launch_epoch(rt: &RtHandle, cfg: &TrainConfig) -> Vec<ObjectRef> {
    let maps = cfg.dataset.partitions;
    let reduces = cfg.dataset.partitions;
    match cfg.window {
        ShuffleWindow::Full => {
            let job = reshuffle_job(cfg.dataset, maps, reduces);
            run_shuffle(rt, &job, cfg.variant)
        }
        ShuffleWindow::Window { partitions } => {
            // Independent, *node-local* shuffles per window: no
            // cross-window mixing and no network — the Petastorm-emulating
            // partial shuffle of §5.2.2 ("fully local").
            let w = partitions.clamp(1, maps);
            let nodes = rt.num_nodes();
            let mut outs = Vec::new();
            let mut lo = 0;
            let mut win = 0;
            while lo < maps {
                let hi = (lo + w).min(maps);
                let spec = cfg.dataset;
                let base_lo = lo;
                let mut sub = reshuffle_job(spec, hi - lo, hi - lo);
                let inner = sub.map.clone();
                sub.map = Arc::new(move |m, r_total, rng| inner(base_lo + m, r_total, rng));
                outs.extend(local_window_shuffle(rt, &sub, exo_rt::NodeId(win % nodes)));
                win += 1;
                lo = hi;
            }
            outs
        }
    }
}

/// Run the full pipelined training loop; returns per-epoch timings and
/// accuracy.
pub fn exoshuffle_training(rt: &RtHandle, cfg: &TrainConfig) -> TrainReport {
    let (tx, ty) = test_set(&cfg.dataset, 2000);
    let mut model = LogisticModel::new();
    let mut epoch_times = Vec::with_capacity(cfg.epochs);
    let mut accuracy = Vec::with_capacity(cfg.epochs);
    let start = rt.now();

    let mut current = launch_epoch(rt, cfg);
    for epoch in 0..cfg.epochs {
        // Kick off the next epoch's shuffle before consuming this one.
        let next = if epoch + 1 < cfg.epochs {
            Some(launch_epoch(rt, cfg))
        } else {
            None
        };
        let t0 = rt.now();
        for block in current.drain(..) {
            let p = rt.get_one(&block).expect("shuffled block");
            drop(block); // release the ref so the block can be evicted
            let (xs, ys) = decode_block(&p.data);
            model.train_block(&xs, &ys, cfg.batch_size, cfg.lr);
            // GPU time for this block; the data plane keeps working.
            let gpu = SimDuration::from_secs_f64(xs.len() as f64 * cfg.gpu_ns_per_sample / 1e9);
            rt.sleep(gpu);
        }
        epoch_times.push(rt.now() - t0);
        accuracy.push(model.accuracy(&tx, &ty));
        if let Some(next) = next {
            current = next;
        }
    }
    TrainReport {
        epoch_times,
        accuracy,
        total_time: rt.now() - start,
    }
}

/// Train on unshuffled (label-ordered) data — the no-shuffle lower bound
/// used in tests and ablations.
pub fn unshuffled_training(cfg: &TrainConfig) -> f64 {
    let (tx, ty) = test_set(&cfg.dataset, 2000);
    let mut model = LogisticModel::new();
    for _ in 0..cfg.epochs {
        for m in 0..cfg.dataset.partitions {
            let (xs, ys) = decode_block(&gen_block(&cfg.dataset, m));
            model.train_block(&xs, &ys, cfg.batch_size, cfg.lr);
        }
    }
    model.accuracy(&tx, &ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::tests::fnv;
    use exo_rt::RtConfig;
    use exo_sim::{ClusterSpec, NodeSpec};
    use proptest::prelude::*;

    const _: () = assert!(crate::dataset::FEATURES == 28);

    fn cfg() -> TrainConfig {
        TrainConfig {
            dataset: DatasetSpec::new(8000, 8, 9),
            epochs: 3,
            batch_size: 64,
            lr: 0.5,
            variant: ShuffleVariant::Simple,
            window: ShuffleWindow::Full,
            gpu_ns_per_sample: 50_000.0,
        }
    }

    fn rt_cfg() -> RtConfig {
        RtConfig::new(ClusterSpec::homogeneous(NodeSpec::g4dn_4xlarge(), 1))
    }

    #[test]
    fn full_shuffle_training_converges() {
        let c = cfg();
        let (_rep, report) = exo_rt::run(rt_cfg(), |rt| exoshuffle_training(rt, &c));
        assert_eq!(report.accuracy.len(), 3);
        let final_acc = *report.accuracy.last().expect("epochs ran");
        assert!(
            final_acc > 0.85,
            "full shuffle should converge, got {final_acc}"
        );
        assert!(report.total_time > SimDuration::ZERO);
    }

    #[test]
    fn full_shuffle_beats_unshuffled_baseline() {
        let c = cfg();
        let (_rep, report) = exo_rt::run(rt_cfg(), |rt| exoshuffle_training(rt, &c));
        let unshuffled = unshuffled_training(&c);
        let shuffled = *report.accuracy.last().expect("epochs ran");
        assert!(
            shuffled > unshuffled,
            "shuffled {shuffled} should beat label-ordered {unshuffled}"
        );
    }

    #[test]
    fn windowed_shuffle_converges_worse_or_equal() {
        let mut full = cfg();
        full.epochs = 2;
        let mut windowed = full;
        windowed.window = ShuffleWindow::Window { partitions: 1 };
        let (_r1, full_rep) = exo_rt::run(rt_cfg(), |rt| exoshuffle_training(rt, &full));
        let (_r2, win_rep) = exo_rt::run(rt_cfg(), |rt| exoshuffle_training(rt, &windowed));
        let f = *full_rep.accuracy.last().expect("ran");
        let w = *win_rep.accuracy.last().expect("ran");
        assert!(f >= w - 0.02, "full {f} vs windowed {w}");
    }

    /// The map's scatter before presizing: each sample appended to a
    /// growing output.
    fn oracle_map(
        spec: DatasetSpec,
        m: usize,
        r_total: usize,
        rng: &mut SplitMix64,
    ) -> Vec<Vec<u8>> {
        let mut outs = vec![Vec::new(); r_total];
        for s in gen_block(&spec, m).chunks_exact(SAMPLE_BYTES) {
            outs[rng.next_below(r_total as u64) as usize].extend_from_slice(s);
        }
        outs
    }

    /// The reduce before gathering from the blocks: concatenate, then
    /// permute sample indices.
    fn oracle_reduce(r: usize, blocks: &[Payload]) -> Vec<u8> {
        let out: Vec<u8> = blocks.iter().flat_map(|b| b.data.iter().copied()).collect();
        let mut order: Vec<usize> = (0..out.len() / SAMPLE_BYTES).collect();
        SplitMix64::new(r as u64 ^ (out.len() as u64).rotate_left(17)).shuffle(&mut order);
        order
            .iter()
            .flat_map(|&i| {
                out[i * SAMPLE_BYTES..(i + 1) * SAMPLE_BYTES]
                    .iter()
                    .copied()
            })
            .collect()
    }

    /// One partition's column of the map outputs, each map with its own
    /// task RNG.
    fn column(job: &ShuffleJob, r: usize) -> Vec<Payload> {
        (0..job.num_maps)
            .map(|m| (job.map)(m, job.num_reduces, &mut SplitMix64::new(m as u64)).swap_remove(r))
            .collect()
    }

    /// Outputs computed by the scatter and reduce before presizing.
    #[test]
    fn reshuffle_matches_golden_checksums() {
        let spec = DatasetSpec::new(4000, 8, 42).with_logical_sample_bytes(1000);
        let job = reshuffle_job(spec, 8, 8);
        let golden: [(usize, u64, u64); 8] = [
            (7076, 61_000, 0xcb46_bf03_139a_26f4),
            (6960, 60_000, 0xc666_286c_5178_8565),
            (7076, 61_000, 0x01d3_dd46_62e8_9f4f),
            (6264, 54_000, 0x804d_3ef0_9aa4_1022),
            (6264, 54_000, 0xb418_a081_b220_3be7),
            (7656, 66_000, 0x40d0_f5d8_d694_f9e8),
            (8584, 74_000, 0xf8f6_cd9e_0ead_332f),
            (8120, 70_000, 0x8564_ea03_3665_06d5),
        ];
        let outs = (job.map)(2, 8, &mut SplitMix64::new(99));
        for (o, (len, logical, sum)) in outs.iter().zip(golden) {
            assert_eq!((o.data.len(), o.logical, fnv(&o.data)), (len, logical, sum));
        }
        let red = (job.reduce)(3, &column(&job, 3));
        assert_eq!(
            (red.data.len(), red.logical, fnv(&red.data)),
            (61_828, 533_000, 0xcd2b_7f97_e963_0048)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn presized_scatter_equals_per_sample_extend(
            samples in 0usize..400,
            maps in 1usize..5,
            r_total in 1usize..9,
            seed in any::<u64>(),
            task_seed in any::<u64>(),
        ) {
            let spec = DatasetSpec::new(samples, maps, seed);
            let job = reshuffle_job(spec, maps, r_total);
            for m in 0..maps {
                let outs = (job.map)(m, r_total, &mut SplitMix64::new(task_seed));
                let want = oracle_map(spec, m, r_total, &mut SplitMix64::new(task_seed));
                let got: Vec<&[u8]> = outs.iter().map(|p| &p.data[..]).collect();
                prop_assert_eq!(got, want.iter().map(|v| &v[..]).collect::<Vec<_>>());
            }
            for r in 0..r_total {
                let blocks = column(&job, r);
                prop_assert_eq!(&(job.reduce)(r, &blocks).data[..], &oracle_reduce(r, &blocks)[..]);
            }
        }
    }
}
