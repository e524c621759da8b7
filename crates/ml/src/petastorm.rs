//! Petastorm-style buffered data loading — the single-node baseline of
//! Fig 8.
//!
//! Petastorm (like tf.data and the PyTorch DataLoader) "prefetches data in
//! batches into a per-process memory buffer and performs random shuffle in
//! the buffer". Two consequences the paper measures:
//!
//! 1. **Shuffle window ≤ buffer**: mixing is limited to a sliding window
//!    (9% of the dataset in the paper's runs, to avoid OOM), so
//!    label-ordered data stays partially ordered → worse convergence.
//! 2. **Single-process decode**: the loader decodes on one process while
//!    the trainer computes, so epochs are loader-bound when decode is
//!    slower than the GPU → ~2.4× slower end-to-end than the
//!    Exoshuffle-based pipeline that shuffles with all cores.

use exo_rt::{CpuCost, Payload, RtHandle, TaskCtx};
use exo_sim::{SimDuration, SplitMix64};

use crate::dataset::{decode_block, gen_block, test_set, DatasetSpec, FEATURES};
use crate::model::LogisticModel;
use crate::trainer::TrainReport;

/// Petastorm-style loader configuration.
#[derive(Clone, Copy, Debug)]
pub struct PetastormConfig {
    /// Dataset description.
    pub dataset: DatasetSpec,
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Shuffle-buffer size as a fraction of the dataset (the paper uses
    /// 9% to avoid OOM).
    pub buffer_fraction: f64,
    /// GPU time per sample, nanoseconds.
    pub gpu_ns_per_sample: f64,
    /// Single-loader decode throughput, bytes/sec (Parquet decode on one
    /// Python process; ~80 MB/s is typical).
    pub decode_throughput: f64,
}

/// Errors a buffered loader can hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PetastormError {
    /// The requested shuffle buffer exceeds executor memory — the OOM the
    /// paper describes when users enlarge the window.
    BufferTooLarge {
        /// Requested buffer bytes.
        requested: u64,
        /// Executor heap budget.
        budget: u64,
    },
}

/// Run Petastorm-style training: sequential chunk reads through a
/// single-process decoder, sliding-window shuffle in a bounded buffer.
pub fn petastorm_training(
    rt: &RtHandle,
    cfg: &PetastormConfig,
) -> Result<TrainReport, PetastormError> {
    let total_bytes = cfg.dataset.partitions as u64 * cfg.dataset.partition_bytes();
    let buffer_bytes = (total_bytes as f64 * cfg.buffer_fraction) as u64;
    let heap = 16_000_000_000u64; // g4dn.4xlarge-ish per-process budget
    if buffer_bytes > heap {
        return Err(PetastormError::BufferTooLarge {
            requested: buffer_bytes,
            budget: heap,
        });
    }
    let buffer_samples = ((cfg.dataset.samples as f64 * cfg.buffer_fraction) as usize).max(1);

    let (tx, ty) = test_set(&cfg.dataset, 2000);
    let mut model = LogisticModel::new();
    let mut epoch_times = Vec::with_capacity(cfg.epochs);
    let mut accuracy = Vec::with_capacity(cfg.epochs);
    let start = rt.now();
    let mut draw_rng = SplitMix64::new(cfg.dataset.seed ^ 0xBEEF);

    for _epoch in 0..cfg.epochs {
        let t0 = rt.now();
        // One read+decode task per partition. Tasks run on the single
        // loader process: CPU cost at single-stream decode throughput and
        // 1-deep prefetch (submit i+1 before consuming i).
        let spec = cfg.dataset;
        let submit_chunk = |m: usize| {
            rt.task(move |_ctx: TaskCtx| vec![Payload::inline(gen_block(&spec, m))])
                .on_node(exo_rt::NodeId(0))
                .reads_input(spec.partition_bytes())
                .cpu(CpuCost::input_throughput(cfg.decode_throughput))
                .shape(
                    exo_rt::TaskShape::from_cost(
                        CpuCost::input_throughput(cfg.decode_throughput),
                        spec.partition_bytes(),
                    )
                    .with_disk(spec.partition_bytes()),
                )
                .label("decode")
                .submit_one()
        };
        let mut pending = Some(submit_chunk(0));
        let mut next_m = 1;
        let mut buffer: Vec<([f32; FEATURES], f32)> = Vec::with_capacity(buffer_samples);
        loop {
            // Refill the buffer from arriving chunks while below capacity.
            while buffer.len() < buffer_samples {
                let Some(chunk) = pending.take() else { break };
                // Prefetch depth 1: launch the next chunk before blocking.
                if next_m < spec.partitions {
                    pending = Some(submit_chunk(next_m));
                    next_m += 1;
                }
                let p = rt.get_one(&chunk).expect("chunk decoded");
                let (xs, ys) = decode_block(&p.data);
                buffer.extend(xs.into_iter().zip(ys));
            }
            if buffer.is_empty() {
                break;
            }
            // Draw one random mini-batch from the buffer (window shuffle).
            let take = cfg.batch_size.min(buffer.len());
            let mut bx = Vec::with_capacity(take);
            let mut by = Vec::with_capacity(take);
            for _ in 0..take {
                let i = draw_rng.next_below(buffer.len() as u64) as usize;
                let (x, y) = buffer.swap_remove(i);
                bx.push(x);
                by.push(y);
            }
            model.sgd_batch(&bx, &by, cfg.lr);
            let gpu = SimDuration::from_secs_f64(take as f64 * cfg.gpu_ns_per_sample / 1e9);
            rt.sleep(gpu);
        }
        epoch_times.push(rt.now() - t0);
        accuracy.push(model.accuracy(&tx, &ty));
    }
    Ok(TrainReport {
        epoch_times,
        accuracy,
        total_time: rt.now() - start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_rt::RtConfig;
    use exo_sim::{ClusterSpec, NodeSpec};

    fn cfg() -> PetastormConfig {
        PetastormConfig {
            dataset: DatasetSpec::new(8000, 8, 9),
            epochs: 3,
            batch_size: 64,
            lr: 0.5,
            buffer_fraction: 0.09,
            gpu_ns_per_sample: 50_000.0,
            decode_throughput: 80.0 * 1e6,
        }
    }

    fn rt_cfg() -> RtConfig {
        RtConfig::new(ClusterSpec::homogeneous(NodeSpec::g4dn_4xlarge(), 1))
    }

    #[test]
    fn trains_and_reports_epochs() {
        let c = cfg();
        let (_rep, report) = exo_rt::run(rt_cfg(), |rt| petastorm_training(rt, &c));
        let report = report.expect("buffer fits");
        assert_eq!(report.epoch_times.len(), 3);
        assert_eq!(report.accuracy.len(), 3);
        // Even window shuffle learns something.
        assert!(*report.accuracy.last().expect("ran") > 0.6);
    }

    #[test]
    fn oversized_buffer_ooms() {
        let mut c = cfg();
        // A dataset so large that 50% of it exceeds the heap budget.
        c.dataset = DatasetSpec::new(400_000_000, 8, 1);
        c.buffer_fraction = 0.5;
        let (_rep, out) = exo_rt::run(rt_cfg(), |rt| petastorm_training(rt, &c));
        assert!(matches!(out, Err(PetastormError::BufferTooLarge { .. })));
    }
}
