//! Per-epoch pipelined shuffle for ML training (§3.2.2, Listing 2
//! `model_training`).
//!
//! A training job re-shuffles its dataset every epoch. The loader overlaps
//! epoch `e+1`'s shuffle with epoch `e`'s training (Fig 2d-ii) and exposes
//! blocks as they become available, so the trainer never waits for a full
//! shuffle to materialise. A window mode reproduces the Petastorm-style
//! partial shuffle (Fig 2d-iii) for the accuracy/throughput trade-off of
//! Figure 9.

use exo_rt::{ObjectRef, RtHandle};

use crate::job::ShuffleJob;
use crate::{run_shuffle, ShuffleVariant};

/// How much of the dataset each shuffle round mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleWindow {
    /// Full distributed shuffle across the entire dataset per epoch.
    Full,
    /// Partial shuffle: only blocks within a window of `partitions`
    /// partitions are mixed (Petastorm-style local buffer shuffle).
    Window {
        /// Window size in partitions.
        partitions: usize,
    },
}

/// Loader configuration.
#[derive(Clone, Copy, Debug)]
pub struct LoaderConfig {
    /// Shuffle strategy for each epoch.
    pub variant: ShuffleVariant,
    /// Full or windowed shuffle.
    pub window: ShuffleWindow,
}

/// A pipelined per-epoch shuffling data loader.
pub struct EpochLoader<'rt> {
    rt: &'rt RtHandle,
    job: ShuffleJob,
    cfg: LoaderConfig,
    /// The shuffle for the *next* epoch, launched while the current one is
    /// being consumed.
    prefetched: Option<Vec<ObjectRef>>,
}

impl<'rt> EpochLoader<'rt> {
    /// Create a loader and start shuffling the first epoch.
    pub fn new(rt: &'rt RtHandle, job: ShuffleJob, cfg: LoaderConfig) -> Self {
        let mut loader = EpochLoader {
            rt,
            job,
            cfg,
            prefetched: None,
        };
        loader.prefetched = Some(loader.launch_epoch());
        loader
    }

    fn launch_epoch(&self) -> Vec<ObjectRef> {
        match self.cfg.window {
            ShuffleWindow::Full => run_shuffle(self.rt, &self.job, self.cfg.variant),
            ShuffleWindow::Window { partitions } => {
                // Windowed shuffle: run an independent small shuffle per
                // window of input partitions. Blocks never cross windows,
                // which is exactly the Petastorm limitation the paper
                // describes (shuffle quality capped by the buffer).
                let w = partitions.clamp(1, self.job.num_maps);
                let mut outs = Vec::with_capacity(self.job.num_reduces);
                let windows = self.job.num_maps.div_ceil(w);
                for win in 0..windows {
                    let lo = win * w;
                    let hi = ((win + 1) * w).min(self.job.num_maps);
                    let base_map = self.job.map.clone();
                    let sub_reduces = ((hi - lo) * self.job.num_reduces / self.job.num_maps).max(1);
                    let mut sub = self.job.clone();
                    sub.num_maps = hi - lo;
                    sub.num_reduces = sub_reduces;
                    sub.map =
                        std::sync::Arc::new(move |m, r_total, rng| base_map(lo + m, r_total, rng));
                    outs.extend(run_shuffle(self.rt, &sub, self.cfg.variant));
                }
                outs
            }
        }
    }

    /// Blocks for the next epoch, pipelined: the *following* epoch's
    /// shuffle is kicked off before these blocks are returned, so it
    /// overlaps with training (Listing 2, `model_training`).
    pub fn next_epoch(&mut self) -> Vec<ObjectRef> {
        let current = self
            .prefetched
            .take()
            .unwrap_or_else(|| self.launch_epoch());
        self.prefetched = Some(self.launch_epoch());
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::key_sum_job;
    use exo_rt::RtConfig;
    use exo_sim::{ClusterSpec, NodeSpec};

    #[test]
    fn full_window_yields_all_partitions_each_epoch() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
        let (_rep, counts) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(4, 4, 10);
            let mut loader = EpochLoader::new(
                rt,
                job,
                LoaderConfig {
                    variant: ShuffleVariant::Simple,
                    window: ShuffleWindow::Full,
                },
            );
            (0..3)
                .map(|_| loader.next_epoch().len())
                .collect::<Vec<_>>()
        });
        assert_eq!(counts, vec![4, 4, 4]);
    }

    #[test]
    fn windowed_shuffle_partitions_per_window() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
        let (_rep, n) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(8, 8, 10);
            let mut loader = EpochLoader::new(
                rt,
                job,
                LoaderConfig {
                    variant: ShuffleVariant::Simple,
                    window: ShuffleWindow::Window { partitions: 2 },
                },
            );
            loader.next_epoch().len()
        });
        // 4 windows × 2 reduce partitions each.
        assert_eq!(n, 8);
    }
}
