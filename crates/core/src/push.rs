//! ES-push: Magnet-style push-based shuffle (§3.1.3, Listing 1
//! `shuffle_magnet`).
//!
//! Blocks are pushed to the *reducer's* node as soon as they are computed
//! and merged there, so the final reduce reads locally-merged large blocks.
//! In the distributed-futures formulation, "push" falls out of submitting
//! the merge tasks up front with node affinity for the partition's home
//! node: the data plane starts moving each map output to its merge task the
//! moment it is sealed, overlapping network I/O with the remaining maps.

use exo_rt::{NodeId, ObjectRef, RtHandle, SchedulingStrategy, TaskCtx};

use crate::job::{Block, ShuffleJob};

/// Tuning for push-based shuffle.
#[derive(Clone, Copy, Debug)]
pub struct PushConfig {
    /// Map outputs merged per merge task (`F`).
    pub factor: usize,
    /// Pin merge tasks to their partition's home node. Disabling this is
    /// the locality ablation: merges scatter and reduces lose locality.
    pub affinity: bool,
}

impl PushConfig {
    /// Standard configuration with the given merge factor.
    pub fn new(factor: usize) -> PushConfig {
        PushConfig {
            factor,
            affinity: true,
        }
    }
}

/// The node that "owns" reduce partition `r` on a `nodes`-node cluster.
pub fn reducer_home(r: usize, nodes: usize) -> NodeId {
    NodeId(r % nodes)
}

/// Run the Magnet-style shuffle; returns the `R` reduce-output futures.
pub fn push_shuffle(rt: &RtHandle, job: &ShuffleJob, cfg: PushConfig) -> Vec<ObjectRef> {
    let (m_total, r_total) = (job.num_maps, job.num_reduces);
    let factor = cfg.factor.max(1);
    let nodes = rt.num_nodes();

    let map_out: Vec<Vec<ObjectRef>> = (0..m_total)
        .map(|m| {
            let map = job.map.clone();
            rt.task(move |ctx: TaskCtx| {
                let mut rng = ctx.rng;
                map(m, r_total, &mut rng)
            })
            .num_returns(r_total)
            .strategy(SchedulingStrategy::Spread)
            .cpu(job.map_cpu)
            .shape(job.map_shape())
            .reads_input(job.map_input_bytes)
            .label("map")
            .submit()
        })
        .collect();

    // merge_out[g][r]: per-(group, partition) merge, pinned to the
    // partition's home node — the push destination.
    let groups = map_out.chunks(factor).collect::<Vec<_>>();
    let merge_out: Vec<Vec<ObjectRef>> = groups
        .iter()
        .map(|group| {
            (0..r_total)
                .map(|r| {
                    let combine = job.combine.clone();
                    let column: Vec<&ObjectRef> = group.iter().map(|row| &row[r]).collect();
                    let mut b = rt
                        .task(move |ctx: TaskCtx| {
                            let blocks: Vec<Block> = ctx.args.iter().map(Block::from).collect();
                            vec![combine(&blocks)]
                        })
                        .args(column)
                        .cpu(job.merge_cpu)
                        .shape(job.merge_shape())
                        .label("merge");
                    if cfg.affinity {
                        b = b.on_node(reducer_home(r, nodes));
                    }
                    b.submit_one()
                })
                .collect()
        })
        .collect();
    drop(map_out);

    (0..r_total)
        .map(|r| {
            let reduce = job.reduce.clone();
            let column: Vec<&ObjectRef> = merge_out.iter().map(|row| &row[r]).collect();
            // Locality scheduling lands this on the partition's home node,
            // where all its merged blocks already live.
            rt.task(move |ctx: TaskCtx| vec![reduce(r, &ctx.args)])
                .args(column)
                .cpu(job.reduce_cpu)
                .shape(job.reduce_shape())
                .writes_output(job.reduce_output_bytes)
                .label("reduce")
                .submit_one()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{key_sum_job, key_sum_total};
    use exo_rt::RtConfig;
    use exo_sim::{ClusterSpec, NodeSpec};

    #[test]
    fn computes_correct_totals() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 3));
        let (_rep, total) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(9, 6, 40);
            let outs = push_shuffle(rt, &job, PushConfig::new(3));
            key_sum_total(&rt.get(&outs).unwrap())
        });
        assert_eq!(total, 360);
    }

    #[test]
    fn reduces_read_locally_after_push() {
        // With merges pinned to reducer homes, the reduce stage itself
        // should add no network traffic beyond what the pushes moved.
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
        let (rep, _) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(4, 4, 20);
            let outs = push_shuffle(rt, &job, PushConfig::new(2));
            rt.wait_all(&outs);
        });
        assert_eq!(rep.metrics.tasks_completed, 4 + 2 * 4 + 4);
    }

    #[test]
    fn reducer_home_partitions_evenly() {
        let homes: Vec<_> = (0..8).map(|r| reducer_home(r, 4).0).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
