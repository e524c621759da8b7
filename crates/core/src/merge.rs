//! ES-merge: Riffle-style pre-shuffle merge (§3.1.2, Listing 1
//! `shuffle_riffle`).
//!
//! Riffle's key optimisation is merging small map-output blocks into larger
//! blocks *on the map side*, converting small random disk I/O into large
//! sequential I/O before the network shuffle. A merge task consumes the
//! `F × R` blocks of a group of `F` map tasks and emits `R` merged blocks.
//!
//! Locality is preserved the way the paper describes (§4.3.2 runtime
//! introspection): after each group of maps completes, the library looks up
//! the location of the group's first output block and pins the merge task
//! to that node, so merging never crosses the network.

use exo_rt::{ObjectRef, RtHandle, SchedulingStrategy, TaskCtx};

use crate::job::{Block, ShuffleJob};

/// Tuning for the pre-shuffle merge.
#[derive(Clone, Copy, Debug)]
pub struct MergeConfig {
    /// Map outputs merged per group (Riffle's `F`, "either pre-configured
    /// or dynamically decided based on a block size threshold").
    pub factor: usize,
}

/// Run the Riffle-style shuffle; returns the `R` reduce-output futures.
pub fn merge_shuffle(rt: &RtHandle, job: &ShuffleJob, cfg: MergeConfig) -> Vec<ObjectRef> {
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

    // Riffle merges are strictly node-local: group the maps that landed on
    // the same node (Spread places map m on node m mod N) and merge each
    // group of F in place — converting small random I/O into large
    // sequential I/O *without* touching the network.
    let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for m in 0..m_total {
        per_node[m % nodes].push(m);
    }

    // merge_out[g][r]: merged block of partition r from map group g.
    let mut merge_out: Vec<Vec<ObjectRef>> = Vec::new();
    for node_maps in &per_node {
        for group_ms in node_maps.chunks(factor) {
            let group: Vec<&Vec<ObjectRef>> = group_ms.iter().map(|&m| &map_out[m]).collect();
            // Wait for the group so runtime introspection can confirm where
            // its outputs landed, then merge in place.
            let first: Vec<ObjectRef> = group.iter().map(|row| row[0].clone()).collect();
            rt.wait_all(&first);
            let locs = rt.locations(&first[0]);
            let combine = job.combine.clone();
            let f = group.len();
            let mut builder = rt
                .task(move |ctx: TaskCtx| {
                    // args are f×r blocks, map-major: args[i * r_total + r].
                    let r_total = ctx.args.len() / f;
                    (0..r_total)
                        .map(|r| {
                            let blocks: Vec<Block> = (0..f)
                                .map(|i| Block::from(&ctx.args[i * r_total + r]))
                                .collect();
                            combine(&blocks)
                        })
                        .collect()
                })
                .num_returns(r_total)
                .cpu(job.merge_cpu)
                .shape(job.merge_shape())
                .generator()
                .label("merge");
            for row in &group {
                builder = builder.args(row.iter());
            }
            if let Some(&node) = locs.first() {
                builder = builder.on_node(node);
            }
            merge_out.push(builder.submit());
            // Map outputs were only needed by the merge; their refs drop
            // with `map_out` below, letting them be evicted not spilled.
        }
    }
    drop(map_out);

    (0..r_total)
        .map(|r| {
            let reduce = job.reduce.clone();
            let column: Vec<&ObjectRef> = merge_out.iter().map(|row| &row[r]).collect();
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
            let job = key_sum_job(8, 4, 50);
            let outs = merge_shuffle(rt, &job, MergeConfig { factor: 4 });
            key_sum_total(&rt.get(&outs).unwrap())
        });
        assert_eq!(total, 400);
    }

    #[test]
    fn merge_stays_local_to_map_outputs() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 4));
        let (rep, _) = exo_rt::run(cfg, |rt| {
            // One group per node: factor 2 with 8 maps spread over 4 nodes
            // means each group's maps may span nodes, but the merge runs
            // where the first output lives, so merge inputs from that node
            // cost no network.
            let job = key_sum_job(8, 4, 50);
            let outs = merge_shuffle(rt, &job, MergeConfig { factor: 2 });
            rt.wait_all(&outs);
        });
        // 8 maps + 4 merges + 4 reduces.
        assert_eq!(rep.metrics.tasks_completed, 16);
    }

    #[test]
    fn factor_one_degenerates_but_still_correct() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
        let (_rep, total) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(3, 2, 10);
            let outs = merge_shuffle(rt, &job, MergeConfig { factor: 1 });
            key_sum_total(&rt.get(&outs).unwrap())
        });
        assert_eq!(total, 30);
    }
}
