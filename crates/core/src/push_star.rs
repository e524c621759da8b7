//! ES-push*: the pipelined two-stage push shuffle of §4.1 (Listing 3).
//!
//! This is the paper's most optimised variant, adding four things on top of
//! ES-push:
//!
//! 1. **Round-based backpressure** — maps and merges are scheduled in
//!    rounds; `wait` on the previous round's merges keeps at most one merge
//!    round in flight, overlapping it with the next round's maps (CPU ∥
//!    network ∥ disk pipelining).
//! 2. **Worker-grouped returns** — each map returns one block per *worker*
//!    (not per partition), cutting the number of shuffled objects from
//!    `M × R` to `M × W`.
//! 3. **Generator merges** — merge tasks yield one merged block per local
//!    reduce partition as they go, bounding executor memory and letting
//!    spills start early.
//! 4. **Eager ref dropping** (`del map_results`) — map outputs are released
//!    as soon as their merge consumes them, so they are evicted from memory
//!    instead of spilled: ES-push* spills only merged output, the paper's
//!    explanation for beating Spark-push by 1.8× at 100 TB.

use std::ops::Range;

use exo_rt::{ObjectRef, Payload, RtHandle, SchedulingStrategy, TaskCtx};

use crate::job::{Block, CombineFn, ShuffleJob};
use crate::push::reducer_home;

/// Tuning for the pipelined push shuffle.
#[derive(Clone, Copy, Debug)]
pub struct PushStarConfig {
    /// Concurrent map tasks per node per round (`MAP_PARALLELISM`).
    pub map_parallelism: usize,
    /// Round-based `wait` backpressure (ablation: submitting everything at
    /// once floods the store and forces spills).
    pub backpressure: bool,
    /// Remote-generator merges (ablation: monolithic merge outputs raise
    /// peak executor memory and delay downstream consumption).
    pub generators: bool,
    /// Eagerly drop map-output refs after their merge consumes them
    /// (ablation: keeping them forces spill writes — the ES-push
    /// behaviour, trading write amplification for recovery cost §4.3.1).
    pub eager_release: bool,
}

impl PushStarConfig {
    /// Standard configuration (all optimisations on).
    pub fn new(map_parallelism: usize) -> PushStarConfig {
        PushStarConfig {
            map_parallelism,
            backpressure: true,
            generators: true,
            eager_release: true,
        }
    }
}

/// Frame several per-partition blocks into one worker-block payload.
///
/// Layout: `u32 n`, then per block `u64 logical, u32 data_len`, then the
/// concatenated block data. The frame's logical size is the sum of the
/// block logical sizes (the header is noise at shuffle scales). The
/// blocks are borrowed and copied once: one pass sizes the frame, and the
/// buffer, allocated at exactly that size, is then written front to back,
/// one 12-byte header entry per block and then each block's data.
pub fn frame_blocks<'a, I>(blocks: I) -> Payload
where
    I: IntoIterator<Item = &'a Payload>,
    I::IntoIter: Clone,
{
    let blocks = blocks.into_iter();
    let (n, data_len) = blocks
        .clone()
        .fold((0usize, 0usize), |(n, len), b| (n + 1, len + b.data.len()));
    let mut buf = Vec::with_capacity(4 + n * 12 + data_len);
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    let mut logical = 0u64;
    for b in blocks.clone() {
        let mut meta = [0u8; 12];
        meta[..8].copy_from_slice(&b.logical.to_le_bytes());
        meta[8..].copy_from_slice(&(b.data.len() as u32).to_le_bytes());
        buf.extend_from_slice(&meta);
        logical += b.logical;
    }
    for b in blocks {
        buf.extend_from_slice(&b.data);
    }
    Payload::scaled(buf, logical)
}

/// Inverse of [`frame_blocks`].
// audit:allow(U01): the frame_blocks_roundtrips oracle decodes frames
// through it.
pub fn unframe_blocks(p: &Payload) -> Vec<Payload> {
    unframe(&p.data)
        .map(|(range, logical)| Payload::scaled(p.data.slice(range), logical))
        .collect()
}

/// The blocks of a frame's bytes, in order: each one's byte range in
/// `d` and its logical size.
fn unframe(d: &[u8]) -> impl Iterator<Item = (Range<usize>, u64)> + '_ {
    let n = u32::from_le_bytes(d[0..4].try_into().expect("frame header")) as usize;
    let mut data_off = 4 + n * 12;
    d[4..data_off].chunks_exact(12).map(move |meta| {
        let logical = u64::from_le_bytes(meta[..8].try_into().expect("logical"));
        let len = u32::from_le_bytes(meta[8..].try_into().expect("len")) as usize;
        data_off += len;
        (data_off - len..data_off, logical)
    })
}

/// A push* merge task's body. `frames` holds one worker-block frame per
/// map of the round, each framing the worker's `owned` partitions in
/// order; the result is one combined block per owned partition.
///
/// The frames are read in place: partition `j`'s column is each frame's
/// `j`-th block, borrowed, collected into one column buffer that every
/// call to `combine` reuses.
pub fn merge_frames(frames: &[Payload], owned: usize, combine: &CombineFn) -> Vec<Payload> {
    let mut frames: Vec<_> = frames
        .iter()
        .map(|f| {
            let d: &[u8] = &f.data;
            unframe(d).map(move |(range, logical)| Block {
                data: &d[range],
                logical,
            })
        })
        .collect();
    let mut column = Vec::with_capacity(frames.len());
    (0..owned)
        .map(|_| {
            column.clear();
            column.extend(frames.iter_mut().map(|f| f.next().expect("owned block")));
            combine(&column)
        })
        .collect()
}

/// Run the pipelined push shuffle; returns the `R` reduce-output futures
/// in partition order.
pub fn push_star_shuffle(rt: &RtHandle, job: &ShuffleJob, cfg: PushStarConfig) -> Vec<ObjectRef> {
    let (m_total, r_total) = (job.num_maps, job.num_reduces);
    let workers = rt.num_nodes();
    let per_round = (workers * cfg.map_parallelism.max(1)).max(1);
    let rounds = m_total.div_ceil(per_round);
    // Partitions owned by worker w: { r | r % workers == w }.
    let owned: Vec<Vec<usize>> = (0..workers)
        .map(|w| (w..r_total).step_by(workers).collect())
        .collect();

    // merge_results[w][round][j]: j-th owned partition of w, merged over
    // the round's maps.
    let mut merge_results: Vec<Vec<Vec<ObjectRef>>> = vec![Vec::new(); workers];
    let mut prev_merges: Vec<ObjectRef> = Vec::new();
    let mut retained: Vec<Vec<ObjectRef>> = Vec::new();

    for round in 0..rounds {
        let m_lo = round * per_round;
        let m_hi = ((round + 1) * per_round).min(m_total);

        // Schedule a round of map tasks. Each returns one framed block per
        // worker, containing that worker's partitions.
        let map_results: Vec<Vec<ObjectRef>> = (m_lo..m_hi)
            .map(|m| {
                let map = job.map.clone();
                let owned = owned.clone();
                rt.task(move |ctx: TaskCtx| {
                    let mut rng = ctx.rng;
                    let blocks = map(m, r_total, &mut rng);
                    owned
                        .iter()
                        .map(|rs| frame_blocks(rs.iter().map(|&r| &blocks[r])))
                        .collect()
                })
                .num_returns(workers)
                .strategy(SchedulingStrategy::Spread)
                .cpu(job.map_cpu)
                .shape(job.map_shape())
                .reads_input(job.map_input_bytes)
                .label("map")
                .submit()
            })
            .collect();

        // Backpressure: at most one round of merge tasks in flight,
        // overlapping with this round's maps (Listing 3, L21–22).
        if cfg.backpressure && !prev_merges.is_empty() {
            rt.wait_all(&prev_merges);
        }
        prev_merges.clear();

        // Schedule a round of merge tasks, one per worker, pinned there.
        for w in 0..workers {
            let combine = job.combine.clone();
            let n_owned = owned[w].len();
            if n_owned == 0 {
                continue;
            }
            let column: Vec<&ObjectRef> = map_results.iter().map(|row| &row[w]).collect();
            let mut b = rt
                .task(move |ctx: TaskCtx| merge_frames(&ctx.args, n_owned, &combine))
                .args(column)
                .num_returns(n_owned)
                .on_node(exo_rt::NodeId(w))
                .cpu(job.merge_cpu)
                .shape(job.merge_shape())
                .label("merge");
            if cfg.generators {
                b = b.generator();
            }
            let outs = b.submit();
            prev_merges.extend(outs.iter().cloned());
            merge_results[w].push(outs);
        }
        // `del map_results` (Listing 3, L29): dropping the refs here lets
        // map outputs be evicted as soon as the merges consume them,
        // avoiding their spill writes entirely. The ablation keeps them
        // alive until the job ends (extra spills, better redundancy).
        if cfg.eager_release {
            drop(map_results);
        } else {
            retained.extend(map_results);
        }
    }

    // Reduce stage: one task per partition, colocated with its merged
    // blocks by locality scheduling (all its args live on one worker).
    let mut reduces: Vec<Option<ObjectRef>> = (0..r_total).map(|_| None).collect();
    for w in 0..workers {
        for (j, &r) in owned[w].iter().enumerate() {
            let reduce = job.reduce.clone();
            let column: Vec<&ObjectRef> = merge_results[w]
                .iter()
                .map(|round_outs| &round_outs[j])
                .collect();
            let out = rt
                .task(move |ctx: TaskCtx| vec![reduce(r, &ctx.args)])
                .args(column)
                .cpu(job.reduce_cpu)
                .shape(job.reduce_shape())
                .writes_output(job.reduce_output_bytes)
                .label("reduce")
                .submit_one();
            reduces[r] = Some(out);
        }
    }
    debug_assert_eq!(reducer_home(1, workers.max(1)).0, 1 % workers.max(1));
    drop(retained); // ablation refs live until all reduces are submitted
    reduces
        .into_iter()
        .map(|r| r.expect("every partition reduced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{key_sum_job, key_sum_total};
    use bytes::Bytes;
    use exo_rt::RtConfig;
    use exo_sim::{ClusterSpec, NodeSpec};

    #[test]
    fn frame_roundtrip_preserves_blocks() {
        let blocks = vec![
            Payload::scaled(Bytes::from_static(b"alpha"), 500),
            Payload::scaled(Bytes::from_static(b""), 0),
            Payload::scaled(Bytes::from_static(b"z"), 123),
        ];
        let framed = frame_blocks(&blocks);
        assert_eq!(framed.logical, 623);
        let back = unframe_blocks(&framed);
        assert_eq!(back.len(), 3);
        assert_eq!(&back[0].data[..], b"alpha");
        assert_eq!(back[0].logical, 500);
        assert_eq!(&back[1].data[..], b"");
        assert_eq!(&back[2].data[..], b"z");
        assert_eq!(back[2].logical, 123);
    }

    #[test]
    fn computes_correct_totals() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 3));
        let (_rep, total) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(12, 7, 30);
            let outs = push_star_shuffle(rt, &job, PushStarConfig::new(2));
            key_sum_total(&rt.get(&outs).unwrap())
        });
        assert_eq!(total, 360);
    }

    #[test]
    fn works_with_more_reducers_than_nodes_and_odd_sizes() {
        let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 4));
        let (_rep, total) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(10, 13, 17);
            let outs = push_star_shuffle(rt, &job, PushStarConfig::new(1));
            key_sum_total(&rt.get(&outs).unwrap())
        });
        assert_eq!(total, 170);
    }

    #[test]
    fn eager_release_avoids_spilling_map_outputs() {
        // Tight store: map outputs would spill if held; push* releases
        // them after merge, so spilled bytes should stay well below the
        // total map output volume.
        let mut cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 2));
        cfg.object_store_capacity = Some(2_000_000);
        let (rep, total) = exo_rt::run(cfg, |rt| {
            let job = key_sum_job(16, 4, 2000);
            let outs = push_star_shuffle(rt, &job, PushStarConfig::new(2));
            key_sum_total(&rt.get(&outs).unwrap())
        });
        assert_eq!(total, 16 * 2000);
        let map_output_volume = 16u64 * 2000 * 16;
        assert!(
            rep.metrics.store.spilled_bytes < map_output_volume / 2,
            "spilled {} of {} map output bytes",
            rep.metrics.store.spilled_bytes,
            map_output_volume
        );
    }
}
