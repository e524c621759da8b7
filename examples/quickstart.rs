//! Quickstart: word-count-style shuffle on a simulated 4-node cluster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Shows the three-step Exoshuffle workflow: describe the workload as a
//! `ShuffleJob` (map / combine / reduce), pick a shuffle variant at run
//! time, and consume the reduce outputs as distributed futures.

use std::sync::Arc;

use exoshuffle::rt::{Payload, RtConfig};
use exoshuffle::shuffle::{run_shuffle, Block, ShuffleJob, ShuffleVariant};
use exoshuffle::sim::{ClusterSpec, NodeSpec, SplitMix64};

/// Toy corpus: each map task holds one "document" of numbers standing in
/// for words (word id = number). We count occurrences of each word.
fn word_count_job(num_docs: usize, words_per_doc: usize, reducers: usize) -> ShuffleJob {
    let map = Arc::new(move |doc: usize, r_total: usize, _rng: &mut SplitMix64| {
        // Deterministic "document": word ids drawn from a small zipfy set.
        let mut rng = SplitMix64::new(doc as u64 + 1);
        let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); r_total];
        for _ in 0..words_per_doc {
            let word = (rng.next_below(100) * rng.next_below(3).max(1)) as u32;
            blocks[(word as usize) % r_total].extend_from_slice(&word.to_le_bytes());
        }
        blocks.into_iter().map(Payload::inline).collect()
    });
    let combine = Arc::new(|blocks: &[Block]| {
        let mut out = Vec::new();
        for b in blocks {
            out.extend_from_slice(b.data);
        }
        Payload::inline(out)
    });
    let reduce = Arc::new(|_r: usize, blocks: &[Payload]| {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for b in blocks {
            for w in b.data.chunks_exact(4) {
                *counts
                    .entry(u32::from_le_bytes(w.try_into().expect("u32")))
                    .or_default() += 1;
            }
        }
        let mut out = Vec::new();
        for (w, c) in counts {
            out.extend_from_slice(&w.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        Payload::inline(out)
    });
    ShuffleJob::new(num_docs, reducers, map, combine, reduce)
}

fn main() {
    // A simulated 4-node SSD cluster. Time is virtual: the run below
    // finishes in milliseconds of wall time while reporting realistic
    // cluster timings.
    let cluster = ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 4);
    let cfg = RtConfig::new(cluster);

    let (report, top) = exoshuffle::rt::run(cfg, |rt| {
        let job = word_count_job(32, 10_000, 8);
        // Swap the variant freely — that is the point of the paper.
        let outs = run_shuffle(rt, &job, ShuffleVariant::PushStar { map_parallelism: 2 });
        let counts = rt.get(&outs).expect("word counts");
        // Find the most frequent word across all partitions.
        let mut best = (0u32, 0u32);
        for p in &counts {
            for e in p.data.chunks_exact(8) {
                let w = u32::from_le_bytes(e[..4].try_into().expect("w"));
                let c = u32::from_le_bytes(e[4..].try_into().expect("c"));
                if c > best.1 {
                    best = (w, c);
                }
            }
        }
        best
    });

    println!("counted 320k words across 32 documents on 4 simulated nodes");
    println!(
        "most frequent word: id {} with {} occurrences",
        top.0, top.1
    );
    println!("virtual job time: {}", report.end_time);
    println!(
        "cluster I/O: {} network bytes, {} tasks",
        report.metrics.net_bytes, report.metrics.tasks_completed
    );
}
