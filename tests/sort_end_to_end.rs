//! Cross-crate integration: the Sort Benchmark through every shuffle
//! variant, validated record-for-record, including under failure injection.

use exoshuffle::rt::{Payload, RtConfig, RtHandle};
use exoshuffle::shuffle::{run_shuffle, ShuffleVariant};
use exoshuffle::sim::{ClusterSpec, NodeSpec, SimDuration};
use exoshuffle::sort::{sort_job, validate_sorted, SortSpec};

fn spec() -> SortSpec {
    SortSpec {
        data_bytes: 64 * 1000 * 1000, // 64 MB logical
        num_maps: 16,
        num_reduces: 8,
        scale: 100, // 640 KB real data
        seed: 2026,
    }
}

fn cluster(nodes: usize) -> RtConfig {
    RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), nodes))
}

fn run_and_validate(cfg: RtConfig, variant: ShuffleVariant) {
    let s = spec();
    let (_report, outputs) = exoshuffle::rt::run(cfg, |rt: &RtHandle| {
        let job = sort_job(s);
        let outs = run_shuffle(rt, &job, variant);
        rt.get(&outs).expect("sort outputs")
    });
    validate_sorted(&s, &outputs).expect("globally sorted, loss-free output");
}

#[test]
fn simple_shuffle_sorts_correctly() {
    run_and_validate(cluster(4), ShuffleVariant::Simple);
}

#[test]
fn merge_shuffle_sorts_correctly() {
    run_and_validate(cluster(4), ShuffleVariant::Merge { factor: 4 });
}

#[test]
fn push_shuffle_sorts_correctly() {
    run_and_validate(cluster(4), ShuffleVariant::Push { factor: 4 });
}

#[test]
fn push_star_shuffle_sorts_correctly() {
    run_and_validate(cluster(4), ShuffleVariant::PushStar { map_parallelism: 2 });
}

#[test]
fn sort_survives_memory_pressure() {
    // Store far smaller than the working set: everything must spill and
    // restore, and the output must still be perfect.
    let mut cfg = cluster(2);
    cfg.object_store_capacity = Some(4 * 1000 * 1000); // 4 MB vs 64 MB job
    cfg.fuse_min = 1000 * 1000;
    let s = spec();
    let (report, outputs) = exoshuffle::rt::run(cfg, |rt: &RtHandle| {
        let job = sort_job(s);
        let outs = run_shuffle(rt, &job, ShuffleVariant::PushStar { map_parallelism: 2 });
        rt.get(&outs).expect("sort outputs")
    });
    validate_sorted(&s, &outputs).expect("correct under heavy spilling");
    assert!(
        report.metrics.store.spilled_bytes > 0,
        "pressure should force spills"
    );
}

#[test]
fn push_star_sort_survives_node_failure() {
    let mut s = spec();
    s.data_bytes = 512 * 1000 * 1000; // long enough that the kill lands mid-run
    s.scale = 800;
    let (report, outputs) = exoshuffle::rt::run(cluster(4), |rt: &RtHandle| {
        let job = sort_job(s);
        // Kill node 2 mid-run, restart 30 s later (§5.1.5).
        rt.kill_node(
            exoshuffle::rt::NodeId(2),
            exoshuffle::sim::SimTime(400_000),
            Some(SimDuration::from_secs(30)),
        );
        let outs = run_shuffle(rt, &job, ShuffleVariant::PushStar { map_parallelism: 2 });
        rt.get(&outs).expect("sort outputs despite failure")
    });
    validate_sorted(&s, &outputs).expect("correct despite node failure");
    assert_eq!(report.metrics.node_failures, 1);
}

#[test]
fn simple_sort_survives_node_failure() {
    let mut s = spec();
    s.data_bytes = 512 * 1000 * 1000;
    s.scale = 800;
    let (_report, outputs) = exoshuffle::rt::run(cluster(4), |rt: &RtHandle| {
        let job = sort_job(s);
        rt.kill_node(
            exoshuffle::rt::NodeId(1),
            exoshuffle::sim::SimTime(400_000),
            Some(SimDuration::from_secs(30)),
        );
        let outs = run_shuffle(rt, &job, ShuffleVariant::Simple);
        rt.get(&outs).expect("sort outputs despite failure")
    });
    validate_sorted(&s, &outputs).expect("correct despite node failure");
}

#[test]
fn all_variants_agree_on_output() {
    let s = spec();
    let mut results: Vec<Vec<Payload>> = Vec::new();
    for variant in [
        ShuffleVariant::Simple,
        ShuffleVariant::Merge { factor: 4 },
        ShuffleVariant::Push { factor: 4 },
        ShuffleVariant::PushStar { map_parallelism: 2 },
    ] {
        let (_r, outs) = exoshuffle::rt::run(cluster(3), |rt: &RtHandle| {
            let job = sort_job(s);
            let outs = run_shuffle(rt, &job, variant);
            rt.get(&outs).expect("outputs")
        });
        results.push(outs);
    }
    // Byte-identical partitions, logical sizes included: every variant
    // merges the same map blocks into the same sorted partitions.
    for (v, outs) in results.iter().enumerate().skip(1) {
        assert_eq!(outs.len(), results[0].len());
        for (p, (a, b)) in results[0].iter().zip(outs).enumerate() {
            assert_eq!(a.data, b.data, "variant {v} partition {p} bytes differ");
            assert_eq!(a.logical, b.logical, "variant {v} partition {p} logical");
        }
    }
}
