//! Failure-matrix integration: harder fault scenarios than the single
//! kill of `sort_end_to_end.rs` — staggered multi-node failures and
//! executor failures in the middle of a shuffle, all validated
//! record-for-record.

use std::collections::BTreeMap;

use exoshuffle::rt::trace::{EventKind, TaskPhase};
use exoshuffle::rt::{NodeId, RtConfig, RtHandle, RunReport, TraceConfig};
use exoshuffle::shuffle::{run_shuffle, ShuffleVariant};
use exoshuffle::sim::{ClusterSpec, NodeSpec, SimDuration, SimTime};
use exoshuffle::sort::{sort_job, validate_sorted, SortSpec};

fn spec() -> SortSpec {
    SortSpec {
        data_bytes: 256 * 1000 * 1000,
        num_maps: 20,
        num_reduces: 10,
        scale: 400,
        seed: 31,
    }
}

fn cluster(nodes: usize) -> RtConfig {
    RtConfig::new(ClusterSpec::homogeneous(NodeSpec::d3_2xlarge(), nodes))
}

/// A push* sort on `cfg`'s cluster with `faults` injected, validated
/// record for record.
fn run(cfg: RtConfig, faults: &(dyn Fn(&RtHandle) + Sync)) -> RunReport {
    let s = spec();
    let (report, outputs) = exoshuffle::rt::run(cfg, |rt: &RtHandle| {
        faults(rt);
        let outs = run_shuffle(
            rt,
            &sort_job(s),
            ShuffleVariant::PushStar { map_parallelism: 2 },
        );
        rt.get(&outs).expect("recovered output")
    });
    validate_sorted(&s, &outputs).expect("correct despite the faults");
    report
}

/// Nodes 1 and 3 die 80 ms apart, mid-sort, and restart.
fn two_staggered_node_failures(rt: &RtHandle) {
    rt.kill_node(NodeId(1), SimTime(40_000), Some(SimDuration::from_secs(20)));
    rt.kill_node(
        NodeId(3),
        SimTime(120_000),
        Some(SimDuration::from_secs(20)),
    );
}

#[test]
fn two_staggered_node_failures_recover() {
    let report = run(cluster(5), &two_staggered_node_failures);
    assert_eq!(report.metrics.node_failures, 2);
}

#[test]
fn a_fault_run_never_reuses_an_attempt_key() {
    let mut cfg = cluster(5);
    cfg.trace = TraceConfig::on();
    let report = run(cfg, &two_staggered_node_failures);
    // Per task, the attempts its Scheduled edges carry, and the Started
    // edges seen per (task, attempt).
    let mut scheduled: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut started: BTreeMap<(u64, u32), u32> = BTreeMap::new();
    for ev in &report.trace {
        let EventKind::Task(t) = &ev.kind else {
            continue;
        };
        match t.phase {
            TaskPhase::Scheduled => scheduled.entry(t.task).or_default().push(t.attempt),
            TaskPhase::Started => {
                assert_eq!(
                    scheduled[&t.task].last(),
                    Some(&t.attempt),
                    "task {} started an attempt other than its latest",
                    t.task
                );
                *started.entry((t.task, t.attempt)).or_default() += 1;
            }
            TaskPhase::Dequeued | TaskPhase::Finished => {}
        }
    }
    // Every requeue is a new attempt: a task's k-th scheduling carries
    // attempt k, so no key is scheduled twice.
    let requeued = scheduled.values().filter(|a| a.len() > 1).count();
    assert!(requeued > 0, "the kills requeued no task");
    for (task, attempts) in &scheduled {
        let want: Vec<u32> = (0..attempts.len() as u32).collect();
        assert_eq!(attempts, &want, "task {task}'s attempts");
    }
    let twice: Vec<_> = started.iter().filter(|(_, &n)| n > 1).collect();
    assert!(twice.is_empty(), "started twice: {twice:?}");
    // Only lineage re-runs count as re-executions: as many as before
    // node-loss requeues took new attempt numbers.
    assert_eq!(report.metrics.tasks_reexecuted, 4);
}

#[test]
fn executor_failure_mid_shuffle_is_cheaper_than_node_failure() {
    // The clean sort ends at 373 ms; both faults land mid-shuffle.
    let clean = run(cluster(4), &|_| {});
    let exec = run(cluster(4), &|rt| {
        rt.kill_executors(NodeId(2), SimTime(200_000))
    });
    let node = run(cluster(4), &|rt| {
        rt.kill_node(
            NodeId(2),
            SimTime(200_000),
            Some(SimDuration::from_secs(20)),
        )
    });
    // Executor failure keeps objects (store survives); node failure loses
    // them and must reconstruct, so it can never be cheaper.
    assert!(exec.end_time >= clean.end_time);
    assert!(
        node.end_time >= exec.end_time,
        "node failure {} must cost at least executor failure {}",
        node.end_time,
        exec.end_time
    );
}

#[test]
fn executor_loss_then_node_loss_on_one_node_recovers() {
    // The executors on node 2 die mid-sort; 50 ms later the whole node
    // dies, taking the store the first fault spared, and restarts.
    let report = run(cluster(4), &|rt| {
        rt.kill_executors(NodeId(2), SimTime(150_000));
        rt.kill_node(
            NodeId(2),
            SimTime(200_000),
            Some(SimDuration::from_secs(20)),
        )
    });
    assert_eq!(report.metrics.executor_failures, 1);
    assert_eq!(report.metrics.node_failures, 1);
    assert!(
        report.metrics.tasks_reexecuted > 0,
        "the node kill lost sealed outputs"
    );
}

#[test]
fn restarted_node_rejoins_and_output_stays_correct() {
    let s = spec();
    let (_report, outputs) = exoshuffle::rt::run(cluster(3), |rt: &RtHandle| {
        // Fast restart: the node comes back while the job is still going.
        rt.kill_node(NodeId(1), SimTime(200_000), Some(SimDuration::from_secs(2)));
        let outs = run_shuffle(rt, &sort_job(s), ShuffleVariant::Simple);
        rt.get(&outs).expect("output")
    });
    validate_sorted(&s, &outputs).expect("correct with fast restart");
}

#[test]
fn failure_during_merge_variant_recovers() {
    let s = spec();
    let (_report, outputs) = exoshuffle::rt::run(cluster(4), |rt: &RtHandle| {
        rt.kill_node(
            NodeId(0),
            SimTime(500_000),
            Some(SimDuration::from_secs(20)),
        );
        let outs = run_shuffle(rt, &sort_job(s), ShuffleVariant::Merge { factor: 4 });
        rt.get(&outs).expect("output")
    });
    validate_sorted(&s, &outputs).expect("merge variant recovers");
}
