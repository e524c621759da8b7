//! One observer, two views: exo-live's snapshots and exo-watch's
//! detectors read the same fold, so neither may change what the other
//! reports. A live+watch run must give the live-only run's snapshot
//! JSONL byte for byte, and the watch-only run's incident JSON byte for
//! byte — on the pinned fault case and on a spilling case. The queue
//! delay sketch is the shared state a detector touches (it rotates the
//! window into the baseline); the live view must not see that.

use exoshuffle::live::{LiveConfig, WINDOW_US};
use exoshuffle::rt::{NodeId, RtConfig, RtHandle, RunReport, WatchConfig};
use exoshuffle::shuffle::{run_shuffle, ShuffleVariant};
use exoshuffle::sim::{ClusterSpec, NodeSpec, SimDuration, SimTime};
use exoshuffle::sort::{sort_job, SortSpec};

/// 2 GB push* sort on 4 HDD nodes: the shape of `tests/watch.rs`'s
/// pinned fault case.
fn spec() -> SortSpec {
    SortSpec {
        data_bytes: 2_000_000_000,
        num_maps: 16,
        num_reduces: 16,
        scale: 40,
        seed: 7,
    }
}

#[derive(Clone, Copy)]
enum Case {
    /// Node 3 killed at t=2 s and restarted 5 s later.
    Fault,
    /// No failure; 100 MB stores against ~500 MB of data per node.
    Spill,
}

fn run_case(case: Case, live: bool, watch: bool) -> RunReport {
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::d3_2xlarge(), 4));
    if let Case::Spill = case {
        cfg.object_store_capacity = Some(100 * 1000 * 1000);
    }
    cfg.live = live.then(LiveConfig::default);
    cfg.watch = watch.then(WatchConfig::default);
    let (report, ()) = exoshuffle::rt::run(cfg, |rt: &RtHandle| {
        if let Case::Fault = case {
            rt.kill_node(
                NodeId(3),
                SimTime(2_000_000),
                Some(SimDuration::from_secs(5)),
            );
        }
        let job = sort_job(spec());
        let outs = run_shuffle(rt, &job, ShuffleVariant::PushStar { map_parallelism: 2 });
        rt.wait_all(&outs);
    });
    report
}

fn live_jsonl(report: &RunReport) -> String {
    report.live.as_ref().expect("live configured").to_jsonl()
}

fn incidents_json(report: &RunReport) -> String {
    report
        .incidents
        .as_ref()
        .expect("watch configured")
        .to_json()
        .render()
}

fn assert_views_independent(case: Case) -> RunReport {
    let both = run_case(case, true, true);
    let live_only = run_case(case, true, false);
    let watch_only = run_case(case, false, true);
    assert!(
        both.end_time.as_micros() > WINDOW_US,
        "the run must outlast a queue-window rotation"
    );
    let last = live_only
        .live
        .as_ref()
        .expect("live")
        .snapshots
        .last()
        .cloned();
    assert!(
        last.is_some_and(|s| s.queue_us.count > 0),
        "the queue-delay sketch must hold samples"
    );
    assert!(
        live_jsonl(&both) == live_jsonl(&live_only),
        "watching changed the live snapshot JSONL"
    );
    assert_eq!(
        incidents_json(&both),
        incidents_json(&watch_only),
        "live snapshots changed the incident set"
    );
    both
}

#[test]
fn fault_case_views_are_independent() {
    let both = assert_views_independent(Case::Fault);
    assert!(!both.incidents.expect("watched").is_empty());
}

#[test]
fn spill_case_views_are_independent() {
    let both = assert_views_independent(Case::Spill);
    assert!(both.metrics.store.spilled_bytes > 0, "the case must spill");
    assert!(!both.incidents.expect("watched").is_empty());
}
