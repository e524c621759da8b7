//! End-to-end live observability guarantees: with trace retention OFF
//! and live streaming ON, a pinned deterministic run produces a
//! timeseries whose final snapshot matches the runtime's own metrics
//! bit-for-bit while the sink retains zero events — the sub-linear
//! memory claim the live layer exists for. The JSONL round-trip and the
//! post-hoc exo-prof cross-check pin the serialization and the sketch
//! semantics respectively.

use exoshuffle::live::{counters_from_json, LiveConfig, LiveSeries, RELATIVE_ERROR};
use exoshuffle::rt::{RtConfig, RtHandle, RunReport, TraceConfig};
use exoshuffle::shuffle::{run_shuffle, ShuffleVariant};
use exoshuffle::sim::{ClusterSpec, NodeSpec};
use exoshuffle::sort::{sort_job, SortSpec};
use exoshuffle::trace::{EventKind, Json, TaskPhase};

/// The pinned case: same shape as `tests/trace_consistency.rs`'s
/// traced_run, so the two suites watch the same workload from opposite
/// sides (retained stream vs streaming aggregates).
fn pinned_spec() -> SortSpec {
    SortSpec {
        data_bytes: 64 * 1000 * 1000,
        num_maps: 8,
        num_reduces: 4,
        scale: 100,
        seed: 11,
    }
}

fn pinned_run(trace: bool, live: bool) -> RunReport {
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 4));
    if trace {
        cfg.trace = TraceConfig::on();
    }
    if live {
        cfg.live = Some(LiveConfig::default());
    }
    let spec = pinned_spec();
    let (report, ()) = exoshuffle::rt::run(cfg, |rt: &RtHandle| {
        let job = sort_job(spec);
        let outs = run_shuffle(rt, &job, ShuffleVariant::Simple);
        rt.wait_all(&outs);
    });
    report
}

fn series(report: &RunReport) -> &LiveSeries {
    report.live.as_ref().expect("live configured")
}

#[test]
fn live_series_with_retention_off_matches_metrics_bit_for_bit() {
    let report = pinned_run(false, true);
    assert!(
        report.trace.is_empty(),
        "live streaming must not force event retention"
    );
    let s = series(&report);
    assert!(!s.is_empty());
    assert!(
        s.snapshots.windows(2).all(|w| w[0].at_us < w[1].at_us),
        "snapshot timestamps strictly monotonic"
    );

    // Final snapshot counters equal the runtime's metrics exactly.
    let c = s.final_counters();
    let m = &report.metrics;
    assert_eq!(c.tasks_completed, m.tasks_completed);
    assert_eq!(c.tasks_reexecuted, m.tasks_reexecuted);
    assert_eq!(c.net_bytes, m.net_bytes);
    assert_eq!(c.net_ops, m.net_ops);
    assert_eq!(c.disk_read_bytes, m.disk_read_bytes);
    assert_eq!(c.disk_write_bytes, m.disk_write_bytes);
    assert_eq!(c.objects_reconstructed, m.objects_reconstructed);
    assert_eq!(c.node_failures, m.node_failures);
    assert_eq!(c.executor_failures, m.executor_failures);
    assert!(
        m.tasks_completed > 0 && m.net_bytes > 0,
        "run did real work"
    );

    // The final line lands exactly at the end of the run.
    assert_eq!(
        s.snapshots.last().expect("nonempty").at_us,
        report.end_time.as_micros()
    );

    // Deltas telescope to the final cumulative counters.
    assert_eq!(s.fold_deltas(), c);
}

#[test]
fn folding_jsonl_snapshots_reproduces_final_counters() {
    // The on-disk analogue of `fold_matches_incremental_counters`:
    // parse every line of the JSONL timeseries, sum the deltas, and
    // compare with the final line's cumulative counters exactly.
    let report = pinned_run(false, true);
    let s = series(&report);
    let jsonl = s.to_jsonl();
    let mut folded = exoshuffle::trace::TraceCounters::default();
    let mut last = None;
    let mut lines = 0usize;
    for line in jsonl.lines() {
        let j = Json::parse(line).expect("every JSONL line parses");
        let delta = counters_from_json(j.get("delta").expect("delta present"))
            .expect("delta counters complete");
        folded.add(&delta);
        last = Some(
            counters_from_json(j.get("counters").expect("counters present"))
                .expect("cumulative counters complete"),
        );
        lines += 1;
    }
    assert_eq!(lines, s.len());
    assert_eq!(folded, last.expect("at least one line"));
    assert_eq!(folded, s.final_counters());
}

#[test]
fn live_sketches_cross_check_against_post_hoc_profiler() {
    // Same pinned case with retention ON as well: the streaming
    // aggregates must agree with what exo-prof derives from the full
    // retained stream.
    let report = pinned_run(true, true);
    assert!(!report.trace.is_empty());
    let s = series(&report);
    let last = s.snapshots.last().expect("nonempty");

    // Exact per-task execution durations from the retained stream.
    let mut started = std::collections::HashMap::new();
    let mut durations = Vec::new();
    for ev in &report.trace {
        if let EventKind::Task(t) = &ev.kind {
            match t.phase {
                TaskPhase::Started => {
                    started.insert(t.task, ev.at_us);
                }
                TaskPhase::Finished => {
                    if let Some(st) = started.remove(&t.task) {
                        durations.push(ev.at_us - st);
                    }
                }
                _ => {}
            }
        }
    }
    durations.sort_unstable();
    assert_eq!(last.task_us.count, durations.len() as u64);
    assert_eq!(
        last.task_us.max_us,
        *durations.last().expect("tasks ran"),
        "sketch max is exact"
    );
    let rank = |q: f64| ((q * durations.len() as f64).ceil() as usize).clamp(1, durations.len());
    for (q, reported) in [(0.5, last.task_us.p50_us), (0.99, last.task_us.p99_us)] {
        let exact = durations[rank(q) - 1];
        assert!(reported >= exact, "p{q}: {reported} < exact {exact}");
        assert!(
            reported as f64 <= exact as f64 * (1.0 + RELATIVE_ERROR),
            "p{q}: {reported} overshoots exact {exact}"
        );
    }

    // Per-stage cross-check against exo-prof's stage stats: finished
    // counts and (exact) max execution times must agree bit-for-bit.
    let prof_stages = exoshuffle::prof::stage_stats(&report.trace);
    assert!(!prof_stages.is_empty());
    for ps in &prof_stages {
        let ls = last
            .stages
            .iter()
            .find(|l| l.label == ps.label)
            .unwrap_or_else(|| panic!("live is missing stage {:?}", ps.label));
        assert_eq!(ls.finished, ps.tasks, "stage {:?} task count", ps.label);
        assert_eq!(ls.exec.max_us, ps.max_us, "stage {:?} max exec", ps.label);
    }
    assert_eq!(last.stages.len(), prof_stages.len());
}

#[test]
fn live_and_plain_runs_agree_on_metrics() {
    // Observability must not perturb the simulation: the pinned case
    // with live streaming on reports identical metrics and end time to
    // the same case with no observability at all.
    let plain = pinned_run(false, false);
    let live = pinned_run(false, true);
    assert_eq!(plain.end_time, live.end_time);
    assert_eq!(plain.metrics.tasks_completed, live.metrics.tasks_completed);
    assert_eq!(plain.metrics.net_bytes, live.metrics.net_bytes);
    assert_eq!(plain.metrics.disk_read_bytes, live.metrics.disk_read_bytes);
    assert_eq!(
        plain.metrics.disk_write_bytes,
        live.metrics.disk_write_bytes
    );
    assert!(plain.live.is_none());
}

#[test]
fn live_store_frac_is_measured_against_the_store_override() {
    // 64 MB over four 8 MB stores: the run spills, so the stores sit
    // near full. Against the nominal i3 card's store the same bytes
    // would read as a fraction of a percent.
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), 4));
    cfg.object_store_capacity = Some(8 * 1000 * 1000);
    cfg.live = Some(LiveConfig::default());
    let spec = pinned_spec();
    let (report, ()) = exoshuffle::rt::run(cfg, |rt: &RtHandle| {
        let job = sort_job(spec);
        let outs = run_shuffle(rt, &job, ShuffleVariant::Simple);
        rt.wait_all(&outs);
    });
    assert!(
        report.metrics.store.spilled_bytes > 0,
        "the case must spill"
    );
    let peak = series(&report)
        .snapshots
        .iter()
        .flat_map(|s| &s.nodes)
        .map(|n| n.store_frac)
        .fold(0.0, f64::max);
    assert!(
        (0.5..=1.0).contains(&peak),
        "peak windowed store_frac {peak} is not measured against the 8 MB override"
    );
}
