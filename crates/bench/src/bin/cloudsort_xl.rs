//! `cloudsort_xl`: the engine-scale proof case. CloudSort-record
//! geometry — 100× d3.2xlarge, 100 TB logical data — with the partition
//! count scaled so the engine dispatches tens of millions of events,
//! run twice to prove bit-identical determinism at scale, reporting
//! sim-events/sec, peak RSS, wall-clock, and CloudSort-style $/TB into
//! `results/cloudsort_xl.json`.
//!
//! `--quick` runs the 400-partition smoke pair plus one 800-partition
//! mid run and gates the throughput floor, the 400 → 800 scaling ratio
//! and the mid run's peak RSS.

use exo_bench::runs::{peak_rss_bytes, variant_name};
use exo_bench::xl::{
    run_xl, tables_json, xl_params, XlStats, XL_EVENTS_PER_SEC_FLOOR, XL_FULL_PARTITIONS,
    XL_MID_PARTITIONS, XL_MID_RSS_CEILING_BYTES, XL_NODES, XL_SCALING_MIN_RATIO,
    XL_SMOKE_PARTITIONS,
};
use exo_bench::{sort_result_json, write_results, Scale, Table};
use exo_rt::trace::Json;
use exo_sort::{usd_per_tb, D3_2XLARGE};

fn main() {
    let smoke = Scale::from_args() == Scale::Quick;
    let p = xl_params(if smoke {
        XL_SMOKE_PARTITIONS
    } else {
        XL_FULL_PARTITIONS
    });
    println!(
        "# cloudsort_xl — {:.1} TB sort, {XL_NODES}× {} ({} partitions, {})",
        p.data_bytes as f64 / 1e12,
        D3_2XLARGE.name,
        p.partitions,
        variant_name(p.variant),
    );

    let a = run_xl(p);
    let b = run_xl(p);
    let diffs = exo_bench::xl::rerun_diffs(&a.result, &b.result);
    if !diffs.is_empty() {
        eprintln!("FAIL: cloudsort_xl reruns differ on: {}", diffs.join(", "));
        std::process::exit(1);
    }
    // Taken before the mid run, so it stays the pair's own peak.
    let rss = peak_rss_bytes();
    let mid = smoke.then(|| smoke_gates(&a, &b));
    report(p.data_bytes, &a, &b, rss, smoke, mid.as_ref());
}

/// Engine gates on the smoke pair (the geometry CI runs): a regression
/// back toward pre-refactor dispatch rates, a per-event cost that grows
/// with the partition count (the cliff the full geometry once hit), or
/// a per-object footprint regrowing at the mid size fails loudly. The
/// better of the pair is judged so one cold cache or CI neighbour
/// doesn't flake the gate. Returns the mid run and its peak RSS.
fn smoke_gates(a: &XlStats, b: &XlStats) -> (XlStats, u64) {
    let best = a.events_per_sec().max(b.events_per_sec());
    if best < XL_EVENTS_PER_SEC_FLOOR {
        eprintln!(
            "FAIL: cloudsort_xl smoke engine throughput {best:.0} events/s \
             below floor {XL_EVENTS_PER_SEC_FLOOR:.0}"
        );
        std::process::exit(1);
    }
    let mid = run_xl(xl_params(XL_MID_PARTITIONS));
    let ratio = mid.events_per_sec() / best;
    println!(
        "scaling {XL_SMOKE_PARTITIONS} → {XL_MID_PARTITIONS} partitions: \
         {best:.0} → {:.0} events/s (ratio {ratio:.2}, min {XL_SCALING_MIN_RATIO})",
        mid.events_per_sec(),
    );
    if ratio < XL_SCALING_MIN_RATIO {
        eprintln!(
            "FAIL: cloudsort_xl events/s at {XL_MID_PARTITIONS} partitions is \
             {ratio:.2}x the {XL_SMOKE_PARTITIONS}-partition rate (min {XL_SCALING_MIN_RATIO})"
        );
        std::process::exit(1);
    }
    // The mid run is the largest in the process, so the process peak
    // is its peak.
    let rss = peak_rss_bytes();
    println!(
        "peak RSS at {XL_MID_PARTITIONS} partitions: {:.0} MB (ceiling {:.0} MB)",
        rss as f64 / 1e6,
        XL_MID_RSS_CEILING_BYTES as f64 / 1e6,
    );
    if rss > XL_MID_RSS_CEILING_BYTES {
        eprintln!(
            "FAIL: cloudsort_xl peak RSS at {XL_MID_PARTITIONS} partitions is {rss} bytes \
             (ceiling {XL_MID_RSS_CEILING_BYTES})"
        );
        std::process::exit(1);
    }
    (mid, rss)
}

fn report(
    data: u64,
    a: &XlStats,
    b: &XlStats,
    rss: u64,
    smoke: bool,
    mid: Option<&(XlStats, u64)>,
) {
    let jct = a.result.jct;
    let cost = usd_per_tb(D3_2XLARGE, XL_NODES, jct, data);

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["JCT (s)".into(), format!("{:.1}", jct.as_secs_f64())]);
    t.row(vec!["$ / TB".into(), format!("{cost:.3}")]);
    t.row(vec![
        "spilled (TB)".into(),
        format!("{:.2}", a.result.spilled as f64 / 1e12),
    ]);
    t.row(vec![
        "net (TB)".into(),
        format!("{:.2}", a.result.net as f64 / 1e12),
    ]);
    t.row(vec!["sim events".into(), format!("{}", a.events)]);
    t.row(vec!["wall (s)".into(), format!("{:.2}", a.wall_s)]);
    t.row(vec![
        "events / s".into(),
        format!("{:.0}", a.events_per_sec()),
    ]);
    t.row(vec![
        "peak RSS (MB)".into(),
        format!("{:.0}", rss as f64 / 1e6),
    ]);
    t.print();
    println!("\nreruns bit-identical: yes (JCT {:.6} s twice)", {
        jct.as_secs_f64()
    });

    let mut out = Json::obj()
        .set("case", "cloudsort_xl")
        .set("smoke", if smoke { 1u64 } else { 0u64 })
        .set("nodes", XL_NODES as u64)
        .set("data_bytes", data)
        .set("usd_per_tb", cost)
        .set("sim_events", a.events)
        .set("wall_s", a.wall_s)
        .set("sim_events_per_sec", a.events_per_sec())
        .set("rerun_wall_s", b.wall_s)
        .set("rerun_bit_identical", 1u64)
        .set("peak_rss_bytes", rss)
        .set("tables", tables_json(&a.result.tables))
        .set("run", sort_result_json(&a.result));
    if let Some((m, mid_rss)) = mid {
        out = out.set(
            "mid",
            Json::obj()
                .set("partitions", XL_MID_PARTITIONS as u64)
                .set("sim_events", m.events)
                .set("wall_s", m.wall_s)
                .set("sim_events_per_sec", m.events_per_sec())
                .set("peak_rss_bytes", *mid_rss)
                .set("tables", tables_json(&m.result.tables)),
        );
    }
    write_results("cloudsort_xl", out);
}
