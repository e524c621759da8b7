//! `--compare A.json B.json`: judges one benchmark output against
//! another with BENCHMARK.json's bounds.

use exo_rt::trace::Json;

use crate::catalog::catalog;
use crate::fmt_num;
use crate::stats::{self, Summary, Verdict};

/// Absolute change below which `--compare` never calls a regression, in
/// the metric's unit.
const FLOORS: [(&str, f64); 3] = [("wall_s", 0.2), ("peak_rss_mb", 16.0), ("setup_s", 0.05)];

/// `--compare A B`: judges every (workload, end-to-end metric) of `b`
/// against `a` with BENCHMARK.json's bounds. Returns false on any
/// regression or a higher failed-job share.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (e2e, _) = catalog();
    let workloads = |j: &Json| {
        j.get("workloads")
            .map(|w| w.entries().to_vec())
            .unwrap_or_default()
    };
    let b_workloads = workloads(&b);
    let mut ok = true;
    println!(
        "{:<15} {:<14} {:>12} {:>12} {:>10} {:>10} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "IQR A", "IQR B", "delta"
    );
    for (name, wa) in workloads(&a) {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        for m in &e2e {
            let values = |w: &Json| -> Option<Vec<f64>> {
                match w.get("metrics")?.get(&m.name)?.get("values")? {
                    Json::Arr(xs) => xs.iter().map(Json::as_f64).collect(),
                    _ => None,
                }
            };
            let (Some(va), Some(vb)) = (values(&wa), values(wb)) else {
                return Err(format!("{name}: {} missing", m.name));
            };
            let floor = FLOORS
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |f| f.1);
            let bound = m.bound.unwrap_or(0.0);
            let v = stats::verdict(&va, &vb, m.better, bound, floor);
            ok &= v != Verdict::Regressed;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let delta = (sb.median - sa.median) / sa.median.abs();
            println!(
                "{name:<15} {:<14} {:>12} {:>12} {:>10} {:>10} {:>+8.2}%  {}",
                m.name,
                fmt_num(sa.median),
                fmt_num(sb.median),
                fmt_num(sa.iqr()),
                fmt_num(sb.iqr()),
                delta * 100.0,
                v.name()
            );
        }
        let share = |w: &Json| {
            let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        let (fa, fb) = (share(&wa), share(wb));
        let verdict = if fb > fa { "REGRESSED" } else { "PASS" };
        ok &= fb <= fa;
        println!(
            "{name:<15} {:<14} {fa:>12} {fb:>12} {:>31}  {verdict}",
            "jobs_failed", ""
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_name_end_to_end_metrics() {
        let (e2e, _) = catalog();
        for (name, _) in FLOORS {
            assert!(e2e.iter().any(|m| m.name == name), "{name}");
        }
    }
}
