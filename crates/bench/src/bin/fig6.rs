//! Figure 6: single-node DataFrame sort on Dask vs Ray backends
//! (§5.3.1) — the shared-memory object-store comparison.
//!
//! Expected shape (paper): on small data, Dask multiprocessing ≈
//! Dask-on-Ray while multithreading is ~3× slower (GIL); on large data,
//! multiprocessing OOMs from cross-process copies while the shared-memory
//! store keeps finishing.

use exo_bench::figure::{run, Case, Column, Figure, Scale};
use exo_monolith::{dask_sort, DaskMode, DaskOutcome, DaskSortConfig};
use exo_rt::trace::Json;
use exo_sim::{ClusterSpec, NodeSpec};

/// The data sizes in GB, each a column of the table.
const SIZES_GB: [u64; 5] = [1, 10, 50, 100, 200];

fn main() {
    run("fig6", fig6);
}

/// One row per backend, with each size's outcome under the size's name.
fn fig6(_: Scale) -> Figure {
    let cfg = DaskSortConfig::paper_default(ClusterSpec::homogeneous(
        NodeSpec::dask_comparison_node(),
        1,
    ));
    let modes: [(&str, DaskMode); 4] = [
        ("Dask 32p x 1t", DaskMode::Multiprocessing { procs: 32 }),
        (
            "Dask 8p x 4t",
            DaskMode::Mixed {
                procs: 8,
                threads: 4,
            },
        ),
        ("Dask 1p x 32t", DaskMode::Multithreading { threads: 32 }),
        ("Dask-on-Ray (shared mem)", DaskMode::SharedMemoryStore),
    ];
    let cases = modes.map(|(name, mode)| {
        let cfg = cfg.clone();
        Box::new(move || {
            let mut row = Json::obj().set("backend", name);
            for gb in SIZES_GB {
                let size = gb * 1_000_000_000;
                let outcome = match dask_sort(&cfg, mode, size) {
                    DaskOutcome::Finished(d) => Json::obj().set("jct_s", d.as_secs_f64()),
                    DaskOutcome::OutOfMemory { .. } => Json::obj().set("oom", true),
                };
                row = row.set(&format!("{gb}GB"), outcome.set("data_bytes", size));
            }
            row
        }) as Case
    });
    let mut columns = vec![Column::text("backend", "backend")];
    for gb in SIZES_GB {
        let label = format!("{gb}GB");
        columns.push(Column::new(&label.clone(), move |row| {
            let outcome = row.get(&label)?;
            Some(match outcome.get("jct_s") {
                Some(jct) => format!("{:.1}s", jct.as_f64()?),
                None => "OOM".into(),
            })
        }));
    }
    Figure::cases(
        vec!["# Figure 6 — single-node DataFrame sort, 32 vCPU / 244 GB".into()],
        Json::obj().set("node", "dask_comparison_node"),
        cases.into(),
        columns,
    )
}
