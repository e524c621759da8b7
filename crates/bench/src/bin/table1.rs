//! Table 1: lines of code to implement each shuffle algorithm in
//! Exoshuffle vs. in the monolithic system that introduced it.
//!
//! Our LoC are counted mechanically from the shuffle-library sources
//! (non-blank, non-comment lines, excluding tests); the monolithic
//! numbers are the paper's.

use exo_bench::figure::{run, Case, Column, Figure, Scale, View};
use exo_rt::trace::Json;

/// Count non-blank, non-comment lines, stopping at the test module.
fn count_loc(path: &std::path::Path) -> usize {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let mut n = 0;
    for line in src.lines() {
        let t = line.trim();
        if t == "#[cfg(test)]" {
            break;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        n += 1;
    }
    n
}

fn main() {
    run("table1", table1);
}

fn table1(_: Scale) -> Figure {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let cases = [
        ("Simple (§3.1.1)", "simple.rs", 2600u64, "Spark shuffle pkg"),
        ("Pre-shuffle merge (§3.1.2)", "merge.rs", 4000, "Riffle"),
        ("Push-based (§3.1.3)", "push.rs", 6700, "Magnet"),
        ("  with pipelining (§4.1)", "push_star.rs", 6700, "Magnet"),
    ]
    .map(|(algorithm, file, monolithic_loc, system)| {
        let path = root.join(file);
        Box::new(move || {
            Json::obj()
                .set("algorithm", algorithm)
                .set("file", file)
                .set("loc", count_loc(&path))
                .set("monolithic_loc", monolithic_loc)
                .set("monolithic_system", system)
        }) as Case
    });
    let mut figure = Figure::cases(
        vec!["# Table 1 — implementation complexity (lines of code)".into()],
        Json::obj().set("shared_loc", count_loc(&root.join("job.rs"))),
        cases.into(),
        vec![
            Column::text("shuffle algorithm", "algorithm"),
            Column::new("monolithic system LoC", |row| {
                let system = row.get("monolithic_system")?.as_str()?;
                Some(format!(
                    "{} ({system})",
                    row.get("monolithic_loc")?.render()
                ))
            }),
            Column::text("this library LoC", "loc"),
        ],
    );
    figure.views.push(View::text(|doc| {
        Some(format!(
            "shared workload-description module (job.rs): {} LoC\n\
             (paper's Exoshuffle counts: 215 / 265 / 256 / 256)",
            doc.get("shared_loc")?.render()
        ))
    }));
    figure
}
