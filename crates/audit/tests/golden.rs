//! Golden-pinned findings for the fixture corpus.
//!
//! Each fixture under `tests/fixtures/` is scanned as a specific crate
//! and its findings/exemptions are pinned exactly, `(rule, line)` by
//! `(rule, line)`. A rule change that shifts any fixture's output fails
//! here first, with the diff in plain sight — the same philosophy as
//! `bench_gate`'s pinned cases, applied to the auditor itself.

use std::path::PathBuf;

use exo_audit::{audit_workspace, scan_files, SourceFile};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixtures().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

type Pairs = Vec<(String, u32)>;

/// Scan a fixture as `krate`; return `(findings, exemptions)` as
/// `(rule, line)` pairs in report order.
fn scan(name: &str, krate: &str) -> (Pairs, Pairs) {
    let (f, e) = scan_files(&[SourceFile {
        path: name.into(),
        crate_name: krate.into(),
        src: fixture(name),
        audited: true,
    }]);
    (
        f.into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect(),
        e.into_iter().map(|e| (e.rule, e.line)).collect(),
    )
}

fn pairs(expect: &[(&str, u32)]) -> Vec<(String, u32)> {
    expect.iter().map(|(r, l)| (r.to_string(), *l)).collect()
}

#[track_caller]
fn check(name: &str, krate: &str, findings: &[(&str, u32)], exemptions: &[(&str, u32)]) {
    let (f, e) = scan(name, krate);
    assert_eq!(f, pairs(findings), "{name}: findings drifted");
    assert_eq!(e, pairs(exemptions), "{name}: exemptions drifted");
}

#[test]
fn d01_unordered_hash_iteration() {
    // Line 7: `for (_k, v) in m`; line 14: `s.iter().next()`.
    check("d01_violation.rs", "sim", &[("D01", 7), ("D01", 14)], &[]);
    check("d01_clean.rs", "sim", &[], &[]);
    check("d01_exempt.rs", "sim", &[], &[("D01", 8)]);
}

#[test]
fn d01_is_scoped_to_deterministic_crates() {
    // The same violating source is clean when scanned as a crate outside
    // the deterministic set (bench drives runs; it may iterate freely).
    check("d01_violation.rs", "bench", &[], &[]);
}

#[test]
fn d02_wall_clock() {
    // Lines 3/4: `Instant::now` / `SystemTime::now`; line 6: `UNIX_EPOCH`.
    check(
        "d02_violation.rs",
        "sim",
        &[("D02", 3), ("D02", 4), ("D02", 6)],
        &[],
    );
    check("d02_clean.rs", "sim", &[], &[]);
    check("d02_exempt.rs", "sim", &[], &[("D02", 5)]);
}

#[test]
fn d03_ambient_randomness() {
    // Line 2 pins the deliberate token-level semantics: even a `use` of
    // `RandomState` is flagged — the rule is heuristic by design.
    check(
        "d03_violation.rs",
        "sim",
        &[("D03", 2), ("D03", 5), ("D03", 6), ("D03", 7)],
        &[],
    );
    check("d03_clean.rs", "sim", &[], &[]);
    check("d03_exempt.rs", "sim", &[], &[("D03", 5)]);
}

#[test]
fn d04_wildcard_trace_matches() {
    // Line 6: `_ =>`; line 13: a lowercase catch-all binding.
    check("d04_violation.rs", "trace", &[("D04", 6), ("D04", 13)], &[]);
    // Clean file includes a wildcard on Option — out of D04's scope.
    check("d04_clean.rs", "trace", &[], &[]);
    check("d04_exempt.rs", "trace", &[], &[("D04", 7)]);
}

#[test]
fn d04_applies_to_every_crate() {
    // D04 guards trace-enum exhaustiveness everywhere, not just in the
    // deterministic set.
    check("d04_violation.rs", "bench", &[("D04", 6), ("D04", 13)], &[]);
}

#[test]
fn p01_hot_path_panics() {
    check(
        "p01_violation.rs",
        "rt",
        &[
            ("P01", 4),  // .unwrap()
            ("P01", 5),  // .expect()
            ("P01", 7),  // panic!
            ("P01", 13), // todo!
            ("P01", 19), // unreachable!
        ],
        &[],
    );
    // `unwrap_or` / `unwrap_or_default` are total — not flagged.
    check("p01_clean.rs", "rt", &[], &[]);
    // Line 17 pins the statement-extent rule: a leading allow covers an
    // `.expect()` four lines below the statement head.
    check("p01_exempt.rs", "rt", &[], &[("P01", 7), ("P01", 17)]);
}

#[test]
fn p01_is_scoped_to_hot_crates() {
    check("p01_violation.rs", "prof", &[], &[]);
}

#[test]
fn a01_missing_justification() {
    // The bare allow is itself a finding AND suppresses nothing: the
    // unwrap underneath it still fires.
    check("a01_malformed.rs", "rt", &[("A01", 4), ("P01", 5)], &[]);
}

#[test]
fn a02_unused_allow() {
    check("a02_unused.rs", "rt", &[("A02", 4)], &[]);
}

#[test]
fn u01_unused_public_items_across_a_workspace() {
    // `u01_workspace` is a miniature workspace: crate alpha declares the
    // items, crate beta, examples/ and benchmark/src use some of them,
    // and alpha's integration test uses one that stays a finding.
    let report = audit_workspace(&fixtures().join("u01_workspace"));
    let alpha = "crates/alpha/src/lib.rs";
    let found: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.clone(), f.line))
        .collect();
    assert_eq!(
        found,
        [
            ("U01", 16), // fn used only by tests/
            ("U01", 19), // const used only under #[cfg(test)]
            ("U01", 22), // fn named only by a `pub use` and a doc link
            ("U01", 28), // field named nowhere else
            ("U01", 35), // variant named nowhere else
            ("U01", 39), // struct named only in its own impl
            ("U01", 42), // ...and that impl's method
            ("A02", 52), // U01 allow over an item beta uses
        ]
        .map(|(r, l)| (r, alpha.to_string(), l))
    );
    let exempt: Vec<_> = report
        .exemptions
        .iter()
        .map(|e| (e.rule.as_str(), e.path.as_str(), e.line))
        .collect();
    assert_eq!(exempt, [("U01", alpha, 48)]);
    // Only crates/*/src is audited; examples/ and the benchmark are read
    // as consumers.
    assert_eq!(report.files_scanned, 2);
    assert_eq!(
        report.lines.into_iter().collect::<Vec<_>>(),
        [("alpha".to_string(), 54), ("beta".to_string(), 11)]
    );
}

#[test]
fn fixture_corpus_is_fully_pinned() {
    // Every fixture file must be covered by a golden above; a new
    // fixture without a pin is itself a test failure.
    let pinned = [
        "a01_malformed.rs",
        "a02_unused.rs",
        "d01_clean.rs",
        "d01_exempt.rs",
        "d01_violation.rs",
        "d02_clean.rs",
        "d02_exempt.rs",
        "d02_violation.rs",
        "d03_clean.rs",
        "d03_exempt.rs",
        "d03_violation.rs",
        "d04_clean.rs",
        "d04_exempt.rs",
        "d04_violation.rs",
        "p01_clean.rs",
        "p01_exempt.rs",
        "p01_violation.rs",
        "u01_workspace",
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, pinned, "fixture corpus and goldens diverged");
}
