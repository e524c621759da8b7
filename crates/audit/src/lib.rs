//! `exo-audit` — workspace determinism & safety auditor.
//!
//! Every dynamic guarantee this repo ships — the pinned `bench_gate`
//! cases, `live_check --rerun` byte-equality, `--incidents-diff`
//! bit-for-bit comparison — rests on the sim/store/rt/trace/live/watch/
//! prof stack being *deterministic*. This crate enforces that contract
//! statically, at the source level, before a single sim event fires:
//!
//! - **D01** unordered `HashMap`/`HashSet` iteration in deterministic
//!   crates, unless sorted, collected to a `BTreeMap`, or exempted;
//! - **D02** wall-clock time where virtual `SimTime` must rule;
//! - **D03** unseeded/ambient randomness;
//! - **D04** wildcard `_ =>` arms on `EventKind`/`IncidentKind`
//!   matches, which let new trace variants silently skip exporters,
//!   folding, observers, and detectors;
//! - **P01** `unwrap`/`expect`/`panic!` in engine hot paths (`sim`,
//!   `rt`, `store`) where typed errors are required;
//! - **U01** `pub` items whose name no non-test code uses — a
//!   workspace pass over every file, with `examples/` and the
//!   repository benchmark read as consumers.
//!
//! Deliberate violations carry an inline
//! `// audit:allow(RULE): <justification>`; a missing justification is
//! itself a finding (**A01**), as is an exemption that suppresses
//! nothing (**A02**). CI runs `cargo run -p exo-audit -- --deny` and
//! fails on any finding. See DESIGN.md §13.

pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use report::{render_human, render_json};
pub use rules::{scan_files, Exemption, Finding, RuleInfo, SourceFile, RULES};

/// The result of auditing a whole workspace.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    pub exemptions: Vec<Exemption>,
    pub files_scanned: usize,
    /// Non-test lines per crate (the root package as "exoshuffle"):
    /// physical lines outside the test regions the lexer finds.
    pub lines: BTreeMap<String, usize>,
}

impl AuditReport {
    /// `(rule id, findings, exemptions)` in [`RULES`] order (zero-count
    /// rules included, so reports are shape-stable).
    pub fn by_rule(&self) -> Vec<(&'static str, usize, usize)> {
        RULES
            .iter()
            .map(|r| {
                let findings = self.findings.iter().filter(|f| f.rule == r.id).count();
                let exemptions = self.exemptions.iter().filter(|e| e.rule == r.id).count();
                (r.id, findings, exemptions)
            })
            .collect()
    }
}

/// Walks up from `start` to the directory holding the `[workspace]`
/// manifest. Lets the binary run from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Directory names whose contents are never audited: test/bench/
/// example code may use wall clocks and unwraps freely, and fixture
/// files *deliberately* violate rules.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Collects the `.rs` sources to audit under `root`, with the crate
/// name each belongs to, in deterministic (sorted) order. Scans
/// `crates/*/src` and the root package's `src/`; `compat/` holds
/// vendored API shims of external crates and is not ours to audit.
pub fn workspace_sources(root: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        collect_rs(&dir.join("src"), &name, &mut out);
    }
    collect_rs(&root.join("src"), "exoshuffle", &mut out);
    out
}

fn collect_rs(dir: &Path, crate_name: &str, out: &mut Vec<(PathBuf, String)>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref().is_some_and(|n| SKIP_DIRS.contains(&n)) {
                continue;
            }
            collect_rs(&p, crate_name, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((p, crate_name.to_string()));
        }
    }
}

/// Directories read only as U01 consumers: a use there keeps a `pub`
/// item alive, but nothing in them is audited.
const CONSUMER_DIRS: &[&str] = &["examples", "benchmark/src"];

/// Audits the workspace rooted at `root`.
pub fn audit_workspace(root: &Path) -> AuditReport {
    let mut consumers = Vec::new();
    for dir in CONSUMER_DIRS {
        collect_rs(&root.join(dir), "", &mut consumers);
    }
    let audited = workspace_sources(root);
    let n_audited = audited.len();
    let mut files = Vec::new();
    for (i, (path, crate_name)) in audited.into_iter().chain(consumers).enumerate() {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile {
            path: rel,
            crate_name,
            src,
            audited: i < n_audited,
        });
    }
    let (findings, exemptions) = rules::scan_files(&files);
    let mut lines = BTreeMap::new();
    for f in files.iter().filter(|f| f.audited) {
        *lines.entry(f.crate_name.clone()).or_insert(0) += rules::non_test_lines(&f.src);
    }
    AuditReport {
        findings,
        exemptions,
        files_scanned: files.iter().filter(|f| f.audited).count(),
        lines,
    }
}
