//! The audit rules. Each rule states a *determinism or safety contract*
//! the workspace's dynamic gates (`gate_pin`, `live_check --rerun`,
//! `--incidents-diff`) depend on, and detects source patterns that can
//! silently break it. See DESIGN.md §13 for the full argument per rule.
//!
//! Detection is heuristic by design: the lexer guarantees literals and
//! comments never false-positive, and anything the heuristics flag that
//! is genuinely order-insensitive carries an inline
//! `// audit:allow(RULE): <justification>` with a written reason.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// Crates whose output must be bit-identical across reruns: the sim
/// engine, the object store, the runtime, and every layer that folds,
/// exports, or detects over the trace stream.
pub const DETERMINISTIC_CRATES: &[&str] = &["sim", "store", "rt", "trace", "live", "watch", "prof"];

/// Engine hot-path crates where `unwrap`/`expect`/`panic!` must be a
/// typed error or carry a written invariant argument.
pub const P01_CRATES: &[&str] = &["sim", "rt", "store"];

/// One rule's identity and one-line contract.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule the auditor knows, in report order. `A01`/`A02` police
/// the exemption mechanism itself.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D01",
        summary: "unordered HashMap/HashSet iteration in a deterministic crate \
                  (sort, collect to BTreeMap, or justify order-insensitivity)",
    },
    RuleInfo {
        id: "D02",
        summary: "wall-clock time (Instant::now / SystemTime::now / UNIX_EPOCH) \
                  where virtual SimTime must rule",
    },
    RuleInfo {
        id: "D03",
        summary: "unseeded/ambient randomness (thread_rng, rand::random, OsRng, \
                  from_entropy, getrandom)",
    },
    RuleInfo {
        id: "D04",
        summary: "wildcard `_ =>` arm on an EventKind/IncidentKind match — new \
                  trace variants would silently skip this consumer",
    },
    RuleInfo {
        id: "P01",
        summary: "unwrap/expect/panic! in engine hot-path code (sim/rt/store) \
                  where typed errors are required",
    },
    RuleInfo {
        id: "U01",
        summary: "pub item whose name no non-test code uses outside its own \
                  declaration (delete it, or name the test oracle that needs it)",
    },
    RuleInfo {
        id: "A01",
        summary: "malformed audit:allow — exemptions must carry a written \
                  justification after the colon",
    },
    RuleInfo {
        id: "A02",
        summary: "unused audit:allow — the exemption suppresses nothing and \
                  must be removed",
    },
];

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// One *used* `audit:allow` annotation: a finding that was suppressed
/// by a written justification.
#[derive(Debug, Clone)]
pub struct Exemption {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub justification: String,
}

/// A parsed `// audit:allow(R1, R2): justification` annotation.
#[derive(Debug)]
struct Allow {
    rules: Vec<String>,
    justification: String,
    /// Line of the comment itself.
    comment_line: u32,
    /// First line of code the allow applies to.
    target_line: u32,
    /// Last covered line: a trailing allow covers its own line only; a
    /// leading allow covers the whole statement that starts on the next
    /// code line (multi-line method chains put the `.expect()` several
    /// lines below the statement head).
    target_end: u32,
    used: bool,
    malformed: bool,
}

/// One source file handed to [`scan_files`]. A file with `audited ==
/// false` (examples, the repository benchmark) is read only as a U01
/// consumer: its uses keep a `pub` item alive, but no rule runs on it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, recorded into findings.
    pub path: String,
    /// Decides rule scope ("sim", "trace", …; the root package scans as
    /// "exoshuffle").
    pub crate_name: String,
    pub src: String,
    pub audited: bool,
}

/// Scans a set of files: the per-file rules on each audited file, then
/// the workspace pass (U01) across all of them. Findings and exemptions
/// come back in file order.
pub fn scan_files(files: &[SourceFile]) -> (Vec<Finding>, Vec<Exemption>) {
    let lexed: Vec<(Lexed, BTreeSet<u32>)> = files
        .iter()
        .map(|f| {
            let lx = lex(&f.src);
            let tests = test_regions(&lx);
            (lx, tests)
        })
        .collect();
    let mut unused = rule_u01(files, &lexed);
    let mut findings = Vec::new();
    let mut exemptions = Vec::new();
    for (i, file) in files.iter().enumerate() {
        if file.audited {
            let (lx, tests) = &lexed[i];
            let raw = std::mem::take(&mut unused[i]);
            let (f, e) = scan_lexed(lx, tests, &file.crate_name, &file.path, raw);
            findings.extend(f);
            exemptions.extend(e);
        }
    }
    (findings, exemptions)
}

/// Physical lines of `src` outside its test regions: the unit of the
/// size report.
pub fn non_test_lines(src: &str) -> usize {
    src.lines().count() - test_regions(&lex(src)).len()
}

/// Runs the per-file rules on one lexed file, adds `raw` (its share of
/// the workspace findings) and applies the file's exemptions.
fn scan_lexed(
    lexed: &Lexed,
    test_lines: &BTreeSet<u32>,
    crate_name: &str,
    path: &str,
    mut raw: Vec<Finding>,
) -> (Vec<Finding>, Vec<Exemption>) {
    let mut allows = parse_allows(lexed, test_lines);

    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name);
    let hot_path = P01_CRATES.contains(&crate_name);

    if deterministic {
        rule_d01(lexed, path, &mut raw);
        rule_d02(lexed, path, &mut raw);
        rule_d03(lexed, path, &mut raw);
    }
    rule_d04(lexed, path, &mut raw);
    if hot_path {
        rule_p01(lexed, path, &mut raw);
    }

    // Drop findings inside test code, dedupe per (rule, line), then
    // apply exemptions.
    raw.retain(|f| !test_lines.contains(&f.line));
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);

    let mut findings = Vec::new();
    let mut exemptions = Vec::new();
    for f in raw {
        let allow = allows.iter_mut().find(|a| {
            !a.malformed
                && a.target_line <= f.line
                && f.line <= a.target_end
                && a.rules.iter().any(|r| r == f.rule)
        });
        match allow {
            Some(a) => {
                a.used = true;
                exemptions.push(Exemption {
                    rule: f.rule.to_string(),
                    path: path.to_string(),
                    line: f.line,
                    justification: a.justification.clone(),
                });
            }
            None => findings.push(f),
        }
    }

    // Police the mechanism itself.
    for a in &allows {
        if a.malformed {
            findings.push(Finding {
                rule: "A01",
                path: path.to_string(),
                line: a.comment_line,
                message: "audit:allow without a written justification — add \
                          `: <why this is safe>` after the rule list"
                    .to_string(),
            });
        } else if !a.used {
            findings.push(Finding {
                rule: "A02",
                path: path.to_string(),
                line: a.comment_line,
                message: format!(
                    "audit:allow({}) suppresses nothing on line {} — remove it",
                    a.rules.join(","),
                    a.target_line
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, exemptions)
}

/// Lines covered by `#[cfg(test)]`-gated items and `#[test]` functions.
fn test_regions(lx: &Lexed) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    let t = &lx.toks;
    let mut i = 0usize;
    while i < t.len() {
        // `#[cfg(test)]` or `#[cfg(any(test, ...))]` or `#[test]`.
        let is_attr = t[i].is_punct('#') && i + 1 < t.len() && t[i + 1].is_punct('[');
        if !is_attr {
            i += 1;
            continue;
        }
        // Find the closing `]` of this attribute.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut mentions_test = false;
        let mut is_cfg = false;
        let mut negated = false;
        while j < t.len() && depth > 0 {
            if t[j].is_punct('[') {
                depth += 1;
            } else if t[j].is_punct(']') {
                depth -= 1;
            } else if t[j].is_ident("cfg") {
                is_cfg = true;
            } else if t[j].is_ident("test") {
                mentions_test = true;
            } else if t[j].is_ident("not") {
                // `#[cfg(not(test))]` gates *production* code.
                negated = true;
            }
            j += 1;
        }
        let test_attr = mentions_test && !negated && (is_cfg || j == i + 4/* bare #[test] */);
        if !test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then find the item's body.
        let mut k = j;
        while k + 1 < t.len() && t[k].is_punct('#') && t[k + 1].is_punct('[') {
            let mut d = 0i32;
            while k < t.len() {
                if t[k].is_punct('[') {
                    d += 1;
                } else if t[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        // Walk to the opening `{` of the item (mod/fn/impl), or to a
        // `;` for brace-less items (`#[cfg(test)] use …;`).
        let mut open = None;
        let mut m = k;
        while m < t.len() && m < k + 64 {
            if t[m].is_punct('{') {
                open = Some(m);
                break;
            }
            if t[m].is_punct(';') {
                break;
            }
            m += 1;
        }
        let Some(open) = open else {
            for tok in &t[k..m.min(t.len())] {
                lines.insert(tok.line);
            }
            i = m;
            continue;
        };
        // Balance braces to the end of the item.
        let mut d = 0i32;
        let mut e = open;
        while e < t.len() {
            if t[e].is_punct('{') {
                d += 1;
            } else if t[e].is_punct('}') {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            e += 1;
        }
        let end_line = t[e.min(t.len() - 1)].line;
        for l in t[i].line..=end_line {
            lines.insert(l);
        }
        i = e + 1;
    }
    lines
}

/// A comment's text without its sigils (`/`, `!`, `*`) and leading
/// blanks.
fn comment_body(c: &Comment) -> &str {
    c.text
        .trim_start_matches(['/', '!', '*'])
        .trim_start_matches([' ', '\t'])
}

/// Parses `audit:allow(...)` annotations out of comments. The marker
/// must *begin* the comment (after the doc sigils `/`, `!`, `*`) so
/// prose that merely mentions the syntax is not an annotation. A
/// leading annotation's justification runs on through the whole-line
/// comments directly below it, up to the next code line or annotation.
/// Comments in test regions are ignored entirely.
fn parse_allows(lx: &Lexed, test_lines: &BTreeSet<u32>) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, c) in lx.comments.iter().enumerate() {
        let Some(rest) = comment_body(c).strip_prefix("audit:allow") else {
            continue;
        };
        if test_lines.contains(&c.line) {
            continue;
        }
        let mut rest = rest.trim_end().to_string();
        if !c.trailing {
            let mut line = c.line;
            for next in &lx.comments[i + 1..] {
                let body = comment_body(next);
                if next.trailing
                    || next.line != line + 1
                    || lx.code_lines.contains(&next.line)
                    || body.starts_with("audit:allow")
                {
                    break;
                }
                rest.push(' ');
                rest.push_str(body.trim_end());
                line = next.line;
            }
        }
        let (rules, justification, malformed) = match rest.strip_prefix('(') {
            Some(r) => match r.split_once(')') {
                Some((list, after)) => {
                    let rules: Vec<String> = list
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    let just = after
                        .strip_prefix(':')
                        .map(|j| j.trim().to_string())
                        .unwrap_or_default();
                    let malformed = rules.is_empty() || just.is_empty();
                    (rules, just, malformed)
                }
                None => (Vec::new(), String::new(), true),
            },
            None => (Vec::new(), String::new(), true),
        };
        let (target_line, target_end) = if c.trailing {
            (c.line, c.line)
        } else {
            let start = lx.next_code_line(c.line).unwrap_or(c.line);
            (start, statement_end_line(lx, start))
        };
        out.push(Allow {
            rules,
            justification,
            comment_line: c.line,
            target_line,
            target_end,
            used: false,
            malformed,
        });
    }
    out
}

/// Last line of the statement beginning at `start_line`: walks forward
/// to the first `;` or block-opening `{` at bracket depth 0. Bounds how
/// far a leading allow reaches — one statement, never a whole body.
fn statement_end_line(lx: &Lexed, start_line: u32) -> u32 {
    let t = &lx.toks;
    let Some(first) = t.iter().position(|x| x.line >= start_line) else {
        return start_line;
    };
    let mut depth = 0i32;
    for tok in t.iter().skip(first).take(400) {
        if tok.kind == TokKind::Punct {
            match tok.ch {
                '(' | '[' => depth += 1,
                '{' if depth <= 0 => return tok.line,
                '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    // Left the enclosing scope (e.g. a match arm with no
                    // trailing `;`): the statement ends here.
                    if depth < 0 {
                        return tok.line;
                    }
                }
                ';' if depth <= 0 => return tok.line,
                _ => {}
            }
        }
    }
    start_line
}

// ---------------------------------------------------------------------------
// D01 — unordered hash iteration
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Order-insensitive terminal reductions: a statement that iterates a
/// hash map but only `count`s / `sum`s / `min`/`max`es over it (or
/// collects straight into an ordered container) cannot leak iteration
/// order into the output.
const ORDER_FREE: &[&str] = &[
    "count", "sum", "min", "max", "any", "all", "is_empty", "len", "BTreeMap", "BTreeSet",
];

fn is_type_ish(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Lifetime)
        || matches!(t.ch, '<' | '>' | ',' | '&' | '(' | ')' | '[' | ']' | ':')
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: let
/// bindings with a type ascription, struct fields, fn params, and
/// `= HashMap::new()`-style constructions.
fn hash_names(t: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        if !(t[i].is_ident("HashMap") || t[i].is_ident("HashSet")) {
            continue;
        }
        // `name = HashMap::new()` / `= HashMap::with_capacity(..)`.
        if i >= 2 && t[i - 1].is_punct('=') && t[i - 2].kind == TokKind::Ident {
            names.insert(t[i - 2].text.clone());
            continue;
        }
        // `name: <type containing HashMap>` — walk back through
        // type-ish tokens to the ascription colon.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 48 {
            j -= 1;
            steps += 1;
            if t[j].is_punct(':') {
                // Skip path separators `::`.
                if j > 0 && t[j - 1].is_punct(':') {
                    j -= 1;
                    continue;
                }
                if j + 1 < t.len() && t[j + 1].is_punct(':') {
                    continue;
                }
                if j > 0 && t[j - 1].kind == TokKind::Ident {
                    names.insert(t[j - 1].text.clone());
                }
                break;
            }
            if !is_type_ish(&t[j]) {
                break;
            }
        }
    }
    names
}

/// True when the statement containing token `start` reduces the
/// iteration order-insensitively (see [`ORDER_FREE`]): the chain after
/// the iteration call ends in such a reduction, or the statement binds
/// into an ordered container (`let x: BTreeMap<_, _> = m.iter()…`).
fn statement_is_order_free(t: &[Tok], start: usize) -> bool {
    // Backward to the statement head: an ordered-container ascription
    // left of the iteration site clears it.
    let mut j = start;
    let mut steps = 0;
    while j > 0 && steps < 120 {
        j -= 1;
        steps += 1;
        if t[j].is_punct(';') || t[j].is_punct('{') || t[j].is_punct('}') {
            break;
        }
        if t[j].is_ident("BTreeMap") || t[j].is_ident("BTreeSet") {
            return true;
        }
    }
    // Forward to the statement end.
    let mut depth = 0i32;
    for tok in t.iter().skip(start).take(300) {
        match tok.kind {
            TokKind::Punct => match tok.ch {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => {
                    depth -= 1;
                    if depth < -1 {
                        return false;
                    }
                }
                ';' if depth <= 0 => return false,
                _ => {}
            },
            TokKind::Ident if ORDER_FREE.contains(&tok.text.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// True when the statement containing `start` is
/// `let [mut] NAME = … .collect();` immediately followed by
/// `NAME.sort…(…)` — the repo's canonical "collect then sort" sweep,
/// which fixes the order before anything observes it.
fn collected_then_sorted(t: &[Tok], start: usize) -> bool {
    // Backward to the statement head; it must open with `let [mut] NAME`.
    let mut j = start;
    let mut steps = 0;
    let mut head = usize::MAX;
    while j > 0 && steps < 120 {
        j -= 1;
        steps += 1;
        if t[j].is_punct(';') || t[j].is_punct('{') || t[j].is_punct('}') {
            head = j + 1;
            break;
        }
        if j == 0 {
            head = 0;
        }
    }
    if head == usize::MAX || !t.get(head).is_some_and(|x| x.is_ident("let")) {
        return false;
    }
    let mut k = head + 1;
    if t.get(k).is_some_and(|x| x.is_ident("mut")) {
        k += 1;
    }
    let name = match t.get(k) {
        Some(x) if x.kind == TokKind::Ident => x.text.as_str(),
        _ => return false,
    };
    // Forward to this statement's `;`.
    let mut depth = 0i32;
    let mut end = usize::MAX;
    for (off, tok) in t.iter().enumerate().skip(start).take(300) {
        if tok.kind == TokKind::Punct {
            match tok.ch {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => {
                    depth -= 1;
                    if depth < -1 {
                        return false;
                    }
                }
                ';' if depth <= 0 => {
                    end = off;
                    break;
                }
                _ => {}
            }
        }
    }
    if end == usize::MAX {
        return false;
    }
    // The very next statement must sort the binding.
    t.get(end + 1).is_some_and(|x| x.is_ident(name))
        && t.get(end + 2).is_some_and(|x| x.is_punct('.'))
        && t.get(end + 3)
            .is_some_and(|x| x.kind == TokKind::Ident && x.text.starts_with("sort"))
}

fn rule_d01(lx: &Lexed, path: &str, out: &mut Vec<Finding>) {
    let t = &lx.toks;
    let names = hash_names(t);
    if names.is_empty() {
        return;
    }
    let known = |tok: &Tok| tok.kind == TokKind::Ident && names.contains(&tok.text);

    for i in 0..t.len() {
        // `name.iter()` / `self.name.values()` …
        if t[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&t[i].text.as_str())
            && i + 1 < t.len()
            && t[i + 1].is_punct('(')
            && i >= 2
            && t[i - 1].is_punct('.')
            && known(&t[i - 2])
        {
            // `for x in m.values() { … }`: the loop body is not a
            // reduction chain — never treat its contents as clearing.
            let receiver = i - 2;
            let in_for = (receiver >= 1 && t[receiver - 1].is_ident("in"))
                || (receiver >= 2
                    && t[receiver - 1].is_punct('&')
                    && t[receiver - 2].is_ident("in"))
                || (receiver >= 3
                    && t[receiver - 1].is_punct('.')
                    && t[receiver - 2].is_ident("self")
                    && t[receiver - 3].is_ident("in"));
            if (in_for || !statement_is_order_free(t, i)) && !collected_then_sorted(t, i) {
                out.push(Finding {
                    rule: "D01",
                    path: path.to_string(),
                    line: t[i].line,
                    message: format!(
                        "iteration over unordered `{}` via `.{}()` — use a BTreeMap/\
                         BTreeSet, sort the results, or justify order-insensitivity",
                        t[i - 2].text,
                        t[i].text
                    ),
                });
            }
            continue;
        }
        // `for x in [&[mut]] [self.]name {`
        if t[i].is_ident("in") {
            let mut j = i + 1;
            while j < t.len() && (t[j].is_punct('&') || t[j].is_ident("mut")) {
                j += 1;
            }
            if j + 1 < t.len() && t[j].is_ident("self") && t[j + 1].is_punct('.') {
                j += 2;
            }
            if j + 1 < t.len() && known(&t[j]) && t[j + 1].is_punct('{') {
                out.push(Finding {
                    rule: "D01",
                    path: path.to_string(),
                    line: t[j].line,
                    message: format!(
                        "for-loop over unordered `{}` — iteration order is \
                         nondeterministic; use a BTreeMap/BTreeSet or sort first",
                        t[j].text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// D02 — wall-clock time
// ---------------------------------------------------------------------------

fn rule_d02(lx: &Lexed, path: &str, out: &mut Vec<Finding>) {
    let t = &lx.toks;
    for i in 0..t.len() {
        let wall_now = (t[i].is_ident("Instant") || t[i].is_ident("SystemTime"))
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("now");
        let epoch = t[i].is_ident("UNIX_EPOCH");
        if wall_now || epoch {
            out.push(Finding {
                rule: "D02",
                path: path.to_string(),
                line: t[i].line,
                message: format!(
                    "wall-clock `{}` in a deterministic crate — virtual SimTime must \
                     rule; derive timestamps from the sim clock",
                    if epoch {
                        "UNIX_EPOCH".to_string()
                    } else {
                        format!("{}::now", t[i].text)
                    }
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D03 — ambient randomness
// ---------------------------------------------------------------------------

fn rule_d03(lx: &Lexed, path: &str, out: &mut Vec<Finding>) {
    let t = &lx.toks;
    for i in 0..t.len() {
        let ambient = t[i].is_ident("thread_rng")
            || t[i].is_ident("from_entropy")
            || t[i].is_ident("OsRng")
            || t[i].is_ident("getrandom")
            || t[i].is_ident("RandomState");
        let rand_random = t[i].is_ident("rand")
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("random");
        if ambient || rand_random {
            out.push(Finding {
                rule: "D03",
                path: path.to_string(),
                line: t[i].line,
                message: format!(
                    "ambient randomness `{}` — all randomness must flow from the \
                     run's explicit seed",
                    if rand_random {
                        "rand::random".to_string()
                    } else {
                        t[i].text.clone()
                    }
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D04 — wildcard arms on trace-variant matches
// ---------------------------------------------------------------------------

/// One parsed match arm: its pattern tokens (guard excluded) and line.
struct Arm {
    pattern: Vec<Tok>,
    line: u32,
}

/// Parses the arms of the `match` whose `match` keyword is at `mi`.
/// Returns `None` when no body brace is found (not a match expression).
fn parse_match_arms(t: &[Tok], mi: usize) -> Option<(Vec<Arm>, usize)> {
    // Scrutinee: scan to the body `{` at zero paren/bracket depth.
    let mut j = mi + 1;
    let mut pd = 0i32;
    let mut body = None;
    while j < t.len() && j < mi + 200 {
        if t[j].kind == TokKind::Punct {
            match t[j].ch {
                '(' | '[' => pd += 1,
                ')' | ']' => pd -= 1,
                '{' if pd == 0 => {
                    body = Some(j);
                    break;
                }
                ';' if pd == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
    let body = body?;
    let mut arms = Vec::new();
    let mut k = body + 1;
    let mut bd = 1i32; // brace depth relative to the match body
    let mut pattern: Vec<Tok> = Vec::new();
    let mut in_guard = false;
    while k < t.len() && bd > 0 {
        let tok = &t[k];
        if tok.kind == TokKind::Punct {
            match tok.ch {
                '{' => bd += 1,
                '}' => {
                    bd -= 1;
                    if bd == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        // `=>` at arm level ends the pattern.
        if bd == 1
            && tok.is_punct('=')
            && k + 1 < t.len()
            && t[k + 1].is_punct('>')
            && paren_free(&pattern)
        {
            let line = pattern.first().map(|p| p.line).unwrap_or(tok.line);
            arms.push(Arm {
                pattern: std::mem::take(&mut pattern),
                line,
            });
            in_guard = false;
            // Consume the arm body: a `{ … }` block (ends at its own
            // closing brace), or an expression — which may itself
            // contain blocks (`X => if c { a } else { b },`) — ending
            // at a `,` at arm level or the match's closing brace.
            k += 2;
            let block_body = k < t.len() && t[k].is_punct('{');
            let mut d = (0i32, 0i32); // (brace, paren/bracket)
            while k < t.len() {
                let b = &t[k];
                if b.kind == TokKind::Punct {
                    match b.ch {
                        '{' => d.0 += 1,
                        '}' => {
                            d.0 -= 1;
                            if d.0 < 0 {
                                bd = 0; // end of match
                                break;
                            }
                            if block_body && d.0 == 0 && d.1 == 0 {
                                // Block body complete.
                                k += 1;
                                if k < t.len() && t[k].is_punct(',') {
                                    k += 1;
                                }
                                break;
                            }
                        }
                        '(' | '[' => d.1 += 1,
                        ')' | ']' => d.1 -= 1,
                        ',' if d.0 == 0 && d.1 == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
            continue;
        }
        if bd == 1 && tok.is_ident("if") && paren_free(&pattern) && !pattern.is_empty() {
            // Guard: everything until `=>` is not pattern material.
            in_guard = true;
        }
        if !in_guard {
            pattern.push(tok.clone());
        }
        k += 1;
    }
    Some((arms, k))
}

/// True when the collected pattern tokens have balanced parens/braces —
/// i.e. a `=>` seen now really terminates the pattern.
fn paren_free(pattern: &[Tok]) -> bool {
    let mut d = 0i32;
    for tok in pattern {
        if tok.kind == TokKind::Punct {
            match tok.ch {
                '(' | '[' | '{' => d += 1,
                ')' | ']' | '}' => d -= 1,
                _ => {}
            }
        }
    }
    d == 0
}

fn rule_d04(lx: &Lexed, path: &str, out: &mut Vec<Finding>) {
    let t = &lx.toks;
    for i in 0..t.len() {
        if !t[i].is_ident("match") {
            continue;
        }
        // `.match` / `::match` cannot occur (keyword), but be safe.
        if i > 0 && (t[i - 1].is_punct('.') || t[i - 1].is_punct(':')) {
            continue;
        }
        let Some((arms, _)) = parse_match_arms(t, i) else {
            continue;
        };
        let on_trace_enum = arms.iter().any(|a| {
            a.pattern
                .iter()
                .any(|p| p.is_ident("EventKind") || p.is_ident("IncidentKind"))
        });
        if !on_trace_enum {
            continue;
        }
        for arm in &arms {
            let idents: Vec<&Tok> = arm
                .pattern
                .iter()
                .filter(|p| p.kind != TokKind::Punct || p.ch != '|')
                .collect();
            // Catch-all: a bare `_`, or a lone lowercase binding.
            let catch_all = idents.len() == 1
                && idents[0].kind == TokKind::Ident
                && (idents[0].text == "_"
                    || idents[0]
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase()));
            if catch_all {
                out.push(Finding {
                    rule: "D04",
                    path: path.to_string(),
                    line: arm.line,
                    message: "wildcard arm on an EventKind/IncidentKind match — new \
                              trace variants would be silently dropped here; enumerate \
                              every variant"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// P01 — panics in engine hot paths
// ---------------------------------------------------------------------------

fn rule_p01(lx: &Lexed, path: &str, out: &mut Vec<Finding>) {
    let t = &lx.toks;
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident {
            continue;
        }
        let method_panic = matches!(t[i].text.as_str(), "unwrap" | "expect")
            && i + 1 < t.len()
            && t[i + 1].is_punct('(')
            && i >= 1
            && t[i - 1].is_punct('.');
        let macro_panic = matches!(
            t[i].text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && i + 1 < t.len()
            && t[i + 1].is_punct('!');
        if method_panic || macro_panic {
            let what = if macro_panic {
                format!("{}!", t[i].text)
            } else {
                format!(".{}()", t[i].text)
            };
            out.push(Finding {
                rule: "P01",
                path: path.to_string(),
                line: t[i].line,
                message: format!(
                    "`{what}` in engine hot-path code — return a typed error or \
                     justify the invariant that makes this unreachable"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// U01 — public items no non-test code uses
// ---------------------------------------------------------------------------

/// Item keywords U01 tracks after `pub`.
const PUB_KINDS: &[&str] = &[
    "fn", "struct", "enum", "union", "type", "const", "static", "trait",
];

/// Index of the token closing the item that continues at `from`: the
/// first `;` outside brackets, or the brace matching the first `{`.
fn item_end(t: &[Tok], from: usize) -> usize {
    let (mut depth, mut braced) = (0i32, false);
    for (k, tok) in t.iter().enumerate().skip(from) {
        match tok.ch {
            ';' if depth == 0 && !braced => return k,
            '{' | '(' | '[' => {
                braced |= tok.ch == '{';
                depth += 1;
            }
            '}' | ')' | ']' => {
                depth -= 1;
                if braced && depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    t.len().saturating_sub(1)
}

/// `(kind, name token)` of every `pub` item outside test code, with
/// struct fields and the variants of `pub enum`s. `pub(crate)` and
/// narrower are skipped: rustc's dead-code lint covers them.
fn pub_items(t: &[Tok], tests: &BTreeSet<u32>) -> Vec<(&'static str, usize)> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !t[i].is_ident("pub")
            || tests.contains(&t[i].line)
            || t.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            continue;
        }
        // Skip the qualifiers of a `const`/`unsafe`/`async`/`extern "C"` fn.
        let mut j = i + 1;
        while t.get(j).is_some_and(|q| {
            q.kind == TokKind::Str
                || ["unsafe", "async", "extern"].iter().any(|w| q.is_ident(w))
                || (q.is_ident("const") && t.get(j + 1).is_some_and(|f| f.is_ident("fn")))
        }) {
            j += 1;
        }
        let is_name = |k: usize| t.get(k).is_some_and(|n| n.kind == TokKind::Ident);
        if is_name(j)
            && t.get(j + 1).is_some_and(|c| c.is_punct(':'))
            && !t.get(j + 2).is_some_and(|c| c.is_punct(':'))
        {
            out.push(("field", j));
            continue;
        }
        let Some(&kind) = PUB_KINDS
            .iter()
            .find(|k| t.get(j).is_some_and(|w| w.is_ident(k)))
        else {
            continue;
        };
        let at = j + 1 + usize::from(t.get(j + 1).is_some_and(|m| m.is_ident("mut")));
        if !is_name(at) {
            continue;
        }
        out.push((kind, at));
        if kind != "enum" {
            continue;
        }
        // Variants: the first identifier of each comma-separated entry
        // at the body's top level (attributes sit in brackets).
        let Some(open) = (at..t.len()).find(|&k| t[k].is_punct('{')) else {
            continue;
        };
        let (mut depth, mut fresh) = (0i32, true);
        for (k, tok) in t.iter().enumerate().skip(open + 1) {
            match tok.ch {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' if depth == 0 => break,
                '}' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => fresh = true,
                _ if depth == 0 && fresh && tok.kind == TokKind::Ident => {
                    out.push(("variant", k));
                    fresh = false;
                }
                _ => {}
            }
        }
    }
    out
}

/// `(self type, first token, last token)` of each `impl` block: inside
/// one, the type's own name is no use of the type. The self type is the
/// last identifier outside angle brackets before the body or `where`.
fn impl_spans(t: &[Tok]) -> Vec<(&str, usize, usize)> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        // An item-level `impl`, not `-> impl Trait` or `x: impl Fn()`.
        if !t[i].is_ident("impl") || (i > 0 && !matches!(t[i - 1].ch, '}' | ';' | '{' | ']')) {
            continue;
        }
        let (mut angle, mut name) = (0i32, None);
        for k in i + 1..t.len() {
            match t[k].ch {
                '<' => angle += 1,
                '>' if !t[k - 1].is_punct('-') => angle -= 1,
                '{' | ';' => break,
                _ if t[k].is_ident("where") => break,
                _ if angle == 0
                    && t[k].kind == TokKind::Ident
                    && !matches!(t[k].text.as_str(), "for" | "dyn" | "mut") =>
                {
                    name = Some(t[k].text.as_str())
                }
                _ => {}
            }
        }
        if let Some(name) = name {
            out.push((name, i, item_end(t, i)));
        }
    }
    out
}

/// U01: every `pub` item of an audited file whose name no non-test
/// token of any file uses, outside declarations, `pub use` re-exports
/// and, for a type, its own `impl` blocks. Names only, no path
/// resolution: a collision can hide a finding, never invent one.
fn rule_u01(files: &[SourceFile], lexed: &[(Lexed, BTreeSet<u32>)]) -> Vec<Vec<Finding>> {
    let decls: Vec<Vec<(&str, usize)>> = files
        .iter()
        .zip(lexed)
        .map(|(f, (lx, tests))| match f.audited {
            true => pub_items(&lx.toks, tests),
            false => Vec::new(),
        })
        .collect();
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for ((lx, _), d) in lexed.iter().zip(&decls) {
        for &(_, at) in d {
            uses.insert(&lx.toks[at].text, 0);
        }
    }
    for ((lx, tests), d) in lexed.iter().zip(&decls) {
        let t = &lx.toks;
        let impls = impl_spans(t);
        let reexports: Vec<(usize, usize)> = (0..t.len())
            .filter(|&i| t[i].is_ident("pub") && t.get(i + 1).is_some_and(|u| u.is_ident("use")))
            .map(|i| (i, item_end(t, i)))
            .collect();
        for (k, tok) in t.iter().enumerate() {
            let Some(n) = uses.get_mut(tok.text.as_str()) else {
                continue;
            };
            let within = |&(s, e): &(usize, usize)| s <= k && k <= e;
            if tok.kind == TokKind::Ident
                && !tests.contains(&tok.line)
                && !d.iter().any(|&(_, at)| at == k)
                && !reexports.iter().any(within)
                && !impls
                    .iter()
                    .any(|&(name, s, e)| name == tok.text && within(&(s, e)))
            {
                *n += 1;
            }
        }
    }
    files
        .iter()
        .zip(lexed)
        .zip(&decls)
        .map(|((file, (lx, _)), d)| {
            d.iter()
                .map(|&(kind, at)| (kind, &lx.toks[at]))
                .filter(|(_, name)| uses[name.text.as_str()] == 0)
                .map(|(kind, name)| Finding {
                    rule: "U01",
                    path: file.path.clone(),
                    line: name.line,
                    message: format!(
                        "pub {kind} `{}` is used by no non-test code — delete it, or name \
                         the test oracle that needs it in an audit:allow(U01)",
                        name.text
                    ),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans one file's source as a one-file workspace.
    fn scan_source(src: &str, krate: &str, path: &str) -> (Vec<Finding>, Vec<Exemption>) {
        scan_files(&[SourceFile {
            path: path.into(),
            crate_name: krate.into(),
            src: src.into(),
            audited: true,
        }])
    }

    fn findings(src: &str, krate: &str) -> Vec<(String, u32)> {
        let (f, _) = scan_source(src, krate, "x.rs");
        f.into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn d01_flags_iteration_not_lookup() {
        let src = "fn f() {\n\
                   let mut m: HashMap<u32, u64> = HashMap::new();\n\
                   m.insert(1, 2);\n\
                   let v = m.get(&1);\n\
                   for (k, val) in &m { use_it(k, val); }\n\
                   }\n";
        assert_eq!(findings(src, "rt"), vec![("D01".to_string(), 5)]);
        // Same code in a non-deterministic crate: clean.
        assert!(findings(src, "bench").is_empty());
    }

    #[test]
    fn d01_order_free_reductions_clear() {
        let src = "fn f(m: &HashMap<u32, u64>) -> usize {\n\
                   m.values().filter(|v| **v > 0).count()\n\
                   }\n";
        assert!(findings(src, "store").is_empty());
    }

    #[test]
    fn d01_collect_to_btreemap_clears() {
        let src = "fn f(m: HashMap<u32, u64>) -> BTreeMap<u32, u64> {\n\
                   m.into_iter().collect::<BTreeMap<_, _>>()\n\
                   }\n";
        assert!(findings(src, "prof").is_empty());
    }

    #[test]
    fn d01_collect_then_sort_clears() {
        let src = "fn f(m: &HashMap<u64, u32>) {\n\
                   let mut ids: Vec<u64> = m.keys().copied().collect();\n\
                   ids.sort_unstable();\n\
                   for id in ids { go(id); }\n\
                   }\n";
        assert!(findings(src, "watch").is_empty());
        // Without the sort, the same sweep is a finding.
        let src = "fn f(m: &HashMap<u64, u32>) {\n\
                   let ids: Vec<u64> = m.keys().copied().collect();\n\
                   for id in ids { go(id); }\n\
                   }\n";
        assert_eq!(findings(src, "watch"), vec![("D01".to_string(), 2)]);
    }

    #[test]
    fn d02_d03_flag_wall_clock_and_ambient_rng() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let f = findings(src, "sim");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].0, "D02");
        assert_eq!(f[1].0, "D03");
    }

    #[test]
    fn d04_flags_wildcard_on_eventkind_only() {
        let src = "fn f(ev: &Event) {\n\
                   match &ev.kind {\n\
                   EventKind::Task(t) => go(t),\n\
                   _ => {}\n\
                   }\n\
                   match other {\n\
                   Some(x) => use_it(x),\n\
                   _ => {}\n\
                   }\n\
                   }\n";
        assert_eq!(findings(src, "bench"), vec![("D04".to_string(), 4)]);
    }

    #[test]
    fn d04_sees_through_nested_phase_match() {
        // The inner `_` is over TaskPhase (out of scope); the outer
        // match is exhaustive. Clean.
        let src = "fn f(ev: &Event) {\n\
                   match &ev.kind {\n\
                   EventKind::Task(t) => match t.phase {\n\
                   TaskPhase::Finished => done(),\n\
                   _ => {}\n\
                   },\n\
                   EventKind::Object(_) | EventKind::Io(_) => {}\n\
                   }\n\
                   }\n";
        assert!(findings(src, "trace").is_empty());
    }

    #[test]
    fn d04_flags_lowercase_binding_catch_all() {
        let src = "fn f(k: EventKind) {\n\
                   match k {\n\
                   EventKind::Task(t) => go(t),\n\
                   other => drop(other),\n\
                   }\n\
                   }\n";
        assert_eq!(findings(src, "live"), vec![("D04".to_string(), 4)]);
    }

    #[test]
    fn p01_scoped_to_hot_crates() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(findings(src, "rt"), vec![("P01".to_string(), 1)]);
        assert!(findings(src, "trace").is_empty());
        // unwrap_or is fine.
        assert!(findings("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }", "rt").is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn prod(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { assert_eq!(prod(Some(1)).unwrap(), 1); panic!(\"boom\"); }\n\
                   }\n";
        assert_eq!(findings(src, "store"), vec![("P01".to_string(), 1)]);
    }

    #[test]
    fn allow_suppresses_and_records_exemption() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // audit:allow(P01): invariant — caller checked is_some\n\
                   x.unwrap()\n\
                   }\n";
        let (f, e) = scan_source(src, "rt", "x.rs");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].rule, "P01");
        assert!(e[0].justification.contains("invariant"));
    }

    #[test]
    fn allow_justification_runs_on_through_the_comment_below() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // audit:allow(P01): the caller checked is_some, so\n\
                   //   this never panics\n\
                   x.unwrap()\n\
                   }\n";
        let (f, e) = scan_source(src, "rt", "x.rs");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(
            e[0].justification,
            "the caller checked is_some, so this never panics"
        );
        // A trailing annotation's reason ends on its own line: the
        // comment below it belongs to the next statement.
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   let y = x.unwrap(); // audit:allow(P01): checked above\n\
                   // the answer\n\
                   y\n\
                   }\n";
        let (f, e) = scan_source(src, "rt", "x.rs");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e[0].justification, "checked above");
    }

    #[test]
    fn leading_allow_covers_multiline_statement() {
        let src = "fn f(v: &[u32]) -> u32 {\n\
                   // audit:allow(P01): constructor guarantees non-empty\n\
                   let m = v\n\
                   .iter()\n\
                   .min()\n\
                   .expect(\"non-empty\");\n\
                   *m\n\
                   }\n";
        let (f, e) = scan_source(src, "sim", "x.rs");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e.len(), 1);
        // …but not past the statement's end.
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // audit:allow(P01): only the let is exempt\n\
                   let a = 1;\n\
                   x.unwrap() + a\n\
                   }\n";
        let (f, _) = scan_source(src, "sim", "x.rs");
        // The unwrap on line 4 is outside the allow's statement (line 3),
        // so it is still a finding, and the allow is unused (A02).
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(P01): checked above\n";
        let (f, e) = scan_source(src, "rt", "x.rs");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn malformed_and_unused_allows_are_findings() {
        let src = "// audit:allow(P01)\n\
                   fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   // audit:allow(D02): nothing here uses wall time\n\
                   fn b() {}\n";
        let f = findings(src, "rt");
        // A01 (no justification) + the unsuppressed P01 + A02 (unused).
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().any(|(r, _)| r == "A01"));
        assert!(f.iter().any(|(r, _)| r == "P01"));
        assert!(f.iter().any(|(r, _)| r == "A02"));
    }

    type Located = (String, String, u32);

    /// Scans `(path, source, audited)` files as one workspace (every
    /// audited file as crate "lib"); returns `(rule, path, line)`
    /// findings and `(rule, line)` exemptions.
    fn workspace(files: &[(&str, &str, bool)]) -> (Vec<Located>, Vec<(String, u32)>) {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|&(path, src, audited)| SourceFile {
                path: path.into(),
                crate_name: "lib".into(),
                src: src.into(),
                audited,
            })
            .collect();
        let (f, e) = scan_files(&files);
        (
            f.into_iter()
                .map(|f| (f.rule.to_string(), f.path, f.line))
                .collect(),
            e.into_iter().map(|e| (e.rule, e.line)).collect(),
        )
    }

    fn u01(path: &str, line: u32) -> Located {
        ("U01".to_string(), path.to_string(), line)
    }

    #[test]
    fn u01_flags_each_item_kind() {
        let decl = "pub fn dead_fn() {}\n\
                    pub struct S {\n\
                    pub dead_field: u32,\n\
                    pub live_field: u32,\n\
                    }\n\
                    pub enum E {\n\
                    #[default]\n\
                    DeadVariant,\n\
                    LiveVariant(u32),\n\
                    }\n\
                    pub const DEAD_CONST: u32 = 1;\n";
        let user = "fn f(s: S) -> E { let _ = s.live_field; E::LiveVariant(1) }\n";
        let (f, e) = workspace(&[("a.rs", decl, true), ("b.rs", user, true)]);
        assert_eq!(
            f,
            [
                u01("a.rs", 1),
                u01("a.rs", 3),
                u01("a.rs", 8),
                u01("a.rs", 11)
            ]
        );
        assert!(e.is_empty());
    }

    #[test]
    fn u01_test_only_reexport_and_doc_uses_do_not_count() {
        let decl = "pub fn only_tested() {}\n\
                    pub fn only_reexported() {}\n\
                    /// See [`only_documented`].\n\
                    pub fn only_documented() {}\n\
                    #[cfg(test)]\n\
                    mod tests { fn t() { super::only_tested(); } }\n";
        let user = "pub use crate::a::{only_reexported, only_documented};\n";
        let (f, _) = workspace(&[("a.rs", decl, true), ("lib.rs", user, true)]);
        assert_eq!(f, [u01("a.rs", 1), u01("a.rs", 2), u01("a.rs", 4)]);
    }

    #[test]
    fn u01_counts_other_files_and_consumers() {
        let decl = "pub fn for_other_crate() {}\npub fn for_example() {}\n";
        let other = "fn g() { a::for_other_crate(); }\n";
        // An example is read, not audited: its own `pub` items are not
        // tracked, but its uses keep items alive.
        let example = "pub fn untracked() {}\nfn main() { a::for_example(); }\n";
        let (f, _) = workspace(&[
            ("a.rs", decl, true),
            ("b.rs", other, true),
            ("examples/x.rs", example, false),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn u01_ignores_a_types_own_impls_and_restricted_items() {
        let src = "pub struct Lonely;\n\
                   impl Lonely { fn make() -> Lonely { Lonely } }\n\
                   impl Default for Lonely { fn default() -> Self { Lonely } }\n\
                   pub(crate) fn crate_only() {}\n\
                   fn iter() -> impl Iterator<Item = Lonely> { None.into_iter() }\n";
        // `-> impl Iterator` is no impl block: its `Lonely` is a use.
        let (f, _) = workspace(&[("a.rs", src, true)]);
        assert!(f.is_empty(), "{f:?}");
        let (f, _) = workspace(&[("a.rs", &src[..src.rfind("fn iter").unwrap()], true)]);
        assert_eq!(f, [u01("a.rs", 1)]);
    }

    #[test]
    fn u01_allow_exempts_and_unused_allow_is_a02() {
        let src = "// audit:allow(U01): the oracle test checks its answer\n\
                   pub fn oracle() -> u32 { 42 }\n\
                   // audit:allow(U01): stale\n\
                   pub fn used() {}\n\
                   fn f() { used() }\n";
        let (f, e) = workspace(&[("a.rs", src, true)]);
        assert_eq!(f, [("A02".to_string(), "a.rs".to_string(), 3)]);
        assert_eq!(e, [("U01".to_string(), 2)]);
    }
}
