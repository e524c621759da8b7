//! Report rendering: a human-readable listing grouped by rule, and a
//! machine-readable JSON document (`results/audit.json` in CI). The
//! JSON is hand-rendered — this crate is dependency-free by design —
//! with key order fixed, so reruns on an unchanged tree are
//! byte-identical.

use crate::rules::RULES;
use crate::AuditReport;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The human report: per-rule groups, then exemptions, then a one-line
/// verdict.
pub fn render_human(r: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "exo-audit: scanned {} files ({} non-test lines) — {} finding(s), {} justified \
         exemption(s)\n",
        r.files_scanned,
        r.lines.values().sum::<usize>(),
        r.findings.len(),
        r.exemptions.len()
    ));
    for rule in RULES {
        let hits: Vec<_> = r.findings.iter().filter(|f| f.rule == rule.id).collect();
        if hits.is_empty() {
            continue;
        }
        out.push_str(&format!("\n{} — {}\n", rule.id, rule.summary));
        for f in hits {
            out.push_str(&format!("  {}:{}: {}\n", f.path, f.line, f.message));
        }
    }
    if !r.exemptions.is_empty() {
        out.push_str("\nexemptions (audit:allow):\n");
        for e in &r.exemptions {
            out.push_str(&format!(
                "  {}:{}: {} — {}\n",
                e.path, e.line, e.rule, e.justification
            ));
        }
    }
    if r.findings.is_empty() {
        out.push_str("\nexo-audit: PASS\n");
    } else {
        out.push_str(&format!(
            "\nexo-audit: FAIL — {} finding(s)\n",
            r.findings.len()
        ));
    }
    out
}

/// The JSON report.
pub fn render_json(r: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", r.files_scanned));
    out.push_str(&format!("  \"findings_total\": {},\n", r.findings.len()));
    out.push_str(&format!(
        "  \"exemptions_total\": {},\n",
        r.exemptions.len()
    ));
    let by_crate: Vec<String> = r
        .lines
        .iter()
        .map(|(k, n)| format!("\"{}\": {n}", json_escape(k)))
        .collect();
    out.push_str(&format!(
        "  \"non_test_lines\": {{\"total\": {}, \"by_crate\": {{{}}}}},\n",
        r.lines.values().sum::<usize>(),
        by_crate.join(", ")
    ));
    out.push_str("  \"rules\": {\n");
    for (i, (id, findings, exemptions)) in r.by_rule().into_iter().enumerate() {
        out.push_str(&format!(
            "    \"{id}\": {{\"findings\": {findings}, \"exemptions\": {exemptions}}}{}\n",
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"findings\": [\n");
    for (i, f) in r.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.rule,
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            if i + 1 < r.findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"exemptions\": [\n");
    for (i, e) in r.exemptions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"justification\": \"{}\"}}{}\n",
            json_escape(&e.rule),
            json_escape(&e.path),
            e.line,
            json_escape(&e.justification),
            if i + 1 < r.exemptions.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Exemption, Finding};

    fn sample() -> AuditReport {
        AuditReport {
            findings: vec![Finding {
                rule: "D01",
                path: "crates/rt/src/x.rs".into(),
                line: 7,
                message: "iteration over unordered `m`".into(),
            }],
            exemptions: vec![Exemption {
                rule: "P01".into(),
                path: "crates/store/src/y.rs".into(),
                line: 3,
                justification: "count is order-free".into(),
            }],
            files_scanned: 2,
            lines: [("rt".to_string(), 40), ("store".to_string(), 2)].into(),
        }
    }

    #[test]
    fn human_report_groups_by_rule() {
        let text = render_human(&sample());
        assert!(text.contains("D01 —"));
        assert!(text.contains("crates/rt/src/x.rs:7"));
        assert!(text.contains("exemptions (audit:allow):"));
        assert!(text.contains("FAIL — 1 finding(s)"));
    }

    #[test]
    fn json_report_is_valid_shape() {
        let j = render_json(&sample());
        assert!(j.contains("\"findings_total\": 1"));
        assert!(j.contains("\"exemptions_total\": 1"));
        assert!(j.contains("\"D01\": {\"findings\": 1, \"exemptions\": 0}"));
        assert!(j.contains(
            "\"non_test_lines\": {\"total\": 42, \"by_crate\": {\"rt\": 40, \"store\": 2}}"
        ));
        // Every rule id appears, even at zero.
        for r in RULES {
            assert!(j.contains(&format!("\"{}\"", r.id)), "{}", r.id);
        }
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let mut r = sample();
        r.findings[0].message = "say \"hi\" \\ done".into();
        let j = render_json(&r);
        assert!(j.contains(r#"say \"hi\" \\ done"#));
    }
}
