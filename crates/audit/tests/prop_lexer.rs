//! Property tests for the audit lexer: rule-trigger tokens embedded in
//! string literals or comments must never surface as findings, and line
//! attribution must survive arbitrary comment/string prefixes and
//! nested generics. The auditor's whole value rests on "no false
//! positives from non-code text" — these properties pin it.

use exo_audit::lexer::lex;
use exo_audit::{scan_files, SourceFile};
use proptest::prelude::*;

/// Snippets that would each fire a rule if lexed as code. Quote-free so
/// they embed verbatim inside string literals; none contain `*/` so they
/// embed inside block comments; none start with `audit:allow` so the
/// exemption parser ignores them.
const TRIGGERS: &[&str] = &[
    "Instant::now()",
    "SystemTime::now()",
    "UNIX_EPOCH",
    "thread_rng()",
    "rand::random::<u64>()",
    "OsRng",
    "RandomState::new()",
    ".unwrap()",
    ".expect(msg)",
    "panic!(oops)",
    "unreachable!()",
    "todo!()",
    "unimplemented!()",
    "for (k, v) in &map { }",
];

fn trigger(idx: usize) -> &'static str {
    TRIGGERS[idx % TRIGGERS.len()]
}

/// Scan as "sim": deterministic AND hot, so every rule is active.
fn findings(src: &str) -> Vec<(String, u32)> {
    let (f, _) = scan_files(&[SourceFile {
        path: "gen.rs".into(),
        crate_name: "sim".into(),
        src: src.into(),
        audited: true,
    }]);
    f.into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn triggers_inside_string_literals_are_inert(
        idx in 0usize..64,
        pad in 0usize..12,
        raw in any::<bool>(),
    ) {
        let payload = format!("{}{}{}", " ".repeat(pad), trigger(idx), "x".repeat(pad));
        let src = if raw {
            format!("fn f() -> String {{\n    let s = r#\"{payload}\"#;\n    s.to_string()\n}}\n")
        } else {
            format!("fn f() -> String {{\n    let s = \"{payload}\";\n    s.to_string()\n}}\n")
        };
        prop_assert_eq!(findings(&src), vec![], "src:\n{}", src);
    }

    #[test]
    fn triggers_inside_comments_are_inert(
        idx in 0usize..64,
        idx2 in 0usize..64,
        block in any::<bool>(),
        doc in any::<bool>(),
    ) {
        let a = trigger(idx);
        let b = trigger(idx2);
        let src = if block {
            // Multi-line block comment carrying two triggers.
            format!("fn f() -> u32 {{\n    /* {a}\n       {b} */\n    7\n}}\n")
        } else if doc {
            format!("/// {a}\n/// {b}\nfn f() -> u32 {{\n    7\n}}\n")
        } else {
            format!("fn f() -> u32 {{\n    // {a} {b}\n    7\n}}\n")
        };
        prop_assert_eq!(findings(&src), vec![], "src:\n{}", src);
    }

    #[test]
    fn finding_lines_track_arbitrary_prefixes(
        prefix_lines in 0usize..24,
        idx in 0usize..64,
        use_string_filler in any::<bool>(),
    ) {
        // A known violation whose reported line must shift by exactly the
        // number of prefix lines — even when every prefix line carries
        // trigger text in a comment or string, and the violating `for`
        // iterates a map whose type uses nested generics.
        let filler = if use_string_filler {
            format!("const FILLER: &str = \"{}\";\n", trigger(idx))
        } else {
            format!("// filler {}\n", trigger(idx))
        };
        let mut src = filler.repeat(prefix_lines);
        src.push_str("fn f(m: &HashMap<u32, Vec<HashMap<u32, u64>>>) -> u32 {\n");
        src.push_str("    let mut n = 0;\n");
        src.push_str("    for (k, _v) in m {\n");
        src.push_str("        n += *k;\n");
        src.push_str("    }\n");
        src.push_str("    n\n");
        src.push_str("}\n");
        let expected_line = prefix_lines as u32 + 3;
        prop_assert_eq!(
            findings(&src),
            vec![("D01".to_string(), expected_line)],
            "src:\n{}", src
        );
    }

    #[test]
    fn nested_generics_and_shifts_stay_clean(
        depth in 1usize..8,
        shift in 0u32..16,
    ) {
        // Deeply nested ordered-map generics plus `<<`/`>>` shift
        // expressions: the lexer must not mistake closing `>>` runs or
        // shift operators for anything that changes rule decisions.
        let mut ty = String::from("u64");
        for _ in 0..depth {
            ty = format!("BTreeMap<u32, Vec<{ty}>>");
        }
        let src = format!(
            "type Deep = {ty};\n\
             fn f(m: &Deep, x: u64) -> u64 {{\n    (x << {shift}) >> {shift}\n}}\n"
        );
        prop_assert_eq!(findings(&src), vec![], "src:\n{}", src);
    }

    #[test]
    fn string_and_comment_text_never_becomes_tokens(
        idx in 0usize..64,
        block in any::<bool>(),
    ) {
        // Lexer-level version of the properties above: a marker that
        // appears only inside a string and a comment must not appear in
        // any code token.
        let t = trigger(idx);
        let comment = if block {
            format!("/* ZZMARKER {t} */")
        } else {
            format!("// ZZMARKER {t}")
        };
        let src = format!(
            "fn f() -> &'static str {{\n    {comment}\n    \"ZZMARKER {t}\"\n}}\n"
        );
        let lx = lex(&src);
        for tok in &lx.toks {
            prop_assert!(
                !tok.text.contains("ZZMARKER"),
                "string/comment text leaked into token {:?} in:\n{}",
                tok.text,
                src
            );
        }
    }
}
