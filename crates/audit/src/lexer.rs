//! A minimal Rust lexer — just enough to audit source safely.
//!
//! The build is network-isolated, so there is no `syn`/`proc-macro2` to
//! lean on. What the rules actually need is far less than a parser:
//! a token stream where **string literals, char literals, and comments
//! can never masquerade as code**. The lexer therefore handles, fully:
//! line + nested block comments, plain/byte/C strings with escapes, raw
//! strings with arbitrary `#` fences, char literals vs lifetimes, and
//! numeric literals (including floats and exponents). Everything else
//! is an identifier or a single-character punct; multi-char operators
//! (`::`, `=>`, …) are matched by the rules as punct sequences.
//!
//! Comments are retained (with their line and whether they trail code
//! on the same line) because the `audit:allow` exemption mechanism
//! lives in comments.

/// What a token is. Literal *contents* are never exposed as code — a
/// `"HashMap"` inside a string lexes to a single [`TokKind::Str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes `_`).
    Ident,
    /// Single punctuation character (stored in [`Tok::ch`]).
    Punct,
    /// String / byte-string / C-string / char literal.
    Str,
    /// Numeric literal.
    Num,
    /// Lifetime or loop label (`'a`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text (empty for non-identifiers).
    pub text: String,
    /// Punct character (`'\0'` for non-puncts).
    pub ch: char,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.ch == c
    }
}

/// A retained comment (the `audit:allow` carrier).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    /// True when code tokens precede the comment on its own line — a
    /// trailing `// audit:allow(...)` exempts *its* line, a leading one
    /// exempts the next code line.
    pub trailing: bool,
}

/// Lexed file: code tokens, comments, and the set of lines holding code.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// 1-based lines that contain at least one code token.
    pub code_lines: std::collections::BTreeSet<u32>,
}

impl Lexed {
    /// First code line strictly after `line`, if any.
    pub fn next_code_line(&self, line: u32) -> Option<u32> {
        self.code_lines.range(line + 1..).next().copied()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens + comments. Never fails: unterminated
/// literals are consumed to end-of-file (the auditor must not panic on
/// the code it audits).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let push_tok = |out: &mut Lexed, kind: TokKind, text: String, ch: char, line: u32| {
        out.code_lines.insert(line);
        out.toks.push(Tok {
            kind,
            text,
            ch,
            line,
        });
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start_line = line;
            let trailing = out.code_lines.contains(&line);
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && chars[j] != '\n' {
                text.push(chars[j]);
                j += 1;
            }
            out.comments.push(Comment {
                text,
                line: start_line,
                trailing,
            });
            i = j;
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start_line = line;
            let trailing = out.code_lines.contains(&line);
            let mut depth = 1u32;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    text.push('\n');
                    j += 1;
                } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    text.push(chars[j]);
                    j += 1;
                }
            }
            out.comments.push(Comment {
                text,
                line: start_line,
                trailing,
            });
            i = j;
            continue;
        }
        // Identifiers — with lookahead for string-literal prefixes
        // (r"", r#""#, b"", br"", c"", cr#""#).
        if is_ident_start(c) {
            let start = i;
            let mut j = i;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            let word: String = chars[start..j].iter().collect();
            let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "c" | "cr");
            if is_str_prefix && j < n && (chars[j] == '"' || chars[j] == '#') {
                let raw = word.contains('r');
                if raw {
                    // Count the # fence (may be zero: r"...").
                    let mut hashes = 0usize;
                    let mut k = j;
                    while k < n && chars[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < n && chars[k] == '"' {
                        k += 1;
                        // Scan for `"` followed by `hashes` #s.
                        'raw: while k < n {
                            if chars[k] == '\n' {
                                line += 1;
                                k += 1;
                                continue;
                            }
                            if chars[k] == '"' {
                                let mut h = 0usize;
                                while k + 1 + h < n && h < hashes && chars[k + 1 + h] == '#' {
                                    h += 1;
                                }
                                if h == hashes {
                                    k += 1 + hashes;
                                    break 'raw;
                                }
                            }
                            k += 1;
                        }
                        push_tok(&mut out, TokKind::Str, String::new(), '\0', line);
                        i = k;
                        continue;
                    }
                    // `r#ident` raw identifier: fall through as ident.
                    if hashes == 1 && k < n && is_ident_start(chars[k]) {
                        let mut m = k;
                        while m < n && is_ident_continue(chars[m]) {
                            m += 1;
                        }
                        let text: String = chars[k..m].iter().collect();
                        push_tok(&mut out, TokKind::Ident, text, '\0', line);
                        i = m;
                        continue;
                    }
                } else if chars[j] == '"' {
                    // b"..." / c"..." cooked string.
                    let k = consume_cooked_string(&chars, j + 1, &mut line);
                    push_tok(&mut out, TokKind::Str, String::new(), '\0', line);
                    i = k;
                    continue;
                }
            }
            push_tok(&mut out, TokKind::Ident, word, '\0', line);
            i = j;
            continue;
        }
        // Cooked string literal.
        if c == '"' {
            let k = consume_cooked_string(&chars, i + 1, &mut line);
            push_tok(&mut out, TokKind::Str, String::new(), '\0', line);
            i = k;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: consume to closing quote.
                let mut j = i + 2;
                while j < n && chars[j] != '\'' {
                    if chars[j] == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
                push_tok(&mut out, TokKind::Str, String::new(), '\0', line);
                i = (j + 1).min(n);
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' {
                // 'x' — single-char literal (covers '(' etc. too).
                push_tok(&mut out, TokKind::Str, String::new(), '\0', line);
                i += 3;
                continue;
            }
            if i + 1 < n && is_ident_start(chars[i + 1]) {
                // Lifetime / label.
                let mut j = i + 1;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let text: String = chars[i + 1..j].iter().collect();
                push_tok(&mut out, TokKind::Lifetime, text, '\0', line);
                i = j;
                continue;
            }
            // Lone quote (malformed) — emit as punct and move on.
            push_tok(&mut out, TokKind::Punct, String::new(), '\'', line);
            i += 1;
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let mut j = i;
            while j < n {
                let d = chars[j];
                if is_ident_continue(d) {
                    j += 1;
                    // Exponent sign: 1e-5 / 2.5E+3.
                    if (d == 'e' || d == 'E')
                        && j < n
                        && (chars[j] == '+' || chars[j] == '-')
                        && j + 1 < n
                        && chars[j + 1].is_ascii_digit()
                        && chars[i].is_ascii_digit()
                    {
                        j += 1;
                    }
                } else if d == '.' && j + 1 < n && chars[j + 1].is_ascii_digit() {
                    // Decimal point, but never a `..` range.
                    j += 1;
                } else {
                    break;
                }
            }
            push_tok(&mut out, TokKind::Num, String::new(), '\0', line);
            i = j;
            continue;
        }
        // Anything else: single punct char.
        push_tok(&mut out, TokKind::Punct, String::new(), c, line);
        i += 1;
    }
    out
}

/// Consumes a cooked (escape-processing) string body starting *after*
/// the opening quote; returns the index after the closing quote.
fn consume_cooked_string(chars: &[char], mut j: usize, line: &mut u32) -> usize {
    let n = chars.len();
    while j < n {
        match chars[j] {
            '\\' => {
                // A `\` line continuation still ends a source line.
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
            let a = "HashMap::new() Instant::now()"; // thread_rng here
            /* SystemTime::now() in a block
               comment */ let b = r#"panic!("x") unwrap()"#;
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b"]);
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].trailing);
        assert!(lx.comments[0].text.contains("thread_rng"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }";
        let lx = lex(src);
        let lifetimes: Vec<&Tok> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let strs = lx.toks.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 2);
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r####"let x = r#"a " quote "#; let y = r##"b "# inner"##; call();"####;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y", "call"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let src = "for i in 0..10 { let f = 1.5e-3; }";
        let lx = lex(src);
        let nums = lx.toks.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 3); // 0, 10, 1.5e-3
        let dots = lx.toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2); // the `..` range
    }

    #[test]
    fn string_line_continuations_count_their_lines() {
        let lx = lex("let s = \"a\\\n   b\\\n   c\";\nlet t = 1;\n");
        let t = lx.toks.iter().find(|t| t.is_ident("t")).map(|t| t.line);
        assert_eq!(t, Some(4));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn main() {}";
        assert_eq!(idents(src), vec!["fn", "main"]);
    }

    #[test]
    fn trailing_vs_leading_comments() {
        let src = "let a = 1; // trailing\n// leading\nlet b = 2;\n";
        let lx = lex(src);
        assert!(lx.comments[0].trailing);
        assert!(!lx.comments[1].trailing);
        assert_eq!(lx.next_code_line(2), Some(3));
    }
}
