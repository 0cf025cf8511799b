//! A comment- and string-stripping scanner for Rust source.
//!
//! The lints in this crate are textual: they look for tokens like
//! `if`, `invert()`, or `x[i]` in places where they should not appear.
//! Running them on raw source would drown the results in false positives
//! from doc comments and string literals ("if the key is zero" would trip
//! the `ct` lint). [`scrub`] solves this by replacing every comment,
//! string, character, and byte literal with spaces — *preserving the
//! character count and every newline* — so downstream scans operate on
//! code only, and any character index maps back to the original line.
//!
//! Handled syntax: line comments, nested block comments, string and byte
//! string literals with escapes, raw strings with any number of `#`
//! guards, character literals (including escaped and multi-byte), and
//! lifetimes (`'a` is *not* a character literal).

/// Replaces comments and literal contents with spaces, keeping newlines
/// and the overall character count intact.
pub fn scrub(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out: Vec<char> = Vec::with_capacity(n);
    let mut i = 0;

    // Pushes the scrubbed form of chars[i]: newlines survive, everything
    // else becomes a space.
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };

    while i < n {
        let c = chars[i];

        // Line comment: blank to end of line.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }

        // Block comment, possibly nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }

        // Raw (byte) strings: r"..", r#".."#, br#".."#, with the prefix
        // required to start a token (so an identifier ending in `r` is
        // not misread).
        if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
            let mut j = i;
            if chars[j] == 'b' {
                j += 1;
            }
            if chars.get(j) == Some(&'r') {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    out.extend(std::iter::repeat_n(' ', k - i + 1));
                    i = k + 1;
                    while i < n {
                        if chars[i] == '"' && closing_hashes(&chars, i + 1) >= hashes {
                            out.extend(std::iter::repeat_n(' ', hashes + 1));
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                    continue;
                }
            }
            // `b".."` / `b'..'`: blank the prefix and let the next
            // iteration handle the quote itself.
            if chars[i] == 'b'
                && (chars.get(i + 1) == Some(&'"') || chars.get(i + 1) == Some(&'\''))
            {
                out.push(' ');
                i += 1;
                continue;
            }
            out.push(c);
            i += 1;
            continue;
        }

        // Ordinary string literal with escapes.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < n {
                if chars[i] == '\\' {
                    out.push(' ');
                    if let Some(&esc) = chars.get(i + 1) {
                        out.push(blank(esc));
                    }
                    i += 2;
                } else if chars[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }

        // Character literal vs lifetime: `'x'` and `'\n'` are literals,
        // `'a` followed by anything but a quote is a lifetime.
        if c == '\'' {
            let is_char = chars.get(i + 1) == Some(&'\\') || chars.get(i + 2) == Some(&'\'');
            if is_char {
                out.push(' ');
                i += 1;
                while i < n && chars[i] != '\'' {
                    if chars[i] == '\\' {
                        out.push(' ');
                        // blank(), not ' ': an escaped literal newline
                        // must survive or every line below desyncs.
                        if let Some(&esc) = chars.get(i + 1) {
                            out.push(blank(esc));
                        }
                        i += 2;
                    } else {
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                }
                if i < n {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            out.push(c);
            i += 1;
            continue;
        }

        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0
        && chars
            .get(i - 1)
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

fn closing_hashes(chars: &[char], from: usize) -> usize {
    chars[from..].iter().take_while(|&&c| c == '#').count()
}

/// True for characters that can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `word` starts at `chars[i]` delimited by non-identifier
/// characters (or the text boundary) on both sides.
pub fn starts_word_at(chars: &[char], i: usize, word: &str) -> bool {
    let mut end = i;
    for w in word.chars() {
        if chars.get(end) != Some(&w) {
            return false;
        }
        end += 1;
    }
    (i == 0 || chars.get(i - 1).is_none_or(|c| !is_ident_char(*c)))
        && chars.get(end).is_none_or(|c| !is_ident_char(*c))
}

/// True when `word` occurs in `text` delimited by non-identifier
/// characters (or the text boundary) on both sides.
pub fn contains_word(text: &str, word: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    !word.is_empty() && (0..chars.len()).any(|i| starts_word_at(&chars, i, word))
}

/// Index of the first non-whitespace character at or after `i`.
pub fn skip_ws(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() && chars[i].is_whitespace() {
        i += 1;
    }
    i
}

/// Index of the `)` closing the `(` at `open`.
pub fn match_paren(chars: &[char], open: usize) -> Option<usize> {
    match_forward(chars, open, '(', ')')
}

/// Index of the `}` closing the `{` at `open`. Safe on scrubbed text:
/// no braces hide in literals.
pub fn match_brace(chars: &[char], open: usize) -> Option<usize> {
    match_forward(chars, open, '{', '}')
}

/// Index of the `closer` matching the `opener` at `open`, counting only
/// that delimiter pair.
pub fn match_forward(chars: &[char], open: usize, opener: char, closer: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, &c) in chars.iter().enumerate().skip(open) {
        if c == opener {
            depth += 1;
        } else if c == closer {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `(` or `[` matching the `)` or `]` at `close`, walking
/// backwards.
pub fn match_back(chars: &[char], close: usize) -> Option<usize> {
    let closer = *chars.get(close)?;
    let opener = match closer {
        ')' => '(',
        ']' => '[',
        _ => return None,
    };
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        if chars[k] == closer {
            depth += 1;
        } else if chars[k] == opener {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the last non-whitespace character before `before`.
pub fn prev_non_ws(chars: &[char], before: usize) -> Option<usize> {
    (0..before).rev().find(|&j| !chars[j].is_whitespace())
}

/// 1-based line number of a character index.
pub fn line_of(text: &str, char_idx: usize) -> usize {
    1 + text.chars().take(char_idx).filter(|&c| c == '\n').count()
}

/// Line spans (1-based, inclusive) of test-only code: `#[cfg(test)]` /
/// `#[cfg(all(test, ...))]` items and `#[test]` functions, located by
/// brace matching on the scrubbed text.
pub fn test_spans(scrubbed: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = scrubbed.chars().collect();
    let mut spans = Vec::new();
    for marker in ["#[cfg(test)]", "#[cfg(all(test", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = find_from(&chars, marker, from) {
            if let Some((open, close)) = braced_body(&chars, pos) {
                spans.push((line_of(scrubbed, open), line_of(scrubbed, close)));
            }
            from = pos + marker.chars().count();
        }
    }
    spans.sort_unstable();
    spans
}

/// True when `line` (1-based) falls inside any of the given spans.
pub fn in_spans(line: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

fn find_from(chars: &[char], needle: &str, from: usize) -> Option<usize> {
    let pat: Vec<char> = needle.chars().collect();
    if chars.len() < pat.len() {
        return None;
    }
    (from..=chars.len() - pat.len()).find(|&i| chars[i..i + pat.len()] == pat[..])
}

/// Finds the `{ ... }` body following `pos` and returns the char indices
/// of its braces.
fn braced_body(chars: &[char], pos: usize) -> Option<(usize, usize)> {
    let open = (pos..chars.len()).find(|&i| chars[i] == '{')?;
    Some((open, match_brace(chars, open)?))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn scrub_preserves_length_and_newlines() {
        let src = "let x = \"panic!\"; // unwrap()\nlet y = 1;\n";
        let s = scrub(src);
        assert_eq!(s.chars().count(), src.chars().count());
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        assert!(!s.contains("panic"));
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let y = 1;"));
    }

    #[test]
    fn scrub_handles_block_comments_nested() {
        let s = scrub("a /* x /* y */ z */ b");
        assert_eq!(s.trim(), "a                   b".trim());
        assert!(s.starts_with("a "));
        assert!(s.ends_with(" b"));
    }

    #[test]
    fn scrub_handles_raw_and_byte_strings() {
        let s = scrub(r###"let d = br#"panic!("x")"#; let e = b"todo!";"###);
        assert!(!s.contains("panic"));
        assert!(!s.contains("todo"));
        assert!(s.contains("let d ="));
        assert!(s.contains("let e ="));
    }

    #[test]
    fn scrub_distinguishes_chars_from_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) { let c = '\\n'; let d = 'x'; }");
        assert!(s.contains("<'a>"), "lifetime must survive: {s}");
        assert!(s.contains("&'a str"));
        assert!(!s.contains("'x'"));
    }

    #[test]
    fn scrub_keeps_escaped_quote_inside_string() {
        let s = scrub(r#"let a = "he said \"unwrap\""; let b = 2;"#);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let b = 2;"));
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let spans = test_spans(&scrub(src));
        assert_eq!(spans.len(), 1);
        assert!(in_spans(4, &spans));
        assert!(!in_spans(1, &spans));
        assert!(!in_spans(6, &spans));
    }

    #[test]
    fn scrub_line_accounting_survives_raw_strings_and_nested_comments() {
        let src = "let a = r#\"one\ntwo\"#;\n/* outer /* inner\n*/ still comment\n*/\nfn f() { x.unwrap(); }\n";
        let s = scrub(src);
        assert_eq!(s.chars().count(), src.chars().count());
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        // `unwrap` sits on line 6 of the original; one desynced newline
        // above it would shift every finding below.
        let idx = s.find("unwrap").unwrap();
        assert_eq!(line_of(&s, s[..idx].chars().count()), 6);
    }

    #[test]
    fn scrub_multiline_raw_byte_string_keeps_following_lines_aligned() {
        let src = "let a = br##\"w1\nw2\nw3\"##;\ny.expect(\"no\");\n";
        let s = scrub(src);
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        assert!(!s.contains("w1") && !s.contains("w3"));
        let idx = s.find("expect").unwrap();
        assert_eq!(line_of(&s, s[..idx].chars().count()), 4);
    }

    #[test]
    fn scrub_char_escape_keeps_newline_count() {
        // `'\<newline>'` is not valid Rust, but the scanner must still
        // not eat the newline: a desynced line shifts every finding
        // below it in the file.
        let src = "let c = '\\\n'; let d = 1;\nx.unwrap();\n";
        let s = scrub(src);
        assert_eq!(s.chars().count(), src.chars().count());
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn line_of_is_one_based() {
        assert_eq!(line_of("ab\ncd", 0), 1);
        assert_eq!(line_of("ab\ncd", 3), 2);
    }

    #[test]
    fn contains_word_respects_boundaries() {
        assert!(contains_word("if x { }", "if"));
        assert!(!contains_word("verify(x)", "if"));
        assert!(!contains_word("matches!(x, 1)", "match"));
        assert!(contains_word("x.unwrap()", "unwrap"));
        assert!(!contains_word("x.unwrap_or(1)", "unwrap"));
    }
}
