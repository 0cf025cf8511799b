//! A lightweight Rust item parser on top of [`crate::lexer`]: the one
//! source model every lint reads.
//!
//! Each file is scrubbed and parsed once. [`ParsedFile`] keeps the raw
//! lines (for suppression markers), every `struct` item with its field
//! text line by line (`concurrency`), and every `fn` item: its
//! signature (with the owning `impl` type), parameter names and types,
//! return type, every call expression with its receiver and argument
//! texts, its loop and adaptor regions, its `let` statements and its
//! assignments — all from scrubbed source, without a full Rust grammar.
//!
//! The `let` and assignment records are the one binder of the gate:
//! each [`Let`] holds every name its pattern binds (plain, tuple,
//! nested, `Some(..)`, struct and let-else patterns), its type
//! annotation, its right-hand side and the lines that and its scope end
//! on; each [`Assign`] holds the base name of a plain or compound
//! assignment's place and its right-hand side. `ct` reads both
//! ([`FnItem::bindings`]), and `opcount` and `concurrency` read the
//! lets.
//!
//! Deliberate approximations, documented in DESIGN.md §8:
//!
//! * functions inside `macro_rules!` bodies are parsed like ordinary
//!   functions (their `$metavariables` survive as identifiers), which is
//!   what makes the `montgomery_field!`-generated arithmetic visible to
//!   the taint pass at all;
//! * pattern parameters (`(a, b): (Fr, Fr)`) are kept with an empty
//!   name and never carry taint;
//! * nested `fn` items are folded into their enclosing body, like
//!   closures;
//! * `if let`/`while let` heads bind nothing: their names live only in
//!   the block they guard.

use crate::lexer::{
    self, contains_word, is_ident_char, match_back, match_brace, match_forward, match_paren,
    prev_non_ws, skip_ws, starts_word_at,
};

/// One parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path label used in findings (workspace-relative).
    pub path: String,
    /// The raw source lines, for suppression-comment lookup.
    pub raw_lines: Vec<String>,
    /// All `fn` items found in the file.
    pub fns: Vec<FnItem>,
    /// All `struct` items found in the file.
    pub structs: Vec<StructItem>,
}

/// A parsed `struct` item.
#[derive(Debug)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// 1-based line the `struct` keyword sits on.
    pub line: usize,
    /// True when the item sits inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
    /// Scrubbed text between the body's `{}` or `()`, one entry per
    /// source line as `(1-based line, text)`; empty for unit structs.
    pub field_lines: Vec<(usize, String)>,
}

/// A `let` statement in a function body.
#[derive(Debug)]
pub struct Let {
    /// Every name the pattern binds, in source order (`pattern_names`):
    /// `a`, `b` for `let (a, mut b)`, `v`, `s`, `r` for
    /// `let Signature::McCls { v, s, r } = sig else { .. }`. The pattern
    /// `_` alone is kept as `_`: it drops the value on the spot.
    pub names: Vec<String>,
    /// The type annotation, empty when there is none.
    pub ty: String,
    /// 1-based line of the `let` keyword.
    pub line: usize,
    /// Right-hand-side text, from after `=` to the terminating `;`.
    pub rhs: String,
    /// 1-based line of the terminating `;`.
    pub rhs_end_line: usize,
    /// 1-based line of the `}` closing the block the binding lives in.
    pub scope_end_line: usize,
}

/// A plain (`x = e`) or compound (`t[j] += e`) assignment in a function
/// body.
#[derive(Debug)]
pub struct Assign {
    /// The base name of the assigned place: `t` for `t[j] = v`, `out`
    /// for `out.x += v`, `self` for `self.0 = v`.
    pub name: String,
    /// 1-based line of the `=`.
    pub line: usize,
    /// Right-hand-side text, from after `=` to the `;` ending the
    /// statement (or the `}` closing its block).
    pub rhs: String,
}

/// A parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The `impl`/`trait` type the function is defined on, if any.
    pub owner: Option<String>,
    /// Parameters in order; `self` receivers become a parameter named
    /// `self` whose type is the owner.
    pub params: Vec<Param>,
    /// Return type text (empty for `()`-returning functions).
    pub ret: String,
    /// Scrubbed body text, from the opening `{` through the matching
    /// closing brace.
    pub body: String,
    /// 1-based line the `fn` keyword sits on (for declaration-level
    /// suppression markers on multi-line signatures).
    pub decl_line: usize,
    /// 1-based line the body's `{` opens on.
    pub body_line: usize,
    /// True when the item sits inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
    /// Call expressions made anywhere in the body.
    pub calls: Vec<Call>,
    /// Loop bodies and per-item adaptor arguments in the body, in
    /// source order.
    pub regions: Vec<Region>,
    /// `let` statements in the body, in source order.
    pub lets: Vec<Let>,
    /// Assignments in the body, in source order.
    pub assigns: Vec<Assign>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name; empty for pattern parameters.
    pub name: String,
    /// Type text (trimmed).
    pub ty: String,
}

/// One call expression inside a function body.
#[derive(Debug)]
pub struct Call {
    /// Last path segment — the function or method name.
    pub callee: String,
    /// The path segment before the name (`ops` in `ops::mul_g1`,
    /// `Self` in `Self::mont_mul`), if any.
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub is_method: bool,
    /// Receiver expression text for method calls (`keys.secret` in
    /// `keys.secret.invert_ct()`).
    pub receiver: Option<String>,
    /// Argument expression texts, split on top-level commas.
    pub args: Vec<String>,
    /// 1-based source line of the call.
    pub line: usize,
    /// How often the enclosing control flow can repeat this call.
    pub ctx: LoopCtx,
}

/// What makes a [`Region`] repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A `for` body: once per item of the header's iterable.
    For,
    /// A `while` or `loop` body: no static trip count.
    While,
    /// The argument list of a [`PER_ITEM_ADAPTORS`] call (`.map(..)`):
    /// once per item of the receiver.
    Adaptor,
}

/// One region of a body that can run more than once.
#[derive(Debug)]
pub struct Region {
    /// What repeats it.
    pub kind: RegionKind,
    /// Char index in [`FnItem::body`] of the opener: `{` for loops, `(`
    /// for adaptors.
    pub open: usize,
    /// Char index of the matching closer.
    pub close: usize,
    /// 1-based source line of the loop keyword or the adaptor's `.`.
    pub line: usize,
    /// 1-based source line of the opener.
    pub open_line: usize,
    /// 1-based source line of the closer.
    pub close_line: usize,
    /// What it iterates: the `for` header (`x in items`) or the
    /// adaptor's receiver chain; empty for `while`/`loop`.
    pub source: String,
}

/// Execution multiplicity of a call site, derived from the loop and
/// iterator-closure structure around it. Used by the operation-count
/// analysis ([`crate::opcount`]) to scale atomic costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopCtx {
    /// Straight-line code: at most once per caller invocation.
    Straight,
    /// Inside exactly one `for` loop or iterator-adaptor closure: once
    /// per item of a single collection (symbolic `n`).
    PerItem,
    /// Inside a `while`/`loop` or nested per-item contexts: no static
    /// bound exists.
    Unbounded,
}

impl ParsedFile {
    /// The raw source lines as string slices, for suppression lookup.
    pub(crate) fn lines(&self) -> Vec<&str> {
        self.raw_lines.iter().map(String::as_str).collect()
    }
}

impl StructItem {
    /// Whether any field mentions `word` (on identifier boundaries).
    pub fn mentions(&self, word: &str) -> bool {
        self.field_lines.iter().any(|(_, t)| contains_word(t, word))
    }
}

impl FnItem {
    /// The parameter names that can carry taint (plain bindings only).
    pub fn param_names(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| !p.name.is_empty())
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Every name the body's `let`s bind (`_` aside) and its assignments
    /// assign, as `(name, right-hand side, 1-based line)` in line order:
    /// the flow the `ct` lint follows.
    pub fn bindings(&self) -> Vec<(&str, &str, usize)> {
        let lets = self.lets.iter().flat_map(|l| {
            l.names
                .iter()
                .filter(|n| *n != "_")
                .map(move |n| (n.as_str(), l.rhs.as_str(), l.line))
        });
        let assigns = self
            .assigns
            .iter()
            .map(|a| (a.name.as_str(), a.rhs.as_str(), a.line));
        let mut out: Vec<_> = lets.chain(assigns).collect();
        out.sort_by_key(|b| b.2);
        out
    }
}

/// Every non-test `struct` item of `files`, with the file it is in.
pub fn non_test_structs(files: &[ParsedFile]) -> Vec<(&ParsedFile, &StructItem)> {
    files
        .iter()
        .flat_map(|file| file.structs.iter().map(move |s| (file, s)))
        .filter(|(_, s)| !s.is_test)
        .collect()
}

/// Parses a batch of `(path, source)` pairs.
pub fn parse_files(sources: &[(String, String)]) -> Vec<ParsedFile> {
    sources
        .iter()
        .map(|(path, src)| parse_file(path, src))
        .collect()
}

/// Parses one file.
pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let scrubbed = lexer::scrub(src);
    let test_spans = lexer::test_spans(&scrubbed);
    let chars: Vec<char> = scrubbed.chars().collect();
    let impls = impl_spans(&chars);

    let mut fns = Vec::new();
    let mut last_close = 0usize;
    let mut i = 0;
    while i < chars.len() {
        if !starts_word_at(&chars, i, "fn") {
            i += 1;
            continue;
        }
        if i < last_close {
            // Nested fn inside a body we already captured.
            i += 2;
            continue;
        }
        let Some(item) = parse_fn(&chars, &scrubbed, i, &impls, &test_spans) else {
            i += 2;
            continue;
        };
        let body_end = item.1;
        fns.push(item.0);
        last_close = body_end;
        i += 2;
    }
    let structs = structs(&chars, &scrubbed, &test_spans);

    ParsedFile {
        path: path.to_owned(),
        raw_lines: src.lines().map(str::to_owned).collect(),
        fns,
        structs,
    }
}

/// Every `struct` item with its field text. A generic parameter list is
/// skipped, so a bound like `F: Fn(u64)` is not read as a tuple body.
fn structs(chars: &[char], scrubbed: &str, spans: &[(usize, usize)]) -> Vec<StructItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !starts_word_at(chars, i, "struct") {
            i += 1;
            continue;
        }
        let line = lexer::line_of(scrubbed, i);
        let mut j = skip_ws(chars, i + 6);
        let name_start = j;
        while j < chars.len() && is_ident_char(chars[j]) {
            j += 1;
        }
        let name: String = chars[name_start..j].iter().collect();
        i = j;
        if name.is_empty() {
            continue;
        }
        if chars.get(j) == Some(&'<') {
            j = match_forward(chars, j, '<', '>').map_or(chars.len(), |c| c + 1);
        }
        // Body: the first `{` (named fields) or `(` (tuple fields)
        // before a terminating `;` (unit struct).
        let mut field_lines = Vec::new();
        while j < chars.len() {
            match chars[j] {
                open @ ('{' | '(') => {
                    let close = if open == '{' { '}' } else { ')' };
                    let end = match_forward(chars, j, open, close)
                        .unwrap_or(chars.len().saturating_sub(1));
                    let mut lno = lexer::line_of(scrubbed, j);
                    let mut text = String::new();
                    for &c in chars.get(j + 1..end).unwrap_or_default() {
                        if c == '\n' {
                            field_lines.push((lno, std::mem::take(&mut text)));
                            lno += 1;
                        } else {
                            text.push(c);
                        }
                    }
                    if !text.is_empty() {
                        field_lines.push((lno, text));
                    }
                    j = end;
                    break;
                }
                ';' => break,
                _ => j += 1,
            }
        }
        out.push(StructItem {
            name,
            line,
            is_test: lexer::in_spans(line, spans),
            field_lines,
        });
        i = j.max(i) + 1;
    }
    out
}

/// `impl`/`trait` block spans: `(open_brace, close_brace, owner_type)`.
fn impl_spans(chars: &[char]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let is_impl = starts_word_at(chars, i, "impl");
        let is_trait = starts_word_at(chars, i, "trait");
        if !is_impl && !is_trait {
            i += 1;
            continue;
        }
        let kw_len = if is_impl { 4 } else { 5 };
        let header_start = i + kw_len;
        // The block body is the first top-level `{` after the keyword.
        let Some(open) = (header_start..chars.len()).find(|&j| chars[j] == '{') else {
            break;
        };
        let header: String = chars[header_start..open].iter().collect();
        let owner = if is_trait {
            first_type_name(&header)
        } else {
            impl_owner(&header)
        };
        let close = match_brace(chars, open).unwrap_or(chars.len().saturating_sub(1));
        if let Some(owner) = owner {
            out.push((open, close, owner));
        }
        i = open + 1;
    }
    out
}

/// Owner type of an `impl` header: the type after `for` when present
/// (`impl Trait for Type`), else the first type name.
fn impl_owner(header: &str) -> Option<String> {
    let chars: Vec<char> = header.chars().collect();
    // Find ` for ` at angle-depth 0 so `Iterator<Item = X> for Y` works.
    let mut depth = 0i32;
    let mut j = 0;
    let mut for_pos = None;
    while j < chars.len() {
        match chars[j] {
            '<' => depth += 1,
            '>' if j > 0 && chars[j - 1] != '-' => depth -= 1,
            _ => {}
        }
        if depth == 0 && starts_word_at(&chars, j, "for") {
            for_pos = Some(j + 3);
            break;
        }
        j += 1;
    }
    let rest: String = match for_pos {
        Some(p) => chars[p..].iter().collect(),
        None => skip_generics(&chars),
    };
    first_type_name(&rest)
}

/// Drops a leading `<...>` generics group (after `impl`).
fn skip_generics(chars: &[char]) -> String {
    let mut j = 0;
    while j < chars.len() && chars[j].is_whitespace() {
        j += 1;
    }
    if chars.get(j) == Some(&'<') {
        let mut depth = 0i32;
        while j < chars.len() {
            match chars[j] {
                '<' => depth += 1,
                '>' if chars.get(j.wrapping_sub(1)) != Some(&'-') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    chars[j.min(chars.len())..].iter().collect()
}

/// The significant type name in a header fragment: the **last** segment
/// of the leading path (`core::ops::Add` → `Add`), ignoring generics.
/// `$metavariables` are kept verbatim so macro-generated impls resolve.
fn first_type_name(fragment: &str) -> Option<String> {
    let chars: Vec<char> = fragment.chars().collect();
    let mut j = 0;
    let mut last = None;
    while j < chars.len() {
        let c = chars[j];
        if c.is_whitespace() || c == '&' {
            j += 1;
            continue;
        }
        if c == ':' {
            j += 1;
            continue;
        }
        if c == '$' || is_ident_char(c) {
            let start = j;
            j += 1;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            let word: String = chars[start..j].iter().collect();
            if word == "dyn" || word == "mut" || word == "crate" {
                continue;
            }
            last = Some(word);
            // Continue only through `::`; anything else ends the path.
            if chars.get(j) == Some(&':') && chars.get(j + 1) == Some(&':') {
                j += 2;
                continue;
            }
            break;
        }
        if c == '<' {
            break;
        }
        j += 1;
    }
    last
}

/// Parses the `fn` starting at `start` (index of the `fn` keyword).
/// Returns the item and the char index of its closing brace.
fn parse_fn(
    chars: &[char],
    scrubbed: &str,
    start: usize,
    impls: &[(usize, usize, String)],
    spans: &[(usize, usize)],
) -> Option<(FnItem, usize)> {
    let mut i = start + 2;
    i = skip_ws(chars, i);
    let name_start = i;
    while i < chars.len() && is_ident_char(chars[i]) {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let name: String = chars[name_start..i].iter().collect();

    // Find the parameter list `(` at angle-depth 0 (skipping generics,
    // where `Fn(..) -> X` bounds may nest parens and arrows).
    let mut depth = 0i32;
    let mut paren_open = None;
    while i < chars.len() {
        match chars[i] {
            '<' => depth += 1,
            '>' if i > 0 && chars[i - 1] != '-' => depth -= 1,
            '(' if depth == 0 => {
                paren_open = Some(i);
                break;
            }
            '{' | ';' => return None,
            _ => {}
        }
        i += 1;
    }
    let paren_open = paren_open?;
    let paren_close = match_paren(chars, paren_open)?;
    let owner = impls
        .iter()
        .find(|(open, close, _)| *open < start && start < *close)
        .map(|(_, _, o)| o.clone());
    let params_text: String = chars[paren_open + 1..paren_close].iter().collect();
    let params = parse_params(&params_text, owner.as_deref());

    // Return type and body: scan to the body `{` or a `;` (trait decl).
    // Depth-track brackets so the `;` inside an array type like
    // `-> [u64; 6]` is not mistaken for a declaration terminator.
    let mut j = paren_close + 1;
    let mut ret = String::new();
    let mut body_open = None;
    let mut bracket = 0i32;
    while j < chars.len() {
        match chars[j] {
            '(' | '[' => bracket += 1,
            ')' | ']' => bracket -= 1,
            '{' if bracket == 0 => {
                body_open = Some(j);
                break;
            }
            ';' if bracket == 0 => break,
            '-' if chars.get(j + 1) == Some(&'>') => {
                // Return type: up to `{`, `;`, or a `where` clause,
                // all at bracket depth 0.
                let mut k = j + 2;
                let ret_start = k;
                let mut d = 0i32;
                while k < chars.len() {
                    match chars[k] {
                        '(' | '[' => d += 1,
                        ')' | ']' => d -= 1,
                        '{' | ';' if d == 0 => break,
                        _ if d == 0 && starts_word_at(chars, k, "where") => break,
                        _ => {}
                    }
                    k += 1;
                }
                ret = chars[ret_start..k]
                    .iter()
                    .collect::<String>()
                    .trim()
                    .to_owned();
                j = k;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    let body_open = body_open?;
    let body_close = match_brace(chars, body_open)?;
    let body: String = chars[body_open..=body_close].iter().collect();
    let body_line = lexer::line_of(scrubbed, body_open);
    let (calls, regions, lets, assigns) = scan_body(&body, body_line);

    Some((
        FnItem {
            name,
            owner,
            params,
            ret,
            body,
            decl_line: lexer::line_of(scrubbed, start),
            body_line,
            is_test: lexer::in_spans(body_line, spans)
                || lexer::in_spans(lexer::line_of(scrubbed, start), spans),
            calls,
            regions,
            lets,
            assigns,
        },
        body_close,
    ))
}

/// Splits a parameter list on top-level commas and parses each entry.
fn parse_params(text: &str, owner: Option<&str>) -> Vec<Param> {
    split_top_level(text)
        .into_iter()
        .filter_map(|p| parse_param(&p, owner))
        .collect()
}

fn parse_param(text: &str, owner: Option<&str>) -> Option<Param> {
    let t = text.trim();
    if t.is_empty() {
        return None;
    }
    // Receiver forms: `self`, `&self`, `&mut self`, `mut self`,
    // `self: Pin<..>`.
    let bare = t.trim_start_matches('&').trim_start();
    let bare = bare
        .strip_prefix("mut ")
        .map(str::trim_start)
        .unwrap_or(bare);
    let bare_head: String = bare.chars().take_while(|c| is_ident_char(*c)).collect();
    // A lifetime like `&'a self` leaves a leading quote; strip it.
    let bare2 = bare.trim_start_matches('\'');
    if bare_head == "self" || bare2.trim_start().starts_with("self") {
        return Some(Param {
            name: "self".to_owned(),
            ty: owner.unwrap_or("Self").to_owned(),
        });
    }
    // Split at the first top-level `:` that is not part of `::`.
    let chars: Vec<char> = t.chars().collect();
    let mut depth = 0i32;
    let mut colon = None;
    let mut k = 0;
    while k < chars.len() {
        match chars[k] {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '>' if k > 0 && chars[k - 1] != '-' => depth -= 1,
            ':' if depth == 0 => {
                if chars.get(k + 1) == Some(&':') {
                    k += 2;
                    continue;
                }
                colon = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    let colon = colon?;
    let pat: String = chars[..colon].iter().collect();
    let ty: String = chars[colon + 1..].iter().collect();
    let pat = pat.trim();
    let pat = pat.strip_prefix("mut ").map(str::trim).unwrap_or(pat);
    let name = if !pat.is_empty() && pat.chars().all(is_ident_char) && pat != "_" {
        pat.to_owned()
    } else {
        String::new() // pattern parameter: carries no taint
    };
    Some(Param {
        name,
        ty: ty.trim().to_owned(),
    })
}

/// Splits on commas at paren/bracket/brace/angle depth 0.
pub(crate) fn split_top_level(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (k, &c) in chars.iter().enumerate() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '>' if k > 0 && chars[k - 1] != '-' => depth -= 1,
            ',' if depth <= 0 => {
                out.push(chars[start..k].iter().collect());
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < chars.len() {
        out.push(chars[start..].iter().collect());
    }
    out
}

/// Keywords that can directly precede a `(` without being a call.
const NON_CALL_WORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "loop", "fn", "let", "move", "as",
    "impl", "dyn", "where", "mut", "ref", "break", "continue",
];

/// Iterator adaptors whose closure argument runs once per item of the
/// receiver collection. Anything not listed (e.g. `or_insert_with`,
/// `get_or_init`, `Option::map`) is treated as straight-line — a
/// documented under-approximation backstopped by the runtime op-count
/// cross-check (DESIGN.md §8.3).
pub const PER_ITEM_ADAPTORS: &[&str] = &[
    "map",
    "for_each",
    "flat_map",
    "filter_map",
    "filter",
    "fold",
    "retain",
    "scan",
    "inspect",
];

/// Extracts the calls, repeated regions, `let` statements and
/// assignments of a scrubbed body. `body_line` is the 1-based file line
/// of the body's first character.
fn scan_body(body: &str, body_line: usize) -> (Vec<Call>, Vec<Region>, Vec<Let>, Vec<Assign>) {
    let chars: Vec<char> = body.chars().collect();
    let mut newlines = vec![0usize; chars.len() + 1];
    for (i, &c) in chars.iter().enumerate() {
        newlines[i + 1] = newlines[i] + usize::from(c == '\n');
    }
    let line_at = |i: usize| body_line + newlines[i.min(chars.len())];
    let regions = regions(&chars, &line_at);
    let calls = collect_calls(&chars, &regions, &line_at);
    let lets = lets(&chars, &line_at);
    let assigns = assigns(&chars, &line_at);
    (calls, regions, lets, assigns)
}

/// The `let` statements of a body that bind a name. `if let`/`while let`
/// heads are skipped: they have no terminating `;`, and what they bind
/// lives only in their block. Scanning resumes just past each `=`, so a
/// `let` nested in a block initializer is seen too.
fn lets(chars: &[char], line_at: &dyn Fn(usize) -> usize) -> Vec<Let> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !starts_word_at(chars, i, "let")
            || preceded_by(chars, i, "if")
            || preceded_by(chars, i, "while")
        {
            i += 1;
            continue;
        }
        // The `=` at depth 0, past a type annotation's generics; the
        // pattern ends at it or at the annotation's `:`.
        let mut depth = 0i32;
        let mut colon = None;
        let mut eq = None;
        let mut k = i + 3;
        while k < chars.len() {
            match chars[k] {
                '(' | '[' | '{' | '<' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                '>' if chars[k - 1] != '-' && chars[k - 1] != '=' => depth -= 1,
                ';' if depth <= 0 => break,
                ':' if chars.get(k + 1) == Some(&':') => k += 1,
                ':' if depth == 0 && colon.is_none() => colon = Some(k),
                '=' if depth == 0 && is_plain_or_compound_assign(chars, k) => {
                    eq = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(eq) = eq else {
            i = k.max(i + 3);
            continue;
        };
        let text = |from: usize, to: usize| chars[from..to].iter().collect::<String>();
        let names = pattern_names(&text(i + 3, colon.unwrap_or(eq)));
        match statement_end(chars, eq + 1) {
            Some(semi) if chars[semi] == ';' && !names.is_empty() => {
                // The binding's scope closes at its block's `}`.
                let mut scope_end = semi;
                while chars[scope_end] == ';' {
                    scope_end = statement_end(chars, scope_end + 1).unwrap_or(chars.len() - 1);
                }
                out.push(Let {
                    names,
                    ty: colon.map_or(String::new(), |c| text(c + 1, eq).trim().to_owned()),
                    line: line_at(i),
                    rhs: text(eq + 1, semi),
                    rhs_end_line: line_at(semi),
                    scope_end_line: line_at(scope_end),
                });
            }
            _ => {}
        }
        i = eq + 1;
    }
    out
}

/// The end of the statement whose right-hand side starts at `from`: the
/// index of its `;` at depth 0, or of the unmatched closer of the block
/// it ends.
fn statement_end(chars: &[char], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (m, &c) in chars.iter().enumerate().skip(from) {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return Some(m),
            ')' | ']' | '}' => depth -= 1,
            ';' if depth == 0 => return Some(m),
            _ => {}
        }
    }
    None
}

/// The names a `let` or `for` pattern binds: its identifiers that are
/// not keywords (`mut`, `ref`, `box`), constructors, paths or macros
/// (`Some`, `Signature::McCls`, `vec!`), or the field labels of a struct
/// pattern (`x` in `Point { x: px, .. }`). The pattern `_` alone is
/// kept as `_`.
pub(crate) fn pattern_names(pattern: &str) -> Vec<String> {
    if pattern.trim() == "_" {
        return vec!["_".to_owned()];
    }
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = Vec::new();
    let mut start = 0;
    for end in 0..=chars.len() {
        if chars.get(end).is_some_and(|&c| is_ident_char(c)) {
            continue;
        }
        let word: String = chars[start..end].iter().collect();
        if word.starts_with(|c: char| c.is_lowercase() || c == '_')
            && !matches!(word.as_str(), "_" | "mut" | "ref" | "box")
            && !matches!(chars.get(skip_ws(&chars, end)), Some('(' | '{' | '!' | ':'))
            && (start == 0 || !matches!(chars[start - 1], ':' | '$'))
        {
            out.push(word);
        }
        start = end + 1;
    }
    out
}

/// The plain and compound assignments of a body: an `=` whose place —
/// an identifier chain with field accesses and index groups — starts a
/// statement. A `let`'s own `=` is not one: its pattern follows `let`.
fn assigns(chars: &[char], line_at: &dyn Fn(usize) -> usize) -> Vec<Assign> {
    let mut out = Vec::new();
    for i in 0..chars.len() {
        if chars[i] != '=' || !is_plain_or_compound_assign(chars, i) {
            continue;
        }
        // Skip one compound-operator char (`+=`, `|=`, …).
        let op = usize::from(i > 0 && "+-*/%&|^".contains(chars[i - 1]));
        let Some(end) = prev_non_ws(chars, i - op).map(|e| e + 1) else {
            continue;
        };
        let Some(place) = receiver_text(chars, end) else {
            continue;
        };
        let start = end - place.chars().count();
        let name: String = place.chars().take_while(|c| is_ident_char(*c)).collect();
        if prev_non_ws(chars, start).is_some_and(|b| !"{};".contains(chars[b]))
            || !name.starts_with(|c: char| c.is_lowercase() || c == '_')
            || name == "_"
        {
            continue;
        }
        let end = statement_end(chars, i + 1).unwrap_or(chars.len());
        out.push(Assign {
            name,
            line: line_at(i),
            rhs: chars[i + 1..end].iter().collect(),
        });
    }
    out
}

/// True when the `=` at `i` is a plain assignment or the tail of a
/// compound one (`+=`, `^=`, …) — not `==`, `<=`, `=>`, `..=`, etc.
fn is_plain_or_compound_assign(chars: &[char], i: usize) -> bool {
    !matches!(chars.get(i + 1), Some('=' | '>')) && (i == 0 || !"=!<>.".contains(chars[i - 1]))
}

/// Whether the last word before index `i` (skipping whitespace) is
/// `word`.
fn preceded_by(chars: &[char], i: usize, word: &str) -> bool {
    prev_non_ws(chars, i).is_some_and(|end| {
        let len = word.chars().count();
        end + 1 >= len && starts_word_at(chars, end + 1 - len, word)
    })
}

/// Regions of repeated execution inside a body: `for` bodies run per
/// item, `while`/`loop` bodies have no static trip count, and the
/// argument list of a known iterator adaptor runs per item.
fn regions(chars: &[char], line_at: &dyn Fn(usize) -> usize) -> Vec<Region> {
    let mut out = Vec::new();
    let mut push = |kind, i: usize, open: usize, close: usize, source: String| {
        out.push(Region {
            kind,
            open,
            close,
            line: line_at(i),
            open_line: line_at(open),
            close_line: line_at(close),
            source,
        });
    };
    for i in 0..chars.len() {
        for (kw, kind) in [
            ("for", RegionKind::For),
            ("while", RegionKind::While),
            ("loop", RegionKind::While),
        ] {
            if !starts_word_at(chars, i, kw) {
                continue;
            }
            let after = skip_ws(chars, i + kw.len());
            // `for<'a>` is a higher-ranked bound, not a loop.
            if kind == RegionKind::For && chars.get(after) == Some(&'<') {
                continue;
            }
            if let Some(open) = loop_body_open(chars, i + kw.len()) {
                if let Some(close) = match_brace(chars, open) {
                    let source = match kind {
                        RegionKind::For => chars[i + kw.len()..open].iter().collect(),
                        _ => String::new(),
                    };
                    push(kind, i, open, close, source);
                }
            }
            break;
        }
        if chars[i] == '.' {
            let name_start = i + 1;
            let mut j = name_start;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            if j > name_start {
                let name: String = chars[name_start..j].iter().collect();
                let open = skip_ws(chars, j);
                if PER_ITEM_ADAPTORS.contains(&name.as_str()) && chars.get(open) == Some(&'(') {
                    if let Some(close) = match_paren(chars, open) {
                        let receiver = receiver_text(chars, i).unwrap_or_default();
                        push(RegionKind::Adaptor, i, open, close, receiver);
                    }
                }
            }
        }
    }
    out
}

/// The `{` opening a loop body: the first brace at paren/bracket depth
/// zero after the loop keyword (the header's `Some(x)`/`(a, b)` groups
/// are skipped by depth tracking).
fn loop_body_open(chars: &[char], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, &c) in chars.iter().enumerate().skip(from) {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '{' if depth == 0 => return Some(j),
            ';' | '}' if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Classifies position `i` against the repeated regions: any unbounded
/// region wins; two or more nested per-item regions multiply into `n²`,
/// which the symbolic budgets cannot express, so they are unbounded
/// too.
fn ctx_at(regions: &[Region], i: usize) -> LoopCtx {
    let mut per_item = 0usize;
    for r in regions {
        if r.open < i && i < r.close {
            match r.kind {
                RegionKind::While => return LoopCtx::Unbounded,
                RegionKind::For | RegionKind::Adaptor => per_item += 1,
            }
        }
    }
    match per_item {
        0 => LoopCtx::Straight,
        1 => LoopCtx::PerItem,
        _ => LoopCtx::Unbounded,
    }
}

/// Extracts call expressions from a scrubbed body.
fn collect_calls(
    chars: &[char],
    regions: &[Region],
    line_at: &dyn Fn(usize) -> usize,
) -> Vec<Call> {
    let mut out = Vec::new();
    for i in 0..chars.len() {
        if chars[i] != '(' {
            continue;
        }
        // The token before the paren must be an identifier (calls) —
        // `!` (macros) and `>` (turbofish/comparison) are skipped.
        let Some(word_end) = prev_non_ws(chars, i) else {
            continue;
        };
        if !is_ident_char(chars[word_end]) {
            continue;
        }
        let mut word_start = word_end;
        while word_start > 0 && is_ident_char(chars[word_start - 1]) {
            word_start -= 1;
        }
        let word: String = chars[word_start..=word_end].iter().collect();
        if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if NON_CALL_WORDS.contains(&word.as_str()) {
            continue;
        }
        // Walk the path backwards through `::` segments.
        let mut qualifier = None;
        let mut path_start = word_start;
        if path_start >= 2 && chars[path_start - 1] == ':' && chars[path_start - 2] == ':' {
            let mut q_end = path_start - 2;
            // Skip a turbofish-free qualifier: plain ident or `$meta`.
            let mut q_start = q_end;
            while q_start > 0 && (is_ident_char(chars[q_start - 1]) || chars[q_start - 1] == '$') {
                q_start -= 1;
            }
            if q_start < q_end {
                qualifier = Some(chars[q_start..q_end].iter().collect::<String>());
                // Walk further path segments back for path_start only.
                path_start = q_start;
                while path_start >= 2
                    && chars[path_start - 1] == ':'
                    && chars[path_start - 2] == ':'
                {
                    q_end = path_start - 2;
                    q_start = q_end;
                    while q_start > 0
                        && (is_ident_char(chars[q_start - 1]) || chars[q_start - 1] == '$')
                    {
                        q_start -= 1;
                    }
                    if q_start == q_end {
                        break;
                    }
                    path_start = q_start;
                }
            }
        }
        // Method call: a `.` directly before the (unqualified) name.
        let mut is_method = false;
        let mut receiver = None;
        if qualifier.is_none() {
            if let Some(prev) = prev_non_ws(chars, word_start) {
                if chars[prev] == '.' {
                    is_method = true;
                    receiver = receiver_text(chars, prev);
                }
            }
        }
        let Some(close) = match_paren(chars, i) else {
            continue;
        };
        let args_text: String = chars[i + 1..close].iter().collect();
        let args = split_top_level(&args_text)
            .into_iter()
            .map(|a| a.trim().to_owned())
            .filter(|a| !a.is_empty())
            .collect();
        out.push(Call {
            callee: word,
            qualifier,
            is_method,
            receiver,
            args,
            line: line_at(i),
            ctx: ctx_at(regions, i),
        });
    }
    out
}

/// Reconstructs the expression chain ending just before index `dot` (a
/// method call's `.`, an assignment's place): identifiers, field
/// accesses, `?`, and balanced `(..)`/`[..]` groups.
fn receiver_text(chars: &[char], dot: usize) -> Option<String> {
    let mut j = dot; // exclusive end
    while let Some(prev) = j.checked_sub(1) {
        let c = chars[prev];
        if is_ident_char(c) || c == '.' || c == '?' {
            j = prev;
            continue;
        }
        if c == ')' || c == ']' {
            j = match_back(chars, prev)?;
            continue;
        }
        break;
    }
    (j < dot).then(|| chars[j..dot].iter().collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn parses_free_and_method_fns() {
        let src = "fn free(a: u64, b: &Fr) -> Fr { a.wrap(b) }\n\
                   impl Foo {\n    pub fn method(&self, k: &Fr) -> Fr { self.mul(k) }\n}\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "free");
        assert_eq!(f.fns[0].owner, None);
        assert_eq!(f.fns[0].param_names(), vec!["a", "b"]);
        assert_eq!(f.fns[0].ret, "Fr");
        assert_eq!(f.fns[1].name, "method");
        assert_eq!(f.fns[1].owner.as_deref(), Some("Foo"));
        assert_eq!(f.fns[1].param_names(), vec!["self", "k"]);
        assert_eq!(f.fns[1].params[0].ty, "Foo");
    }

    #[test]
    fn trait_impl_owner_is_the_for_type() {
        let src = "impl CertificatelessScheme for McCls {\n    fn sign(&self) {}\n}\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].owner.as_deref(), Some("McCls"));
    }

    #[test]
    fn generic_impl_owner_strips_generics_and_paths() {
        let src = "impl<C: Curve> ProjectivePoint<C> {\n    fn double(&self) -> Self { self }\n}\n\
                   impl core::ops::Add for $name {\n    fn add(self, rhs: $name) -> $name { rhs }\n}\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].owner.as_deref(), Some("ProjectivePoint"));
        assert_eq!(f.fns[1].owner.as_deref(), Some("$name"));
    }

    #[test]
    fn calls_capture_path_method_and_args() {
        let src = "fn f(k: &Keys) {\n    let s = ops::mul_g1_ct(&partial.d, &x_inv);\n    \
                   let t = k.secret.invert_ct();\n    Self::helper(s, t);\n}\n";
        let f = parse_file("x.rs", src);
        let calls = &f.fns[0].calls;
        let mul = calls.iter().find(|c| c.callee == "mul_g1_ct").unwrap();
        assert_eq!(mul.qualifier.as_deref(), Some("ops"));
        assert_eq!(mul.args, vec!["&partial.d", "&x_inv"]);
        assert_eq!(mul.line, 2);
        let inv = calls.iter().find(|c| c.callee == "invert_ct").unwrap();
        assert!(inv.is_method);
        assert_eq!(inv.receiver.as_deref(), Some("k.secret"));
        let helper = calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(helper.qualifier.as_deref(), Some("Self"));
    }

    #[test]
    fn chained_method_receiver_includes_call_groups() {
        let src = "fn f(r: &G2) { let x = r.to_affine().to_compressed(); }\n";
        let f = parse_file("x.rs", src);
        let c = f.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "to_compressed")
            .unwrap();
        assert_eq!(c.receiver.as_deref(), Some("r.to_affine()"));
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "fn f(x: u64) { if (x > 0) { assert!(x < 9); } for v in (0..x) {} }\n";
        let f = parse_file("x.rs", src);
        assert!(f.fns[0].calls.is_empty(), "{:?}", f.fns[0].calls);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        let f = parse_file("x.rs", src);
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn structs_and_lets_are_recorded() {
        let src = "pub struct Shard<F: Fn(u64)> {\n\
                   map: Vec<F>,\n\
                   hits: u64,\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   struct Probe(u8);\n\
                   }\n\
                   fn f(opt: Option<u64>) {\n\
                   if let Some(v) = opt { use_it(v); }\n\
                   let n = {\n\
                   let g = m.lock();\n\
                   g.len()\n\
                   };\n\
                   let total = n\n\
                   + 1;\n\
                   }\n";
        let f = parse_file("x.rs", src);
        let shard = &f.structs[0];
        assert_eq!((shard.name.as_str(), shard.line), ("Shard", 1));
        assert!(!shard.is_test);
        // The `(` of the generic bound is not a tuple body.
        assert_eq!(
            shard.field_lines,
            vec![
                (1, String::new()),
                (2, "map: Vec<F>,".to_owned()),
                (3, "hits: u64,".to_owned())
            ]
        );
        assert!(shard.mentions("Vec") && !shard.mentions("Fn"));
        assert_eq!(f.structs[1].name, "Probe");
        assert!(f.structs[1].is_test);

        // `(names, line, rhs_end_line, scope_end_line)`: no entry for the
        // `if let` head, and the block initializer's own `let` is seen.
        let lets: Vec<(String, usize, usize, usize)> = f.fns[0]
            .lets
            .iter()
            .map(|l| (l.names.join(","), l.line, l.rhs_end_line, l.scope_end_line))
            .collect();
        let expected = [("n", 11, 14, 17), ("g", 12, 12, 14), ("total", 15, 16, 17)];
        assert_eq!(lets, expected.map(|(n, a, b, c)| (n.to_owned(), a, b, c)));
        assert_eq!(f.fns[0].lets[2].rhs, " n\n+ 1");
    }

    #[test]
    fn let_patterns_bind_every_name() {
        let src = "fn f(sig: Signature, opt: Option<u64>) {\n\
                   let (a, mut b) = pair();\n\
                   let Signature::McCls { v, s: big_s, .. } = sig else { return; };\n\
                   let [x, ref y, _] = arr;\n\
                   let (&version, point): (&u8, &[u8]) = bytes.split_first()?;\n\
                   let _ = m.lock();\n\
                   let (_, _) = ignored();\n\
                   if let Some(h) = opt {\n\
                   let first =\n\
                   h;\n\
                   }\n\
                   }\n";
        let f = parse_file("x.rs", src);
        let lets = &f.fns[0].lets;
        let names: Vec<String> = lets.iter().map(|l| l.names.join(",")).collect();
        let expected = ["a,b", "v,big_s", "x,y", "version,point", "_", "first"];
        assert_eq!(names, expected);
        assert_eq!(lets[3].ty, "(&u8, &[u8])");
        assert_eq!(lets[3].rhs, " bytes.split_first()?");
        assert_eq!((lets[5].line, lets[5].rhs.as_str()), (9, "\nh"));
    }

    #[test]
    fn assignments_are_recorded_by_base_name() {
        let src = "fn f(t: &mut [u64; 4], out: &mut P) {\n\
                   let mut acc = 0;\n\
                   acc += t[0];\n\
                   t[acc] = acc;\n\
                   if acc == 1 { out.z ^= acc }\n\
                   let ok = acc <= 3 && acc != 2;\n\
                   }\n";
        let f = parse_file("x.rs", src);
        let assigns: Vec<(&str, usize, &str)> = f.fns[0]
            .assigns
            .iter()
            .map(|a| (a.name.as_str(), a.line, a.rhs.as_str()))
            .collect();
        assert_eq!(
            assigns,
            vec![("acc", 3, " t[0]"), ("t", 4, " acc"), ("out", 5, " acc ")]
        );
        // Lets and assignments in line order; `bindings` is what the
        // dataflow lints read.
        let bindings: Vec<(&str, usize)> = f.fns[0]
            .bindings()
            .iter()
            .map(|&(name, _, line)| (name, line))
            .collect();
        assert_eq!(
            bindings,
            vec![("acc", 2), ("acc", 3), ("t", 4), ("out", 5), ("ok", 6)]
        );
    }

    #[test]
    fn fn_with_generic_bound_parens() {
        let src = "fn apply<F: Fn(&u64) -> bool>(v: u64, f: F) -> bool { f(&v) }\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].name, "apply");
        assert_eq!(f.fns[0].param_names(), vec!["v", "f"]);
        assert_eq!(f.fns[0].ret, "bool");
    }

    #[test]
    fn pattern_params_carry_no_name() {
        let src = "fn f((a, b): (u64, u64), c: u64) -> u64 { a + b + c }\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].params.len(), 2);
        assert_eq!(f.fns[0].param_names(), vec!["c"]);
    }

    #[test]
    fn where_clause_is_not_part_of_return_type() {
        let src = "fn f<T>(x: T) -> Vec<T> where T: Clone { vec![x] }\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].ret, "Vec<T>");
    }

    #[test]
    fn loop_context_classifies_call_sites() {
        let src = "fn f(v: &[u64]) {\n\
                   straight();\n\
                   for x in v { per_item(x); for y in v { nested(y); } }\n\
                   while more() { unbounded(); }\n\
                   loop { spin(); }\n\
                   }\n";
        let f = parse_file("x.rs", src);
        let ctx = |name: &str| {
            f.fns[0]
                .calls
                .iter()
                .find(|c| c.callee == name)
                .unwrap()
                .ctx
        };
        assert_eq!(ctx("straight"), LoopCtx::Straight);
        assert_eq!(ctx("per_item"), LoopCtx::PerItem);
        assert_eq!(ctx("nested"), LoopCtx::Unbounded, "n·n is not expressible");
        assert_eq!(ctx("unbounded"), LoopCtx::Unbounded);
        assert_eq!(ctx("spin"), LoopCtx::Unbounded);
        // The `while` condition itself sits outside the loop body.
        assert_eq!(ctx("more"), LoopCtx::Straight);
    }

    #[test]
    fn iterator_adaptor_closures_run_per_item() {
        let src = "fn f(v: &[u64]) -> Vec<u64> {\n\
                   let out = v.iter().map(|x| expensive(x)).collect();\n\
                   let once = cell.get_or_init(|| build());\n\
                   out\n\
                   }\n";
        let f = parse_file("x.rs", src);
        let exp = f.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "expensive")
            .unwrap();
        assert_eq!(exp.ctx, LoopCtx::PerItem);
        let build = f.fns[0].calls.iter().find(|c| c.callee == "build").unwrap();
        assert_eq!(build.ctx, LoopCtx::Straight, "unknown closures count once");
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "fn f(v: u64) { let g: &dyn for<'a> Fn(&'a u64) = &|_| (); use_it(v); }\n";
        let f = parse_file("x.rs", src);
        let c = f.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "use_it")
            .unwrap();
        assert_eq!(c.ctx, LoopCtx::Straight);
    }

    #[test]
    fn rng_trait_object_param_parses() {
        let src = "fn gen(rng: &mut (impl RngCore + ?Sized)) -> Fr { Fr::random(rng) }\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].param_names(), vec!["rng"]);
        let c = &f.fns[0].calls[0];
        assert_eq!(c.callee, "random");
        assert_eq!(c.qualifier.as_deref(), Some("Fr"));
    }
}
