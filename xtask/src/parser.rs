//! A lightweight Rust item parser on top of the masking lexer.
//!
//! The semantic passes (see [`crate::analysis`]) need more than masked
//! lines: they need to know which functions exist, what each one calls,
//! and where its intrinsic panic sites are. This module extracts exactly
//! that — no types, no full grammar — from the token stream of a masked
//! file:
//!
//! * `fn` items with their inline-module path, enclosing `impl` type,
//!   visibility and `#[cfg(test)]` status;
//! * call expressions (`foo(`, `a::b::foo(`, `Self::foo(`), method calls
//!   (`.foo(`, turbofish included) and macro invocations (`foo!(`);
//! * `use` imports, flattened to `(bound name, full path)` pairs;
//! * intrinsic **panic sites**: `.unwrap()` / `.expect(`, panicking
//!   macros, slice/collection indexing `x[..]`, and integer `/` / `%`
//!   with a non-literal divisor;
//! * **declared types**: the type head of every struct field, `static`,
//!   fn parameter and `let name: T` in non-test code (see
//!   [`ParsedFile::decls`]), plus the names each body rebinds without an
//!   annotation, so the call graph can resolve `recv.f(..)` by the
//!   receiver's type;
//! * lock acquisitions (`.lock()`/`.read()`/`.write()` on a receiver
//!   declared `Mutex`/`RwLock`) with their guard bindings, and blocking
//!   operations (socket I/O, `thread::sleep`, channel `recv`, thread
//!   `join`, `Condvar::wait*`), for the concurrency passes;
//! * taint plumbing for [`crate::analysis::taint`]: signature parameter
//!   names, name-level dataflow binds (`let` initializers, `match`-arm
//!   destructuring against the scrutinee, `for pat in expr`), and **sink
//!   sites** — indexing operands, narrowing `as` casts, raw `+`/`*`/`-`
//!   integer arithmetic (checked/saturating/wrapping forms are method
//!   calls and never produce a raw operator), and allocation-size
//!   positions (`with_capacity`, `reserve`, `vec![..; n]`) — each with
//!   the identifiers that feed it.
//!
//! Known over-approximations are deliberate (DESIGN.md §11, §13): a
//! closure's body is attributed to its enclosing function, any `[` after a
//! value token counts as indexing, a let-bound guard is assumed live to
//! the end of the function (or an explicit `drop`), and call resolution is
//! left entirely to [`crate::callgraph`].

use crate::lexer::MaskedFile;
use crate::rules;
use std::collections::{BTreeMap, BTreeSet};

/// One lexical token of the masked source.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    /// Numeric literal (integer or float, suffix included).
    Num(String),
    /// The path separator `::`.
    ColonColon,
    Punct(char),
}

/// A token plus its position (0-based line, byte column in the line).
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
    pub col: usize,
}

/// Why a line can panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()` on Option/Result.
    Unwrap,
    /// `.expect(..)` on Option/Result.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    Assert,
    /// Indexing `x[..]` (slice, Vec, Matrix, map — all can panic).
    Index,
    /// Integer `/` or `%` with a divisor not proven non-zero.
    IntDiv,
}

impl PanicKind {
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic-macro",
            PanicKind::Assert => "assert",
            PanicKind::Index => "index",
            PanicKind::IntDiv => "int-div",
        }
    }
}

/// An intrinsic panic site inside one function body (0-based line).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub line: usize,
}

/// A call expression: path segments (`["a", "b", "f"]` for `a::b::f(..)`,
/// one segment for `f(..)` or `.f(..)`) and the 0-based line.
#[derive(Debug, Clone)]
pub struct Call {
    pub segments: Vec<String>,
    pub line: usize,
    /// Identifiers appearing in the argument list (bounded scan), used to
    /// map guard-returning calls like `recover(&self.state)` back to the
    /// lock binding they acquire, and to spot `drop(guard)`.
    pub args: Vec<String>,
    /// `Some(name)` when the call result is let-bound (`let g = f(..)`,
    /// `if let Some(w) = f(..)`); the innermost pattern identifier.
    pub bound: Option<String>,
    /// `Some(name)` for method calls whose receiver is an identifier
    /// (`recv.f(..)`, `x.recv.f(..)`); `None` for free calls, macros and
    /// receivers that are call results or other expressions. Taint treats
    /// the receiver as an extra argument.
    pub recv: Option<String>,
    /// Whether `recv` is a field access (`x.recv.f(..)`), looked up under
    /// `.recv` in [`ParsedFile::decls`].
    pub field_recv: bool,
}

/// How a guard is obtained at an acquisition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    /// `m.lock()` on a `Mutex` binding.
    MutexLock,
    /// `l.read()` on a `RwLock` binding.
    RwRead,
    /// `l.write()` on a `RwLock` binding.
    RwWrite,
}

impl LockKind {
    pub fn label(self) -> &'static str {
        match self {
            LockKind::MutexLock => "lock",
            LockKind::RwRead => "read",
            LockKind::RwWrite => "write",
        }
    }
}

/// A lock acquisition inside one function body (0-based line).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The lock binding acquired (`state` in `self.state.lock()`).
    pub binding: String,
    pub kind: LockKind,
    pub line: usize,
    /// `Some(name)` when the guard is let-bound (`let g = m.lock()`);
    /// `None` for a temporary that dies within its own statement.
    pub guard: Option<String>,
}

/// A potentially blocking operation (0-based line).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Operation label (`write_all`, `thread::sleep`, `Condvar::wait`, ..).
    pub op: String,
    pub line: usize,
    /// `Condvar::wait*` atomically releases its guard, so the
    /// blocking-under-lock pass treats it as intentional-but-reportable.
    pub condvar_wait: bool,
}

/// What an untrusted value must not reach unchecked (taint sinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// Slice/array/map indexing — the index expression's operands.
    Index,
    /// Narrowing `as` cast to an integer type (float contexts excluded,
    /// same discipline as the int-div panic site).
    Cast,
    /// Raw `+`/`*`/`-` on integer operands; `checked_*`/`saturating_*`/
    /// `wrapping_*` are method calls and never produce a raw operator.
    Arith,
    /// Allocation-size position: `with_capacity(n)`, `reserve(n)`,
    /// `vec![x; n]`.
    AllocSize,
}

impl SinkKind {
    pub fn label(self) -> &'static str {
        match self {
            SinkKind::Index => "index",
            SinkKind::Cast => "cast",
            SinkKind::Arith => "arith",
            SinkKind::AllocSize => "alloc-size",
        }
    }
}

/// A taint sink inside one function body (0-based line) plus the
/// identifiers feeding it (bounded scans, [`taint_ident`]-filtered).
#[derive(Debug, Clone)]
pub struct SinkSite {
    pub kind: SinkKind,
    pub line: usize,
    pub operands: Vec<String>,
}

/// A name-level dataflow bind: if any identifier on the right is tainted,
/// every bound name on the left becomes tainted. Produced by `let`
/// initializers, `match`-arm patterns (rhs = the scrutinee) and
/// `for pat in expr` loops.
#[derive(Debug, Clone)]
pub struct TaintBind {
    pub bound: Vec<String>,
    pub rhs: Vec<String>,
    pub line: usize,
}

/// One `fn` item and everything extracted from its body.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Inline `mod` path within the file (file-level modules are derived
    /// from the path by the call graph).
    pub module: Vec<String>,
    /// `Some(type)` when declared inside `impl Type` / `impl Trait for Type`;
    /// `Some("_")` for a blanket impl over a generic parameter
    /// (`impl<T: Bound> Trait for T`, `.. for &mut T`).
    pub impl_type: Option<String>,
    pub is_pub: bool,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    pub in_test: bool,
    /// Free/path calls (`f(`, `a::f(`).
    pub calls: Vec<Call>,
    /// Method calls (`.f(`), single-segment.
    pub method_calls: Vec<Call>,
    pub panic_sites: Vec<PanicSite>,
    /// 0-based line of the body's closing `}` (used for guard-extent
    /// scans; equals `line` until the body closes).
    pub end_line: usize,
    /// Whether the signature mentions a `*Guard` type: acquisitions inside
    /// escape to the caller instead of dying in this body.
    pub ret_guard: bool,
    pub lock_sites: Vec<LockSite>,
    pub blocking_sites: Vec<BlockingSite>,
    /// Signature parameter names (`self` excluded), in declaration order.
    pub params: Vec<String>,
    /// Names the body binds without a type annotation: unannotated `let`
    /// and `if let`/`while let` patterns, `for` patterns, match arms and
    /// closure parameters. A receiver named here resolves by name, since
    /// the binding may shadow its declared type.
    pub rebound: BTreeSet<String>,
    /// Name-level dataflow binds for taint propagation.
    pub binds: Vec<TaintBind>,
    /// Taint sinks with their feeding identifiers.
    pub sinks: Vec<SinkSite>,
}

/// Everything extracted from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// `use` imports as `(bound name, full segment path)`.
    pub uses: Vec<(String, Vec<String>)>,
    pub fns: Vec<FnItem>,
    /// Declared type heads per name, from non-test code: struct fields
    /// under `.name`; `static`s, fn parameters and `let name: T` under
    /// `name`. A head is the last path segment of the type after `&`,
    /// `mut` and `Arc`/`Rc`/`Box` wrappers (`state: Arc<Mutex<S>>` gives
    /// `Mutex`); `?` marks a `dyn`/`impl` trait, `Self` outside an impl or
    /// an associated type; `[` and `(` mark slices, arrays and tuples.
    pub decls: BTreeMap<String, BTreeSet<String>>,
}

impl ParsedFile {
    /// The declared type heads of `name` (of the field `.name` when
    /// `field`), if the file declares it.
    pub fn heads(&self, name: &str, field: bool) -> Option<&BTreeSet<String>> {
        if field {
            self.decls.get(&format!(".{name}"))
        } else {
            self.decls.get(name)
        }
    }
}

/// Tokenize masked lines. Strings/comments are already blanked, so only
/// code tokens survive; lifetimes and masked literals are skipped.
pub fn tokenize(masked_lines: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (lineno, line) in masked_lines.iter().enumerate() {
        let bytes = line.as_bytes();
        let chars: Vec<char> = line.chars().collect();
        // The masked text is ASCII wherever it matters (non-ASCII source
        // chars are either masked or identifiers we can treat bytewise);
        // iterate chars but track byte columns for operand extraction.
        let mut byte_of = Vec::with_capacity(chars.len() + 1);
        {
            let mut b = 0;
            for c in &chars {
                byte_of.push(b);
                b += c.len_utf8();
            }
            byte_of.push(bytes.len());
        }
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            let col = byte_of[i];
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                out.push(Token { tok: Tok::Ident(ident), line: lineno, col });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Fractional part: `.` followed by a digit (not `..` or a
                // method call on a literal).
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                let num: String = chars[start..i].iter().collect();
                out.push(Token { tok: Tok::Num(num), line: lineno, col });
            } else if c == '\'' {
                // Lifetime (`'a`) or a masked char literal (`' '`): skip.
                if i + 1 < chars.len() && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    // Masked char literal: skip to the closing quote.
                    let mut j = i + 1;
                    while j < chars.len() && chars[j] != '\'' {
                        j += 1;
                    }
                    i = (j + 1).min(chars.len());
                }
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Token { tok: Tok::ColonColon, line: lineno, col });
                i += 2;
            } else {
                out.push(Token { tok: Tok::Punct(c), line: lineno, col });
                i += 1;
            }
        }
    }
    out
}

/// Keywords that look like calls when followed by `(` but are not.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "in", "as", "move",
    "ref", "mut", "let", "else", "fn", "impl", "struct", "enum", "trait", "type", "use", "mod",
    "pub", "where", "unsafe", "async", "await", "dyn", "const", "static", "true", "false", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

enum ScopeKind {
    Mod,
    Impl,
    Fn,
    /// A `struct` body: `name: T` at its top level declares a field.
    Struct,
    Other,
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *before* the opening `{`; the scope pops when depth
    /// returns to this value.
    open_depth: i64,
}

enum Pending {
    Mod(String),
    Impl(String),
    Fn { name: String, is_pub: bool, line: usize },
    Struct,
}

/// Method calls that block regardless of receiver type (socket/file I/O,
/// channel receives). Over-approximate by design: a `flush` on an
/// in-memory writer still counts (DESIGN.md §13).
const BLOCKING_METHODS: &[&str] =
    &["write_all", "read_exact", "read_to_end", "flush", "accept", "recv", "recv_timeout"];

/// Parse one masked file into items, calls and panic sites.
pub fn parse(file: &MaskedFile) -> ParsedFile {
    let toks = tokenize(&file.masked_lines);
    let mut out = ParsedFile::default();

    let mut scopes: Vec<Scope> = Vec::new();
    let mut mod_path: Vec<String> = Vec::new();
    let mut impl_ctx: Vec<String> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Set while a `Pending::Fn` signature mentions a `*Guard` type.
    let mut pending_ret_guard = false;
    // Parameter names collected while a `Pending::Fn` signature is open.
    let mut pending_params: Vec<String> = Vec::new();
    // A `match` whose arm block opens at token index `.0`, with the
    // scrutinee identifiers `.1`; promoted onto `match_stack` when the
    // opening `{` is reached.
    let mut pending_match: Option<(usize, Vec<String>)> = None;
    // Open `match` blocks: (open brace depth, scrutinee identifiers).
    let mut match_stack: Vec<(i64, Vec<String>)> = Vec::new();
    let mut depth = 0i64;
    let mut paren_depth = 0i64;

    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    // Record a declaration of `key` on `line` whose type starts at token
    // `at`; test code declares nothing.
    let declare = |decls: &mut BTreeMap<String, BTreeSet<String>>,
                   key: String,
                   at: usize,
                   line: usize,
                   impl_ctx: &[String]| {
        if !file.in_test_region(line) {
            let head = type_head(&toks, at, impl_ctx.last().map(String::as_str));
            decls.entry(key).or_default().insert(head);
        }
    };

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct('(') => paren_depth += 1,
            Tok::Punct(')') => paren_depth -= 1,
            Tok::Punct('{') => {
                let kind = match pending.take() {
                    Some(Pending::Mod(name)) => {
                        mod_path.push(name);
                        ScopeKind::Mod
                    }
                    Some(Pending::Impl(type_name)) => {
                        impl_ctx.push(type_name);
                        ScopeKind::Impl
                    }
                    Some(Pending::Struct) => ScopeKind::Struct,
                    Some(Pending::Fn { name, is_pub, line }) => {
                        out.fns.push(FnItem {
                            name,
                            module: mod_path.clone(),
                            impl_type: impl_ctx.last().cloned(),
                            is_pub,
                            line,
                            in_test: file.in_test_region(line),
                            calls: Vec::new(),
                            method_calls: Vec::new(),
                            panic_sites: Vec::new(),
                            end_line: line,
                            ret_guard: std::mem::take(&mut pending_ret_guard),
                            lock_sites: Vec::new(),
                            blocking_sites: Vec::new(),
                            params: std::mem::take(&mut pending_params),
                            rebound: BTreeSet::new(),
                            binds: Vec::new(),
                            sinks: Vec::new(),
                        });
                        fn_stack.push(out.fns.len() - 1);
                        ScopeKind::Fn
                    }
                    None => ScopeKind::Other,
                };
                match pending_match.take() {
                    Some((open, scrut)) if open == i => match_stack.push((depth, scrut)),
                    // A stale entry (its `{` was never reached at the
                    // recorded index) is dropped.
                    _ => {}
                }
                scopes.push(Scope { kind, open_depth: depth });
                depth += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                while match_stack.last().is_some_and(|(d, _)| *d == depth) {
                    match_stack.pop();
                }
                while scopes.last().is_some_and(|s| s.open_depth == depth) {
                    match scopes.pop().map(|s| s.kind) {
                        Some(ScopeKind::Mod) => {
                            mod_path.pop();
                        }
                        Some(ScopeKind::Impl) => {
                            impl_ctx.pop();
                        }
                        Some(ScopeKind::Fn) => {
                            if let Some(fi) = fn_stack.pop() {
                                out.fns[fi].end_line = t.line;
                            }
                        }
                        _ => {}
                    }
                }
            }
            Tok::Punct(';') => {
                // A `;` before any body means the pending item was
                // braceless (trait method decl, `mod x;`).
                pending = None;
                pending_ret_guard = false;
                pending_params.clear();
            }
            Tok::Ident(name) => {
                let in_sig = pending.is_some();
                if name.ends_with("Guard") && matches!(pending, Some(Pending::Fn { .. })) {
                    pending_ret_guard = true;
                }
                match name.as_str() {
                    "use" if pending.is_none() => {
                        i = parse_use(&toks, i + 1, &mut out.uses);
                        continue;
                    }
                    "mod" if pending.is_none() && paren_depth == 0 => {
                        if let Some(m) = ident(i + 1) {
                            if punct(i + 2, '{') {
                                pending = Some(Pending::Mod(m.to_string()));
                            }
                            i += 2;
                            continue;
                        }
                    }
                    "impl" if pending.is_none() && paren_depth == 0 => {
                        if let Some((p, next)) = parse_impl_header(&toks, i + 1) {
                            pending = Some(p);
                            i = next;
                            continue;
                        }
                    }
                    "fn" if pending.is_none() => {
                        if let Some(fname) = ident(i + 1) {
                            let is_pub = pub_before(&toks, i);
                            pending =
                                Some(Pending::Fn { name: fname.to_string(), is_pub, line: t.line });
                            i += 2;
                            continue;
                        }
                    }
                    "struct" if pending.is_none() && ident(i + 1).is_some() => {
                        pending = Some(Pending::Struct);
                        i += 2;
                        continue;
                    }
                    // `static [mut] NAME: T` / `const NAME: T`.
                    "static" | "const" if pending.is_none() => {
                        let k = if ident(i + 1) == Some("mut") { i + 2 } else { i + 1 };
                        if let (Some(n), true) = (ident(k), punct(k + 1, ':')) {
                            declare(&mut out.decls, n.to_string(), k + 2, t.line, &impl_ctx);
                        }
                    }
                    _ => {}
                }
                // Signature parameter names: `name:` inside the open
                // paren list of a pending `fn` (generic bounds sit
                // outside the parens and never match).
                if paren_depth >= 1
                    && matches!(pending, Some(Pending::Fn { .. }))
                    && name != "self"
                    && !KEYWORDS.contains(&name.as_str())
                    && punct(i + 1, ':')
                {
                    pending_params.push(name.clone());
                    declare(&mut out.decls, name.clone(), i + 2, t.line, &impl_ctx);
                }
                // Struct fields: `name:` at the top level of a struct body,
                // after `{`, `,`, a visibility or an attribute.
                if let Some(sc) = scopes.last() {
                    if matches!(sc.kind, ScopeKind::Struct)
                        && sc.open_depth + 1 == depth
                        && punct(i + 1, ':')
                        && (matches!(toks[i - 1].tok, Tok::Punct('{' | ',' | ')' | ']'))
                            || ident(i - 1) == Some("pub"))
                    {
                        declare(&mut out.decls, format!(".{name}"), i + 2, t.line, &impl_ctx);
                    }
                }
                // Body-level extraction: calls, macros, iteration sites.
                if !in_sig && !fn_stack.is_empty() && !KEYWORDS.contains(&name.as_str()) {
                    let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                    let after = skip_turbofish(&toks, i + 1);
                    let is_method = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
                    if punct(after, '(') {
                        if is_method {
                            record_method_call(&toks, i, name, t.line, &mut out.fns[fi]);
                        } else {
                            let segments = path_back(&toks, i);
                            let head = i - 2 * (segments.len() - 1);
                            let call = Call {
                                segments,
                                line: t.line,
                                args: call_args(&toks, after),
                                bound: let_bound_before(&toks, head),
                                recv: None,
                                field_recv: false,
                            };
                            classify_path_call(&call, &mut out.fns[fi]);
                            out.fns[fi].calls.push(call);
                        }
                    } else if punct(i + 1, '!')
                        && (punct(i + 2, '(') || punct(i + 2, '[') || punct(i + 2, '{'))
                    {
                        if PANIC_MACROS.contains(&name.as_str()) {
                            out.fns[fi]
                                .panic_sites
                                .push(PanicSite { kind: PanicKind::PanicMacro, line: t.line });
                        } else if ASSERT_MACROS.contains(&name.as_str()) {
                            out.fns[fi]
                                .panic_sites
                                .push(PanicSite { kind: PanicKind::Assert, line: t.line });
                        }
                        if name == "vec" {
                            out.fns[fi].sinks.push(SinkSite {
                                kind: SinkKind::AllocSize,
                                line: t.line,
                                operands: macro_operand_idents(&toks, i + 2),
                            });
                        }
                    }
                }
                if !in_sig && !fn_stack.is_empty() && name == "in" {
                    let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                    // The `for` pattern rebinds its names.
                    let lo = i.saturating_sub(8);
                    if let Some(f) = (lo..i).rev().find(|&j| ident(j) == Some("for")) {
                        out.fns[fi].rebound.extend(pattern_names(&toks[f + 1..i]));
                    }
                    // Dataflow: the loop pattern binds to the iterated
                    // expression's identifiers.
                    if let Some(bind) = for_in_bind(&toks, i) {
                        out.fns[fi].binds.push(bind);
                    }
                }
                if !in_sig && !fn_stack.is_empty() {
                    match name.as_str() {
                        // Narrowing cast sink (`x as u32`).
                        "as" => {
                            if let Some(site) = cast_site(&toks, i, file) {
                                let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                                out.fns[fi].sinks.push(site);
                            }
                        }
                        // `let name: T` declares `name`; any other pattern
                        // rebinds its names. Plus the `let pat = expr;`
                        // dataflow bind.
                        "let" => {
                            let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                            let k = if ident(i + 1) == Some("mut") { i + 2 } else { i + 1 };
                            match ident(k) {
                                Some(n) if punct(k + 1, ':') && !file.in_test_region(t.line) => {
                                    declare(
                                        &mut out.decls,
                                        n.to_string(),
                                        k + 2,
                                        t.line,
                                        &impl_ctx,
                                    );
                                }
                                _ => {
                                    let end = (i + 1..toks.len().min(i + 32))
                                        .find(|&j| punct(j, '=') || punct(j, ';'))
                                        .unwrap_or(i + 1);
                                    out.fns[fi].rebound.extend(pattern_names(&toks[i + 1..end]));
                                }
                            }
                            if let Some(bind) = let_bind(&toks, i) {
                                out.fns[fi].binds.push(bind);
                            }
                        }
                        // `match expr {`: remember the scrutinee; each
                        // arm's `=>` records a bind against it.
                        "match" => {
                            let mut scrut = Vec::new();
                            let mut k = i + 1;
                            while k < toks.len() && k < i + 24 {
                                match &toks[k].tok {
                                    Tok::Punct('{') => {
                                        if !scrut.is_empty() {
                                            pending_match = Some((k, scrut));
                                        }
                                        break;
                                    }
                                    Tok::Punct(';') => break,
                                    Tok::Ident(s) if taint_ident(s) => scrut.push(s.clone()),
                                    _ => {}
                                }
                                k += 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
            Tok::Punct('[') if pending.is_none() && !fn_stack.is_empty() => {
                // Indexing: `[` directly after a value token. Attributes
                // (`#[..]`) and literals (`= [..]`, `&[..]`, `vec![..]`)
                // have a non-value token before and are skipped.
                if i > 0
                    && matches!(
                        toks[i - 1].tok,
                        Tok::Ident(_) | Tok::Num(_) | Tok::Punct(')') | Tok::Punct(']')
                    )
                {
                    // Exclude `ident[` where ident is a keyword-ish token
                    // (e.g. `return [..]`).
                    let prev_kw =
                        matches!(&toks[i - 1].tok, Tok::Ident(s) if KEYWORDS.contains(&s.as_str()));
                    if !prev_kw {
                        let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                        out.fns[fi]
                            .panic_sites
                            .push(PanicSite { kind: PanicKind::Index, line: t.line });
                        out.fns[fi].sinks.push(SinkSite {
                            kind: SinkKind::Index,
                            line: t.line,
                            operands: bracket_operand_idents(&toks, i),
                        });
                    }
                }
            }
            Tok::Punct(op @ ('/' | '%')) if pending.is_none() && !fn_stack.is_empty() => {
                let _ = op;
                if let Some(site) = int_div_site(&toks, i, file) {
                    let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                    out.fns[fi].panic_sites.push(site);
                }
            }
            Tok::Punct('+' | '*' | '-') if pending.is_none() && !fn_stack.is_empty() => {
                if let Some(site) = arith_site(&toks, i, file) {
                    let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                    out.fns[fi].sinks.push(site);
                }
            }
            Tok::Punct('=') if pending.is_none() && !fn_stack.is_empty() && punct(i + 1, '>') => {
                // `match`-arm arrow: the arm pattern rebinds its names, and
                // binds against the scrutinee of the innermost open match
                // (arms sit one brace level inside it).
                let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                let bound = match_arm_pattern(&toks, i);
                out.fns[fi].rebound.extend(bound.iter().cloned());
                if let Some((d, scrut)) = match_stack.last() {
                    if *d + 1 == depth && !bound.is_empty() {
                        out.fns[fi].binds.push(TaintBind {
                            bound,
                            rhs: scrut.clone(),
                            line: t.line,
                        });
                    }
                }
            }
            // A closure's parameter list: `|` where no value precedes it
            // (a value before it makes it a bit-or, or the list's end).
            Tok::Punct('|') if pending.is_none() && !fn_stack.is_empty() => {
                let opens = i == 0
                    || match &toks[i - 1].tok {
                        Tok::Ident(s) => KEYWORDS.contains(&s.as_str()),
                        Tok::Punct(c) => !matches!(c, ')' | ']' | '|'),
                        _ => false,
                    };
                if opens {
                    let fi = *fn_stack.last().expect("fn_stack checked non-empty");
                    let end = (i + 1..toks.len().min(i + 24)).find(|&j| punct(j, '|'));
                    if let Some(end) = end {
                        out.fns[fi].rebound.extend(pattern_names(&toks[i + 1..end]));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Unterminated bodies (truncated input): extend to the last line.
    let last_line = file.masked_lines.len().saturating_sub(1);
    for fi in fn_stack {
        out.fns[fi].end_line = out.fns[fi].end_line.max(last_line);
    }

    // Classify lock and socket methods by their receiver's declared type,
    // which may be declared later in the file than the call; then sort.
    let mut fns = std::mem::take(&mut out.fns);
    for f in &mut fns {
        for c in &f.method_calls {
            let Some(recv) = &c.recv else { continue };
            let declared = |ty: &str| out.heads(recv, c.field_recv).is_some_and(|h| h.contains(ty));
            let lock = |kind| LockSite {
                binding: recv.clone(),
                kind,
                line: c.line,
                guard: c.bound.clone(),
            };
            match c.segments[0].as_str() {
                "lock" if declared("Mutex") => f.lock_sites.push(lock(LockKind::MutexLock)),
                "read" if declared("RwLock") => f.lock_sites.push(lock(LockKind::RwRead)),
                "write" if declared("RwLock") => f.lock_sites.push(lock(LockKind::RwWrite)),
                op @ ("read" | "write") if declared("TcpStream") => {
                    f.blocking_sites.push(BlockingSite {
                        op: op.to_string(),
                        line: c.line,
                        condvar_wait: false,
                    });
                }
                op @ ("wait" | "wait_timeout" | "wait_while" | "wait_timeout_while")
                    if declared("Condvar") =>
                {
                    f.blocking_sites.push(BlockingSite {
                        op: format!("Condvar::{op}"),
                        line: c.line,
                        condvar_wait: true,
                    });
                }
                _ => {}
            }
        }
        f.lock_sites.sort_by_key(|s| s.line);
        f.blocking_sites.sort_by(|a, b| (a.line, &a.op).cmp(&(b.line, &b.op)));
        f.sinks.sort_by(|a, b| (a.line, a.kind).cmp(&(b.line, b.kind)));
        f.binds.sort_by_key(|b| b.line);
    }
    out.fns = fns;
    out
}

/// Record blocking and allocation-size consequences of a free or path call.
fn classify_path_call(call: &Call, item: &mut FnItem) {
    let segs = &call.segments;
    let tail2 = |a: &str, b: &str| {
        segs.len() >= 2 && segs[segs.len() - 2] == a && segs[segs.len() - 1] == b
    };
    if tail2("thread", "sleep") {
        item.blocking_sites.push(BlockingSite {
            op: "thread::sleep".to_string(),
            line: call.line,
            condvar_wait: false,
        });
    } else if tail2("TcpStream", "connect") {
        item.blocking_sites.push(BlockingSite {
            op: "TcpStream::connect".to_string(),
            line: call.line,
            condvar_wait: false,
        });
    }
    if segs.last().is_some_and(|s| s == "with_capacity") {
        item.sinks.push(SinkSite {
            kind: SinkKind::AllocSize,
            line: call.line,
            operands: call.args.iter().filter(|a| taint_ident(a)).cloned().collect(),
        });
    }
}

/// Record a `.name(` method call plus, when applicable, its panic,
/// blocking or allocation-size consequences (lock and socket methods are
/// classified once the whole file is parsed).
fn record_method_call(toks: &[Token], i: usize, name: &str, line: usize, item: &mut FnItem) {
    let after = skip_turbofish(toks, i + 1);
    let args = call_args(toks, after);
    let recv = match toks.get(i.wrapping_sub(2)).map(|t| &t.tok) {
        Some(Tok::Ident(r)) if i >= 2 => Some(r.clone()),
        _ => None,
    };
    // `x.recv.f(..)`, but not the range `0..recv.f(..)`.
    let dot = |j: usize| matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('.')));
    let field_recv = i >= 3 && dot(i - 3) && !(i >= 4 && dot(i - 4));
    match name {
        "unwrap" => item.panic_sites.push(PanicSite { kind: PanicKind::Unwrap, line }),
        "expect" => item.panic_sites.push(PanicSite { kind: PanicKind::Expect, line }),
        _ => {}
    }
    match name {
        m if BLOCKING_METHODS.contains(&m) => {
            item.blocking_sites.push(BlockingSite {
                op: name.to_string(),
                line,
                condvar_wait: false,
            });
        }
        "join" => {
            // `handle.join()` (thread join) blocks; `parts.join(", ")`
            // (slice join) does not — told apart by the empty arg list.
            if matches!(toks.get(after).map(|t| &t.tok), Some(Tok::Punct('(')))
                && matches!(toks.get(after + 1).map(|t| &t.tok), Some(Tok::Punct(')')))
            {
                item.blocking_sites.push(BlockingSite {
                    op: "join".to_string(),
                    line,
                    condvar_wait: false,
                });
            }
        }
        "reserve" | "reserve_exact" | "with_capacity" => {
            item.sinks.push(SinkSite {
                kind: SinkKind::AllocSize,
                line,
                operands: args.iter().filter(|a| taint_ident(a)).cloned().collect(),
            });
        }
        _ => {}
    }
    item.method_calls.push(Call {
        segments: vec![name.to_string()],
        line,
        args,
        bound: let_bound_before(toks, i),
        recv,
        field_recv,
    });
}

/// Integer-division panic site at token `i` (a `/` or `%`), or `None`
/// when the expression is float arithmetic or a non-zero literal divisor.
fn int_div_site(toks: &[Token], i: usize, file: &MaskedFile) -> Option<PanicSite> {
    // The operator must follow a value token (rules out `&/`-style noise,
    // paths, and the lexer never leaves comment slashes in masked text).
    if i == 0
        || !matches!(
            toks[i - 1].tok,
            Tok::Ident(_) | Tok::Num(_) | Tok::Punct(')') | Tok::Punct(']')
        )
    {
        return None;
    }
    if let Tok::Num(n) = &toks[i - 1].tok {
        if is_float_literal(n) {
            return None;
        }
    }
    // Skip the `=` of a compound `/=` / `%=`.
    let mut j = i + 1;
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('='))) {
        j += 1;
    }
    match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Num(n)) => {
            if is_float_literal(n) || literal_value_nonzero(n) {
                return None;
            }
            Some(PanicSite { kind: PanicKind::IntDiv, line: toks[i].line })
        }
        Some(_) => {
            // Non-literal divisor: float division never panics, so look
            // for float evidence (`f64`/`f32` idents, float literals) in a
            // bounded token window around the operator — this sees through
            // parentheses (`f64::from(h) / (p + 1) as f64`) that the
            // line-level operand check below cannot cross.
            if float_in_window(toks, i) {
                return None;
            }
            let line_text = file.masked_lines.get(toks[i].line).map(String::as_str).unwrap_or("");
            let col = toks[i].col.min(line_text.len());
            let before = rules::operand_before(line_text, col);
            let after = rules::operand_after(line_text, (col + 1).min(line_text.len()));
            if rules::looks_float(&before) || rules::looks_float(&after) {
                None
            } else {
                Some(PanicSite { kind: PanicKind::IntDiv, line: toks[i].line })
            }
        }
        None => None,
    }
}

/// Float evidence (an `f64`/`f32` ident or a float literal) within a few
/// tokens on either side of the operator at `i`, bounded by statement
/// punctuation.
fn float_in_window(toks: &[Token], i: usize) -> bool {
    let is_float_tok = |t: &Tok| match t {
        Tok::Ident(s) => s == "f64" || s == "f32",
        Tok::Num(n) => is_float_literal(n),
        _ => false,
    };
    let stop = |t: &Tok| {
        matches!(t, Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(','))
    };
    for j in (i.saturating_sub(8)..i).rev() {
        if stop(&toks[j].tok) {
            break;
        }
        if is_float_tok(&toks[j].tok) {
            return true;
        }
    }
    for t in toks.iter().skip(i + 1).take(8) {
        if stop(&t.tok) {
            break;
        }
        if is_float_tok(&t.tok) {
            return true;
        }
    }
    false
}

fn is_float_literal(n: &str) -> bool {
    n.contains('.') || n.ends_with("f32") || n.ends_with("f64")
}

/// Whether an integer literal is provably non-zero (`0`, `0x0`, `0_0`
/// style zeros return false).
fn literal_value_nonzero(n: &str) -> bool {
    let digits: String = n.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    let body = digits
        .trim_start_matches("0x")
        .trim_start_matches("0o")
        .trim_start_matches("0b")
        .replace('_', "");
    body.chars().take_while(|c| c.is_ascii_hexdigit()).any(|c| c != '0')
}

/// Whether an identifier can name a tainted value. Locals and parameters
/// are lowercase/snake_case, so uppercase-leading identifiers (types,
/// enum variants, consts), keywords and primitive-type tokens never carry
/// taint; filtering them here keeps binds and sink operands from
/// cross-linking through type annotations and paths.
pub fn taint_ident(s: &str) -> bool {
    const NEVER: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        "f32", "f64", "bool", "str", "char", "self", "_",
    ];
    s.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && !KEYWORDS.contains(&s)
        && !NEVER.contains(&s)
}

/// Narrowing `as` cast sink at the `as` keyword token `i`, or `None` in
/// float contexts: float→int casts saturate rather than wrap, the same
/// exclusion discipline as [`int_div_site`]. (`use x as y` imports are
/// consumed by `parse_use` and never reach this.)
fn cast_site(toks: &[Token], i: usize, file: &MaskedFile) -> Option<SinkSite> {
    const INT_TYPES: &[&str] =
        &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];
    match toks.get(i + 1).map(|t| &t.tok) {
        Some(Tok::Ident(target)) if INT_TYPES.contains(&target.as_str()) => {}
        _ => return None,
    }
    // The cast must follow a value token.
    if i == 0
        || !matches!(
            toks[i - 1].tok,
            Tok::Ident(_) | Tok::Num(_) | Tok::Punct(')') | Tok::Punct(']')
        )
    {
        return None;
    }
    if float_in_window(toks, i) {
        return None;
    }
    let line_text = file.masked_lines.get(toks[i].line).map(String::as_str).unwrap_or("");
    let col = toks[i].col.min(line_text.len());
    if rules::looks_float(&rules::operand_before(line_text, col)) {
        return None;
    }
    Some(SinkSite {
        kind: SinkKind::Cast,
        line: toks[i].line,
        operands: operand_idents_back(toks, i),
    })
}

/// Raw integer `+`/`*`/`-` sink at token `i`, or `None` for float
/// arithmetic, unary operators and `->` arrows. Checked/saturating/
/// wrapping forms are method calls and never produce a raw operator.
fn arith_site(toks: &[Token], i: usize, file: &MaskedFile) -> Option<SinkSite> {
    // Binary use only: a value token must precede.
    if i == 0
        || !matches!(
            toks[i - 1].tok,
            Tok::Ident(_) | Tok::Num(_) | Tok::Punct(')') | Tok::Punct(']')
        )
    {
        return None;
    }
    if let Tok::Ident(s) = &toks[i - 1].tok {
        if KEYWORDS.contains(&s.as_str()) {
            return None;
        }
    }
    if let Tok::Num(n) = &toks[i - 1].tok {
        if is_float_literal(n) {
            return None;
        }
    }
    // `->` return arrow (closures in bodies).
    if matches!(toks[i].tok, Tok::Punct('-'))
        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('>')))
    {
        return None;
    }
    // Skip the `=` of a compound `+=`/`-=`/`*=`.
    let mut j = i + 1;
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('='))) {
        j += 1;
    }
    // The right side must start a value.
    match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Num(n)) if is_float_literal(n) => return None,
        Some(Tok::Ident(_) | Tok::Num(_) | Tok::Punct('(') | Tok::Punct('&') | Tok::Punct('*')) => {
        }
        _ => return None,
    }
    if float_in_window(toks, i) {
        return None;
    }
    let line_text = file.masked_lines.get(toks[i].line).map(String::as_str).unwrap_or("");
    let col = toks[i].col.min(line_text.len());
    let before = rules::operand_before(line_text, col);
    let after = rules::operand_after(line_text, (col + 1).min(line_text.len()));
    if rules::looks_float(&before) || rules::looks_float(&after) {
        return None;
    }
    let mut operands = operand_idents_back(toks, i);
    operands.extend(operand_idents_fwd(toks, i));
    Some(SinkSite { kind: SinkKind::Arith, line: toks[i].line, operands })
}

/// Taintable identifiers in a bounded window before token `i`, stopped at
/// statement punctuation — the left operand(s) of a cast or operator.
fn operand_idents_back(toks: &[Token], i: usize) -> Vec<String> {
    let mut out = Vec::new();
    for j in (i.saturating_sub(8)..i).rev() {
        match &toks[j].tok {
            Tok::Punct(';' | '{' | '}' | ',' | '=') => break,
            Tok::Ident(s) if taint_ident(s) => out.push(s.clone()),
            _ => {}
        }
    }
    out
}

/// Taintable identifiers in a bounded window after token `i`, stopped at
/// statement punctuation — the right operand(s) of an operator.
fn operand_idents_fwd(toks: &[Token], i: usize) -> Vec<String> {
    let mut out = Vec::new();
    for t in toks.iter().skip(i + 1).take(8) {
        match &t.tok {
            Tok::Punct(';' | '{' | '}' | ',' | '=') => break,
            Tok::Ident(s) if taint_ident(s) => out.push(s.clone()),
            _ => {}
        }
    }
    out
}

/// Taintable identifiers inside an index expression `[ .. ]` (bounded
/// scan from the `[` at `open`). The indexed base is deliberately
/// excluded: a tainted container indexed by a trusted loop variable is
/// not an untrusted-index site.
fn bracket_operand_idents(toks: &[Token], open: usize) -> Vec<String> {
    let mut depth = 0i64;
    let mut out = Vec::new();
    for t in toks.iter().skip(open).take(24) {
        match &t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(s) if taint_ident(s) => out.push(s.clone()),
            _ => {}
        }
    }
    out
}

/// Taintable identifiers inside a `vec![..]` invocation (bounded scan
/// from the opening delimiter at `open`). For the repeat form
/// `vec![x; n]` only the length expression after the `;` counts.
fn macro_operand_idents(toks: &[Token], open: usize) -> Vec<String> {
    let (open_c, close_c) = match toks.get(open).map(|t| &t.tok) {
        Some(Tok::Punct('(')) => ('(', ')'),
        Some(Tok::Punct('[')) => ('[', ']'),
        Some(Tok::Punct('{')) => ('{', '}'),
        _ => return Vec::new(),
    };
    let mut depth = 0i64;
    let mut all = Vec::new();
    let mut after_semi: Option<usize> = None;
    for t in toks.iter().skip(open).take(32) {
        match &t.tok {
            Tok::Punct(c) if *c == open_c => depth += 1,
            Tok::Punct(c) if *c == close_c => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct(';') if depth == 1 => after_semi = Some(all.len()),
            Tok::Ident(s) if taint_ident(s) => all.push(s.clone()),
            _ => {}
        }
    }
    match after_semi {
        Some(k) => all.split_off(k),
        None => all,
    }
}

/// Dataflow bind for a `let pat = expr` statement at the `let` token.
/// The right-hand scan stops at `{` so `if let`/`let .. else` bodies are
/// never swallowed into the initializer.
fn let_bind(toks: &[Token], let_idx: usize) -> Option<TaintBind> {
    let mut bound = Vec::new();
    let mut eq = None;
    let mut j = let_idx + 1;
    while j < toks.len() && j < let_idx + 16 {
        match &toks[j].tok {
            Tok::Punct('=') => {
                // `==`/`=>` never follow a let pattern; a lone `=` starts
                // the initializer.
                eq = Some(j);
                break;
            }
            Tok::Punct(';' | '{') => break,
            Tok::Ident(s) if taint_ident(s) => bound.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    let eq = eq?;
    if bound.is_empty() {
        return None;
    }
    let mut rhs = Vec::new();
    for t in toks.iter().skip(eq + 1).take(40) {
        match &t.tok {
            Tok::Punct(';' | '{') => break,
            Tok::Ident(s) if taint_ident(s) => rhs.push(s.clone()),
            _ => {}
        }
    }
    if rhs.is_empty() {
        return None;
    }
    Some(TaintBind { bound, rhs, line: toks[let_idx].line })
}

/// Dataflow bind for `for pat in expr {` at the `in` token: the loop
/// pattern binds to the iterated expression's identifiers.
fn for_in_bind(toks: &[Token], in_idx: usize) -> Option<TaintBind> {
    let lo = in_idx.saturating_sub(8);
    let for_at =
        (lo..in_idx).rev().find(|&j| matches!(&toks[j].tok, Tok::Ident(s) if s == "for"))?;
    let bound: Vec<String> = toks[for_at + 1..in_idx]
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) if taint_ident(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    if bound.is_empty() {
        return None;
    }
    let mut rhs = Vec::new();
    for t in toks.iter().skip(in_idx + 1).take(16) {
        match &t.tok {
            Tok::Punct('{' | ';') => break,
            Tok::Ident(s) if taint_ident(s) => rhs.push(s.clone()),
            _ => {}
        }
    }
    if rhs.is_empty() {
        return None;
    }
    Some(TaintBind { bound, rhs, line: toks[in_idx].line })
}

/// The taintable identifiers of a match-arm pattern, scanning backward
/// from its `=>` arrow. Struct patterns (`Path { a, b }`) are entered;
/// a previous arm's block (`=> { .. }`, told apart by the token before
/// its `{`) ends the pattern, discarding anything collected inside it.
fn match_arm_pattern(toks: &[Token], arrow: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut brace = 0i64;
    let mut paren = 0i64;
    let mut checkpoint = 0usize;
    let lo = arrow.saturating_sub(24);
    let mut j = arrow;
    while j > lo {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct('}') => {
                if brace == 0 {
                    checkpoint = out.len();
                }
                brace += 1;
            }
            Tok::Punct('{') => {
                if brace == 0 {
                    // The match's own opening brace.
                    break;
                }
                brace -= 1;
                if brace == 0 {
                    let struct_pat =
                        j > 0 && matches!(toks[j - 1].tok, Tok::Ident(_) | Tok::ColonColon);
                    if !struct_pat {
                        out.truncate(checkpoint);
                        break;
                    }
                }
            }
            Tok::Punct(')') => paren += 1,
            Tok::Punct('(') => {
                if paren == 0 {
                    break;
                }
                paren -= 1;
            }
            Tok::Punct(',' | ';') if brace == 0 && paren == 0 => break,
            Tok::Ident(s) if taint_ident(s) => out.push(s.clone()),
            _ => {}
        }
    }
    out
}

/// Skip a turbofish (`::<..>`) after a call/method name; returns the index
/// of the token expected to be `(`.
fn skip_turbofish(toks: &[Token], mut i: usize) -> usize {
    if !matches!(toks.get(i).map(|t| &t.tok), Some(Tok::ColonColon)) {
        return i;
    }
    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        return i;
    }
    i += 1; // at '<'
    let mut angle = 0i64;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                // `->` inside a fn-type parameter: the '-' precedes.
                let arrow = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('-'));
                if !arrow {
                    angle -= 1;
                    if angle == 0 {
                        return i + 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Walk a `::`-separated path backwards from the final segment at `i`.
fn path_back(toks: &[Token], i: usize) -> Vec<String> {
    let mut segs = vec![match &toks[i].tok {
        Tok::Ident(s) => s.clone(),
        _ => String::new(),
    }];
    let mut j = i;
    while j >= 2
        && matches!(toks[j - 1].tok, Tok::ColonColon)
        && matches!(toks[j - 2].tok, Tok::Ident(_))
    {
        if let Tok::Ident(s) = &toks[j - 2].tok {
            segs.insert(0, s.clone());
        }
        j -= 2;
    }
    segs
}

/// Whether the tokens just before a `fn` keyword include an unrestricted
/// `pub`. The scan stops at statement/item boundaries.
fn pub_before(toks: &[Token], fn_idx: usize) -> bool {
    let lo = fn_idx.saturating_sub(6);
    for j in (lo..fn_idx).rev() {
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(',') => return false,
            Tok::Ident(s) if s == "pub" => {
                // `pub(crate)` / `pub(super)` are not public API.
                return !matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
            }
            _ => {}
        }
    }
    false
}

/// Parse an `impl` header from just after the keyword; returns the pending
/// scope and the index of the opening `{` (where the caller resumes).
fn parse_impl_header(toks: &[Token], mut i: usize) -> Option<(Pending, usize)> {
    // Skip `impl<..>` generics, collecting the parameter names.
    let mut generics: Vec<&str> = Vec::new();
    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        let mut angle = 0i64;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Ident(s) if angle == 1 && matches!(toks[i - 1].tok, Tok::Punct('<' | ',')) => {
                    generics.push(s)
                }
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => {
                    let arrow = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('-'));
                    if !arrow {
                        angle -= 1;
                        if angle == 0 {
                            i += 1;
                            break;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Collect identifiers up to the body `{`, each path collapsed to its
    // last segment; `for` splits trait vs type.
    let mut idents: Vec<&str> = Vec::new();
    let mut for_at: Option<usize> = None;
    let mut angle = 0i64;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') if angle == 0 => {
                let type_name = match for_at {
                    Some(f) => idents.get(f + 1),
                    None => idents.first(),
                };
                let blanket = type_name.is_some_and(|ty| generics.contains(ty));
                let ty = if blanket { Some(&"_") } else { type_name };
                return ty.map(|ty| (Pending::Impl(ty.to_string()), i));
            }
            Tok::Punct(';') => return None, // `impl Trait for Type;`-style oddity
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                let arrow = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('-'));
                if !arrow {
                    angle -= 1;
                }
            }
            Tok::Ident(s) if s == "for" && angle == 0 => {
                idents.push("for");
                for_at = Some(idents.len() - 1);
            }
            Tok::Ident(s) if angle == 0 => match idents.last_mut() {
                Some(last) if matches!(toks[i - 1].tok, Tok::ColonColon) => *last = s,
                _ if s == "mut" || s == "dyn" => {}
                _ => idents.push(s),
            },
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse a `use` tree starting after the `use` keyword; appends flattened
/// `(bound name, path)` leaves and returns the index just past the `;`.
fn parse_use(toks: &[Token], start: usize, out: &mut Vec<(String, Vec<String>)>) -> usize {
    fn tree(
        toks: &[Token],
        mut i: usize,
        prefix: &[String],
        out: &mut Vec<(String, Vec<String>)>,
    ) -> usize {
        let mut path = prefix.to_vec();
        loop {
            match toks.get(i).map(|t| &t.tok) {
                Some(Tok::Ident(s)) if s == "as" => {
                    // Alias: bind under the new name.
                    if let Some(Tok::Ident(alias)) = toks.get(i + 1).map(|t| &t.tok) {
                        out.push((alias.clone(), path.clone()));
                        return i + 2;
                    }
                    return i + 1;
                }
                Some(Tok::Ident(s)) => {
                    if s == "self" {
                        if let Some(last) = path.last().cloned() {
                            out.push((last, path.clone()));
                        }
                    } else {
                        path.push(s.clone());
                    }
                    i += 1;
                }
                Some(Tok::ColonColon) => {
                    i += 1;
                    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('{'))) {
                        // Group: recurse per comma-separated subtree.
                        i += 1;
                        loop {
                            i = tree(toks, i, &path, out);
                            match toks.get(i).map(|t| &t.tok) {
                                Some(Tok::Punct(',')) => i += 1,
                                Some(Tok::Punct('}')) => return i + 1,
                                _ => return i,
                            }
                        }
                    }
                }
                Some(Tok::Punct('*')) => return i + 1, // glob: nothing bound
                _ => {
                    // Leaf ends (`,`, `}`, `;`): bind the final segment.
                    if path.len() > prefix.len() {
                        if let Some(last) = path.last().cloned() {
                            out.push((last, path.clone()));
                        }
                    }
                    return i;
                }
            }
        }
    }
    let mut i = tree(toks, start, &[], out);
    while i < toks.len() && !matches!(toks[i].tok, Tok::Punct(';')) {
        i += 1;
    }
    i + 1
}

/// The head of the type starting at token `i` (see [`ParsedFile::decls`]):
/// `&`, `mut` and `Arc`/`Rc`/`Box` wrappers are stripped and the last
/// path segment kept. `impl_type` replaces `Self`.
fn type_head(toks: &[Token], mut i: usize, impl_type: Option<&str>) -> String {
    const WRAPPERS: &[&str] = &["Arc", "Rc", "Box"];
    loop {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct('&')) => i += 1,
            Some(Tok::Ident(s)) if s == "mut" => i += 1,
            Some(Tok::Ident(s)) if s == "dyn" || s == "impl" => return "?".to_string(),
            Some(Tok::Ident(first)) => {
                let mut j = i;
                while matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::ColonColon))
                    && matches!(toks.get(j + 2).map(|t| &t.tok), Some(Tok::Ident(_)))
                {
                    j += 2;
                }
                let Tok::Ident(head) = &toks[j].tok else { unreachable!("path ends on an ident") };
                if WRAPPERS.contains(&head.as_str())
                    && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('<')))
                {
                    i = j + 2;
                    continue;
                }
                return match (first.as_str(), j == i) {
                    // `Self::Item` and other associated types.
                    ("Self", false) => "?".to_string(),
                    ("Self", true) => impl_type.unwrap_or("?").to_string(),
                    _ => head.clone(),
                };
            }
            Some(Tok::Punct(c)) => return c.to_string(),
            _ => return "?".to_string(),
        }
    }
}

/// The names a pattern binds: its lowercase identifiers, keywords and
/// primitive types excluded (over-inclusive, which only makes more
/// receivers resolve by name).
fn pattern_names(toks: &[Token]) -> impl Iterator<Item = String> + '_ {
    toks.iter().filter_map(|t| match &t.tok {
        Tok::Ident(s) if taint_ident(s) => Some(s.clone()),
        _ => None,
    })
}

/// Identifiers inside a call's parentheses (bounded scan from the `(` at
/// `open`), for mapping guard-returning calls to their lock argument.
fn call_args(toks: &[Token], open: usize) -> Vec<String> {
    let mut args = Vec::new();
    if !matches!(toks.get(open).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return args;
    }
    let mut depth = 0i64;
    for t in toks.iter().skip(open).take(40) {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(s) if !KEYWORDS.contains(&s.as_str()) => args.push(s.clone()),
            _ => {}
        }
    }
    args
}

/// The name a call result is let-bound to — `let [mut] g = ..call..`,
/// `if let Some(w) = ..call..` — scanning a bounded window back from the
/// call head. Returns the innermost pattern identifier.
fn let_bound_before(toks: &[Token], head: usize) -> Option<String> {
    let lo = head.saturating_sub(12);
    for j in (lo..head).rev() {
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return None,
            Tok::Ident(s) if s == "let" => {
                let mut k = j + 1;
                if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "mut") {
                    k += 1;
                }
                return match toks.get(k).map(|t| &t.tok) {
                    Some(Tok::Ident(name)) => {
                        // `Some(w)` / `Ok(g)` patterns: the inner name.
                        if matches!(toks.get(k + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                            match toks.get(k + 2).map(|t| &t.tok) {
                                Some(Tok::Ident(inner)) => Some(inner.clone()),
                                _ => None,
                            }
                        } else {
                            Some(name.clone())
                        }
                    }
                    _ => None,
                };
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&scan(src))
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("no fn `{name}`"))
    }

    #[test]
    fn extracts_free_and_nested_fns() {
        let p = parse_src("fn outer() { fn inner() { helper(); } inner(); }\nfn helper() {}\n");
        assert_eq!(p.fns.len(), 3);
        let outer = fn_named(&p, "outer");
        // `inner()` call is attributed to outer; `helper()` to inner.
        assert!(outer.calls.iter().any(|c| c.segments == ["inner"]));
        assert!(fn_named(&p, "inner").calls.iter().any(|c| c.segments == ["helper"]));
    }

    #[test]
    fn methods_carry_impl_type() {
        let src = "struct S;\nimpl S { pub fn m(&self) {} }\nimpl Clone for S { fn clone(&self) -> S { S } }\n\
                   impl std::fmt::Debug for core::ops::Range<S> { fn fmt(&self) {} }\n\
                   impl<R: Rng + ?Sized> Rng for &mut R { fn next_u64(&mut self) {} }\n";
        let p = parse_src(src);
        let m = fn_named(&p, "m");
        assert_eq!(m.impl_type.as_deref(), Some("S"));
        assert!(m.is_pub);
        assert_eq!(fn_named(&p, "clone").impl_type.as_deref(), Some("S"));
        // A path names its last segment; a blanket impl is `_`.
        assert_eq!(fn_named(&p, "fmt").impl_type.as_deref(), Some("Range"));
        assert_eq!(fn_named(&p, "next_u64").impl_type.as_deref(), Some("_"));
    }

    #[test]
    fn generic_impl_headers_resolve_type() {
        let p = parse_src("impl<'a, T: Send> Foo<'a, T> { fn g(&self) {} }\n");
        assert_eq!(fn_named(&p, "g").impl_type.as_deref(), Some("Foo"));
    }

    #[test]
    fn inline_modules_stack() {
        let p = parse_src("mod a { mod b { fn deep() {} } fn mid() {} }\nfn top() {}\n");
        assert_eq!(fn_named(&p, "deep").module, vec!["a", "b"]);
        assert_eq!(fn_named(&p, "mid").module, vec!["a"]);
        assert!(fn_named(&p, "top").module.is_empty());
    }

    #[test]
    fn pub_restricted_is_not_pub() {
        let p = parse_src("pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\n");
        assert!(fn_named(&p, "a").is_pub);
        assert!(!fn_named(&p, "b").is_pub);
        assert!(!fn_named(&p, "c").is_pub);
    }

    #[test]
    fn calls_methods_and_macros_separate() {
        let src = "fn f() { free(); a::b::qual(); x.method(); mac!(inner()); }\n";
        let p = parse_src(src);
        let f = fn_named(&p, "f");
        assert!(f.calls.iter().any(|c| c.segments == ["free"]));
        assert!(f.calls.iter().any(|c| c.segments == ["a", "b", "qual"]));
        assert!(f.method_calls.iter().any(|c| c.segments == ["method"]));
        assert!(!f.calls.iter().any(|c| c.segments == ["mac"]));
        // Calls inside macro arguments still register (over-approximation).
        assert!(f.calls.iter().any(|c| c.segments == ["inner"]));
    }

    #[test]
    fn turbofish_calls_detected() {
        let p = parse_src("fn f() { s.parse::<usize>(); collect::<Vec<_>>(); }\n");
        let f = fn_named(&p, "f");
        assert!(f.method_calls.iter().any(|c| c.segments == ["parse"]));
        assert!(f.calls.iter().any(|c| c.segments == ["collect"]));
    }

    #[test]
    fn ne_operator_is_not_a_macro() {
        let p = parse_src("fn f(assert: usize, b: usize) -> bool { assert != b }\n");
        assert!(fn_named(&p, "f").panic_sites.is_empty());
    }

    #[test]
    fn panic_sites_unwrap_expect_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); assert!(c); }\n";
        let kinds: Vec<PanicKind> =
            fn_named(&parse_src(src), "f").panic_sites.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&PanicKind::Unwrap));
        assert!(kinds.contains(&PanicKind::Expect));
        assert!(kinds.contains(&PanicKind::PanicMacro));
        assert!(kinds.contains(&PanicKind::Assert));
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let p = parse_src("fn f() { x.unwrap_or(0); y.expect_err(\"no\"); }\n");
        assert!(fn_named(&p, "f").panic_sites.is_empty());
    }

    #[test]
    fn indexing_detected_but_not_attrs_or_literals() {
        let src = "fn f(v: &[f64]) -> f64 {\n    #[cfg(target_os = \"linux\")]\n    let a = [1, 2];\n    let b = &v[..2];\n    v[0] + a[1]\n}\n";
        let p = parse_src(src);
        let sites: Vec<&PanicSite> =
            fn_named(&p, "f").panic_sites.iter().filter(|s| s.kind == PanicKind::Index).collect();
        // `v[..2]`, `v[0]`, `a[1]` — but not `#[cfg..]` or `[1, 2]`.
        assert_eq!(sites.len(), 3, "{:?}", fn_named(&p, "f").panic_sites);
    }

    #[test]
    fn integer_division_flagged_float_and_literal_not() {
        let src = "fn f(n: usize, d: usize, x: f64) -> usize {\n    let a = n / d;\n    let b = n % d;\n    let c = n / 2;\n    let e = x / 3.0;\n    let g = x / n as f64;\n    a + b + c + e as usize + g as usize\n}\n";
        let sites: Vec<usize> = fn_named(&parse_src(src), "f")
            .panic_sites
            .iter()
            .filter(|s| s.kind == PanicKind::IntDiv)
            .map(|s| s.line)
            .collect();
        assert_eq!(sites, vec![1, 2], "only the non-literal integer divisions");
    }

    #[test]
    fn float_division_through_parens_not_flagged() {
        // The divisor is parenthesized but cast to f64: float division,
        // no panic site.
        let src = "fn f(hits: u32, pos: usize) -> f64 { f64::from(hits) / (pos + 1) as f64 }\n";
        let p = parse_src(src);
        assert!(fn_named(&p, "f").panic_sites.is_empty(), "{:?}", fn_named(&p, "f").panic_sites);
    }

    #[test]
    fn division_by_zero_literal_flagged() {
        let p = parse_src("fn f(n: usize) -> usize { n / 0 }\n");
        assert_eq!(fn_named(&p, "f").panic_sites.len(), 1);
    }

    #[test]
    fn test_region_fns_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib(); }\n}\n";
        let p = parse_src(src);
        assert!(!fn_named(&p, "lib").in_test);
        assert!(fn_named(&p, "t").in_test);
    }

    #[test]
    fn use_imports_flattened() {
        let src = "use a::b::C;\nuse x::{y, z as w, q::self};\nuse glob::*;\n";
        let p = parse_src(src);
        let find = |n: &str| p.uses.iter().find(|(b, _)| b == n).map(|(_, p)| p.clone());
        assert_eq!(find("C"), Some(vec!["a".into(), "b".into(), "C".into()]));
        assert_eq!(find("y"), Some(vec!["x".into(), "y".into()]));
        assert_eq!(find("w"), Some(vec!["x".into(), "z".into()]));
        assert_eq!(find("q"), Some(vec!["x".into(), "q".into()]));
    }

    #[test]
    fn impl_fn_in_signature_does_not_open_impl_scope() {
        let src = "pub fn rel() -> impl Fn(usize) -> bool { move |q| q > 0 }\nfn after() {}\n";
        let p = parse_src(src);
        assert_eq!(fn_named(&p, "after").impl_type, None);
        assert!(fn_named(&p, "rel").is_pub);
    }

    #[test]
    fn self_calls_keep_segment() {
        let p = parse_src("impl S { fn a(&self) { Self::b(); } fn b() {} }\n");
        assert!(fn_named(&p, "a").calls.iter().any(|c| c.segments == ["Self", "b"]));
    }

    #[test]
    fn shadowed_name_both_extracted() {
        // Two fns with the same name in different modules: both exist and
        // keep distinct module paths (resolution happens in callgraph).
        let src = "mod a { pub fn f() {} pub fn call() { f(); } }\nmod b { pub fn f() {} }\n";
        let p = parse_src(src);
        let fs: Vec<&FnItem> = p.fns.iter().filter(|f| f.name == "f").collect();
        assert_eq!(fs.len(), 2);
        assert_ne!(fs[0].module, fs[1].module);
    }

    #[test]
    fn decls_from_fields_statics_params_and_annotated_lets() {
        let src = "struct Q { state: Mutex<u32>, pub ready: Condvar, idx: std::sync::RwLock<u8>, w: Box<dyn Write> }\n\
                   static SINK: Mutex<Option<u8>> = Mutex::new(None);\n\
                   impl Q {\n\
                       fn f(&self, lock: &'a Mutex<u32>, shared: &Arc<Mutex<u32>>, v: &mut [u8], o: &Self, it: impl Iterator) {\n\
                           let m = Arc::new(Mutex::new(0u32));\n\
                           let mut n: uhscm_eval::BitCodes = make();\n\
                           let lit = Q { state: other, idx: x };\n\
                       }\n\
                   }\n\
                   #[cfg(test)]\nmod tests {\n    fn t(shared: Vec<u8>) {}\n}\n";
        let p = parse_src(src);
        let head = |name: &str, field: bool| -> Vec<&str> {
            p.heads(name, field).map(|h| h.iter().map(String::as_str).collect()).unwrap_or_default()
        };
        assert_eq!(head("state", true), ["Mutex"]);
        assert_eq!(head("ready", true), ["Condvar"]);
        assert_eq!(head("idx", true), ["RwLock"]);
        assert_eq!(head("w", true), ["?"]);
        assert_eq!(head("SINK", false), ["Mutex"]);
        assert_eq!(head("lock", false), ["Mutex"]);
        // Wrappers are stripped; test-region declarations are not recorded.
        assert_eq!(head("shared", false), ["Mutex"]);
        assert_eq!(head("v", false), ["["]);
        assert_eq!(head("o", false), ["Q"]);
        assert_eq!(head("it", false), ["?"]);
        assert_eq!(head("n", false), ["BitCodes"]);
        // Unannotated lets and struct-literal fields declare nothing.
        assert!(p.heads("m", false).is_none());
        assert!(p.heads("lit", false).is_none());
        assert!(p.heads("state", false).is_none());
        assert!(p.heads("other", true).is_none());
    }

    #[test]
    fn rebound_names_from_lets_patterns_and_closures() {
        let src = "fn f(a: A, b: B) {\n\
                       let x = a.g();\n\
                       let y: Y = a.h();\n\
                       if let Some(z) = b.k() { z.m(); }\n\
                       for (i, w) in items { w.m(); }\n\
                       match a { A::P(p) => p.m(), _ => {} }\n\
                       rows.iter().map(|r| r.m()).for_each(move |(s, t)| s.m());\n\
                       let q = a || b | c;\n\
                   }\n";
        let p = parse_src(src);
        let rebound: Vec<&str> = fn_named(&p, "f").rebound.iter().map(String::as_str).collect();
        for name in ["x", "z", "i", "w", "p", "r", "s", "t", "q"] {
            assert!(rebound.contains(&name), "{name} missing: {rebound:?}");
        }
        // Parameters, annotated lets and bit-or operands are not rebound.
        for name in ["a", "b", "y", "c"] {
            assert!(!rebound.contains(&name), "{name} rebound: {rebound:?}");
        }
    }

    #[test]
    fn lock_sites_classified_by_receiver() {
        let src = "struct S { state: Mutex<u32>, idx: RwLock<u8> }\n\
                   impl S {\n\
                       fn a(&self) { let g = self.state.lock(); use_it(g); }\n\
                       fn b(&self) { self.idx.read(); self.idx.write(); }\n\
                       fn c(&self, v: Vec<u8>) { v.lock(); v.read(); }\n\
                   }\n";
        let p = parse_src(src);
        let a = &fn_named(&p, "a").lock_sites;
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].binding, "state");
        assert_eq!(a[0].kind, LockKind::MutexLock);
        assert_eq!(a[0].guard.as_deref(), Some("g"));
        let b: Vec<LockKind> = fn_named(&p, "b").lock_sites.iter().map(|s| s.kind).collect();
        assert_eq!(b, vec![LockKind::RwRead, LockKind::RwWrite]);
        // Temporaries carry no guard binding.
        assert!(fn_named(&p, "b").lock_sites.iter().all(|s| s.guard.is_none()));
        // Non-lock receivers produce no sites.
        assert!(fn_named(&p, "c").lock_sites.is_empty());
    }

    #[test]
    fn condvar_wait_is_blocking_not_a_lock_site() {
        let src = "struct S { ready: Condvar }\n\
                   impl S { fn w(&self, g: u32) { let _x = self.ready.wait(g); } }\n";
        let p = parse_src(src);
        let w = fn_named(&p, "w");
        assert!(w.lock_sites.is_empty());
        assert_eq!(w.blocking_sites.len(), 1);
        assert_eq!(w.blocking_sites[0].op, "Condvar::wait");
        assert!(w.blocking_sites[0].condvar_wait);
    }

    #[test]
    fn guard_returning_fn_flagged() {
        let src = "fn lockit(m: &Mutex<u32>) -> MutexGuard<u32> { m.lock() }\nfn plain() {}\n";
        let p = parse_src(src);
        assert!(fn_named(&p, "lockit").ret_guard);
        assert!(!fn_named(&p, "plain").ret_guard);
    }

    #[test]
    fn blocking_sites_detected() {
        let src = "fn f(s: TcpStream, parts: Vec<String>) {\n\
                       s.write_all(buf);\n\
                       s.read(&mut buf);\n\
                       thread::sleep(d);\n\
                       rx.recv();\n\
                       h.join();\n\
                       parts.join(value);\n\
                   }\n";
        let p = parse_src(src);
        let ops: Vec<&str> =
            fn_named(&p, "f").blocking_sites.iter().map(|b| b.op.as_str()).collect();
        assert_eq!(ops, vec!["write_all", "read", "thread::sleep", "recv", "join"]);
    }

    #[test]
    fn fn_end_line_tracks_closing_brace() {
        let src = "fn f() {\n    a();\n    b();\n}\nfn g() {}\n";
        let p = parse_src(src);
        assert_eq!(fn_named(&p, "f").end_line, 3);
        assert_eq!(fn_named(&p, "g").end_line, 4);
    }

    #[test]
    fn params_captured_without_self_or_generics() {
        let src = "impl S { fn m<T: Send>(&self, top_k: usize, mut rows: Vec<T>) {} }\n\
                   fn free(n: u64, flag: bool) {}\nfn unit() {}\n";
        let p = parse_src(src);
        assert_eq!(fn_named(&p, "m").params, vec!["top_k", "rows"]);
        assert_eq!(fn_named(&p, "free").params, vec!["n", "flag"]);
        assert!(fn_named(&p, "unit").params.is_empty());
    }

    #[test]
    fn let_for_and_match_binds_captured() {
        let src = "fn f(req: R) {\n\
                       let n = req.count();\n\
                       for row in rows { use_it(row); }\n\
                       match req {\n\
                           R::Insert { id, rows } => use_it(id),\n\
                           R::Query(q) => use_it(q),\n\
                           _ => {}\n\
                       }\n\
                   }\n";
        let p = parse_src(src);
        let binds = &fn_named(&p, "f").binds;
        let has = |bound: &str, rhs: &str| {
            binds
                .iter()
                .any(|b| b.bound.contains(&bound.to_string()) && b.rhs.contains(&rhs.to_string()))
        };
        assert!(has("n", "req"), "{binds:?}");
        assert!(has("row", "rows"), "{binds:?}");
        assert!(has("id", "req"), "{binds:?}");
        assert!(has("rows", "req"), "{binds:?}");
        assert!(has("q", "req"), "{binds:?}");
    }

    #[test]
    fn match_arm_after_block_arm_does_not_leak_previous_body() {
        let src = "fn f(x: X) {\n\
                       match x {\n\
                           X::A(v) => { helper(v); }\n\
                           X::B(w) => use_it(w),\n\
                       }\n\
                   }\n";
        let p = parse_src(src);
        let binds = &fn_named(&p, "f").binds;
        let b_arm = binds.iter().find(|b| b.bound.contains(&"w".to_string())).unwrap();
        assert!(!b_arm.bound.contains(&"helper".to_string()), "{binds:?}");
        assert!(!b_arm.bound.contains(&"v".to_string()), "{binds:?}");
    }

    #[test]
    fn index_and_cast_sinks_with_operands() {
        let src = "fn f(v: &[u8], idx: usize, n: u64) -> u8 {\n\
                       let c = n as usize;\n\
                       v[idx]\n\
                   }\n\
                   fn g(x: f64) -> usize { (x * 2.0) as usize }\n";
        let p = parse_src(src);
        let f = fn_named(&p, "f");
        let cast = f.sinks.iter().find(|s| s.kind == SinkKind::Cast).unwrap();
        assert!(cast.operands.contains(&"n".to_string()), "{:?}", f.sinks);
        let index = f.sinks.iter().find(|s| s.kind == SinkKind::Index).unwrap();
        assert!(index.operands.contains(&"idx".to_string()), "{:?}", f.sinks);
        // The indexed base is not an operand.
        assert!(!index.operands.contains(&"v".to_string()), "{:?}", f.sinks);
        // Float-context casts are excluded.
        assert!(
            fn_named(&p, "g").sinks.iter().all(|s| s.kind != SinkKind::Cast),
            "{:?}",
            fn_named(&p, "g").sinks
        );
    }

    #[test]
    fn arith_sinks_integer_only() {
        let src = "fn f(a: usize, b: usize) -> usize { a * b + 1 }\n\
                   fn g(x: f64) -> f64 { x * 2.0 }\n\
                   fn h(n: usize) -> usize { n.checked_mul(4).unwrap_or(0) }\n";
        let p = parse_src(src);
        let f_ops: Vec<&str> = fn_named(&p, "f")
            .sinks
            .iter()
            .filter(|s| s.kind == SinkKind::Arith)
            .flat_map(|s| s.operands.iter().map(String::as_str))
            .collect();
        assert!(f_ops.contains(&"a") && f_ops.contains(&"b"), "{f_ops:?}");
        assert!(fn_named(&p, "g").sinks.iter().all(|s| s.kind != SinkKind::Arith));
        assert!(fn_named(&p, "h").sinks.iter().all(|s| s.kind != SinkKind::Arith));
    }

    #[test]
    fn alloc_size_sinks_capacity_reserve_and_vec_macro() {
        let src = "fn f(n: usize, seed: u8) {\n\
                       let a = Vec::<u8>::with_capacity(n * 4);\n\
                       buf.reserve(n);\n\
                       let b = vec![seed; n + 1];\n\
                   }\n";
        let p = parse_src(src);
        let sinks: Vec<&SinkSite> =
            fn_named(&p, "f").sinks.iter().filter(|s| s.kind == SinkKind::AllocSize).collect();
        assert_eq!(sinks.len(), 3, "{sinks:?}");
        assert!(sinks.iter().all(|s| s.operands.contains(&"n".to_string())), "{sinks:?}");
        // Repeat form: only the length expression counts, not the element.
        assert!(sinks.iter().all(|s| !s.operands.contains(&"seed".to_string())), "{sinks:?}");
    }

    #[test]
    fn method_receiver_captured() {
        let p = parse_src(
            "fn f(rows: Vec<u8>) { rows.len(); fetch().len(); self.rows.len(); 0..rows.len(); }\n",
        );
        let f = fn_named(&p, "f");
        let lens: Vec<(Option<&str>, bool)> = f
            .method_calls
            .iter()
            .filter(|c| c.segments == ["len"])
            .map(|c| (c.recv.as_deref(), c.field_recv))
            .collect();
        assert_eq!(
            lens,
            vec![(Some("rows"), false), (None, false), (Some("rows"), true), (Some("rows"), false)]
        );
    }

    #[test]
    fn call_args_and_let_binding_captured() {
        let src = "fn f(q: &Q) { let mut state = recover(&q.state); }\n\
                   fn g() { if let Some(w) = fetch().as_mut() { w.flush(); } }\n";
        let p = parse_src(src);
        let rec = fn_named(&p, "f").calls.iter().find(|c| c.segments == ["recover"]).unwrap();
        assert!(rec.args.contains(&"state".to_string()));
        assert_eq!(rec.bound.as_deref(), Some("state"));
        let fetch = fn_named(&p, "g").calls.iter().find(|c| c.segments == ["fetch"]).unwrap();
        assert_eq!(fetch.bound.as_deref(), Some("w"));
    }
}
