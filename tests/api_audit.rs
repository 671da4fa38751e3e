//! Every public item has a product caller, or a written reason.
//!
//! A token-level resolver (no `syn`: the build is offline) reads every
//! first-party `.rs` file under `src`, `crates`, `tests`, `examples` and
//! `e2e_bench` (the vendored stand-ins `rand`, `proptest`, `criterion`,
//! `parking_lot` and `bytes` are skipped) and resolves callers per
//! *definition*, not per name:
//!
//! - **Items.** Every `pub fn`, inherent `pub fn` method, inherent `pub const`
//!   and `pub struct` / `enum` / `trait` / `type` / `union` / `const` /
//!   `static` in a crate's `src/`, outside `#[cfg(test)]` items and
//!   `macro_rules!` bodies (a template is not a definition).
//! - **Free items** are called through a path that ends in their module
//!   (`module::name`, `crate::…::module::name`, a `pub use` re-export's
//!   module), through a `use` of that path, through a glob `use` of their
//!   module, or by a bare name in their own module.
//! - **Methods** (and associated consts) are called through `Type::name`,
//!   `Self::name` inside an `impl Type`, or `.name(` in a unit that names
//!   `Type`, sits in the defining crate, or uses that crate without naming
//!   another of its types with a method of that name.
//! - **Macros.** A `$crate::…::name` path in a `macro_rules!` body makes each
//!   invocation of that macro a caller of `name`, classed where it is invoked.
//! - **Signatures.** A type named in the signature of an item (parameters,
//!   return type, fields, variants, a trait impl's items) has that item's
//!   callers too: it cannot be private while the item is public.
//! - **Not callers.** `//` comments, doc prose, string literals, attributes,
//!   and `use` statements themselves.
//!
//! Each caller has a class: `product` (a product crate's code),
//! `conformance`, `test:unit` (a `#[cfg(test)]` item), `test:integration`,
//! `test:bench`, `test:example`, `test:doctest` (a code block of a doc
//! comment) or `harness` (`e2e_bench`). A caller in the defining file's own
//! product code does not count: an item used only there should be private.
//!
//! An item of a product crate needs a `product` caller; one of a test-support
//! crate (`conformance`, `bench`) needs any caller outside its own file. An
//! item without one fails the audit unless `tests/goldens/api_no_product_caller.txt`
//! lists it with a reason from the closed set below. The list is edited by
//! hand: a listed item that is no longer a hit also fails, and each reason is
//! checked against the item's own caller classes, not its type's.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::Path;

const VENDORED: &[&str] = &["rand", "proptest", "criterion", "parking_lot", "bytes"];
/// Crates that exist to test the product: any outside caller is enough.
const TEST_SUPPORT: &[&str] = &["crates/conformance", "crates/bench"];
const CALLER_ROOTS: &[&str] = &[
    "src",
    "crates",
    "tests",
    "examples",
    "e2e_bench/src",
    "e2e_bench/tests",
];
const LIST: &str = "tests/goldens/api_no_product_caller.txt";

/// Every caller class but `product`.
const ANY_CALLER: &[Class] = &[
    Class::Conformance,
    Class::Unit,
    Class::Integration,
    Class::Bench,
    Class::Example,
    Class::Doctest,
    Class::Harness,
];

/// The closed set of reasons an item may lack a product caller, each with
/// the caller classes of the item itself, one of which shows it holds. What
/// each one means is written at the head of the list file.
const REASONS: &[(&str, &[Class])] = &[
    ("harness", &[Class::Harness]),
    ("planned-caller", ANY_CALLER),
    ("driven-api", &[Class::Example, Class::Conformance]),
    ("paper", &[Class::Integration]),
    (
        "test-hook",
        &[
            Class::Unit,
            Class::Integration,
            Class::Bench,
            Class::Doctest,
            Class::Conformance,
        ],
    ),
];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    Product,
    Conformance,
    Unit,
    Integration,
    Bench,
    Example,
    Doctest,
    Harness,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Product => "product",
            Class::Conformance => "conformance",
            Class::Unit => "test:unit",
            Class::Integration => "test:integration",
            Class::Bench => "test:bench",
            Class::Example => "test:example",
            Class::Doctest => "test:doctest",
            Class::Harness => "harness",
        }
    }

    /// The class of a file's code outside `#[cfg(test)]` items.
    fn of_path(path: &str) -> Class {
        if path.starts_with("e2e_bench/") {
            Class::Harness
        } else if path.starts_with("tests/") || path.contains("/tests/") {
            Class::Integration
        } else if path.starts_with("examples/") || path.contains("/examples/") {
            Class::Example
        } else if path.contains("/benches/") || path.starts_with("crates/bench/") {
            Class::Bench
        } else if path.starts_with("crates/conformance/") {
            Class::Conformance
        } else {
            Class::Product
        }
    }
}

// ---------------------------------------------------------------- lexer --

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ident,
    Punct,
    Lit,
    Lifetime,
}

#[derive(Debug)]
struct Tok {
    kind: Kind,
    text: String,
}

impl Tok {
    fn is(&self, text: &str) -> bool {
        self.kind != Kind::Lit && self.text == text
    }
}

fn ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokens of `src` and the text of its doc comments, one entry per line.
/// Comments and literal contents produce no identifier.
fn lex(src: &str) -> (Vec<Tok>, Vec<(usize, String)>) {
    let s: Vec<char> = src.chars().collect();
    let at = |j: usize| s.get(j).copied().unwrap_or('\0');
    let (mut i, mut line) = (0, 1);
    let mut toks = Vec::new();
    let mut docs = Vec::new();
    let push = |toks: &mut Vec<Tok>, kind, text: String| toks.push(Tok { kind, text });
    // Index just past a quoted literal whose body starts at `j`.
    let skip_quoted = |mut j: usize, quote: char, line: &mut usize| {
        while j < s.len() && s[j] != quote {
            if s[j] == '\\' {
                j += 1;
            }
            if at(j) == '\n' {
                *line += 1;
            }
            j += 1;
        }
        j + 1
    };
    while i < s.len() {
        let c = s[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            let start = i;
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
            let text: String = s[start..i].iter().collect();
            if (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!") {
                docs.push((line, text[3..].to_string()));
            }
        } else if c == '/' && at(i + 1) == '*' {
            let doc = (at(i + 2) == '*' && !matches!(at(i + 3), '*' | '/')) || at(i + 2) == '!';
            let (start, first_line) = (i + 3, line);
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if s[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            if doc {
                let body: String = s[start.min(i)..i.saturating_sub(2).max(start.min(i))]
                    .iter()
                    .collect();
                for (k, l) in body.lines().enumerate() {
                    let l = l.trim_start();
                    docs.push((first_line + k, l.strip_prefix('*').unwrap_or(l).to_string()));
                }
            }
        } else if c == '"' {
            i = skip_quoted(i + 1, '"', &mut line);
            push(&mut toks, Kind::Lit, String::new());
        } else if c == '\'' {
            if at(i + 1) == '\\' {
                i = skip_quoted(i + 3, '\'', &mut line);
                push(&mut toks, Kind::Lit, String::new());
            } else if at(i + 2) == '\'' {
                i += 3;
                push(&mut toks, Kind::Lit, String::new());
            } else {
                i += 1;
                while ident_char(at(i)) {
                    i += 1;
                }
                push(&mut toks, Kind::Lifetime, String::new());
            }
        } else if c.is_ascii_digit() {
            while ident_char(at(i)) || (at(i) == '.' && at(i + 1).is_ascii_digit()) {
                i += 1;
            }
            push(&mut toks, Kind::Lit, String::new());
        } else if ident_start(c) {
            let start = i;
            while ident_char(at(i)) {
                i += 1;
            }
            let word: String = s[start..i].iter().collect();
            let next = at(i);
            let raw = matches!(word.as_str(), "r" | "br" | "cr")
                && (next == '"' || (next == '#' && matches!(at(i + 1), '"' | '#')));
            if raw {
                let mut hashes = 0;
                while at(i) == '#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1;
                while i < s.len() && !(s[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#')) {
                    if s[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i += 1 + hashes;
                push(&mut toks, Kind::Lit, String::new());
            } else if word == "r" && next == '#' && ident_start(at(i + 1)) {
                let start = i + 1;
                i = start;
                while ident_char(at(i)) {
                    i += 1;
                }
                push(&mut toks, Kind::Ident, s[start..i].iter().collect());
            } else if matches!(word.as_str(), "b" | "c") && next == '"' {
                i = skip_quoted(i + 1, '"', &mut line);
                push(&mut toks, Kind::Lit, String::new());
            } else if word == "b" && next == '\'' {
                i = skip_quoted(i + if at(i + 1) == '\\' { 3 } else { 2 }, '\'', &mut line);
                push(&mut toks, Kind::Lit, String::new());
            } else {
                push(&mut toks, Kind::Ident, word);
            }
        } else {
            let two: String = [c, at(i + 1)].iter().collect();
            if two == "::" || two == "->" {
                i += 2;
                push(&mut toks, Kind::Punct, two);
            } else {
                i += 1;
                push(&mut toks, Kind::Punct, c.to_string());
            }
        }
    }
    (toks, docs)
}

/// The Rust code blocks of a file's doc comments (hidden `# ` lines
/// included), one string per block. Doc lines on consecutive source lines
/// form one comment.
fn doctests(docs: &[(usize, String)]) -> Vec<String> {
    let mut blocks = Vec::new();
    // Inside a fence: whether it holds Rust, and its code so far.
    let mut open: Option<(bool, String)> = None;
    let mut prev_line = 0;
    for (line, text) in docs {
        if *line != prev_line + 1 {
            // A new comment: a fence left open closes with its comment.
            if let Some((true, code)) = open.take() {
                blocks.push(code);
            }
        }
        prev_line = *line;
        let body = text.strip_prefix(' ').unwrap_or(text);
        let trimmed = body.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            match open.take() {
                Some((true, code)) => blocks.push(code),
                Some((false, _)) => {}
                None => {
                    let rust = trimmed[3..].split(',').map(str::trim).all(|a| {
                        a.is_empty()
                            || matches!(
                                a,
                                "rust" | "no_run" | "should_panic" | "ignore" | "compile_fail"
                            )
                            || a.starts_with("edition")
                    });
                    open = Some((rust, String::new()));
                }
            }
        } else if let Some((true, code)) = open.as_mut() {
            code.push_str(match trimmed {
                "#" => "",
                t => t.strip_prefix("# ").unwrap_or(body),
            });
            code.push('\n');
        }
    }
    if let Some((true, code)) = open {
        blocks.push(code);
    }
    blocks
}

// ------------------------------------------------------------- analysis --

/// A file, or one doctest of a file: the unit references resolve in.
struct Unit {
    path: String,
    class: Class,
    /// The crate name `crate::` stands for.
    krate: String,
    toks: Vec<Tok>,
    /// Per token: inside a `#[cfg(test)]` item.
    test: Vec<bool>,
    /// Per token: not a reference (attribute, `use` statement, definition name).
    skip: Vec<bool>,
    /// Per token: index into `modules`.
    module: Vec<usize>,
    modules: Vec<Vec<String>>,
    /// `(first token, last token, Self type)` of every `impl` block.
    impls: Vec<(usize, usize, String)>,
    /// `(Self type, identifiers outside method bodies)` of every trait impl:
    /// `type Err = ParseError;` belongs to the type's interface.
    trait_impls: Vec<(String, Vec<String>)>,
    imports: Vec<Import>,
    /// Names defined in this unit at module or block level (shadow globs).
    locals: HashSet<String>,
    /// Identifiers in code: "names the type".
    idents: HashSet<String>,
}

#[derive(Debug)]
struct Import {
    module: usize,
    test: bool,
    public: bool,
    /// Path of the item's parent as written, after `crate` / `self` / `super`.
    parent: Vec<String>,
    /// The imported name; `*` for a glob.
    name: String,
    alias: String,
}

#[derive(Clone, Debug)]
struct Def {
    unit: usize,
    kind: &'static str,
    name: String,
    owner: Option<String>,
    module: Vec<String>,
    /// Identifiers of its signature: parameters and return type, fields,
    /// variants, or a trait's items.
    sig: Vec<String>,
}

impl Def {
    fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while",
];
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "union", "const", "static", "mod",
];

/// Index just past the bracket group opening at `i` (`(`, `[`, `{` or `<`).
fn close_of(toks: &[Tok], i: usize) -> usize {
    let (open, close) = match toks[i].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "<" => ("<", ">"),
        _ => ("{", "}"),
    };
    let mut depth = 0;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is(open) {
            depth += 1;
        } else if t.is(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

/// Index of the last token of the item (or field, or statement) starting at
/// `i`: its closing `}`, or the `;` or `,` that ends it.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].text.as_str() {
            _ if toks[i].kind != Kind::Punct => i += 1,
            "(" | "[" => i = close_of(toks, i),
            "{" => return close_of(toks, i) - 1,
            ";" | "," => return i,
            "}" => return i - 1,
            _ => i += 1,
        }
    }
    toks.len() - 1
}

/// Index of the `{` that opens a function body (or the `;` that ends a
/// bodiless one), scanning from its name at `i`.
fn body_start(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].text.as_str() {
            _ if toks[i].kind != Kind::Punct => i += 1,
            "(" | "[" => i = close_of(toks, i),
            "{" | ";" => return i,
            _ => i += 1,
        }
    }
    toks.len() - 1
}

#[derive(Clone, Debug)]
enum Scope {
    Module(usize),
    Impl(Option<String>),
    Trait,
    Block,
    Macro,
}

/// Flatten a `use` tree starting at token `i`; returns the index past it.
fn use_tree(
    toks: &[Tok],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<(Vec<String>, String, String)>,
) -> usize {
    let depth = prefix.len();
    loop {
        let t = &toks[i];
        if t.is("::") {
            i += 1;
        } else if t.is("{") {
            i += 1;
            while i < toks.len() && !toks[i].is("}") {
                i = use_tree(toks, i, prefix, out);
                if toks[i].is(",") {
                    i += 1;
                }
            }
            prefix.truncate(depth);
            return i + 1;
        } else if t.is("*") {
            out.push((prefix.clone(), "*".into(), "*".into()));
            prefix.truncate(depth);
            return i + 1;
        } else if t.kind == Kind::Ident && toks.get(i + 1).is_some_and(|n| n.is("::")) {
            prefix.push(t.text.clone());
            i += 2;
        } else if t.kind == Kind::Ident {
            let mut alias = t.text.clone();
            let mut end = i + 1;
            if toks.get(end).is_some_and(|n| n.is("as")) {
                alias = toks[end + 1].text.clone();
                end += 2;
            }
            if t.text == "self" {
                if let Some(last) = prefix.pop() {
                    let alias = if alias == "self" { last.clone() } else { alias };
                    out.push((prefix.clone(), last, alias));
                }
            } else {
                out.push((prefix.clone(), t.text.clone(), alias));
            }
            prefix.truncate(depth);
            return end;
        } else {
            prefix.truncate(depth);
            return i + 1;
        }
    }
}

/// `crate` / `self` / `super` at the head of `path`, resolved from `module`.
fn anchor(path: &[String], krate: &str, module: &[String]) -> Vec<String> {
    let mut out: Vec<String>;
    let mut rest = path;
    match path.first().map(String::as_str) {
        Some("crate") => {
            out = vec![krate.to_string()];
            rest = &path[1..];
        }
        Some("self") => {
            out = module.to_vec();
            rest = &path[1..];
        }
        Some("super") => {
            out = module.to_vec();
            while rest.first().is_some_and(|s| s == "super") {
                out.pop();
                rest = &rest[1..];
            }
        }
        _ => out = Vec::new(),
    }
    out.extend(rest.iter().cloned());
    out
}

fn analyse(
    path: &str,
    class: Class,
    krate: &str,
    root_module: Vec<String>,
    src: &str,
    index: usize,
) -> (Unit, Vec<(usize, String)>, Vec<Def>) {
    let (toks, docs) = lex(src);
    let mut defs = Vec::new();
    let n = toks.len();
    let mut u = Unit {
        path: path.to_string(),
        class,
        krate: krate.to_string(),
        test: vec![false; n],
        skip: vec![false; n],
        module: vec![0; n],
        modules: vec![root_module],
        impls: Vec::new(),
        trait_impls: Vec::new(),
        imports: Vec::new(),
        locals: HashSet::new(),
        idents: HashSet::new(),
        toks,
    };
    let toks = &u.toks;
    let mut stack = vec![Scope::Module(0)];
    let mut open_impls: Vec<usize> = Vec::new();
    let mut item_start = 0;
    let mut i = 0;
    while i < n {
        let t = &toks[i];
        let module = stack
            .iter()
            .rev()
            .find_map(|s| {
                if let Scope::Module(m) = s {
                    Some(*m)
                } else {
                    None
                }
            })
            .unwrap_or(0);
        u.module[i] = module;
        let top = stack.last().cloned().unwrap_or(Scope::Block);
        if matches!(top, Scope::Impl(None)) && t.kind == Kind::Ident {
            if let Some((_, sig)) = u.trait_impls.last_mut() {
                sig.push(t.text.clone());
            }
        }
        if t.is("#") && toks.get(i + 1).is_some_and(|x| x.is("[") || x.is("!")) {
            let open = if toks[i + 1].is("!") { i + 2 } else { i + 1 };
            let end = close_of(toks, open);
            let words: Vec<&str> = toks[open + 1..end - 1]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            for k in i..end {
                u.skip[k] = true;
                u.module[k] = module;
            }
            if words == ["cfg", "(", "test", ")"] && open == i + 1 {
                let last = item_end(toks, end);
                for flag in &mut u.test[i..=last] {
                    *flag = true;
                }
            }
            i = end;
            continue;
        }
        if t.is("{") {
            let header = &toks[item_start..i];
            let kw = header.iter().position(|h| {
                h.kind == Kind::Ident
                    && matches!(
                        h.text.as_str(),
                        "impl"
                            | "trait"
                            | "mod"
                            | "fn"
                            | "struct"
                            | "enum"
                            | "union"
                            | "macro_rules"
                    )
            });
            let scope = match kw.map(|k| (k, header[k].text.as_str())) {
                _ if matches!(top, Scope::Block | Scope::Macro) => top.clone(),
                Some((k, "mod")) => {
                    let mut path = u.modules[module].clone();
                    path.push(header[k + 1].text.clone());
                    u.modules.push(path);
                    Scope::Module(u.modules.len() - 1)
                }
                Some((k, "impl")) => {
                    let h = &header[k + 1..];
                    let mut j = if h.first().is_some_and(|x| x.is("<")) {
                        close_of(h, 0)
                    } else {
                        0
                    };
                    let mut owner = None;
                    let mut trait_impl = false;
                    while j < h.len() {
                        if h[j].is("<") {
                            j = close_of(h, j);
                            continue;
                        }
                        if h[j].is("for") {
                            trait_impl = true;
                        } else if h[j].is("where") {
                            break;
                        } else if h[j].kind == Kind::Ident
                            && !KEYWORDS.contains(&h[j].text.as_str())
                        {
                            owner = Some(h[j].text.clone());
                        }
                        j += 1;
                    }
                    let owner = owner.unwrap_or_default();
                    u.impls.push((i, n, owner.clone()));
                    open_impls.push(u.impls.len() - 1);
                    if trait_impl {
                        u.trait_impls.push((owner.clone(), Vec::new()));
                    }
                    Scope::Impl(if trait_impl { None } else { Some(owner) })
                }
                Some((_, "trait")) => Scope::Trait,
                Some((_, "macro_rules")) => Scope::Macro,
                _ => Scope::Block,
            };
            stack.push(scope);
            item_start = i + 1;
        } else if t.is("}") {
            if let Some(Scope::Impl(_)) = stack.pop() {
                if let Some(k) = open_impls.pop() {
                    u.impls[k].1 = i;
                }
            }
            item_start = i + 1;
        } else if t.is(";") {
            item_start = i + 1;
        } else if t.is("use") && !matches!(top, Scope::Macro) {
            let public = toks[item_start..i].iter().any(|x| x.is("pub"));
            let mut flat = Vec::new();
            let end = use_tree(toks, i + 1, &mut Vec::new(), &mut flat);
            for k in i..end.min(n) {
                u.skip[k] = true;
                u.module[k] = module;
            }
            for (parent, name, alias) in flat {
                let parent = anchor(&parent, krate, &u.modules[module]);
                u.imports.push(Import {
                    module,
                    test: u.test[i],
                    public,
                    parent,
                    name,
                    alias,
                });
            }
            i = end;
            continue;
        } else if t.kind == Kind::Ident
            && DEF_KEYWORDS.contains(&t.text.as_str())
            && !(i > 0 && matches!(toks[i - 1].text.as_str(), "*" | "&"))
        {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|x| x.is("mut")) {
                j += 1;
            }
            let name = toks
                .get(j)
                .filter(|x| x.kind == Kind::Ident && !KEYWORDS.contains(&x.text.as_str()));
            if let Some(name) = name {
                u.skip[j] = true;
                if matches!(top, Scope::Module(_) | Scope::Block) {
                    u.locals.insert(name.text.clone());
                }
                let public = i > 0 && pub_before(toks, i);
                let in_item_scope = matches!(top, Scope::Module(_) | Scope::Impl(Some(_)));
                let kind = match t.text.as_str() {
                    "fn" if matches!(top, Scope::Impl(_)) => "method",
                    "mod" => "",
                    k => DEF_KEYWORDS
                        .iter()
                        .find(|d| **d == k)
                        .expect("a definition keyword"),
                };
                let owner = if let Scope::Impl(Some(o)) = &top {
                    Some(o.clone())
                } else {
                    None
                };
                let allowed_in_impl = owner.is_none() || matches!(kind, "method" | "const");
                if public
                    && in_item_scope
                    && allowed_in_impl
                    && !kind.is_empty()
                    && !u.test[i]
                    && name.text != "_"
                {
                    let end = if matches!(kind, "fn" | "method") {
                        body_start(toks, j)
                    } else {
                        item_end(toks, j)
                    };
                    let sig = toks[j + 1..=end.min(n - 1)]
                        .iter()
                        .filter(|x| x.kind == Kind::Ident)
                        .map(|x| x.text.clone())
                        .collect();
                    defs.push(Def {
                        unit: index,
                        kind,
                        name: name.text.clone(),
                        owner,
                        module: u.modules[module].clone(),
                        sig,
                    });
                }
            }
        }
        i += 1;
    }
    for (k, t) in u.toks.iter().enumerate() {
        if t.kind == Kind::Ident && !u.skip[k] {
            u.idents.insert(t.text.clone());
        }
    }
    (u, docs, defs)
}

/// Whether the definition keyword at `i` is preceded by a bare `pub`
/// (qualifiers such as `const`, `unsafe`, `async`, `extern "C"` between).
fn pub_before(toks: &[Tok], mut i: usize) -> bool {
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.is("pub") {
            return true;
        }
        let qualifier = t.kind == Kind::Lit
            || matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern");
        if !qualifier {
            return false;
        }
    }
    false
}

/// How a reference names its target.
#[derive(Debug)]
enum Form {
    /// `a::b::name`, anchored (the head may still be relative).
    Path(Vec<String>),
    /// A bare `name` in the given module of its unit.
    Bare(usize),
    /// `Self::name` inside an `impl` of the given type.
    SelfPath(String),
    /// `.name(` or `.name::<`.
    Dot,
}

#[derive(Debug)]
struct Ref {
    unit: usize,
    class: Class,
    form: Form,
}

/// Every reference in `u`, keyed by the name it refers to. `macros` maps a
/// macro name to the `$crate::` paths its body names.
fn references(
    ui: usize,
    u: &Unit,
    wanted: &HashSet<String>,
    macros: &HashMap<String, Vec<Vec<String>>>,
    out: &mut HashMap<String, Vec<Ref>>,
) {
    let toks = &u.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || u.skip[i] {
            continue;
        }
        let class =
            if u.test[i] && matches!(u.class, Class::Product | Class::Conformance | Class::Bench) {
                Class::Unit
            } else {
                u.class
            };
        let next = toks.get(i + 1);
        if next.is_some_and(|x| x.is("!"))
            && toks
                .get(i + 2)
                .is_some_and(|x| x.is("(") || x.is("[") || x.is("{"))
        {
            for path in macros.get(&t.text).into_iter().flatten() {
                let (name, parent) = path.split_last().expect("a macro target has a name");
                out.entry(name.clone()).or_default().push(Ref {
                    unit: ui,
                    class,
                    form: Form::Path(parent.to_vec()),
                });
            }
            continue;
        }
        if !wanted.contains(&t.text) || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let prev = if i > 0 { Some(&toks[i - 1]) } else { None };
        let visible = |imp: &&Import| !imp.test || u.test[i];
        let form = if prev.is_some_and(|p| p.is(".")) {
            if !next.is_some_and(|x| x.is("(") || x.is("::")) {
                continue;
            }
            Form::Dot
        } else if prev.is_some_and(|p| p.is("::")) {
            let mut path = Vec::new();
            let mut j = i - 1;
            while j > 0 && toks[j].is("::") && toks[j - 1].kind == Kind::Ident {
                path.push(toks[j - 1].text.clone());
                if j < 2 {
                    break;
                }
                j -= 2;
            }
            path.reverse();
            if path.is_empty() {
                continue;
            }
            if path[0] == "Self" {
                let owner = u
                    .impls
                    .iter()
                    .filter(|(a, b, _)| *a < i && i < *b)
                    .map(|(_, _, o)| o.clone())
                    .next_back();
                Form::SelfPath(owner.unwrap_or_default())
            } else {
                let head = u
                    .imports
                    .iter()
                    .filter(visible)
                    .find(|imp| imp.alias == path[0] && imp.name != "*");
                match head {
                    Some(imp) if !matches!(path[0].as_str(), "crate" | "self" | "super") => {
                        let mut full = imp.parent.clone();
                        full.push(imp.name.clone());
                        full.extend(path[1..].iter().cloned());
                        Form::Path(full)
                    }
                    _ => Form::Path(anchor(&path, &u.krate, &u.modules[u.module[i]])),
                }
            }
        } else {
            let imported = u
                .imports
                .iter()
                .filter(visible)
                .find(|imp| imp.alias == t.text && imp.name != "*");
            match imported {
                Some(imp) => {
                    out.entry(imp.name.clone()).or_default().push(Ref {
                        unit: ui,
                        class,
                        form: Form::Path(imp.parent.clone()),
                    });
                    continue;
                }
                None => Form::Bare(u.module[i]),
            }
        };
        out.entry(t.text.clone()).or_default().push(Ref {
            unit: ui,
            class,
            form,
        });
    }
}

/// The `$crate::…` paths each `macro_rules!` body of `u` names, by macro.
fn macro_targets(u: &Unit, out: &mut HashMap<String, Vec<Vec<String>>>) {
    let toks = &u.toks;
    for i in 0..toks.len().saturating_sub(3) {
        if !(toks[i].is("macro_rules") && toks[i + 1].is("!")) {
            continue;
        }
        let name = toks[i + 2].text.clone();
        let body = i + 3;
        let end = close_of(toks, body);
        let mut k = body;
        while k + 3 < end {
            if toks[k].is("$") && toks[k + 1].is("crate") && toks[k + 2].is("::") {
                let mut path = vec![u.krate.clone()];
                let mut j = k + 3;
                while j < end && toks[j].kind == Kind::Ident {
                    path.push(toks[j].text.clone());
                    if toks.get(j + 1).is_some_and(|x| x.is("::")) {
                        j += 2;
                    } else {
                        break;
                    }
                }
                out.entry(name.clone()).or_default().push(path);
                k = j;
            }
            k += 1;
        }
    }
}

// ---------------------------------------------------------------- audit --

/// An item without the caller its crate requires.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Hit {
    file: String,
    kind: &'static str,
    name: String,
    /// Classes of the callers it does have: what a reason is checked against.
    callers: BTreeSet<Class>,
}

impl Hit {
    fn key(&self) -> String {
        format!("{} {} {}", self.file, self.kind, self.name)
    }
}

/// Where a source file sits: its crate directory (`""` for the root
/// package), the crate name `crate::` stands for and its module path.
fn locate(path: &str, libs: &HashMap<String, String>) -> (String, String, Vec<String>) {
    let stem = |p: &str| {
        p.rsplit('/')
            .next()
            .unwrap_or(p)
            .trim_end_matches(".rs")
            .to_string()
    };
    let dir = if let Some(rest) = path.strip_prefix("crates/") {
        format!("crates/{}", rest.split('/').next().unwrap_or(""))
    } else if path.starts_with("e2e_bench/") {
        "e2e_bench".to_string()
    } else {
        String::new()
    };
    let lib = libs
        .get(&dir)
        .cloned()
        .unwrap_or_else(|| dir.rsplit('/').next().unwrap_or("").to_string());
    let src_prefix = if dir.is_empty() {
        "src/".to_string()
    } else {
        format!("{dir}/src/")
    };
    match path.strip_prefix(&src_prefix) {
        Some(rel) if !rel.starts_with("bin/") => {
            let mut module = vec![lib.clone()];
            let parts: Vec<&str> = rel.trim_end_matches(".rs").split('/').collect();
            for (k, p) in parts.iter().enumerate() {
                let last = k + 1 == parts.len();
                if !(last && matches!(*p, "lib" | "main" | "mod")) {
                    module.push(p.to_string());
                }
            }
            (dir, lib, module)
        }
        _ => {
            let krate = stem(path);
            (dir, krate.clone(), vec![krate])
        }
    }
}

fn is_definition_file(path: &str) -> bool {
    path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
}

/// Resolve every definition in `sources` (`(path, text)`, paths relative to
/// the repository root) and return those without the caller they need.
fn audit(sources: &[(String, String)], libs: &HashMap<String, String>) -> Vec<Hit> {
    let mut units: Vec<Unit> = Vec::new();
    let mut defs: Vec<Def> = Vec::new();
    let mut dirs = Vec::new();
    for (path, text) in sources {
        let (dir, krate, module) = locate(path, libs);
        let (unit, docs, found) = analyse(
            path,
            Class::of_path(path),
            &krate,
            module,
            text,
            units.len(),
        );
        if is_definition_file(path) {
            defs.extend(found);
        }
        units.push(unit);
        dirs.push(dir.clone());
        for block in doctests(&docs) {
            let (unit, _, _) = analyse(
                path,
                Class::Doctest,
                &krate,
                Vec::new(),
                &block,
                units.len(),
            );
            units.push(unit);
            dirs.push(dir.clone());
        }
    }

    // The module paths each definition is reachable at: its own, then every
    // `pub use` that re-exports it (to a fixpoint).
    let crate_names = &units
        .iter()
        .filter(|u| is_definition_file(&u.path) && !u.path.contains("/bin/"))
        .map(|u| u.krate.as_str())
        .collect::<HashSet<&str>>();
    let mut paths: Vec<BTreeSet<Vec<String>>> = defs
        .iter()
        .map(|d| BTreeSet::from([d.module.clone()]))
        .collect();
    let reexports: Vec<(Vec<String>, Vec<String>, String)> = units
        .iter()
        .flat_map(|u| {
            u.imports
                .iter()
                .filter(|imp| imp.public && !imp.test)
                .map(move |imp| {
                    let here = u.modules[imp.module].clone();
                    let head = imp.parent.first().map(String::as_str).unwrap_or("");
                    let parent =
                        if crate_names.contains(head) || imp.parent.is_empty() && imp.name == "*" {
                            imp.parent.clone()
                        } else {
                            here.iter().chain(&imp.parent).cloned().collect()
                        };
                    (here, parent, imp.name.clone())
                })
        })
        .collect();
    // A crate root that re-exports whole crates (`pub use nbody;`).
    let facades: HashSet<&str> = reexports
        .iter()
        .filter(|(here, _, name)| {
            here.len() == 1 && here[0] != *name && crate_names.contains(name.as_str())
        })
        .map(|(here, _, _)| here[0].as_str())
        .collect();
    loop {
        let mut grew = false;
        for (d, reach) in defs.iter().zip(paths.iter_mut()) {
            if d.owner.is_some() {
                continue;
            }
            for (here, parent, name) in &reexports {
                if (name == &d.name || name == "*")
                    && reach.contains(parent)
                    && reach.insert(here.clone())
                {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    let wanted: HashSet<String> = defs.iter().map(|d| d.name.clone()).collect();
    let mut macros = HashMap::new();
    for u in &units {
        macro_targets(u, &mut macros);
    }
    let mut refs: HashMap<String, Vec<Ref>> = HashMap::new();
    for (ui, u) in units.iter().enumerate() {
        references(ui, u, &wanted, &macros, &mut refs);
    }

    let mut owners: HashMap<&str, Vec<(&str, &str)>> = HashMap::new();
    for d in &defs {
        if let Some(o) = &d.owner {
            owners
                .entry(d.name.as_str())
                .or_default()
                .push((o.as_str(), units[d.unit].krate.as_str()));
        }
    }
    let mut direct = Vec::new();
    for (d, reach) in defs.iter().zip(&paths) {
        let home = &units[d.unit];
        let mut callers = BTreeSet::new();
        for r in refs.get(&d.name).into_iter().flatten() {
            let u = &units[r.unit];
            let own = u.path == home.path && r.class == home.class;
            let resolves = match (&d.owner, &r.form) {
                (None, Form::Path(p)) => {
                    let p = strip_facade(p, &facades);
                    !p.is_empty() && reach.iter().any(|m| m.ends_with(&p))
                }
                (None, Form::Bare(m)) => {
                    let m = &u.modules[*m];
                    reach.contains(m)
                        || (!u.locals.contains(&d.name)
                            && u.imports.iter().any(|imp| {
                                imp.name == "*" && (!imp.test || r.class == Class::Unit) && {
                                    let p = strip_facade(&imp.parent, &facades);
                                    !p.is_empty() && reach.iter().any(|m| m.ends_with(&p))
                                }
                            }))
                }
                (Some(o), Form::Path(p)) => p.last() == Some(o),
                (Some(o), Form::SelfPath(s)) => s == o,
                (Some(o), Form::Dot) => {
                    // A unit that uses the crate but names none of the types
                    // with a method of this name may hold any of them.
                    let named_other = || {
                        owners[d.name.as_str()]
                            .iter()
                            .any(|(t, k)| *k == home.krate && names(u, t))
                    };
                    u.krate == home.krate
                        || names(u, o)
                        || (names(u, &home.krate) && !named_other())
                }
                _ => false,
            };
            if resolves && !own {
                callers.insert(r.class);
            }
        }
        direct.push(callers);
    }

    // A type in the signature of an item is part of that item's interface:
    // it has the item's callers too (to a fixpoint).
    let mut trait_sigs: HashMap<(&str, &str), Vec<&String>> = HashMap::new();
    for u in &units {
        for (owner, sig) in &u.trait_impls {
            trait_sigs
                .entry((u.krate.as_str(), owner.as_str()))
                .or_default()
                .extend(sig);
        }
    }
    let mut types: HashMap<&str, Vec<usize>> = HashMap::new();
    for (k, d) in defs.iter().enumerate() {
        if matches!(d.kind, "struct" | "enum" | "trait" | "type" | "union") {
            types.entry(d.name.as_str()).or_default().push(k);
        }
    }
    let mut callers = direct;
    let mut queue: Vec<usize> = (0..defs.len())
        .filter(|&k| !callers[k].is_empty())
        .collect();
    while let Some(k) = queue.pop() {
        let d = &defs[k];
        let user = &units[d.unit];
        let impl_sig = trait_sigs
            .get(&(user.krate.as_str(), d.name.as_str()))
            .into_iter()
            .flatten()
            .copied();
        for x in d.sig.iter().chain(impl_sig) {
            for &t in types.get(x.as_str()).into_iter().flatten() {
                let owner = &units[defs[t].unit].krate;
                let visible = owner == &user.krate || names(user, x) || names(user, owner);
                if t != k && visible && !callers[k].is_subset(&callers[t]) {
                    let add = callers[k].clone();
                    callers[t].extend(add);
                    queue.push(t);
                }
            }
        }
    }

    let mut hits = Vec::new();
    for (d, callers) in defs.iter().zip(callers) {
        let home = &units[d.unit];
        let satisfied = if TEST_SUPPORT.contains(&dirs[d.unit].as_str()) {
            !callers.is_empty()
        } else {
            callers.contains(&Class::Product)
        };
        if !satisfied {
            hits.push(Hit {
                file: home.path.clone(),
                kind: d.kind,
                name: d.display(),
                callers,
            });
        }
    }
    hits.sort();
    hits.dedup();
    hits
}

/// Whether `u` names `word` in code or in a `use` path.
fn names(u: &Unit, word: &str) -> bool {
    u.idents.contains(word)
        || u.imports
            .iter()
            .any(|imp| imp.parent.iter().any(|p| p == word) || imp.name == word)
}

/// Drop a facade crate's name from the head of a path (`hacc_workflows::nbody::x`
/// is `nbody::x`).
fn strip_facade(path: &[String], facades: &HashSet<&str>) -> Vec<String> {
    match path {
        [head, rest @ ..] if facades.contains(head.as_str()) && !rest.is_empty() => rest.to_vec(),
        _ => path.to_vec(),
    }
}

// ----------------------------------------------------------------- tree --

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crate name a manifest's library compiles to.
fn lib_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let name_in = |section: &str| {
        let body = text.split(section).nth(1)?;
        let body = body.split("\n[").next()?;
        body.lines()
            .find_map(|l| l.trim().strip_prefix("name").map(str::trim))
            .and_then(|l| l.strip_prefix('='))
            .map(|v| v.trim().trim_matches('"').replace('-', "_"))
    };
    name_in("[lib]").or_else(|| name_in("[package]"))
}

/// Every first-party source (path relative to `root`, text), this file
/// left out, and the library name of each crate directory.
fn load(root: &Path) -> (Vec<(String, String)>, HashMap<String, String>) {
    let mut files = Vec::new();
    for dir in CALLER_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    let mut sources = Vec::new();
    let mut libs = HashMap::new();
    for file in files {
        let rel = file.strip_prefix(root).expect("under the repository root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let vendored = VENDORED
            .iter()
            .any(|v| rel.starts_with(&format!("crates/{v}/")));
        if vendored || file == root.join(file!()) {
            continue;
        }
        let text = fs::read_to_string(&file).expect("read source file");
        sources.push((rel, text));
    }
    sources.sort();
    for (path, _) in &sources {
        let (dir, _, _) = locate(path, &libs);
        if let Some(name) = lib_name(&root.join(&dir).join("Cargo.toml")) {
            libs.entry(dir).or_insert(name);
        }
    }
    (sources, libs)
}

/// `key → (reason class, reason)` of the hand-edited list, or the lines
/// that break its format.
fn read_list(text: &str) -> Result<BTreeMap<String, (String, String)>, Vec<String>> {
    let mut entries = BTreeMap::new();
    let mut errors = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = line.split_once(" | ").and_then(|(key, why)| {
            let (tag, reason) = why.split_once(':')?;
            let known = REASONS.iter().any(|(t, _)| *t == tag.trim());
            (known && !reason.trim().is_empty() && key.split(' ').count() == 3).then(|| {
                (
                    key.trim().to_string(),
                    tag.trim().to_string(),
                    reason.trim().to_string(),
                )
            })
        });
        match parsed {
            Some((key, tag, reason)) => {
                if entries.insert(key.clone(), (tag, reason)).is_some() {
                    errors.push(format!("line {}: `{key}` is listed twice", n + 1));
                }
            }
            None => errors.push(format!(
                "line {}: want `<file> <kind> <name> | <reason class>: <reason>` with a class from {:?}: {line}",
                n + 1,
                REASONS.iter().map(|(t, _)| *t).collect::<Vec<_>>()
            )),
        }
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

fn classes(set: &BTreeSet<Class>) -> String {
    if set.is_empty() {
        return "none".to_string();
    }
    set.iter().map(|c| c.name()).collect::<Vec<_>>().join(", ")
}

/// What is wrong between the audit's `hits` and the hand-edited list: an
/// unlisted hit, a reason the hit's own callers do not show, a stale line.
fn check(hits: &[Hit], listed: &BTreeMap<String, (String, String)>) -> Vec<String> {
    let mut problems = Vec::new();
    for hit in hits {
        match listed.get(&hit.key()) {
            None => problems.push(format!(
                "unlisted: {}  (callers: {})",
                hit.key(),
                classes(&hit.callers)
            )),
            Some((tag, _)) => {
                let (_, shown_by) = REASONS
                    .iter()
                    .find(|(t, _)| t == tag)
                    .expect("a known class");
                if !shown_by.iter().any(|c| hit.callers.contains(c)) {
                    problems.push(format!(
                        "reason `{tag}` needs a caller of class {:?}: {}  (callers: {})",
                        shown_by.iter().map(|c| c.name()).collect::<Vec<_>>(),
                        hit.key(),
                        classes(&hit.callers)
                    ));
                }
            }
        }
    }
    let keys: BTreeSet<String> = hits.iter().map(Hit::key).collect();
    for key in listed.keys().filter(|k| !keys.contains(*k)) {
        problems.push(format!(
            "stale: {key} is listed but has its product caller or is gone"
        ));
    }
    problems
}

#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (sources, libs) = load(root);
    let hits = audit(&sources, &libs);
    let text = fs::read_to_string(root.join(LIST)).unwrap_or_default();
    let listed = match read_list(&text) {
        Ok(listed) => listed,
        Err(errors) => panic!("{LIST} is malformed:\n  {}", errors.join("\n  ")),
    };
    let problems = check(&hits, &listed);
    assert!(
        problems.is_empty(),
        "{} public items lack a product caller ({} listed); delete them, make \
         them private, put them under #[cfg(test)], or list them in {LIST} \
         with a reason:\n  {}",
        hits.len(),
        listed.len(),
        problems.join("\n  ")
    );
}

// ------------------------------------------------------------- fixtures --

/// Audit in-memory sources; each crate's name is its directory's.
fn fixture(files: &[(&str, &str)]) -> Vec<Hit> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    audit(&sources, &HashMap::new())
}

fn hit<'a>(hits: &'a [Hit], name: &str) -> Option<&'a Hit> {
    hits.iter().find(|h| h.name == name)
}

#[test]
fn an_uncalled_method_sharing_a_called_ones_name_is_a_hit() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub struct Alpha;\nimpl Alpha { pub fn run(&self) {} }\n\
             pub struct Beta;\nimpl Beta { pub fn run(&self) {} }\n\
             pub fn make() -> (Alpha, Beta) { (Alpha, Beta) }\n",
        ),
        (
            "crates/b/src/lib.rs",
            "use a::Alpha;\npub fn go(x: &Alpha) { x.run(); a::make(); }\n",
        ),
    ]);
    assert!(hit(&hits, "Alpha::run").is_none(), "{hits:?}");
    let beta = hit(&hits, "Beta::run").expect("Beta::run has no caller");
    assert!(beta.callers.is_empty());
}

#[test]
fn a_name_in_a_comment_a_string_or_doc_prose_is_not_a_caller() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub fn lonely() {}\npub fn used() {}\n",
        ),
        (
            "crates/b/src/lib.rs",
            "// a::lonely() would be called here\n/* a::lonely() */\n\
             /// Unlike [`a::lonely`], this calls `a::lonely()` in prose only.\n\
             pub fn f() -> &'static str { a::used(); \"a::lonely()\" }\n",
        ),
    ]);
    assert!(hit(&hits, "used").is_none(), "{hits:?}");
    assert!(hit(&hits, "lonely")
        .expect("lonely is uncalled")
        .callers
        .is_empty());
}

#[test]
fn doctest_and_integration_callers_are_test_callers() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "/// ```\n/// # use a::documented;\n/// documented();\n/// ```\npub fn documented() {}\n\
             /// ```text\n/// a::tested();\n/// ```\n/// Prose after a text fence: a::tested();\n\
             pub fn tested() {}\n",
        ),
        ("crates/a/tests/t.rs", "#[test]\nfn t() { a::tested(); }\n"),
    ]);
    let documented = hit(&hits, "documented").expect("a doctest is no product caller");
    assert_eq!(documented.callers, BTreeSet::from([Class::Doctest]));
    let tested = hit(&hits, "tested").expect("a test is no product caller");
    assert_eq!(tested.callers, BTreeSet::from([Class::Integration]));
}

#[test]
fn a_crate_macro_target_is_called_where_the_macro_is_invoked() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "#[macro_export]\nmacro_rules! bump { ($n:expr) => { $crate::add_count($n) }; }\n\
             #[macro_export]\nmacro_rules! probe { () => { $crate::probe_only() }; }\n\
             pub fn add_count(_n: u64) {}\npub fn probe_only() {}\n",
        ),
        ("crates/b/src/lib.rs", "pub fn work() { a::bump!(1); }\n"),
        ("crates/a/tests/t.rs", "#[test]\nfn t() { a::probe!(); }\n"),
    ]);
    assert!(hit(&hits, "add_count").is_none(), "{hits:?}");
    let probe = hit(&hits, "probe_only").expect("invoked only from a test");
    assert_eq!(probe.callers, BTreeSet::from([Class::Integration]));
}

#[test]
fn a_column_zero_cfg_test_item_mid_file_ends_at_its_brace() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub fn before() {}\n#[cfg(test)]\npub fn helper() -> u32 {\n    before();\n    1\n}\n\
             pub fn after() {}\npub fn tail() {}\n",
        ),
        (
            "crates/b/src/lib.rs",
            "#[cfg(test)]\nfn t() {\n    a::after();\n}\npub fn g() {\n    a::before();\n    a::tail();\n}\n",
        ),
    ]);
    assert!(
        hit(&hits, "helper").is_none(),
        "a test-only item is no definition: {hits:?}"
    );
    assert!(
        hit(&hits, "before").is_none() && hit(&hits, "tail").is_none(),
        "{hits:?}"
    );
    let after = hit(&hits, "after").expect("after the test item, still audited");
    assert_eq!(after.callers, BTreeSet::from([Class::Unit]));
}

#[test]
fn free_functions_resolve_by_module_not_by_name() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub mod checkpoint;\npub mod store;\n",
        ),
        ("crates/a/src/checkpoint.rs", "pub fn save() {}\n"),
        ("crates/a/src/store.rs", "pub fn save() {}\n"),
        (
            "crates/c/src/lib.rs",
            "pub struct Store;\nimpl Store { pub fn wipe_node(&self) {} }\n",
        ),
        (
            "crates/b/src/lib.rs",
            "use a::store::save;\nfn wipe_node(_s: &c::Store) {}\n\
             pub fn g(s: &c::Store) { save(); wipe_node(s); }\n",
        ),
    ]);
    assert_eq!(
        hits.iter().filter(|h| h.name == "save").count(),
        1,
        "{hits:?}"
    );
    assert_eq!(
        hit(&hits, "save").unwrap().file,
        "crates/a/src/checkpoint.rs"
    );
    assert!(
        hit(&hits, "Store::wipe_node").is_some(),
        "a private namesake is no caller"
    );
}

#[test]
fn the_list_wants_a_known_reason_class_and_a_reason() {
    let ok = "# comment\n\ncrates/a/src/lib.rs fn f | paper: pinned by tests/x.rs\n";
    assert_eq!(read_list(ok).unwrap().len(), 1);
    for bad in [
        "crates/a/src/lib.rs fn f\n",
        "crates/a/src/lib.rs fn f | paper:\n",
        "crates/a/src/lib.rs fn f | convenient: tests like it\n",
        "crates/a/src/lib.rs fn f | paper: x\ncrates/a/src/lib.rs fn f | paper: y\n",
    ] {
        assert!(read_list(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn a_reason_is_checked_against_the_items_own_callers() {
    let hits = fixture(&[
        (
            "crates/a/src/lib.rs",
            "pub struct Svc;\nimpl Svc {\n    pub fn new() -> Svc { Svc }\n    pub fn detach(&self) {}\n}\n\
             pub fn later() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::Svc::new().detach(); }\n}\n",
        ),
        ("examples/demo.rs", "fn main() { let _ = a::Svc::new(); }\n"),
    ]);
    let detach = hit(&hits, "Svc::detach").expect("a unit test is no product caller");
    assert_eq!(detach.callers, BTreeSet::from([Class::Unit]));
    let list = "crates/a/src/lib.rs struct Svc | driven-api: the demo builds one\n\
                crates/a/src/lib.rs method Svc::new | driven-api: the demo builds one\n\
                crates/a/src/lib.rs method Svc::detach | driven-api: its type is driven\n\
                crates/a/src/lib.rs fn later | planned-caller: an open item calls it\n";
    let problems = check(&hits, &read_list(list).unwrap());
    assert_eq!(problems.len(), 2, "{problems:#?}");
    assert!(problems[0].contains("`planned-caller`") && problems[0].contains("fn later"));
    assert!(problems[1].contains("`driven-api`") && problems[1].contains("Svc::detach"));
}
