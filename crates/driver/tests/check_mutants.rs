//! Checker message stability over a corpus of ill-typed mutants.
//!
//! Every program of the paper corpus (the committed `.ft` examples and
//! the figure programs) is re-rendered from its token stream once per
//! deterministic single-token mutation:
//!
//! - an integer literal becomes the unit value `()`, and `()` becomes `0`;
//! - the type `int` becomes `unit`, and `unit` becomes `int`;
//! - a register becomes the next one (`r1` → `r2`, …, `r7` → `ra`,
//!   `ra` → `r1`), which mostly gives it the wrong type;
//! - an argument (a literal or name between `(`/`,` and `,`/`)`) is dropped.
//!
//! Each mutant goes through the same parse + typecheck as
//! `funtal check`, and its verdict (the type, or the rendered
//! `error[stage]: message` line) is compared byte for byte against
//! `tests/golden/check_mutants.golden`. Mutants that no longer parse
//! are counted but not listed: this corpus pins the checker, not the
//! parser. Refresh after an intentional message change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p funtal-driver --test check_mutants
//! ```

use std::fmt::Write as _;
use std::path::Path;

use funtal_driver::{FunTalError, Pipeline};
use funtal_parser::lex::{lex, TokKind};

/// The source text of one token (the inverse of the lexer).
fn text(kind: &TokKind) -> String {
    match kind {
        TokKind::Ident(s) => s.clone(),
        TokKind::Int(n) => n.to_string(),
        TokKind::LParen => "(".into(),
        TokKind::RParen => ")".into(),
        TokKind::LBrack => "[".into(),
        TokKind::RBrack => "]".into(),
        TokKind::LBrace => "{".into(),
        TokKind::RBrace => "}".into(),
        TokKind::Lt => "<".into(),
        TokKind::Gt => ">".into(),
        TokKind::Comma => ",".into(),
        TokKind::Semi => ";".into(),
        TokKind::Colon => ":".into(),
        TokKind::ColonColon => "::".into(),
        TokKind::Dot => ".".into(),
        TokKind::Star => "*".into(),
        TokKind::Plus => "+".into(),
        TokKind::Minus => "-".into(),
        TokKind::Arrow => "->".into(),
        TokKind::Eq => "=".into(),
        TokKind::Eof => String::new(),
    }
}

static REGISTERS: [&str; 8] = ["r1", "r2", "r3", "r4", "r5", "r6", "r7", "ra"];

/// One mutation: what it does, and the token span `start..start+len`
/// it replaces by `with`.
struct Mutation {
    what: String,
    start: usize,
    len: usize,
    with: &'static [&'static str],
}

/// The mutations at token `i`.
fn mutations(toks: &[String], i: usize) -> Vec<Mutation> {
    let t = toks[i].as_str();
    let prev = i.checked_sub(1).map(|j| toks[j].as_str());
    let next = toks.get(i + 1).map(String::as_str);
    let mut out = Vec::new();
    let mut replace = |what: String, len: usize, with: &'static [&'static str]| {
        out.push(Mutation {
            what: format!("{what} -> `{}`", with.join(" ")),
            start: i,
            len,
            with,
        })
    };
    if t.bytes().all(|b| b.is_ascii_digit()) {
        replace(format!("`{t}`"), 1, &["(", ")"]);
    }
    if t == "(" && next == Some(")") {
        replace("`()`".into(), 2, &["0"]);
    }
    if t == "int" {
        replace("`int`".into(), 1, &["unit"]);
    }
    if t == "unit" {
        replace("`unit`".into(), 1, &["int"]);
    }
    if let Some(k) = REGISTERS.iter().position(|r| *r == t) {
        let succ = &REGISTERS[(k + 1) % REGISTERS.len()];
        replace(format!("`{t}`"), 1, std::slice::from_ref(succ));
    }
    // Drop an argument together with one adjacent comma, so the list
    // stays well formed: `f(a, b)` → `f(b)` / `f(a)`, `f(a)` → `f()`.
    let is_atom = t.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    let (start, len) = match (prev, next) {
        (Some(","), Some(")" | ",")) => (i - 1, 2),
        (Some("("), Some(",")) => (i, 2),
        (Some("("), Some(")")) => (i, 1),
        _ => (i, 0),
    };
    if is_atom && len > 0 {
        out.push(Mutation {
            what: format!("drop `{t}`"),
            start,
            len,
            with: &[],
        });
    }
    out
}

/// `funtal check`'s verdict on one source: the type, or the error line.
fn verdict(p: &Pipeline, src: &str) -> Result<String, FunTalError> {
    p.check_source(src).map(|c| c.ty.to_string())
}

fn render_corpus() -> String {
    let p = Pipeline::new();
    let mut out = String::new();
    for (name, src) in funtal_driver::corpus::paper_corpus() {
        let toks: Vec<String> = lex(&src)
            .expect("corpus programs lex")
            .iter()
            .map(|t| text(&t.kind))
            .filter(|s| !s.is_empty())
            .collect();
        // The token rendering itself must not change the verdict.
        let original = verdict(&p, &src).expect("corpus programs check");
        assert_eq!(
            verdict(&p, &toks.join(" ")).expect("re-rendered program checks"),
            original,
            "{name}: re-rendering changed the verdict"
        );
        let mut unparsable = 0;
        let mut lines = String::new();
        for i in 0..toks.len() {
            for m in mutations(&toks, i) {
                let mut mutant: Vec<&str> = toks[..m.start].iter().map(String::as_str).collect();
                mutant.extend(m.with);
                mutant.extend(toks[m.start + m.len..].iter().map(String::as_str));
                let shown = match verdict(&p, &mutant.join(" ")) {
                    Ok(ty) => format!("ok: {ty}"),
                    Err(e) if matches!(e.stage(), "lex" | "parse") => {
                        unparsable += 1;
                        continue;
                    }
                    Err(e) => e.to_string(),
                };
                writeln!(lines, "{name} #{i} {}: {shown}", m.what).unwrap();
            }
        }
        writeln!(
            out,
            "# {name}: {original}, {unparsable} unparsable mutant(s)"
        )
        .unwrap();
        out.push_str(&lines);
    }
    out
}

#[test]
fn checker_verdicts_on_mutants_match_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/check_mutants.golden");
    let got = render_corpus();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("writing golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if want != got {
        let first = want
            .lines()
            .zip(got.lines())
            .find(|(w, g)| w != g)
            .map(|(w, g)| format!("first difference:\n  want: {w}\n  got:  {g}"))
            .unwrap_or_else(|| "one output is a prefix of the other".into());
        panic!(
            "checker verdicts on the mutant corpus changed ({} vs {} lines); {first}\n\
             If the change is intentional, refresh with \
             UPDATE_GOLDEN=1 cargo test -p funtal-driver --test check_mutants",
            want.lines().count(),
            got.lines().count()
        );
    }
}
