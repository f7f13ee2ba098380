//! Seeded job streams and their reference results.
//!
//! Every job is a JSON line of the `funtal serve` protocol. Its
//! expected result line is computed before any timer starts, by
//! evaluators independent of the engine under test: the Fig 8
//! substitution machine for FT jobs (value, type and exact step
//! counts), and MiniF's own `Program::eval` for the value of a compiled
//! call. Broken jobs expect the error of their intended stage.

use std::collections::HashSet;

use funtal::machine::{EvalStrategy, FtOutcome};
use funtal_compile::codegen::CodegenOpts;
use funtal_driver::json::{obj, Json};
use funtal_driver::{FunTalError, Job, JobKind, JobOutcome, JobSuccess, Pipeline};
use funtal_equiv::gen::{gen_program, SplitMix};
use funtal_syntax::FTy;

/// One timed job: its protocol line, its class, and the result line
/// the engine must print for it.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchJob {
    pub line: String,
    pub class: usize,
    pub expected: String,
}

/// A generator seeded from the run's seed and a per-stream tag, so
/// streams of one run are independent of each other.
pub fn rng(seed: u64, stream: u64) -> SplitMix {
    let mut mix = SplitMix::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix::new(mix.next_u64())
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Job counts per class for `total` jobs split by `shares` (summing to
/// 1000 per mille); rounding error goes to the first class.
pub fn quotas(total: usize, shares: &[usize]) -> Vec<usize> {
    assert_eq!(
        shares.iter().sum::<usize>(),
        1000,
        "shares must sum to 1000"
    );
    let mut counts: Vec<usize> = shares.iter().map(|s| total * s / 1000).collect();
    counts[0] += total - counts.iter().sum::<usize>();
    counts
}

/// A shuffled class sequence with exactly `quotas(total, shares)` of
/// each class.
pub fn class_sequence(total: usize, shares: &[usize], rng: &mut SplitMix) -> Vec<usize> {
    let mut seq: Vec<usize> = quotas(total, shares)
        .into_iter()
        .enumerate()
        .flat_map(|(class, n)| std::iter::repeat_n(class, n))
        .collect();
    shuffle(&mut seq, rng);
    seq
}

/// The protocol name of an execution tier.
pub fn tier_name(tier: EvalStrategy) -> &'static str {
    match tier {
        EvalStrategy::Substitution => "substitution",
        EvalStrategy::Environment => "environment",
        EvalStrategy::Bytecode => "bytecode",
    }
}

/// A `run` job line.
pub fn run_line(id: &str, src: &str, tier: EvalStrategy) -> String {
    obj([
        ("id", Json::Str(id.to_string())),
        ("cmd", Json::Str("run".to_string())),
        ("src", Json::Str(src.to_string())),
        ("tier", Json::Str(tier_name(tier).to_string())),
    ])
    .to_string()
}

/// A `compile` job line, optionally calling a definition.
pub fn compile_line(id: &str, src: &str, tco: bool, call: Option<(&str, &[i64])>) -> String {
    let mut fields = vec![
        ("id", Json::Str(id.to_string())),
        ("cmd", Json::Str("compile".to_string())),
        ("src", Json::Str(src.to_string())),
        ("tco", Json::Bool(tco)),
    ];
    if let Some((name, args)) = call {
        fields.push(("call", Json::Str(name.to_string())));
        fields.push((
            "args",
            Json::Arr(args.iter().map(|a| Json::Int(*a)).collect()),
        ));
    }
    obj(fields).to_string()
}

/// The result line the engine must print for `line`, from the
/// independent evaluators.
pub fn expected_line(line: &str) -> String {
    let v = Json::parse(line).expect("generated job lines are JSON");
    let job = Job::from_json(&v, "job").expect("generated job lines are valid jobs");
    let (cmd, result) = match &job.kind {
        JobKind::Run { src, .. } => ("run", reference_run(src)),
        JobKind::Compile { src, tco, call } => {
            ("compile", reference_compile(src, *tco, call.as_ref()))
        }
        other => panic!("the benchmark generates no {other:?} jobs"),
    };
    JobOutcome {
        id: job.id,
        cmd,
        result,
    }
    .to_json()
    .to_string()
}

/// An FT `run` on the Fig 8 substitution machine.
fn reference_run(src: &str) -> Result<JobSuccess, FunTalError> {
    let oracle = Pipeline::new().with_strategy(EvalStrategy::Substitution);
    let (expr, _) = oracle.parse_spanned(src)?;
    let ty = oracle.check(&expr)?;
    let report = oracle.run_prechecked(&expr, ty)?;
    if matches!(report.outcome, FtOutcome::OutOfFuel) {
        return Err(FunTalError::OutOfFuel {
            fuel: oracle.fuel(),
        });
    }
    Ok(JobSuccess::Ran {
        ty: report.ty.to_string(),
        outcome: report.outcome,
        counts: report.counts,
        profile: None,
    })
}

/// A MiniF `compile`: the bundle's shape from an uncached compile, the
/// call's value from MiniF's own evaluator.
fn reference_compile(
    src: &str,
    tco: bool,
    call: Option<&(String, Vec<i64>)>,
) -> Result<JobSuccess, FunTalError> {
    let bundle = Pipeline::new()
        .with_codegen(CodegenOpts { tail_call_opt: tco })
        .compile_minif_source(src)?;
    let call = match call {
        None => None,
        Some((name, args)) => {
            let value = bundle.program.eval(name, args, 10_000)?;
            Some((
                name.clone(),
                args.clone(),
                funtal_syntax::build::fint_e(value).to_string(),
            ))
        }
    };
    Ok(JobSuccess::Compiled {
        defs: bundle
            .wrapped
            .iter()
            .map(|(name, _, ty)| (name.clone(), ty.to_string()))
            .collect(),
        blocks: bundle.block_count(),
        call,
    })
}

/// Distinct well-typed FT programs from `gen_program`: no rendering is
/// returned twice, so each is new to a fresh cache.
pub struct Programs {
    rng: SplitMix,
    seen: HashSet<String>,
}

impl Programs {
    pub fn new(rng: SplitMix) -> Programs {
        Programs {
            rng,
            seen: HashSet::new(),
        }
    }

    /// The next unseen program's source and type.
    pub fn next(&mut self) -> (String, FTy) {
        for _ in 0..10_000 {
            let p = gen_program(&mut self.rng, 2);
            let src = p.expr.to_string();
            if self.seen.insert(src.clone()) {
                return (src, p.ty);
            }
        }
        panic!("gen_program stopped producing new programs");
    }

    /// Marks a derived source as used; false if it already was.
    pub fn claim(&mut self, src: &str) -> bool {
        self.seen.insert(src.to_string())
    }
}

/// MiniF sources: the three recursive definitions the `serve_hot` pool
/// calls by name.
pub fn minif_fib() -> String {
    "fn fib(n) = if0 n { 0 } { if0 n - 1 { 1 } { fib(n - 1) + fib(n - 2) } }".to_string()
}

pub fn minif_fact() -> String {
    "fn fact(n) = if0 n { 1 } { fact(n - 1) * n }".to_string()
}

pub fn minif_sum_to() -> String {
    "fn sum_to(n, acc) = if0 n { acc } { sum_to(n - 1, acc + n) }".to_string()
}

/// A fresh MiniF program: one of five shapes with definition names
/// suffixed by `k` (so sources never repeat) and seeded constants.
/// Returns the source, the entry definition, and small call arguments.
pub fn gen_minif(rng: &mut SplitMix, k: usize) -> (String, String, Vec<i64>) {
    let c = 1 + rng.below(3) as i64;
    let mut small = |n: usize| rng.below(n + 1) as i64;
    match k % 5 {
        0 => (
            format!("fn fact{k}(n) = if0 n {{ {c} }} {{ fact{k}(n - 1) * n }}"),
            format!("fact{k}"),
            vec![small(6)],
        ),
        1 => (
            format!("fn sum{k}(n, acc) = if0 n {{ acc }} {{ sum{k}(n - 1, acc + n * {c}) }}"),
            format!("sum{k}"),
            vec![small(10), 0],
        ),
        2 => (
            format!(
                "fn fib{k}(n) = if0 n {{ {c} }} {{ if0 n - 1 {{ 1 }} {{ fib{k}(n - 1) + fib{k}(n - 2) }} }}"
            ),
            format!("fib{k}"),
            vec![small(8)],
        ),
        3 => (
            format!("fn poly{k}(x, y) = (x + {c}) * (y + {}) - x * {c}", small(5)),
            format!("poly{k}"),
            vec![small(9), small(9)],
        ),
        _ => (
            format!("fn sq{k}(x) = x * x\nfn h{k}(x, y) = sq{k}(x + {c}) + sq{k}(y) * {}", small(4)),
            format!("h{k}"),
            vec![small(9), small(9)],
        ),
    }
}

/// A truncated FT source that fails at the parse stage, or `None` if no
/// cut of this source does.
pub fn broken_parse(src: &str) -> Option<String> {
    let chars: Vec<char> = src.chars().collect();
    [2, 3, 1].iter().find_map(|num| {
        let cut: String = chars[..chars.len() * num / 4].iter().collect();
        (stage_of_error(&cut) == Some("parse")).then_some(cut)
    })
}

/// An FT source that parses but fails the typecheck: the program passed
/// to a lambda whose parameter type differs from the program's type.
pub fn broken_type(src: &str, ty: &FTy) -> String {
    let wrong = if *ty == FTy::Int { "unit" } else { "int" };
    format!("(lam[zb](xb: {wrong}). xb)({src})")
}

/// The stage at which the pipeline rejects an FT source, if any.
pub fn stage_of_error(src: &str) -> Option<&'static str> {
    let p = Pipeline::new();
    match p.parse_spanned(src) {
        Err(e) => Some(e.stage()),
        Ok((expr, _)) => p.check(&expr).err().map(|e| e.stage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_are_exact_and_sum_to_total() {
        assert_eq!(quotas(1000, &[450, 400, 130, 20]), vec![450, 400, 130, 20]);
        let q = quotas(1001, &[450, 400, 130, 20]);
        assert_eq!(q.iter().sum::<usize>(), 1001);
        let mut rng = rng(1, 2);
        let seq = class_sequence(200, &[500, 500], &mut rng);
        assert_eq!(seq.iter().filter(|c| **c == 1).count(), 100);
    }

    #[test]
    fn programs_never_repeat() {
        let mut p = Programs::new(rng(5, 1));
        let srcs: Vec<String> = (0..200).map(|_| p.next().0).collect();
        let distinct: HashSet<&String> = srcs.iter().collect();
        assert_eq!(distinct.len(), srcs.len());
    }

    #[test]
    fn broken_jobs_fail_at_their_intended_stage() {
        let mut p = Programs::new(rng(9, 1));
        let mut parse_broken = 0;
        for _ in 0..60 {
            let (src, ty) = p.next();
            assert_eq!(stage_of_error(&src), None, "{src}");
            if let Some(cut) = broken_parse(&src) {
                assert_eq!(stage_of_error(&cut), Some("parse"), "{cut}");
                parse_broken += 1;
            }
            let bad = broken_type(&src, &ty);
            assert_eq!(stage_of_error(&bad), Some("typecheck"), "{bad}");
        }
        assert!(
            parse_broken > 50,
            "only {parse_broken} of 60 sources truncate to a parse error"
        );
    }

    #[test]
    fn references_agree_with_known_values() {
        let line = compile_line("f", &minif_fib(), false, Some(("fib", &[10])));
        assert!(expected_line(&line).contains("\"value\":\"55\""));
        let line = run_line("r", "6 * 7", EvalStrategy::Bytecode);
        assert!(expected_line(&line).contains("\"value\":\"42\""));
        let mut rng = rng(3, 3);
        for k in 0..10 {
            let (src, name, args) = gen_minif(&mut rng, k);
            let line = compile_line("m", &src, k % 2 == 0, Some((&name, &args)));
            assert!(expected_line(&line).contains("\"ok\":true"), "{src}");
        }
    }
}
