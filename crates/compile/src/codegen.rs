//! The MiniF → T compiler.
//!
//! Each definition `f(x̄) = e` compiles to a family of code blocks whose
//! entry block has exactly the Fig 9 translation type of
//! `(int, …, int) → int`:
//!
//! ```text
//! f : code[ζ: stk, ε: ret]{ra: box ∀[].{r1: int; ζ} ε; intⁿ :: ζ} ra
//! ```
//!
//! so compiled functions flow through boundaries as F values — the JIT
//! replacement move of the paper's §6.
//!
//! ## Compilation scheme
//!
//! A stack machine: temporaries live on the stack, results in `r1`,
//! `r2` is scratch. Non-leaf functions spill the return continuation to
//! the stack in a prologue block (`salloc 1; sst 0, ra; jmp body`),
//! moving the return marker to a stack slot so that `call` is legal
//! (Fig 2 has no call rule for register markers). During compilation
//! the static state is the temp depth `k`; the stack typing is always
//!
//! ```text
//! int^k :: cont? :: intⁿ :: ζ        (cont present iff non-leaf)
//! ```
//!
//! - `if0` splits blocks (`bnz` to the else block, fall-through then,
//!   both jumping to a join block expecting the result in `r1`);
//! - calls protect everything below the pushed arguments and resume in
//!   a fresh return block whose marker is the saved continuation's
//!   slot (`call g {σ0, k₀}` — the Fig 2 marker arithmetic
//!   `i + k − j` appears here as `(k₀+nargs) + 0 − nargs = k₀`);
//! - with [`CodegenOpts::tail_call_opt`], self tail calls overwrite the
//!   argument slots and jump back to a loop header — compiling Fig 17's
//!   `factF` into exactly the loop shape of `factT`.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use funtal::LoweredProgram;
use funtal_syntax::build as b;
use funtal_syntax::{
    CodeBlock, FExpr, HeapVal, Instr, InstrSeq, Label, RetMarker, SmallVal, StackTail, StackTy,
    TComp, TTy, Terminator, TyVar,
};

use crate::lang::{Def, MExpr, Program};

/// Code generation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenOpts {
    /// Rewrite self tail calls into jumps to a loop header.
    pub tail_call_opt: bool,
}

/// The result of compiling a whole program: one heap fragment holding
/// every definition's blocks.
///
/// Blocks are emitted behind [`Arc`] so that every [`Compiled::wrap`]
/// call — and every boundary crossing of the wrapped component at
/// runtime — shares the same instruction sequences instead of
/// re-allocating them per call.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// All generated blocks, shared.
    pub heap: Vec<(Label, Arc<HeapVal>)>,
    /// The entry point of each definition.
    pub(crate) entries: BTreeMap<String, Entry>,
}

/// A compiled definition's entry point.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// The label of its first block.
    pub(crate) label: Label,
    /// Its arity.
    pub(crate) arity: usize,
    /// The lowering of the definition's [`wrap`](Compiled::wrap),
    /// built the first time it is asked for.
    lowered: OnceLock<LoweredProgram>,
}

impl Compiled {
    /// Wraps a compiled definition as an F expression: a boundary that
    /// evaluates to the code pointer (the Fig 10 value translation turns
    /// it into a wrapper lambda when it crosses into F).
    pub fn wrap(&self, name: &str) -> FExpr {
        let Entry { label, arity, .. } = &self.entries[name];
        let aty = b::arrow(vec![b::fint(); *arity], b::fint());
        let t_aty = funtal::fty_to_tty(&aty);
        let zp = format!("zp_{name}");
        FExpr::Boundary {
            ty: aty,
            sigma_out: None,
            comp: Box::new(TComp {
                seq: InstrSeq::new(
                    vec![
                        b::protect(vec![], &zp),
                        b::mv(b::r1(), b::loc(label.as_str())),
                    ],
                    Terminator::Halt {
                        ty: t_aty,
                        sigma: StackTy::var(zp.as_str()),
                        val: b::r1(),
                    },
                ),
                heap: self.heap.iter().cloned().collect(),
            }),
        }
    }

    /// The lowered [`wrap`](Compiled::wrap) of a definition, built on
    /// the first call and shared by every later one, or `None` if there
    /// is no such definition.
    pub fn lowered(&self, name: &str) -> Option<&LoweredProgram> {
        let entry = self.entries.get(name)?;
        Some(
            entry
                .lowered
                .get_or_init(|| funtal::prelower(&self.wrap(name))),
        )
    }

    /// Total number of generated blocks.
    pub fn block_count(&self) -> usize {
        self.heap.len()
    }
}

/// Compiles every definition of a program into one heap fragment.
pub fn compile_program(p: &Program, opts: CodegenOpts) -> Compiled {
    let mut heap = Vec::new();
    let mut entries = BTreeMap::new();
    for def in p.defs.values() {
        entries.insert(
            def.name.clone(),
            Entry {
                label: Label::new(def.name.as_str()),
                arity: def.params.len(),
                lowered: OnceLock::new(),
            },
        );
        heap.extend(
            compile_def(def, opts)
                .into_iter()
                .map(|(l, hv)| (l, Arc::new(hv))),
        );
    }
    Compiled { heap, entries }
}

/// The continuation type `box ∀[].{r1: int; ζ} ε`.
fn cont_ty() -> TTy {
    b::code_ty(
        vec![],
        b::chi([(b::r1(), b::int())]),
        b::zvar("z"),
        b::q_var("e"),
    )
}

/// `[stk(ζ), ret(ε)]` — the standard intra-function instantiation.
fn std_insts() -> Vec<funtal_syntax::Inst> {
    vec![b::i_stk(b::zvar("z")), b::i_ret(b::q_var("e"))]
}

fn jump_to(label: &str) -> Terminator {
    Terminator::Jmp(SmallVal::loc(label).instantiate(std_insts()))
}

/// Whether compilation of an expression fell through (result in `r1`)
/// or terminated the current block (a rewritten tail call).
#[derive(Clone, Copy, PartialEq, Debug)]
enum Flow {
    FallThrough,
    Diverted,
}

struct OpenBlock {
    label: Label,
    chi: funtal_syntax::RegFileTy,
    instrs: Vec<Instr>,
    entry_k: usize,
}

struct Builder<'d> {
    def: &'d Def,
    opts: CodegenOpts,
    nonleaf: bool,
    n: usize,
    k: usize,
    counter: usize,
    blocks: Vec<(Label, CodeBlock)>,
    current: Option<OpenBlock>,
    /// [`cont_ty`], built once: every block of the definition shares it.
    cont: TTy,
}

impl<'d> Builder<'d> {
    fn new(def: &'d Def, opts: CodegenOpts) -> Self {
        Builder {
            def,
            opts,
            nonleaf: !def.body.is_call_free(),
            n: def.params.len(),
            k: 0,
            counter: 0,
            blocks: Vec::new(),
            current: None,
            cont: cont_ty(),
        }
    }

    /// The stack typing at temp depth `k`.
    fn sigma_at(&self, k: usize) -> StackTy {
        let mut prefix = vec![b::int(); k];
        if self.nonleaf {
            prefix.push(self.cont.clone());
        }
        prefix.extend(std::iter::repeat_n(b::int(), self.n));
        StackTy {
            prefix,
            tail: StackTail::Var(TyVar::new("z")),
        }
    }

    /// The return marker at temp depth `k`.
    fn q_at(&self, k: usize) -> RetMarker {
        if self.nonleaf {
            RetMarker::Stack(k)
        } else {
            RetMarker::Reg(b::ra())
        }
    }

    /// Base register-file typing for generated blocks.
    fn base_chi(&self) -> Vec<(funtal_syntax::Reg, TTy)> {
        if self.nonleaf {
            vec![]
        } else {
            vec![(b::ra(), self.cont.clone())]
        }
    }

    /// The stack slot of parameter `x` at the current depth.
    fn slot_of(&self, x: &str) -> usize {
        let idx = self
            .def
            .params
            .iter()
            .position(|p| p == x)
            .expect("validated variable");
        self.k + usize::from(self.nonleaf) + (self.n - 1 - idx)
    }

    fn fresh_label(&mut self, hint: &str) -> Label {
        self.counter += 1;
        Label::new(format!("{}_{hint}{}", self.def.name, self.counter))
    }

    fn emit(&mut self, i: Instr) {
        self.current.as_mut().expect("open block").instrs.push(i);
    }

    fn start_block(&mut self, label: Label, extra_chi: Vec<(funtal_syntax::Reg, TTy)>) {
        assert!(self.current.is_none(), "previous block not finished");
        let mut pairs = self.base_chi();
        pairs.extend(extra_chi);
        self.current = Some(OpenBlock {
            label,
            chi: b::chi(pairs),
            instrs: Vec::new(),
            entry_k: self.k,
        });
    }

    fn finish_block(&mut self, term: Terminator) {
        let open = self.current.take().expect("open block");
        let block = CodeBlock {
            delta: vec![b::d_stk("z"), b::d_ret("e")],
            chi: open.chi,
            sigma: self.sigma_at(open.entry_k),
            q: self.q_at(open.entry_k),
            body: InstrSeq::new(open.instrs, term),
        };
        self.blocks.push((open.label, block));
    }

    fn push_temp(&mut self) {
        self.emit(b::salloc(1));
        self.emit(b::sst(0, b::r1()));
        self.k += 1;
    }

    fn pop_temp_into_r2(&mut self) {
        self.emit(b::sld(b::r2(), 0));
        self.emit(b::sfree(1));
        self.k -= 1;
    }

    /// Compiles `e`, leaving the result in `r1` on fall-through.
    fn expr(&mut self, e: &MExpr, tail: bool) -> Flow {
        match e {
            MExpr::Var(x) => {
                let slot = self.slot_of(x);
                self.emit(b::sld(b::r1(), slot));
                Flow::FallThrough
            }
            MExpr::Int(n) => {
                self.emit(b::mv(b::r1(), b::int_v(*n)));
                Flow::FallThrough
            }
            MExpr::Binop { op, lhs, rhs } => {
                self.expr(lhs, false);
                self.push_temp();
                self.expr(rhs, false);
                self.pop_temp_into_r2();
                self.emit(Instr::Arith {
                    op: *op,
                    rd: b::r1(),
                    rs: b::r2(),
                    src: b::reg(b::r1()),
                });
                Flow::FallThrough
            }
            MExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond, false);
                let else_l = self.fresh_label("else");
                let join_l = self.fresh_label("join");
                let entry_k = self.k;
                self.emit(b::bnz(
                    b::r1(),
                    SmallVal::loc(else_l.as_str()).instantiate(std_insts()),
                ));
                // then branch (fall-through path of bnz).
                let tf = self.expr(then_branch, tail);
                if tf == Flow::FallThrough {
                    debug_assert_eq!(self.k, entry_k);
                    self.finish_block(jump_to(join_l.as_str()));
                }
                // else branch.
                self.k = entry_k;
                self.start_block(else_l, vec![]);
                let ef = self.expr(else_branch, tail);
                if ef == Flow::FallThrough {
                    debug_assert_eq!(self.k, entry_k);
                    self.finish_block(jump_to(join_l.as_str()));
                }
                if tf == Flow::Diverted && ef == Flow::Diverted {
                    return Flow::Diverted;
                }
                self.k = entry_k;
                self.start_block(join_l, vec![(b::r1(), b::int())]);
                Flow::FallThrough
            }
            MExpr::Call { callee, args } => {
                let is_self_tail =
                    tail && self.opts.tail_call_opt && *callee == self.def.name && self.nonleaf;
                let k0 = self.k;
                for a in args {
                    self.expr(a, false);
                    self.push_temp();
                }
                let nargs = args.len();
                if is_self_tail {
                    // Overwrite the old argument slots with the freshly
                    // computed ones, drop all temporaries, and jump to
                    // the loop header.
                    for i in 1..=nargs {
                        let from = nargs - i;
                        let to = (k0 + nargs) + 1 + (self.n - i);
                        self.emit(b::sld(b::r1(), from));
                        self.emit(b::sst(to, b::r1()));
                    }
                    self.emit(b::sfree(nargs + k0));
                    self.finish_block(jump_to(&format!("{}_loop", self.def.name)));
                    self.k = k0;
                    return Flow::Diverted;
                }
                // Generic call: install the return block's address and
                // transfer; resume in the return block at depth k0.
                let ret_l = self.fresh_label("ret");
                self.emit(b::mv(
                    b::ra(),
                    SmallVal::loc(ret_l.as_str()).instantiate(std_insts()),
                ));
                let protected = self.sigma_at(k0);
                self.finish_block(Terminator::Call {
                    target: SmallVal::loc(callee.as_str()),
                    sigma: protected,
                    q: RetMarker::Stack(k0),
                });
                self.k = k0;
                self.start_block(ret_l, vec![(b::r1(), b::int())]);
                Flow::FallThrough
            }
        }
    }
}

/// Compiles one definition into blocks (entry block named after the
/// definition).
pub(crate) fn compile_def(def: &Def, opts: CodegenOpts) -> Vec<(Label, HeapVal)> {
    let mut bld = Builder::new(def, opts);
    let n = bld.n;
    let entry_label = Label::new(def.name.as_str());

    if bld.nonleaf {
        // Entry block: spill ra (the prologue), jump to the body block.
        // Its σ/q describe the *pre-prologue* state, so it is built by
        // hand.
        let body_label = if opts.tail_call_opt && has_self_tail(&def.body, &def.name, true) {
            format!("{}_loop", def.name)
        } else {
            format!("{}_body", def.name)
        };
        let entry_block = CodeBlock {
            delta: vec![b::d_stk("z"), b::d_ret("e")],
            chi: b::chi([(b::ra(), bld.cont.clone())]),
            sigma: StackTy {
                prefix: vec![b::int(); n],
                tail: StackTail::Var(TyVar::new("z")),
            },
            q: RetMarker::Reg(b::ra()),
            body: InstrSeq::new(vec![b::salloc(1), b::sst(0, b::ra())], jump_to(&body_label)),
        };
        bld.blocks.push((entry_label, entry_block));
        bld.start_block(Label::new(body_label), vec![]);
    } else {
        bld.start_block(entry_label, vec![]);
    }

    let flow = bld.expr(&def.body, true);
    if flow == Flow::FallThrough {
        debug_assert_eq!(bld.k, 0);
        if bld.nonleaf {
            bld.emit(b::sld(b::ra(), 0));
            bld.emit(b::sfree(1 + n));
        } else {
            bld.emit(b::sfree(n));
        }
        bld.finish_block(Terminator::Ret {
            target: b::ra(),
            val: b::r1(),
        });
    } else {
        debug_assert!(bld.current.is_none(), "diverted flow leaves no open block");
    }

    bld.blocks
        .into_iter()
        .map(|(l, blk)| (l, HeapVal::Code(blk)))
        .collect()
}

fn has_self_tail(e: &MExpr, name: &str, tail: bool) -> bool {
    match e {
        MExpr::Var(_) | MExpr::Int(_) => false,
        MExpr::Binop { lhs, rhs, .. } => {
            has_self_tail(lhs, name, false) || has_self_tail(rhs, name, false)
        }
        MExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            has_self_tail(cond, name, false)
                || has_self_tail(then_branch, name, tail)
                || has_self_tail(else_branch, name, tail)
        }
        MExpr::Call { callee, args } => {
            (tail && callee == name) || args.iter().any(|a| has_self_tail(a, name, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{factorial_program, fib_program, Def, Program};
    use funtal::machine::eval_to_value;
    use funtal::typecheck;
    use funtal_syntax::build::*;
    use funtal_syntax::ArithOp;

    fn run_compiled(p: &Program, opts: CodegenOpts, name: &str, args: &[i64]) -> i64 {
        let compiled = compile_program(p, opts);
        let f = compiled.wrap(name);
        let call = app(f, args.iter().map(|n| fint_e(*n)).collect());
        match eval_to_value(&call, 10_000_000).unwrap() {
            funtal_syntax::FExpr::Int(n) => n,
            other => panic!("expected an int, got {other}"),
        }
    }

    #[test]
    fn leaf_function_compiles_and_typechecks() {
        let p = Program::new([Def::new(
            "addmul",
            &["x", "y"],
            MExpr::bin(
                ArithOp::Add,
                MExpr::bin(ArithOp::Mul, MExpr::v("x"), MExpr::v("x")),
                MExpr::v("y"),
            ),
        )])
        .unwrap();
        let compiled = compile_program(&p, CodegenOpts::default());
        let f = compiled.wrap("addmul");
        assert_eq!(
            typecheck(&app(f, vec![fint_e(5), fint_e(3)])).unwrap(),
            fint()
        );
        assert_eq!(
            run_compiled(&p, CodegenOpts::default(), "addmul", &[5, 3]),
            28
        );
    }

    #[test]
    fn conditional_compiles() {
        let p = Program::new([Def::new(
            "absish",
            &["x"],
            MExpr::if0(
                MExpr::v("x"),
                MExpr::i(100),
                MExpr::bin(ArithOp::Mul, MExpr::v("x"), MExpr::v("x")),
            ),
        )])
        .unwrap();
        assert_eq!(
            run_compiled(&p, CodegenOpts::default(), "absish", &[0]),
            100
        );
        assert_eq!(
            run_compiled(&p, CodegenOpts::default(), "absish", &[-4]),
            16
        );
    }

    #[test]
    fn recursive_factorial_compiles_both_ways() {
        let p = factorial_program();
        for opts in [
            CodegenOpts {
                tail_call_opt: false,
            },
            CodegenOpts {
                tail_call_opt: true,
            },
        ] {
            for n in 0..8 {
                assert_eq!(
                    run_compiled(&p, opts, "fact", &[n]),
                    p.eval("fact", &[n], 100).unwrap(),
                    "fact({n}) with {opts:?}"
                );
            }
        }
    }

    #[test]
    fn tail_recursive_loop_compiles() {
        // sum(n, acc) = if0 n { acc } { sum(n-1, acc+n) } — a genuine
        // self tail call, loopified under tail_call_opt.
        let p = Program::new([Def::new(
            "sum",
            &["n", "acc"],
            MExpr::if0(
                MExpr::v("n"),
                MExpr::v("acc"),
                MExpr::call(
                    "sum",
                    vec![
                        MExpr::bin(ArithOp::Sub, MExpr::v("n"), MExpr::i(1)),
                        MExpr::bin(ArithOp::Add, MExpr::v("acc"), MExpr::v("n")),
                    ],
                ),
            ),
        )])
        .unwrap();
        for opts in [
            CodegenOpts {
                tail_call_opt: false,
            },
            CodegenOpts {
                tail_call_opt: true,
            },
        ] {
            assert_eq!(run_compiled(&p, opts, "sum", &[10, 0]), 55, "{opts:?}");
        }
        // The loopified version contains a *_loop block and no *_ret
        // block for the self call.
        let compiled = compile_program(
            &p,
            CodegenOpts {
                tail_call_opt: true,
            },
        );
        assert!(compiled.heap.iter().any(|(l, _)| l.as_str() == "sum_loop"));
        assert!(!compiled
            .heap
            .iter()
            .any(|(l, _)| l.as_str().contains("_ret")));
    }

    #[test]
    fn dag_calls_compile() {
        let p = fib_program();
        assert_eq!(run_compiled(&p, CodegenOpts::default(), "fib", &[10]), 55);
        assert_eq!(
            run_compiled(
                &p,
                CodegenOpts {
                    tail_call_opt: true
                },
                "double_fib",
                &[8]
            ),
            42
        );
    }

    #[test]
    fn compiled_components_typecheck() {
        // The wrapped boundary for every example program typechecks as
        // an F value of the right arrow type.
        for (p, name, arity) in [
            (factorial_program(), "fact", 1),
            (fib_program(), "fib", 1),
            (fib_program(), "double_fib", 1),
        ] {
            for opts in [
                CodegenOpts {
                    tail_call_opt: false,
                },
                CodegenOpts {
                    tail_call_opt: true,
                },
            ] {
                let compiled = compile_program(&p, opts);
                let f = compiled.wrap(name);
                let ty = typecheck(&f).unwrap();
                assert_eq!(ty, arrow(vec![fint(); arity], fint()), "{name} {opts:?}");
            }
        }
    }
}
