//! Static fuel-bound inference by abstract interpretation.
//!
//! [`infer_fuel`] predicts, *without running the program*, exactly how
//! much fuel a pre-lowered program will consume. It walks the program
//! with its own evaluator — structurally a copy of the mixed CEK
//! machine, but charging cost from the shared table
//! ([`BcOp::fuel_cost`]) instead of decrementing fuel, and refusing
//! any T module whose static control-flow graph has a back edge
//! (data-dependent loop trip counts are not statically bounded).
//! Because FT is deterministic and programs are closed, the
//! collecting semantics of a loop-free program is a single trace, so
//! the abstract domain can stay concrete: the inference either
//! produces [`FuelBound::Exact`] — certified equal to the dynamic
//! measurement — or gives up with [`FuelBound::Unknown`].
//!
//! The tick model mirrors `machine_fast.rs` site for site: boundary
//! entry charges one step only when a heap fragment is merged;
//! binop/if0/β/unfold/projection charge one step when they fire; an
//! import's round-trip charges two on the F value's return (translate,
//! then the rewritten `mv`); `halt` charges one (boundary exit or
//! top-level); every T instruction charges [`BcOp::fuel_cost`] — so
//! fused superinstructions charge exactly their expansions. F-side
//! recursion is evaluated (unrolled) under a global abstract-step
//! budget; exceeding it also yields `Unknown`.
//!
//! `tests/fuel_bounds.rs` certifies the inference against the span
//! profiler: for every loop-free figure and example, the inferred
//! bound must equal `Profiler::total()` *exactly*.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use funtal_syntax::intern::{IExpr, IKind};
use funtal_syntax::{HeapVal, Mutability, Reg, SmallVal, TComp, WordVal};
use funtal_tal::machine::Memory;

use crate::bc_verify::module_regions;
use crate::machine_bc::{
    lower_comp, lower_renamed, single_block_module, BcModule, BcOp, BcTarget, LoweredProgram,
    NOT_CODE,
};
use crate::machine_fast::{
    f_to_t_fast, lam_parts, peel_count, t_to_f_fast, Closure, Env, FastHeapVal, FastMem, FastOp,
    FastVal, TWord,
};

/// A statically inferred fuel bound for a whole program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuelBound {
    /// The program consumes exactly this much fuel (certified against
    /// the profiler's dynamic measurement by the test suite).
    Exact(u64),
    /// No bound: the program enters a T module with a static loop,
    /// exceeds the abstract-step budget, or would fault at runtime.
    Unknown,
}

/// Infers the exact fuel consumption of a pre-lowered program, or
/// [`FuelBound::Unknown`] if any reachable T module has a static back
/// edge (or the abstract-step budget runs out). Inference never
/// executes the program through the real machine — it is a lower-time
/// analysis, independent of the dispatch loop it predicts.
pub fn infer_fuel(lp: &LoweredProgram) -> FuelBound {
    let mut m = AbsMachine::new(lp);
    match m.run(AbsCtrl::Eval(lp.iexpr.clone(), Env::default())) {
        Ok(()) => FuelBound::Exact(m.cost),
        Err(Stop) => FuelBound::Unknown,
    }
}

/// Abstract interpretation gave up (loop, budget, or a program that
/// would fault dynamically). All causes collapse to one outcome:
/// no certified bound.
struct Stop;

type AResult<T> = Result<T, Stop>;

/// Abstract evaluation steps before giving up. Generously above any
/// loop-free program in the suite; recursion through F closures can
/// legitimately reach it.
const STEP_BUDGET: u64 = 1_000_000;

/// A module bound into the abstract memory (the analogue of
/// `BcInstance`).
struct AbsInst {
    module: Arc<BcModule>,
    /// Fragment ordinal → flat-heap index.
    labels: Vec<u32>,
    /// The F environment `import` bodies close over.
    env: Env,
}

/// Where a heap cell's code enters (the analogue of `BcCell`).
struct Binding {
    inst: Rc<AbsInst>,
    off: u32,
    arity: usize,
}

enum AbsCtrl {
    Eval(IExpr, Env),
    Ret(FastVal),
    T(Rc<AbsInst>, u32),
}

enum Flow {
    Next(AbsCtrl),
    Done,
}

/// Mirror of `Frame` for the abstract machine.
enum AbsFrame {
    BinopL {
        op: funtal_syntax::ArithOp,
        rhs: IExpr,
        env: Env,
    },
    BinopR {
        op: funtal_syntax::ArithOp,
        lhs: FastVal,
    },
    If0 {
        then_branch: IExpr,
        else_branch: IExpr,
        env: Env,
    },
    AppFunc {
        args: Arc<[IExpr]>,
        env: Env,
    },
    AppArg {
        func: FastVal,
        done: Vec<FastVal>,
        args: Arc<[IExpr]>,
        env: Env,
    },
    FoldF {
        ann: Arc<funtal_syntax::FTy>,
    },
    UnfoldF,
    TupleF {
        done: Vec<FastVal>,
        es: Arc<[IExpr]>,
        env: Env,
    },
    ProjF {
        idx: usize,
    },
    BoundaryT {
        ty: Arc<funtal_syntax::FTy>,
    },
    ImportF {
        rd: Reg,
        ty: Arc<funtal_syntax::FTy>,
        saved: (Rc<AbsInst>, u32),
    },
}

struct AbsMachine<'a> {
    mem: FastMem,
    frames: Vec<AbsFrame>,
    /// Accumulated fuel charges.
    cost: u64,
    /// Remaining abstract steps.
    steps: u64,
    /// Pre-lowered modules by component identity (the analogue of the
    /// bytecode VM's seeded module table).
    seeded: HashMap<usize, (&'a Arc<TComp>, Arc<BcModule>)>,
    /// Heap index → binding for merged and lazily entered cells.
    bound: HashMap<u32, Binding>,
    /// Loop-freeness memo by module identity.
    loop_free: HashMap<usize, bool>,
}

impl<'a> AbsMachine<'a> {
    fn new(lp: &'a LoweredProgram) -> AbsMachine<'a> {
        AbsMachine {
            mem: FastMem::from_memory(&Memory::new()),
            frames: Vec::new(),
            cost: 0,
            steps: STEP_BUDGET,
            seeded: lp
                .modules
                .iter()
                .map(|(c, m)| (Arc::as_ptr(c) as usize, (c, m.clone())))
                .collect(),
            bound: HashMap::new(),
            loop_free: HashMap::new(),
        }
    }

    fn charge(&mut self, n: u64) {
        self.cost += n;
    }

    fn budget(&mut self) -> AResult<()> {
        if self.steps == 0 {
            return Err(Stop);
        }
        self.steps -= 1;
        Ok(())
    }

    /// A module may be entered only if its static CFG — rooted at the
    /// entry region and every externally enterable block — has no back
    /// edge. Memoized per module.
    fn require_loop_free(&mut self, m: &Arc<BcModule>) -> AResult<()> {
        let key = Arc::as_ptr(m) as usize;
        let ok = match self.loop_free.get(&key) {
            Some(&ok) => ok,
            None => {
                let ok = match module_regions(m) {
                    Ok(r) => {
                        let roots: Vec<usize> =
                            (0..r.enterable.len()).filter(|&i| r.enterable[i]).collect();
                        r.cfg.is_loop_free_from(&roots)
                    }
                    Err(_) => false,
                };
                self.loop_free.insert(key, ok);
                ok
            }
        };
        if ok {
            Ok(())
        } else {
            Err(Stop)
        }
    }

    fn module_for(&mut self, comp: &Arc<TComp>) -> Arc<BcModule> {
        let key = Arc::as_ptr(comp) as usize;
        if let Some((c, m)) = self.seeded.get(&key) {
            if Arc::ptr_eq(c, comp) {
                return m.clone();
            }
        }
        Arc::new(lower_comp(comp))
    }

    fn bind(&mut self, inst: &Rc<AbsInst>) {
        for (ord, &idx) in inst.labels.iter().enumerate() {
            let (off, arity) = inst.module.blocks[ord];
            if arity == NOT_CODE {
                continue;
            }
            self.bound.insert(
                idx,
                Binding {
                    inst: inst.clone(),
                    off,
                    arity,
                },
            );
        }
    }

    fn run(&mut self, mut ctrl: AbsCtrl) -> AResult<()> {
        loop {
            self.budget()?;
            let flow = match ctrl {
                AbsCtrl::Eval(e, env) => self.eval(e, env)?,
                AbsCtrl::Ret(v) => self.ret(v)?,
                AbsCtrl::T(inst, pc) => self.step_t(inst, pc)?,
            };
            match flow {
                Flow::Next(next) => ctrl = next,
                Flow::Done => return Ok(()),
            }
        }
    }

    // --- the F side (tick placement mirrors `Machine::eval`/`ret`) ---

    fn eval(&mut self, e: IExpr, env: Env) -> AResult<Flow> {
        let next = match e.kind() {
            IKind::Var(x) => match env.lookup(x) {
                Some(v) => AbsCtrl::Ret(v.clone()),
                None => return Err(Stop),
            },
            IKind::Unit => AbsCtrl::Ret(FastVal::Unit),
            IKind::Int(n) => AbsCtrl::Ret(FastVal::Int(*n)),
            IKind::Lam { .. } => AbsCtrl::Ret(FastVal::Clos(Rc::new(Closure {
                lam: e.clone(),
                env,
            }))),
            IKind::Binop { op, lhs, rhs } => {
                self.frames.push(AbsFrame::BinopL {
                    op: *op,
                    rhs: rhs.clone(),
                    env: env.clone(),
                });
                AbsCtrl::Eval(lhs.clone(), env)
            }
            IKind::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                self.frames.push(AbsFrame::If0 {
                    then_branch: then_branch.clone(),
                    else_branch: else_branch.clone(),
                    env: env.clone(),
                });
                AbsCtrl::Eval(cond.clone(), env)
            }
            IKind::App { func, args } => {
                self.frames.push(AbsFrame::AppFunc {
                    args: args.clone(),
                    env: env.clone(),
                });
                AbsCtrl::Eval(func.clone(), env)
            }
            IKind::Fold { ann, body } => {
                self.frames.push(AbsFrame::FoldF { ann: ann.clone() });
                AbsCtrl::Eval(body.clone(), env)
            }
            IKind::Unfold(body) => {
                self.frames.push(AbsFrame::UnfoldF);
                AbsCtrl::Eval(body.clone(), env)
            }
            IKind::Tuple(es) => {
                if es.is_empty() {
                    AbsCtrl::Ret(FastVal::Tuple(Rc::new(Vec::new())))
                } else {
                    self.frames.push(AbsFrame::TupleF {
                        done: Vec::with_capacity(es.len()),
                        es: es.clone(),
                        env: env.clone(),
                    });
                    AbsCtrl::Eval(es[0].clone(), env)
                }
            }
            IKind::Proj { idx, tuple } => {
                self.frames.push(AbsFrame::ProjF { idx: *idx });
                AbsCtrl::Eval(tuple.clone(), env)
            }
            IKind::Boundary { ty, comp, .. } => {
                // Fig 8: the fragment merge is one machine step (only
                // when there is a fragment to merge).
                let merge = if comp.heap.is_empty() {
                    Default::default()
                } else {
                    self.charge(1);
                    self.mem.merge_fragment(comp, &env)
                };
                let merge: crate::machine_fast::MergeOutcome = merge;
                let module = match &merge.renamed_entry {
                    Some(entry) => Arc::new(lower_renamed(&self.mem, entry, &merge.indices)),
                    None => self.module_for(comp),
                };
                self.require_loop_free(&module)?;
                let inst = Rc::new(AbsInst {
                    module,
                    labels: merge.indices,
                    env: env.clone(),
                });
                self.bind(&inst);
                self.frames.push(AbsFrame::BoundaryT { ty: ty.clone() });
                AbsCtrl::T(inst, 0)
            }
        };
        Ok(Flow::Next(next))
    }

    fn ret(&mut self, v: FastVal) -> AResult<Flow> {
        let Some(frame) = self.frames.pop() else {
            // `ret` with no frames: the program is an F value — done,
            // no further charge.
            return Ok(Flow::Done);
        };
        let next = match frame {
            AbsFrame::BinopL { op, rhs, env } => {
                self.frames.push(AbsFrame::BinopR { op, lhs: v });
                AbsCtrl::Eval(rhs, env)
            }
            AbsFrame::BinopR { op, lhs } => {
                let (FastVal::Int(a), FastVal::Int(b)) = (&lhs, &v) else {
                    return Err(Stop);
                };
                self.charge(1);
                AbsCtrl::Ret(FastVal::Int(op.apply(*a, *b)))
            }
            AbsFrame::If0 {
                then_branch,
                else_branch,
                env,
            } => {
                let FastVal::Int(n) = v else {
                    return Err(Stop);
                };
                self.charge(1);
                AbsCtrl::Eval(if n == 0 { then_branch } else { else_branch }, env)
            }
            AbsFrame::AppFunc { args, env } => {
                if args.is_empty() {
                    return self.beta(v, Vec::new());
                }
                self.frames.push(AbsFrame::AppArg {
                    func: v,
                    done: Vec::with_capacity(args.len()),
                    args: args.clone(),
                    env: env.clone(),
                });
                AbsCtrl::Eval(args[0].clone(), env)
            }
            AbsFrame::AppArg {
                func,
                mut done,
                args,
                env,
            } => {
                done.push(v);
                if done.len() < args.len() {
                    let next = args[done.len()].clone();
                    self.frames.push(AbsFrame::AppArg {
                        func,
                        done,
                        args,
                        env: env.clone(),
                    });
                    AbsCtrl::Eval(next, env)
                } else {
                    return self.beta(func, done);
                }
            }
            AbsFrame::FoldF { ann } => AbsCtrl::Ret(FastVal::Fold {
                ann,
                body: Rc::new(v),
            }),
            AbsFrame::UnfoldF => {
                let FastVal::Fold { body, .. } = &v else {
                    return Err(Stop);
                };
                self.charge(1);
                AbsCtrl::Ret((**body).clone())
            }
            AbsFrame::TupleF { mut done, es, env } => {
                done.push(v);
                if done.len() < es.len() {
                    let next = es[done.len()].clone();
                    self.frames.push(AbsFrame::TupleF {
                        done,
                        es,
                        env: env.clone(),
                    });
                    AbsCtrl::Eval(next, env)
                } else {
                    AbsCtrl::Ret(FastVal::Tuple(Rc::new(done)))
                }
            }
            AbsFrame::ProjF { idx } => {
                let FastVal::Tuple(vs) = &v else {
                    return Err(Stop);
                };
                if idx == 0 || idx > vs.len() {
                    return Err(Stop);
                }
                self.charge(1);
                AbsCtrl::Ret(vs[idx - 1].clone())
            }
            AbsFrame::BoundaryT { .. } => return Err(Stop),
            AbsFrame::ImportF { rd, ty, saved } => {
                // The import-of-a-value rewrite (translate), then the
                // rewritten `mv` — two machine steps.
                self.charge(1);
                let w = f_to_t_fast(&mut self.mem, &v, &ty).map_err(|_| Stop)?;
                self.charge(1);
                self.mem.set_reg(rd, w);
                AbsCtrl::T(saved.0, saved.1)
            }
        };
        Ok(Flow::Next(next))
    }

    fn beta(&mut self, func: FastVal, args: Vec<FastVal>) -> AResult<Flow> {
        let FastVal::Clos(c) = &func else {
            return Err(Stop);
        };
        let (params, _, _, _, body) = lam_parts(&c.lam);
        if params.len() != args.len() {
            return Err(Stop);
        }
        self.charge(1);
        let env = c.env.extend(params.clone(), args);
        Ok(Flow::Next(AbsCtrl::Eval(body.clone(), env)))
    }

    // --- the T side (cost per op from the shared table) --------------

    fn step_t(&mut self, t: Rc<AbsInst>, start: u32) -> AResult<Flow> {
        let mut inst = t;
        let mut pc = start;
        'instance: loop {
            let module = inst.module.clone();
            let ops = &module.ops[..];
            loop {
                self.budget()?;
                let op = ops.get(pc as usize).ok_or(Stop)?;
                self.charge(op.fuel_cost());
                match op {
                    BcOp::ArithRR { op, rd, rs, rt } => {
                        let a = self.int_reg(*rs)?;
                        let b = self.int_reg(*rt)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, b)));
                        pc += 1;
                    }
                    BcOp::ArithRI { op, rd, rs, imm } => {
                        let a = self.int_reg(*rs)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, *imm)));
                        pc += 1;
                    }
                    BcOp::ArithDyn { op, rd, rs, src } => {
                        let a = self.int_reg(*rs)?;
                        let w = self.eval_op(src)?;
                        let b = self.mem.as_int(&w).map_err(|_| Stop)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, b)));
                        pc += 1;
                    }
                    BcOp::MvInt { rd, imm } => {
                        self.mem.set_reg(*rd, TWord::Int(*imm));
                        pc += 1;
                    }
                    BcOp::MvUnit { rd } => {
                        self.mem.set_reg(*rd, TWord::Unit);
                        pc += 1;
                    }
                    BcOp::MvReg { rd, rs } => {
                        let w = self.reg(*rs)?;
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::MvLbl { rd, ord } => {
                        let idx = *inst.labels.get(*ord as usize).ok_or(Stop)?;
                        self.mem.set_reg(*rd, TWord::Loc(idx));
                        pc += 1;
                    }
                    BcOp::MvWord { rd, w } => {
                        self.mem.set_reg(*rd, w.clone());
                        pc += 1;
                    }
                    BcOp::MvDyn { rd, src } => {
                        let w = self.eval_op(src)?;
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::Ld { rd, rs, idx } => {
                        let w = self.reg(*rs)?;
                        let i = self.mem.loc_of(&w).map_err(|_| Stop)?;
                        let FastHeapVal::Tuple { fields, .. } = &self.mem.heap[i as usize] else {
                            return Err(Stop);
                        };
                        let w = fields.get(*idx).ok_or(Stop)?.clone();
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::St { rd, idx, rs } => {
                        let wd = self.reg(*rd)?;
                        let i = self.mem.loc_of(&wd).map_err(|_| Stop)?;
                        let w = self.reg(*rs)?;
                        let FastHeapVal::Tuple { mutability, fields } =
                            &mut self.mem.heap[i as usize]
                        else {
                            return Err(Stop);
                        };
                        if *mutability != Mutability::Ref {
                            return Err(Stop);
                        }
                        *fields.get_mut(*idx).ok_or(Stop)? = w;
                        pc += 1;
                    }
                    BcOp::Ralloc { rd, n } | BcOp::Balloc { rd, n } => {
                        let fields = self.mem.stack_pop_n(*n).map_err(|_| Stop)?;
                        let mutability = if matches!(op, BcOp::Ralloc { .. }) {
                            Mutability::Ref
                        } else {
                            Mutability::Boxed
                        };
                        let i = self
                            .mem
                            .alloc("t", FastHeapVal::Tuple { mutability, fields });
                        self.mem.set_reg(*rd, TWord::Loc(i));
                        pc += 1;
                    }
                    BcOp::Salloc(n) => {
                        let len = self.mem.stack.len();
                        self.mem.stack.resize(len + *n, TWord::Unit);
                        pc += 1;
                    }
                    BcOp::Sfree(n) => {
                        self.mem.stack_drop_n(*n).map_err(|_| Stop)?;
                        pc += 1;
                    }
                    BcOp::Sld { rd, idx } => {
                        let w = self.mem.stack_get(*idx).map_err(|_| Stop)?.clone();
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::Sst { idx, rs } => {
                        let w = self.reg(*rs)?;
                        self.mem.stack_set(*idx, w).map_err(|_| Stop)?;
                        pc += 1;
                    }
                    BcOp::Unpack { rd, src } => {
                        let w = self.eval_op(src)?;
                        let TWord::Big(b) = &w else { return Err(Stop) };
                        let WordVal::Pack { body, .. } = &**b else {
                            return Err(Stop);
                        };
                        let inner = self.mem.tword_of_word(body);
                        self.mem.set_reg(*rd, inner);
                        pc += 1;
                    }
                    BcOp::Unfold { rd, src } => {
                        let w = self.eval_op(src)?;
                        let TWord::Big(b) = &w else { return Err(Stop) };
                        let WordVal::Fold { body, .. } = &**b else {
                            return Err(Stop);
                        };
                        let inner = self.mem.tword_of_word(body);
                        self.mem.set_reg(*rd, inner);
                        pc += 1;
                    }
                    BcOp::Protect => {
                        pc += 1;
                    }
                    BcOp::Import { rd, ty, body } => {
                        self.frames.push(AbsFrame::ImportF {
                            rd: *rd,
                            ty: ty.clone(),
                            saved: (inst.clone(), pc + 1),
                        });
                        return Ok(Flow::Next(AbsCtrl::Eval(body.clone(), inst.env.clone())));
                    }
                    BcOp::Bnz { r, t } => {
                        if self.int_reg(*r)? != 0 {
                            let (next, off) = self.take_target(t, 0)?;
                            pc = off;
                            if let Some(n) = next {
                                inst = n;
                                continue 'instance;
                            }
                        } else {
                            pc += 1;
                        }
                    }
                    BcOp::Jmp(t) => {
                        let (next, off) = self.take_target(t, 0)?;
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::Call { t, .. } => {
                        let (next, off) = self.take_target(t, 2)?;
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::Ret { target, .. } => {
                        let w = self.reg(*target)?;
                        let (next, off) = self.enter(&w, 0)?;
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::Halt { val } => return self.halt(*val),
                    BcOp::Push { rs } => {
                        let w = self.reg(*rs)?;
                        self.mem.stack.push(w);
                        pc += 1;
                    }
                    BcOp::PushJmp { rs, t } => {
                        let w = self.reg(*rs)?;
                        self.mem.stack.push(w);
                        let (next, off) = self.take_target(t, 0)?;
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::SldPush { rd, idx } => {
                        let w = self.mem.stack_get(*idx).map_err(|_| Stop)?.clone();
                        self.mem.set_reg(*rd, w.clone());
                        self.mem.stack.push(w);
                        pc += 1;
                    }
                    BcOp::PopArith { op, pr, rd, rs, rt } => {
                        let w = self.mem.stack.pop().ok_or(Stop)?;
                        self.mem.set_reg(*pr, w);
                        let a = self.int_reg(*rs)?;
                        let b = self.int_reg(*rt)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, b)));
                        pc += 1;
                    }
                    BcOp::PopArithPush { op, pr, rd, rs, rt } => {
                        let w = self.mem.stack.pop().ok_or(Stop)?;
                        self.mem.set_reg(*pr, w);
                        let a = self.int_reg(*rs)?;
                        let b = self.int_reg(*rt)?;
                        let r = TWord::Int(op.apply(a, b));
                        self.mem.set_reg(*rd, r.clone());
                        self.mem.stack.push(r);
                        pc += 1;
                    }
                    BcOp::SldSfree { rd, idx, n } => {
                        let w = self.mem.stack_get(*idx).map_err(|_| Stop)?.clone();
                        self.mem.set_reg(*rd, w);
                        self.mem.stack_drop_n(*n).map_err(|_| Stop)?;
                        pc += 1;
                    }
                    BcOp::PopRet { ra, n, val: _ } => {
                        let len = self.mem.stack.len();
                        if len == 0 || len < *n {
                            return Err(Stop);
                        }
                        let w = self.mem.stack.pop().ok_or(Stop)?;
                        self.mem.stack.truncate(len - *n);
                        let tr = self.enter(&w, 0)?;
                        self.mem.set_reg(*ra, w);
                        pc = tr.1;
                        if let Some(next) = tr.0 {
                            inst = next;
                            continue 'instance;
                        }
                    }
                }
            }
        }
    }

    fn halt(&mut self, val: Reg) -> AResult<Flow> {
        match self.frames.last() {
            Some(AbsFrame::BoundaryT { .. }) => {
                // Fig 8: a boundary around a halt value translates —
                // one machine step.
                self.charge(1);
                let Some(AbsFrame::BoundaryT { ty }) = self.frames.pop() else {
                    unreachable!()
                };
                let w = self.reg(val)?;
                let v = t_to_f_fast(&mut self.mem, &w, &ty).map_err(|_| Stop)?;
                Ok(Flow::Next(AbsCtrl::Ret(v)))
            }
            None => {
                // Top-level T halt.
                self.charge(1);
                let _ = self.reg(val)?;
                Ok(Flow::Done)
            }
            Some(_) => Err(Stop),
        }
    }

    fn reg(&self, r: Reg) -> AResult<TWord> {
        self.mem.reg(r).cloned().map_err(|_| Stop)
    }

    fn int_reg(&self, r: Reg) -> AResult<i64> {
        self.mem.int_reg(r).map_err(|_| Stop)
    }

    fn eval_op(&self, op: &FastOp) -> AResult<TWord> {
        match op {
            FastOp::Reg(r) => self.reg(*r),
            FastOp::Word(w) => Ok(w.clone()),
            FastOp::Dyn(u) => Ok(TWord::Big(Arc::new(self.eval_small(u)?))),
        }
    }

    fn eval_small(&self, u: &SmallVal) -> AResult<WordVal> {
        match u {
            SmallVal::Reg(r) => Ok(self.mem.reify_word(&self.reg(*r)?)),
            SmallVal::Word(w) => Ok(w.clone()),
            SmallVal::Pack { hidden, body, ann } => Ok(WordVal::Pack {
                hidden: hidden.clone(),
                body: Box::new(self.eval_small(body)?),
                ann: ann.clone(),
            }),
            SmallVal::Fold { ann, body } => Ok(WordVal::Fold {
                ann: ann.clone(),
                body: Box::new(self.eval_small(body)?),
            }),
            SmallVal::Inst { body, args } => Ok(self.eval_small(body)?.instantiate(args.clone())),
        }
    }

    fn take_target(&mut self, t: &BcTarget, extra: usize) -> AResult<(Option<Rc<AbsInst>>, u32)> {
        match t {
            BcTarget::Static { off, .. } => Ok((None, *off)),
            BcTarget::Dyn(op) => {
                let w = self.eval_op(op)?;
                self.enter(&w, extra)
            }
        }
    }

    /// Resolves a jump-target word and enters its block, lazily
    /// lowering (loop-free-checked) single-block modules for cells no
    /// merged instance claims — the analogue of `enter_bc`.
    fn enter(&mut self, w: &TWord, extra: usize) -> AResult<(Option<Rc<AbsInst>>, u32)> {
        let (idx, n_insts) = self.resolve(w)?;
        if let Some(b) = self.bound.get(&idx) {
            if b.arity != n_insts + extra {
                return Err(Stop);
            }
            return Ok((Some(b.inst.clone()), b.off));
        }
        let (hv, benv) = match &self.mem.heap[idx as usize] {
            FastHeapVal::Code { hv, env, .. } => (hv.clone(), env.clone()),
            FastHeapVal::Tuple { .. } => return Err(Stop),
        };
        let HeapVal::Code(block) = &*hv else {
            return Err(Stop);
        };
        if block.delta.len() != n_insts + extra {
            return Err(Stop);
        }
        let module = single_block_module(&hv);
        self.require_loop_free(&module)?;
        let inst = Rc::new(AbsInst {
            module,
            labels: Vec::new(),
            env: benv,
        });
        self.bound.insert(
            idx,
            Binding {
                inst: inst.clone(),
                off: 0,
                arity: block.delta.len(),
            },
        );
        Ok((Some(inst), 0))
    }

    fn resolve(&self, w: &TWord) -> AResult<(u32, usize)> {
        match w {
            TWord::Loc(i) => Ok((*i, 0)),
            TWord::Big(b) => {
                let (base, n) = peel_count(b);
                if let WordVal::Loc(l) = base {
                    if let Some(&i) = self.mem.index.get(l) {
                        return Ok((i, n));
                    }
                }
                Err(Stop)
            }
            _ => Err(Stop),
        }
    }
}
