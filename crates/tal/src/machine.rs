//! The T abstract machine: memories `M = (H, R, S)` and the small-step
//! relation `⟨M | e⟩ ↦ ⟨M' | e'⟩` of §3.
//!
//! The machine is *type-erasing*: jumping to a polymorphic block checks
//! the arity of the instantiations and then discards them, so the block
//! runs its original body (see `enter_block_opts`). Only the dynamic
//! type-safety guard (E11 in DESIGN.md) substitutes instantiations, into
//! the target block's preconditions, to compare them against the
//! runtime state.

use std::collections::BTreeMap;
use std::sync::Arc;

use funtal_syntax::rename::{rename_heap_val, rename_seq};
use funtal_syntax::subst::Subst;
use funtal_syntax::{
    HeapVal, Inst, Instr, InstrSeq, Label, Mutability, Reg, SmallVal, TComp, Terminator, WordVal,
};

use crate::error::{RResult, RuntimeError};
use crate::trace::{Event, Tracer};

/// The most words the stack may hold. `salloc` past it is an error on
/// both machines, and the checker rejects a block whose visible stack
/// would grow past it. A push costs a step, so no program under the
/// default fuel (one million steps) reaches it one slot at a time.
pub const MAX_STACK_SLOTS: usize = 1 << 20;

/// Checks that `salloc n` on a stack of `have` words stays within
/// [`MAX_STACK_SLOTS`] — the one test both machines apply.
pub fn check_salloc(have: usize, n: usize) -> RResult<()> {
    if n > MAX_STACK_SLOTS.saturating_sub(have) {
        return Err(RuntimeError::StackOverflow { need: n, have });
    }
    Ok(())
}

/// The runtime stack `S`. Slot 0 is the top of the stack, matching the
/// static convention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stack(Vec<WordVal>);

impl Stack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of words on the stack.
    pub(crate) fn depth(&self) -> usize {
        self.0.len()
    }

    /// Pushes a word on top.
    pub fn push(&mut self, w: WordVal) {
        self.0.push(w);
    }

    /// Pushes `n` unit words (`salloc n`), within [`MAX_STACK_SLOTS`].
    pub(crate) fn salloc(&mut self, n: usize) -> RResult<()> {
        check_salloc(self.0.len(), n)?;
        self.0.resize(self.0.len() + n, WordVal::Unit);
        Ok(())
    }

    /// Pops the top `n` words, top first.
    pub(crate) fn pop_n(&mut self, n: usize) -> RResult<Vec<WordVal>> {
        if self.0.len() < n {
            return Err(RuntimeError::StackUnderflow {
                need: n,
                have: self.0.len(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.0.pop().expect("length checked"));
        }
        Ok(out)
    }

    /// Reads slot `i` (0 = top).
    pub(crate) fn get(&self, i: usize) -> RResult<&WordVal> {
        let len = self.0.len();
        if i < len {
            Ok(&self.0[len - 1 - i])
        } else {
            Err(RuntimeError::BadStackIndex(i))
        }
    }

    /// Writes slot `i` (0 = top).
    pub(crate) fn set(&mut self, i: usize, w: WordVal) -> RResult<()> {
        let len = self.0.len();
        if i < len {
            self.0[len - 1 - i] = w;
            Ok(())
        } else {
            Err(RuntimeError::BadStackIndex(i))
        }
    }

    /// An iterator over the words, top first.
    pub fn iter_top_first(&self) -> impl Iterator<Item = &WordVal> {
        self.0.iter().rev()
    }
}

/// A memory `M = (H, R, S)`.
///
/// Heap values are shared ([`Arc`]) so that merging a component's local
/// fragment — which happens every time a boundary is crossed — costs a
/// reference bump per block instead of a deep clone; `st` uses
/// copy-on-write.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// The global heap `H`.
    pub heap: BTreeMap<Label, Arc<HeapVal>>,
    /// The register file `R`.
    pub regs: BTreeMap<Reg, WordVal>,
    /// The stack `S`.
    pub stack: Stack,
    next_fresh: u64,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> RResult<&WordVal> {
        self.regs.get(&r).ok_or(RuntimeError::UnboundReg(r))
    }

    /// Writes a register.
    pub(crate) fn set_reg(&mut self, r: Reg, w: WordVal) {
        self.regs.insert(r, w);
    }

    /// Looks up a heap value.
    pub fn heap_get(&self, l: &Label) -> RResult<&HeapVal> {
        self.heap
            .get(l)
            .map(|v| &**v)
            .ok_or_else(|| RuntimeError::UnboundLabel(l.clone()))
    }

    /// The fresh-label counter (used by the environment-strategy
    /// machine to mirror this memory's label generation exactly).
    pub fn fresh_counter(&self) -> u64 {
        self.next_fresh
    }

    /// Overwrites the fresh-label counter.
    pub fn set_fresh_counter(&mut self, n: u64) {
        self.next_fresh = n;
    }

    /// Allocates a fresh label. Generated names contain `$`, which the
    /// concrete syntax rejects, so they cannot collide with source
    /// labels.
    pub(crate) fn fresh_label(&mut self, hint: &str) -> Label {
        let n = self.next_fresh;
        self.next_fresh += 1;
        Label::new(format!("{hint}${n}"))
    }

    /// Allocates a heap value at a fresh label and returns the label.
    pub fn alloc(&mut self, hint: &str, hv: HeapVal) -> Label {
        let l = self.fresh_label(hint);
        self.heap.insert(l.clone(), Arc::new(hv));
        l
    }

    /// Merges a component-local heap fragment into the global heap and
    /// returns the (possibly renamed) entry sequence.
    ///
    /// This is the operational "merge local heap fragments to the global
    /// heap" step of §3. Labels that collide with existing heap entries
    /// are freshened (this happens when the same boundary component is
    /// evaluated more than once); non-colliding labels keep their names
    /// so traces stay readable.
    pub fn merge_fragment(&mut self, comp: &TComp) -> InstrSeq {
        if comp.heap.is_empty() {
            return comp.seq.clone();
        }
        let colliding: Vec<Label> = comp
            .heap
            .iter()
            .filter(|(l, _)| self.heap.contains_key(*l))
            .map(|(l, _)| l.clone())
            .collect();
        let renaming: BTreeMap<Label, Label> = colliding
            .into_iter()
            .map(|l| {
                let fresh = self.fresh_label(l.as_str());
                (l, fresh)
            })
            .collect();
        for (l, hv) in comp.heap.iter_shared() {
            // Untouched blocks are shared; only renamed ones are rebuilt.
            let renamed = if renaming.is_empty() {
                hv.clone()
            } else {
                Arc::new(rename_heap_val(hv, &renaming))
            };
            let target = renaming.get(l).cloned().unwrap_or_else(|| l.clone());
            self.heap.insert(target, renamed);
        }
        if renaming.is_empty() {
            comp.seq.clone()
        } else {
            rename_seq(&comp.seq, &renaming)
        }
    }
}

/// Evaluates a small value to a word value.
pub fn eval_small(mem: &Memory, u: &SmallVal) -> RResult<WordVal> {
    match u {
        SmallVal::Reg(r) => mem.reg(*r).cloned(),
        SmallVal::Word(w) => Ok(w.clone()),
        SmallVal::Pack { hidden, body, ann } => Ok(WordVal::Pack {
            hidden: hidden.clone(),
            body: Box::new(eval_small(mem, body)?),
            ann: ann.clone(),
        }),
        SmallVal::Fold { ann, body } => Ok(WordVal::Fold {
            ann: ann.clone(),
            body: Box::new(eval_small(mem, body)?),
        }),
        SmallVal::Inst { body, args } => Ok(eval_small(mem, body)?.instantiate(args.clone())),
    }
}

fn as_int(w: &WordVal) -> RResult<i64> {
    match w {
        WordVal::Int(n) => Ok(*n),
        other => Err(RuntimeError::NotInt(other.to_string())),
    }
}

fn as_loc(w: &WordVal) -> RResult<&Label> {
    match w {
        WordVal::Loc(l) => Ok(l),
        other => Err(RuntimeError::NotTuple(other.to_string())),
    }
}

/// Resolves a jump operand to a target label plus pending
/// instantiations.
pub(crate) fn resolve_target(mem: &Memory, u: &SmallVal) -> RResult<(Label, Vec<Inst>)> {
    let w = eval_small(mem, u)?;
    let (base, insts) = w.peel_insts();
    match base {
        WordVal::Loc(l) => Ok((l.clone(), insts)),
        other => Err(RuntimeError::NotCode(other.to_string())),
    }
}

/// Options controlling machine execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineOpts {
    /// When set, every jump checks the target block's (instantiated)
    /// register-file and stack preconditions against the live memory —
    /// the executable shape of type safety (E11 in DESIGN.md). Violations
    /// raise [`RuntimeError::GuardViolation`]; well-typed programs never
    /// trip the guard.
    pub guard: bool,
}

/// Fetches the block at `label`, checks that `insts` instantiates
/// every one of its binders, and returns its body; `opts.guard` adds
/// the dynamic type-safety guard.
///
/// The machine is *type-erasing at runtime*: instantiations `ω̄` are
/// arity-checked and then discarded rather than substituted into the
/// block body. No operational rule inspects a substituted type — types
/// only direct the static semantics — and substituting them would blow
/// up exponentially, because a `call`'s protected stack type embeds the
/// continuation type which embeds the protected stack type again (one
/// doubling per recursion depth). The annotations in the returned body
/// are therefore the block's original (possibly open) types; the
/// dynamic guard substitutes the preconditions on demand.
pub(crate) fn enter_block_opts(
    mem: &Memory,
    label: &Label,
    insts: &[Inst],
    opts: MachineOpts,
) -> RResult<InstrSeq> {
    let hv = mem.heap_get(label)?;
    let HeapVal::Code(block) = hv else {
        return Err(RuntimeError::NotCode(format!("{label} is a tuple")));
    };
    if block.delta.len() != insts.len() {
        return Err(RuntimeError::BadInstantiation {
            expected: block.delta.len(),
            provided: insts.len(),
        });
    }
    if opts.guard {
        let subst = Subst::from_pairs(
            block
                .delta
                .iter()
                .zip(insts)
                .map(|(d, i)| (d.var.clone(), i.clone())),
        );
        guard_block_entry(
            mem,
            label,
            &subst.chi(&block.chi),
            &subst.stack(&block.sigma),
        )?;
    }
    Ok(block.body.clone())
}

/// The dynamic type-safety guard: checks the live memory against a
/// block's instantiated preconditions. This is a *shape* check — base
/// types are compared exactly, pointers must be locations, and the stack
/// depth must match the visible prefix (exactly, when the tail is
/// concrete).
fn guard_block_entry(
    mem: &Memory,
    label: &Label,
    chi: &funtal_syntax::RegFileTy,
    sigma: &funtal_syntax::StackTy,
) -> RResult<()> {
    use funtal_syntax::{StackTail, TTy};
    for (r, want) in chi.iter() {
        let Some(w) = mem.regs.get(&r) else {
            return Err(RuntimeError::GuardViolation(format!(
                "entering {label}: register {r} required at {want} but uninitialized"
            )));
        };
        let ok = match (want, w.peel_insts().0) {
            (TTy::Int, WordVal::Int(_)) => true,
            (TTy::Unit, WordVal::Unit) => true,
            (TTy::Ref(_) | TTy::Boxed(_), WordVal::Loc(_)) => true,
            (TTy::Int | TTy::Unit, _) => false,
            // Polymorphic/abstract expectations: accept any value.
            _ => true,
        };
        if !ok {
            return Err(RuntimeError::GuardViolation(format!(
                "entering {label}: register {r} required at {want}, holds {w}"
            )));
        }
    }
    let depth = mem.stack.depth();
    let visible = sigma.visible_len();
    let ok = match sigma.tail {
        StackTail::Empty => depth == visible,
        StackTail::Var(_) => depth >= visible,
    };
    if !ok {
        return Err(RuntimeError::GuardViolation(format!(
            "entering {label}: stack typed {sigma} but has depth {depth}"
        )));
    }
    Ok(())
}

/// The result of one machine step on an instruction sequence.
#[derive(Clone, Debug)]
pub enum TStep {
    /// Execution continues with this sequence.
    Next(InstrSeq),
    /// The program halted with the value of the given register.
    Halted {
        /// The result register named by `halt`.
        reg: Reg,
        /// The halt value.
        val: WordVal,
    },
}

/// Executes one pure-T instruction's memory effect (everything except
/// control flow, `bnz`, and the multi-language forms). Shared with the
/// FT machine.
pub(crate) fn exec_instr(mem: &mut Memory, instr: &Instr) -> RResult<()> {
    match instr {
        Instr::Arith { op, rd, rs, src } => {
            let a = as_int(mem.reg(*rs)?)?;
            let b = as_int(&eval_small(mem, src)?)?;
            mem.set_reg(*rd, WordVal::Int(op.apply(a, b)));
        }
        Instr::Ld { rd, rs, idx } => {
            let l = as_loc(mem.reg(*rs)?)?.clone();
            let HeapVal::Tuple { fields, .. } = mem.heap_get(&l)? else {
                return Err(RuntimeError::NotTuple(format!("{l} is code")));
            };
            let w = fields
                .get(*idx)
                .ok_or(RuntimeError::BadFieldIndex(*idx))?
                .clone();
            mem.set_reg(*rd, w);
        }
        Instr::St { rd, idx, rs } => {
            let l = as_loc(mem.reg(*rd)?)?.clone();
            let w = mem.reg(*rs)?.clone();
            let hv = mem
                .heap
                .get_mut(&l)
                .map(Arc::make_mut)
                .ok_or_else(|| RuntimeError::UnboundLabel(l.clone()))?;
            let HeapVal::Tuple { mutability, fields } = hv else {
                return Err(RuntimeError::NotTuple(format!("{l} is code")));
            };
            if *mutability != Mutability::Ref {
                return Err(RuntimeError::ImmutableStore(l));
            }
            let slot = fields
                .get_mut(*idx)
                .ok_or(RuntimeError::BadFieldIndex(*idx))?;
            *slot = w;
        }
        Instr::Ralloc { rd, n } | Instr::Balloc { rd, n } => {
            let fields = mem.stack.pop_n(*n)?;
            let mutability = if matches!(instr, Instr::Ralloc { .. }) {
                Mutability::Ref
            } else {
                Mutability::Boxed
            };
            let l = mem.alloc("t", HeapVal::Tuple { mutability, fields });
            mem.set_reg(*rd, WordVal::Loc(l));
        }
        Instr::Mv { rd, src } => {
            let w = eval_small(mem, src)?;
            mem.set_reg(*rd, w);
        }
        Instr::Salloc(n) => mem.stack.salloc(*n)?,
        Instr::Sfree(n) => {
            mem.stack.pop_n(*n)?;
        }
        Instr::Sld { rd, idx } => {
            let w = mem.stack.get(*idx)?.clone();
            mem.set_reg(*rd, w);
        }
        Instr::Sst { idx, rs } => {
            let w = mem.reg(*rs)?.clone();
            mem.stack.set(*idx, w)?;
        }
        Instr::Unfold { rd, src } => {
            let w = eval_small(mem, src)?;
            let WordVal::Fold { body, .. } = w else {
                return Err(RuntimeError::NotFold(w.to_string()));
            };
            mem.set_reg(*rd, *body);
        }
        Instr::Unpack { .. } => {
            unreachable!("unpack handled by the sequence stepper (binds a type)")
        }
        Instr::Bnz { .. } => {
            unreachable!("bnz handled by the sequence stepper (control)")
        }
        Instr::Protect { .. } | Instr::Import { .. } => {
            return Err(RuntimeError::MultiLanguage("import/protect"))
        }
    }
    Ok(())
}

/// Performs one step of the pure-T machine on `seq`.
///
/// `import` raises [`RuntimeError::MultiLanguage`]; `protect` has no
/// memory effect (it only affects typing) but still counts — and is
/// traced — as one instruction step.
pub(crate) fn step_seq(mem: &mut Memory, seq: InstrSeq, tracer: &mut dyn Tracer) -> RResult<TStep> {
    step_seq_opts(mem, seq, tracer, MachineOpts::default())
}

/// `step_seq` with options (the dynamic type-safety guard).
pub fn step_seq_opts(
    mem: &mut Memory,
    mut seq: InstrSeq,
    tracer: &mut dyn Tracer,
    opts: MachineOpts,
) -> RResult<TStep> {
    if !seq.instrs.is_empty() {
        let instr = seq.instrs.remove(0);
        match &instr {
            Instr::Bnz { r, target } => {
                tracer.event(&Event::Instr);
                let n = as_int(mem.reg(*r)?)?;
                if n != 0 {
                    let (l, insts) = resolve_target(mem, target)?;
                    let body = enter_block_opts(mem, &l, &insts, opts)?;
                    tracer.event(&Event::BnzTaken { to: l });
                    return Ok(TStep::Next(body));
                }
                return Ok(TStep::Next(seq));
            }
            Instr::Unpack { rd, src, .. } => {
                // Type-erasing: the witness type is not substituted into
                // the rest of the sequence (nothing operational reads
                // it).
                tracer.event(&Event::Instr);
                let w = eval_small(mem, src)?;
                let WordVal::Pack { body, .. } = w else {
                    return Err(RuntimeError::NotPack(w.to_string()));
                };
                mem.set_reg(*rd, *body);
                return Ok(TStep::Next(seq));
            }
            Instr::Protect { .. } => {
                // Typing-only; no memory effect, but still one machine
                // step — emit `Instr` so every fuel tick has exactly
                // one charging event (the profiler's invariant).
                tracer.event(&Event::Instr);
                return Ok(TStep::Next(seq));
            }
            other => {
                tracer.event(&Event::Instr);
                exec_instr(mem, other)?;
                return Ok(TStep::Next(seq));
            }
        }
    }
    match &seq.term {
        Terminator::Jmp(u) => {
            let (l, insts) = resolve_target(mem, u)?;
            let body = enter_block_opts(mem, &l, &insts, opts)?;
            tracer.event(&Event::Jmp { to: l });
            Ok(TStep::Next(body))
        }
        Terminator::Call { target, sigma, q } => {
            let (l, mut insts) = resolve_target(mem, target)?;
            insts.push(Inst::Stack(sigma.clone()));
            insts.push(Inst::Ret(q.clone()));
            let body = enter_block_opts(mem, &l, &insts, opts)?;
            tracer.event(&Event::Call { to: l });
            Ok(TStep::Next(body))
        }
        Terminator::Ret { target, val } => {
            let (l, insts) = resolve_target(mem, &SmallVal::Reg(*target))?;
            let body = enter_block_opts(mem, &l, &insts, opts)?;
            tracer.event(&Event::Ret { to: l, val: *val });
            Ok(TStep::Next(body))
        }
        Terminator::Halt { val, .. } => {
            let w = mem.reg(*val)?.clone();
            tracer.event(&Event::Halt { reg: *val });
            Ok(TStep::Halted { reg: *val, val: w })
        }
    }
}

/// The final outcome of running a T program under a fuel bound.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The program halted with this value.
    Halted(WordVal),
    /// The fuel bound was exhausted (the program may diverge).
    OutOfFuel,
}

/// Runs a whole T component to completion (or until `fuel` steps),
/// starting from `mem`.
///
/// The component's local heap fragment is merged (with freshened labels)
/// before execution, as in §3.
pub(crate) fn run_component(
    mem: &mut Memory,
    comp: &TComp,
    fuel: u64,
    tracer: &mut dyn Tracer,
) -> RResult<Outcome> {
    let mut seq = mem.merge_fragment(comp);
    for _ in 0..fuel {
        match step_seq(mem, seq, tracer)? {
            TStep::Next(next) => seq = next,
            TStep::Halted { val, .. } => return Ok(Outcome::Halted(val)),
        }
    }
    Ok(Outcome::OutOfFuel)
}

/// Convenience wrapper: run a closed T program in a fresh memory.
pub fn run_program(comp: &TComp, fuel: u64, tracer: &mut dyn Tracer) -> RResult<Outcome> {
    let mut mem = Memory::new();
    run_component(&mut mem, comp, fuel, tracer)
}
