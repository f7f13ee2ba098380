//! Renaming of heap labels.
//!
//! When the machine merges a component-local heap fragment `H` into the
//! global heap (§3 "we merge local heap fragments to the global heap"),
//! the fragment's labels are freshened to avoid collisions. Renaming must
//! respect *label scoping*: a nested T component (inside a boundary or an
//! `import` body) that redefines a label in its own local heap shadows the
//! outer definition.

use std::collections::BTreeMap;

use crate::ids::Label;
use crate::term::{
    CodeBlock, FExpr, HeapVal, Instr, InstrSeq, Lam, SmallVal, TComp, Terminator, WordVal,
};

type Renaming = BTreeMap<Label, Label>;

fn ren(map: &Renaming, l: &Label) -> Label {
    map.get(l).cloned().unwrap_or_else(|| l.clone())
}

/// Renames labels in a word value.
pub(crate) fn rename_word(w: &WordVal, map: &Renaming) -> WordVal {
    match w {
        WordVal::Loc(l) => WordVal::Loc(ren(map, l)),
        WordVal::Unit | WordVal::Int(_) => w.clone(),
        WordVal::Pack { hidden, body, ann } => WordVal::Pack {
            hidden: hidden.clone(),
            body: Box::new(rename_word(body, map)),
            ann: ann.clone(),
        },
        WordVal::Fold { ann, body } => WordVal::Fold {
            ann: ann.clone(),
            body: Box::new(rename_word(body, map)),
        },
        WordVal::Inst { body, args } => WordVal::Inst {
            body: Box::new(rename_word(body, map)),
            args: args.clone(),
        },
    }
}

/// Renames labels in a small value.
pub(crate) fn rename_small(u: &SmallVal, map: &Renaming) -> SmallVal {
    match u {
        SmallVal::Reg(_) => u.clone(),
        SmallVal::Word(w) => SmallVal::Word(rename_word(w, map)),
        SmallVal::Pack { hidden, body, ann } => SmallVal::Pack {
            hidden: hidden.clone(),
            body: Box::new(rename_small(body, map)),
            ann: ann.clone(),
        },
        SmallVal::Fold { ann, body } => SmallVal::Fold {
            ann: ann.clone(),
            body: Box::new(rename_small(body, map)),
        },
        SmallVal::Inst { body, args } => SmallVal::Inst {
            body: Box::new(rename_small(body, map)),
            args: args.clone(),
        },
    }
}

/// Renames labels in an instruction.
pub(crate) fn rename_instr(i: &Instr, map: &Renaming) -> Instr {
    match i {
        Instr::Arith { op, rd, rs, src } => Instr::Arith {
            op: *op,
            rd: *rd,
            rs: *rs,
            src: rename_small(src, map),
        },
        Instr::Bnz { r, target } => Instr::Bnz {
            r: *r,
            target: rename_small(target, map),
        },
        Instr::Mv { rd, src } => Instr::Mv {
            rd: *rd,
            src: rename_small(src, map),
        },
        Instr::Unpack { tv, rd, src } => Instr::Unpack {
            tv: tv.clone(),
            rd: *rd,
            src: rename_small(src, map),
        },
        Instr::Unfold { rd, src } => Instr::Unfold {
            rd: *rd,
            src: rename_small(src, map),
        },
        Instr::Import {
            rd,
            zeta,
            protected,
            ty,
            body,
        } => Instr::Import {
            rd: *rd,
            zeta: zeta.clone(),
            protected: protected.clone(),
            ty: ty.clone(),
            body: Box::new(rename_fexpr(body, map)),
        },
        other => other.clone(),
    }
}

/// Renames labels in an instruction sequence.
pub fn rename_seq(seq: &InstrSeq, map: &Renaming) -> InstrSeq {
    InstrSeq::new(
        seq.instrs.iter().map(|i| rename_instr(i, map)).collect(),
        match &seq.term {
            Terminator::Jmp(u) => Terminator::Jmp(rename_small(u, map)),
            Terminator::Call { target, sigma, q } => Terminator::Call {
                target: rename_small(target, map),
                sigma: sigma.clone(),
                q: q.clone(),
            },
            t @ (Terminator::Ret { .. } | Terminator::Halt { .. }) => t.clone(),
        },
    )
}

/// Renames labels in a heap value.
pub fn rename_heap_val(h: &HeapVal, map: &Renaming) -> HeapVal {
    match h {
        HeapVal::Code(b) => HeapVal::Code(CodeBlock {
            body: rename_seq(&b.body, map),
            ..b.clone()
        }),
        HeapVal::Tuple { mutability, fields } => HeapVal::Tuple {
            mutability: *mutability,
            fields: fields.iter().map(|w| rename_word(w, map)).collect(),
        },
    }
}

/// Renames labels in a T component, respecting shadowing by the
/// component's own heap.
pub(crate) fn rename_tcomp(c: &TComp, map: &Renaming) -> TComp {
    // Labels defined by this component's own heap shadow the renaming.
    let inner: Renaming = map
        .iter()
        .filter(|(l, _)| c.heap.get(l).is_none())
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    if inner.is_empty() {
        return c.clone();
    }
    TComp {
        seq: rename_seq(&c.seq, &inner),
        heap: c
            .heap
            .iter()
            .map(|(l, v)| (l.clone(), rename_heap_val(v, &inner)))
            .collect(),
    }
}

/// Renames labels in an F expression (reaching through boundaries).
pub(crate) fn rename_fexpr(e: &FExpr, map: &Renaming) -> FExpr {
    match e {
        FExpr::Var(_) | FExpr::Unit | FExpr::Int(_) => e.clone(),
        FExpr::Binop { op, lhs, rhs } => FExpr::Binop {
            op: *op,
            lhs: Box::new(rename_fexpr(lhs, map)),
            rhs: Box::new(rename_fexpr(rhs, map)),
        },
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => FExpr::If0 {
            cond: Box::new(rename_fexpr(cond, map)),
            then_branch: Box::new(rename_fexpr(then_branch, map)),
            else_branch: Box::new(rename_fexpr(else_branch, map)),
        },
        FExpr::Lam(lam) => FExpr::Lam(Box::new(Lam {
            body: rename_fexpr(&lam.body, map),
            ..(**lam).clone()
        })),
        FExpr::App { func, args } => FExpr::App {
            func: Box::new(rename_fexpr(func, map)),
            args: args.iter().map(|a| rename_fexpr(a, map)).collect(),
        },
        FExpr::Fold { ann, body } => FExpr::Fold {
            ann: ann.clone(),
            body: Box::new(rename_fexpr(body, map)),
        },
        FExpr::Unfold(body) => FExpr::Unfold(Box::new(rename_fexpr(body, map))),
        FExpr::Tuple(es) => FExpr::Tuple(es.iter().map(|e| rename_fexpr(e, map)).collect()),
        FExpr::Proj { idx, tuple } => FExpr::Proj {
            idx: *idx,
            tuple: Box::new(rename_fexpr(tuple, map)),
        },
        FExpr::Boundary {
            ty,
            sigma_out,
            comp,
        } => FExpr::Boundary {
            ty: ty.clone(),
            sigma_out: sigma_out.clone(),
            comp: Box::new(rename_tcomp(comp, map)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn renames_jump_targets() {
        let mut map = Renaming::new();
        map.insert(Label::new("l"), Label::new("l$1"));
        let s = seq(vec![], jmp(loc("l")));
        let out = rename_seq(&s, &map);
        assert_eq!(out.to_string(), "jmp l$1");
    }

    #[test]
    fn inner_component_shadows() {
        let mut map = Renaming::new();
        map.insert(Label::new("l"), Label::new("l$1"));
        // A component whose own heap defines `l`: references stay put.
        let inner = tcomp(
            seq(vec![], jmp(loc("l"))),
            vec![(
                "l",
                code_block(
                    vec![],
                    chi([]),
                    nil(),
                    q_end(int(), nil()),
                    seq(vec![], halt(int(), nil(), r1())),
                ),
            )],
        );
        let out = rename_tcomp(&inner, &map);
        assert_eq!(out, inner);
    }
}
