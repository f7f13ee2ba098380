//! Terms of the multi-language FT: T word/small values, instructions,
//! components (Fig 1 and 6), and F expressions (Fig 5 and 6).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ids::{Label, Reg, TyVar, VarName};
use crate::ty::{FTy, Inst, Mutability, RetMarker, StackTy, TTy, TyVarDecl};

/// Arithmetic operations, shared between T's `aop` and F's `p` (both range
/// over `+ | − | ∗`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl ArithOp {
    /// Applies the operation (wrapping on overflow, like real hardware).
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
        }
    }

    /// The T mnemonic (`add`, `sub`, `mul`).
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            ArithOp::Add => "add",
            ArithOp::Sub => "sub",
            ArithOp::Mul => "mul",
        }
    }

    /// The F operator symbol (`+`, `-`, `*`).
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
        }
    }
}

/// T word values `w` (Fig 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WordVal {
    /// `()`.
    Unit,
    /// An integer `n`.
    Int(i64),
    /// A heap location `ℓ`.
    Loc(Label),
    /// `pack⟨τ,w⟩ as ∃α.τ'`.
    Pack {
        /// The hidden representation type `τ`.
        hidden: TTy,
        /// The packed value.
        body: Box<WordVal>,
        /// The full existential annotation `∃α.τ'`.
        ann: TTy,
    },
    /// `fold_{µα.τ} w`.
    Fold {
        /// The recursive type annotation `µα.τ`.
        ann: TTy,
        /// The folded value.
        body: Box<WordVal>,
    },
    /// A type application `w[ω̄]` (a word value applied to instantiations
    /// is itself a value, following STAL).
    Inst {
        /// The underlying word value.
        body: Box<WordVal>,
        /// The instantiations, outermost first.
        args: Vec<Inst>,
    },
}

impl WordVal {
    /// Applies instantiations, flattening nested `Inst` nodes.
    pub fn instantiate(self, mut args: Vec<Inst>) -> WordVal {
        if args.is_empty() {
            return self;
        }
        match self {
            WordVal::Inst {
                body,
                args: mut first,
            } => {
                first.append(&mut args);
                WordVal::Inst { body, args: first }
            }
            other => WordVal::Inst {
                body: Box::new(other),
                args,
            },
        }
    }

    /// Peels `Inst` wrappers, returning the base value and all pending
    /// instantiations (outermost first).
    pub fn peel_insts(&self) -> (&WordVal, Vec<Inst>) {
        match self {
            WordVal::Inst { body, args } => {
                let (base, mut inner) = body.peel_insts();
                inner.extend(args.iter().cloned());
                (base, inner)
            }
            other => (other, Vec::new()),
        }
    }
}

/// T small values `u` (Fig 1): operands of instructions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SmallVal {
    /// A register holding a word value.
    Reg(Reg),
    /// A literal word value.
    Word(WordVal),
    /// `pack⟨τ,u⟩ as ∃α.τ'`.
    Pack {
        /// The hidden representation type.
        hidden: TTy,
        /// The packed operand.
        body: Box<SmallVal>,
        /// The existential annotation.
        ann: TTy,
    },
    /// `fold_{µα.τ} u`.
    Fold {
        /// The recursive type annotation.
        ann: TTy,
        /// The folded operand.
        body: Box<SmallVal>,
    },
    /// `u[ω̄]`.
    Inst {
        /// The underlying operand.
        body: Box<SmallVal>,
        /// Instantiations, outermost first.
        args: Vec<Inst>,
    },
}

impl SmallVal {
    /// An integer literal operand.
    pub fn int(n: i64) -> SmallVal {
        SmallVal::Word(WordVal::Int(n))
    }

    /// A unit literal operand.
    pub fn unit() -> SmallVal {
        SmallVal::Word(WordVal::Unit)
    }

    /// A label operand.
    pub fn loc(l: impl Into<Label>) -> SmallVal {
        SmallVal::Word(WordVal::Loc(l.into()))
    }

    /// Applies instantiations, flattening nested `Inst` nodes.
    pub fn instantiate(self, mut args: Vec<Inst>) -> SmallVal {
        if args.is_empty() {
            return self;
        }
        match self {
            SmallVal::Inst {
                body,
                args: mut first,
            } => {
                first.append(&mut args);
                SmallVal::Inst { body, args: first }
            }
            other => SmallVal::Inst {
                body: Box::new(other),
                args,
            },
        }
    }
}

/// T single instructions `ι` plus the multi-language `import`/`protect`
/// forms (Figs 1 and 6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `aop rd, rs, u` — store the result of `rs aop u` in `rd`.
    Arith {
        /// Which arithmetic operation.
        op: ArithOp,
        /// Destination register.
        rd: Reg,
        /// First operand register.
        rs: Reg,
        /// Second operand.
        src: SmallVal,
    },
    /// `bnz r, u` — jump to `u` if `r` is non-zero, else fall through.
    Bnz {
        /// The tested register.
        r: Reg,
        /// The (instantiated) jump target.
        target: SmallVal,
    },
    /// `ld rd, rs[i]` — load the `i`th field of the tuple pointed to by
    /// `rs` into `rd`.
    Ld {
        /// Destination register.
        rd: Reg,
        /// Tuple pointer register.
        rs: Reg,
        /// Field index (0-based).
        idx: usize,
    },
    /// `st rd[i], rs` — store `rs` into the `i`th field of the *mutable*
    /// tuple pointed to by `rd`.
    St {
        /// Tuple pointer register.
        rd: Reg,
        /// Field index (0-based).
        idx: usize,
        /// Source register.
        rs: Reg,
    },
    /// `ralloc rd, n` — allocate a mutable `n`-tuple from the top `n` stack
    /// slots (popping them), leaving the pointer in `rd`.
    Ralloc {
        /// Destination register.
        rd: Reg,
        /// Number of fields.
        n: usize,
    },
    /// `balloc rd, n` — like `ralloc` but the tuple is immutable.
    Balloc {
        /// Destination register.
        rd: Reg,
        /// Number of fields.
        n: usize,
    },
    /// `mv rd, u` — move `u` into `rd`.
    Mv {
        /// Destination register.
        rd: Reg,
        /// Source operand.
        src: SmallVal,
    },
    /// `salloc n` — allocate `n` stack cells initialized with `()`.
    Salloc(usize),
    /// `sfree n` — free the top `n` stack cells.
    Sfree(usize),
    /// `sld rd, i` — load stack slot `i` into `rd`.
    Sld {
        /// Destination register.
        rd: Reg,
        /// Stack slot (0 = top).
        idx: usize,
    },
    /// `sst i, rs` — store `rs` into stack slot `i`.
    Sst {
        /// Stack slot (0 = top).
        idx: usize,
        /// Source register.
        rs: Reg,
    },
    /// `unpack ⟨α, rd⟩ u` — open an existential package, binding the
    /// witness type to `α` and the value to `rd`.
    Unpack {
        /// The type variable bound for the rest of the sequence.
        tv: TyVar,
        /// Destination register.
        rd: Reg,
        /// The packed operand.
        src: SmallVal,
    },
    /// `unfold rd, u` — unfold a value of recursive type into `rd`.
    Unfold {
        /// Destination register.
        rd: Reg,
        /// The folded operand.
        src: SmallVal,
    },
    /// `protect φ, ζ` — abstract the stack below the prefix `φ` as a fresh
    /// stack variable `ζ` (multi-language form, Fig 6).
    Protect {
        /// The prefix left visible (top first).
        phi: Vec<TTy>,
        /// The freshly bound tail variable.
        zeta: TyVar,
    },
    /// `import rd, ζ = σ0, TF[τ]{e}` — evaluate the F expression `e` to a
    /// value, translate it at type `τ`, and place it in `rd`, protecting
    /// the stack tail `σ0` (multi-language form, Fig 6; binder made
    /// explicit per deviation D2).
    Import {
        /// Destination register.
        rd: Reg,
        /// Fresh name for the abstracted tail inside `e`.
        zeta: TyVar,
        /// The protected tail `σ0`.
        protected: StackTy,
        /// The F type directing the value translation.
        ty: FTy,
        /// The embedded F expression.
        body: Box<FExpr>,
    },
}

/// The jump (or halt) that terminates every instruction sequence (Fig 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Terminator {
    /// `jmp u` — intra-component jump.
    Jmp(SmallVal),
    /// `call u {σ, q}` — inter-component jump with a return: protects the
    /// stack tail `σ` and requires the callee to return to the marker `q`.
    Call {
        /// The (partially instantiated) target.
        target: SmallVal,
        /// Protected stack tail `σ0`.
        sigma: StackTy,
        /// Return marker handed to the callee's continuation.
        q: RetMarker,
    },
    /// `ret r {r'}` — inter-component jump back to the continuation in `r`
    /// with the result in `r'`.
    Ret {
        /// Register holding the return continuation.
        target: Reg,
        /// Register holding the result value.
        val: Reg,
    },
    /// `halt τ, σ {r}` — stop with a value of type `τ` in `r` and stack
    /// `σ`; inside a boundary this transfers control back to F.
    Halt {
        /// Result value type.
        ty: TTy,
        /// Stack type at the halt.
        sigma: StackTy,
        /// Register holding the result.
        val: Reg,
    },
}

/// An instruction sequence `I`: straight-line instructions ending in a
/// jump or halt.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstrSeq {
    /// The straight-line prefix.
    pub instrs: Vec<Instr>,
    /// The terminating jump/halt.
    pub term: Terminator,
}

impl InstrSeq {
    /// Builds a sequence from instructions and a terminator.
    pub fn new(instrs: Vec<Instr>, term: Terminator) -> Self {
        InstrSeq { instrs, term }
    }

    /// A sequence consisting only of a terminator.
    pub fn just(term: Terminator) -> Self {
        InstrSeq {
            instrs: Vec::new(),
            term,
        }
    }

    /// True when the sequence is exactly a `halt` with no pending
    /// instructions — the value form `v` of T (Fig 1).
    pub fn is_halt_value(&self) -> bool {
        self.instrs.is_empty() && matches!(self.term, Terminator::Halt { .. })
    }
}

/// A code block `code[∆]{χ;σ}q.I` (Fig 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodeBlock {
    /// Bound type variables.
    pub delta: Vec<TyVarDecl>,
    /// Register-file precondition.
    pub chi: crate::ty::RegFileTy,
    /// Stack precondition.
    pub sigma: StackTy,
    /// Return marker.
    pub q: RetMarker,
    /// The block body.
    pub body: InstrSeq,
}

/// A heap value `h ::= code[∆]{χ;σ}q.I | ⟨w̄⟩` (Fig 1).
///
/// Runtime tuples record their mutability so the machine can reject
/// stores into immutable tuples and infer heap typings.
// Code blocks dominate tuples in size, but heap values live behind the
// heap map and are never moved in bulk, so boxing the block would cost
// an indirection on the machine's hottest lookup for no benefit.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HeapVal {
    /// A code block.
    Code(CodeBlock),
    /// A tuple of word values.
    Tuple {
        /// `ref` or `box`.
        mutability: Mutability,
        /// The fields.
        fields: Vec<WordVal>,
    },
}

/// A heap fragment `H`: a finite map from labels to heap values.
///
/// Heap values are stored behind [`Arc`] so that cloning a fragment —
/// which the machine does every time a component crosses a boundary —
/// and merging it into a global heap share the underlying blocks
/// instead of deep-copying their instruction sequences.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HeapFrag(pub BTreeMap<Label, Arc<HeapVal>>);

impl HeapFrag {
    /// The empty fragment.
    pub fn new() -> Self {
        HeapFrag(BTreeMap::new())
    }

    /// Builds a fragment from `(label, value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Label, HeapVal)>) -> Self {
        HeapFrag(pairs.into_iter().map(|(l, v)| (l, Arc::new(v))).collect())
    }

    /// Looks up a label.
    pub(crate) fn get(&self, l: &Label) -> Option<&HeapVal> {
        self.0.get(l).map(|v| &**v)
    }

    /// True when the fragment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &HeapVal)> {
        self.0.iter().map(|(l, v)| (l, &**v))
    }

    /// Iterates in label order over the shared handles.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&Label, &Arc<HeapVal>)> {
        self.0.iter()
    }
}

impl FromIterator<(Label, HeapVal)> for HeapFrag {
    fn from_iter<I: IntoIterator<Item = (Label, HeapVal)>>(iter: I) -> Self {
        iter.into_iter().map(|(l, v)| (l, Arc::new(v))).collect()
    }
}

impl FromIterator<(Label, Arc<HeapVal>)> for HeapFrag {
    fn from_iter<I: IntoIterator<Item = (Label, Arc<HeapVal>)>>(iter: I) -> Self {
        HeapFrag(iter.into_iter().collect())
    }
}

/// A T component `e = (I, H)`: an instruction sequence together with a
/// local heap fragment of code blocks for intra-component jumps (§2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TComp {
    /// The entry instruction sequence.
    pub seq: InstrSeq,
    /// Component-local code blocks.
    pub heap: HeapFrag,
}

impl TComp {
    /// A component with an empty local heap.
    pub fn bare(seq: InstrSeq) -> Self {
        TComp {
            seq,
            heap: HeapFrag::new(),
        }
    }
}

/// An F lambda, ordinary or stack-modifying (Figs 5 and 6).
///
/// The body is typed under the abstract stack `φi :: ζ`; the `zeta` binder
/// is explicit so annotations inside the body can refer to it
/// (deviation D2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lam {
    /// Parameters with their types.
    pub params: Vec<(VarName, FTy)>,
    /// The abstract stack-tail variable scoping over the body.
    pub zeta: TyVar,
    /// Required stack prefix `φi` (empty for ordinary lambdas).
    pub phi_in: Vec<TTy>,
    /// Produced stack prefix `φo` (empty for ordinary lambdas).
    pub phi_out: Vec<TTy>,
    /// The body.
    pub body: FExpr,
}

impl Lam {
    /// True when this is an ordinary (non-stack-modifying) lambda.
    pub fn is_plain(&self) -> bool {
        self.phi_in.is_empty() && self.phi_out.is_empty()
    }
}

/// F expressions `e` (Fig 5) extended with multi-language forms (Fig 6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FExpr {
    /// A variable.
    Var(VarName),
    /// `()`.
    Unit,
    /// An integer literal.
    Int(i64),
    /// `e p e`.
    Binop {
        /// The operation.
        op: ArithOp,
        /// Left operand.
        lhs: Box<FExpr>,
        /// Right operand.
        rhs: Box<FExpr>,
    },
    /// `if0 e e e`.
    If0 {
        /// The scrutinee.
        cond: Box<FExpr>,
        /// Taken when the scrutinee is 0.
        then_branch: Box<FExpr>,
        /// Taken otherwise.
        else_branch: Box<FExpr>,
    },
    /// `λ(x̄:τ̄).e` or `λ^{φi}_{φo}(x̄:τ̄).e`.
    Lam(Box<Lam>),
    /// Application `e (e̅)`.
    App {
        /// The function.
        func: Box<FExpr>,
        /// The arguments, evaluated left to right.
        args: Vec<FExpr>,
    },
    /// `fold_{µα.τ} e`.
    Fold {
        /// The recursive type annotation.
        ann: FTy,
        /// The folded expression.
        body: Box<FExpr>,
    },
    /// `unfold e`.
    Unfold(Box<FExpr>),
    /// `⟨e̅⟩`.
    Tuple(Vec<FExpr>),
    /// `πi(e)` — 1-indexed projection, as in the paper.
    Proj {
        /// The 1-based field index.
        idx: usize,
        /// The projected tuple.
        tuple: Box<FExpr>,
    },
    /// A boundary `τFT e`: a T component used at F type `τ` (Fig 6).
    ///
    /// `sigma_out` is the component's output stack type σ′; `None` means
    /// "unchanged from the input stack" (deviation D1).
    Boundary {
        /// The F type directing the translation.
        ty: FTy,
        /// Output stack annotation, if it differs from the input stack.
        sigma_out: Option<StackTy>,
        /// The embedded T component.
        comp: Box<TComp>,
    },
}

impl FExpr {
    /// Builds an application node.
    pub fn app(func: FExpr, args: Vec<FExpr>) -> FExpr {
        FExpr::App {
            func: Box::new(func),
            args,
        }
    }

    /// Builds a binary operation node.
    pub fn binop(op: ArithOp, lhs: FExpr, rhs: FExpr) -> FExpr {
        FExpr::Binop {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// True when the expression is an F value (Fig 5): unit, int, lambda,
    /// fold of a value, or tuple of values.
    pub fn is_value(&self) -> bool {
        match self {
            FExpr::Unit | FExpr::Int(_) | FExpr::Lam(_) => true,
            FExpr::Fold { body, .. } => body.is_value(),
            FExpr::Tuple(es) => es.iter().all(FExpr::is_value),
            _ => false,
        }
    }
}

/// A component of the multi-language: an F expression or a T component
/// (Fig 6: `e ::= e | e`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Component {
    /// An F expression.
    F(FExpr),
    /// A T component.
    T(TComp),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_wraps() {
        assert_eq!(ArithOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(ArithOp::Sub.apply(3, 5), -2);
        assert_eq!(ArithOp::Mul.apply(4, 5), 20);
    }

    #[test]
    fn instantiate_flattens() {
        let w = WordVal::Loc(Label::new("l"))
            .instantiate(vec![Inst::Ty(TTy::Int)])
            .instantiate(vec![Inst::Ret(RetMarker::Reg(Reg::Ra))]);
        match &w {
            WordVal::Inst { args, .. } => assert_eq!(args.len(), 2),
            _ => panic!("expected Inst"),
        }
        let (base, args) = w.peel_insts();
        assert_eq!(base, &WordVal::Loc(Label::new("l")));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn value_recognition() {
        assert!(FExpr::Int(3).is_value());
        assert!(FExpr::Tuple(vec![FExpr::Int(1), FExpr::Unit]).is_value());
        assert!(!FExpr::Tuple(vec![FExpr::binop(
            ArithOp::Add,
            FExpr::Int(1),
            FExpr::Int(2)
        )])
        .is_value());
        assert!(!FExpr::Var(VarName::new("x")).is_value());
    }

    #[test]
    fn halt_value_form() {
        let halt = InstrSeq::just(Terminator::Halt {
            ty: TTy::Int,
            sigma: StackTy::nil(),
            val: Reg::R1,
        });
        assert!(halt.is_halt_value());
        let jmp = InstrSeq::just(Terminator::Jmp(SmallVal::loc("l")));
        assert!(!jmp.is_halt_value());
    }
}
