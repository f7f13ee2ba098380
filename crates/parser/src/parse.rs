//! Recursive-descent parser for the FunTAL concrete syntax.
//!
//! The grammar is exactly the output language of `funtal-syntax`'s
//! `Display` implementations; pretty-printing then parsing is the
//! identity (property-tested in `tests/roundtrip.rs`).

use std::fmt;
use std::sync::Arc;

use funtal_syntax::span::{Span, SpanTable};
use funtal_syntax::{
    ArithOp, CodeBlock, CodeTy, FExpr, FTy, HeapFrag, HeapVal, Inst, Instr, InstrSeq, Kind, Label,
    Lam, Mutability, Reg, RegFileTy, RetMarker, SmallVal, StackTail, StackTy, TComp, TTy,
    Terminator, TyVar, TyVarDecl, VarName, WordVal,
};

use crate::lex::{lex, LexError, Tok, TokKind};

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            line: e.line,
            col: e.col,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// Names that cannot be used as identifiers for variables or labels.
const KEYWORDS: &[&str] = &[
    "unit", "int", "mu", "exists", "ref", "box", "forall", "code", "end", "out", "if0", "lam",
    "fold", "unfold", "pi", "FT", "TF", "import", "protect", "pack", "as", "stk", "ty", "salloc",
    "sfree", "sld", "sst", "ld", "st", "mv", "add", "sub", "mul", "bnz", "jmp", "call", "ret",
    "halt", "ralloc", "balloc", "unpack",
];

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Label → source-span side table, filled while parsing heap
    /// fragments (see `funtal_syntax::span` for why spans live beside
    /// the AST instead of in it).
    spans: SpanTable,
}

impl Parser {
    fn new(src: &str) -> PResult<Self> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            spans: SpanTable::new(),
        })
    }

    fn peek(&self) -> &TokKind {
        &self.toks[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        let (line, col) = self.here();
        Err(ParseError {
            msg: msg.into(),
            line,
            col,
        })
    }

    fn bump(&mut self) -> TokKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, k: &TokKind) -> PResult<()> {
        if self.peek() == k {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {k}, found {}", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> PResult<()> {
        match self.peek() {
            TokKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokKind::Ident(s) if s == kw)
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        match self.peek().clone() {
            TokKind::Ident(s) => {
                if KEYWORDS.contains(&s.as_str()) {
                    self.err(format!("keyword `{s}` cannot be used as {what}"))
                } else if Reg::from_name(&s).is_some() {
                    self.err(format!("register name `{s}` cannot be used as {what}"))
                } else {
                    self.bump();
                    Ok(s)
                }
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    fn number(&mut self, what: &str) -> PResult<i64> {
        match self.peek().clone() {
            TokKind::Int(n) => {
                self.bump();
                Ok(n)
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    fn usize_lit(&mut self, what: &str) -> PResult<usize> {
        let n = self.number(what)?;
        usize::try_from(n).map_err(|_| {
            let (line, col) = self.here();
            ParseError {
                msg: format!("{what} must be non-negative"),
                line,
                col,
            }
        })
    }

    fn reg(&mut self) -> PResult<Reg> {
        match self.peek().clone() {
            TokKind::Ident(s) => match Reg::from_name(&s) {
                Some(r) => {
                    self.bump();
                    Ok(r)
                }
                None => self.err(format!("expected a register, found `{s}`")),
            },
            other => self.err(format!("expected a register, found {other}")),
        }
    }

    fn comma_sep<T>(
        &mut self,
        end: &TokKind,
        mut item: impl FnMut(&mut Self) -> PResult<T>,
    ) -> PResult<Vec<T>> {
        let mut out = Vec::new();
        if self.peek() == end {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.peek() == &TokKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    // --- types -----------------------------------------------------------

    fn tty(&mut self) -> PResult<TTy> {
        match self.peek().clone() {
            TokKind::Ident(s) => match s.as_str() {
                "unit" => {
                    self.bump();
                    Ok(TTy::Unit)
                }
                "int" => {
                    self.bump();
                    Ok(TTy::Int)
                }
                "mu" => {
                    self.bump();
                    let v = self.ident("a type variable")?;
                    self.eat(&TokKind::Dot)?;
                    Ok(TTy::Rec(TyVar::new(v), Box::new(self.tty()?)))
                }
                "exists" => {
                    self.bump();
                    let v = self.ident("a type variable")?;
                    self.eat(&TokKind::Dot)?;
                    Ok(TTy::Exists(TyVar::new(v), Box::new(self.tty()?)))
                }
                "ref" => {
                    self.bump();
                    self.eat(&TokKind::Lt)?;
                    let ts = self.comma_sep(&TokKind::Gt, |p| p.tty())?;
                    self.eat(&TokKind::Gt)?;
                    Ok(TTy::Ref(ts))
                }
                "box" => {
                    self.bump();
                    Ok(TTy::Boxed(Arc::new(self.heap_ty()?)))
                }
                _ => {
                    let v = self.ident("a type")?;
                    Ok(TTy::Var(TyVar::new(v)))
                }
            },
            other => self.err(format!("expected a T type, found {other}")),
        }
    }

    fn heap_ty(&mut self) -> PResult<funtal_syntax::HeapTy> {
        if self.peek() == &TokKind::Lt {
            self.bump();
            let ts = self.comma_sep(&TokKind::Gt, |p| p.tty())?;
            self.eat(&TokKind::Gt)?;
            Ok(funtal_syntax::HeapTy::Tuple(ts))
        } else {
            Ok(funtal_syntax::HeapTy::Code(self.code_ty()?))
        }
    }

    fn code_ty(&mut self) -> PResult<CodeTy> {
        self.eat_kw("forall")?;
        self.eat(&TokKind::LBrack)?;
        let delta = self.comma_sep(&TokKind::RBrack, |p| p.decl())?;
        self.eat(&TokKind::RBrack)?;
        let (chi, sigma) = self.chi_sigma()?;
        let q = self.ret_marker()?;
        Ok(CodeTy {
            delta,
            chi,
            sigma,
            q,
        })
    }

    fn chi_sigma(&mut self) -> PResult<(RegFileTy, StackTy)> {
        self.eat(&TokKind::LBrace)?;
        let pairs = self.comma_sep(&TokKind::Semi, |p| {
            let r = p.reg()?;
            p.eat(&TokKind::Colon)?;
            let t = p.tty()?;
            Ok((r, t))
        })?;
        self.eat(&TokKind::Semi)?;
        let sigma = self.stack()?;
        self.eat(&TokKind::RBrace)?;
        Ok((RegFileTy::from_pairs(pairs), sigma))
    }

    fn decl(&mut self) -> PResult<TyVarDecl> {
        let v = self.ident("a type variable")?;
        self.eat(&TokKind::Colon)?;
        let kind = match self.peek().clone() {
            TokKind::Ident(s) => match s.as_str() {
                "ty" => Kind::Ty,
                "stk" => Kind::Stack,
                "ret" => Kind::Ret,
                other => return self.err(format!("expected a kind, found `{other}`")),
            },
            other => return self.err(format!("expected a kind, found {other}")),
        };
        self.bump();
        Ok(TyVarDecl {
            var: TyVar::new(v),
            kind,
        })
    }

    fn stack(&mut self) -> PResult<StackTy> {
        let mut prefix = Vec::new();
        loop {
            if self.peek() == &TokKind::Star {
                self.bump();
                return Ok(StackTy {
                    prefix,
                    tail: StackTail::Empty,
                });
            }
            let t = self.tty()?;
            if self.peek() == &TokKind::ColonColon {
                self.bump();
                prefix.push(t);
            } else {
                let TTy::Var(v) = t else {
                    return self.err("a stack must end in `*` or a stack variable");
                };
                return Ok(StackTy {
                    prefix,
                    tail: StackTail::Var(v),
                });
            }
        }
    }

    /// Dot-terminated stack prefix: `int :: unit :: .` or `.`.
    fn prefix(&mut self) -> PResult<Vec<TTy>> {
        let mut out = Vec::new();
        loop {
            if self.peek() == &TokKind::Dot {
                self.bump();
                return Ok(out);
            }
            out.push(self.tty()?);
            self.eat(&TokKind::ColonColon)?;
        }
    }

    fn ret_marker(&mut self) -> PResult<RetMarker> {
        match self.peek().clone() {
            TokKind::Int(_) => Ok(RetMarker::Stack(self.usize_lit("a stack slot")?)),
            TokKind::Ident(s) => {
                if let Some(r) = Reg::from_name(&s) {
                    self.bump();
                    return Ok(RetMarker::Reg(r));
                }
                match s.as_str() {
                    "out" => {
                        self.bump();
                        Ok(RetMarker::Out)
                    }
                    "end" => {
                        self.bump();
                        self.eat(&TokKind::LBrace)?;
                        let ty = self.tty()?;
                        self.eat(&TokKind::Semi)?;
                        let sigma = self.stack()?;
                        self.eat(&TokKind::RBrace)?;
                        Ok(RetMarker::end(ty, sigma))
                    }
                    _ => Ok(RetMarker::Var(TyVar::new(self.ident("a return marker")?))),
                }
            }
            other => self.err(format!("expected a return marker, found {other}")),
        }
    }

    fn inst(&mut self) -> PResult<Inst> {
        if self.at_kw("stk") {
            self.bump();
            self.eat(&TokKind::LParen)?;
            let s = self.stack()?;
            self.eat(&TokKind::RParen)?;
            return Ok(Inst::Stack(s));
        }
        if self.at_kw("ret") {
            self.bump();
            self.eat(&TokKind::LParen)?;
            let q = self.ret_marker()?;
            self.eat(&TokKind::RParen)?;
            return Ok(Inst::Ret(q));
        }
        Ok(Inst::Ty(self.tty()?))
    }

    // --- F types -----------------------------------------------------------

    fn fty(&mut self) -> PResult<FTy> {
        match self.peek().clone() {
            TokKind::LParen => {
                self.bump();
                let params = self.comma_sep(&TokKind::RParen, |p| p.fty())?;
                self.eat(&TokKind::RParen)?;
                let (phi_in, phi_out) = if self.peek() == &TokKind::LBrack {
                    self.bump();
                    let i = self.prefix()?;
                    self.eat(&TokKind::Semi)?;
                    let o = self.prefix()?;
                    self.eat(&TokKind::RBrack)?;
                    (i, o)
                } else {
                    (vec![], vec![])
                };
                self.eat(&TokKind::Arrow)?;
                let ret = self.fty()?;
                Ok(FTy::Arrow {
                    params,
                    phi_in,
                    phi_out,
                    ret: Box::new(ret),
                })
            }
            TokKind::Lt => {
                self.bump();
                let ts = self.comma_sep(&TokKind::Gt, |p| p.fty())?;
                self.eat(&TokKind::Gt)?;
                Ok(FTy::Tuple(ts))
            }
            TokKind::Ident(s) => match s.as_str() {
                "unit" => {
                    self.bump();
                    Ok(FTy::Unit)
                }
                "int" => {
                    self.bump();
                    Ok(FTy::Int)
                }
                "mu" => {
                    self.bump();
                    let v = self.ident("a type variable")?;
                    self.eat(&TokKind::Dot)?;
                    Ok(FTy::Rec(TyVar::new(v), Box::new(self.fty()?)))
                }
                _ => Ok(FTy::Var(TyVar::new(self.ident("an F type")?))),
            },
            other => self.err(format!("expected an F type, found {other}")),
        }
    }

    // --- word and small values ------------------------------------------------

    fn small(&mut self) -> PResult<SmallVal> {
        let base = match self.peek().clone() {
            TokKind::Int(_) => SmallVal::int(self.number("an integer")?),
            TokKind::LParen => {
                self.bump();
                match self.peek().clone() {
                    TokKind::RParen => {
                        self.bump();
                        SmallVal::unit()
                    }
                    TokKind::Minus => {
                        self.bump();
                        let n = self.number("an integer")?;
                        self.eat(&TokKind::RParen)?;
                        SmallVal::int(-n)
                    }
                    other => {
                        return self.err(format!(
                            "expected `()` or a negative literal, found {other}"
                        ))
                    }
                }
            }
            TokKind::Ident(s) if s == "pack" => {
                self.bump();
                self.eat(&TokKind::Lt)?;
                let hidden = self.tty()?;
                self.eat(&TokKind::Comma)?;
                let body = self.small()?;
                self.eat(&TokKind::Gt)?;
                self.eat_kw("as")?;
                let ann = self.tty()?;
                SmallVal::Pack {
                    hidden,
                    body: Box::new(body),
                    ann,
                }
            }
            TokKind::Ident(s) if s == "fold" => {
                self.bump();
                self.eat(&TokKind::LBrack)?;
                let ann = self.tty()?;
                self.eat(&TokKind::RBrack)?;
                let body = self.small()?;
                SmallVal::Fold {
                    ann,
                    body: Box::new(body),
                }
            }
            TokKind::Ident(s) => {
                if let Some(r) = Reg::from_name(&s) {
                    self.bump();
                    SmallVal::Reg(r)
                } else {
                    SmallVal::loc(self.ident("a label")?)
                }
            }
            other => return self.err(format!("expected an operand, found {other}")),
        };
        self.insts_suffix_small(base)
    }

    fn insts_suffix_small(&mut self, mut base: SmallVal) -> PResult<SmallVal> {
        while self.peek() == &TokKind::LBrack {
            self.bump();
            let args = self.comma_sep(&TokKind::RBrack, |p| p.inst())?;
            self.eat(&TokKind::RBrack)?;
            base = base.instantiate(args);
        }
        Ok(base)
    }

    fn word(&mut self) -> PResult<WordVal> {
        // Word values are small values without registers.
        let sv = self.small()?;
        small_to_word(sv).map_or_else(|| self.err("registers cannot appear here"), Ok)
    }

    // --- instructions -----------------------------------------------------------

    /// Parses an instruction sequence (instructions separated by `;`
    /// ending with a terminator).
    fn seq(&mut self) -> PResult<InstrSeq> {
        let mut instrs = Vec::new();
        loop {
            let TokKind::Ident(s) = self.peek().clone() else {
                return self.err(format!("expected an instruction, found {}", self.peek()));
            };
            match s.as_str() {
                "jmp" => {
                    self.bump();
                    let u = self.small()?;
                    return Ok(InstrSeq::new(instrs, Terminator::Jmp(u)));
                }
                "call" => {
                    self.bump();
                    let target = self.small()?;
                    self.eat(&TokKind::LBrace)?;
                    let sigma = self.stack()?;
                    self.eat(&TokKind::Comma)?;
                    let q = self.ret_marker()?;
                    self.eat(&TokKind::RBrace)?;
                    return Ok(InstrSeq::new(instrs, Terminator::Call { target, sigma, q }));
                }
                "ret" => {
                    self.bump();
                    let target = self.reg()?;
                    self.eat(&TokKind::LBrace)?;
                    let val = self.reg()?;
                    self.eat(&TokKind::RBrace)?;
                    return Ok(InstrSeq::new(instrs, Terminator::Ret { target, val }));
                }
                "halt" => {
                    self.bump();
                    let ty = self.tty()?;
                    self.eat(&TokKind::Comma)?;
                    let sigma = self.stack()?;
                    self.eat(&TokKind::LBrace)?;
                    let val = self.reg()?;
                    self.eat(&TokKind::RBrace)?;
                    return Ok(InstrSeq::new(instrs, Terminator::Halt { ty, sigma, val }));
                }
                _ => {
                    instrs.push(self.instr()?);
                    self.eat(&TokKind::Semi)?;
                }
            }
        }
    }

    fn instr(&mut self) -> PResult<Instr> {
        let TokKind::Ident(s) = self.peek().clone() else {
            return self.err(format!("expected an instruction, found {}", self.peek()));
        };
        let op = s.as_str();
        match op {
            "add" | "sub" | "mul" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                let rs = self.reg()?;
                self.eat(&TokKind::Comma)?;
                let src = self.small()?;
                let op = match op {
                    "add" => ArithOp::Add,
                    "sub" => ArithOp::Sub,
                    _ => ArithOp::Mul,
                };
                Ok(Instr::Arith { op, rd, rs, src })
            }
            "bnz" => {
                self.bump();
                let r = self.reg()?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::Bnz {
                    r,
                    target: self.small()?,
                })
            }
            "ld" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                let rs = self.reg()?;
                self.eat(&TokKind::LBrack)?;
                let idx = self.usize_lit("a field index")?;
                self.eat(&TokKind::RBrack)?;
                Ok(Instr::Ld { rd, rs, idx })
            }
            "st" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::LBrack)?;
                let idx = self.usize_lit("a field index")?;
                self.eat(&TokKind::RBrack)?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::St {
                    rd,
                    idx,
                    rs: self.reg()?,
                })
            }
            "ralloc" | "balloc" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                let n = self.usize_lit("a tuple width")?;
                Ok(if op == "ralloc" {
                    Instr::Ralloc { rd, n }
                } else {
                    Instr::Balloc { rd, n }
                })
            }
            "mv" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::Mv {
                    rd,
                    src: self.small()?,
                })
            }
            "salloc" => {
                self.bump();
                Ok(Instr::Salloc(self.usize_lit("a cell count")?))
            }
            "sfree" => {
                self.bump();
                Ok(Instr::Sfree(self.usize_lit("a cell count")?))
            }
            "sld" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::Sld {
                    rd,
                    idx: self.usize_lit("a stack slot")?,
                })
            }
            "sst" => {
                self.bump();
                let idx = self.usize_lit("a stack slot")?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::Sst {
                    idx,
                    rs: self.reg()?,
                })
            }
            "unpack" => {
                self.bump();
                self.eat(&TokKind::Lt)?;
                let tv = self.ident("a type variable")?;
                self.eat(&TokKind::Comma)?;
                let rd = self.reg()?;
                self.eat(&TokKind::Gt)?;
                Ok(Instr::Unpack {
                    tv: TyVar::new(tv),
                    rd,
                    src: self.small()?,
                })
            }
            "unfold" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::Unfold {
                    rd,
                    src: self.small()?,
                })
            }
            "protect" => {
                self.bump();
                let phi = self.prefix()?;
                self.eat(&TokKind::Comma)?;
                Ok(Instr::Protect {
                    phi,
                    zeta: TyVar::new(self.ident("a stack variable")?),
                })
            }
            "import" => {
                self.bump();
                let rd = self.reg()?;
                self.eat(&TokKind::Comma)?;
                let zeta = self.ident("a stack variable")?;
                self.eat(&TokKind::Eq)?;
                let protected = self.stack()?;
                self.eat(&TokKind::Comma)?;
                self.eat_kw("TF")?;
                self.eat(&TokKind::LBrack)?;
                let ty = self.fty()?;
                self.eat(&TokKind::RBrack)?;
                self.eat(&TokKind::LParen)?;
                let body = self.fexpr()?;
                self.eat(&TokKind::RParen)?;
                Ok(Instr::Import {
                    rd,
                    zeta: TyVar::new(zeta),
                    protected,
                    ty,
                    body: Box::new(body),
                })
            }
            other => self.err(format!("unknown instruction `{other}`")),
        }
    }

    fn heap_val(&mut self) -> PResult<HeapVal> {
        if self.at_kw("code") {
            self.bump();
            self.eat(&TokKind::LBrack)?;
            let delta = self.comma_sep(&TokKind::RBrack, |p| p.decl())?;
            self.eat(&TokKind::RBrack)?;
            let (chi, sigma) = self.chi_sigma()?;
            let q = self.ret_marker()?;
            self.eat(&TokKind::Dot)?;
            let body = self.seq()?;
            return Ok(HeapVal::Code(CodeBlock {
                delta,
                chi,
                sigma,
                q,
                body,
            }));
        }
        let mutability = if self.at_kw("box") {
            Mutability::Boxed
        } else if self.at_kw("ref") {
            Mutability::Ref
        } else {
            return self.err("expected `code`, `box`, or `ref` heap value");
        };
        self.bump();
        self.eat(&TokKind::Lt)?;
        let fields = self.comma_sep(&TokKind::Gt, |p| p.word())?;
        self.eat(&TokKind::Gt)?;
        Ok(HeapVal::Tuple { mutability, fields })
    }

    fn tcomp(&mut self) -> PResult<TComp> {
        self.eat(&TokKind::LParen)?;
        let seq = self.seq()?;
        let heap = if self.peek() == &TokKind::Comma {
            self.bump();
            self.eat(&TokKind::LBrace)?;
            let mut pairs = Vec::new();
            loop {
                let (line, col) = self.here();
                let l = self.ident("a label")?;
                self.eat(&TokKind::Arrow)?;
                let hv = self.heap_val()?;
                let (end_line, end_col) = self.here();
                self.spans
                    .record(l.as_str(), Span::new(line, col, end_line, end_col));
                pairs.push((Label::new(l), hv));
                if self.peek() == &TokKind::Semi {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat(&TokKind::RBrace)?;
            HeapFrag::from_pairs(pairs)
        } else {
            HeapFrag::new()
        };
        self.eat(&TokKind::RParen)?;
        Ok(TComp { seq, heap })
    }

    // --- F expressions -----------------------------------------------------------

    fn fexpr(&mut self) -> PResult<FExpr> {
        let mut lhs = self.fexpr_mul()?;
        loop {
            let op = match self.peek() {
                TokKind::Plus => ArithOp::Add,
                TokKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.fexpr_mul()?;
            lhs = FExpr::binop(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn fexpr_mul(&mut self) -> PResult<FExpr> {
        let mut lhs = self.fexpr_app()?;
        while self.peek() == &TokKind::Star {
            self.bump();
            let rhs = self.fexpr_app()?;
            lhs = FExpr::binop(ArithOp::Mul, lhs, rhs);
        }
        Ok(lhs)
    }

    fn fexpr_app(&mut self) -> PResult<FExpr> {
        let mut e = self.fexpr_primary()?;
        while self.peek() == &TokKind::LParen {
            self.bump();
            let args = self.comma_sep(&TokKind::RParen, |p| p.fexpr())?;
            self.eat(&TokKind::RParen)?;
            e = FExpr::app(e, args);
        }
        Ok(e)
    }

    fn fexpr_primary(&mut self) -> PResult<FExpr> {
        match self.peek().clone() {
            TokKind::Int(_) => Ok(FExpr::Int(self.number("an integer")?)),
            TokKind::Minus => {
                self.bump();
                Ok(FExpr::Int(-self.number("an integer")?))
            }
            TokKind::LParen => {
                self.bump();
                if self.peek() == &TokKind::RParen {
                    self.bump();
                    return Ok(FExpr::Unit);
                }
                let e = self.fexpr()?;
                self.eat(&TokKind::RParen)?;
                Ok(e)
            }
            TokKind::Lt => {
                self.bump();
                let es = self.comma_sep(&TokKind::Gt, |p| p.fexpr())?;
                self.eat(&TokKind::Gt)?;
                Ok(FExpr::Tuple(es))
            }
            TokKind::Ident(s) => match s.as_str() {
                "if0" => {
                    self.bump();
                    let cond = self.fexpr()?;
                    self.eat(&TokKind::LBrace)?;
                    let t = self.fexpr()?;
                    self.eat(&TokKind::RBrace)?;
                    self.eat(&TokKind::LBrace)?;
                    let e = self.fexpr()?;
                    self.eat(&TokKind::RBrace)?;
                    Ok(FExpr::If0 {
                        cond: Box::new(cond),
                        then_branch: Box::new(t),
                        else_branch: Box::new(e),
                    })
                }
                "lam" => {
                    self.bump();
                    self.eat(&TokKind::LBrack)?;
                    let zeta = self.ident("a stack variable")?;
                    let (phi_in, phi_out) = if self.peek() == &TokKind::Semi {
                        self.bump();
                        let i = self.prefix()?;
                        self.eat(&TokKind::Semi)?;
                        let o = self.prefix()?;
                        (i, o)
                    } else {
                        (vec![], vec![])
                    };
                    self.eat(&TokKind::RBrack)?;
                    self.eat(&TokKind::LParen)?;
                    let params = self.comma_sep(&TokKind::RParen, |p| {
                        let x = p.ident("a parameter")?;
                        p.eat(&TokKind::Colon)?;
                        let t = p.fty()?;
                        Ok((VarName::new(x), t))
                    })?;
                    self.eat(&TokKind::RParen)?;
                    self.eat(&TokKind::Dot)?;
                    let body = self.fexpr()?;
                    Ok(FExpr::Lam(Box::new(Lam {
                        params,
                        zeta: TyVar::new(zeta),
                        phi_in,
                        phi_out,
                        body,
                    })))
                }
                "fold" => {
                    self.bump();
                    self.eat(&TokKind::LBrack)?;
                    let ann = self.fty()?;
                    self.eat(&TokKind::RBrack)?;
                    self.eat(&TokKind::LParen)?;
                    let body = self.fexpr()?;
                    self.eat(&TokKind::RParen)?;
                    Ok(FExpr::Fold {
                        ann,
                        body: Box::new(body),
                    })
                }
                "unfold" => {
                    self.bump();
                    self.eat(&TokKind::LParen)?;
                    let body = self.fexpr()?;
                    self.eat(&TokKind::RParen)?;
                    Ok(FExpr::Unfold(Box::new(body)))
                }
                "pi" => {
                    self.bump();
                    self.eat(&TokKind::LBrack)?;
                    let idx = self.usize_lit("a projection index")?;
                    self.eat(&TokKind::RBrack)?;
                    self.eat(&TokKind::LParen)?;
                    let tuple = self.fexpr()?;
                    self.eat(&TokKind::RParen)?;
                    Ok(FExpr::Proj {
                        idx,
                        tuple: Box::new(tuple),
                    })
                }
                "FT" => {
                    self.bump();
                    self.eat(&TokKind::LBrack)?;
                    let ty = self.fty()?;
                    let sigma_out = if self.peek() == &TokKind::Semi {
                        self.bump();
                        Some(self.stack()?)
                    } else {
                        None
                    };
                    self.eat(&TokKind::RBrack)?;
                    let comp = self.tcomp()?;
                    Ok(FExpr::Boundary {
                        ty,
                        sigma_out,
                        comp: Box::new(comp),
                    })
                }
                _ => Ok(FExpr::Var(VarName::new(self.ident("an expression")?))),
            },
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    fn finish<T>(&mut self, value: T) -> PResult<T> {
        if self.peek() == &TokKind::Eof {
            Ok(value)
        } else {
            self.err(format!("unexpected trailing input: {}", self.peek()))
        }
    }

    /// The whole program's span: first token through end of input.
    fn root_span(&self) -> Span {
        let first = self.toks.first().expect("lexer always emits Eof");
        let last = self.toks.last().expect("lexer always emits Eof");
        if first.kind == TokKind::Eof {
            Span::SYNTH
        } else {
            Span::new(first.line, first.col, last.line, last.col)
        }
    }

    /// Consumes the parser, returning the filled span table.
    fn into_spans(mut self) -> SpanTable {
        self.spans.root = self.root_span();
        self.spans
    }
}

fn small_to_word(u: SmallVal) -> Option<WordVal> {
    match u {
        SmallVal::Reg(_) => None,
        SmallVal::Word(w) => Some(w),
        SmallVal::Pack { hidden, body, ann } => Some(WordVal::Pack {
            hidden,
            body: Box::new(small_to_word(*body)?),
            ann,
        }),
        SmallVal::Fold { ann, body } => Some(WordVal::Fold {
            ann,
            body: Box::new(small_to_word(*body)?),
        }),
        SmallVal::Inst { body, args } => Some(small_to_word(*body)?.instantiate(args)),
    }
}

/// Parses an F expression (a whole source file).
pub fn parse_fexpr(src: &str) -> PResult<FExpr> {
    let mut p = Parser::new(src)?;
    let e = p.fexpr()?;
    p.finish(e)
}

/// Parses an F expression plus its source-span table: the whole
/// program's span and one span per heap label (across every nested
/// boundary). The table is the profiler's map from machine labels back
/// to source regions; it survives interning and `Arc` sharing because
/// it lives beside the term, keyed by label.
pub fn parse_fexpr_spanned(src: &str) -> PResult<(FExpr, SpanTable)> {
    let mut p = Parser::new(src)?;
    let e = p.fexpr()?;
    let e = p.finish(e)?;
    Ok((e, p.into_spans()))
}

/// Parses a T component `(I)` or `(I, {l -> h; …})`.
pub fn parse_tcomp(src: &str) -> PResult<TComp> {
    let mut p = Parser::new(src)?;
    let c = p.tcomp()?;
    p.finish(c)
}

/// Parses a T value type.
pub fn parse_tty(src: &str) -> PResult<TTy> {
    let mut p = Parser::new(src)?;
    let t = p.tty()?;
    p.finish(t)
}

/// Parses an F type.
pub fn parse_fty(src: &str) -> PResult<FTy> {
    let mut p = Parser::new(src)?;
    let t = p.fty()?;
    p.finish(t)
}

/// Parses a stack typing.
pub fn parse_stack(src: &str) -> PResult<StackTy> {
    let mut p = Parser::new(src)?;
    let s = p.stack()?;
    p.finish(s)
}

/// Parses an instruction sequence.
pub fn parse_seq(src: &str) -> PResult<InstrSeq> {
    let mut p = Parser::new(src)?;
    let s = p.seq()?;
    p.finish(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the byte-based-column bug: a non-ASCII comment
    /// before an error must not shift the reported position.
    #[test]
    fn non_ascii_comment_does_not_shift_error_positions() {
        let ascii = parse_fexpr("// plain comment\n1 +").unwrap_err();
        let accented = parse_fexpr("// commentaire accentué — ✓\n1 +").unwrap_err();
        assert_eq!((ascii.line, ascii.col), (2, 4));
        assert_eq!(
            (accented.line, accented.col),
            (ascii.line, ascii.col),
            "non-ASCII comment shifted the error position"
        );
    }

    #[test]
    fn spanned_parse_records_root_and_labels() {
        let src = "FT[int](mv r1, 42; halt int, * {r1},\n  {tup -> box <1, 2>})";
        let (_, spans) = parse_fexpr_spanned(src).unwrap();
        assert_eq!(spans.root, Span::new(1, 1, 2, 23));
        assert_eq!(spans.resolve("tup"), Span::new(2, 4, 2, 21));
        // A machine-renamed copy resolves to the same region.
        assert_eq!(spans.resolve("tup$3"), Span::new(2, 4, 2, 21));
        assert!(spans.resolve("nowhere").is_synth());
    }

    #[test]
    fn spanned_parse_sees_nested_boundary_labels() {
        let src = "1 + FT[int](jmp go, {go -> code[]{; *} end{int; *}. halt int, * {r1}})";
        let (_, spans) = parse_fexpr_spanned(src).unwrap();
        assert!(!spans.resolve("go").is_synth());
        assert_eq!(spans.resolve("go").line, 1);
    }
}
