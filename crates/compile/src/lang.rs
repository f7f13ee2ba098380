//! MiniF: the first-order F subset accepted by the compiler.
//!
//! A MiniF program is a set of top-level integer function definitions
//! whose bodies are built from variables, integer literals, arithmetic,
//! `if0`, and direct calls to definitions (including self-recursion).
//! Mutual recursion is rejected (the call graph must be a DAG with
//! self-loops), which keeps the F-side encoding of interpreted
//! functions to the paper's Fig 17 self-application pattern.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use funtal_syntax::ArithOp;

/// A MiniF expression.
#[derive(Clone, Debug, PartialEq)]
pub enum MExpr {
    /// A parameter reference.
    Var(String),
    /// An integer literal.
    Int(i64),
    /// Arithmetic.
    Binop {
        /// The operation.
        op: ArithOp,
        /// Left operand.
        lhs: Box<MExpr>,
        /// Right operand.
        rhs: Box<MExpr>,
    },
    /// `if0 cond { then } { else }`.
    If0 {
        /// Scrutinee.
        cond: Box<MExpr>,
        /// Zero branch.
        then_branch: Box<MExpr>,
        /// Non-zero branch.
        else_branch: Box<MExpr>,
    },
    /// A direct call to a definition.
    Call {
        /// The callee's name.
        callee: String,
        /// Arguments.
        args: Vec<MExpr>,
    },
}

impl MExpr {
    /// Variable reference.
    pub fn v(name: &str) -> MExpr {
        MExpr::Var(name.to_string())
    }

    /// Integer literal.
    pub fn i(n: i64) -> MExpr {
        MExpr::Int(n)
    }

    /// Binary operation.
    pub fn bin(op: ArithOp, l: MExpr, r: MExpr) -> MExpr {
        MExpr::Binop {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    /// Conditional.
    pub fn if0(c: MExpr, t: MExpr, e: MExpr) -> MExpr {
        MExpr::If0 {
            cond: Box::new(c),
            then_branch: Box::new(t),
            else_branch: Box::new(e),
        }
    }

    /// Call.
    pub fn call(callee: &str, args: Vec<MExpr>) -> MExpr {
        MExpr::Call {
            callee: callee.to_string(),
            args,
        }
    }

    fn callees(&self, out: &mut BTreeSet<String>) {
        match self {
            MExpr::Var(_) | MExpr::Int(_) => {}
            MExpr::Binop { lhs, rhs, .. } => {
                lhs.callees(out);
                rhs.callees(out);
            }
            MExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.callees(out);
                then_branch.callees(out);
                else_branch.callees(out);
            }
            MExpr::Call { callee, args } => {
                out.insert(callee.clone());
                args.iter().for_each(|a| a.callees(out));
            }
        }
    }

    /// True when the expression (and so its definition) makes no calls
    /// at all.
    pub(crate) fn is_call_free(&self) -> bool {
        let mut s = BTreeSet::new();
        self.callees(&mut s);
        s.is_empty()
    }
}

/// A top-level definition `fn name(params…) = body` (all ints).
#[derive(Clone, Debug, PartialEq)]
pub struct Def {
    /// The function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// The body.
    pub(crate) body: MExpr,
}

impl Def {
    /// Creates a definition.
    pub fn new(name: &str, params: &[&str], body: MExpr) -> Def {
        Def {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            body,
        }
    }

    /// The set of functions this definition calls.
    pub(crate) fn callees(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.body.callees(&mut out);
        out
    }

    /// True if the definition calls itself.
    pub(crate) fn is_self_recursive(&self) -> bool {
        self.callees().contains(&self.name)
    }
}

/// A MiniF program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// The definitions, by name.
    pub defs: BTreeMap<String, Def>,
}

/// Errors raised by [`Program::validate`] and the reference
/// interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum MiniFError {
    /// A call to an undefined function.
    UndefinedFunction(String),
    /// A reference to an unbound parameter.
    UnboundVar(String),
    /// Wrong number of arguments.
    Arity {
        /// Callee.
        callee: String,
        /// Expected.
        expected: usize,
        /// Found.
        found: usize,
    },
    /// Mutual recursion (only self-recursion is supported).
    MutualRecursion(String, String),
    /// Duplicate definition or parameter.
    Duplicate(String),
    /// The reference interpreter's recursion bound was exceeded.
    DepthExceeded,
}

impl fmt::Display for MiniFError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiniFError::UndefinedFunction(n) => write!(f, "undefined function {n}"),
            MiniFError::UnboundVar(x) => write!(f, "unbound variable {x}"),
            MiniFError::Arity {
                callee,
                expected,
                found,
            } => {
                write!(f, "{callee} expects {expected} arguments, got {found}")
            }
            MiniFError::MutualRecursion(a, b) => {
                write!(f, "mutual recursion between {a} and {b} is not supported")
            }
            MiniFError::Duplicate(n) => write!(f, "duplicate name {n}"),
            MiniFError::DepthExceeded => f.write_str("recursion bound exceeded"),
        }
    }
}

impl std::error::Error for MiniFError {}

impl Program {
    /// Builds a program from definitions.
    pub fn new(defs: impl IntoIterator<Item = Def>) -> Result<Program, MiniFError> {
        let mut map = BTreeMap::new();
        for d in defs {
            if map.insert(d.name.clone(), d).is_some() {
                return Err(MiniFError::Duplicate("duplicate definition".to_string()));
            }
        }
        let p = Program { defs: map };
        p.validate()?;
        Ok(p)
    }

    /// Checks scoping, arities, and the DAG-plus-self-loops call-graph
    /// restriction.
    pub fn validate(&self) -> Result<(), MiniFError> {
        for def in self.defs.values() {
            let mut seen = BTreeSet::new();
            for p in &def.params {
                if !seen.insert(p.clone()) {
                    return Err(MiniFError::Duplicate(p.clone()));
                }
            }
            self.check_expr(def, &def.body)?;
        }
        // DAG check ignoring self-loops: depth-first search for a cycle.
        for start in self.defs.keys() {
            let mut stack = vec![(start.clone(), vec![start.clone()])];
            while let Some((cur, path)) = stack.pop() {
                let def = &self.defs[&cur];
                for callee in def.callees() {
                    if callee == cur {
                        continue; // self-loop allowed
                    }
                    if path.contains(&callee) {
                        return Err(MiniFError::MutualRecursion(cur, callee));
                    }
                    let mut p2 = path.clone();
                    p2.push(callee.clone());
                    stack.push((callee, p2));
                }
            }
        }
        Ok(())
    }

    fn check_expr(&self, def: &Def, e: &MExpr) -> Result<(), MiniFError> {
        match e {
            MExpr::Var(x) => {
                if def.params.iter().any(|p| p == x) {
                    Ok(())
                } else {
                    Err(MiniFError::UnboundVar(x.clone()))
                }
            }
            MExpr::Int(_) => Ok(()),
            MExpr::Binop { lhs, rhs, .. } => {
                self.check_expr(def, lhs)?;
                self.check_expr(def, rhs)
            }
            MExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(def, cond)?;
                self.check_expr(def, then_branch)?;
                self.check_expr(def, else_branch)
            }
            MExpr::Call { callee, args } => {
                let target = self
                    .defs
                    .get(callee)
                    .ok_or_else(|| MiniFError::UndefinedFunction(callee.clone()))?;
                if target.params.len() != args.len() {
                    return Err(MiniFError::Arity {
                        callee: callee.clone(),
                        expected: target.params.len(),
                        found: args.len(),
                    });
                }
                args.iter().try_for_each(|a| self.check_expr(def, a))
            }
        }
    }

    /// Topological order of the call graph (callees before callers,
    /// self-loops ignored). `validate` guarantees this exists.
    pub(crate) fn topo_order(&self) -> Vec<String> {
        let mut order = Vec::new();
        let mut done: BTreeSet<String> = BTreeSet::new();
        fn visit(p: &Program, name: &str, done: &mut BTreeSet<String>, order: &mut Vec<String>) {
            if done.contains(name) {
                return;
            }
            done.insert(name.to_string());
            for c in p.defs[name].callees() {
                if c != name {
                    visit(p, &c, done, order);
                }
            }
            order.push(name.to_string());
        }
        for name in self.defs.keys() {
            visit(self, name, &mut done, &mut order);
        }
        order
    }

    /// The reference big-step interpreter (used as ground truth by the
    /// compiler-correctness tests).
    ///
    /// # Errors
    ///
    /// Returns [`MiniFError::DepthExceeded`] when the call depth passes
    /// `max_depth` (the analogue of running out of fuel).
    pub fn eval(&self, fname: &str, args: &[i64], max_depth: u32) -> Result<i64, MiniFError> {
        let def = self
            .defs
            .get(fname)
            .ok_or_else(|| MiniFError::UndefinedFunction(fname.to_string()))?;
        if def.params.len() != args.len() {
            return Err(MiniFError::Arity {
                callee: fname.to_string(),
                expected: def.params.len(),
                found: args.len(),
            });
        }
        let env: BTreeMap<&str, i64> = def
            .params
            .iter()
            .map(|p| p.as_str())
            .zip(args.iter().copied())
            .collect();
        self.eval_expr(&def.body, &env, max_depth)
    }

    fn eval_expr(
        &self,
        e: &MExpr,
        env: &BTreeMap<&str, i64>,
        depth: u32,
    ) -> Result<i64, MiniFError> {
        match e {
            MExpr::Var(x) => env
                .get(x.as_str())
                .copied()
                .ok_or_else(|| MiniFError::UnboundVar(x.clone())),
            MExpr::Int(n) => Ok(*n),
            MExpr::Binop { op, lhs, rhs } => {
                let a = self.eval_expr(lhs, env, depth)?;
                let b = self.eval_expr(rhs, env, depth)?;
                Ok(op.apply(a, b))
            }
            MExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_expr(cond, env, depth)? == 0 {
                    self.eval_expr(then_branch, env, depth)
                } else {
                    self.eval_expr(else_branch, env, depth)
                }
            }
            MExpr::Call { callee, args } => {
                if depth == 0 {
                    return Err(MiniFError::DepthExceeded);
                }
                let vals: Result<Vec<i64>, MiniFError> =
                    args.iter().map(|a| self.eval_expr(a, env, depth)).collect();
                self.eval(callee, &vals?, depth - 1)
            }
        }
    }
}

/// Example program: factorial, the compiled analogue of Fig 17.
pub fn factorial_program() -> Program {
    Program::new([Def::new(
        "fact",
        &["n"],
        MExpr::if0(
            MExpr::v("n"),
            MExpr::i(1),
            MExpr::bin(
                ArithOp::Mul,
                MExpr::call(
                    "fact",
                    vec![MExpr::bin(ArithOp::Sub, MExpr::v("n"), MExpr::i(1))],
                ),
                MExpr::v("n"),
            ),
        ),
    )])
    .expect("factorial is valid")
}

/// Example program: naive Fibonacci plus helpers (a small DAG).
pub fn fib_program() -> Program {
    Program::new([
        Def::new(
            "fib",
            &["n"],
            MExpr::if0(
                MExpr::v("n"),
                MExpr::i(0),
                MExpr::if0(
                    MExpr::bin(ArithOp::Sub, MExpr::v("n"), MExpr::i(1)),
                    MExpr::i(1),
                    MExpr::bin(
                        ArithOp::Add,
                        MExpr::call(
                            "fib",
                            vec![MExpr::bin(ArithOp::Sub, MExpr::v("n"), MExpr::i(1))],
                        ),
                        MExpr::call(
                            "fib",
                            vec![MExpr::bin(ArithOp::Sub, MExpr::v("n"), MExpr::i(2))],
                        ),
                    ),
                ),
            ),
        ),
        Def::new(
            "double_fib",
            &["n"],
            MExpr::bin(
                ArithOp::Mul,
                MExpr::i(2),
                MExpr::call("fib", vec![MExpr::v("n")]),
            ),
        ),
    ])
    .expect("fib is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_interpreter_factorial() {
        let p = factorial_program();
        assert_eq!(p.eval("fact", &[0], 100), Ok(1));
        assert_eq!(p.eval("fact", &[5], 100), Ok(120));
        assert_eq!(p.eval("fact", &[-1], 50), Err(MiniFError::DepthExceeded));
    }

    #[test]
    fn reference_interpreter_fib() {
        let p = fib_program();
        let want = [0, 1, 1, 2, 3, 5, 8, 13];
        for (n, w) in want.iter().enumerate() {
            assert_eq!(p.eval("fib", &[n as i64], 100), Ok(*w));
        }
        assert_eq!(p.eval("double_fib", &[6], 100), Ok(16));
    }

    #[test]
    fn validation_catches_errors() {
        // Unbound variable.
        assert!(Program::new([Def::new("f", &["x"], MExpr::v("y"))]).is_err());
        // Arity.
        assert!(Program::new([
            Def::new("f", &["x"], MExpr::call("g", vec![])),
            Def::new("g", &["x"], MExpr::v("x")),
        ])
        .is_err());
        // Mutual recursion.
        assert!(matches!(
            Program::new([
                Def::new("f", &["x"], MExpr::call("g", vec![MExpr::v("x")])),
                Def::new("g", &["x"], MExpr::call("f", vec![MExpr::v("x")])),
            ]),
            Err(MiniFError::MutualRecursion(..))
        ));
        // Self-recursion is fine.
        assert!(
            Program::new([Def::new("f", &["x"], MExpr::call("f", vec![MExpr::v("x")]))]).is_ok()
        );
    }

    #[test]
    fn topo_order_puts_callees_first() {
        let p = fib_program();
        let order = p.topo_order();
        let fib_pos = order.iter().position(|n| n == "fib").unwrap();
        let dbl_pos = order.iter().position(|n| n == "double_fib").unwrap();
        assert!(fib_pos < dbl_pos);
    }
}
