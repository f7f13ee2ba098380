//! The unified diagnostics type for the whole pipeline.
//!
//! Every layer of the workspace has its own error enum (lexer, parser,
//! the shared T/FT checker, the machines, the MiniF front end).
//! [`FunTalError`] folds them into one type with `From` impls, so
//! drivers, examples, and tests can use `?` end-to-end instead of
//! `Box<dyn Error>` plumbing.

use std::fmt;

use funtal_compile::lang::MiniFError;
use funtal_parser::lex::LexError;
use funtal_parser::parse::ParseError;
use funtal_tal::error::{RuntimeError, TypeError};

/// Any error a [`crate::Pipeline`] stage can produce.
#[derive(Clone, Debug)]
pub enum FunTalError {
    /// The lexer rejected the source text.
    Lex(LexError),
    /// The parser rejected the token stream.
    Parse(ParseError),
    /// The T/FT type system rejected the term or component.
    Type(TypeError),
    /// The machine faulted (never on well-typed programs).
    Runtime(RuntimeError),
    /// The MiniF front end rejected the program.
    MiniF(MiniFError),
    /// Evaluation did not finish within the fuel bound.
    OutOfFuel {
        /// The bound that was exhausted.
        fuel: u64,
    },
    /// A driver-level condition (bad CLI usage, operand type
    /// disagreement in `equiv`, missing definition, ...).
    Driver(String),
    /// A malformed batch/serve job line, carried as a job of its own
    /// so one poison line cannot abort the rest of the stream. The
    /// original error's stage and message are preserved, so the
    /// per-line result renders exactly as the rejecting error would
    /// (job-line errors never carry a source position).
    BadJob {
        /// The stage of the error that rejected the line.
        stage: &'static str,
        /// Its bare message.
        message: String,
    },
    /// An I/O error, tagged with the path involved.
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying error rendered.
        cause: String,
    },
}

impl FunTalError {
    /// Source position (1-based line, column) when the underlying error
    /// carries one (lex and parse errors do).
    pub fn span(&self) -> Option<(u32, u32)> {
        match self {
            FunTalError::Lex(e) => Some((e.line, e.col)),
            FunTalError::Parse(e) => Some((e.line, e.col)),
            _ => None,
        }
    }

    /// Short machine-readable category, used by the CLI exit report.
    pub fn stage(&self) -> &'static str {
        match self {
            FunTalError::Lex(_) => "lex",
            FunTalError::Parse(_) => "parse",
            FunTalError::Type(_) => "typecheck",
            FunTalError::Runtime(_) | FunTalError::OutOfFuel { .. } => "run",
            FunTalError::MiniF(_) => "minif",
            FunTalError::Driver(_) => "driver",
            FunTalError::BadJob { stage, .. } => stage,
            FunTalError::Io { .. } => "io",
        }
    }

    /// Convenience constructor for [`FunTalError::Driver`].
    pub fn driver(msg: impl Into<String>) -> FunTalError {
        FunTalError::Driver(msg.into())
    }

    /// Convenience constructor for [`FunTalError::Io`] on `path`.
    pub fn io(path: &str, e: std::io::Error) -> FunTalError {
        FunTalError::Io {
            path: path.to_string(),
            cause: e.to_string(),
        }
    }
}

impl FunTalError {
    /// The bare diagnostic message, without the `error[stage]`/position
    /// envelope that [`Display`](fmt::Display) adds.
    pub(crate) fn message(&self) -> String {
        match self {
            // Lex/parse positions live in the envelope (`span`), so the
            // bare message must not repeat them.
            FunTalError::Lex(e) => e.msg.clone(),
            FunTalError::Parse(e) => e.msg.clone(),
            FunTalError::Type(e) => e.to_string(),
            FunTalError::Runtime(e) => e.to_string(),
            FunTalError::MiniF(e) => e.to_string(),
            FunTalError::OutOfFuel { fuel } => {
                format!("out of fuel after {fuel} steps (raise with --fuel)")
            }
            FunTalError::Driver(msg) => msg.clone(),
            FunTalError::BadJob { message, .. } => message.clone(),
            FunTalError::Io { path, cause } => format!("{path}: {cause}"),
        }
    }
}

/// The one canonical rendering, used verbatim by the `funtal` CLI, the
/// batch/serve JSON protocol, and error reports:
/// `error[<stage>][ at <line>:<col>]: <message>`.
///
/// Golden tests pin this format; change it here and nowhere else.
impl fmt::Display for FunTalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]", self.stage())?;
        if let Some((line, col)) = self.span() {
            write!(f, " at {line}:{col}")?;
        }
        write!(f, ": {}", self.message())
    }
}

impl std::error::Error for FunTalError {}

impl From<LexError> for FunTalError {
    fn from(e: LexError) -> Self {
        FunTalError::Lex(e)
    }
}

impl From<ParseError> for FunTalError {
    fn from(e: ParseError) -> Self {
        FunTalError::Parse(e)
    }
}

impl From<TypeError> for FunTalError {
    fn from(e: TypeError) -> Self {
        FunTalError::Type(e)
    }
}

impl From<RuntimeError> for FunTalError {
    fn from(e: RuntimeError) -> Self {
        FunTalError::Runtime(e)
    }
}

impl From<MiniFError> for FunTalError {
    fn from(e: MiniFError) -> Self {
        FunTalError::MiniF(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant renders as `error[stage][ at l:c]: message` — the
    /// single Display path shared by the CLI and the batch protocol.
    #[test]
    fn canonical_rendering_per_variant() {
        let lex = FunTalError::from(LexError {
            msg: "unexpected `~`".to_string(),
            line: 2,
            col: 7,
        });
        assert_eq!(lex.to_string(), "error[lex] at 2:7: unexpected `~`");

        let parse = FunTalError::from(ParseError {
            msg: "expected `)`".to_string(),
            line: 1,
            col: 3,
        });
        assert_eq!(parse.to_string(), "error[parse] at 1:3: expected `)`");

        let fuel = FunTalError::OutOfFuel { fuel: 99 };
        assert_eq!(
            fuel.to_string(),
            "error[run]: out of fuel after 99 steps (raise with --fuel)"
        );

        let driver = FunTalError::driver("no definition named `f`");
        assert_eq!(driver.to_string(), "error[driver]: no definition named `f`");

        let io = FunTalError::Io {
            path: "missing.ft".to_string(),
            cause: "No such file".to_string(),
        };
        assert_eq!(io.to_string(), "error[io]: missing.ft: No such file");

        // BadJob re-renders the rejecting error verbatim.
        let original = FunTalError::driver("job j1: missing `cmd` field");
        let bad = FunTalError::BadJob {
            stage: original.stage(),
            message: original.message(),
        };
        assert_eq!(bad.to_string(), original.to_string());
    }

    /// Display = envelope + message, and the envelope fields come from
    /// the same accessors the structured protocol uses.
    #[test]
    fn display_agrees_with_structured_fields() {
        let errs = [
            FunTalError::driver("boom"),
            FunTalError::OutOfFuel { fuel: 5 },
            FunTalError::from(ParseError {
                msg: "x".to_string(),
                line: 4,
                col: 9,
            }),
        ];
        for e in errs {
            let want = match e.span() {
                Some((l, c)) => format!("error[{}] at {l}:{c}: {}", e.stage(), e.message()),
                None => format!("error[{}]: {}", e.stage(), e.message()),
            };
            assert_eq!(e.to_string(), want);
        }
    }
}
