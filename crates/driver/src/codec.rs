//! Canonical type text: one closed FT type per line.
//!
//! A type is encoded by its `Display` rendering. [`decode_type`] is the
//! strict inverse: the line must parse with
//! [`funtal_parser::parse_fty`], re-render to exactly the same text, and
//! have no free type variables (a persisted verdict types a closed
//! term).

use funtal_syntax::free::ftv_fty;
use funtal_syntax::FTy;

/// Decodes one line of canonical type text.
pub(crate) fn decode_type(line: &str) -> Result<FTy, String> {
    let ty = funtal_parser::parse_fty(line).map_err(|e| e.to_string())?;
    if ty.to_string() != line {
        return Err("not canonical type text".into());
    }
    if !ftv_fty(&ty).is_empty() {
        return Err("not a closed type".into());
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::{TTy, TyVar};

    #[test]
    fn types_round_trip() {
        let a = TyVar::new("a");
        for ty in [
            FTy::Int,
            FTy::Unit,
            FTy::Tuple(vec![]),
            FTy::Tuple(vec![FTy::Int, FTy::Tuple(vec![FTy::Unit])]),
            FTy::Arrow {
                params: vec![FTy::Int, FTy::Unit],
                phi_in: vec![TTy::Int],
                phi_out: vec![],
                ret: Box::new(FTy::Rec(a.clone(), Box::new(FTy::Var(a.clone())))),
            },
            FTy::arrow(
                vec![FTy::arrow(vec![FTy::Int], FTy::Int)],
                FTy::Rec(a.clone(), Box::new(FTy::arrow(vec![FTy::Var(a)], FTy::Int))),
            ),
        ] {
            let text = ty.to_string();
            assert_eq!(decode_type(&text).expect(&text), ty, "{text}");
        }
    }

    #[test]
    fn non_canonical_and_open_lines_reject() {
        for line in [
            "",
            "int ",
            " int",
            "(int,int) -> int",
            "a",
            "mu a. b",
            "int\n",
        ] {
            assert!(decode_type(line).is_err(), "{line:?} decoded");
        }
    }
}
