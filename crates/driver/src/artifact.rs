//! The persistent store's entry gate: typecheck verdicts as
//! canonical type text.
//!
//! The disk tier ([`funtal_store::DiskStore`]) moves opaque byte
//! payloads. Only the FT typing judgment is worth replaying from disk,
//! so both persisted stages store *types*, framed by [`crate::wire`]
//! (one canonical type per `\n`-separated line):
//!
//! | stage   | store key bytes                | payload                                   |
//! |---------|--------------------------------|-------------------------------------------|
//! | check   | the term's canonical rendering | the term's type                           |
//! | compile | `[tco] ++ source text`         | each wrapped definition's type, in `program.defs` order |
//!
//! [`decode`] is **total** and strict: every line must parse with
//! [`funtal_parser::parse_fty`], re-render to exactly the same bytes
//! and have no free type variables, and a compile payload must hold
//! one line per definition of the program its key names. Any failure is a store *reject*: the
//! entry is deleted and the stage recomputes. `funtal store verify`
//! applies the same function.

use funtal_compile::lang::Program;
use funtal_store::Stage;
use funtal_syntax::FTy;

use crate::wire::decode_types;

/// The store key for a MiniF compilation: the codegen option byte
/// followed by the source text (the disk analogue of the in-memory
/// `(src, tco)` tuple key).
pub fn compile_key(src: &str, tail_call_opt: bool) -> Vec<u8> {
    let mut key = Vec::with_capacity(1 + src.len());
    key.push(tail_call_opt as u8);
    key.extend_from_slice(src.as_bytes());
    key
}

/// A decoded store entry.
#[derive(Debug)]
pub enum Verdict {
    /// A check-stage entry: the term's type.
    Check(FTy),
    /// A compile-stage entry: the program its key names and the type
    /// of each wrapped definition, in `program.defs` order.
    Compile {
        /// The MiniF program parsed from the key's source text.
        program: Program,
        /// The codegen option byte of the key.
        tail_call_opt: bool,
        /// One type per definition.
        types: Vec<FTy>,
    },
}

/// Decodes the entry stored under `key` in `stage` — the one gate both
/// a cache load and `funtal store verify` apply.
pub fn decode(stage: Stage, key: &[u8], payload: &[u8]) -> Result<Verdict, String> {
    match stage {
        Stage::Check => Ok(Verdict::Check(decode_types(payload, 1)?.remove(0))),
        Stage::Compile => {
            let (&tco, src) = key.split_first().ok_or("empty compile key")?;
            let tail_call_opt = match tco {
                0 => false,
                1 => true,
                b => return Err(format!("codegen option byte {b}")),
            };
            let src = std::str::from_utf8(src).map_err(|e| format!("key: {e}"))?;
            let program = crate::minif::parse_minif(src).map_err(|e| e.to_string())?;
            let types = decode_types(payload, program.defs.len())?;
            Ok(Verdict::Compile {
                program,
                tail_call_opt,
                types,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_types;
    use crate::Pipeline;

    #[test]
    fn checked_artifact_round_trips() {
        let p = Pipeline::new();
        let expr = p.parse("(lam[z](x: int). x + 1)(41)").expect("parse");
        let ty = p.check(&expr).expect("check");
        let bytes = encode_types([&ty]);
        match decode(Stage::Check, b"key", &bytes).expect("decode") {
            Verdict::Check(back) => assert_eq!(back, ty),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compiled_artifact_round_trips_for_both_tco_modes() {
        let src = "fn fact(n) = if0 n { 1 } { fact(n - 1) * n }\nfn twice(n) = n + n";
        for tco in [false, true] {
            let p = Pipeline::new()
                .with_codegen(funtal_compile::codegen::CodegenOpts { tail_call_opt: tco });
            let bundle = p.compile_minif_source(src).expect("compile");
            let bytes = encode_types(bundle.wrapped.iter().map(|(_, _, t)| t));
            let Verdict::Compile {
                program,
                tail_call_opt,
                types,
            } = decode(Stage::Compile, &compile_key(src, tco), &bytes).expect("decode")
            else {
                panic!("a compile entry decoded as a check entry");
            };
            assert_eq!(program, bundle.program);
            assert_eq!(tail_call_opt, tco);
            let want: Vec<&FTy> = bundle.wrapped.iter().map(|(_, _, t)| t).collect();
            assert_eq!(types.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn truncated_payloads_reject() {
        let bytes = encode_types([&funtal_parser::parse_fty("(int, int) -> int").unwrap()]);
        for cut in 0..bytes.len() {
            assert!(
                decode(Stage::Check, b"key", &bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn non_canonical_and_miscounted_payloads_reject() {
        let key = compile_key("fn f(n) = n", false);
        for (stage, key, payload) in [
            (Stage::Check, &b"k"[..], &b"int "[..]),
            (Stage::Check, b"k", b"(int,int) -> int"),
            (Stage::Check, b"k", b"int\nint"),
            (Stage::Check, b"k", b"int\n"),
            (Stage::Check, b"k", b"\xff"),
            (Stage::Compile, &key, b"(int) -> int\n(int) -> int"),
            (Stage::Compile, &key, b"(int) -> "),
            (Stage::Compile, b"\x02fn f(n) = n", b"(int) -> int"),
            (Stage::Compile, b"\x00fn f(n) =", b"(int) -> int"),
        ] {
            assert!(
                decode(stage, key, payload).is_err(),
                "{stage:?} {:?} decoded",
                String::from_utf8_lossy(payload)
            );
        }
        assert!(decode(Stage::Compile, &key, b"(int) -> int").is_ok());
    }

    #[test]
    fn compile_keys_distinguish_options_and_sources() {
        assert_ne!(
            compile_key("fn f(n) = n", false),
            compile_key("fn f(n) = n", true)
        );
        assert_ne!(
            compile_key("fn f(n) = n", false),
            compile_key("fn g(n) = n", false)
        );
    }
}
