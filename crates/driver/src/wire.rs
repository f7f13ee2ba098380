//! Payload framing for persisted verdicts: a known number of
//! canonical type lines joined by `\n`.
//!
//! The reader is told how many types to expect (one for a check
//! entry, one per definition for a compile entry), so a truncated or
//! padded payload is an error here rather than a shorter list.

use funtal_syntax::FTy;

use crate::codec::decode_type;

/// Encodes types as canonical text, one per line.
pub fn encode_types<'a>(tys: impl IntoIterator<Item = &'a FTy>) -> Vec<u8> {
    let lines: Vec<String> = tys.into_iter().map(FTy::to_string).collect();
    lines.join("\n").into_bytes()
}

/// Decodes a payload that must hold exactly `count` types.
pub(crate) fn decode_types(payload: &[u8], count: usize) -> Result<Vec<FTy>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload: {e}"))?;
    let lines: Vec<&str> = text.split('\n').collect();
    if lines.len() != count {
        return Err(format!("{} types where {count} are expected", lines.len()));
    }
    lines
        .into_iter()
        .enumerate()
        .map(|(i, line)| decode_type(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use funtal_compile::codegen::CodegenOpts;

    const SRC: &str = "fn fact(n) = if0 n { 1 } { fact(n - 1) * n }\nfn twice(n) = n + n";

    fn wrapped_types(tco: bool) -> Vec<FTy> {
        let p = Pipeline::new().with_codegen(CodegenOpts { tail_call_opt: tco });
        let bundle = p.compile_minif_source(SRC).expect("compile");
        bundle.wrapped.iter().map(|(_, _, t)| t.clone()).collect()
    }

    #[test]
    fn compiled_round_trips_for_both_tco_modes() {
        for tco in [false, true] {
            let tys = wrapped_types(tco);
            assert_eq!(tys.len(), 2);
            let bytes = encode_types(&tys);
            assert_eq!(decode_types(&bytes, tys.len()).expect("decode"), tys);
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let tys = wrapped_types(false);
        let bytes = encode_types(&tys);
        for cut in 0..bytes.len() {
            assert!(
                decode_types(&bytes[..cut], tys.len()).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn miscounted_payloads_reject() {
        let bytes = encode_types(&wrapped_types(false));
        assert!(decode_types(&bytes, 1).is_err());
        assert!(decode_types(&bytes, 3).is_err());
        let mut padded = bytes.clone();
        padded.push(b'\n');
        assert!(decode_types(&padded, 2).is_err());
    }
}
