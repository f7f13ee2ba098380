//! The §6 JIT pipeline: a MiniF program starts interpreted, gets hot,
//! and is replaced by compiled assembly. Per-invocation step counts
//! show the configuration change: less F work, more T instructions.
//!
//! ```sh
//! cargo run --example jit_pipeline
//! ```

use funtal_compile::codegen::CodegenOpts;
use funtal_compile::jit::{Jit, Mode};
use funtal_driver::{minif::parse_minif, FunTalError};

fn main() -> Result<(), FunTalError> {
    // The same factorial the CLI compiles from examples/fact.mf, here
    // parsed from MiniF concrete syntax and handed to the JIT runtime.
    let program = parse_minif("fn fact(n) = if0 n { 1 } { fact(n - 1) * n }")?;
    println!("source: fact(n) = if0 n {{ 1 }} {{ fact(n - 1) * n }}");
    println!(
        "reference: fact(8) = {}\n",
        program.eval("fact", &[8], 100)?
    );

    let mut jit = Jit::new(
        program,
        3,
        CodegenOpts {
            tail_call_opt: true,
        },
    );
    println!("threshold: 3 invocations\n");
    println!("call | mode        | result | F steps | T instrs | crossings");
    println!("-----+-------------+--------+---------+----------+----------");
    for i in 1..=8 {
        let stats = jit
            .invoke("fact", &[8], 10_000_000)
            .map_err(FunTalError::Driver)?;
        println!(
            "{i:4} | {:<11} | {:>6} | {:>7} | {:>8} | {:>9}",
            match stats.mode {
                Mode::Interpreted => "interpreted",
                Mode::Compiled => "compiled",
            },
            stats.result,
            stats.f_steps,
            stats.t_instrs,
            stats.crossings,
        );
    }
    println!("\nafter the threshold the same source runs as T code behind a");
    println!("boundary; §6's correctness condition (source ≈ compiled) is");
    println!("checked in crates/compile/tests/jit_correctness.rs.");
    Ok(())
}
