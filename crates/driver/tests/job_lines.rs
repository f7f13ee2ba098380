//! A job stream survives a bad line: `funtal serve` and `funtal batch -`
//! answer a line that is not UTF-8, or is longer than
//! [`MAX_JOB_LINE_BYTES`], with its own `error[driver]` result and go on
//! to the jobs after it.

use std::io::Write;
use std::process::{Command, Stdio};

use funtal_driver::batch::MAX_JOB_LINE_BYTES;

#[test]
fn serve_and_batch_answer_every_line_of_a_mixed_stream() {
    let job = |id: &str, src: &str| format!(r#"{{"id":"{id}","cmd":"run","src":"{src}"}}"#);
    let mut input = format!("{}\n", job("a", "1 + 2")).into_bytes();
    input.extend_from_slice(b"\xff\xfe bad\n");
    input.extend(format!("{}\n", job("c", "3 + 4")).bytes());
    input.extend(std::iter::repeat_n(b'x', 2 * MAX_JOB_LINE_BYTES + 1));
    input.extend(format!("\n{}\n", job("e", "5 + 6")).bytes());
    let bad = |n: usize, why: &str| {
        format!(
            r#"{{"id":"job{n}","cmd":"invalid","ok":false,"stage":"driver","error":"error[driver]: jobs line {n}: {why}"}}"#
        )
    };
    let too_long = format!("longer than {MAX_JOB_LINE_BYTES} bytes");
    for args in [&["serve"][..], &["batch", "-"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_funtal"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning funtal");
        let mut stdin = child.stdin.take().expect("piped stdin");
        let input = input.clone();
        let writer = std::thread::spawn(move || stdin.write_all(&input));
        let out = child.wait_with_output().expect("running funtal");
        writer.join().expect("writer thread").expect("writing jobs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let lines: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with(r#"{"id""#))
            .collect();
        assert_eq!(lines.len(), 5, "{args:?}: one result per line:\n{stdout}");
        for (i, id, value) in [(0, "a", 3), (2, "c", 7), (4, "e", 11)] {
            let ok =
                format!(r#"{{"id":"{id}","cmd":"run","ok":true,"type":"int","value":"{value}""#);
            assert!(lines[i].starts_with(&ok), "{args:?}: {}", lines[i]);
        }
        assert_eq!(lines[1], bad(2, "not valid UTF-8"), "{args:?}");
        assert_eq!(lines[3], bad(4, &too_long), "{args:?}");
    }
}
