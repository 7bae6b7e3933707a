//! The `pdac` binary on bad input: a one-line `pdac: …` message and exit
//! status 1, never a panic or a silent default.

use std::process::Command;

#[test]
fn bad_roots_and_seeds_exit_1_with_a_message() {
    let pdac = |args: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_pdac")).args(args.split(' ')).output().unwrap();
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for args in [
        "tree ig contiguous 99",
        "dot zoot contiguous 40",
        "tree ig contiguous abc",
        "tree ig randomx",
    ] {
        let (code, stderr) = pdac(args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(stderr.starts_with("pdac: ") && stderr.lines().count() == 1, "{args}: {stderr}");
    }
    for args in ["tree ig random7 47", "dot zoot contiguous 15"] {
        assert_eq!(pdac(args).0, Some(0), "{args}");
    }
}
