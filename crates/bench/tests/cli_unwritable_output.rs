//! Bad `polymg-cli` input must fail like a tool, not like a bug: an
//! unwritable `-o` / `--profile` path and an unusable flag value each exit
//! non-zero with the path or flag and the reason on stderr, and never
//! panic.

use std::process::Command;

#[test]
fn unwritable_output_path_is_an_error_not_a_panic() {
    let missing = std::env::temp_dir().join(format!("gmg-no-such-dir-{}", std::process::id()));
    assert!(!missing.exists());
    for flag in ["-o", "--profile"] {
        let path = missing.join("out.json");
        let out = Command::new(env!("CARGO_BIN_EXE_polymg-cli"))
            .args(["V-2D-2-2-2", "--n", "15", "--iters", "1", flag])
            .arg(&path)
            .output()
            .expect("run polymg-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag}: exited zero\n{stderr}");
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        let expected = format!("error: cannot write {}: ", path.display());
        assert!(stderr.contains(&expected), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 5] = [
        (&["V-2D", "--n"], "--n"),
        (&["V-2D", "--n", "8"], "--n"),
        (&["V-2D", "--n", "0"], "--n"),
        (&["V-2D", "--levels", "20"], "--levels"),
        (&["V-2D", "--tiles", "0,0"], "--tiles"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_polymg-cli"))
            .args(args)
            .output()
            .expect("run polymg-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
