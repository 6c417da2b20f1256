//! `polymg-cli -o` / `--profile` to a path that cannot be written must fail
//! like a tool, not like a bug: a non-zero exit, the path and the reason on
//! stderr, no panic.

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
