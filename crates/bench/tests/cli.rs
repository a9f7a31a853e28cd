//! The `experiments` binary's exit status.

use std::process::Command;

#[test]
fn a_failed_write_fails_the_run() {
    // `--out` names a regular file, so no result directory can be made.
    let out = std::env::temp_dir().join(format!("windex-cli-out-{}", std::process::id()));
    std::fs::write(&out, b"not a directory").unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    std::fs::remove_file(&out).unwrap();
    assert!(!status.status.success(), "exit {:?}", status.status);
    let stderr = String::from_utf8_lossy(&status.stderr);
    assert!(
        stderr.contains("could not write table1"),
        "stderr: {stderr}"
    );
}
