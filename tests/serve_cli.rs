//! `pc serve` rejects an out-of-range `--threshold` with a usage error
//! instead of starting (or panicking while building the store).

use std::process::{Command, Stdio};

#[test]
fn serve_rejects_threshold_outside_unit_interval() {
    for bad in ["2", "0", "nan", "-0.5", "x"] {
        // --watch-stdin on a closed stdin: were the value accepted, the
        // server would drain and exit at once rather than block the test.
        let out = Command::new(env!("CARGO_BIN_EXE_pc"))
            .args(["serve", "--addr", "127.0.0.1:0", "--watch-stdin"])
            .args(["--threshold", bad])
            .stdin(Stdio::null())
            .output()
            .expect("run pc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--threshold {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("bad --threshold {bad:?}")),
            "--threshold {bad}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--threshold {bad}: {stderr}");
    }
}
