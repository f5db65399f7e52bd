//! `pc` CLI checks: `pc serve` rejects an out-of-range `--threshold` with a
//! usage error instead of starting (or panicking while building the store),
//! and `pc identify` recovers from a torn database through its backup.

use std::fs;
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

/// Writes a `w`×`h` binary PGM (P5) of `pixels`.
fn write_pgm(path: &str, w: usize, h: usize, pixels: &[u8]) {
    let mut bytes = format!("P5\n{w} {h}\n255\n").into_bytes();
    bytes.extend_from_slice(pixels);
    fs::write(path, bytes).expect("write pgm");
}

/// Runs `pc args`, asserts it succeeded, and returns its stdout.
fn pc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pc"))
        .args(args)
        .output()
        .expect("run pc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "pc {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn identify_survives_a_truncated_database() {
    let dir = std::env::temp_dir().join(format!("pc-serve-cli-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (db, exact_pgm) = (path("db.txt"), path("exact.pgm"));
    let (w, h) = (32, 32);
    let exact: Vec<u8> = (0..w * h).map(|i| (i * 7 % 251) as u8).collect();
    write_pgm(&exact_pgm, w, h, &exact);
    // Each label's "approximate" copies flip the same bits: a stable fingerprint.
    for (label, first) in [("chip-a", 0usize), ("chip-b", 500)] {
        let mut approx = exact.clone();
        for k in 0..12 {
            approx[first + k * 37] ^= 1 << (k % 8);
        }
        let approx_pgm = path(&format!("{label}.pgm"));
        write_pgm(&approx_pgm, w, h, &approx);
        pc(&[
            "characterize",
            "--db",
            &db,
            "--label",
            label,
            &exact_pgm,
            &approx_pgm,
            &approx_pgm,
        ]);
    }

    // A crash mid-write leaves a torn primary; the backup still answers.
    let full = fs::read(&db).expect("read db");
    fs::write(&db, &full[..full.len() / 2]).expect("truncate db");
    let stdout = pc(&["identify", "--db", &db, &exact_pgm, &path("chip-b.pgm")]);
    assert!(stdout.contains("MATCH: chip-b"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}
