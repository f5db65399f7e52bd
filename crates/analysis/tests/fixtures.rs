//! Fixture-tree integration tests: for each lint family, a tiny synthetic
//! workspace with an injected violation must produce exactly that finding,
//! and the baseline ratchet must behave end to end through `run_cli`.

use pc_analysis::{analyze, run_cli, tree_status, Baseline};
use std::fs;
use std::path::{Path, PathBuf};

/// Builds a fresh fixture tree under the crate's target tmpdir from
/// `(relative path, contents)` pairs and returns its root.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear old fixture");
    }
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("mkdir fixture");
        fs::write(&path, contents).expect("write fixture");
    }
    root
}

fn lint_ids(root: &Path) -> Vec<(String, String, usize)> {
    analyze(root)
        .expect("analyze fixture")
        .findings
        .into_iter()
        .map(|f| (f.lint.to_string(), f.file, f.line))
        .collect()
}

#[test]
fn d_family_catches_injected_violations() {
    let root = fixture(
        "d-family",
        &[(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\n\
             fn f() { let t = std::time::Instant::now(); }\n\
             fn g() { let r = rand::thread_rng(); }\n",
        )],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("D001".into(), "crates/core/src/x.rs".into(), 1),
            ("D002".into(), "crates/core/src/x.rs".into(), 2),
            ("D003".into(), "crates/core/src/x.rs".into(), 3),
        ]
    );
}

#[test]
fn p_family_catches_injected_violations_only_in_service_src() {
    let body = "fn f(xs: &[u8]) -> u8 {\n\
                let a = xs.first().unwrap();\n\
                let b = xs.first().expect(\"b\");\n\
                if xs.is_empty() { panic!(\"boom\"); }\n\
                xs[0]\n\
                }\n";
    let root = fixture(
        "p-family",
        &[
            ("crates/service/src/handler.rs", body),
            ("crates/core/src/same_code.rs", body),
        ],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("P001".into(), "crates/service/src/handler.rs".into(), 2),
            ("P002".into(), "crates/service/src/handler.rs".into(), 3),
            ("P003".into(), "crates/service/src/handler.rs".into(), 4),
            ("P004".into(), "crates/service/src/handler.rs".into(), 5),
        ]
    );
}

#[test]
fn u_family_catches_injected_violations() {
    let root = fixture(
        "u-family",
        &[(
            "crates/kernels/src/x.rs",
            "fn f() { unsafe { g() } }\n\
             fn h() { let b = Bitset::from_sorted_unchecked(v); }\n",
        )],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("U001".into(), "crates/kernels/src/x.rs".into(), 1),
            ("U003".into(), "crates/kernels/src/x.rs".into(), 1),
            ("U002".into(), "crates/kernels/src/x.rs".into(), 2),
        ]
    );
}

#[test]
fn w_family_catches_injected_violations() {
    let root = fixture(
        "w-family",
        &[
            (
                "crates/telemetry/src/catalog.rs",
                "pub const COUNTERS: &[&str] = &[\n    \"svc.hits\",\n    \"svc.unused\",\n];\n",
            ),
            (
                "crates/service/src/protocol.rs",
                "pub enum Request {\n    Ping,\n    Untested { id: u64 },\n}\n",
            ),
            (
                "crates/service/src/lib.rs",
                "fn f() { counter!(\"svc.hits\").add(1); counter!(\"svc.rogue\").add(1); }\n",
            ),
            (
                "crates/service/tests/codec.rs",
                "#[test]\nfn ping_roundtrip() { let r = Request::Ping; }\n",
            ),
        ],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("W002".into(), "crates/service/src/lib.rs".into(), 1),
            ("W001".into(), "crates/service/src/protocol.rs".into(), 3),
            ("W003".into(), "crates/telemetry/src/catalog.rs".into(), 3),
        ]
    );
}

#[test]
fn suppressions_silence_findings_and_malformed_ones_are_a001() {
    let root = fixture(
        "suppressions",
        &[(
            "crates/core/src/x.rs",
            "// pc-allow: D001 — fixture exercises suppression-above\n\
             use std::collections::HashMap;\n\
             fn f() { let t = Instant::now(); } // pc-allow: D002 — same-line form\n\
             fn g() { let r = thread_rng(); } // pc-allow: D003\n",
        )],
    );
    // Lines 1-3 are suppressed; line 4's pc-allow has no reason, so the
    // suppression is rejected (A001) and D003 still fires.
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("A001".into(), "crates/core/src/x.rs".into(), 4),
            ("D003".into(), "crates/core/src/x.rs".into(), 4),
        ]
    );
}

#[test]
fn walk_skips_target_results_hidden_and_compat() {
    let bad = "use std::collections::HashMap;\n";
    let root = fixture(
        "walk-exclusions",
        &[
            ("target/debug/build/gen.rs", bad),
            ("results/fig05/snippet.rs", bad),
            (".hidden/x.rs", bad),
            ("crates/compat/rand/src/lib.rs", bad),
            ("crates/core/src/ok.rs", "fn f() {}\n"),
        ],
    );
    assert!(lint_ids(&root).is_empty());
    assert_eq!(analyze(&root).expect("analyze").files_scanned, 1);
}

#[test]
fn baseline_ratchet_via_cli_exit_codes() {
    let dirty = "fn f() { let t = std::time::Instant::now(); }\n";
    let root = fixture("ratchet-cli", &[("crates/core/src/x.rs", dirty)]);
    let arg = |s: &str| s.to_string();
    let run = |extra: &[String]| {
        let mut args = vec![arg("--root"), root.to_string_lossy().into_owned()];
        args.extend_from_slice(extra);
        run_cli(&args)
    };

    // Dirty tree, no baseline: findings -> exit 1, and the tree reads dirty.
    assert_eq!(run(&[]), 1);
    assert_eq!(tree_status(&root), "dirty:1");

    // Accept the debt: --update-baseline writes the file, re-run is clean.
    assert_eq!(run(&[arg("--update-baseline")]), 0);
    assert!(root.join("analysis-baseline.json").exists());
    assert_eq!(run(&[arg("--format"), arg("json")]), 0);
    assert_eq!(tree_status(&root), "clean");

    // Regression: a second violation exceeds the budget -> exit 1.
    fs::write(
        root.join("crates/core/src/x.rs"),
        format!("{dirty}fn g() {{ let t = std::time::Instant::now(); }}\n"),
    )
    .expect("grow fixture");
    assert_eq!(run(&[]), 1);

    // Fix everything: the budgeted entry is now stale -> still exit 1
    // (the ratchet only moves down explicitly) ...
    fs::write(root.join("crates/core/src/x.rs"), "fn f() {}\n").expect("fix fixture");
    assert_eq!(run(&[]), 1);
    assert_eq!(tree_status(&root), "dirty:1");

    // ... until --update-baseline removes the now-empty baseline.
    assert_eq!(run(&[arg("--update-baseline")]), 0);
    assert!(!root.join("analysis-baseline.json").exists());
    assert_eq!(run(&[]), 0);
}

#[test]
fn malformed_baseline_is_an_internal_error() {
    let root = fixture("bad-baseline", &[("crates/core/src/x.rs", "fn f() {}\n")]);
    fs::write(
        root.join("analysis-baseline.json"),
        "{\"schema\": \"nope\"}",
    )
    .expect("write bad baseline");
    let args = vec!["--root".to_string(), root.to_string_lossy().into_owned()];
    assert_eq!(run_cli(&args), 2);
}

#[test]
fn baseline_render_parse_roundtrip_through_files() {
    let root = fixture(
        "baseline-roundtrip",
        &[(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nuse std::collections::HashSet;\n",
        )],
    );
    let findings = analyze(&root).expect("analyze").findings;
    let baseline = Baseline::from_findings(&findings);
    let reparsed = Baseline::parse(&baseline.render()).expect("reparse");
    assert_eq!(baseline.entries, reparsed.entries);
    assert_eq!(
        reparsed
            .entries
            .get(&("D001".to_string(), "crates/core/src/x.rs".to_string())),
        Some(&2)
    );
    assert!(reparsed.compare(findings).is_clean());
}

#[test]
fn c001_lock_order_cycle_fixture() {
    // AB in one function, BA in another: two edges, one cycle, one
    // finding per edge.
    let root = fixture(
        "c001-positive",
        &[(
            "crates/service/src/order.rs",
            "fn ab(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   let _b = self.beta.lock();\n\
             }\n\
             fn ba(&self) {\n\
             \x20   let _b = self.beta.lock();\n\
             \x20   let _a = self.alpha.lock();\n\
             }\n",
        )],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("C001".into(), "crates/service/src/order.rs".into(), 3),
            ("C001".into(), "crates/service/src/order.rs".into(), 7),
        ]
    );

    // pc-allow above each edge's witness line silences both halves.
    let allowed = fixture(
        "c001-allowed",
        &[(
            "crates/service/src/order.rs",
            "fn ab(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   // pc-allow: C001 — fixture: this ordering is sanctioned\n\
             \x20   let _b = self.beta.lock();\n\
             }\n\
             fn ba(&self) {\n\
             \x20   let _b = self.beta.lock();\n\
             \x20   // pc-allow: C001 — fixture: this ordering is sanctioned\n\
             \x20   let _a = self.alpha.lock();\n\
             }\n",
        )],
    );
    assert!(lint_ids(&allowed).is_empty());

    // A consistent acquisition order everywhere is clean.
    let clean = fixture(
        "c001-clean",
        &[(
            "crates/service/src/order.rs",
            "fn ab(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   let _b = self.beta.lock();\n\
             }\n\
             fn ab2(&self) {\n\
             \x20   let _a = self.alpha.lock();\n\
             \x20   let _b = self.beta.lock();\n\
             }\n",
        )],
    );
    assert!(lint_ids(&clean).is_empty());
}

#[test]
fn c002_fan_out_save_fixture() {
    // The PR 8 bug, minimized: fan_out_write holds the non-reentrant
    // mutation lock and calls maybe_checkpoint, which reaches
    // fan_out_save, which re-takes the same lock.
    let root = fixture(
        "c002-positive",
        &[(
            "crates/service/src/router.rs",
            "fn fan_out_write(&self) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             \x20   self.maybe_checkpoint(origin);\n\
             }\n\
             fn maybe_checkpoint(&self, origin: u64) {\n\
             \x20   self.fan_out_save(origin);\n\
             }\n\
             fn fan_out_save(&self, origin: u64) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             }\n",
        )],
    );
    let findings = analyze(&root).expect("analyze fixture").findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "C002");
    assert_eq!(findings[0].line, 3, "flagged at the re-entrant callsite");
    assert!(
        findings[0].message.contains("fan_out_save"),
        "witness chain names the re-acquiring function: {}",
        findings[0].message
    );

    let allowed = fixture(
        "c002-allowed",
        &[(
            "crates/service/src/router.rs",
            "fn fan_out_write(&self) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             \x20   // pc-allow: C002 — fixture: checkpoint is re-entrant by contract\n\
             \x20   self.maybe_checkpoint(origin);\n\
             }\n\
             fn maybe_checkpoint(&self, origin: u64) {\n\
             \x20   self.fan_out_save(origin);\n\
             }\n\
             fn fan_out_save(&self, origin: u64) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             }\n",
        )],
    );
    assert!(lint_ids(&allowed).is_empty());

    // The shipped fix: checkpoint inside the already-held critical
    // section, save helper takes no lock of its own.
    let clean = fixture(
        "c002-clean",
        &[(
            "crates/service/src/router.rs",
            "fn fan_out_write(&self) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             \x20   self.checkpoint_live(origin);\n\
             }\n\
             fn checkpoint_live(&self, origin: u64) {\n\
             \x20   self.journal_len(origin);\n\
             }\n",
        )],
    );
    assert!(lint_ids(&clean).is_empty());
}

#[test]
fn c003_hold_across_blocking_fixture() {
    let root = fixture(
        "c003-positive",
        &[(
            "crates/service/src/conn.rs",
            "fn f(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   stream.write_frame(&msg);\n\
             }\n",
        )],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![("C003".into(), "crates/service/src/conn.rs".into(), 3)]
    );

    let allowed = fixture(
        "c003-allowed",
        &[(
            "crates/service/src/conn.rs",
            "fn f(&self) {\n\
             \x20   let _g = self.state.lock();\n\
             \x20   stream.write_frame(&msg); // pc-allow: C003 — fixture: frame writes have a deadline\n\
             }\n",
        )],
    );
    assert!(lint_ids(&allowed).is_empty());

    // Guard scoped to its own block: released before the wire write.
    let clean = fixture(
        "c003-clean",
        &[(
            "crates/service/src/conn.rs",
            "fn f(&self) {\n\
             \x20   {\n\
             \x20       let _g = self.state.lock();\n\
             \x20   }\n\
             \x20   stream.write_frame(&msg);\n\
             }\n",
        )],
    );
    assert!(lint_ids(&clean).is_empty());

    // The router's routed call — reads, saves and stamped writes alike —
    // is wire I/O: forwarding a write under the mutation lock is a hold.
    let routed = fixture(
        "c003-routed-write",
        &[(
            "crates/service/src/router.rs",
            "fn fan_out_write(&self) {\n\
             \x20   let _order = self.mutation_lock.lock();\n\
             \x20   let r = c.call_routed(&req, origin, Some(wseq));\n\
             }\n",
        )],
    );
    assert_eq!(
        lint_ids(&routed),
        vec![("C003".into(), "crates/service/src/router.rs".into(), 3)]
    );
}

#[test]
fn c004_guard_escape_fixture() {
    let root = fixture(
        "c004-positive",
        &[(
            "crates/service/src/hold.rs",
            "pub struct Held<'a> {\n\
             \x20   guard: MutexGuard<'a, u32>,\n\
             }\n\
             fn grab(&self) -> MutexGuard<'_, u32> {\n\
             \x20   self.state.lock()\n\
             }\n",
        )],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("C004".into(), "crates/service/src/hold.rs".into(), 2),
            ("C004".into(), "crates/service/src/hold.rs".into(), 4),
        ]
    );

    let allowed = fixture(
        "c004-allowed",
        &[(
            "crates/service/src/hold.rs",
            "pub struct Held<'a> {\n\
             \x20   // pc-allow: C004 — fixture: the struct is itself a scoped RAII token\n\
             \x20   guard: MutexGuard<'a, u32>,\n\
             }\n\
             // pc-allow: C004 — fixture: single caller scopes the guard to one statement\n\
             fn grab(&self) -> MutexGuard<'_, u32> {\n\
             \x20   self.state.lock()\n\
             }\n",
        )],
    );
    assert!(lint_ids(&allowed).is_empty());

    let clean = fixture(
        "c004-clean",
        &[(
            "crates/service/src/hold.rs",
            "fn with_state(&self) -> u32 {\n\
             \x20   let g = self.state.lock();\n\
             \x20   *g\n\
             }\n",
        )],
    );
    assert!(lint_ids(&clean).is_empty());
}

#[test]
fn w004_fault_site_registry_fixture() {
    // One declared-and-referenced site (clean), one rogue reference, one
    // orphaned declaration.
    let root = fixture(
        "w004-positive",
        &[
            (
                "crates/faults/src/lib.rs",
                "pub const SITES: &[&str] = &[\n\
                 \x20   \"persist.orphan\",\n\
                 \x20   \"wire.read\",\n\
                 ];\n",
            ),
            (
                "crates/service/src/conn.rs",
                "fn f(&self) {\n\
                 \x20   pc_faults::fail_point(\"wire.read\", || abort());\n\
                 \x20   self.faults.check(\"wire.rogue\");\n\
                 }\n",
            ),
        ],
    );
    let found = lint_ids(&root);
    assert_eq!(
        found,
        vec![
            ("W004".into(), "crates/faults/src/lib.rs".into(), 2),
            ("W004".into(), "crates/service/src/conn.rs".into(), 3),
        ]
    );

    let allowed = fixture(
        "w004-allowed",
        &[
            (
                "crates/faults/src/lib.rs",
                "pub const SITES: &[&str] = &[\n\
                 \x20   \"persist.orphan\", // pc-allow: W004 — fixture: reserved for the next experiment\n\
                 \x20   \"wire.read\",\n\
                 ];\n",
            ),
            (
                "crates/service/src/conn.rs",
                "fn f(&self) {\n\
                 \x20   pc_faults::fail_point(\"wire.read\", || abort());\n\
                 \x20   // pc-allow: W004 — fixture: site registered by a downstream build\n\
                 \x20   self.faults.check(\"wire.rogue\");\n\
                 }\n",
            ),
        ],
    );
    assert!(lint_ids(&allowed).is_empty());

    // References inside #[cfg(test)] don't count — no rogue-site finding,
    // and a matching declaration is still satisfied by the non-test ref.
    let clean = fixture(
        "w004-clean",
        &[
            (
                "crates/faults/src/lib.rs",
                "pub const SITES: &[&str] = &[\n\
                 \x20   \"wire.read\",\n\
                 ];\n",
            ),
            (
                "crates/service/src/conn.rs",
                "fn f(&self) {\n\
                 \x20   pc_faults::fail_point(\"wire.read\", || abort());\n\
                 }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                 \x20   fn t(&self) {\n\
                 \x20       pc_faults::fail_point(\"wire.made-up\", || abort());\n\
                 \x20   }\n\
                 }\n",
            ),
        ],
    );
    assert!(lint_ids(&clean).is_empty());
}

/// The acceptance gate: the shipped tree itself analyzes clean against its
/// checked-in baseline.
#[test]
fn shipped_tree_is_clean() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pc_analysis::find_workspace_root(here).expect("workspace root");
    assert_eq!(tree_status(&root), "clean", "run `pc analyze` for details");
}
