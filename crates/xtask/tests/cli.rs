//! The gate's command line: exit codes and what it prints.
//!
//! CI reads only the exit status of `mccls-xtask check`, so each way
//! the binary can end is pinned here against the built executable.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Output;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Runs the gate binary with `args` and returns its exit code, stdout
/// and stderr.
fn xtask(args: &[&str]) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = std::process::Command::new(env!("CARGO_BIN_EXE_mccls-xtask"))
        .args(args)
        .output()
        .expect("the gate binary runs");
    (
        status.code(),
        String::from_utf8_lossy(&stdout).into_owned(),
        String::from_utf8_lossy(&stderr).into_owned(),
    )
}

/// A fresh directory under the system temp dir, named after the test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mccls-xtask-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("temp path is UTF-8")
}

#[test]
fn shipped_tree_exits_zero_and_prints_clean() {
    let root = workspace_root();
    let (code, stdout, _) = xtask(&["check", "--root", path_arg(&root)]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("xtask check: clean"), "{stdout}");
}

#[test]
fn one_finding_exits_one_with_the_finding_and_the_fix_hint() {
    let root = scratch_dir("finding");
    std::fs::create_dir_all(root.join("crates/core/src")).expect("crate dir is writable");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest is writable");
    std::fs::write(
        root.join("crates/core/src/lib.rs"),
        "pub fn coin(rng: &mut Rng) -> bool {\n    let x = Fr::random(rng);\n    \
         if x.is_zero() {\n        return true;\n    }\n    false\n}\n",
    )
    .expect("source is writable");
    let (code, stdout, _) = xtask(&["check", "--root", path_arg(&root)]);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("crates/core/src/lib.rs:3: [ct] branch conditioned on secret-carrying `x`"),
        "{stdout}"
    );
    assert!(
        stdout.contains("Fix the code, or suppress a reviewed site"),
        "{stdout}"
    );
}

#[test]
fn an_unknown_argument_exits_one() {
    let (code, _, stderr) = xtask(&["check", "--update-baseline"]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("unknown argument `--update-baseline`"),
        "{stderr}"
    );
}

#[test]
fn a_bad_root_exits_one() {
    let (code, _, stderr) = xtask(&["check", "--root"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("`--root` requires a directory"), "{stderr}");

    let root = scratch_dir("no-crates");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest is writable");
    let (code, _, stderr) = xtask(&["check", "--root", path_arg(&root)]);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("does not look like the workspace root"),
        "{stderr}"
    );
}
