//! The rules rustc and cargo enforce only while the manifests ask for
//! them: every manifest opts into the workspace lint table, the table
//! forbids `unsafe` and keeps the six panic-family clippy keys, and neither
//! lockfile names a package from outside the repository (a registry or
//! git package always has a `source =` line; a path crate never does).
//! Each check is a function over text that also runs on a seeded
//! violation, so none can pass by going blind.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used)]

use std::path::PathBuf;

/// The trimmed entries of the TOML table headed exactly `[name]`.
fn table<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let mut inside = false;
    let mut entries = Vec::new();
    for line in toml.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == header;
        } else if inside && !line.is_empty() {
            entries.push(line);
        }
    }
    entries
}

fn opts_into_workspace_lints(manifest: &str) -> bool {
    table(manifest, "lints").contains(&"workspace = true")
}

/// The clippy keys that flag every panic macro and every
/// `unwrap`/`expect` in non-test code.
const PANIC_KEYS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
];

/// The keys the root manifest's lint tables fail to set.
fn missing_workspace_lints(root: &str) -> Vec<&'static str> {
    let mut missing = Vec::new();
    if !table(root, "workspace.lints.rust").contains(&"unsafe_code = \"forbid\"") {
        missing.push("unsafe_code");
    }
    let clippy = table(root, "workspace.lints.clippy");
    for key in PANIC_KEYS {
        if !clippy
            .iter()
            .any(|e| e.split('=').next().map(str::trim) == Some(key))
        {
            missing.push(key);
        }
    }
    missing
}

/// The `source =` lines of a lockfile, one per registry or git package.
fn remote_sources(lock: &str) -> Vec<&str> {
    let lines = lock.lines().map(str::trim);
    lines.filter(|l| l.starts_with("source =")).collect()
}

#[test]
fn the_workspace_keeps_its_manifest_rules() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("the file reads");
    let mut manifests: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .flatten()
        .map(|e| format!("crates/{}/Cargo.toml", e.file_name().to_string_lossy()))
        .filter(|m| root.join(m).is_file())
        .collect();
    assert!(manifests.contains(&"crates/xtask/Cargo.toml".to_owned()));
    manifests.push("Cargo.toml".to_owned());
    for manifest in &manifests {
        let opted = opts_into_workspace_lints(&read(manifest));
        assert!(opted, "{manifest} lacks `[lints] workspace = true`");
    }
    let missing = missing_workspace_lints(&read("Cargo.toml"));
    assert!(
        missing.is_empty(),
        "the workspace lint tables lack {missing:?}"
    );
    for lock in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let text = read(lock);
        assert!(
            text.contains("name = \"mccls-core\""),
            "{lock} lists no crate"
        );
        let remote = remote_sources(&text);
        assert!(
            remote.is_empty(),
            "{lock} names outside packages: {remote:?}"
        );
    }
}

#[test]
fn each_check_fires_on_a_seeded_violation() {
    let lock = "[[package]]\nname = \"mccls-core\"\n\n[[package]]\nname = \"rand\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n\n\
                [[package]]\nname = \"foo\"\nsource = \"git+https://example.com/foo#0123abc\"\n";
    let sources = remote_sources(lock);
    assert_eq!(sources.len(), 2, "{sources:?}");
    assert!(sources[0].contains("\"registry+") && sources[1].contains("\"git+"));

    // The opt-in is `workspace = true` in `[lints]` itself.
    assert!(opts_into_workspace_lints(
        "[lints]\nworkspace = true # shared\n"
    ));
    for member in [
        "[package]\nname = \"x\"\n",
        "[lints]\nworkspace = false\n",
        "[lints.rust]\nworkspace = true\n",
        "[package]\nworkspace = true\n[lints]\n",
    ] {
        assert!(!opts_into_workspace_lints(member), "{member}");
    }

    // `unsafe_code = "forbid"` counts only in `[workspace.lints.rust]`.
    let clippy_without = |omitted: &str| {
        let keys = PANIC_KEYS.iter().filter(|&&key| key != omitted);
        let entries: String = keys.map(|key| format!("{key} = \"warn\"\n")).collect();
        format!("[workspace.lints.clippy]\n{entries}")
    };
    let misplaced = format!(
        "[workspace.lints.rust]\nmissing_docs = \"warn\"\n[lints.rust]\n\
         unsafe_code = \"forbid\"\n{}",
        clippy_without("")
    );
    assert_eq!(missing_workspace_lints(&misplaced), ["unsafe_code"]);
    // Each panic-family key is required on its own.
    for key in PANIC_KEYS {
        let omitted = format!(
            "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n{}",
            clippy_without(key)
        );
        assert_eq!(missing_workspace_lints(&omitted), [key]);
    }
}
