//! The crate-hygiene lint.
//!
//! Checks the workspace-wide invariants that are easy to erode one PR
//! at a time:
//!
//! * every crate root (`src/lib.rs`, falling back to `src/main.rs`)
//!   carries `#![forbid(unsafe_code)]`;
//! * every crate's `Cargo.toml` opts into the shared lint table with
//!   `[lints] workspace = true`;
//! * the root `Cargo.toml` still defines the `[workspace.lints.clippy]`
//!   table with the panic-family lints the per-crate opt-in refers to.

use std::path::Path;

use crate::Finding;

/// Clippy keys the workspace lint table must keep configuring.
const REQUIRED_CLIPPY_KEYS: &[&str] = &["unwrap_used", "expect_used", "panic"];

/// Scans the workspace rooted at `root`.
pub fn scan(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Root package: same rules as the members, plus the workspace table.
    check_crate(root, "Cargo.toml", &mut findings);
    if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
        check_workspace_lint_table(&text, &mut findings);
    }

    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            if dir.join("Cargo.toml").is_file() {
                let label = format!(
                    "crates/{}/Cargo.toml",
                    dir.file_name().unwrap_or_default().to_string_lossy()
                );
                check_crate(&dir, &label, &mut findings);
            }
        }
    }
    findings
}

fn check_crate(dir: &Path, toml_label: &str, findings: &mut Vec<Finding>) {
    if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
        if !section_has_line(&text, "[lints]", "workspace = true") {
            findings.push(Finding {
                file: toml_label.to_owned(),
                line: 0,
                lint: "hygiene",
                message:
                    "missing `[lints] workspace = true` (crate opts out of the shared lint table)"
                        .to_owned(),
            });
        }
    }

    let lib = dir.join("src/lib.rs");
    let main = dir.join("src/main.rs");
    let crate_root = if lib.is_file() {
        lib
    } else if main.is_file() {
        main
    } else {
        return;
    };
    match std::fs::read_to_string(&crate_root) {
        Ok(src) if src.contains("#![forbid(unsafe_code)]") => {}
        Ok(_) => findings.push(Finding {
            file: format!(
                "{}/src/{}",
                toml_label.trim_end_matches("/Cargo.toml"),
                crate_root.file_name().unwrap_or_default().to_string_lossy()
            ),
            line: 0,
            lint: "hygiene",
            message: "crate root lacks `#![forbid(unsafe_code)]`".to_owned(),
        }),
        Err(_) => {}
    }
}

/// True when `section` exists and contains `needle` before the next
/// section header.
fn section_has_line(toml: &str, section: &str, needle: &str) -> bool {
    let mut in_section = false;
    for line in toml.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_section = trimmed == section;
            continue;
        }
        if in_section && trimmed == needle {
            return true;
        }
    }
    false
}

fn check_workspace_lint_table(toml: &str, findings: &mut Vec<Finding>) {
    for key in REQUIRED_CLIPPY_KEYS {
        let present = toml.lines().scan(String::new(), |section, line| {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                *section = trimmed.to_owned();
            }
            Some((section.clone(), trimmed.to_owned()))
        });
        let found = present.into_iter().any(|(section, line)| {
            section == "[workspace.lints.clippy]" && line.starts_with(&format!("{key} ="))
        });
        if !found {
            findings.push(Finding {
                file: "Cargo.toml".to_owned(),
                line: 0,
                lint: "hygiene",
                message: format!("`[workspace.lints.clippy]` no longer configures `{key}`"),
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn section_matching_is_exact() {
        let toml = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n\n[dependencies]\n";
        assert!(section_has_line(toml, "[lints]", "workspace = true"));
        assert!(!section_has_line(toml, "[lints]", "workspace = false"));
        assert!(!section_has_line(toml, "[lints.rust]", "workspace = true"));
    }

    #[test]
    fn missing_lints_section_is_detected() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\n";
        assert!(!section_has_line(toml, "[lints]", "workspace = true"));
    }

    #[test]
    fn workspace_table_keys_are_required() {
        let mut findings = Vec::new();
        let toml = "[workspace.lints.clippy]\nunwrap_used = \"warn\"\nexpect_used = \"warn\"\n";
        check_workspace_lint_table(toml, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("panic"));
    }

    #[test]
    fn pairing_crate_root_must_forbid_unsafe() {
        // No crate is exempt: `deny` can be re-allowed by an inner
        // `#![allow(unsafe_code)]`, `forbid` cannot.
        let dir = std::env::temp_dir().join(format!("mccls-hygiene-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"p\"\n\n[lints]\nworkspace = true\n",
        )
        .unwrap();
        std::fs::write(dir.join("src/lib.rs"), "#![deny(unsafe_code)]\n").unwrap();
        let mut findings = Vec::new();
        check_crate(&dir, "crates/pairing/Cargo.toml", &mut findings);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/pairing/src/lib.rs");
        assert!(findings[0]
            .message
            .contains("lacks `#![forbid(unsafe_code)]`"));
    }
}
