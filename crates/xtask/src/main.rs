//! CLI for the static-analysis gate: `cargo run -p mccls-xtask -- check`.

use std::path::PathBuf;
use std::process::ExitCode;

use mccls_xtask::report::{self, Format};

fn workspace_root() -> PathBuf {
    // This crate always lives at `<root>/crates/xtask`.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = workspace_root();
    let mut command = None;
    let mut format = Format::Human;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "check" => command = Some("check"),
            "--root" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("`--root` requires a directory argument\n");
                    print_usage();
                    return ExitCode::FAILURE;
                };
                root = PathBuf::from(path);
                i += 1;
            }
            "--format" => {
                let parsed = args.get(i + 1).and_then(|v| Format::parse(v));
                let Some(f) = parsed else {
                    eprintln!("`--format` requires one of: human, json, sarif\n");
                    print_usage();
                    return ExitCode::FAILURE;
                };
                format = f;
                i += 1;
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    match command {
        Some("check") => run_check(&root, format),
        _ => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn run_check(root: &std::path::Path, format: Format) -> ExitCode {
    // A wrong root would scan nothing and report a vacuous "clean" —
    // refuse instead, so a misconfigured CI step fails loudly.
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        eprintln!(
            "`{}` does not look like the workspace root (no Cargo.toml + crates/); \
             pass the repository checkout with `--root <dir>`",
            root.display()
        );
        return ExitCode::FAILURE;
    }
    let findings = mccls_xtask::check_workspace(root);
    print!("{}", report::render(&findings, format));
    if findings.is_empty() {
        return ExitCode::SUCCESS;
    }
    if format == Format::Human {
        println!(
            "Fix the code, or suppress a reviewed site with \
             `// ct-ok: <reason>` / `// taint-public: <reason>` / \
             `// lock-ok: <reason>` / `// complexity-ok: <reason>`."
        );
    }
    ExitCode::FAILURE
}

fn print_usage() {
    println!(
        "mccls-xtask — static-analysis gate for this workspace\n\n\
         USAGE:\n    cargo run -p mccls-xtask -- check [--root <dir>] \
         [--format human|json|sarif]\n\n\
         LINTS:"
    );
    for lint in &report::LINTS {
        println!("    {:<12} {}", lint.id, lint.description);
    }
    println!(
        "\nWAIVERS:\n    any finding fails the gate (exit 1); the only waiver is an inline\n    \
         marker with a written reason, e.g. `// ct-ok: <reason>`."
    );
}
