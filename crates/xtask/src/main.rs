//! CLI for the static-analysis gate: `cargo run -p mccls-xtask -- check`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use mccls_xtask::baseline;
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
    let mut update_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "check" => command = Some("check"),
            "--update-baseline" => update_baseline = true,
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
        Some("check") => run_check(&root, format, update_baseline),
        _ => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn run_check(root: &std::path::Path, format: Format, update_baseline: bool) -> ExitCode {
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
    let baseline_path = root.join("xtask-baseline.json");

    if update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, baseline::render(&findings)) {
            eprintln!("failed to write `{}`: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} baselined finding(s) to {}",
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    print!("{}", report::render(&findings, format));

    // Diff against the committed baseline: only *new* findings (and
    // stale baseline entries) fail the gate. A missing baseline file is
    // an empty baseline, so every finding is new.
    let baseline_ids = std::fs::read_to_string(&baseline_path)
        .map(|text| baseline::parse_ids(&text))
        .unwrap_or_default();
    let diff = baseline::diff(&findings, &baseline_ids);
    let baselined = findings.len() - diff.new.len();

    if format == Format::Human {
        if baselined > 0 {
            println!(
                "{baselined} finding(s) match the committed baseline; {} new",
                diff.new.len()
            );
        }
        for id in &diff.stale {
            println!(
                "stale baseline entry `{id}`: the finding is gone — regenerate with \
                 `--update-baseline`"
            );
        }
        if !diff.new.is_empty() {
            println!(
                "Fix the code, or suppress a reviewed site with \
                 `// lint:allow(panic) <reason>` / `// ct-ok: <reason>` / \
                 `// validated: <reason>` / `// overflow-ok: <reason>` / \
                 `// secret-ok: <reason>` / `// lock-ok: <reason>` / \
                 `// complexity-ok: <reason>`."
            );
        }
    }
    if diff.new.is_empty() && diff.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_usage() {
    println!(
        "mccls-xtask — static-analysis gate for this workspace\n\n\
         USAGE:\n    cargo run -p mccls-xtask -- check [--root <dir>] \
         [--format human|json|sarif] [--update-baseline]\n\n\
         LINTS:\n    panic     no unwrap/expect/panic!-family/risky indexing in crypto crates\n    \
         ct        no branching on secret-carrying identifiers (core, pairing)\n    \
         taint     interprocedural secret flow across the workspace call graph\n    \
         reach     panic sites reachable from the public scheme API, with call chains\n    \
         validate  untrusted-byte decodes must pass curve/subgroup checks before sinks\n    \
         overflow  no bare +/-/*/<< on u64/u128 limb values in the pairing arithmetic\n    \
         opcount   Table 1 operation budgets certified statically (opcount-budgets.toml)\n    \
         complexity  hot-path big-O classes certified statically (complexity-budgets.toml)\n    \
         concurrency  lock-order acyclicity, no pairing work under guards, Send/Sync audit\n    \
         secret    no Debug/Clone/serialization derives on key material; zeroize on Drop\n    \
         hygiene   #![forbid(unsafe_code)] + [lints] workspace = true everywhere\n    \
         deps      every dependency is an in-repo path (offline-safe builds)\n\n\
         BASELINE:\n    findings are diffed against xtask-baseline.json at the root; only\n    \
         new findings (or stale baseline entries) fail the gate. Regenerate the\n    \
         file with `--update-baseline` after triaging."
    );
}
