//! The Table 1 operation budgets: the grammar of `opcount-budgets.toml`.
//!
//! The paper's central claim is a table of operation counts: McCLS
//! signs with two scalar multiplications and zero pairings and
//! verifies with one pairing once the peer constant is cached. Each
//! section of the budget file pins one function's counts: `fn` names
//! it, `impl` gives its owner type, and any of the [`COUNTERS`] holds
//! an `a·n + b` string over the batch size `n` (`"0"` when omitted); a
//! `table1` key quotes the paper's row, which the paper folds
//! differently, so nothing checks it.
//!
//! The budgets are checked at runtime, on the paths they name: the
//! counters of `mccls_core::ops` must equal them exactly, on accepted
//! and rejected inputs (`crates/core/tests/opcount_certified.rs`), and
//! the `table1` bench bin refuses to print a row whose measured counts
//! disagree. Both read the file through [`parse_budgets`].

use crate::certify;

/// Counter names, in the same order as the fields of
/// `mccls_core::ops::OpCounts`.
pub const COUNTERS: [&str; 8] = [
    "pairings",
    "miller_loops",
    "final_exps",
    "g1_muls",
    "g2_muls",
    "gt_exps",
    "hashes_to_g1",
    "fp_inversions",
];

/// One budgeted counter value `linear·n + konst`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Val {
    /// Constant term.
    pub konst: u64,
    /// Coefficient of the batch size `n`.
    pub linear: u64,
}

impl Val {
    /// The value at batch size `n`.
    pub fn eval(&self, n: u64) -> u64 {
        self.konst.saturating_add(self.linear.saturating_mul(n))
    }

    /// Parses the budget grammar: `0`, `2`, `n`, `2n`, `n+1`, …
    pub fn parse(text: &str) -> Option<Self> {
        let mut out = Self::default();
        for term in text.split('+') {
            let t = term.trim();
            if t.is_empty() {
                return None;
            }
            if let Some(coeff) = t.strip_suffix('n') {
                let c = coeff.trim();
                let c = if c.is_empty() { 1 } else { c.parse().ok()? };
                out.linear = out.linear.checked_add(c)?;
            } else {
                out.konst = out.konst.checked_add(t.parse().ok()?)?;
            }
        }
        Some(out)
    }
}

/// A full operation-count vector, indexed like [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost(pub [Val; 8]);

/// One entry of `opcount-budgets.toml`: a function and its counter
/// budgets.
pub type BudgetEntry = certify::BudgetEntry<Cost>;

/// The parsed `opcount-budgets.toml`.
pub type Budgets = certify::Budgets<Cost>;

/// Reads counter `key = "text"` into `budget`; `table1` is accepted and
/// ignored.
fn assign(budget: &mut Cost, key: &str, text: &str) -> Option<Result<(), String>> {
    if key == "table1" {
        return Some(Ok(()));
    }
    let slot = COUNTERS.iter().position(|c| *c == key)?;
    let Some(val) = Val::parse(text) else {
        return Some(Err(format!(
            "`{key} = \"{text}\"` is not of the form `a·n + b` (e.g. \"0\", \"2\", \"n\", \
             \"n+1\", \"2n\")"
        )));
    };
    budget.0[slot] = val;
    Some(Ok(()))
}

/// Parses an operation-count budget file ([`certify::parse_budgets`]):
/// each section sets `fn`, optionally `impl` and `table1`, and any of
/// the [`COUNTERS`] as `a·n + b` strings.
pub fn parse_budgets(text: &str) -> Result<Budgets, String> {
    certify::parse_budgets(text, &[], assign)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn budget_parser_reads_sections_and_rejects_junk() {
        let slot = |name: &str| COUNTERS.iter().position(|c| *c == name).unwrap();
        let text = "# Table 1 budgets\n\
                    [mccls.sign]\n\
                    fn = \"sign\"\n\
                    impl = \"McCls\"\n\
                    g1_muls = \"1\"\n\
                    g2_muls = \"1\"\n\
                    table1 = \"2s / 0p\"\n\
                    [batch.batch_verify]\n\
                    fn = \"batch_verify\"\n\
                    miller_loops = \"n+1\"\n\
                    final_exps = \"1\"\n";
        let budgets = parse_budgets(text).unwrap();
        assert_eq!(budgets.entries.len(), 2);
        let sign = budgets.get("mccls.sign").unwrap();
        assert_eq!(sign.owner.as_deref(), Some("McCls"));
        assert_eq!(sign.budget.0[slot("g1_muls")].eval(0), 1);
        assert_eq!(sign.budget.0[slot("pairings")].eval(0), 0);
        let batch = budgets.get("batch.batch_verify").unwrap();
        assert_eq!(batch.owner, None);
        assert_eq!(batch.budget.0[slot("miller_loops")].eval(5), 6);
        assert_eq!(Val::parse("1+2n"), Val::parse("2n+1"));

        assert!(parse_budgets("[x]\nfn = \"f\"\nbogus = \"1\"\n").is_err());
        assert!(
            parse_budgets("[x]\npairings = \"1\"\n").is_err(),
            "missing fn"
        );
        assert!(parse_budgets("[x]\nfn = \"f\"\npairings = \"n*n\"\n").is_err());
        assert!(parse_budgets("[x]\nfn = \"f\"\n[x]\nfn = \"f\"\n").is_err());
        assert!(parse_budgets("fn = \"f\"\n").is_err(), "no section");
    }
}
