//! The paper's claims as one table, `results/claims.txt`.
//!
//! Every figure states its claims once, as a function of the series it
//! swept ([`crate::figures`]). A claim carries the paper's value, the
//! measured one in shortest round-trip form (`{:?}`) and a verdict that a
//! threshold in code computes. `pdac claims` writes the table, and
//! `tests/paper_claims.rs` fails on any line that differs from the
//! committed file, so a measured value cannot drift unseen.

use std::fmt;

/// How far a measured value bears the paper's claim out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the threshold the claim states.
    Reproduced,
    /// The shape holds (the sign, the winner) but the magnitude misses.
    Partly,
    /// Contradicted.
    Not,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Reproduced => "reproduced",
            Verdict::Partly => "partly",
            Verdict::Not => "not",
        })
    }
}

/// One row of the claims table.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// `<figure>/<claim>`, unique over the table.
    pub id: String,
    /// What the paper states, without spaces (`>45`, `yes`, `~16384`).
    pub paper: &'static str,
    /// The measured value, `{:?}` of an `f64` or a `bool`.
    pub measured: String,
    /// The verdict the claim's threshold gives the measured value.
    pub verdict: Verdict,
}

impl Claim {
    /// A yes/no claim the paper makes: reproduced when it holds.
    pub fn holds(id: impl Into<String>, holds: bool) -> Claim {
        Claim {
            id: id.into(),
            paper: "yes",
            measured: format!("{holds:?}"),
            verdict: if holds { Verdict::Reproduced } else { Verdict::Not },
        }
    }

    /// A measured number: reproduced strictly inside `reproduced`, partly
    /// strictly inside `partly`, else not.
    pub fn number(
        id: impl Into<String>,
        paper: &'static str,
        x: f64,
        reproduced: (f64, f64),
        partly: (f64, f64),
    ) -> Claim {
        let inside = |(lo, hi): (f64, f64)| lo < x && x < hi;
        Claim {
            id: id.into(),
            paper,
            measured: format!("{x:?}"),
            verdict: if inside(reproduced) {
                Verdict::Reproduced
            } else if inside(partly) {
                Verdict::Partly
            } else {
                Verdict::Not
            },
        }
    }

    /// A number reproduced above `yes`, partly above `partly`.
    pub fn above(
        id: impl Into<String>,
        paper: &'static str,
        x: f64,
        yes: f64,
        partly: f64,
    ) -> Claim {
        Claim::number(id, paper, x, (yes, f64::INFINITY), (partly, f64::INFINITY))
    }

    /// A placement variance in percent: reproduced under the paper's 14 %,
    /// partly under twice that.
    pub fn stable(id: impl Into<String>, x: f64) -> Claim {
        Claim::number(id, "<14", x, (f64::NEG_INFINITY, 14.0), (f64::NEG_INFINITY, 28.0))
    }

    /// A magnitude the paper quotes as about `target`: reproduced within
    /// 1.5× either way, partly within 3×.
    pub fn near(id: impl Into<String>, paper: &'static str, target: f64, x: f64) -> Claim {
        Claim::number(id, paper, x, (target / 1.5, target * 1.5), (target / 3.0, target * 3.0))
    }
}

/// The table: a header, then one line per claim.
pub fn render(claims: &[Claim]) -> String {
    let mut out = format!("{:<40} {:>10} {:>22}  verdict\n", "# claim", "paper", "measured");
    for c in claims {
        out.push_str(&format!("{:<40} {:>10} {:>22}  {}\n", c.id, c.paper, c.measured, c.verdict));
    }
    out
}
