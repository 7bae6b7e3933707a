//! The paper's claims as one table, `results/claims.txt`.
//!
//! Every figure states its claims once, as a function of the series it
//! swept ([`crate::figures`]). A claim carries what the paper states as a
//! [`Comparator`], which prints the `paper` cell and judges the measured
//! value by the one rule [`render`] prints as the table's header, and the
//! measured value in shortest round-trip form (`{:?}`). `pdac claims`
//! writes the table, and `tests/paper_claims.rs` fails on any line that
//! differs from the committed file, so a measured value cannot drift unseen.

use std::fmt;
use std::str::FromStr;

use Comparator::*;

/// `~t` holds within this factor of `t`, either way.
pub const ABOUT: f64 = 1.5;

/// `<=t` and `>=t` hold up to this fraction of `|t|` past `t`.
pub const TOLERANCE: f64 = 0.01;

/// How far a measured value bears the paper's claim out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The comparator holds.
    Reproduced,
    /// Only its direction holds: the sign is right, the magnitude misses.
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

/// What the paper states about one measured value, as the `paper` cell
/// prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Comparator {
    /// `yes`: a statement that holds.
    Yes,
    /// `~t`: about `t`.
    About(f64),
    /// `<t`.
    Below(f64),
    /// `<=t`.
    AtMost(f64),
    /// `>t`.
    Above(f64),
    /// `>=t`.
    AtLeast(f64),
    /// `a..b`.
    Range(f64, f64),
}

impl Comparator {
    /// The verdict on `x` (a bool as 0 or 1): reproduced when the
    /// comparator holds, partly when only its direction does, else not. A
    /// bound is its own direction, so only `~t` and `a..b` can be partly:
    /// when `x` is on their side of 0. NaN and ±∞ are `not`.
    pub fn judge(self, x: f64) -> Verdict {
        let (holds, direction) = match self {
            _ if !x.is_finite() => (false, false),
            Yes => (x == 1.0, false),
            About(t) => return Range(t / ABOUT, t * ABOUT).judge(x),
            Range(a, b) => ((a.min(b)..=a.max(b)).contains(&x), x * (a + b) > 0.0),
            Below(t) => (x < t, false),
            AtMost(t) => (x <= t + TOLERANCE * t.abs(), false),
            Above(t) => (x > t, false),
            AtLeast(t) => (x >= t - TOLERANCE * t.abs(), false),
        };
        match (holds, direction) {
            (true, _) => Verdict::Reproduced,
            (false, true) => Verdict::Partly,
            (false, false) => Verdict::Not,
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Yes => f.write_str("yes"),
            About(t) => write!(f, "~{t}"),
            Below(t) => write!(f, "<{t}"),
            AtMost(t) => write!(f, "<={t}"),
            Above(t) => write!(f, ">{t}"),
            AtLeast(t) => write!(f, ">={t}"),
            Range(a, b) => write!(f, "{a}..{b}"),
        }
    }
}

impl FromStr for Comparator {
    type Err = String;

    fn from_str(s: &str) -> Result<Comparator, String> {
        let bad = || format!("not a paper cell: {s:?}");
        let num = |t: &str| t.parse().map_err(|_| bad());
        let at = s.find(|c: char| c.is_ascii_digit() || c == '-').unwrap_or(s.len());
        let (kind, t) = s.split_at(at);
        match (kind, t.split_once("..")) {
            ("yes", _) if t.is_empty() => Ok(Yes),
            ("~", None) => Ok(About(num(t)?)),
            ("<", None) => Ok(Below(num(t)?)),
            ("<=", None) => Ok(AtMost(num(t)?)),
            (">", None) => Ok(Above(num(t)?)),
            (">=", None) => Ok(AtLeast(num(t)?)),
            ("", Some((a, b))) => Ok(Range(num(a)?, num(b)?)),
            _ => Err(bad()),
        }
    }
}

/// One row of the claims table.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// `<figure>/<claim>`, unique over the table.
    pub id: String,
    /// What the paper states.
    pub paper: Comparator,
    /// The measured value, `{:?}` of an `f64` or a `bool`.
    pub measured: String,
    /// `paper`'s verdict on the measured value.
    pub verdict: Verdict,
}

impl Claim {
    /// Claim `id`: the paper states `paper`, this reproduction measures `x`.
    pub fn new(id: impl Into<String>, paper: Comparator, x: impl Into<f64> + fmt::Debug) -> Claim {
        Claim { id: id.into(), paper, measured: format!("{x:?}"), verdict: paper.judge(x.into()) }
    }
}

/// The table: the verdict rule, a column header, then one line per claim.
pub fn render(claims: &[Claim]) -> String {
    let mut out = format!(
        "# verdict: reproduced when the paper's comparator holds, partly when only its \
         direction holds, else not\n\
         #   yes       holds when true\n\
         #   ~t        holds within [t/{ABOUT}, {ABOUT}*t]; partly on t's side of 0\n\
         #   a..b      holds within [a, b]; partly on their side of 0\n\
         #   <t >t     holds below / above t; never partly (a bound is its own direction)\n\
         #   <=t >=t   holds up to {TOLERANCE}*|t| past t; never partly\n\
         #   NaN, inf  not\n\
         # claim                                       paper               measured  verdict\n"
    );
    for c in claims {
        let paper = c.paper.to_string();
        out.push_str(&format!("{:<40} {paper:>10} {:>22}  {}\n", c.id, c.measured, c.verdict));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::Verdict::{Not, Partly, Reproduced};
    use super::*;

    /// The next `f64` away from zero, and the next one toward it.
    fn up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }
    fn down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn yes_holds_on_true() {
        assert_eq!(Yes.judge(true.into()), Reproduced);
        assert_eq!(Yes.judge(false.into()), Not);
        assert_eq!(Claim::new("c", Yes, true).measured, "true");
        assert_eq!(Claim::new("c", Yes, false).verdict, Not);
    }

    #[test]
    fn about_holds_on_both_edges_of_its_band() {
        let (lo, hi) = (100.0 / ABOUT, 100.0 * ABOUT);
        for x in [lo, 100.0, hi] {
            assert_eq!(About(100.0).judge(x), Reproduced, "{x}");
        }
        for x in [down(lo), up(hi), 1e-9, 1e9] {
            assert_eq!(About(100.0).judge(x), Partly, "{x}");
        }
        for x in [0.0, -100.0] {
            assert_eq!(About(100.0).judge(x), Not, "{x}");
        }
        for x in [-lo, -hi] {
            assert_eq!(About(-100.0).judge(x), Reproduced, "{x}");
        }
        for x in [down(-lo), up(-hi)] {
            assert_eq!(About(-100.0).judge(x), Partly, "{x}");
        }
        assert_eq!(About(-100.0).judge(100.0), Not);
    }

    #[test]
    fn range_holds_only_inside() {
        for x in [25.0, 30.0, 35.0] {
            assert_eq!(Range(25.0, 35.0).judge(x), Reproduced, "{x}");
        }
        for x in [down(25.0), up(35.0), 1e-9] {
            assert_eq!(Range(25.0, 35.0).judge(x), Partly, "{x}");
        }
        for x in [0.0, -0.24] {
            assert_eq!(Range(25.0, 35.0).judge(x), Not, "{x}");
        }
    }

    #[test]
    fn strict_bounds_hold_strictly_and_are_never_partly() {
        assert_eq!(Below(14.0).judge(down(14.0)), Reproduced);
        assert_eq!(Below(14.0).judge(14.0), Not);
        assert_eq!(Below(14.0).judge(1e9), Not);
        assert_eq!(Above(1.0).judge(up(1.0)), Reproduced);
        assert_eq!(Above(1.0).judge(1.0), Not);
        assert_eq!(Above(1.0).judge(0.5), Not);
    }

    #[test]
    fn inclusive_bounds_hold_within_the_tolerance() {
        let floor = 1.0 - TOLERANCE;
        assert_eq!(floor, 0.99);
        for x in [floor, 1.0] {
            assert_eq!(AtLeast(1.0).judge(x), Reproduced, "{x}");
        }
        assert_eq!(AtLeast(1.0).judge(down(floor)), Not);
        assert_eq!(AtLeast(1.0).judge(0.5), Not);
        let ceiling = 58.0 + TOLERANCE * 58.0;
        for x in [58.0, ceiling] {
            assert_eq!(AtMost(58.0).judge(x), Reproduced, "{x}");
        }
        assert_eq!(AtMost(58.0).judge(up(ceiling)), Not);
        assert_eq!(AtMost(58.0).judge(100.0), Not);
    }

    #[test]
    fn nan_and_infinities_are_not() {
        let kinds = [Yes, About(1.0), Range(0.5, 2.0), Below(1.0), AtMost(1.0), Above(1.0)];
        for paper in kinds.into_iter().chain([AtLeast(1.0)]) {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(paper.judge(x), Not, "{paper} on {x}");
            }
        }
    }

    #[test]
    fn committed_cells_survive_a_round_trip() {
        let table = include_str!("../../../results/claims.txt");
        let mut rows = 0;
        for row in table.lines().filter(|l| !l.starts_with('#')) {
            let cells: Vec<&str> = row.split_whitespace().collect();
            let paper: Comparator = cells[1].parse().unwrap();
            assert_eq!(paper.to_string(), cells[1]);
            assert_eq!(paper.to_string().parse::<Comparator>(), Ok(paper));
            rows += 1;
        }
        assert!(rows > 0);
    }

    #[test]
    fn malformed_cells_are_errors() {
        for s in ["", "no", "yes1", "~", ">=x", "~1..2", "1..", "25-35", "yes..", "=<5"] {
            assert!(s.parse::<Comparator>().is_err(), "{s:?}");
        }
    }
}
