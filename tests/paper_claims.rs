//! The paper's claims table, checked: `results/claims.txt` is what the
//! figures' claims functions say about the figures' series.
//!
//! A sweep whose JSON is committed under `results/` is read from that file
//! instead of re-swept (Figure 7's full sweep is minutes in a debug
//! build), after every curve is simulated again at the sizes its claims
//! read and found equal to the committed points bit for bit. Every other
//! sweep runs in full. The rendered table must then equal the committed
//! file, every committed verdict must follow from its row's `paper` and
//! `measured` cells by the rule the file's header prints, the claims this
//! test has always asserted must be `reproduced`, and every row of
//! EXPERIMENTS.md's claim tables must quote the file.

use std::sync::OnceLock;

use pdac::simnet::Series;
use pdac_bench::claims::{self, Claim, Comparator, Verdict};
use pdac_bench::figures::{self, Sweep};

/// Each committed sweep, and the sizes at which it is simulated again: the
/// points the claims read. The 192-rank cluster sweeps are not simulated
/// again: their claims read the largest sizes, minutes in a debug build,
/// and CI's figures job regenerates and diffs them.
const COMMITTED_SERIES: [(&str, &str, &[usize]); 6] = [
    ("fig2", include_str!("../results/fig2.json"), &[1 << 20]),
    ("fig6", include_str!("../results/fig6.json"), &[8 << 20]),
    ("fig7", include_str!("../results/fig7.json"), &[512 << 10]),
    ("fig8", include_str!("../results/fig8.json"), &[64 << 10, 1 << 20, 4 << 20]),
    ("cluster_bcast", include_str!("../results/cluster_bcast.json"), &[]),
    ("cluster_allgather", include_str!("../results/cluster_allgather.json"), &[]),
];
const COMMITTED_TABLE: &str = include_str!("../results/claims.txt");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The committed series of `sweep`, checked at its re-simulated sizes, or
/// the sweep run in full when nothing is committed.
fn series_of(sweep: &Sweep) -> Vec<Series> {
    let Some((name, body, checked)) =
        COMMITTED_SERIES.iter().find(|(name, ..)| sweep.json == Some(name))
    else {
        return sweep.run();
    };
    let committed: Vec<Series> = serde_json::from_str(body).expect("committed series parse");
    let fresh = sweep.run_at(checked);
    assert_eq!(committed.len(), fresh.len(), "{name}: curve count");
    for (old, new) in committed.iter().zip(&fresh) {
        let label = &old.label;
        assert_eq!(label, &new.label, "{name}: curve order");
        let sizes: Vec<usize> = old.points.iter().map(|p| p.msg_bytes).collect();
        assert_eq!(sizes, sweep.sizes, "{name}/{label}: sizes");
        for new in &new.points {
            let old = &old.points[sizes.binary_search(&new.msg_bytes).expect("a swept size")];
            assert!(
                old.seconds.to_bits() == new.seconds.to_bits()
                    && old.bw_mbs.to_bits() == new.bw_mbs.to_bits(),
                "{name}/{label}: at {} bytes the committed point is {old:?}, the simulator now \
                 says {new:?}; regenerate with `pdac claims` only in a change that means to move \
                 simulated numbers",
                old.msg_bytes,
            );
        }
    }
    committed
}

/// Every figure's claims, once per test binary.
fn table() -> &'static [Claim] {
    static TABLE: OnceLock<Vec<Claim>> = OnceLock::new();
    TABLE.get_or_init(|| {
        figures::all()
            .iter()
            .flat_map(|fig| {
                let swept: Vec<Vec<Series>> = fig.sweeps.iter().map(series_of).collect();
                (fig.claims)(&swept)
            })
            .collect()
    })
}

fn assert_reproduced(ids: &[&str]) {
    for id in ids {
        let claim = table().iter().find(|c| c.id == *id).unwrap_or_else(|| panic!("no claim {id}"));
        assert_eq!(claim.verdict, Verdict::Reproduced, "{claim:?}");
    }
}

#[test]
fn claims_table_matches_the_committed_file() {
    let rendered = claims::render(table());
    for (i, (want, got)) in COMMITTED_TABLE.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "results/claims.txt line {} differs", i + 1);
    }
    assert_eq!(
        COMMITTED_TABLE.lines().count(),
        rendered.lines().count(),
        "results/claims.txt has a different number of lines"
    );
}

#[test]
fn committed_verdicts_follow_from_the_paper_and_measured_cells() {
    assert!(
        COMMITTED_TABLE.starts_with(&claims::render(&[])),
        "results/claims.txt does not start with the verdict rule and the column header"
    );
    let mut rows = 0;
    for row in COMMITTED_TABLE.lines().filter(|l| !l.starts_with('#')) {
        let cells: Vec<&str> = row.split_whitespace().collect();
        let [id, paper, measured, verdict] = cells[..] else {
            panic!("results/claims.txt row {row:?} is not four cells");
        };
        let paper: Comparator = paper.parse().unwrap_or_else(|e| panic!("{id}: {e}"));
        // `Claim::new` judges a bool as the number it converts to, 0 or 1.
        let x = measured.parse::<bool>().map(f64::from).or_else(|_| measured.parse());
        let x = x.unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(paper.judge(x).to_string(), verdict, "{id}: {paper} on {measured}");
        rows += 1;
    }
    assert!(rows > 0, "results/claims.txt has no rows");
}

#[test]
fn experiments_claim_tables_quote_the_claims_file() {
    let mut rows = 0;
    let mut in_table = false;
    for line in EXPERIMENTS.lines() {
        if line.starts_with("| claim | paper | measured | verdict |") {
            in_table = true;
            continue;
        }
        in_table &= line.starts_with('|');
        if !in_table || line.starts_with("|---") {
            continue;
        }
        let cells: Vec<&str> =
            line.split('|').map(|c| c.trim().trim_matches('`')).filter(|c| !c.is_empty()).collect();
        assert!(
            COMMITTED_TABLE.lines().any(|l| l.split_whitespace().eq(cells.iter().copied())),
            "EXPERIMENTS.md row {line:?} is not a line of results/claims.txt"
        );
        rows += 1;
    }
    assert!(rows > 0, "EXPERIMENTS.md quotes no claim table");
}

/// Figure 6: tuned broadcast loses heavily cross-socket; the distance-aware
/// component does not, matches or beats tuned at 8 MB contiguous and beats
/// it cross-socket.
#[test]
fn fig6_tuned_bcast_placement_loss_knem_stability() {
    assert_reproduced(&[
        "fig6/xsock_tuned_loss_pct",
        "fig6/xsock_knem_var_pct",
        "fig6/knem_over_tuned_8M",
        "fig6/knem_over_tuned_xsock_8M",
    ]);
}

/// Figure 7: allgather is even more placement-sensitive for tuned; the
/// distance-aware ring is placement-blind.
#[test]
fn fig7_allgather_variance() {
    assert_reproduced(&["fig7/xsock_tuned_loss_pct", "fig7/xsock_knem_var_pct"]);
}

/// Figure 2: the same MPICH-style broadcast swings with the binding on
/// Zoot, and `rr` equals `user:0..15` there.
#[test]
fn fig2_mpich_binding_sensitivity_on_zoot() {
    assert_reproduced(&["fig2/rr_equals_user", "fig2/cpu_equals_cache", "fig2/rr_loss_pct"]);
}

/// Figure 8: on the single-controller Zoot, the linear topology holds its
/// own against the two-level hierarchy for large messages, and the
/// adaptive policy picks it above the 16 KB threshold.
#[test]
fn fig8_linear_beats_hierarchical_on_zoot() {
    assert_reproduced(&["fig8/linear_over_hier_min", "fig8/collapse_above_16K"]);
}

/// §V-B closing claim: "the performance of our distance-aware broadcast
/// communication outperforms both Open MPI and MPICH2 implementations, and
/// is independent of the process placement" — on Zoot, off-cache, under
/// the contiguous and the round-robin binding.
#[test]
fn distance_aware_beats_mpich_and_tuned_on_zoot() {
    assert_reproduced(&["fig8/knem_over_baselines_1M", "fig8/knem_var_1M_pct"]);
}
