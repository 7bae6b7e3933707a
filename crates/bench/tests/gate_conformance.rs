//! The 44 canonical gate scenarios, checked exactly. One pass runs every
//! scenario once and asserts that:
//!
//! - each executes conformant to the plan it recorded — zero unexplained,
//!   missing, mismatched, or re-ordered ops — and every plan explains its
//!   algorithm, distance and chunk decisions with their inputs;
//! - each keeps critical-path coverage of at least 0.95;
//! - each `xsock` row simulates the same `seconds` (bit for bit) and `ops`
//!   as its `contig` twin: the distance-aware plan is independent of the
//!   process placement;
//! - the rendered table equals the committed `results/gate.txt` byte for
//!   byte, so a one-ulp move of any simulated number fails here.

use pdac_bench::gate::{canonical_scenarios, render_table, run_gate_scenarios};

const COMMITTED: &str = include_str!("../../../results/gate.txt");

#[test]
fn gate_scenarios_conform_and_reproduce_the_committed_table() {
    assert_eq!(canonical_scenarios().len(), 44, "the canonical matrix has 44 scenarios");
    let (rows, audits) = run_gate_scenarios();
    for audit in &audits {
        assert!(audit.passed(), "{} failed conformance:\n{}", audit.id, audit.conformance.render());
        assert!(audit.conformance.planned_ops > 0, "{} has an empty plan", audit.id);
        // Every plan explains at least an algorithm choice, a topology or
        // edge classification, and a chunking decision, each with inputs.
        let prov = &audit.provenance;
        assert!(
            prov.decisions.iter().all(|d| !d.inputs.is_empty()),
            "{}: every decision records its inputs",
            audit.id
        );
        let labels: Vec<&str> = prov.decisions.iter().map(|d| d.kind.label()).collect();
        assert!(labels.contains(&"algorithm"), "{}: {labels:?}", audit.id);
        assert!(labels.contains(&"distance"), "{}: {labels:?}", audit.id);
        assert!(labels.contains(&"chunk"), "{}: {labels:?}", audit.id);
    }

    for row in &rows {
        assert!(row.coverage >= 0.95, "{}: critical-path coverage {}", row.id, row.coverage);
    }

    let mut twins = 0;
    for xsock in rows.iter().filter(|r| r.id.contains("/xsock/")) {
        let contig_id = xsock.id.replace("/xsock/", "/contig/");
        let contig = rows
            .iter()
            .find(|r| r.id == contig_id)
            .unwrap_or_else(|| panic!("{} has no {contig_id} twin", xsock.id));
        assert_eq!(
            xsock.seconds.to_bits(),
            contig.seconds.to_bits(),
            "{}: {:?} s against {:?} s contiguous",
            xsock.id,
            xsock.seconds,
            contig.seconds
        );
        assert_eq!(xsock.ops, contig.ops, "{}: op count", xsock.id);
        twins += 1;
    }
    assert_eq!(twins, 22, "every scenario has a placement twin");

    let table = render_table(&rows);
    if table != COMMITTED {
        let built: Vec<&str> = table.lines().collect();
        let committed: Vec<&str> = COMMITTED.lines().collect();
        let line = (0..built.len().max(committed.len()))
            .find(|&i| built.get(i) != committed.get(i))
            .unwrap_or(built.len());
        let end = "<end of file>";
        panic!(
            "results/gate.txt differs from this build at line {}:\n  \
             committed: {}\n  built:     {}\n\
             regenerate it with `cargo run --release -- gate` \
             and commit it with the change that moved the numbers",
            line + 1,
            committed.get(line).unwrap_or(&end),
            built.get(line).unwrap_or(&end),
        );
    }
}
