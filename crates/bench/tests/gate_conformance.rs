//! The full canonical gate matrix must be explainable and conformant:
//! every one of the 44 scenarios is planned by the gate's own plan call
//! with a provenance recorder attached, executes on the simulator,
//! and audits clean against its recorded plan — zero unexplained,
//! missing, mismatched, or re-ordered ops.

use pdac_bench::gate::{audit_gate_scenarios, canonical_scenarios};

#[test]
fn all_gate_scenarios_pass_schedule_conformance() {
    let scenarios = canonical_scenarios();
    assert_eq!(scenarios.len(), 44, "the canonical matrix has 44 scenarios");
    let audits = audit_gate_scenarios();
    assert_eq!(audits.len(), scenarios.len());
    for audit in &audits {
        assert!(
            audit.passed(),
            "{} failed conformance:\n{}",
            audit.id,
            audit.conformance.render()
        );
        assert!(
            audit.conformance.planned_ops > 0,
            "{} has an empty plan",
            audit.id
        );
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
}
