//! Every machine constructor's output, pinned: a 64-bit FNV-1a digest of
//! each machine's serde JSON (the object arena with its logical ids, every
//! core's view, the OS order and the counts). The digests were recorded
//! before the per-core views were derived from the tree by
//! `Machine::from_tree`, so a constructor that numbers an object or
//! resolves a view differently from the tree rule fails here. Never
//! re-record them to make a change pass.

use pdac_hwtopo::{cluster, hwloc_xml, machines, Machine};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn cases() -> Vec<(&'static str, Machine)> {
    let xml = |text: &str| hwloc_xml::parse_hwloc_xml(text).expect("fixture parses");
    let (zoot, ig) = (machines::zoot(), machines::ig());
    let mut cases: Vec<(&'static str, Machine)> = machines::all_predefined()
        .into_iter()
        .zip([
            "zoot",
            "ig",
            "quad-socket-dual-core",
            "two-board-numa12",
            "magny-cours",
            "flat-smp-8",
        ])
        .map(|(m, label)| (label, m))
        .collect();
    cases.extend([
        ("synthetic-2x2x8", machines::synthetic(2, 2, 8, true)),
        ("ig-x2", cluster::homogeneous("ig-x2", &ig, 2, 1).unwrap()),
        ("ig-x4", cluster::homogeneous("ig-x4", &ig, 4, 2).unwrap()),
        ("zoot-x2", cluster::homogeneous("zoot-x2", &zoot, 2, 1).unwrap()),
        ("zoot-x4", cluster::homogeneous("zoot-x4", &zoot, 4, 2).unwrap()),
        (
            "zoot+ig+magny-cours",
            cluster::cluster("mixed", &[zoot, ig, machines::magny_cours()], &[0, 0, 1]).unwrap(),
        ),
        ("hwloc-dual-socket", xml(include_str!("fixtures/dual_socket.xml"))),
        ("hwloc-epyc-bundled", xml(include_str!("fixtures/epyc_bundled.xml"))),
        ("hwloc1-groups", xml(include_str!("fixtures/hwloc1_groups.xml"))),
        ("hwloc-io-subtrees", xml(include_str!("fixtures/io_subtrees.xml"))),
    ]);
    cases
}

const GOLDEN: &[(&str, u64)] = &[
    ("zoot", 0xd735f62264b69d3f),
    ("ig", 0xfc717185b55759b0),
    ("quad-socket-dual-core", 0xc92cec05592684ce),
    ("two-board-numa12", 0xc4a52f06c080325a),
    ("magny-cours", 0x8904a277143e3449),
    ("flat-smp-8", 0x0733999784c93a14),
    ("synthetic-2x2x8", 0xacd45f2ac730902e),
    ("ig-x2", 0x754a4bc107f40ccc),
    ("ig-x4", 0x2b26efbe1858b1f0),
    ("zoot-x2", 0xe6a1784fc76f906f),
    ("zoot-x4", 0xb6052a9b4d90372c),
    ("zoot+ig+magny-cours", 0x13ba550b4562fdc0),
    ("hwloc-dual-socket", 0x761d635359a0bb4d),
    ("hwloc-epyc-bundled", 0xa9c9c048298424c8),
    ("hwloc1-groups", 0x20c5e0236d92784c),
    ("hwloc-io-subtrees", 0x669a6f4f41bc4979),
];

#[test]
fn every_constructor_builds_the_recorded_machine() {
    let actual: Vec<(&str, u64)> = cases()
        .into_iter()
        .map(|(label, m)| (label, fnv1a(serde_json::to_string(&m).unwrap().as_bytes())))
        .collect();
    let table: String =
        actual.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
    assert_eq!(actual, GOLDEN, "digests now read:\n{table}");
}
