//! Hostile-input suite for the hwloc XML ingester: truncated documents,
//! depth bombs, garbage attributes, unknown object types, and corrupted
//! object arenas must all produce typed [`XmlError`]s — never a panic,
//! never an infinite walk.

use pdac_hwtopo::hwloc_xml::{parse_hwloc_xml, XmlError};
use pdac_hwtopo::{Machine, Obj, ObjKind, TopoError};

/// The well-formed dual-socket document the happy-path tests use; the
/// hostile cases are derived from it.
const DUAL_SOCKET: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE topology SYSTEM "hwloc2.dtd">
<topology version="2.0">
 <object type="Machine" os_index="0">
  <object type="Package" os_index="0">
   <object type="NUMANode" os_index="0" local_memory="1073741824"/>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="Core" os_index="0"><object type="PU" os_index="0"/></object>
    <object type="Core" os_index="1"><object type="PU" os_index="1"/></object>
   </object>
  </object>
 </object>
</topology>"#;

/// Truncation sweep: cutting the document at *every* char boundary must
/// yield either a parse (short prefixes cannot, but the property is
/// totality) or a typed error — never a panic. This is the cheapest fuzz
/// there is, and it covers unterminated tags, comments, attribute values,
/// and prologs in one pass.
#[test]
fn every_truncation_is_total() {
    let boundaries: Vec<usize> =
        (0..=DUAL_SOCKET.len()).filter(|&i| DUAL_SOCKET.is_char_boundary(i)).collect();
    for &cut in &boundaries {
        let prefix = &DUAL_SOCKET[..cut];
        match parse_hwloc_xml(prefix) {
            Ok(m) => assert!(m.num_cores() > 0, "cut {cut}: empty machine accepted"),
            Err(e) => {
                // The error renders without panicking too.
                let _ = e.to_string();
            }
        }
    }
    // The untruncated document still parses (the sweep must not be
    // vacuously passing on a broken fixture).
    assert_eq!(parse_hwloc_xml(DUAL_SOCKET).unwrap().num_cores(), 2);
}

/// Seeded single-byte corruption: flip one byte at a time (keeping the
/// result valid UTF-8 by substituting ASCII) across the whole document.
/// Every mutant must parse or fail typed.
#[test]
fn single_byte_corruptions_are_total() {
    let replacements = [b'<', b'>', b'"', b'/', b'=', b'X', b' ', b'\''];
    for pos in 0..DUAL_SOCKET.len() {
        if !DUAL_SOCKET.is_char_boundary(pos) {
            continue;
        }
        for &r in &replacements {
            let mut bytes = DUAL_SOCKET.as_bytes().to_vec();
            bytes[pos] = r;
            let Ok(mutant) = String::from_utf8(bytes) else { continue };
            let _ = parse_hwloc_xml(&mutant).map(|m| m.num_cores());
        }
    }
}

/// A nesting bomb: 100k nested objects would blow the converter's stack
/// and the node tree's drop glue if the parser did not cap depth. It must
/// be rejected with the typed depth error, fast.
#[test]
fn depth_bomb_is_rejected_typed() {
    let mut doc = String::from("<topology>");
    for _ in 0..100_000 {
        doc.push_str("<object type=\"Group\">");
    }
    doc.push_str("<object type=\"Core\"><object type=\"PU\" os_index=\"0\"/></object>");
    for _ in 0..100_000 {
        doc.push_str("</object>");
    }
    doc.push_str("</topology>");
    assert!(matches!(parse_hwloc_xml(&doc), Err(XmlError::TooDeep { .. })));
    // Just inside the cap still works: depth here is well under the limit.
    let mut ok = String::from("<topology>");
    for _ in 0..50 {
        ok.push_str("<object type=\"Wobble\">");
    }
    ok.push_str("<object type=\"Core\"><object type=\"PU\" os_index=\"0\"/></object>");
    for _ in 0..50 {
        ok.push_str("</object>");
    }
    ok.push_str("</topology>");
    assert_eq!(parse_hwloc_xml(&ok).unwrap().num_cores(), 1);
}

/// Unknown and nonsensical object types are transparent or skipped — the
/// cores inside them still come through, and hostile type names (long,
/// non-ASCII, empty) do not panic.
#[test]
fn unknown_object_types_are_harmless() {
    let xml = format!(
        r#"<topology>
 <object type="Machine">
  <object type="{}">
   <object type="Core"><object type="PU" os_index="0"/></object>
  </object>
  <object type="💣💥">
   <object type="Core"><object type="PU" os_index="1"/></object>
  </object>
  <object type="">
   <object type="Core"><object type="PU" os_index="2"/></object>
  </object>
 </object>
</topology>"#,
        "Z".repeat(10_000)
    );
    let m = parse_hwloc_xml(&xml).unwrap();
    assert_eq!(m.num_cores(), 3);
}

/// Garbage attributes: huge values, non-numeric numbers, duplicate keys,
/// quotes inside values, multi-byte content. Parsed or typed, never a
/// panic; numeric fallbacks apply.
#[test]
fn garbage_attributes_are_tolerated_or_typed() {
    let cases = [
        // Non-numeric sizes fall back to zero.
        r#"<topology><object type="Machine"><object type="Core" os_index="🦀">
           <object type="PU" os_index="NaN"/></object></object></topology>"#
            .to_string(),
        // Overflowing numbers fall back too.
        format!(
            r#"<topology><object type="Machine">
               <object type="NUMANode" local_memory="{}"/>
               <object type="Core"><object type="PU" os_index="{}"/></object>
               </object></topology>"#,
            "9".repeat(100),
            "9".repeat(100)
        ),
        // Duplicate keys: last one wins, no panic.
        r#"<topology><object type="Machine"><object type="Core" os_index="0" os_index="1">
           <object type="PU" os_index="0"/></object></object></topology>"#
            .to_string(),
        // A single-quoted value holding a double quote.
        r#"<topology><object type="Machine"><object type="Core" name='sa"ys'>
           <object type="PU" os_index="0"/></object></object></topology>"#
            .to_string(),
    ];
    for (i, xml) in cases.iter().enumerate() {
        match parse_hwloc_xml(xml) {
            Ok(m) => assert!(m.num_cores() >= 1, "case {i}"),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    // Structurally broken attributes are typed.
    assert!(matches!(
        parse_hwloc_xml(r#"<topology><object type="Machine" os_index=></object></topology>"#),
        Err(XmlError::Malformed { .. })
    ));
    assert!(matches!(
        parse_hwloc_xml(r#"<topology><object type="Machine" os_index="0></object></topology>"#),
        Err(XmlError::Malformed { .. })
    ));
}

/// The arena audit every machine passes through (`Machine::from_tree`): a
/// parent chain that loops, a dangling parent index, and a one-sided
/// parent/child link are each caught as the typed error instead of sending
/// a parent walk into an infinite loop.
#[test]
fn cyclic_and_dangling_parent_references_are_typed() {
    let obj = |kind: ObjKind, parent: Option<usize>, children: Vec<usize>| Obj {
        kind,
        logical_id: 0,
        parent,
        children,
        size_bytes: 0,
    };
    let audit = |objs: Vec<Obj>| Machine::from_tree("arena", objs, vec![0]).map(|_| ());
    let root = |parent, children| obj(ObjKind::Machine, parent, children);

    // 0 <-> 1 parent cycle (mutually consistent links, so only the
    // parents-first order can catch it).
    let cyclic = vec![root(Some(1), vec![1]), root(Some(0), vec![0])];
    assert!(matches!(audit(cyclic), Err(TopoError::NotATree { .. })));

    // Parent index out of range.
    let dangling = vec![root(Some(7), vec![])];
    assert!(matches!(audit(dangling), Err(TopoError::NotATree { at: 0 })));

    // Child link without the matching parent link.
    let one_sided = vec![root(None, vec![1]), root(None, vec![])];
    assert!(matches!(audit(one_sided), Err(TopoError::NotATree { at: 0 })));

    // A well-formed two-level tree passes.
    let good = vec![
        root(None, vec![1, 2]),
        obj(ObjKind::Core, Some(0), vec![]),
        obj(ObjKind::Cache(1), Some(0), vec![]),
    ];
    assert!(audit(good).is_ok());

    // And every parse-produced arena passes by construction.
    let m = parse_hwloc_xml(DUAL_SOCKET).unwrap();
    assert!(Machine::from_tree(m.name, m.objs, m.os_index).is_ok());
}
