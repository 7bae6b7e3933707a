//! Ingesting real hwloc topologies: `lstopo --of xml` → [`Machine`].
//!
//! The paper's framework reads its hardware view from hwloc (§II: "Our
//! run-time process distance detection framework is also based on the
//! information collected by hwloc"). This module parses the XML that
//! hwloc's `lstopo` emits — with a small self-contained XML reader, no
//! external dependencies — and converts the object tree into our
//! [`Machine`] model:
//!
//! | hwloc object | here |
//! |---|---|
//! | `Machine` | machine root |
//! | `Group` (outermost) | `Board` |
//! | `NUMANode` | `NumaNode` (memory domain of its enclosing subtree) |
//! | `Package` | `Socket` |
//! | `Die` | `Die` |
//! | `L1Cache`/`L2Cache`/`L3Cache` (or `Cache` + `depth`) | `Cache(l)` |
//! | `Core` | `Core` |
//! | `PU` (`os_index`) | `Pu` + the OS numbering table |
//!
//! Unknown object types (`Bridge`, `PCIDev`, `Misc`, …) are transparent:
//! their children are lifted into the parent. Both hwloc-1 style (NUMANode
//! as a container) and hwloc-2 style (NUMANode as a childless memory child)
//! layouts are accepted.

use std::collections::HashMap;

use crate::object::{CoreView, Machine, Obj, ObjIdx, ObjKind};

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Lexical/structural XML problem at a byte offset.
    Malformed {
        /// Byte offset of the error.
        at: usize,
        /// What went wrong.
        what: &'static str,
    },
    /// Closing tag does not match the open element.
    TagMismatch {
        /// Name that was open.
        open: String,
        /// Name that closed.
        close: String,
    },
    /// The document contains no `Machine` object with at least one core.
    NoCores,
    /// Element nesting exceeds the hard depth cap. Real lstopo output is a
    /// dozen levels deep; a document past the cap is hostile or corrupt,
    /// and rejecting it keeps both conversion and teardown off the
    /// recursion-depth cliff.
    TooDeep {
        /// The enforced nesting limit.
        limit: usize,
    },
    /// The converted object tree is not a tree: a parent chain loops back
    /// on itself or points outside the arena.
    CyclicTopology {
        /// Arena index where the walk detected the cycle.
        at: usize,
    },
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::Malformed { at, what } => write!(f, "malformed XML at byte {at}: {what}"),
            XmlError::TagMismatch { open, close } => {
                write!(f, "closing tag </{close}> does not match <{open}>")
            }
            XmlError::NoCores => write!(f, "topology contains no cores"),
            XmlError::TooDeep { limit } => {
                write!(f, "element nesting exceeds the {limit}-level limit")
            }
            XmlError::CyclicTopology { at } => {
                write!(f, "object tree is cyclic or dangling at index {at}")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Hard cap on element nesting. lstopo emits at most ~15 levels even on
/// exotic machines; anything deeper is hostile input, and bounding it here
/// bounds the recursion depth of [`Converter::convert`] and of the
/// [`XNode`] drop glue.
const MAX_DEPTH: usize = 128;

/// A parsed XML element.
#[derive(Debug, Clone)]
struct XNode {
    name: String,
    attrs: HashMap<String, String>,
    children: Vec<XNode>,
}

/// Minimal XML reader: elements, attributes, self-closing tags; skips
/// prolog, doctype, comments and text content. Enough for lstopo output.
fn parse_xml(input: &str) -> Result<XNode, XmlError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut stack: Vec<XNode> = Vec::new();
    let mut root: Option<XNode> = None;

    while pos < bytes.len() {
        // Skip to the next tag.
        match input[pos..].find('<') {
            Some(off) => pos += off,
            None => break,
        }
        let rest = &input[pos..];
        if rest.starts_with("<!--") {
            pos += rest
                .find("-->")
                .map(|o| o + 3)
                .ok_or(XmlError::Malformed { at: pos, what: "unterminated comment" })?;
            continue;
        }
        if rest.starts_with("<?") || rest.starts_with("<!") {
            pos += rest
                .find('>')
                .map(|o| o + 1)
                .ok_or(XmlError::Malformed { at: pos, what: "unterminated prolog/doctype" })?;
            continue;
        }
        if let Some(close_rest) = rest.strip_prefix("</") {
            let end = close_rest
                .find('>')
                .ok_or(XmlError::Malformed { at: pos, what: "unterminated closing tag" })?;
            let name = close_rest[..end].trim();
            let node = stack.pop().ok_or(XmlError::Malformed {
                at: pos,
                what: "closing tag without an open element",
            })?;
            if node.name != name {
                return Err(XmlError::TagMismatch { open: node.name, close: name.to_string() });
            }
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => {
                    root = Some(node);
                    break;
                }
            }
            pos += 2 + end + 1;
            continue;
        }

        // Opening or self-closing tag.
        let end =
            rest.find('>').ok_or(XmlError::Malformed { at: pos, what: "unterminated tag" })?;
        let self_closing = rest[..end].ends_with('/');
        let body = rest[1..end].trim_end_matches('/').trim();
        let (name, attr_str) = match body.find(char::is_whitespace) {
            Some(o) => (&body[..o], body[o..].trim()),
            None => (body, ""),
        };
        if name.is_empty() {
            return Err(XmlError::Malformed { at: pos, what: "empty tag name" });
        }

        let mut attrs = HashMap::new();
        let mut a = attr_str;
        while !a.is_empty() {
            let eq = match a.find('=') {
                Some(e) => e,
                None => break,
            };
            let key = a[..eq].trim().to_string();
            let after = a[eq + 1..].trim_start();
            let quote = after
                .chars()
                .next()
                .ok_or(XmlError::Malformed { at: pos, what: "attribute without value" })?;
            if quote != '"' && quote != '\'' {
                return Err(XmlError::Malformed { at: pos, what: "unquoted attribute value" });
            }
            let val_end = after[1..]
                .find(quote)
                .ok_or(XmlError::Malformed { at: pos, what: "unterminated attribute value" })?;
            attrs.insert(key, after[1..1 + val_end].to_string());
            a = after[1 + val_end + 1..].trim_start();
        }

        let node = XNode { name: name.to_string(), attrs, children: Vec::new() };
        if self_closing {
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => {
                    root = Some(node);
                    break;
                }
            }
        } else {
            if stack.len() >= MAX_DEPTH {
                return Err(XmlError::TooDeep { limit: MAX_DEPTH });
            }
            stack.push(node);
        }
        pos += end + 1;
    }

    root.ok_or(XmlError::Malformed { at: pos, what: "no root element" })
}

/// What an hwloc object type maps to.
enum Mapped {
    Kind(ObjKind),
    /// Lift the children into the parent.
    Transparent,
    /// Drop entirely (I/O subtrees).
    Skip,
}

fn map_type(node: &XNode, depth_under_machine: usize) -> Mapped {
    let ty = node.attrs.get("type").map(String::as_str).unwrap_or("");
    match ty {
        "Machine" | "System" => Mapped::Kind(ObjKind::Machine),
        // Outermost groups (direct children of the machine) act as boards;
        // nested groups are transparent.
        "Group" if depth_under_machine == 1 => Mapped::Kind(ObjKind::Board),
        "Group" => Mapped::Transparent,
        "NUMANode" => Mapped::Kind(ObjKind::NumaNode),
        "Package" | "Socket" => Mapped::Kind(ObjKind::Socket),
        "Die" => Mapped::Kind(ObjKind::Die),
        "L1Cache" => Mapped::Kind(ObjKind::Cache(1)),
        "L2Cache" => Mapped::Kind(ObjKind::Cache(2)),
        "L3Cache" => Mapped::Kind(ObjKind::Cache(3)),
        "Cache" => {
            let level = node
                .attrs
                .get("depth")
                .and_then(|d| d.parse::<u8>().ok())
                .filter(|&d| (1..=3).contains(&d));
            match level {
                Some(l) => Mapped::Kind(ObjKind::Cache(l)),
                None => Mapped::Transparent,
            }
        }
        "Core" => Mapped::Kind(ObjKind::Core),
        "PU" => Mapped::Kind(ObjKind::Pu),
        "Bridge" | "PCIDev" | "OSDev" | "Misc" => Mapped::Skip,
        _ => Mapped::Transparent,
    }
}

#[derive(Default)]
struct Converter {
    objs: Vec<Obj>,
    cores: Vec<CoreView>,
    /// (core id, PU os_index) pairs in discovery order.
    pu_os: Vec<(usize, usize)>,
    counts: HashMap<&'static str, usize>,
    cache_counts: [usize; 4],
}

#[derive(Clone, Copy)]
struct Ctx {
    parent: Option<ObjIdx>,
    board: usize,
    numa: Option<usize>,
    socket: Option<usize>,
    die: Option<usize>,
    depth_under_machine: usize,
}

impl Converter {
    fn next_id(&mut self, kind: &'static str) -> usize {
        let c = self.counts.entry(kind).or_insert(0);
        let id = *c;
        *c += 1;
        id
    }

    fn push(
        &mut self,
        kind: ObjKind,
        logical_id: usize,
        parent: Option<ObjIdx>,
        size: u64,
    ) -> ObjIdx {
        let idx = self.objs.len();
        self.objs.push(Obj { kind, logical_id, parent, children: Vec::new(), size_bytes: size });
        if let Some(p) = parent {
            self.objs[p].children.push(idx);
        }
        idx
    }

    fn convert(&mut self, node: &XNode, ctx: Ctx, caches: &mut Vec<(u8, usize)>) {
        let mapped = map_type(node, ctx.depth_under_machine);
        match mapped {
            Mapped::Skip => {}
            Mapped::Transparent => {
                for child in &node.children {
                    self.convert(child, ctx, caches);
                }
            }
            Mapped::Kind(kind) => {
                // Cache-ancestry stack height before this node contributes;
                // restored when leaving so siblings don't see our caches.
                let cache_depth_before = caches.len();
                let size: u64 = match kind {
                    ObjKind::Cache(_) => {
                        node.attrs.get("cache_size").and_then(|s| s.parse().ok()).unwrap_or(0)
                    }
                    ObjKind::NumaNode | ObjKind::Machine => {
                        node.attrs.get("local_memory").and_then(|s| s.parse().ok()).unwrap_or(0)
                    }
                    _ => 0,
                };
                let mut ctx2 = ctx;
                ctx2.depth_under_machine += 1;
                let (logical_id, idx) = match kind {
                    ObjKind::Machine => (0, self.push(kind, 0, ctx.parent, size)),
                    ObjKind::Node => unreachable!("clusters are not parsed from XML"),
                    ObjKind::Board => {
                        let id = self.next_id("board");
                        ctx2.board = id;
                        (id, self.push(kind, id, ctx.parent, size))
                    }
                    ObjKind::NumaNode => {
                        let id = self.next_id("numa");
                        ctx2.numa = Some(id);
                        (id, self.push(kind, id, ctx.parent, size))
                    }
                    ObjKind::Socket => {
                        let id = self.next_id("socket");
                        ctx2.socket = Some(id);
                        (id, self.push(kind, id, ctx.parent, size))
                    }
                    ObjKind::Die => {
                        let id = self.next_id("die");
                        ctx2.die = Some(id);
                        (id, self.push(kind, id, ctx.parent, size))
                    }
                    ObjKind::Cache(level) => {
                        let id = self.cache_counts[level as usize];
                        self.cache_counts[level as usize] += 1;
                        caches.push((level, id));
                        (id, self.push(kind, id, ctx.parent, size))
                    }
                    ObjKind::Core => {
                        let id = self.cores.len();
                        let idx = self.push(kind, id, ctx.parent, size);
                        let mut cv_caches = caches.clone();
                        cv_caches.reverse(); // innermost first
                        self.cores.push(CoreView {
                            core: id,
                            obj: idx,
                            board: ctx.board,
                            numa: ctx.numa.unwrap_or(0),
                            socket: ctx.socket.unwrap_or(0),
                            die: ctx.die,
                            caches: cv_caches,
                            node: 0,
                            switch: 0,
                        });
                        (id, idx)
                    }
                    ObjKind::Pu => {
                        let id = self.cores.len().saturating_sub(1);
                        let os = node
                            .attrs
                            .get("os_index")
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(self.pu_os.len());
                        // Only the first PU of a core contributes to the OS
                        // numbering (one rank per core).
                        if self.pu_os.iter().all(|&(c, _)| c != id) {
                            self.pu_os.push((id, os));
                        }
                        (id, self.push(kind, id, ctx.parent, size))
                    }
                };
                let _ = logical_id;
                ctx2.parent = Some(idx);
                // hwloc-2 memory children: a childless NUMANode sibling
                // claims the enclosing subtree, so scan first.
                if !matches!(kind, ObjKind::NumaNode) {
                    if let Some(mem) = node.children.iter().find(|c| {
                        c.attrs.get("type").map(String::as_str) == Some("NUMANode")
                            && c.children.is_empty()
                    }) {
                        let id = self.next_id("numa");
                        let size =
                            mem.attrs.get("local_memory").and_then(|s| s.parse().ok()).unwrap_or(0);
                        self.push(ObjKind::NumaNode, id, Some(idx), size);
                        ctx2.numa = Some(id);
                    }
                }
                for child in &node.children {
                    // The memory child was already handled.
                    if child.attrs.get("type").map(String::as_str) == Some("NUMANode")
                        && child.children.is_empty()
                        && !matches!(kind, ObjKind::NumaNode)
                    {
                        continue;
                    }
                    self.convert(child, ctx2, caches);
                }
                caches.truncate(cache_depth_before);
            }
        }
    }
}

/// Structural audit of a converted object arena: every parent index is in
/// range, every parent/child link is mutual, and every parent chain
/// terminates at a root within `objs.len()` steps — i.e. the arena is a
/// forest, not a cycle. The converter builds trees by construction, but
/// the audit keeps a corrupted or hand-assembled arena (and any future
/// refactor of the converter) from sending distance queries into an
/// infinite parent walk.
pub fn validate_object_tree(objs: &[Obj]) -> Result<(), XmlError> {
    let n = objs.len();
    for (idx, obj) in objs.iter().enumerate() {
        if let Some(p) = obj.parent {
            if p >= n {
                return Err(XmlError::CyclicTopology { at: idx });
            }
            if !objs[p].children.contains(&idx) {
                return Err(XmlError::CyclicTopology { at: idx });
            }
        }
        for &c in &obj.children {
            if c >= n || objs[c].parent != Some(idx) {
                return Err(XmlError::CyclicTopology { at: idx });
            }
        }
        // The parent chain must reach a root in at most n steps.
        let mut cursor = obj.parent;
        let mut steps = 0usize;
        while let Some(p) = cursor {
            steps += 1;
            if steps > n {
                return Err(XmlError::CyclicTopology { at: idx });
            }
            cursor = objs[p].parent;
        }
    }
    Ok(())
}

/// Parses `lstopo --of xml` output into a [`Machine`].
pub fn parse_hwloc_xml(xml: &str) -> Result<Machine, XmlError> {
    let root = parse_xml(xml)?;
    // lstopo wraps everything in <topology>; accept a bare object too.
    let machine_node = if root.name == "topology" {
        root.children.iter().find(|c| c.name == "object").ok_or(XmlError::NoCores)?.clone()
    } else {
        root
    };

    let mut conv = Converter::default();
    let ctx =
        Ctx { parent: None, board: 0, numa: None, socket: None, die: None, depth_under_machine: 0 };
    conv.convert(&machine_node, ctx, &mut Vec::new());

    if conv.cores.is_empty() {
        return Err(XmlError::NoCores);
    }
    validate_object_tree(&conv.objs)?;

    // OS numbering: core_of_os_id[os] = core. Unknown ids fall back to
    // topology order.
    let n = conv.cores.len();
    let mut os_index: Vec<usize> = (0..n).collect();
    let mut claimed = vec![false; n];
    for &(core, os) in &conv.pu_os {
        if os < n {
            os_index[os] = core;
            claimed[os] = true;
        }
    }
    // Repair: if the claimed map is not a permutation, fall back entirely.
    {
        let mut seen = vec![false; n];
        let ok = os_index.iter().all(|&c| {
            if c < n && !seen[c] {
                seen[c] = true;
                true
            } else {
                false
            }
        });
        if !ok {
            os_index = (0..n).collect();
        }
    }

    let num_boards = conv.cores.iter().map(|c| c.board).max().unwrap_or(0) + 1;
    let num_numa = conv.cores.iter().map(|c| c.numa).max().unwrap_or(0) + 1;
    let num_sockets = conv.cores.iter().map(|c| c.socket).max().unwrap_or(0) + 1;

    Ok(Machine {
        name: "hwloc-import".into(),
        objs: conv.objs,
        cores: conv.cores,
        os_index,
        num_boards,
        num_numa,
        num_sockets,
        num_nodes: 1,
        num_switches: 1,
    })
}

/// Reads and parses an hwloc XML file.
pub fn parse_hwloc_file(
    path: impl AsRef<std::path::Path>,
) -> Result<Machine, Box<dyn std::error::Error>> {
    Ok(parse_hwloc_xml(&std::fs::read_to_string(path)?)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::distance::core_distance;

    /// A dual-socket, hwloc-2 style machine: NUMANode memory children,
    /// per-package L3, per-core L2/L1, 2 cores per package, out-of-order
    /// PU os_index.
    pub(crate) const DUAL_SOCKET: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE topology SYSTEM "hwloc2.dtd">
<topology version="2.0">
 <object type="Machine" os_index="0" cpuset="0x000000ff">
  <info name="Backend" value="Linux"/>
  <object type="Package" os_index="0">
   <object type="NUMANode" os_index="0" local_memory="34359738368"/>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="L2Cache" cache_size="524288" depth="2">
     <object type="L1Cache" cache_size="32768" depth="1">
      <object type="Core" os_index="0"><object type="PU" os_index="0"/></object>
     </object>
    </object>
    <object type="L2Cache" cache_size="524288" depth="2">
     <object type="L1Cache" cache_size="32768" depth="1">
      <object type="Core" os_index="1"><object type="PU" os_index="2"/></object>
     </object>
    </object>
   </object>
  </object>
  <object type="Package" os_index="1">
   <object type="NUMANode" os_index="1" local_memory="34359738368"/>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="L2Cache" cache_size="524288" depth="2">
     <object type="L1Cache" cache_size="32768" depth="1">
      <object type="Core" os_index="2"><object type="PU" os_index="1"/></object>
     </object>
    </object>
    <object type="L2Cache" cache_size="524288" depth="2">
     <object type="L1Cache" cache_size="32768" depth="1">
      <object type="Core" os_index="3"><object type="PU" os_index="3"/></object>
     </object>
    </object>
   </object>
  </object>
 </object>
</topology>"#;

    #[test]
    fn parses_dual_socket_hwloc2() {
        let m = parse_hwloc_xml(DUAL_SOCKET).unwrap();
        assert_eq!(m.num_cores(), 4);
        assert_eq!(m.num_sockets, 2);
        assert_eq!(m.num_numa, 2);
        assert_eq!(m.num_boards, 1);
        // Cores 0,1 share socket 0's L3; cores 2,3 socket 1's.
        assert_eq!(core_distance(&m, 0, 1), 1, "shared L3");
        assert_eq!(core_distance(&m, 0, 2), 5, "cross socket, cross NUMA, same board");
        assert_eq!(m.shared_cache_size(0, 1), Some(33_554_432));
        assert!(!m.core(0).shares_cache_with(m.core(2)));
    }

    #[test]
    fn os_index_from_pus() {
        let m = parse_hwloc_xml(DUAL_SOCKET).unwrap();
        // PU os_index mapping: os 0 -> core 0, os 1 -> core 2, os 2 -> core 1.
        assert_eq!(m.core_of_os_id(0), 0);
        assert_eq!(m.core_of_os_id(1), 2);
        assert_eq!(m.core_of_os_id(2), 1);
        assert_eq!(m.core_of_os_id(3), 3);
    }

    #[test]
    fn numa_memory_recorded() {
        let m = parse_hwloc_xml(DUAL_SOCKET).unwrap();
        let numa_objs: Vec<&Obj> = m.objs.iter().filter(|o| o.kind == ObjKind::NumaNode).collect();
        assert_eq!(numa_objs.len(), 2);
        assert!(numa_objs.iter().all(|o| o.size_bytes == 34_359_738_368));
    }

    #[test]
    fn hwloc1_style_containers_and_groups() {
        // hwloc-1 layout: NUMANode contains the package; Groups as boards.
        let xml = r#"<topology>
 <object type="Machine">
  <object type="Group" os_index="0">
   <object type="NUMANode" local_memory="1024">
    <object type="Socket">
     <object type="Cache" depth="2" cache_size="2048">
      <object type="Core"><object type="PU" os_index="0"/></object>
      <object type="Core"><object type="PU" os_index="1"/></object>
     </object>
    </object>
   </object>
  </object>
  <object type="Group" os_index="1">
   <object type="NUMANode" local_memory="1024">
    <object type="Socket">
     <object type="Cache" depth="2" cache_size="2048">
      <object type="Core"><object type="PU" os_index="2"/></object>
     </object>
    </object>
   </object>
  </object>
 </object>
</topology>"#;
        let m = parse_hwloc_xml(xml).unwrap();
        assert_eq!(m.num_cores(), 3);
        assert_eq!(m.num_boards, 2);
        assert_eq!(core_distance(&m, 0, 1), 1, "shared L2");
        assert_eq!(core_distance(&m, 0, 2), 6, "across groups/boards");
    }

    #[test]
    fn io_subtrees_and_unknown_types_tolerated() {
        let xml = r#"<topology>
 <object type="Machine">
  <!-- a comment -->
  <object type="Package">
   <object type="Core"><object type="PU" os_index="0"/></object>
   <object type="Bridge"><object type="PCIDev"/></object>
   <object type="Wobble">
    <object type="Core"><object type="PU" os_index="1"/></object>
   </object>
  </object>
 </object>
</topology>"#;
        let m = parse_hwloc_xml(xml).unwrap();
        assert_eq!(m.num_cores(), 2, "unknown containers are transparent, I/O dropped");
        assert_eq!(core_distance(&m, 0, 1), 2, "same socket, single implicit NUMA domain");
    }

    #[test]
    fn parsed_machine_drives_the_full_stack() {
        use crate::binding::BindingPolicy;
        use crate::distance::DistanceMatrix;
        let m = parse_hwloc_xml(DUAL_SOCKET).unwrap();
        let b = BindingPolicy::RoundRobinOs.bind(&m, 4).unwrap();
        let dm = DistanceMatrix::for_binding(&m, &b);
        // rr over the interleaved os map: ranks 0,1 land on different sockets.
        assert_eq!(dm.get(0, 1), 5);
        assert_eq!(dm.classes(), vec![1, 5]);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(parse_hwloc_xml(""), Err(XmlError::Malformed { .. })));
        assert!(matches!(
            parse_hwloc_xml("<topology><object type=\"Machine\"></wrong>"),
            Err(XmlError::TagMismatch { .. })
        ));
        assert!(matches!(parse_hwloc_xml("<topology></topology>"), Err(XmlError::NoCores)));
        assert!(matches!(
            parse_hwloc_xml("<topology><object type=\"Machine\"/></topology>"),
            Err(XmlError::NoCores)
        ));
        assert!(matches!(parse_hwloc_xml("<a attr=novalue></a>"), Err(XmlError::Malformed { .. })));
    }
}
