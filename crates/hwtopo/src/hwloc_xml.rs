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
//! Unknown object types (`Misc`-like wrappers, nested `Group`s) are
//! transparent: their children are lifted into the parent; I/O subtrees
//! (`Bridge`, `PCIDev`, `OSDev`, `Misc`) are dropped. Both hwloc-1 style
//! (NUMANode as a container) and hwloc-2 style (NUMANode as a childless
//! memory child) layouts are accepted. An object's memory children are
//! one NUMA domain whose size is their sum (DRAM beside HBM, say). The
//! domain stays beside the subtree it serves; on a transparent object (an
//! hwloc-2 nested `Group`, as in a Magny-Cours package) it becomes a NUMA
//! container of the lifted children instead, so it still covers exactly
//! that subtree.
//!
//! The converter only builds the object tree and the OS numbering;
//! [`Machine::from_tree`] numbers the objects and derives the core views.

use std::collections::HashMap;

use crate::error::TopoError;
use crate::object::{is_permutation, push_obj, Machine, Obj, ObjIdx, ObjKind};

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
    /// The converted object tree was refused by [`Machine::from_tree`].
    Topology(TopoError),
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
            XmlError::Topology(e) => write!(f, "{e}"),
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

/// A childless `NUMANode`: hwloc-2's memory child of its parent.
fn is_memory_child(node: &XNode) -> bool {
    node.attrs.get("type").map(String::as_str) == Some("NUMANode") && node.children.is_empty()
}

fn attr_u64(node: &XNode, key: &str) -> u64 {
    node.attrs.get(key).and_then(|s| s.parse().ok()).unwrap_or(0)
}

#[derive(Default)]
struct Converter {
    objs: Vec<Obj>,
    /// `Core` objects converted so far.
    num_cores: usize,
    /// (core id, PU os_index) pairs in discovery order.
    pu_os: Vec<(usize, usize)>,
}

impl Converter {
    fn convert(&mut self, node: &XNode, parent: Option<ObjIdx>, depth_under_machine: usize) {
        // All memory children (DRAM beside HBM, say) are one NUMA domain
        // holding their sum.
        let memory = node
            .children
            .iter()
            .filter(|c| is_memory_child(c))
            .map(|mem| attr_u64(mem, "local_memory"))
            .reduce(u64::saturating_add);
        let mapped = map_type(node, depth_under_machine);
        let (here, depth) = match mapped {
            Mapped::Skip => return,
            Mapped::Transparent => match memory {
                Some(size) => {
                    let numa = push_obj(&mut self.objs, ObjKind::NumaNode, parent, size);
                    (Some(numa), depth_under_machine)
                }
                None => (parent, depth_under_machine),
            },
            Mapped::Kind(kind) => {
                let size = match kind {
                    ObjKind::Cache(_) => attr_u64(node, "cache_size"),
                    ObjKind::NumaNode | ObjKind::Machine => attr_u64(node, "local_memory"),
                    _ => 0,
                };
                let idx = push_obj(&mut self.objs, kind, parent, size);
                match kind {
                    ObjKind::Core => self.num_cores += 1,
                    ObjKind::Pu => {
                        let core = self.num_cores.saturating_sub(1);
                        let os = node
                            .attrs
                            .get("os_index")
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(self.pu_os.len());
                        // Only the first PU of a core contributes to the OS
                        // numbering (one rank per core).
                        if self.pu_os.last().map(|&(c, _)| c) != Some(core) {
                            self.pu_os.push((core, os));
                        }
                    }
                    _ => {}
                }
                if let Some(size) = memory.filter(|_| kind != ObjKind::NumaNode) {
                    push_obj(&mut self.objs, ObjKind::NumaNode, Some(idx), size);
                }
                (Some(idx), depth_under_machine + 1)
            }
        };
        let container_numa = matches!(mapped, Mapped::Kind(ObjKind::NumaNode));
        for child in &node.children {
            // Memory children were handled above.
            if container_numa || !is_memory_child(child) {
                self.convert(child, here, depth);
            }
        }
    }
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
    conv.convert(&machine_node, None, 0);
    if conv.num_cores == 0 {
        return Err(XmlError::NoCores);
    }

    // OS numbering: core_of_os_id[os] = core. Unknown ids fall back to
    // topology order.
    let n = conv.num_cores;
    let mut os_index: Vec<usize> = (0..n).collect();
    for &(core, os) in &conv.pu_os {
        if os < n {
            os_index[os] = core;
        }
    }
    // Repair: if the claimed map is not a permutation, fall back entirely.
    if !is_permutation(&os_index) {
        os_index = (0..n).collect();
    }

    Machine::from_tree("hwloc-import", conv.objs, os_index).map_err(XmlError::Topology)
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
    pub(crate) const DUAL_SOCKET: &str = include_str!("../tests/fixtures/dual_socket.xml");

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
        let xml = include_str!("../tests/fixtures/hwloc1_groups.xml");
        let m = parse_hwloc_xml(xml).unwrap();
        assert_eq!(m.num_cores(), 3);
        assert_eq!(m.num_boards, 2);
        assert_eq!(core_distance(&m, 0, 1), 1, "shared L2");
        assert_eq!(core_distance(&m, 0, 2), 6, "across groups/boards");
    }

    #[test]
    fn io_subtrees_and_unknown_types_tolerated() {
        let xml = include_str!("../tests/fixtures/io_subtrees.xml");
        let m = parse_hwloc_xml(xml).unwrap();
        assert_eq!(m.num_cores(), 2, "unknown containers are transparent, I/O dropped");
        assert_eq!(core_distance(&m, 0, 1), 2, "same socket, single implicit NUMA domain");
    }

    #[test]
    fn memory_children_of_nested_groups_split_the_package() {
        // An hwloc-2 Magny-Cours package: two nested Groups, each with a
        // NUMANode memory child and an L3 over two cores.
        let m = parse_hwloc_xml(include_str!("../tests/fixtures/magny_cours_groups.xml")).unwrap();
        assert_eq!((m.num_sockets, m.num_numa), (1, 2));
        assert_eq!(core_distance(&m, 0, 1), 1, "shared L3");
        assert_eq!(core_distance(&m, 0, 2), 4, "same socket, other memory controller");
        let numa_objs = m.objs.iter().filter(|o| o.kind == ObjKind::NumaNode);
        assert!(numa_objs.map(|o| o.size_bytes).all(|size| size == 8 << 30));
    }

    #[test]
    fn memory_children_of_one_object_are_one_domain() {
        // A package with DRAM and HBM memory children: one NUMA domain
        // holding both.
        let m = parse_hwloc_xml(include_str!("../tests/fixtures/hbm_package.xml")).unwrap();
        let numa = m.objs.iter().filter(|o| o.kind == ObjKind::NumaNode);
        assert_eq!(numa.map(|o| o.size_bytes).collect::<Vec<_>>(), [3072]);
        assert_eq!(m.num_numa, 1);
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
