//! Error type shared by topology construction and binding.

use std::fmt;

/// Errors produced while building a [`crate::Machine`] or binding ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum TopoError {
    /// The machine specification or object tree contains no core at all.
    EmptyMachine,
    /// A package declared zero cores.
    EmptyPackage { board: usize, numa: usize, socket: usize },
    /// A cache specification addressed a core index outside its package.
    CacheCoreOutOfRange { cache: String, core: usize, cores_in_package: usize },
    /// Two caches of the same level overlap on a core.
    OverlappingCaches { level: u8, core: usize },
    /// A cache specification covers no core.
    EmptyCache { socket: usize, level: u8 },
    /// A cache spans two dies of its socket, or covers part of another
    /// cache's cores: caches must nest inside dies and inside each other.
    UnnestedCache { socket: usize, level: u8 },
    /// A cache level outside 1..=3.
    BadCacheLevel(u8),
    /// `die_numa` does not list exactly one NUMA node per die.
    BadDieNuma { socket: usize, dies: usize, got: usize },
    /// A NUMA node id is claimed both by a split-socket die and by a whole
    /// socket, by two dies, or by whole sockets on two boards.
    NumaOwnershipConflict { numa: usize },
    /// The OS index permutation is not a permutation of `0..num_cores`.
    BadOsOrder { expected_len: usize, got_len: usize },
    /// The object arena is not a forest stored parents first: at arena
    /// index `at` a link points outside the arena, the two ends of a link
    /// disagree, or a parent does not precede its child.
    NotATree { at: usize },
    /// More ranks were requested than cores available.
    TooManyRanks { ranks: usize, cores: usize },
    /// A user-supplied binding referenced a core id that does not exist.
    CoreOutOfRange { core: usize, cores: usize },
    /// A user-supplied binding bound two ranks to the same core.
    DuplicateCore { core: usize },
    /// A user-supplied binding list had the wrong length.
    BindingLength { expected: usize, got: usize },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::EmptyMachine => write!(f, "machine specification declares no cores"),
            TopoError::EmptyPackage { board, numa, socket } => write!(
                f,
                "package at board {board}, numa {numa}, socket {socket} declares zero cores"
            ),
            TopoError::CacheCoreOutOfRange { cache, core, cores_in_package } => write!(
                f,
                "cache {cache} references core {core} but the package only has {cores_in_package} cores"
            ),
            TopoError::OverlappingCaches { level, core } => {
                write!(f, "core {core} is covered by two distinct L{level} caches")
            }
            TopoError::EmptyCache { socket, level } => {
                write!(f, "an L{level} cache of socket {socket} covers no core")
            }
            TopoError::UnnestedCache { socket, level } => write!(
                f,
                "an L{level} cache of socket {socket} spans two dies or part of another cache"
            ),
            TopoError::BadCacheLevel(l) => write!(f, "cache level L{l} is outside L1..L3"),
            TopoError::BadDieNuma { socket, dies, got } => write!(
                f,
                "socket {socket} has {dies} dies but die_numa lists {got} NUMA nodes"
            ),
            TopoError::NumaOwnershipConflict { numa } => write!(
                f,
                "NUMA node {numa} is claimed by more than one socket/die owner"
            ),
            TopoError::BadOsOrder { expected_len, got_len } => write!(
                f,
                "OS index order must be a permutation of 0..{expected_len}, got length {got_len}"
            ),
            TopoError::NotATree { at } => {
                write!(f, "object tree is cyclic, dangling or out of order at index {at}")
            }
            TopoError::TooManyRanks { ranks, cores } => {
                write!(f, "cannot bind {ranks} ranks on a machine with {cores} cores")
            }
            TopoError::CoreOutOfRange { core, cores } => {
                write!(f, "binding references core {core} on a machine with {cores} cores")
            }
            TopoError::DuplicateCore { core } => {
                write!(f, "binding maps two ranks to core {core}")
            }
            TopoError::BindingLength { expected, got } => {
                write!(f, "binding list has length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for TopoError {}
