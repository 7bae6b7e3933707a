//! Distance-aware Gather (future-work extension, §VI).
//!
//! Two strategies:
//!
//! * **Direct** — the KNEM-collective one-sided style: every rank exposes
//!   its buffer, the root pulls block by block. Minimal total traffic
//!   (every block crosses the machine once), but the root pays one
//!   long-distance operation per rank — latency-bound for small blocks.
//! * **Staged** — blocks aggregate up the Algorithm-1 tree: every internal
//!   node collects its subtree's blocks into one contiguous staging buffer
//!   (in subtree order), so each tree edge carries **one** large pull
//!   instead of many small ones; the root finally scatters the staged
//!   blocks to their rank offsets with local copies. More intermediate
//!   traffic, far fewer long-distance operations — the classic message
//!   aggregation trade-off, which [`adaptive`] resolves by block size.

use pdac_mpisim::Communicator;
use pdac_simnet::{BufId, Mech, OpId, Schedule, ScheduleBuilder};

use crate::adaptive::{AdaptiveColl, BcastTopology, Collective, Request, Sinks};
use crate::tree::Tree;

/// Builds the direct (one-sided pull) gather schedule.
pub fn distance_aware(comm: &Communicator, root: usize, block_bytes: usize) -> Schedule {
    let request = Request::new(Collective::Gather, root, block_bytes);
    AdaptiveColl::default().plan(comm, request, Sinks::default())
}

/// Builds the staged (tree-aggregating) gather schedule.
pub fn distance_aware_staged(comm: &Communicator, root: usize, block_bytes: usize) -> Schedule {
    let tree = AdaptiveColl::default().bcast_tree(comm, root, BcastTopology::Hierarchical);
    let mut s = staged_gather_schedule(&tree, block_bytes);
    s.name = format!("dist-gather-staged/{}", comm.name());
    s
}

/// Strategy cut-over: small blocks aggregate, large blocks pull directly
/// (aggregation pays extra store-and-forward bytes that only amortize while
/// per-operation latency dominates).
pub const STAGED_MAX_BLOCK: usize = 4096;

/// Picks direct vs staged by block size.
pub fn adaptive(comm: &Communicator, root: usize, block_bytes: usize) -> Schedule {
    if block_bytes <= STAGED_MAX_BLOCK && comm.size() > 2 {
        distance_aware_staged(comm, root, block_bytes)
    } else {
        distance_aware(comm, root, block_bytes)
    }
}

/// Ranks of `r`'s subtree in *subtree order*: self first, then each child's
/// subtree in attach order (so every child's span is contiguous).
fn subtree_members(tree: &Tree, r: usize, out: &mut Vec<usize>) {
    out.push(r);
    for &c in &tree.children[r] {
        subtree_members(tree, c, out);
    }
}

/// The staged gather over an arbitrary rooted tree.
pub fn staged_gather_schedule(tree: &Tree, block_bytes: usize) -> Schedule {
    let n = tree.len();
    let root = tree.root;
    let mut b = ScheduleBuilder::new("dist-gather-staged", n);

    // staged[r]: op after which r's staging buffer holds its whole subtree.
    let mut staged: Vec<Option<OpId>> = vec![None; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        let mut m = Vec::new();
        subtree_members(tree, r, &mut m);
        members[r] = m;
    }

    // Bottom-up: each rank stages its own block, then pulls each child's
    // finished staging buffer as one contiguous transfer.
    for &r in tree.bfs_order().iter().rev() {
        let mut last =
            b.copy((r, BufId::Send, 0), (r, BufId::Temp(0), 0), block_bytes, Mech::Memcpy, r, &[]);
        let mut offset = block_bytes;
        for &c in &tree.children[r] {
            let span = members[c].len() * block_bytes;
            let ready = b.notify(c, r, &[staged[c].expect("children staged first")]);
            last = b.copy(
                (c, BufId::Temp(0), 0),
                (r, BufId::Temp(0), offset),
                span,
                Mech::Knem,
                r,
                &[ready, last],
            );
            offset += span;
        }
        staged[r] = Some(last);
    }

    // Root scatter: staged subtree order -> rank offsets in Recv.
    let done = staged[root].expect("root staged");
    for (pos, &owner) in members[root].iter().enumerate() {
        b.copy(
            (root, BufId::Temp(0), pos * block_bytes),
            (root, BufId::Recv, owner * block_bytes),
            block_bytes,
            Mech::Memcpy,
            root,
            &[done],
        );
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use pdac_simnet::{SimConfig, SimExecutor};
    use std::sync::Arc;

    fn comm(policy: BindingPolicy, n: usize) -> Communicator {
        let ig = Arc::new(machines::ig());
        let binding = policy.bind(&ig, n).unwrap();
        Communicator::world(ig, binding)
    }

    #[test]
    fn gather_correct() {
        let c = comm(BindingPolicy::CrossSocket, 48);
        let s = distance_aware(&c, 9, 1024);
        verify::run(Request::new(Collective::Gather, 9, 1024), &s).unwrap();
    }

    #[test]
    fn staged_gather_correct_under_bindings() {
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 31 },
        ] {
            let c = comm(policy.clone(), 24);
            for root in [0, 13] {
                let s = distance_aware_staged(&c, root, 700);
                s.validate().unwrap();
                verify::run(Request::new(Collective::Gather, root, 700), &s)
                    .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            }
        }
    }

    #[test]
    fn staged_uses_one_pull_per_tree_edge() {
        let c = comm(BindingPolicy::Contiguous, 48);
        let s = distance_aware_staged(&c, 0, 512);
        let knem_pulls = s
            .ops
            .iter()
            .filter(|o| matches!(o.kind, pdac_simnet::OpKind::Copy { mech: Mech::Knem, .. }))
            .count();
        assert_eq!(knem_pulls, 47, "one aggregated pull per edge");
        // Direct gather posts one kernel pull per non-root rank too, but
        // all of them land on the root's executor.
        let direct = distance_aware(&c, 0, 512);
        let root_ops = direct
            .ops
            .iter()
            .filter(|o| matches!(o.kind, pdac_simnet::OpKind::Copy { exec: 0, .. }))
            .count();
        assert_eq!(root_ops, 48, "the root executes everything in the direct form");
    }

    #[test]
    fn aggregation_wins_small_direct_wins_large() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let c = Communicator::world(Arc::clone(&ig), binding.clone());
        let exec = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false });
        let time = |s: &Schedule| exec.run(s).unwrap().total_time;

        let small = 256;
        let t_direct_small = time(&distance_aware(&c, 0, small));
        let t_staged_small = time(&distance_aware_staged(&c, 0, small));
        assert!(
            t_staged_small < t_direct_small,
            "staged must win for {small}B blocks: {t_staged_small:.6} vs {t_direct_small:.6}"
        );

        let large = 256 << 10;
        let t_direct_large = time(&distance_aware(&c, 0, large));
        let t_staged_large = time(&distance_aware_staged(&c, 0, large));
        assert!(
            t_direct_large < t_staged_large,
            "direct must win for 256K blocks: {t_direct_large:.6} vs {t_staged_large:.6}"
        );

        // And the adaptive chooser picks accordingly.
        assert!(adaptive(&c, 0, small).name.contains("staged"));
        assert!(!adaptive(&c, 0, large).name.contains("staged"));
    }
}
