//! Routing a copy over the resource graph.
//!
//! A route is a small list of `(resource, multiplicity)` pairs: the flow's
//! rate consumes `multiplicity x rate` of each listed resource. NUMA-local
//! memory copies traverse their controller twice (read + write); NUMA-remote
//! copies load each endpoint controller once and cross both socket ports
//! (plus the board link when boards differ).

use pdac_hwtopo::{CoreId, Machine};

use crate::resource::Resource;

/// Maximum resources a single route can touch.
pub const MAX_ROUTE: usize = 7;

/// A route: up to [`MAX_ROUTE`] `(resource, multiplicity)` entries.
pub type Route = Vec<(Resource, u32)>;

/// Computes into `route` (cleared first, so one buffer serves a whole run)
/// the route of a copy of `bytes` from a buffer owned by the process on
/// `src_core` to one owned by the process on `dst_core`, executed by the
/// core `exec_core`.
///
/// The transfer stays inside the shared-cache domain when both cores share
/// a cache large enough for the payload and the source data can be warm:
/// either cache reuse is allowed (`allow_cache`; IMB's `off-cache` option
/// clears it), or the source bytes were produced *during this operation*
/// (`src_hot` — forwarded data is in the producer's cache regardless of how
/// the benchmark rotates its user buffers). Everything else goes through
/// memory.
#[allow(clippy::too_many_arguments)]
pub fn copy_route(
    machine: &Machine,
    src_core: CoreId,
    dst_core: CoreId,
    exec_core: CoreId,
    bytes: usize,
    allow_cache: bool,
    src_hot: bool,
    route: &mut Route,
) {
    let src = machine.core(src_core);
    let dst = machine.core(dst_core);
    route.clear();

    // Inter-node (cluster extension): RDMA-style get over the NICs. The
    // source side is read by the adapter's DMA engine (no cache service
    // across the network), the destination side is written through its
    // controller; inter-switch traffic additionally crosses both uplinks.
    if src.node != dst.node {
        route.push((Resource::Core(exec_core), 1));
        route.push((Resource::Mc(src.numa), 1));
        route.push((Resource::Nic(src.node), 1));
        if src.switch != dst.switch {
            route.push((Resource::SwitchUplink(src.switch), 1));
            route.push((Resource::SwitchUplink(dst.switch), 1));
        }
        route.push((Resource::Nic(dst.node), 1));
        route.push((Resource::Mc(dst.numa), 1));
        return;
    }

    let warm = allow_cache || src_hot;

    // Same cache domain and the payload fits: pure cache-to-cache transfer.
    if warm {
        if let Some(size) = machine.shared_cache_size(src_core, dst_core) {
            if bytes as u64 <= size {
                route.push((Resource::Core(exec_core), 1));
                route.push((Resource::Cache(src.socket), 1));
                if !allow_cache {
                    // Streaming (off-cache) mode: the read is served from
                    // the producer's cache, but the freshly written lines
                    // are eventually evicted to the destination's DRAM.
                    route.push((Resource::Mc(dst.numa), 1));
                }
                return;
            }
        }
    }

    // NUMA-remote cache intervention: data resident in the source socket's
    // outer cache is served over the interconnect without touching the
    // source DRAM controller. (Same-NUMA-different-socket systems — a
    // front-side bus — gain nothing: the bus and the controller are the
    // same resource, so they fall through to the memory route below.)
    let remote = src.numa != dst.numa;
    if warm && remote {
        if let Some(size) = machine.largest_cache_size(src_core) {
            if bytes as u64 <= size {
                let engine_weight = if src.board != dst.board { 3 } else { 2 };
                route.push((Resource::Core(exec_core), engine_weight));
                route.push((Resource::Cache(src.socket), 1));
                route.push((Resource::Port(src.socket), 1));
                route.push((Resource::Port(dst.socket), 1));
                if src.board != dst.board {
                    route.push((Resource::BoardLink, 1));
                }
                route.push((Resource::Mc(dst.numa), 1));
                return;
            }
        }
    }

    if !remote {
        route.push((Resource::Core(exec_core), 1));
        // NUMA-local: one read plus one write through the same controller.
        route.push((Resource::Mc(src.numa), 2));
    } else {
        // NUMA-remote loads through an interconnect sustain markedly lower
        // single-flow memcpy rates than local ones (longer round trips per
        // cache line); modelled as extra weight on the copy engine: the
        // per-flow ceiling drops to core_bw/2 across sockets and core_bw/3
        // across boards.
        let engine_weight = if src.board != dst.board { 3 } else { 2 };
        route.push((Resource::Core(exec_core), engine_weight));
        route.push((Resource::Mc(src.numa), 1));
        route.push((Resource::Mc(dst.numa), 1));
        route.push((Resource::Port(src.socket), 1));
        route.push((Resource::Port(dst.socket), 1));
        if src.board != dst.board {
            route.push((Resource::BoardLink, 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::machines;

    #[allow(clippy::too_many_arguments)]
    fn copy_route(
        machine: &Machine,
        src: CoreId,
        dst: CoreId,
        exec: CoreId,
        bytes: usize,
        allow_cache: bool,
        src_hot: bool,
    ) -> Route {
        // Stale entries must not survive into the next route.
        let mut route = vec![(Resource::BoardLink, 9)];
        super::copy_route(machine, src, dst, exec, bytes, allow_cache, src_hot, &mut route);
        route
    }

    #[test]
    fn self_copy_is_local_memory() {
        let ig = machines::ig();
        let r = copy_route(&ig, 0, 0, 0, 1 << 20, false, false);
        assert_eq!(r, vec![(Resource::Core(0), 1), (Resource::Mc(0), 2)]);
    }

    #[test]
    fn shared_cache_route_when_fits() {
        let ig = machines::ig();
        // Cores 0 and 5 share the 5118KB L3; 1MB fits.
        let r = copy_route(&ig, 0, 5, 5, 1 << 20, true, false);
        assert_eq!(r, vec![(Resource::Core(5), 1), (Resource::Cache(0), 1)]);
    }

    #[test]
    fn cache_route_denied_when_too_big_or_off_cache() {
        let ig = machines::ig();
        let big = copy_route(&ig, 0, 5, 5, 8 << 20, true, false);
        assert!(big.contains(&(Resource::Mc(0), 2)), "8MB exceeds the L3");
        let off = copy_route(&ig, 0, 5, 5, 1 << 20, false, false);
        assert!(off.contains(&(Resource::Mc(0), 2)), "off-cache forces memory");
    }

    #[test]
    fn cross_numa_same_board_route_cold() {
        let ig = machines::ig();
        let r = copy_route(&ig, 0, 12, 12, 1 << 20, false, false);
        assert_eq!(
            r,
            vec![
                // Remote flows carry double engine weight (reduced
                // single-flow ceiling).
                (Resource::Core(12), 2),
                (Resource::Mc(0), 1),
                (Resource::Mc(2), 1),
                (Resource::Port(0), 1),
                (Resource::Port(2), 1),
            ]
        );
    }

    #[test]
    fn cross_numa_warm_route_uses_cache_intervention() {
        let ig = machines::ig();
        // Warm source (hot or cache-friendly benchmark): the read is served
        // from the source socket's L3 over the ports, skipping Mc(0).
        for (allow_cache, src_hot) in [(true, false), (false, true)] {
            let r = copy_route(&ig, 0, 12, 12, 1 << 20, allow_cache, src_hot);
            assert_eq!(
                r,
                vec![
                    (Resource::Core(12), 2),
                    (Resource::Cache(0), 1),
                    (Resource::Port(0), 1),
                    (Resource::Port(2), 1),
                    (Resource::Mc(2), 1),
                ]
            );
        }
        // Payload exceeding the source L3 falls back to memory.
        let r = copy_route(&ig, 0, 12, 12, 8 << 20, true, true);
        assert!(r.contains(&(Resource::Mc(0), 1)));
    }

    #[test]
    fn cross_board_route_includes_board_link() {
        let ig = machines::ig();
        let r = copy_route(&ig, 0, 24, 24, 1 << 20, true, false);
        assert!(r.contains(&(Resource::BoardLink, 1)));
        assert!(r.len() <= MAX_ROUTE);
    }

    #[test]
    fn zoot_cross_socket_stays_on_single_controller() {
        let z = machines::zoot();
        // Distance 3 on Zoot: different sockets, same (single) controller —
        // no port traversal, double pass over the FSB controller.
        let r = copy_route(&z, 0, 4, 4, 8 << 20, true, false);
        assert_eq!(r, vec![(Resource::Core(4), 1), (Resource::Mc(0), 2)]);
    }

    #[test]
    fn zoot_shared_l2_pair_uses_cache_for_small() {
        let z = machines::zoot();
        let r = copy_route(&z, 0, 1, 1, 1 << 20, true, false);
        assert_eq!(r, vec![(Resource::Core(1), 1), (Resource::Cache(0), 1)]);
        // 8MB exceeds the 4MB L2.
        let r = copy_route(&z, 0, 1, 1, 8 << 20, true, false);
        assert_eq!(r, vec![(Resource::Core(1), 1), (Resource::Mc(0), 2)]);
    }
}
