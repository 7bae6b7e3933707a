//! Contended resources and per-machine calibration.
//!
//! The resource graph is derived from the [`pdac_hwtopo`] machine: one copy
//! engine per core, one shared-cache domain per socket, one memory
//! controller per NUMA node, one interconnect port per socket (traversed by
//! NUMA-remote traffic), and a single inter-board backplane. Capacities come
//! from a [`Calibration`] table; the tables for Zoot and IG are set so the
//! simulated figures land in the regimes the paper reports (see DESIGN.md
//! §5 — shapes, not absolute numbers, are the reproduction target).

use pdac_hwtopo::Machine;
use serde::{Deserialize, Serialize};

/// A contended hardware resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resource {
    /// The copy engine of one core: a single flow's memcpy ceiling, and the
    /// reason a rank moves at most `core_bw` even on an idle machine.
    Core(usize),
    /// The shared-cache fabric of a socket (cache-to-cache transfers).
    Cache(usize),
    /// The memory controller of a NUMA node. NUMA-local copies traverse it
    /// twice (read + write).
    Mc(usize),
    /// The inter-socket port of a socket (HyperTransport/QPI style),
    /// traversed by traffic whose endpoints live on different NUMA nodes.
    Port(usize),
    /// The inter-board backplane (single shared link, as on IG).
    BoardLink,
    /// A node's network adapter (inter-node extension): all traffic leaving
    /// or entering the node crosses it.
    Nic(usize),
    /// A leaf switch's uplink into the spine (crossed by inter-switch
    /// traffic; same-switch traffic turns around inside the leaf).
    SwitchUplink(usize),
}

/// Bandwidths (bytes/second), latencies (seconds) and protocol thresholds
/// for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Single-core memcpy ceiling.
    pub core_bw: f64,
    /// Shared-cache domain bandwidth (per socket).
    pub cache_bw: f64,
    /// Memory-controller bandwidth (per NUMA node).
    pub mc_bw: f64,
    /// Inter-socket port bandwidth (per socket).
    pub port_bw: f64,
    /// Inter-board backplane bandwidth.
    pub board_link_bw: f64,
    /// Fixed startup latency of any operation.
    pub base_latency: f64,
    /// Additional latency per unit of process distance.
    pub hop_latency: f64,
    /// KNEM setup cost per copy (syscall + cookie), §IV-A.
    pub knem_setup: f64,
    /// Latency of an out-of-band notification.
    pub notify_latency: f64,
    /// Messages at or below this use eager copy-in/copy-out in the p2p
    /// layer (Open MPI SM/KNEM BTL switches at 4 KB, §V-A).
    pub eager_max_bytes: usize,
    /// Network adapter bandwidth (inter-node extension).
    #[serde(default = "default_nic_bw")]
    pub nic_bw: f64,
    /// Leaf-switch uplink bandwidth.
    #[serde(default = "default_switch_bw")]
    pub switch_bw: f64,
    /// One-way latency between nodes on the same leaf switch.
    #[serde(default = "default_net_lat_same")]
    pub net_latency_same_switch: f64,
    /// One-way latency across leaf switches.
    #[serde(default = "default_net_lat_cross")]
    pub net_latency_cross_switch: f64,
    /// RDMA work-request post + doorbell cost per one-sided transfer. The
    /// verbs path stays in user space, so this is an order of magnitude
    /// below the KNEM trap; segments of a pipelined transfer overlap on the
    /// wire, so it is charged once per operation, not per WQE.
    #[serde(default = "default_rdma_setup")]
    pub rdma_setup: f64,
    /// RDMA work-request granularity in bytes (the wire MTU the executor's
    /// queue-pair backend segments transfers into).
    #[serde(default = "default_rdma_mtu")]
    pub rdma_mtu: usize,
}

fn default_nic_bw() -> f64 {
    3.0e9
}
fn default_switch_bw() -> f64 {
    8.0e9
}
fn default_net_lat_same() -> f64 {
    1.6e-6
}
fn default_net_lat_cross() -> f64 {
    3.2e-6
}
fn default_rdma_setup() -> f64 {
    1.5e-6
}
fn default_rdma_mtu() -> usize {
    4096
}

/// Which one-sided transport the timing model charges setup costs for.
/// Plans stay distance-aware either way — only the per-operation mechanism
/// cost changes, mirroring the executor's pluggable transport seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransportModel {
    /// Kernel-assisted single-copy: every one-sided op pays `knem_setup`.
    #[default]
    Knem,
    /// RDMA-style queue pairs: every one-sided op pays `rdma_setup`.
    Rdma,
}

impl TransportModel {
    /// Short label ("knem", "rdma") for scenario ids and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TransportModel::Knem => "knem",
            TransportModel::Rdma => "rdma",
        }
    }
}

impl Calibration {
    /// Calibration for one of the known machines, or a generic NUMA default.
    pub fn for_machine(machine: &Machine) -> Self {
        match machine.name.as_str() {
            "zoot" => Self::zoot(),
            "ig" => Self::ig(),
            _ => Self::generic(),
        }
    }

    /// Zoot: quad-socket Tigerton behind a single FSB memory controller.
    /// The FSB saturates long before the per-core engines do, which is what
    /// makes the linear topology win for large messages (paper Fig. 8).
    pub fn zoot() -> Self {
        Calibration {
            core_bw: 2.2e9,
            cache_bw: 9.0e9,
            mc_bw: 3.0e9,
            // Zoot's sockets all talk through the FSB controller; the
            // per-socket port is wide enough never to be the bottleneck.
            port_bw: 8.0e9,
            board_link_bw: f64::INFINITY,
            base_latency: 0.4e-6,
            hop_latency: 0.15e-6,
            knem_setup: 9.0e-6,
            notify_latency: 0.12e-6,
            eager_max_bytes: 4096,
            nic_bw: default_nic_bw(),
            switch_bw: default_switch_bw(),
            net_latency_same_switch: default_net_lat_same(),
            net_latency_cross_switch: default_net_lat_cross(),
            rdma_setup: default_rdma_setup(),
            rdma_mtu: default_rdma_mtu(),
        }
    }

    /// IG: 8 NUMA nodes with per-socket controllers, HT ports, and one
    /// inter-board link.
    pub fn ig() -> Self {
        Calibration {
            core_bw: 2.6e9,
            cache_bw: 14.0e9,
            mc_bw: 6.4e9,
            port_bw: 2.4e9,
            board_link_bw: 8.0e9,
            base_latency: 0.3e-6,
            hop_latency: 0.12e-6,
            knem_setup: 7.0e-6,
            notify_latency: 0.1e-6,
            eager_max_bytes: 4096,
            nic_bw: default_nic_bw(),
            switch_bw: default_switch_bw(),
            net_latency_same_switch: default_net_lat_same(),
            net_latency_cross_switch: default_net_lat_cross(),
            rdma_setup: default_rdma_setup(),
            rdma_mtu: default_rdma_mtu(),
        }
    }

    /// A plausible modern NUMA default for synthetic machines.
    pub fn generic() -> Self {
        Calibration {
            core_bw: 3.0e9,
            cache_bw: 16.0e9,
            mc_bw: 8.0e9,
            port_bw: 4.0e9,
            board_link_bw: 10.0e9,
            base_latency: 0.3e-6,
            hop_latency: 0.1e-6,
            knem_setup: 7.0e-6,
            notify_latency: 0.1e-6,
            eager_max_bytes: 4096,
            nic_bw: default_nic_bw(),
            switch_bw: default_switch_bw(),
            net_latency_same_switch: default_net_lat_same(),
            net_latency_cross_switch: default_net_lat_cross(),
            rdma_setup: default_rdma_setup(),
            rdma_mtu: default_rdma_mtu(),
        }
    }

    /// Capacity of a resource in bytes/second.
    pub fn capacity(&self, r: Resource) -> f64 {
        match r {
            Resource::Core(_) => self.core_bw,
            Resource::Cache(_) => self.cache_bw,
            Resource::Mc(_) => self.mc_bw,
            Resource::Port(_) => self.port_bw,
            Resource::BoardLink => self.board_link_bw,
            Resource::Nic(_) => self.nic_bw,
            Resource::SwitchUplink(_) => self.switch_bw,
        }
    }

    /// Distance-dependent wire latency: intra-node hops scale with the
    /// distance class, inter-node classes pay the network.
    pub fn wire_latency(&self, distance: u8) -> f64 {
        match distance {
            0..=6 => self.hop_latency * f64::from(distance),
            7 => self.net_latency_same_switch,
            _ => self.net_latency_cross_switch,
        }
    }

    /// Latency of a data operation: `base + wire`, plus the KNEM setup for
    /// kernel-assisted copies (the registration cost of an RDMA get plays
    /// the same role across nodes). Charges the default transport model;
    /// see [`Self::op_latency_for`] for the transport-pluggable variant.
    pub fn op_latency(&self, distance: u8, knem: bool) -> f64 {
        self.op_latency_for(TransportModel::Knem, distance, knem)
    }

    /// Per-transport setup cost of a one-sided operation.
    pub fn setup_latency(&self, model: TransportModel) -> f64 {
        match model {
            TransportModel::Knem => self.knem_setup,
            TransportModel::Rdma => self.rdma_setup,
        }
    }

    /// Latency of a data operation under an explicit transport model:
    /// `base + wire`, plus the model's setup cost when the operation is a
    /// one-sided transfer (`Mech::Knem` in the schedule IR). This is how
    /// plans stay distance-aware while the charged mechanism cost follows
    /// the executor's pluggable backend.
    pub fn op_latency_for(&self, model: TransportModel, distance: u8, one_sided: bool) -> f64 {
        self.base_latency
            + self.wire_latency(distance)
            + if one_sided { self.setup_latency(model) } else { 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::machines;

    #[test]
    fn per_machine_lookup() {
        assert_eq!(Calibration::for_machine(&machines::zoot()), Calibration::zoot());
        assert_eq!(Calibration::for_machine(&machines::ig()), Calibration::ig());
        assert_eq!(
            Calibration::for_machine(&machines::synthetic(1, 2, 4, true)),
            Calibration::generic()
        );
    }

    #[test]
    fn knem_crossover_vs_eager_matches_paper_statement() {
        // §IV-A: the KNEM overhead "is equivalent to a 16KB broadcast or a
        // 2KB Allgather" — i.e. the setup cost is in the microsecond range,
        // large against eager latencies, small against large-message
        // transfer times.
        let cal = Calibration::ig();
        let t_16k_at_core_bw = 16384.0 / cal.core_bw;
        assert!(cal.knem_setup > t_16k_at_core_bw * 0.5);
        let t_1m = 1_048_576.0 / cal.core_bw;
        assert!(cal.knem_setup < t_1m * 0.1, "setup negligible for 1MB transfers");
    }

    #[test]
    fn latency_is_monotone_in_distance() {
        let cal = Calibration::generic();
        for d in 0..6 {
            assert!(cal.op_latency(d, false) < cal.op_latency(d + 1, false));
            assert!(cal.op_latency(d, false) < cal.op_latency(d, true));
        }
    }

    #[test]
    fn rdma_setup_undercuts_knem_trap() {
        // The verbs path never enters the kernel on the data path, so the
        // per-op setup must sit well below the KNEM syscall+cookie cost on
        // every calibration, and the explicit-model lookup must agree with
        // the legacy KNEM-only entry point.
        for cal in [Calibration::zoot(), Calibration::ig(), Calibration::generic()] {
            assert!(cal.rdma_setup < cal.knem_setup / 2.0);
            assert!(cal.rdma_mtu > 0);
            for d in 0..9 {
                assert_eq!(
                    cal.op_latency(d, true).to_bits(),
                    cal.op_latency_for(TransportModel::Knem, d, true).to_bits()
                );
                let delta = cal.op_latency_for(TransportModel::Knem, d, true)
                    - cal.op_latency_for(TransportModel::Rdma, d, true);
                assert!((delta - (cal.knem_setup - cal.rdma_setup)).abs() < 1e-15);
                // Two-sided memcpy ops are transport-blind.
                assert_eq!(
                    cal.op_latency_for(TransportModel::Knem, d, false).to_bits(),
                    cal.op_latency_for(TransportModel::Rdma, d, false).to_bits()
                );
            }
        }
    }

    #[test]
    fn capacities_positive() {
        for cal in [Calibration::zoot(), Calibration::ig(), Calibration::generic()] {
            for r in [
                Resource::Core(0),
                Resource::Cache(0),
                Resource::Mc(0),
                Resource::Port(0),
                Resource::BoardLink,
            ] {
                assert!(cal.capacity(r) > 0.0);
            }
        }
    }
}
