//! Golden digests of whole [`SimReport`]s: the rate solver and the event
//! loop may be rewritten freely, but every simulated number must come out
//! bit for bit. The digests were recorded before the incremental solver was
//! replaced by the flat one (PR 19) and must never be re-recorded by a change
//! that claims to leave timing alone. The digest is `SimReport::digest`,
//! which also pins the 44 gate scenarios in `results/gate.txt`.

use std::sync::Arc;

use pdac_core::AdaptiveColl;
use pdac_hwtopo::{cluster, machines, BindingPolicy, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::{FaultPlan, Resource, SimConfig, SimExecutor, TransportModel};

#[derive(Clone, Copy)]
enum Coll {
    Bcast,
    Allgather,
}

struct Case {
    name: &'static str,
    machine: Arc<Machine>,
    ranks: usize,
    policy: BindingPolicy,
    coll: Coll,
    bytes: usize,
    allow_cache: bool,
    transport: TransportModel,
    fault: Option<FaultPlan>,
    want: u64,
}

fn run(case: &Case) -> u64 {
    let binding = case.policy.bind(&case.machine, case.ranks).unwrap();
    let comm = Communicator::world(Arc::clone(&case.machine), binding);
    let coll = AdaptiveColl;
    let schedule = match case.coll {
        Coll::Bcast => coll.bcast(&comm, 0, case.bytes),
        Coll::Allgather => coll.allgather(&comm, case.bytes),
    };
    let config = SimConfig { allow_cache: case.allow_cache };
    let mut exec = SimExecutor::new(&case.machine, comm.binding(), config)
        .with_transport_model(case.transport);
    if let Some(plan) = &case.fault {
        exec = exec.with_fault_plan(plan.clone());
    }
    exec.run(&schedule).unwrap().digest()
}

#[test]
fn reports_are_bit_identical_to_the_recorded_digests() {
    use BindingPolicy::{Contiguous, CrossNode, CrossSocket};
    let ig = Arc::new(machines::ig());
    let igx2 = Arc::new(cluster::homogeneous("ig-x2", &machines::ig(), 2, 2).unwrap());
    let case = |name, policy, coll, bytes, allow_cache, want| Case {
        name,
        machine: Arc::clone(&ig),
        ranks: 48,
        policy,
        coll,
        bytes,
        allow_cache,
        transport: TransportModel::Knem,
        fault: None,
        want,
    };
    let cases = [
        case(
            "ig48/bcast/contig/1M/cache",
            Contiguous,
            Coll::Bcast,
            1 << 20,
            true,
            0xf7fd_f23a_3980_3572,
        ),
        case(
            "ig48/bcast/contig/1M/offcache",
            Contiguous,
            Coll::Bcast,
            1 << 20,
            false,
            0xe6b5_927d_d259_36b3,
        ),
        case(
            "ig48/bcast/xsock/1M/cache",
            CrossSocket,
            Coll::Bcast,
            1 << 20,
            true,
            0x6c1b_94f7_b3c7_be6e,
        ),
        case(
            "ig48/bcast/xsock/1M/offcache",
            CrossSocket,
            Coll::Bcast,
            1 << 20,
            false,
            0xec57_10ef_27d9_cabf,
        ),
        case(
            "ig48/allgather/contig/64K/cache",
            Contiguous,
            Coll::Allgather,
            64 << 10,
            true,
            0x73b3_095e_bcff_211f,
        ),
        case(
            "ig48/allgather/contig/64K/offcache",
            Contiguous,
            Coll::Allgather,
            64 << 10,
            false,
            0xe800_4301_14ce_1cd3,
        ),
        case(
            "ig48/allgather/xsock/64K/cache",
            CrossSocket,
            Coll::Allgather,
            64 << 10,
            true,
            0x75b6_2157_a4a7_3933,
        ),
        case(
            "ig48/allgather/xsock/64K/offcache",
            CrossSocket,
            Coll::Allgather,
            64 << 10,
            false,
            0x4de1_40b5_217f_4067,
        ),
        Case {
            transport: TransportModel::Rdma,
            ..case(
                "ig48/bcast/xsock/1M/rdma",
                CrossSocket,
                Coll::Bcast,
                1 << 20,
                true,
                0x2c02_0843_04fc_264b,
            )
        },
        Case {
            fault: Some(
                FaultPlan::new(19)
                    .degrade_link(Resource::Mc(2), 0.4)
                    .degrade_link(Resource::BoardLink, 0.5),
            ),
            ..case(
                "ig48/allgather/xsock/64K/degraded",
                CrossSocket,
                Coll::Allgather,
                64 << 10,
                false,
                0xc7db_377f_c751_b0ac,
            )
        },
        Case {
            machine: igx2,
            ranks: 96,
            ..case(
                "ig-x2x96/allgather/xnode/16K",
                CrossNode,
                Coll::Allgather,
                16 << 10,
                true,
                0xcf04_9103_67e3_3b7a,
            )
        },
    ];
    let got: Vec<u64> = cases.iter().map(run).collect();
    for (case, got) in cases.iter().zip(&got) {
        println!("{:<40} {got:#018x}", case.name);
    }
    for (case, got) in cases.iter().zip(&got) {
        assert_eq!(*got, case.want, "{}: report digest moved", case.name);
    }
}
