//! Golden digests of whole [`Schedule`]s: how a schedule is stored and how
//! its builders allocate may be rewritten freely, but every planner and
//! baseline entry point must keep emitting the same ops, the same
//! dependency lists in the same order, and the same buffer sizes. The
//! digests were recorded at the commit before the dependency arena (PR 24)
//! and must never be re-recorded by a change that claims to leave schedules
//! alone.

use std::sync::Arc;

use pdac_core::baseline::{allgather, bcast, mpich, sm, tuned};
use pdac_core::{AdaptiveColl, AllreduceAlgo, Collective, Request, Sinks};
use pdac_hwtopo::{cluster, machines, BindingPolicy};
use pdac_mpisim::p2p::P2pConfig;
use pdac_mpisim::Communicator;
use pdac_simnet::{BufId, OpKind, Schedule};

fn buf_word(b: BufId) -> u64 {
    match b {
        BufId::Send => 0,
        BufId::Recv => 1,
        BufId::Temp(i) => 2 + u64::from(i),
    }
}

/// FNV-1a (one round per 64-bit word) over everything a schedule is: name,
/// rank count, every op's kind fields and dependency list, every buffer
/// size.
fn digest(s: &Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    s.name.bytes().for_each(|b| eat(u64::from(b)));
    eat(s.num_ranks as u64);
    eat(s.ops.len() as u64);
    for (id, op) in s.ops.iter().enumerate() {
        match op.kind {
            OpKind::Copy {
                src_rank,
                src_buf,
                src_off,
                dst_rank,
                dst_buf,
                dst_off,
                bytes,
                mech,
                exec,
                op,
            } => {
                for x in [
                    1,
                    src_rank as u64,
                    buf_word(src_buf),
                    src_off as u64,
                    dst_rank as u64,
                    buf_word(dst_buf),
                    dst_off as u64,
                    bytes as u64,
                    mech as u64,
                    exec as u64,
                    op as u64,
                ] {
                    eat(x);
                }
            }
            OpKind::Notify { from, to } => {
                for x in [2, from as u64, to as u64] {
                    eat(x);
                }
            }
        }
        let deps = s.deps(id);
        eat(deps.len() as u64);
        deps.iter().for_each(|&d| eat(d as u64));
    }
    for &((rank, buf), size) in s.bufs() {
        for x in [rank as u64, buf_word(buf), size as u64] {
            eat(x);
        }
    }
    h
}

/// Every `(case name, digest)` of the matrix, in a fixed order.
fn all_digests() -> Vec<(String, u64)> {
    let ig = machines::ig();
    let comms = [
        ("zoot16/xsock", Arc::new(machines::zoot()), BindingPolicy::CrossSocket, 16),
        ("ig48/rand3", Arc::new(ig.clone()), BindingPolicy::Random { seed: 3 }, 48),
        (
            "igx2-96/xnode",
            Arc::new(cluster::homogeneous("ig-x2", &ig, 2, 2).unwrap()),
            BindingPolicy::CrossNode,
            96,
        ),
    ];
    let coll = AdaptiveColl;
    let p2p = P2pConfig::default();
    let mut out = Vec::new();
    for (label, machine, policy, n) in comms {
        let binding = policy.bind(&machine, n).unwrap();
        let comm = Communicator::world(machine, binding);
        let root = n / 3;
        for (size_label, bytes) in [("4K", 4usize << 10), ("64K", 64 << 10), ("1M", 1 << 20)] {
            let mut case = |name: &str, s: Schedule| {
                s.validate().unwrap_or_else(|e| panic!("{label}/{name}/{size_label}: {e}"));
                out.push((format!("{label}/{name}/{size_label}"), digest(&s)));
            };
            for c in Collective::ALL {
                let request = Request::new(c, root, bytes);
                case(c.label(), coll.plan(&comm, request, Sinks::default()));
            }
            let ring = Request {
                allreduce: AllreduceAlgo::Ring,
                ..Request::new(Collective::Allreduce, 0, bytes / n * n)
            };
            case("allreduce_ring", coll.plan(&comm, ring, Sinks::default()));
            case("binomial", bcast::binomial(n, root, bytes, &p2p));
            case("chain", bcast::chain(n, root, bytes, &p2p, 128 << 10));
            case("binary", bcast::binary(n, root, bytes, &p2p, 32 << 10));
            case("ring_allgather", allgather::ring(n, bytes, &p2p));
            if n.is_power_of_two() {
                case("recdbl_allgather", allgather::recursive_doubling(n, bytes, &p2p));
            }
            case("mpich_bcast", mpich::bcast(n, root, bytes));
            case("sm_bcast", sm::bcast(n, root, bytes));
            // 8 KiB fragments, each waiting on every fragment of the block
            // before it: at 1 MiB blocks that is millions of ops.
            if bytes <= 64 << 10 {
                case("sm_allgather", sm::allgather(n, bytes));
            }
            case("tuned_bcast", tuned::bcast(n, root, bytes, &p2p));
            case("tuned_allgather", tuned::allgather(n, bytes, &p2p));
        }
    }
    out
}

#[test]
fn schedules_are_identical_to_the_recorded_digests() {
    let got = all_digests();
    let same = got.len() == WANT.len()
        && got
            .iter()
            .zip(WANT)
            .all(|((name, h), &(want_name, want))| name == want_name && *h == want);
    if !same {
        let table: String =
            got.iter().map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n")).collect();
        let moved: Vec<&str> = got
            .iter()
            .zip(WANT)
            .filter(|((name, h), &(want_name, want))| name != want_name || *h != want)
            .map(|((name, _), _)| name.as_str())
            .collect();
        panic!("schedules moved: {moved:?}\nthis build emits:\n{table}");
    }
}

const WANT: &[(&str, u64)] = &[
    ("zoot16/xsock/bcast/4K", 0x049d6e7b5086ba7b),
    ("zoot16/xsock/allgather/4K", 0x0443b6069e1cc2d1),
    ("zoot16/xsock/allreduce/4K", 0x1dbd5a153aae0e1a),
    ("zoot16/xsock/reduce/4K", 0x1f5d64ffb25e5d44),
    ("zoot16/xsock/reduce_scatter/4K", 0x15dad2a98a7f3a4c),
    ("zoot16/xsock/gather/4K", 0x2796cf3f70eaf264),
    ("zoot16/xsock/scatter/4K", 0x64a741a81cc7d8b4),
    ("zoot16/xsock/alltoall/4K", 0xc7072ca13116303e),
    ("zoot16/xsock/barrier/4K", 0x8836de0c3b46ec02),
    ("zoot16/xsock/allreduce_ring/4K", 0x30c51f40f55247ec),
    ("zoot16/xsock/binomial/4K", 0xe5504ccd868a7d82),
    ("zoot16/xsock/chain/4K", 0xd96ca3633ccddde8),
    ("zoot16/xsock/binary/4K", 0x9ab451ca1204160f),
    ("zoot16/xsock/ring_allgather/4K", 0x263f6cd1055fc746),
    ("zoot16/xsock/recdbl_allgather/4K", 0x03f818cee6bcf32c),
    ("zoot16/xsock/mpich_bcast/4K", 0x62da9461bab78402),
    ("zoot16/xsock/sm_bcast/4K", 0x67c28acf3c904fa9),
    ("zoot16/xsock/sm_allgather/4K", 0x57dd5b35b35b5d30),
    ("zoot16/xsock/tuned_bcast/4K", 0x8f6b9f95768d393f),
    ("zoot16/xsock/tuned_allgather/4K", 0x3f266695a84b435c),
    ("zoot16/xsock/bcast/64K", 0x99ce521c5a247128),
    ("zoot16/xsock/allgather/64K", 0x7c7b7269fa9982d1),
    ("zoot16/xsock/allreduce/64K", 0xad1dc3768ab3ee1a),
    ("zoot16/xsock/reduce/64K", 0x6d77d71b21cf8d44),
    ("zoot16/xsock/reduce_scatter/64K", 0x85f60159ce3f7a4c),
    ("zoot16/xsock/gather/64K", 0x997415803885d264),
    ("zoot16/xsock/scatter/64K", 0x6a2b0821ec3218b4),
    ("zoot16/xsock/alltoall/64K", 0x5e818b9570bbd03e),
    ("zoot16/xsock/barrier/64K", 0x8836de0c3b46ec02),
    ("zoot16/xsock/allreduce_ring/64K", 0x31c537b195decdec),
    ("zoot16/xsock/binomial/64K", 0xe971fa1cc90a7bfc),
    ("zoot16/xsock/chain/64K", 0x4a18605af150f785),
    ("zoot16/xsock/binary/64K", 0x109d9374433f008e),
    ("zoot16/xsock/ring_allgather/64K", 0xe178578853d23646),
    ("zoot16/xsock/recdbl_allgather/64K", 0x09065c97d66c362c),
    ("zoot16/xsock/mpich_bcast/64K", 0x5dcd91a4cb799740),
    ("zoot16/xsock/sm_bcast/64K", 0xbd4aa40731d267f0),
    ("zoot16/xsock/sm_allgather/64K", 0x4e664d3e4eb36cd0),
    ("zoot16/xsock/tuned_bcast/64K", 0xaf2eb51d7b3cee35),
    ("zoot16/xsock/tuned_allgather/64K", 0xec1f2e96fba2a0b6),
    ("zoot16/xsock/bcast/1M", 0x6577c9bf2552255b),
    ("zoot16/xsock/allgather/1M", 0x2da3520ab082eca7),
    ("zoot16/xsock/allreduce/1M", 0x8b56bee53a31c9c0),
    ("zoot16/xsock/reduce/1M", 0x8299252652d08d44),
    ("zoot16/xsock/reduce_scatter/1M", 0x110962f25b3f7a4c),
    ("zoot16/xsock/gather/1M", 0xea403a3be169d264),
    ("zoot16/xsock/scatter/1M", 0x1af3b276a24018b4),
    ("zoot16/xsock/alltoall/1M", 0xfe0ed8e12a6fd03e),
    ("zoot16/xsock/barrier/1M", 0x8836de0c3b46ec02),
    ("zoot16/xsock/allreduce_ring/1M", 0x5102ac7c323f4dec),
    ("zoot16/xsock/binomial/1M", 0xd1645a975bf57bfc),
    ("zoot16/xsock/chain/1M", 0x7d3f1fd7f7c504df),
    ("zoot16/xsock/binary/1M", 0x81c90e723812e8e9),
    ("zoot16/xsock/ring_allgather/1M", 0x6194b92353e43646),
    ("zoot16/xsock/recdbl_allgather/1M", 0xba15b624c57c362c),
    ("zoot16/xsock/mpich_bcast/1M", 0x092b4d681e815d28),
    ("zoot16/xsock/sm_bcast/1M", 0x7a6a02daf9a9a788),
    ("zoot16/xsock/tuned_bcast/1M", 0x6a7c42af3f8afa1a),
    ("zoot16/xsock/tuned_allgather/1M", 0x482719dd4e20a0b6),
    ("ig48/rand3/bcast/4K", 0x345300e90db91f46),
    ("ig48/rand3/allgather/4K", 0x010656403b7f4969),
    ("ig48/rand3/allreduce/4K", 0x3f0ca1e3b98bc239),
    ("ig48/rand3/reduce/4K", 0x7827725ee2ec0096),
    ("ig48/rand3/reduce_scatter/4K", 0xe522e699649486d4),
    ("ig48/rand3/gather/4K", 0xa37abc9f20519567),
    ("ig48/rand3/scatter/4K", 0xffbde2b64cc99549),
    ("ig48/rand3/alltoall/4K", 0x3d45d5c6ad147d8e),
    ("ig48/rand3/barrier/4K", 0xcd50435bfa62dabd),
    ("ig48/rand3/allreduce_ring/4K", 0x3ee2a145e1b393f4),
    ("ig48/rand3/binomial/4K", 0x8bbe8eb87d70f1af),
    ("ig48/rand3/chain/4K", 0x399bc282a5719223),
    ("ig48/rand3/binary/4K", 0x3c043f2030ab4f4c),
    ("ig48/rand3/ring_allgather/4K", 0x0aa98e3e8c39b366),
    ("ig48/rand3/mpich_bcast/4K", 0x1ebb49931ea8b42f),
    ("ig48/rand3/sm_bcast/4K", 0xe809a3fbad6eac00),
    ("ig48/rand3/sm_allgather/4K", 0xd5d94d2ab9b23c10),
    ("ig48/rand3/tuned_bcast/4K", 0x8147204c458f85da),
    ("ig48/rand3/tuned_allgather/4K", 0x8e9bc0cf720e0f16),
    ("ig48/rand3/bcast/64K", 0x60ebba88d4f16f46),
    ("ig48/rand3/allgather/64K", 0xf41ea64278fa8969),
    ("ig48/rand3/allreduce/64K", 0xb1bc4690b92e0239),
    ("ig48/rand3/reduce/64K", 0xd7908bccf13a3096),
    ("ig48/rand3/reduce_scatter/64K", 0x52024bf07930a6d4),
    ("ig48/rand3/gather/64K", 0xbe05f6eaf32e3567),
    ("ig48/rand3/scatter/64K", 0x9c094a68044cf549),
    ("ig48/rand3/alltoall/64K", 0x5178bc7c96843d8e),
    ("ig48/rand3/barrier/64K", 0xcd50435bfa62dabd),
    ("ig48/rand3/allreduce_ring/64K", 0xf63d8f62253ecff4),
    ("ig48/rand3/binomial/64K", 0x869f6fbe6fc169dc),
    ("ig48/rand3/chain/64K", 0x9b51cbca3118063a),
    ("ig48/rand3/binary/64K", 0x40c4f9582ade313e),
    ("ig48/rand3/ring_allgather/64K", 0xe5caf92c042fb026),
    ("ig48/rand3/mpich_bcast/64K", 0xd945113e2799f62f),
    ("ig48/rand3/sm_bcast/64K", 0x6947ad0a0503fe22),
    ("ig48/rand3/sm_allgather/64K", 0xbf8e1021227baab0),
    ("ig48/rand3/tuned_bcast/64K", 0xc1b779f577dc4df1),
    ("ig48/rand3/tuned_allgather/64K", 0xcd7f262d7843eb56),
    ("ig48/rand3/bcast/1M", 0x8116f113a5949d56),
    ("ig48/rand3/allgather/1M", 0x68c37788af190737),
    ("ig48/rand3/allreduce/1M", 0x56626ce2d6f21142),
    ("ig48/rand3/reduce/1M", 0x864628b563d93096),
    ("ig48/rand3/reduce_scatter/1M", 0xac33375ab60aa6d4),
    ("ig48/rand3/gather/1M", 0x8f824e39f3dc3567),
    ("ig48/rand3/scatter/1M", 0x2381e4b93e42f549),
    ("ig48/rand3/alltoall/1M", 0x25996309acc03d8e),
    ("ig48/rand3/barrier/1M", 0xcd50435bfa62dabd),
    ("ig48/rand3/allreduce_ring/1M", 0x9342a10440394ff4),
    ("ig48/rand3/binomial/1M", 0x96932afc2fe669dc),
    ("ig48/rand3/chain/1M", 0xf19d4009750e471d),
    ("ig48/rand3/binary/1M", 0xb39d52d90aebed97),
    ("ig48/rand3/ring_allgather/1M", 0x2c7a91806be1b026),
    ("ig48/rand3/mpich_bcast/1M", 0x98b132dbf248c2c7),
    ("ig48/rand3/sm_bcast/1M", 0x4f57cc9e3d149eba),
    ("ig48/rand3/tuned_bcast/1M", 0xd93675b538fa243c),
    ("ig48/rand3/tuned_allgather/1M", 0xf78eeede0c61eb56),
    ("igx2-96/xnode/bcast/4K", 0x79b6a1739ff3253b),
    ("igx2-96/xnode/allgather/4K", 0x0368035bfcbba651),
    ("igx2-96/xnode/allreduce/4K", 0xa64fcec0059c9ae9),
    ("igx2-96/xnode/reduce/4K", 0x41a4c7d9e2f4aaf2),
    ("igx2-96/xnode/reduce_scatter/4K", 0x39216fc3f10f7634),
    ("igx2-96/xnode/gather/4K", 0xc87edae3ffb6a127),
    ("igx2-96/xnode/scatter/4K", 0x0e32a6f06a1c4b39),
    ("igx2-96/xnode/alltoall/4K", 0x36f74135b8a4c36e),
    ("igx2-96/xnode/barrier/4K", 0x67d4ed4c03ca0ad7),
    ("igx2-96/xnode/allreduce_ring/4K", 0x7f01a32ce67347f0),
    ("igx2-96/xnode/binomial/4K", 0xf2eea2ce85ea14ea),
    ("igx2-96/xnode/chain/4K", 0x3970653e5ca3cd23),
    ("igx2-96/xnode/binary/4K", 0xb5310d308146ee74),
    ("igx2-96/xnode/ring_allgather/4K", 0x5977723472950f16),
    ("igx2-96/xnode/mpich_bcast/4K", 0x4f868f83e38c9c6a),
    ("igx2-96/xnode/sm_bcast/4K", 0x7f51c9552106d213),
    ("igx2-96/xnode/sm_allgather/4K", 0xca9adc57e8b62fc0),
    ("igx2-96/xnode/tuned_bcast/4K", 0x88d9817e6838abe5),
    ("igx2-96/xnode/tuned_allgather/4K", 0x6674183920e965c6),
    ("igx2-96/xnode/bcast/64K", 0x378660aa6892b53b),
    ("igx2-96/xnode/allgather/64K", 0x93a2753b1671c651),
    ("igx2-96/xnode/allreduce/64K", 0xa25e6b3a32a87ae9),
    ("igx2-96/xnode/reduce/64K", 0xa580cbdfa479faf2),
    ("igx2-96/xnode/reduce_scatter/64K", 0x8cda0d1a7d0f1634),
    ("igx2-96/xnode/gather/64K", 0xb7157298c4ffe127),
    ("igx2-96/xnode/scatter/64K", 0x11df270e2b186b39),
    ("igx2-96/xnode/alltoall/64K", 0x9249a2feda92636e),
    ("igx2-96/xnode/barrier/64K", 0x67d4ed4c03ca0ad7),
    ("igx2-96/xnode/allreduce_ring/64K", 0x5fe734b8488e91f0),
    ("igx2-96/xnode/binomial/64K", 0x32d76bd83c19ce74),
    ("igx2-96/xnode/chain/64K", 0xe3b13f2ec619e33a),
    ("igx2-96/xnode/binary/64K", 0xaee5978ff2455f3e),
    ("igx2-96/xnode/ring_allgather/64K", 0xb0f51673620146d6),
    ("igx2-96/xnode/mpich_bcast/64K", 0x2d33e6a132ecdcdf),
    ("igx2-96/xnode/sm_bcast/64K", 0x4e82220cfbc4d502),
    ("igx2-96/xnode/sm_allgather/64K", 0x0368a52211dc93c0),
    ("igx2-96/xnode/tuned_bcast/64K", 0x717e5971fa778cd1),
    ("igx2-96/xnode/tuned_allgather/64K", 0x2c40f4b8da1af346),
    ("igx2-96/xnode/bcast/1M", 0x7e0f68cc0d0df5be),
    ("igx2-96/xnode/allgather/1M", 0x58edc2e7b07d87d7),
    ("igx2-96/xnode/allreduce/1M", 0x1a855d363179105e),
    ("igx2-96/xnode/reduce/1M", 0x26927536b96afaf2),
    ("igx2-96/xnode/reduce_scatter/1M", 0x986fe1596d311634),
    ("igx2-96/xnode/gather/1M", 0xb6f5a6a733e1e127),
    ("igx2-96/xnode/scatter/1M", 0x2802690bc9066b39),
    ("igx2-96/xnode/alltoall/1M", 0x2a294da68cda636e),
    ("igx2-96/xnode/barrier/1M", 0x67d4ed4c03ca0ad7),
    ("igx2-96/xnode/allreduce_ring/1M", 0xdb53d6c0fe27c1f0),
    ("igx2-96/xnode/binomial/1M", 0x84004653ff10ce74),
    ("igx2-96/xnode/chain/1M", 0x283a3ffdeb6c47ad),
    ("igx2-96/xnode/binary/1M", 0x64a4f78f4f0c7727),
    ("igx2-96/xnode/ring_allgather/1M", 0x14ccf3c1e00d46d6),
    ("igx2-96/xnode/mpich_bcast/1M", 0xb50ec77d5c633537),
    ("igx2-96/xnode/sm_bcast/1M", 0xcec29a5f73fde1ea),
    ("igx2-96/xnode/tuned_bcast/1M", 0xb52eeea9007c549c),
    ("igx2-96/xnode/tuned_allgather/1M", 0xac05ef35cc02f346),
];
