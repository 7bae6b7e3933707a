use pdac_core::baseline::bcast;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::p2p::P2pConfig;
use pdac_simnet::{OpKind, SimConfig, SimExecutor};

fn main() {
    let ig = machines::ig();
    for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
        let binding = policy.bind(&ig, 48).unwrap();
        let s = bcast::binary(48, 0, 8192, &P2pConfig::default(), 32768);
        let rep =
            SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false }).run(&s).unwrap();
        println!("== {policy:?} total {:.1}us", rep.total_time * 1e6);
        // find last finishing copy and walk its dep chain
        let mut worst = 0usize;
        for (i, op) in s.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::Copy { .. }) && rep.op_finish[i] > rep.op_finish[worst] {
                worst = i;
            }
        }
        let mut cur = worst;
        loop {
            let op = &s.ops[cur];
            let desc = match &op.kind {
                OpKind::Copy { src_rank, dst_rank, .. } => format!("copy {src_rank}->{dst_rank}"),
                OpKind::Notify { from, to } => format!("ntfy {from}->{to}"),
            };
            println!("  op{cur:4} fin {:7.2}us  {desc}", rep.op_finish[cur] * 1e6);
            // follow latest-finishing dep
            match s
                .deps(cur)
                .iter()
                .max_by(|&&a, &&b| rep.op_finish[a].total_cmp(&rep.op_finish[b]))
            {
                Some(&d) => cur = d,
                None => break,
            }
        }
    }
}
