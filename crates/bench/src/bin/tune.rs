//! Auto-tuner: generates a component decision table for a machine.
//!
//! Mirrors how Open MPI's *tuned* thresholds were produced: sweep every
//! component (sm / tuned / knemcoll) over the message sizes, pick the
//! fastest per size bin under the *worst-case* placement (the framework's
//! whole point is robustness to placement), and emit the resulting
//! `DecisionTable` as JSON next to the printed crossover summary.
//!
//! Usage: `cargo run --release -p pdac-bench --bin tune [machine]`
//! where machine is `ig` (default), `zoot` or `magny`.

use std::sync::Arc;

use pdac_bench::human_size;
use pdac_core::baseline::sm;
use pdac_core::baseline::tuned::{self, TunedConfig};
use pdac_core::framework::{Component, DecisionTable, Rule};
use pdac_core::Collective;
use pdac_core::AdaptiveColl;
use pdac_hwtopo::{machines, BindingPolicy, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::{SimConfig, SimExecutor};

fn pick_machine(name: &str) -> Machine {
    match name {
        "zoot" => machines::zoot(),
        "magny" => machines::magny_cours(),
        _ => machines::ig(),
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ig".into());
    let machine = Arc::new(pick_machine(&name));
    let n = machine.num_cores();
    let sizes: Vec<usize> = (9..=23).map(|p| 1usize << p).collect();
    let placements = [BindingPolicy::Contiguous, BindingPolicy::CrossSocket];
    let tuned_cfg = TunedConfig::default();
    let coll = AdaptiveColl::default();

    // Worst-case (over placements) time of one component at one size.
    let worst_time = |build: &dyn Fn(&Communicator, usize) -> pdac_simnet::Schedule,
                      size: usize| {
        placements
            .iter()
            .map(|p| {
                let binding = p.bind(&machine, n).expect("binding fits");
                let comm = Communicator::world(Arc::clone(&machine), binding.clone());
                SimExecutor::new(&machine, &binding, SimConfig { allow_cache: false })
                    .run(&build(&comm, size))
                    .expect("schedule validates")
                    .total_time
            })
            .fold(0.0f64, f64::max)
    };

    let mut rules: Vec<Rule> = Vec::new();
    for (collective, label) in [(Collective::Bcast, "Bcast"), (Collective::Allgather, "Allgather")] {
        println!("# {label} on {} ({} ranks), worst-case placement, time in us", machine.name, n);
        println!("{:>10} {:>12} {:>12} {:>12}  {:>9}", "size", "sm", "tuned", "knemcoll", "winner");
        let mut winners: Vec<(usize, Component)> = Vec::new();
        for &size in &sizes {
            // Above 256K the sm component's 8K-fragment schedules explode in
            // op count (and it has long lost by then); disqualify it instead
            // of simulating millions of bounce copies.
            let sm_viable = size <= 256 << 10;
            let candidates: Vec<(Component, f64)> = match collective {
                Collective::Bcast => vec![
                    (
                        Component::Sm,
                        if sm_viable {
                            worst_time(&|c, s| sm::bcast(c.size(), 0, s), size)
                        } else {
                            f64::INFINITY
                        },
                    ),
                    (Component::Tuned, worst_time(&|c, s| tuned::bcast(c.size(), 0, s, &tuned_cfg), size)),
                    (Component::KnemColl, worst_time(&|c, s| coll.bcast(c, 0, s), size)),
                ],
                Collective::Allgather => vec![
                    (
                        Component::Sm,
                        if sm_viable {
                            worst_time(&|c, s| sm::allgather(c.size(), s), size)
                        } else {
                            f64::INFINITY
                        },
                    ),
                    (Component::Tuned, worst_time(&|c, s| tuned::allgather(c.size(), s, &tuned_cfg), size)),
                    (Component::KnemColl, worst_time(&|c, s| coll.allgather(c, s), size)),
                ],
                other => unreachable!("{other:?} has no sm/tuned component to tune against"),
            };
            let &(winner, _) = candidates
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("three candidates");
            winners.push((size, winner));
            println!(
                "{:>10} {:>12.1} {:>12.1} {:>12.1}  {:>9}",
                human_size(size),
                candidates[0].1 * 1e6,
                candidates[1].1 * 1e6,
                candidates[2].1 * 1e6,
                format!("{winner:?}"),
            );
        }
        // Compress consecutive same-winner bins into rules.
        let mut i = 0;
        while i < winners.len() {
            let component = winners[i].1;
            let mut j = i;
            while j + 1 < winners.len() && winners[j + 1].1 == component {
                j += 1;
            }
            let max_bytes = if j + 1 == winners.len() { usize::MAX } else { winners[j].0 };
            rules.push(Rule { collective, max_bytes, component });
            i = j + 1;
        }
        println!();
    }

    let table = DecisionTable { rules };
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/decision_table_{}.json", machine.name);
    std::fs::write(&path, serde_json::to_string_pretty(&table).expect("table serializes"))
        .expect("write table");
    println!("rules:");
    for r in &table.rules {
        let bound = if r.max_bytes == usize::MAX {
            "..".to_string()
        } else {
            format!("<= {}", human_size(r.max_bytes))
        };
        println!("  {:?} {bound:>10} -> {:?}", r.collective, r.component);
    }
    println!("\nwrote {path}");
}
