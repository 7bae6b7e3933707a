//! Random schedules — moves, combines, copies overlapping themselves,
//! notifications — on 1 to 4 workers, over buffers randomly owned by the
//! run or lent read-only or writable by the caller. A schedule `lower`
//! accepts must end exactly as a sequential reference ends it; one it
//! rejects must not run at all.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use pdac_simnet::ScheduleBuilder;

const RANKS: usize = 3;
/// Every buffer is at most this many 8-byte lanes long.
const LANES: usize = 8;
const BUFS: [BufId; 3] = [BufId::Send, BufId::Recv, BufId::Temp(0)];
/// Moves weighted up; the integer combines only, so no NaN payload makes
/// two correct results differ.
const DATA_OPS: [DataOp; 7] = [
    DataOp::Move,
    DataOp::Move,
    DataOp::Move,
    DataOp::Add,
    DataOp::BorU8,
    DataOp::SumI64,
    DataOp::MaxU64,
];

/// A random schedule of up to 24 ops over 3 ranks. Dependencies are
/// random too — each earlier op with probability 1/3, the one just before
/// with 3/4, so chains are common — and many schedules still race and are
/// rejected by `lower`.
fn random_schedule(rng: &mut StdRng) -> Schedule {
    let mut b = ScheduleBuilder::new("random", RANKS);
    let ops = 1 + rng.gen_range(0..24);
    for id in 0..ops {
        let deps: Vec<usize> = (0..id)
            .filter(
                |&d| if d + 1 == id { rng.gen_range(0..4) != 0 } else { rng.gen_range(0..3) == 0 },
            )
            .collect();
        if rng.gen_range(0..7) == 0 {
            b.notify(rng.gen_range(0..RANKS), rng.gen_range(0..RANKS), &deps);
            continue;
        }
        let lanes = 1 + rng.gen_range(0..LANES - 1);
        let end = |rng: &mut StdRng| {
            let at = 8 * rng.gen_range(0..LANES - lanes + 1);
            (rng.gen_range(0..RANKS), BUFS[rng.gen_range(0..BUFS.len())], at)
        };
        let src = end(rng);
        let dst = match rng.gen_range(0..4) {
            // Within the source buffer, one lane off: overlapping itself
            // whenever the copy is longer than a lane.
            0 if src.2 + 8 * lanes < 8 * LANES => (src.0, src.1, src.2 + 8),
            0 if src.2 >= 8 => (src.0, src.1, src.2 - 8),
            _ => end(rng),
        };
        let mech = if rng.gen_range(0..2) == 0 { Mech::Knem } else { Mech::Memcpy };
        let op = DATA_OPS[rng.gen_range(0..DATA_OPS.len())];
        b.combine_with(src, dst, 8 * lanes, mech, rng.gen_range(0..RANKS), op, &deps);
    }
    b.finish()
}

/// What a buffer starts as when its owner provides the bytes.
fn initial(rank: Rank, buf: BufId, size: usize) -> Vec<u8> {
    let salt = match buf {
        BufId::Send => 0,
        BufId::Recv => 85,
        BufId::Temp(_) => 170,
    };
    (0..size)
        .map(|i| (rank as u8).wrapping_mul(37).wrapping_add(salt).wrapping_add(i as u8))
        .collect()
}

/// How the caller hands one buffer to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hand {
    Owned,
    Read,
    Write,
}

/// The schedule applied one op at a time in id order — a topological
/// order, since every dependency points backwards — each copy reading a
/// snapshot of its source, so a copy overlapping itself moves like
/// `memmove`.
fn sequential(
    schedule: &Schedule,
    mut bufs: HashMap<(Rank, BufId), Vec<u8>>,
) -> HashMap<(Rank, BufId), Vec<u8>> {
    for op in &schedule.ops {
        if let OpKind::Copy {
            src_rank,
            src_buf,
            src_off,
            dst_rank,
            dst_buf,
            dst_off,
            bytes,
            op,
            ..
        } = op.kind
        {
            let snapshot = bufs[&(src_rank, src_buf)][src_off..src_off + bytes].to_vec();
            let dst = bufs.get_mut(&(dst_rank, dst_buf)).expect("every named buffer is declared");
            apply_data_op(op, &mut dst[dst_off..dst_off + bytes], &snapshot);
        }
    }
    bufs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn random_schedules_end_as_the_sequential_reference(seed in any::<u64>(), width in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = random_schedule(&mut rng);
        let keys = schedule.bufs();
        let hands: Vec<Hand> =
            keys.iter().map(|_| [Hand::Owned, Hand::Read, Hand::Write][rng.gen_range(0..3)]).collect();
        let lends = hands.iter().any(|&h| h != Hand::Owned);
        // What the caller holds, and what each buffer starts as: the
        // caller's bytes if lent; otherwise `run` fills a send buffer
        // through `init_send` and `run_lent` leaves it zeroed, like every
        // other buffer the run owns.
        let mut held: Vec<Vec<u8>> = keys.iter().map(|&((r, b), size)| initial(r, b, size)).collect();
        let start: HashMap<(Rank, BufId), Vec<u8>> = keys
            .iter()
            .zip(&hands)
            .map(|(&((r, b), size), &hand)| {
                let bytes = match (hand, b) {
                    (Hand::Owned, BufId::Send) if !lends => initial(r, b, size),
                    (Hand::Owned, _) => vec![0; size],
                    _ => initial(r, b, size),
                };
                ((r, b), bytes)
            })
            .collect();

        let transport = TransportKind::Knem.create(None);
        let exec = ThreadExecutor { width, ..ThreadExecutor::with_transport(Arc::clone(&transport)) };
        let outcome = if lends {
            let (mut read, mut write) = (Vec::new(), Vec::new());
            for ((&(key, _), hand), bytes) in keys.iter().zip(&hands).zip(held.iter_mut()) {
                match hand {
                    Hand::Owned => {}
                    Hand::Read => read.push((key, &bytes[..])),
                    Hand::Write => write.push((key, &mut bytes[..])),
                }
            }
            exec.run_lent(&schedule, read, write)
        } else {
            exec.run(&schedule, |r, size| initial(r, BufId::Send, size))
        };

        match schedule.lower(None) {
            Err(e) => {
                prop_assert_eq!(outcome.unwrap_err(), ExecError::Schedule(e));
                prop_assert_eq!(transport.stats().registrations, 0, "a rejected schedule pulled");
                for (&((r, b), size), bytes) in keys.iter().zip(&held) {
                    prop_assert_eq!(bytes, &initial(r, b, size), "rejected, yet {:?} changed", (r, b));
                }
            }
            Ok(lowered) => {
                let result = outcome.expect("a validated schedule runs");
                let want = sequential(&schedule, start);
                for (slot, ((&(key, size), hand), bytes)) in keys.iter().zip(&hands).zip(&held).enumerate() {
                    let (r, b) = key;
                    let got = match hand {
                        Hand::Write => &bytes[..],
                        // A written read lend ran on a copy the result owns.
                        Hand::Read if lowered.written(slot) => result.buffer(r, b),
                        Hand::Read => {
                            prop_assert!(result.buffer(r, b).is_empty(), "{:?} lent yet returned", key);
                            &bytes[..]
                        }
                        Hand::Owned => result.buffer(r, b),
                    };
                    prop_assert_eq!(got, &want[&key][..], "{:?} ({:?}, width {})", key, hand, width);
                    if *hand == Hand::Read {
                        prop_assert_eq!(bytes, &initial(r, b, size), "read lend {:?} was written", key);
                    }
                }
            }
        }
    }
}
