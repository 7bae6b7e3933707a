//! End-to-end payload integrity: per-chunk checksums and seed-driven
//! corruption injection.
//!
//! The executor stamps every staged chunk with a checksum computed over the
//! *source* bytes at `tx` time (while it still holds the source lock, in the
//! pass that copies them to staging: [`copy_stamped`]) and verifies the
//! staged copy at completion ([`checksum`]), just before the combine into the
//! destination. Anything that mutates the bytes in between — the modeled
//! "wire" — is detected, whichever [`crate::Transport`] backend resolved
//! the source: the checksum brackets the transfer itself, so KNEM pulls and
//! RDMA reads are covered by the same invariant.
//!
//! A verification failure is retryable: the executor re-pulls and re-stages
//! the chunk under the existing [`crate::RetryPolicy`] (a *verified
//! re-transmit*), and only when every attempt arrives corrupt does it raise
//! the typed [`crate::ExecError::Corrupt`] that feeds the failure detector
//! and, in the chaos harness, the membership pipeline — a persistent
//! corrupter is fenced exactly like a crashed rank.
//!
//! Corruption is injected deterministically from plan seeds: the fault
//! plan's [`CorruptionKind`] says what damage, [`corrupt_payload`] applies
//! it; there is no ambient entropy anywhere on this path.

use pdac_simnet::{CorruptionKind, Rank};

/// Words per stripe: each lane folds every `LANES`-th word of the payload.
const LANES: usize = 8;
/// Bytes per stripe, one word per lane.
const STRIPE: usize = 8 * LANES;
/// Initial state of the tail chain and base of the lane seeds (the FNV-1a
/// offset basis).
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd, dense multiplier of the lane step (2^64 / golden ratio).
const MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds word `w` into state `h`: fold, multiply, rotate.
///
/// A bijection of `h` for fixed `w` and of `w` for fixed `h` (`w ^ (w >> 32)`
/// is invertible, the multiplier is odd, a rotation permutes bits), so a
/// change confined to one word always changes the state. The fold — off the
/// dependency chain — gives every input bit an image in the low half, whose
/// product difference spreads over many state bits before the lane's next
/// word arrives; DESIGN §16 has the argument and what it does not cover.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w ^ (w >> 32)).wrapping_mul(MULT).rotate_left(29)
}

/// Per-lane seeds, so that equal words in different lanes leave different
/// states and swapping two lanes' contents changes the digest.
fn lane_seeds() -> [u64; LANES] {
    std::array::from_fn(|i| OFFSET_BASIS ^ MULT.wrapping_mul(i as u64 + 1))
}

/// Folds one stripe into the lane states, lane `i` taking word `i`.
#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], stripe: &[u8; STRIPE]) {
    let (words, _) = stripe.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = step(*lane, u64::from_le_bytes(*word));
    }
}

/// Chains the sub-stripe `rest` (zero-padded to whole words; `len` tells a
/// padded zero from a real one) and then the lane states into one word, and
/// mixes it so that every state bit reaches every digest bit.
fn finish(lanes: &[u64; LANES], rest: &[u8], len: usize) -> u64 {
    let mut h = OFFSET_BASIS ^ (len as u64);
    for word in rest.chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        h = step(h, u64::from_le_bytes(padded));
    }
    for lane in lanes {
        h = step(h, *lane);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Checksum of `data`: eight interleaved fold-multiply-rotate lanes over
/// 64-byte stripes, chained with the rest and the length, then mixed.
///
/// The eight lane chains are independent, so the multiplies overlap and the
/// digest runs at copy speed rather than at one multiply latency per word —
/// cheap enough to run twice per staged chunk. Every step is a bijection, so
/// any change confined to one aligned word is always detected; it is not
/// cryptographic and gives no CRC-style burst guarantee (DESIGN §16).
pub fn checksum(data: &[u8]) -> u64 {
    let mut lanes = lane_seeds();
    let (stripes, rest) = data.as_chunks::<STRIPE>();
    for stripe in stripes {
        absorb(&mut lanes, stripe);
    }
    finish(&lanes, rest, data.len())
}

/// Copies `src` into `dst` and returns `checksum(src)`, reading `src` once.
///
/// # Panics
/// With "copy_stamped: source and destination lengths differ" when
/// `dst.len() != src.len()`.
pub fn copy_stamped(dst: &mut [u8], src: &[u8]) -> u64 {
    assert_eq!(dst.len(), src.len(), "copy_stamped: source and destination lengths differ");
    let mut lanes = lane_seeds();
    let (stripes, rest) = src.as_chunks::<STRIPE>();
    let (dst_stripes, dst_rest) = dst.as_chunks_mut::<STRIPE>();
    for (out, stripe) in dst_stripes.iter_mut().zip(stripes) {
        *out = *stripe;
        absorb(&mut lanes, stripe);
    }
    dst_rest.copy_from_slice(rest);
    finish(&lanes, rest, src.len())
}

/// One run's checksum counters: the four checksum fields of the run's
/// `FaultStats`, under the names `ExecResult::integrity_stats` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Chunks stamped with a source checksum at `tx` time.
    pub stamped: u64,
    /// Staged chunks whose checksum verified clean at completion.
    pub verified: u64,
    /// Checksum mismatches detected (each one is a corruption that did
    /// *not* reach the destination buffer).
    pub corrupt_detected: u64,
    /// Verified re-transmits: re-pull + re-stage cycles triggered by a
    /// detected corruption.
    pub retransmits: u64,
}

/// Applies `kind` to a staged chunk, deterministically for a given
/// `(seed, rank, op)`. Empty chunks are left alone (there are no bytes to
/// corrupt, and none to deliver either).
pub fn corrupt_payload(kind: CorruptionKind, data: &mut [u8], seed: u64, rank: Rank, op: u64) {
    if data.is_empty() {
        return;
    }
    // One splitmix-style draw keys every pattern below; no ambient entropy.
    let key = (seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(op.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    match kind {
        CorruptionKind::FlipBits { mask } => {
            let mask = if mask == 0 { 0xA5 } else { mask };
            // On chunks shorter than eight bytes, fold the high mask bytes
            // down so the flip never wraps onto itself and cancels.
            let n = data.len().min(8);
            let mut bytes = mask.to_le_bytes();
            for i in n..8 {
                bytes[i % n] ^= bytes[i];
            }
            if bytes[..n].iter().all(|b| *b == 0) {
                bytes[0] = 0xA5;
            }
            let start = (key as usize) % data.len();
            for (i, b) in bytes[..n].iter().enumerate() {
                data[(start + i) % data.len()] ^= *b;
            }
        }
        CorruptionKind::TornWrite => {
            let torn_from = data.len() / 2;
            for (i, b) in data[torn_from..].iter_mut().enumerate() {
                *b = key.rotate_left(((i % 8) * 8) as u32) as u8 ^ (i as u8);
            }
            // The residue could coincide with the original bytes; a bit-not
            // of the first torn byte makes the tear unconditionally visible.
            data[torn_from] = !data[torn_from];
        }
        CorruptionKind::StaleRead => {
            let first = data[0];
            for (i, b) in data.iter_mut().enumerate() {
                *b = key.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i as u64) as u8;
            }
            if data[0] == first {
                data[0] = !first;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checksum_is_deterministic_and_length_sensitive() {
        let a = vec![7u8; 1000];
        assert_eq!(checksum(&a), checksum(&a));
        assert_ne!(checksum(&a), checksum(&a[..999]), "length is part of the digest");
        assert_ne!(checksum(&[]), checksum(&[0]), "a zero byte is not absence");
    }

    fn golden_pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(131) ^ (i >> 8)) as u8).collect()
    }

    /// Pins the function itself, not just its properties: what is stamped
    /// and verified may only change in a PR that argues for a new digest.
    /// Lengths straddle the 8-byte word, the tail and the 64-byte stripe;
    /// values recorded in PR 17 (parent commit e4fba4f), when this digest
    /// replaced the word-wise FNV-1a pinned at 904318d.
    #[test]
    fn checksum_matches_golden_digests() {
        for (len, digest) in [
            (0, 0xf0c2_d465_428d_0c76),
            (1, 0x2655_c6da_5d59_bcc8),
            (7, 0x2bbb_2de1_920d_e705),
            (8, 0x9787_3fa8_f447_48e5),
            (9, 0xd311_9296_a6d8_c489),
            (31, 0x0086_aaf1_92df_6839),
            (32, 0x47b7_8357_fdb2_4dfb),
            (33, 0xb2fb_e802_3091_2e54),
            (63, 0xe330_07db_49e1_a458),
            (64, 0x1e43_adab_e7fb_fe1b),
            (65, 0x551f_7fbb_5615_ddc0),
            (127, 0x78ec_793a_8420_458c),
            (128, 0x1fc1_b229_b8fa_d90c),
            (129, 0x9fff_e4c8_b955_2f63),
            (128 * 1024, 0xb397_802f_f6a9_a5ee),
        ] {
            assert_eq!(checksum(&golden_pattern(len)), digest, "{len} bytes");
        }
    }

    /// The digest this one replaced, `(h ^ w) * P mod 2^64`, carried a
    /// difference only upward: a flip of bit 63 stayed in bit 63 through
    /// every later word, and a second flip of bit 63 in another word
    /// cancelled it. The rotation moves a state difference off the top bit
    /// before the next word of the lane arrives.
    #[test]
    fn checksum_sees_two_top_bit_flips() {
        let mut buf = golden_pattern(4096);
        let clean = checksum(&buf);
        buf[7] ^= 0x80;
        buf[807] ^= 0x80;
        assert_ne!(checksum(&buf), clean, "top-bit flips in words 0 and 100 must not cancel");
    }

    fn flip(buf: &mut [u8], word: usize, bit: usize) {
        buf[8 * word + bit / 8] ^= 1 << (bit % 8);
    }

    /// Tells a moved blind spot from a closed one: every one of the 64 x 64
    /// two-bit flips across a pair of words must change the digest — for
    /// pairs in the same lane one and two stripes apart (first stripe, last
    /// stripe, in between), in the sub-stripe rest chain, for neighbouring
    /// words (within a stripe, across a stripe boundary, across the boundary
    /// to the rest) and for a far pair, over patterned, all-zero and all-one
    /// payloads: 172 032 patterns.
    ///
    /// The rotate-only step `rotl((h ^ w) * K, 29)` passes
    /// `checksum_sees_two_top_bit_flips` and fails here at bit pair
    /// `(63, 28)` on every payload (and, payload permitting, at `(62, 27)`
    /// before it): an odd multiplier keeps a lone top-bit difference a lone
    /// bit, the rotation parks it on bit 28, and a flip of bit 28 in the
    /// lane's next word cancels it. Folding `w >> 32` into the word first
    /// gives every input bit a low-half image whose product difference
    /// spreads over many state bits, which no single flip can cancel.
    #[test]
    fn checksum_sees_every_two_bit_flip_across_word_pairs() {
        const WORDS: usize = 131; // 16 stripes and a three-word rest
        let last = 16 * LANES - 1;
        let pairs = [
            (0, LANES),
            (3, 3 + LANES),
            (60, 60 + LANES),
            (last - LANES, last),
            (0, 2 * LANES),
            (5, 5 + 2 * LANES),
            (last - 2 * LANES, last),
            (128, 129),
            (128, 130),
            (0, 1),
            (LANES - 1, LANES),
            (last - 1, last),
            (last, 128),
            (2, 125),
        ];
        assert!(3 * pairs.len() * 64 * 64 >= 100_000);
        for (fill, mut buf) in [
            ("patterned", golden_pattern(8 * WORDS)),
            ("0x00", vec![0x00; 8 * WORDS]),
            ("0xff", vec![0xff; 8 * WORDS]),
        ] {
            let clean = checksum(&buf);
            for (a, b) in pairs {
                for i in 0..64 {
                    flip(&mut buf, a, i);
                    for j in 0..64 {
                        flip(&mut buf, b, j);
                        assert_ne!(
                            checksum(&buf),
                            clean,
                            "bit {i} of word {a} against bit {j} of word {b}, {fill} payload"
                        );
                        flip(&mut buf, b, j);
                    }
                    flip(&mut buf, a, i);
                }
            }
        }
    }

    /// Every step is a bijection, so one flipped bit — which is confined to
    /// one word — can never be missed, whatever the length; and the length
    /// itself is part of the digest, so a padded zero is not a real one.
    #[test]
    fn checksum_sees_every_single_bit_flip_and_an_appended_zero() {
        for fill in [golden_pattern(131), vec![0u8; 131]] {
            for len in 0..=130 {
                let clean = checksum(&fill[..len]);
                assert_ne!(checksum(&fill[..len + 1]), clean, "{len} bytes plus one");
                let mut zero_extended = fill[..len].to_vec();
                zero_extended.push(0);
                assert_ne!(checksum(&zero_extended), clean, "{len} bytes plus a zero byte");
                let mut buf = fill[..len].to_vec();
                for bit in 0..8 * len {
                    buf[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(checksum(&buf), clean, "bit {bit} of {len} bytes");
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
    }

    #[test]
    fn copy_stamped_copies_and_equals_checksum_at_every_short_length() {
        let src = golden_pattern(200);
        for len in 0..=200 {
            let mut dst = vec![0xeeu8; len];
            assert_eq!(copy_stamped(&mut dst, &src[..len]), checksum(&src[..len]), "{len} bytes");
            assert_eq!(dst, &src[..len], "{len} bytes");
        }
    }

    #[test]
    #[should_panic(expected = "copy_stamped: source and destination lengths differ")]
    fn copy_stamped_rejects_mismatched_lengths() {
        copy_stamped(&mut [0u8; 64], &[0u8; 65]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn copy_stamped_equals_checksum_and_copies(
            src in proptest::collection::vec(any::<u8>(), 0..=300 * 1024),
        ) {
            let mut dst = vec![0u8; src.len()];
            prop_assert_eq!(copy_stamped(&mut dst, &src), checksum(&src));
            prop_assert!(dst == src, "copy differs at {} bytes", src.len());
        }
    }

    #[test]
    fn checksum_sees_single_byte_changes_anywhere() {
        let base: Vec<u8> = (0..253).map(|i| i as u8).collect();
        let clean = checksum(&base);
        for at in [0, 1, 7, 8, 9, 128, 251, 252] {
            let mut dirty = base.clone();
            dirty[at] ^= 0x40;
            assert_ne!(checksum(&dirty), clean, "flip at byte {at} must change the digest");
        }
    }

    #[test]
    fn every_corruption_kind_changes_the_digest() {
        for kind in [
            CorruptionKind::FlipBits { mask: 0xdead_beef },
            CorruptionKind::FlipBits { mask: 0 },
            CorruptionKind::TornWrite,
            CorruptionKind::StaleRead,
        ] {
            for len in [1usize, 2, 7, 8, 9, 64, 1024, 4096] {
                let base: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                let clean = checksum(&base);
                let mut dirty = base.clone();
                corrupt_payload(kind, &mut dirty, 42, 3, 5);
                assert_ne!(checksum(&dirty), clean, "{kind:?} on {len} bytes must be detectable");
            }
        }
    }

    #[test]
    fn corruption_is_deterministic_per_key() {
        let mut a = vec![0x5au8; 256];
        let mut b = vec![0x5au8; 256];
        corrupt_payload(CorruptionKind::TornWrite, &mut a, 9, 2, 4);
        corrupt_payload(CorruptionKind::TornWrite, &mut b, 9, 2, 4);
        assert_eq!(a, b, "same (seed, rank, op) corrupts identically");
        let mut c = vec![0x5au8; 256];
        corrupt_payload(CorruptionKind::TornWrite, &mut c, 9, 2, 5);
        assert_ne!(a, c, "a different op index draws different residue");
    }

    #[test]
    fn empty_chunks_are_left_alone() {
        let mut empty: Vec<u8> = Vec::new();
        corrupt_payload(CorruptionKind::StaleRead, &mut empty, 1, 0, 0);
        assert!(empty.is_empty());
    }
}
