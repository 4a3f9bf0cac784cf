//! `calibrate`: a fixed kernel that uses none of the vnet crates, timed to
//! read how fast the host runs at the moment. The benchmark runs it just
//! before every timed `vnet mc` leg and after the last one, and scales the
//! run's times by the reference time over the kernel's median time
//! (`plan.json` `calibration`), so that the host's speed drifting between
//! runs does not read as a change of the program.
//!
//! The kernel does the two kinds of work the explorer spends its time on,
//! whose speed followed `vnet mc` most closely on a shared host: first
//! touches of fresh pages with random inserts and probes into a table
//! larger than the per-core caches (the intern table), and permuting a
//! short byte string every way of a fixed group and keeping the least
//! (the symmetry canonicalizer).

use std::time::Instant;

/// Table of 2^21 u64 slots (16 MiB), filled half full.
const TABLE_BITS: u32 = 21;
const KEYS: usize = 1 << (TABLE_BITS - 1);
/// Length of the permuted string, about one encoded state.
const STRING_LEN: usize = 160;
/// Permutations in the group, as for 4 caches and 2 addresses.
const PERMS: usize = 47;
/// Rounds of permuting the string every way.
const ROUNDS: usize = 9_000;

fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inserts `KEYS` pseudo-random keys into a fresh linear-probing table,
/// then probes every one of them again.
fn table_part() -> u64 {
    let mask = (1usize << TABLE_BITS) - 1;
    let mut table = vec![0u64; 1 << TABLE_BITS];
    let mut s = 1u64;
    for _ in 0..KEYS {
        let k = splitmix64(&mut s) | 1;
        let mut i = k as usize & mask;
        while table[i] != 0 && table[i] != k {
            i = (i + 1) & mask;
        }
        table[i] = k;
    }
    let mut check = 0u64;
    let mut s = 1u64;
    for _ in 0..KEYS {
        let k = splitmix64(&mut s) | 1;
        let mut i = k as usize & mask;
        while table[i] != k {
            i = (i + 1) & mask;
        }
        check = check.wrapping_add(i as u64);
    }
    check
}

/// `ROUNDS` times: applies each of `PERMS` fixed pseudo-random
/// permutations to a byte string, keeps the least result, and folds it
/// back into the string.
fn permute_part() -> u64 {
    let mut s = 7u64;
    let mut string = [0u8; STRING_LEN];
    for b in string.iter_mut() {
        *b = splitmix64(&mut s) as u8;
    }
    let perms: Vec<[u8; STRING_LEN]> = (0..PERMS)
        .map(|_| {
            let mut p = [0u8; STRING_LEN];
            for (i, x) in p.iter_mut().enumerate() {
                *x = i as u8;
            }
            for i in (1..STRING_LEN).rev() {
                p.swap(i, (splitmix64(&mut s) % (i as u64 + 1)) as usize);
            }
            p
        })
        .collect();
    let mut scratch = [0u8; STRING_LEN];
    let mut check = 0u64;
    for round in 0..ROUNDS {
        let mut best = string;
        for p in &perms {
            for (out, &from) in scratch.iter_mut().zip(p.iter()) {
                *out = string[usize::from(from)];
            }
            if scratch < best {
                std::mem::swap(&mut best, &mut scratch);
            }
        }
        check = check.wrapping_add(u64::from(best[0]));
        string[round % STRING_LEN] ^= best[(round * 7) % STRING_LEN].wrapping_add(round as u8);
    }
    check
}

/// Seconds one pass of the kernel takes now: about 50 ms on a quiet host.
pub fn seconds() -> f64 {
    let t = Instant::now();
    std::hint::black_box(table_part() ^ permute_part());
    t.elapsed().as_secs_f64()
}
