//! A fast, deterministic hasher for the predictor hot paths.
//!
//! Every per-touch table in this workspace is keyed by small integers
//! (block addresses, PCs, (node, block) pairs). `std`'s default SipHash is
//! DoS-resistant but costs more than the table work it guards; simulation
//! tables hash attacker-free keys millions of times per run, so the
//! classic Fx multiply-rotate hash (as used by rustc) is the right
//! trade — ~5× cheaper per lookup and, unlike `RandomState`, seed-free,
//! which keeps iteration-order-independent code honest: a map that leaks
//! iteration order into results now does so reproducibly instead of
//! flaking.
//!
//! Use the [`FxHashMap`] / [`FxHashSet`] aliases; they are drop-in for the
//! `std` types.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply-rotate hasher (64-bit state).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Deterministic fast-hash state for [`HashMap`]/[`HashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] — drop-in for `std::collections::HashMap`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`] — drop-in for `std::collections::HashSet`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// FNV-1a's 64-bit offset basis: the state before any byte is mixed.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Mixes `v`'s eight little-endian bytes into each FNV-1a state in `h`,
/// bit-identical to the byte-wise `h = (h ^ byte) * P` loop.
///
/// A zero byte's step is a bare `h *= P`, and wrapping multiplication is
/// associative, so `v`'s high zero bytes fold into one multiply by `P^k`.
/// The predictors hash PCs (`u32` widened), table ids and history
/// positions, so most of the eight steps per value collapse; full-width
/// values such as `u64::MAX` take all eight. The states in `h` share the
/// byte extraction (TAGE hashes its row and tag seeds in one pass).
#[inline]
pub(crate) fn fnv1a_fold<const N: usize>(mut h: [u64; N], v: u64) -> [u64; N] {
    let significant = 8 - (v.leading_zeros() / 8) as usize;
    let mut rest = v;
    for _ in 0..significant {
        let byte = rest & 0xff;
        for s in &mut h {
            *s = (*s ^ byte).wrapping_mul(FNV_PRIME);
        }
        rest >>= 8;
    }
    let zeros = FNV_PRIME_POW[8 - significant];
    for s in &mut h {
        *s = s.wrapping_mul(zeros);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHashMap::default();
        let mut b = FxHashMap::default();
        for i in 0..1000u64 {
            a.insert(i, i);
            b.insert(i, i);
        }
        // Seed-free hashing: identical insertion order → identical
        // iteration order, across instances and across processes.
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
    }

    #[test]
    fn distributes_small_integer_keys() {
        // 4096 sequential keys must not collapse onto a few buckets: check
        // the low bits of the hash spread.
        let mut buckets = [0u32; 64];
        for i in 0..4096u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets[(h.finish() % 64) as usize] += 1;
        }
        let max = buckets.iter().max().copied().unwrap();
        assert!(max < 4 * 4096 / 64, "pathological clustering: {max}");
    }
}
