//! [`IdMap`]: a hash map for the simulator's own integer ids.
//!
//! Request and packet ids are minted by the simulation itself, so they
//! need neither SipHash's protection against crafted collisions nor
//! `RandomState`'s per-process seed. [`IdHasher`] is one multiply per
//! key, and being unseeded it makes a map's iteration order a function of
//! its insertion history alone — it can never differ between two runs of
//! the same seed. Keep the default hasher for keys that come from outside
//! the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-minted ids, hashed by [`IdHasher`].
/// Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative hasher for integer keys: each word is xor-ed into the
/// state, multiplied by 2⁶⁴/φ into a 128-bit product, and the product's
/// two halves are xor-ed together (a folded multiply). The high half
/// carries every input bit down to the low bits the table indexes by, so
/// keys that differ only in their top bits still spread.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(GOLDEN);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn behaves_as_a_map() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(i << 20, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(7 << 20)), Some(&7));
        assert_eq!(m.remove(&(7 << 20)), Some(7));
        assert_eq!(m.get(&(7 << 20)), None);
    }

    #[test]
    fn iteration_order_depends_only_on_history() {
        let build = || {
            let mut m: IdMap<u64, u64> = IdMap::default();
            for i in 0..500u64 {
                m.insert(i.wrapping_mul(0x1234_5678_9ABC), i);
                if i % 3 == 0 {
                    m.remove(&(i / 2).wrapping_mul(0x1234_5678_9ABC));
                }
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_buckets() {
        // Packet ids carry the stream in their top bits; the low bits the
        // table indexes by must still vary across such keys.
        let b = BuildHasherDefault::<IdHasher>::default();
        let mut low = std::collections::BTreeSet::new();
        for stream in 1..=64u64 {
            low.insert(b.hash_one(stream << 48) & 0xFF);
        }
        assert!(low.len() > 32, "only {} distinct low bytes", low.len());
    }
}
