//! The admission-order store behind the state-space searches: every
//! state a search admits is kept once, at the index of its admission,
//! and is found again with one hash of it.
//!
//! A breadth-first layer or a FIFO queue is then a range of indices, so
//! no state is stored twice, once in a visited set and once in a
//! frontier.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// A fixed multiplicative hasher, rustc's Fx hash: each 64-bit word of
/// input is folded in by a rotate, an xor and one multiply.
///
/// The searches hash only states the program generates from its own
/// instances, so they need no protection against crafted collisions; a
/// fixed hasher costs a fraction of SipHash on the word vectors that
/// make up a state. No search iterates a set, so no output depends on
/// the hash values.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl MulHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FixedState = BuildHasherDefault<MulHasher>;

/// No next state with the same hash.
const NONE: usize = usize::MAX;

/// States in admission order, each stored once.
///
/// A map from each state hash to the last state admitted with it heads
/// a chain through `next`, so a lookup hashes the state once and
/// compares it only with the states of equal hash.
pub(crate) struct StateStore<S> {
    states: Vec<S>,
    /// The index of the last state admitted with each hash.
    heads: HashMap<u64, usize, FixedState>,
    /// For each state, the index of the state admitted before it with
    /// the same hash, or [`NONE`].
    next: Vec<usize>,
}

impl<S: Hash + Eq> StateStore<S> {
    /// A store holding `initial` at index 0.
    pub(crate) fn new(initial: S) -> Self {
        let mut store = StateStore {
            states: Vec::new(),
            heads: HashMap::default(),
            next: Vec::new(),
        };
        let hash = FixedState::default().hash_one(&initial);
        store.admit(initial, hash);
        store
    }

    /// The number of states admitted.
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// The state admitted at index `i`.
    pub(crate) fn get(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// The index of `state` if it was admitted, else its hash, for
    /// [`StateStore::admit`].
    pub(crate) fn find(&self, state: &S) -> Result<usize, u64> {
        let hash = FixedState::default().hash_one(state);
        let mut at = self.heads.get(&hash).copied().unwrap_or(NONE);
        while at != NONE {
            if self.states[at] == *state {
                return Ok(at);
            }
            at = self.next[at];
        }
        Err(hash)
    }

    /// Admits a state [`StateStore::find`] did not find, with the hash it
    /// returned; returns the state's index.
    pub(crate) fn admit(&mut self, state: S, hash: u64) -> usize {
        let i = self.states.len();
        self.next.push(self.heads.insert(hash, i).unwrap_or(NONE));
        self.states.push(state);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state whose hash is its value modulo 3, so most states share a
    /// hash with others.
    #[derive(Debug, PartialEq, Eq)]
    struct Clashing(u32);

    impl Hash for Clashing {
        fn hash<H: Hasher>(&self, state: &mut H) {
            (self.0 % 3).hash(state);
        }
    }

    #[test]
    fn states_keep_their_admission_index_through_hash_clashes() {
        let mut store = StateStore::new(Clashing(0));
        for v in 1..30 {
            let hash = store.find(&Clashing(v)).expect_err("not yet admitted");
            assert_eq!(store.admit(Clashing(v), hash), v as usize);
        }
        assert_eq!(store.len(), 30);
        for v in 0..30 {
            assert_eq!(store.find(&Clashing(v)), Ok(v as usize));
            assert_eq!(store.get(v as usize), &Clashing(v));
        }
        assert!(store.find(&Clashing(30)).is_err());
    }

    #[test]
    fn the_hasher_reads_every_byte_and_is_fixed() {
        let hash = |bytes: &[u8]| {
            let mut h = MulHasher::default();
            h.write(bytes);
            h.finish()
        };
        let words: Vec<u8> = (0..13).collect();
        // A change in any byte, the tail past the last full word
        // included, changes the hash.
        for i in 0..words.len() {
            let mut other = words.clone();
            other[i] ^= 1;
            assert_ne!(hash(&words), hash(&other), "byte {i}");
        }
        // The same in every process: one word is one multiply.
        assert_eq!(FixedState::default().hash_one(1u64), MulHasher::SEED);
    }
}
