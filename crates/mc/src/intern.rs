//! State interning: canonical encodings stored once, addressed by id.
//!
//! The explorers used to key their visited/parent maps by full
//! `Vec<u8>` state encodings, with a second copy of the parent's key in
//! every entry — two heap allocations and ~2× the key bytes per state,
//! plus `HashMap` bucket overhead that the memory budget could only
//! estimate. [`StateArena`] replaces that: each distinct encoding is
//! appended once to a bump arena and assigned a dense [`StateId`];
//! everything downstream (parent links, frontiers, witness rebuild,
//! checkpoint flush) carries 4-byte ids instead of byte blobs.
//!
//! The index is a hand-rolled open-addressing table over
//! [`vnet_graph::fx_hash_bytes`] — no per-entry allocation, no
//! SipHash, and `heap_bytes` is computable exactly from capacities, so
//! the [`vnet_graph::BudgetMeter`] charge is no longer an estimate.

use vnet_graph::fx_hash_bytes;

/// Dense handle for an interned state encoding. Ids are assigned in
/// insertion order starting at 0, so parallel `Vec`s indexed by id hold
/// per-state metadata without a map.
pub type StateId = u32;

const EMPTY: u32 = u32::MAX;
/// Initial slot count of the open-addressing table (power of two).
const INITIAL_SLOTS: usize = 64;
/// Largest slot count: ids and tags share one `u32`, so the id field
/// stays below 32 bits and a vacant slot ([`EMPTY`]) never collides
/// with a packed one.
const MAX_SLOTS: usize = 1 << 31;

/// Where a key hashes to in a table of `1 << bits` slots, and the tag
/// its packed slot carries. Both come from the top 32 hash bits — the
/// best-mixed ones, and independent of the low bits the explorers'
/// `hash % n` partitions pin: the home slot is the top `bits`, the tag
/// the next `32 - bits`, shifted above the id field.
#[inline]
fn home_and_tag(hash: u64, bits: u32) -> (usize, u32) {
    let top = (hash >> 32) as u32;
    ((top >> (32 - bits)) as usize, top << bits)
}
/// Why an intern could not be completed. Both variants are resource
/// exhaustion, not corruption: callers degrade the run (a bounded
/// verdict) instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternError {
    /// The arena would exceed the `u32` address space (≈4 GiB of key
    /// bytes or 4 billion states).
    AddressSpace,
    /// The allocator refused to grow the arena or its index
    /// (`try_reserve` failed): the machine is out of memory.
    AllocFailed,
}

impl std::fmt::Display for InternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternError::AddressSpace => write!(f, "intern arena address space exhausted"),
            InternError::AllocFailed => write!(f, "allocator refused intern arena growth"),
        }
    }
}

/// An append-only interning arena for state encodings.
#[derive(Debug, Clone)]
pub struct StateArena {
    /// All encodings, concatenated.
    data: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is the span of id `i`; length is
    /// `len() + 1`.
    offsets: Vec<u32>,
    /// Open-addressing slots ([`EMPTY`] = vacant). Length is a power
    /// of two `1 << bits`; resized at ¾ load. An occupied slot packs
    /// the id in its low `bits` bits and hash bits above them (the
    /// tag), so a probe reads the key only when the tag matches.
    table: Vec<u32>,
    /// `log2(table.len())`: the width of the id field in a slot.
    bits: u32,
}

impl Default for StateArena {
    fn default() -> Self {
        StateArena::new()
    }
}

impl StateArena {
    /// An empty arena.
    pub fn new() -> Self {
        StateArena {
            data: Vec::new(),
            offsets: vec![0],
            table: vec![EMPTY; INITIAL_SLOTS],
            bits: INITIAL_SLOTS.trailing_zeros(),
        }
    }

    /// Number of distinct encodings interned.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of id `id`. An out-of-range id returns the empty
    /// slice rather than panicking (callers treat it as corruption).
    pub fn get(&self, id: StateId) -> &[u8] {
        let i = id as usize;
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The id of `bytes`, if already interned.
    pub fn lookup(&self, bytes: &[u8]) -> Option<StateId> {
        self.lookup_hashed(bytes, fx_hash_bytes(bytes))
    }

    /// [`StateArena::lookup`] with `hash = fx_hash_bytes(bytes)`
    /// supplied by a caller that already computed it (to route the key).
    pub(crate) fn lookup_hashed(&self, bytes: &[u8], hash: u64) -> Option<StateId> {
        self.probe(bytes, hash).ok()
    }

    /// Finds `bytes`: `Ok(id)` when interned, else `Err(slot)` with the
    /// vacant slot where it belongs.
    #[inline]
    fn probe(&self, bytes: &[u8], hash: u64) -> Result<StateId, usize> {
        debug_assert_eq!(hash, fx_hash_bytes(bytes));
        let mask = self.table.len() - 1;
        let id_mask = mask as u32;
        let (mut slot, tag) = home_and_tag(hash, self.bits);
        loop {
            let packed = self.table[slot];
            if packed == EMPTY {
                return Err(slot);
            }
            if packed & !id_mask == tag {
                let id = packed & id_mask;
                if self.get(id) == bytes {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `bytes`, returning `(id, true)` on first sight and
    /// `(id, false)` when already present. Exhaustion — of the `u32`
    /// address space or of the machine's memory itself — comes back as
    /// a structured [`InternError`], never a panic or an abort: every
    /// growth path reserves via `try_reserve` first.
    pub fn intern(&mut self, bytes: &[u8]) -> Result<(StateId, bool), InternError> {
        self.intern_hashed(bytes, fx_hash_bytes(bytes))
    }

    /// [`StateArena::intern`] with `hash = fx_hash_bytes(bytes)`
    /// supplied by the caller.
    pub(crate) fn intern_hashed(
        &mut self,
        bytes: &[u8],
        hash: u64,
    ) -> Result<(StateId, bool), InternError> {
        let slot = match self.probe(bytes, hash) {
            Ok(id) => return Ok((id, false)),
            Err(slot) => slot,
        };
        let id = self.len();
        if id >= EMPTY as usize || self.data.len() + bytes.len() > u32::MAX as usize {
            return Err(InternError::AddressSpace);
        }
        // The probe loop requires at least one EMPTY slot, and a packed
        // id must stay below the all-ones id field; if an earlier resize
        // was refused by the allocator, stop before either can break.
        if id + 1 >= self.table.len() {
            return Err(InternError::AllocFailed);
        }
        if self.data.try_reserve(bytes.len()).is_err() || self.offsets.try_reserve(1).is_err() {
            return Err(InternError::AllocFailed);
        }
        self.data.extend_from_slice(bytes);
        self.offsets.push(self.data.len() as u32);
        self.table[slot] = home_and_tag(hash, self.bits).1 | id as u32;
        // Resize at ¾ load, re-probing every id into the doubled table.
        // A refused resize is not yet fatal: inserts continue into the
        // existing table (at degraded probe lengths) until the one-
        // EMPTY-slot invariant above would break.
        if (self.len() + 1) * 4 > self.table.len() * 3 {
            self.grow_table();
        }
        Ok((id as u32, true))
    }

    fn grow_table(&mut self) {
        let new_len = self.table.len() * 2;
        if new_len > MAX_SLOTS {
            return;
        }
        let bits = self.bits + 1;
        let mask = new_len - 1;
        let mut table = Vec::new();
        if table.try_reserve_exact(new_len).is_err() {
            return; // Keep the old table; intern() degrades gracefully.
        }
        table.resize(new_len, EMPTY);
        for id in 0..self.len() as u32 {
            let (mut slot, tag) = home_and_tag(fx_hash_bytes(self.get(id)), bits);
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = tag | id;
        }
        self.table = table;
        self.bits = bits;
    }

    /// Forgets every key, keeping the allocations for reuse.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.offsets.truncate(1);
        self.table.fill(EMPTY);
    }

    /// Bytes of interned encodings (excluding index overhead) — the
    /// figure the spill tier compares against its minimum-hot guard.
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Open-addressing table load factor in percent. Bounded by 75 by
    /// construction (the ¾-load resize rule); surfaced as the
    /// `explore.intern_load_pct` gauge.
    pub fn load_factor_pct(&self) -> u64 {
        (self.len() as u64 * 100) / (self.table.len() as u64)
    }

    /// Exact heap bytes held: arena data, offset vector, and the slot
    /// table, all from capacities.
    pub fn heap_bytes(&self) -> u64 {
        self.data.capacity() as u64
            + (self.offsets.capacity() * std::mem::size_of::<u32>()) as u64
            + (self.table.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_round_trips() {
        let mut a = StateArena::new();
        let (x, fresh) = a.intern(b"alpha").unwrap();
        assert!(fresh);
        let (y, fresh2) = a.intern(b"beta").unwrap();
        assert!(fresh2);
        assert_ne!(x, y);
        let (x2, fresh3) = a.intern(b"alpha").unwrap();
        assert!(!fresh3);
        assert_eq!(x, x2);
        assert_eq!(a.get(x), b"alpha");
        assert_eq!(a.get(y), b"beta");
        assert_eq!(a.len(), 2);
        assert_eq!(a.lookup(b"alpha"), Some(x));
        assert_eq!(a.lookup(b"gamma"), None);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut a = StateArena::new();
        for i in 0..1000u32 {
            let (id, fresh) = a.intern(&i.to_le_bytes()).unwrap();
            assert!(fresh);
            assert_eq!(id, i);
        }
        for i in 0..1000u32 {
            assert_eq!(a.lookup(&i.to_le_bytes()), Some(i));
            assert_eq!(a.get(i), i.to_le_bytes());
        }
    }

    #[test]
    fn survives_table_growth() {
        let mut a = StateArena::new();
        // Far past several resize boundaries, with variable-length keys.
        for i in 0..10_000u32 {
            let key = vec![(i & 0xff) as u8; 3 + (i as usize % 29)];
            let full: Vec<u8> = key.iter().chain(i.to_le_bytes().iter()).copied().collect();
            a.intern(&full).unwrap();
        }
        assert_eq!(a.len(), 10_000);
        let probe: Vec<u8> = [77u8; 3 + (77 % 29)]
            .iter()
            .chain(77u32.to_le_bytes().iter())
            .copied()
            .collect();
        assert!(a.lookup(&probe).is_some());
    }

    #[test]
    fn empty_key_and_out_of_range_ids_are_safe() {
        let mut a = StateArena::new();
        let (e, fresh) = a.intern(b"").unwrap();
        assert!(fresh);
        assert_eq!(a.get(e), b"");
        assert_eq!(a.get(999), b"");
        assert_eq!(a.lookup(b""), Some(e));
    }

    #[test]
    fn heap_bytes_tracks_growth() {
        let mut a = StateArena::new();
        let before = a.heap_bytes();
        for i in 0..500u32 {
            a.intern(&i.to_le_bytes()).unwrap();
        }
        assert!(a.heap_bytes() > before);
        // Exactness: recomputable from capacities alone.
        let expect = a.data.capacity() as u64
            + (a.offsets.capacity() * 4) as u64
            + (a.table.capacity() * 4) as u64;
        assert_eq!(a.heap_bytes(), expect);
    }

    #[test]
    fn tagged_slots_agree_with_a_hashmap_oracle() {
        use std::collections::HashMap;
        // 400k variable-length keys take the table to 2^20 slots, where
        // a slot keeps only 12 tag bits; every intern and lookup must
        // still agree with an oracle map, including repeats and misses.
        let key = |i: u32| -> Vec<u8> {
            let len = 1 + (i.wrapping_mul(2_654_435_761) % 37) as usize;
            let mut k: Vec<u8> = (0..len).map(|j| (i as usize * 31 + j * 7) as u8).collect();
            k.extend_from_slice(&i.to_le_bytes());
            k
        };
        let mut a = StateArena::new();
        let mut oracle: HashMap<Vec<u8>, StateId> = HashMap::new();
        for i in 0..400_000u32 {
            let k = key(i);
            let expect = oracle.get(&k).copied();
            assert_eq!(a.lookup(&k), expect, "lookup before intern of key {i}");
            let (id, fresh) = a.intern(&k).unwrap();
            match expect {
                Some(old) => assert_eq!((id, fresh), (old, false), "key {i}"),
                None => {
                    assert_eq!((id, fresh), (oracle.len() as StateId, true), "key {i}");
                    oracle.insert(k.clone(), id);
                }
            }
            // Re-intern an earlier key now and then: a repeat, not a claim.
            if i % 7 == 3 {
                let back = key(i / 2);
                assert_eq!(
                    a.intern(&back).unwrap(),
                    (oracle[&back], false),
                    "repeat {i}"
                );
            }
        }
        assert_eq!(a.len(), oracle.len());
        assert_eq!(
            a.table.len(),
            1 << 20,
            "the table must reach the 12-tag-bit size"
        );
        for (k, &id) in &oracle {
            assert_eq!(a.get(id), k.as_slice());
            assert_eq!(a.lookup(k), Some(id));
        }
        for miss in 400_000..400_100u32 {
            assert_eq!(a.lookup(&key(miss)), None, "absent key {miss}");
        }
        assert_eq!(a.load_factor_pct(), (a.len() as u64 * 100) / (1 << 20));
        assert!(a.load_factor_pct() <= 75);
        let expect = a.data.capacity() as u64
            + (a.offsets.capacity() * 4) as u64
            + (a.table.capacity() * 4) as u64;
        assert_eq!(a.heap_bytes(), expect);
        assert_eq!(std::mem::size_of_val(&a.table[0]), 4, "slots stay 4 bytes");
        // A cleared arena keeps its allocations and interns afresh.
        a.clear();
        assert_eq!((a.len(), a.heap_bytes()), (0, expect));
        assert_eq!(a.lookup(&key(5)), None);
        assert_eq!(a.intern(&key(5)).unwrap(), (0, true));
    }
}
