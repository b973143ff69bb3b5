//! Last-touch signature tables — the predictor's second level (paper §3.2).
//!
//! Two organizations are evaluated, mirroring the PAp/PAg split of two-level
//! branch predictors:
//!
//! * [`PerBlockTable`] (PAp-like): a private signature list per memory block.
//!   No interference between blocks, highest accuracy, highest storage.
//! * [`GlobalTable`] (PAg-like): one set-associative table shared by every
//!   block. Common sharing patterns collapse into shared entries (storage ↓),
//!   but a complete trace of one block may be a subtrace of another's,
//!   producing cross-block aliasing (accuracy ↓, Figure 8).
//!
//! Both implement [`LastTouchTable`] and report [`StorageStats`] used to
//! regenerate Table 3.

use crate::fast_hash::FxHashMap;
use std::fmt;

use crate::confidence::TwoBitCounter;
use crate::encode::{Signature, SignatureBits};
use crate::types::BlockId;

/// Result of probing a table with the current trace signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No entry holds this signature.
    Miss,
    /// An entry matched but its confidence counter is not saturated; the
    /// predictor records the match for deferred (invalidation-time)
    /// resolution instead of firing.
    MatchWeak,
    /// An entry matched with a saturated counter: predict a last touch.
    MatchConfident,
}

impl Probe {
    /// Whether the probe found any entry.
    pub fn is_match(self) -> bool {
        !matches!(self, Probe::Miss)
    }
}

/// Storage accounting for Table 3 of the paper.
///
/// `entries` is the average number of live last-touch signatures per
/// actively-shared block; `overhead_bytes` adds the per-block current
/// signature register and the two-bit counter per entry:
///
/// ```text
/// overhead = entries * (sig_bits + 2)/8  +  sig_bits/8
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// Number of blocks that ever allocated predictor state ("actively
    /// shared" blocks: fetched and eventually invalidated at least once).
    pub blocks_tracked: u64,
    /// Total live signature entries across the table.
    pub live_entries: u64,
    /// Signature width used by the table.
    pub signature_bits: u8,
}

impl StorageStats {
    /// Average entries per actively-shared block (Table 3 "ent").
    pub fn entries_per_block(&self) -> f64 {
        if self.blocks_tracked == 0 {
            0.0
        } else {
            self.live_entries as f64 / self.blocks_tracked as f64
        }
    }

    /// Per-block overhead in bytes (Table 3 "ovh"): signature entries with
    /// their two-bit counters, plus the current-signature register.
    pub fn overhead_bytes_per_block(&self) -> f64 {
        let entry_bits = f64::from(self.signature_bits) + 2.0;
        let current_bits = f64::from(self.signature_bits);
        (self.entries_per_block() * entry_bits + current_bits) / 8.0
    }

    /// Folds another table's accounting into this one: the counts add and
    /// the signature width is the wider of the two.
    pub fn merge(&mut self, other: &StorageStats) {
        self.blocks_tracked += other.blocks_tracked;
        self.live_entries += other.live_entries;
        self.signature_bits = self.signature_bits.max(other.signature_bits);
    }
}

/// The common interface of both table organizations.
///
/// This trait is sealed in spirit: the two organizations in this module are
/// the ones the paper defines, and `ltp-system` treats predictors as opaque
/// policies, so downstream implementations are not expected.
pub trait LastTouchTable: fmt::Debug + Send {
    /// Probes for `sig` as a last-touch signature of `block`.
    fn probe(&mut self, block: BlockId, sig: Signature) -> Probe;

    /// Records that `sig` terminated a trace for `block`.
    ///
    /// Inserts a fresh entry when absent. When present, strengthens it —
    /// unless `ambiguous` is set (the same signature also matched earlier in
    /// the trace, so firing on it can only ever be premature), in which case
    /// the entry is weakened.
    fn learn(&mut self, block: BlockId, sig: Signature, ambiguous: bool);

    /// Strengthens the entry after a verified-correct self-invalidation.
    fn strengthen(&mut self, block: BlockId, sig: Signature);

    /// Weakens the entry (mid-trace alias discovered at invalidation time).
    fn weaken(&mut self, block: BlockId, sig: Signature);

    /// Resets the entry's confidence to zero (verified-premature
    /// self-invalidation under [`PrematurePenalty::Reset`]).
    ///
    /// [`PrematurePenalty::Reset`]: crate::ltp::PrematurePenalty::Reset
    fn reset(&mut self, block: BlockId, sig: Signature);

    /// Marks `block` as actively shared for storage accounting, regardless
    /// of whether a signature is ever stored for it.
    fn note_block(&mut self, block: BlockId);

    /// Current storage accounting.
    fn storage(&self) -> StorageStats;
}

/// One signature entry with its confidence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    sig: Signature,
    counter: TwoBitCounter,
}

/// A small fully-associative signature list with LRU replacement.
///
/// Index 0 is least recently used; the end is most recently used.
#[derive(Debug, Clone, Default)]
struct SignatureSet {
    entries: Vec<Entry>,
}

impl SignatureSet {
    fn find(&self, sig: Signature) -> Option<usize> {
        self.entries.iter().position(|e| e.sig == sig)
    }

    fn touch_lru(&mut self, idx: usize) {
        let e = self.entries.remove(idx);
        self.entries.push(e);
    }

    fn probe(&mut self, sig: Signature) -> Probe {
        match self.find(sig) {
            None => Probe::Miss,
            Some(idx) => {
                let confident = self.entries[idx].counter.is_saturated();
                self.touch_lru(idx);
                if confident {
                    Probe::MatchConfident
                } else {
                    Probe::MatchWeak
                }
            }
        }
    }

    fn learn(&mut self, sig: Signature, ambiguous: bool, init: TwoBitCounter, capacity: usize) {
        match self.find(sig) {
            Some(idx) => {
                if ambiguous {
                    self.entries[idx].counter.weaken();
                } else {
                    self.entries[idx].counter.strengthen();
                }
                self.touch_lru(idx);
            }
            None => {
                if self.entries.len() >= capacity {
                    // Evict the least recently used entry.
                    self.entries.remove(0);
                }
                self.entries.push(Entry { sig, counter: init });
            }
        }
    }

    fn strengthen(&mut self, sig: Signature) {
        if let Some(idx) = self.find(sig) {
            self.entries[idx].counter.strengthen();
            self.touch_lru(idx);
        }
    }

    fn weaken(&mut self, sig: Signature) {
        if let Some(idx) = self.find(sig) {
            self.entries[idx].counter.weaken();
        }
    }

    fn reset(&mut self, sig: Signature) {
        if let Some(idx) = self.find(sig) {
            self.entries[idx].counter = TwoBitCounter::new(0);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// PAp-like organization: a private last-touch signature table per block
/// (paper Figure 4, top).
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, PerBlockTable, LastTouchTable, Probe, Signature, SignatureBits};
///
/// let bits = SignatureBits::PER_BLOCK_DEFAULT;
/// let mut table = PerBlockTable::new(bits, 16, 2);
/// let block = BlockId::new(7);
/// let sig = Signature::from_bits(0x1a2, bits);
///
/// assert_eq!(table.probe(block, sig), Probe::Miss);
/// table.learn(block, sig, false); // counter = 2 (init)
/// assert_eq!(table.probe(block, sig), Probe::MatchWeak);
/// table.learn(block, sig, false); // counter = 3
/// assert_eq!(table.probe(block, sig), Probe::MatchConfident);
/// ```
#[derive(Debug, Clone)]
pub struct PerBlockTable {
    tables: FxHashMap<BlockId, SignatureSet>,
    bits: SignatureBits,
    capacity: usize,
    init: TwoBitCounter,
}

impl PerBlockTable {
    /// Creates a per-block table.
    ///
    /// * `bits` — signature width (13 is the paper's sweet spot).
    /// * `capacity` — maximum signatures retained per block (LRU beyond it).
    /// * `initial_confidence` — counter value for fresh entries (the default
    ///   predictor uses 2: one confirmation saturates).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(bits: SignatureBits, capacity: usize, initial_confidence: u8) -> Self {
        assert!(capacity > 0, "per-block table capacity must be nonzero");
        PerBlockTable {
            tables: FxHashMap::default(),
            bits,
            capacity,
            init: TwoBitCounter::new(initial_confidence),
        }
    }

    /// Number of signatures currently stored for `block`.
    pub fn entries_for(&self, block: BlockId) -> usize {
        self.tables.get(&block).map_or(0, SignatureSet::len)
    }
}

impl LastTouchTable for PerBlockTable {
    fn probe(&mut self, block: BlockId, sig: Signature) -> Probe {
        self.tables
            .get_mut(&block)
            .map_or(Probe::Miss, |t| t.probe(sig))
    }

    fn learn(&mut self, block: BlockId, sig: Signature, ambiguous: bool) {
        let init = self.init;
        let cap = self.capacity;
        self.tables
            .entry(block)
            .or_default()
            .learn(sig, ambiguous, init, cap);
    }

    fn strengthen(&mut self, block: BlockId, sig: Signature) {
        if let Some(t) = self.tables.get_mut(&block) {
            t.strengthen(sig);
        }
    }

    fn weaken(&mut self, block: BlockId, sig: Signature) {
        if let Some(t) = self.tables.get_mut(&block) {
            t.weaken(sig);
        }
    }

    fn reset(&mut self, block: BlockId, sig: Signature) {
        if let Some(t) = self.tables.get_mut(&block) {
            t.reset(sig);
        }
    }

    fn note_block(&mut self, block: BlockId) {
        self.tables.entry(block).or_default();
    }

    fn storage(&self) -> StorageStats {
        StorageStats {
            blocks_tracked: self.tables.len() as u64,
            live_entries: self.tables.values().map(|t| t.len() as u64).sum(),
            signature_bits: self.bits.get(),
        }
    }
}

/// PAg-like organization: one global, set-associative last-touch signature
/// table shared by all blocks (paper Figure 4, bottom).
///
/// Entries are tagged by signature alone — that is the point (and the flaw):
/// blocks sharing a code path share entries, so storage shrinks, but one
/// block's complete trace aliases another's subtrace (Figure 8).
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, GlobalTable, LastTouchTable, Probe, Signature, SignatureBits};
///
/// let bits = SignatureBits::BASE; // global tables need the full 30 bits
/// let mut table = GlobalTable::new(bits, 1024, 4, 2);
/// let sig = Signature::from_bits(0xbeef, bits);
///
/// table.learn(BlockId::new(1), sig, false);
/// table.learn(BlockId::new(1), sig, false);
/// // Block 2 never learned anything, yet the shared entry matches:
/// assert_eq!(table.probe(BlockId::new(2), sig), Probe::MatchConfident);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalTable {
    sets: Vec<SignatureSet>,
    bits: SignatureBits,
    ways: usize,
    init: TwoBitCounter,
    blocks_tracked: std::collections::HashSet<BlockId>,
}

impl GlobalTable {
    /// Creates a global table with `sets` sets of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(bits: SignatureBits, sets: usize, ways: usize, initial_confidence: u8) -> Self {
        assert!(sets > 0, "global table needs at least one set");
        assert!(ways > 0, "global table needs at least one way");
        GlobalTable {
            sets: vec![SignatureSet::default(); sets],
            bits,
            ways,
            init: TwoBitCounter::new(initial_confidence),
            blocks_tracked: std::collections::HashSet::new(),
        }
    }

    fn set_for(&mut self, sig: Signature) -> &mut SignatureSet {
        let idx = (sig.bits() as usize) % self.sets.len();
        &mut self.sets[idx]
    }
}

impl LastTouchTable for GlobalTable {
    fn probe(&mut self, _block: BlockId, sig: Signature) -> Probe {
        self.set_for(sig).probe(sig)
    }

    fn learn(&mut self, block: BlockId, sig: Signature, ambiguous: bool) {
        self.blocks_tracked.insert(block);
        let init = self.init;
        let ways = self.ways;
        self.set_for(sig).learn(sig, ambiguous, init, ways);
    }

    fn strengthen(&mut self, _block: BlockId, sig: Signature) {
        self.set_for(sig).strengthen(sig);
    }

    fn weaken(&mut self, _block: BlockId, sig: Signature) {
        self.set_for(sig).weaken(sig);
    }

    fn reset(&mut self, _block: BlockId, sig: Signature) {
        self.set_for(sig).reset(sig);
    }

    fn note_block(&mut self, block: BlockId) {
        self.blocks_tracked.insert(block);
    }

    fn storage(&self) -> StorageStats {
        StorageStats {
            blocks_tracked: self.blocks_tracked.len() as u64,
            live_entries: self.sets.iter().map(|s| s.len() as u64).sum(),
            signature_bits: self.bits.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(v: u32) -> Signature {
        Signature::from_bits(v, SignatureBits::BASE)
    }

    fn block(i: u64) -> BlockId {
        BlockId::new(i)
    }

    #[test]
    fn per_block_miss_then_learn_then_confident() {
        let mut t = PerBlockTable::new(SignatureBits::BASE, 8, 2);
        assert_eq!(t.probe(block(0), sig(5)), Probe::Miss);
        t.learn(block(0), sig(5), false);
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchWeak);
        t.learn(block(0), sig(5), false);
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchConfident);
    }

    #[test]
    fn per_block_tables_are_isolated() {
        let mut t = PerBlockTable::new(SignatureBits::BASE, 8, 3);
        t.learn(block(0), sig(5), false);
        assert_eq!(t.probe(block(1), sig(5)), Probe::Miss);
    }

    #[test]
    fn ambiguous_learn_weakens() {
        let mut t = PerBlockTable::new(SignatureBits::BASE, 8, 3);
        t.learn(block(0), sig(5), false); // insert at 3
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchConfident);
        t.learn(block(0), sig(5), true); // ambiguous → weaken
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchWeak);
    }

    #[test]
    fn reset_silences_entry() {
        let mut t = PerBlockTable::new(SignatureBits::BASE, 8, 3);
        t.learn(block(0), sig(5), false);
        t.reset(block(0), sig(5));
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchWeak);
        // Needs three confirmations again.
        t.learn(block(0), sig(5), false);
        t.learn(block(0), sig(5), false);
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchWeak);
        t.learn(block(0), sig(5), false);
        assert_eq!(t.probe(block(0), sig(5)), Probe::MatchConfident);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = PerBlockTable::new(SignatureBits::BASE, 2, 2);
        t.learn(block(0), sig(1), false);
        t.learn(block(0), sig(2), false);
        // Touch sig(1) so sig(2) becomes LRU.
        assert_eq!(t.probe(block(0), sig(1)), Probe::MatchWeak);
        t.learn(block(0), sig(3), false); // evicts sig(2)
        assert_eq!(t.probe(block(0), sig(2)), Probe::Miss);
        assert_eq!(t.probe(block(0), sig(1)), Probe::MatchWeak);
        assert_eq!(t.probe(block(0), sig(3)), Probe::MatchWeak);
        assert_eq!(t.entries_for(block(0)), 2);
    }

    #[test]
    fn weaken_and_strengthen_on_missing_entry_are_noops() {
        let mut t = PerBlockTable::new(SignatureBits::BASE, 4, 2);
        t.weaken(block(0), sig(9));
        t.strengthen(block(0), sig(9));
        t.reset(block(0), sig(9));
        assert_eq!(t.probe(block(0), sig(9)), Probe::Miss);
    }

    #[test]
    fn per_block_storage_counts() {
        let mut t = PerBlockTable::new(SignatureBits::new(13).unwrap(), 8, 2);
        t.note_block(block(0));
        t.learn(block(1), sig(1), false);
        t.learn(block(1), sig(2), false);
        t.learn(block(2), sig(1), false);
        let s = t.storage();
        assert_eq!(s.blocks_tracked, 3);
        assert_eq!(s.live_entries, 3);
        assert!((s.entries_per_block() - 1.0).abs() < 1e-9);
        // 1.0 * 15 bits + 13 bits = 28 bits = 3.5 bytes.
        assert!((s.overhead_bytes_per_block() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn global_table_shares_entries_across_blocks() {
        let mut t = GlobalTable::new(SignatureBits::BASE, 64, 4, 2);
        t.learn(block(1), sig(42), false);
        t.learn(block(2), sig(42), false); // strengthens the shared entry
        assert_eq!(t.probe(block(3), sig(42)), Probe::MatchConfident);
        let s = t.storage();
        assert_eq!(s.blocks_tracked, 2);
        assert_eq!(s.live_entries, 1);
    }

    #[test]
    fn global_table_set_conflict_eviction() {
        // One set, one way: every new signature evicts the previous one.
        let mut t = GlobalTable::new(SignatureBits::BASE, 1, 1, 2);
        t.learn(block(0), sig(1), false);
        t.learn(block(0), sig(2), false);
        assert_eq!(t.probe(block(0), sig(1)), Probe::Miss);
        assert_eq!(t.probe(block(0), sig(2)), Probe::MatchWeak);
    }

    #[test]
    fn global_storage_overhead_formula() {
        let mut t = GlobalTable::new(SignatureBits::BASE, 64, 4, 2);
        t.learn(block(1), sig(7), false);
        t.note_block(block(2));
        let s = t.storage();
        assert_eq!(s.blocks_tracked, 2);
        assert_eq!(s.live_entries, 1);
        // 0.5 entries/block * 32 bits + 30 bits = 46 bits = 5.75 bytes.
        assert!((s.overhead_bytes_per_block() - 5.75).abs() < 1e-9);
    }

    #[test]
    fn probe_is_match_helper() {
        assert!(!Probe::Miss.is_match());
        assert!(Probe::MatchWeak.is_match());
        assert!(Probe::MatchConfident.is_match());
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn per_block_zero_capacity_panics() {
        PerBlockTable::new(SignatureBits::BASE, 0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn global_zero_sets_panics() {
        GlobalTable::new(SignatureBits::BASE, 0, 1, 2);
    }
}
