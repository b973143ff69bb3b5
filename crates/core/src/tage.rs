//! A TAGE-style last-touch predictor: tagged tables indexed by
//! geometrically growing touch-history lengths.
//!
//! Adapted from Seznec's TAGE branch predictor family to the last-touch
//! problem. `tables=N` direct-mapped tables are indexed by a hash of
//! (block, last Lᵢ touching PCs) with geometric history lengths
//! Lᵢ ∈ {2, 4, 8, …}; each entry carries a partial tag and a
//! [`TwoBitCounter`]. On a touch, the *provider* is the longest-history
//! table whose entry's tag matches; the predictor fires when the provider's
//! counter is saturated. Training is allocation-on-miss: an external
//! invalidation (a missed last touch) strengthens the provider if one
//! matched, otherwise allocates a fresh tagged entry in the weakest slot
//! available — preferring invalid entries, then weak counters, then shorter
//! histories — and deterministically overwrites on total conflict.
//!
//! Tag aliasing is safe by construction: indices are reduced modulo the
//! table size and training/verdict updates re-compare tags before touching
//! an entry, so colliding blocks can at worst steal each other's entries,
//! never corrupt state (`tests/predict_properties.rs` fuzzes this with
//! deliberately tiny tables).
//!
//! Spec string: `tage[:tables=4][,size=512]`.

use crate::fast_hash::{fnv1a_fold, FxHashMap, FNV_OFFSET};

use crate::confidence::TwoBitCounter;
use crate::ltp::PredictorConfig;
use crate::ltp::PrematurePenalty;
use crate::offline::PendingFifo;
use crate::policy::{FillKind, SelfInvalidationPolicy, Touch, VerifyOutcome};
use crate::table::StorageStats;
use crate::types::{BlockId, Pc};

/// Default number of tagged tables.
pub const TAGE_DEFAULT_TABLES: usize = 4;
/// Default entries per table.
pub const TAGE_DEFAULT_SIZE: usize = 512;
/// Partial-tag width stored per entry.
const TAG_BITS: usize = 16;
/// Most tagged tables a predictor has (`tables` is clamped to 1..=8).
const MAX_TABLES: usize = 8;
/// Seed XORed into FNV-1a's offset basis for the tag hash (the row hash
/// uses seed 0).
const TAG_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u16,
    ctr: TwoBitCounter,
}

#[derive(Debug)]
struct Table {
    /// History length Lᵢ this table is indexed with.
    len: usize,
    entries: Vec<Entry>,
}

/// One touch's lookup, snapshotted for later training: per-table row and
/// tag (the first `tables.len()` of each are meaningful) plus the provider
/// table, if any. Rows and tags sit in separate arrays, with no padding
/// between them: `last_lookup` holds one snapshot per tracked block.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    rows: [usize; MAX_TABLES],
    tags: [u16; MAX_TABLES],
    provider: Option<u8>,
}

/// The TAGE-style predictor (see the module docs).
#[derive(Debug)]
pub struct TagePredictor {
    tables: Vec<Table>,
    config: PredictorConfig,
    /// Per-block recent-PC history, newest last, capped at the longest Lᵢ;
    /// reset on demand fills.
    histories: FxHashMap<u64, Vec<Pc>>,
    /// Per block: the lookup of the most recent touch (the training example
    /// an external invalidation rewards).
    last_lookup: FxHashMap<u64, Lookup>,
    /// Fired lookups awaiting directory verdicts, FIFO per block.
    pending: PendingFifo<Lookup>,
}

impl TagePredictor {
    /// Builds a predictor with `tables` tagged tables (1..=8, history
    /// lengths 2, 4, 8, …) of `size` entries each.
    pub fn new(tables: usize, size: usize, config: PredictorConfig) -> Self {
        let tables = tables.clamp(1, MAX_TABLES);
        let size = size.max(1);
        TagePredictor {
            tables: (0..tables)
                .map(|i| Table {
                    len: 2usize << i,
                    entries: vec![Entry::default(); size],
                })
                .collect(),
            config,
            histories: FxHashMap::default(),
            last_lookup: FxHashMap::default(),
            pending: PendingFifo::new(),
        }
    }

    fn max_len(&self) -> usize {
        self.tables.last().map_or(2, |t| t.len)
    }

    /// Allocates `lookup`'s slot in the weakest candidate: invalid entries
    /// first, then weakest counter, then shortest history — fully
    /// deterministic, overwriting on total conflict.
    fn allocate(&mut self, lookup: &Lookup) {
        let mut best: Option<(usize, u8, bool)> = None; // (table, ctr value, valid)
        for (i, &row) in lookup.rows[..self.tables.len()].iter().enumerate() {
            let entry = self.tables[i].entries[row];
            let key = (entry.valid, entry.ctr.value(), i);
            let better = match best {
                None => true,
                Some((bi, bc, bv)) => key < (bv, bc, bi),
            };
            if better {
                best = Some((i, entry.ctr.value(), entry.valid));
            }
        }
        if let Some((i, _, _)) = best {
            let (row, tag) = (lookup.rows[i], lookup.tags[i]);
            self.tables[i].entries[row] = Entry {
                valid: true,
                tag,
                ctr: TwoBitCounter::new(self.config.initial_confidence),
            };
        }
    }

    /// Applies `f` to the provider's entry if its tag still matches (it may
    /// have been stolen by an aliasing block since the snapshot).
    fn with_provider(&mut self, lookup: &Lookup, f: impl FnOnce(&mut Entry)) {
        let Some(i) = lookup.provider.map(usize::from) else {
            return;
        };
        let (row, tag) = (lookup.rows[i], lookup.tags[i]);
        let entry = &mut self.tables[i].entries[row];
        if entry.valid && entry.tag == tag {
            f(entry);
        }
    }
}

/// Table `table`'s (row, tag) hashes for `block` under the history
/// `window` (its last Lᵢ PCs): FNV-1a over (table id, block, window) with
/// seeds 0 and [`TAG_SEED`], hashed together in one pass.
fn table_hashes(table: usize, block: BlockId, window: &[Pc]) -> [u64; 2] {
    let mut h = fnv1a_fold([FNV_OFFSET, FNV_OFFSET ^ TAG_SEED], table as u64);
    h = fnv1a_fold(h, block.index());
    for pc in window {
        h = fnv1a_fold(h, u64::from(pc.value()));
    }
    h
}

/// Looks `block` up under `history` in every table.
fn lookup(tables: &[Table], block: BlockId, history: &[Pc]) -> Lookup {
    let mut rows = [0; MAX_TABLES];
    let mut tags = [0; MAX_TABLES];
    let mut provider = None;
    for (i, table) in tables.iter().enumerate() {
        let window = &history[history.len().saturating_sub(table.len)..];
        let [row_hash, tag_hash] = table_hashes(i, block, window);
        let row = (row_hash % table.entries.len() as u64) as usize;
        let tag = (tag_hash >> (64 - TAG_BITS)) as u16;
        let entry = table.entries[row];
        if entry.valid && entry.tag == tag {
            provider = Some(i as u8); // tables iterate shortest→longest; keep last
        }
        rows[i] = row;
        tags[i] = tag;
    }
    Lookup {
        rows,
        tags,
        provider,
    }
}

impl SelfInvalidationPolicy for TagePredictor {
    fn name(&self) -> &'static str {
        "tage"
    }

    fn on_touch(&mut self, touch: Touch) -> bool {
        let max_len = self.max_len();
        let history = self.histories.entry(touch.block.index()).or_default();
        if matches!(touch.fill.map(|f| f.kind), Some(FillKind::Demand)) {
            history.clear();
        }
        history.push(touch.pc);
        let keep = history.len().saturating_sub(max_len);
        if keep > 0 {
            history.drain(..keep);
        }
        let lookup = lookup(&self.tables, touch.block, history);
        let confident = lookup
            .provider
            .map(usize::from)
            .is_some_and(|i| self.tables[i].entries[lookup.rows[i]].ctr.is_saturated());
        let fire = confident && (self.config.self_invalidate_shared || touch.exclusive);
        if fire {
            self.histories.remove(&touch.block.index());
            self.last_lookup.remove(&touch.block.index());
            self.pending.push(touch.block, lookup);
        } else {
            self.last_lookup.insert(touch.block.index(), lookup);
        }
        fire
    }

    fn on_invalidation(&mut self, block: BlockId) {
        self.histories.remove(&block.index());
        let Some(lookup) = self.last_lookup.remove(&block.index()) else {
            return;
        };
        if lookup.provider.is_some() {
            self.with_provider(&lookup, |entry| entry.ctr.strengthen());
        } else {
            self.allocate(&lookup);
        }
    }

    fn on_verification(&mut self, block: BlockId, outcome: VerifyOutcome) {
        let Some(lookup) = self.pending.pop(block) else {
            debug_assert!(false, "verification without a pending prediction");
            return;
        };
        let penalty = self.config.premature_penalty;
        match outcome {
            VerifyOutcome::Correct => {
                self.with_provider(&lookup, |entry| entry.ctr.strengthen());
            }
            VerifyOutcome::Premature => {
                self.with_provider(&lookup, |entry| match penalty {
                    PrematurePenalty::Weaken => entry.ctr.weaken(),
                    PrematurePenalty::Reset => entry.ctr = TwoBitCounter::new(0),
                });
            }
        }
    }

    fn storage(&self) -> StorageStats {
        StorageStats {
            blocks_tracked: self.histories.len() as u64,
            live_entries: self
                .tables
                .iter()
                .flat_map(|t| t.entries.iter())
                .filter(|e| e.valid)
                .count() as u64,
            signature_bits: TAG_BITS as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_sim::SimRng;

    /// The byte-wise FNV-1a the folded hashes must equal: seeded offset
    /// basis, then every little-endian byte of (table id, block, window).
    fn bytewise_hash(seed: u64, table: usize, block: BlockId, window: &[Pc]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(table as u64);
        mix(block.index());
        for pc in window {
            mix(u64::from(pc.value()));
        }
        h
    }

    /// A value of random magnitude: zero, small, `u32`-wide or full-width.
    fn any_width(rng: &mut SimRng) -> u64 {
        match rng.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.below(256),
            3 => rng.next_u64() >> 32,
            4 => (1 << 32) + rng.below(1 << 40),
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    #[test]
    fn folded_hashes_equal_bytewise_fnv1a() {
        for seed in 0..8 {
            let mut rng = SimRng::from_seed(seed);
            for _ in 0..200 {
                let tables = 1 + rng.below(MAX_TABLES as u64) as usize;
                let size = 1 + rng.below(4096) as usize;
                let t = TagePredictor::new(tables, size, PredictorConfig::default());
                let block = BlockId::new(any_width(&mut rng));
                let history: Vec<Pc> = (0..rng.below(257))
                    .map(|_| Pc::new(any_width(&mut rng) as u32))
                    .collect();
                let l = lookup(&t.tables, block, &history);
                for (i, table) in t.tables.iter().enumerate() {
                    let window = &history[history.len().saturating_sub(table.len)..];
                    let row_hash = bytewise_hash(0, i, block, window);
                    let tag_hash = bytewise_hash(TAG_SEED, i, block, window);
                    assert_eq!(table_hashes(i, block, window), [row_hash, tag_hash]);
                    let row = (row_hash % size as u64) as usize;
                    assert_eq!(
                        (l.rows[i], l.tags[i]),
                        (row, (tag_hash >> (64 - TAG_BITS)) as u16)
                    );
                }
                // The fold itself, from an arbitrary state.
                let (h, v) = (rng.next_u64(), any_width(&mut rng));
                let mut expect = h;
                for byte in v.to_le_bytes() {
                    expect = (expect ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                assert_eq!(fnv1a_fold([h], v), [expect], "v = {v:#x}");
            }
        }
    }

    fn touch(block: u64, pc: u32, demand: bool) -> Touch {
        Touch {
            block: BlockId::new(block),
            pc: Pc::new(pc),
            is_write: true,
            exclusive: true,
            fill: demand.then_some(crate::policy::FillInfo {
                kind: FillKind::Demand,
                dir_version: 0,
                migratory_upgrade: false,
            }),
        }
    }

    #[test]
    fn learns_a_repeated_trace() {
        let mut t = TagePredictor::new(4, 64, PredictorConfig::default());
        let mut fired = false;
        for _ in 0..4 {
            assert!(!t.on_touch(touch(9, 0x100, true)));
            if t.on_touch(touch(9, 0x104, false)) {
                fired = true;
                t.on_verification(BlockId::new(9), VerifyOutcome::Correct);
            } else {
                t.on_invalidation(BlockId::new(9));
            }
        }
        assert!(fired, "two confirmations saturate the allocated counter");
    }

    #[test]
    fn premature_reset_suppresses() {
        let mut t = TagePredictor::new(2, 64, PredictorConfig::default());
        while !t.on_touch(touch(9, 0x100, true)) {
            t.on_invalidation(BlockId::new(9));
        }
        t.on_verification(BlockId::new(9), VerifyOutcome::Premature);
        // Counter reset: the very next identical touch cannot fire.
        assert!(!t.on_touch(touch(9, 0x100, true)));
    }

    #[test]
    fn tiny_tables_alias_without_panicking() {
        let mut t = TagePredictor::new(3, 2, PredictorConfig::default());
        for b in 0..64u64 {
            t.on_touch(touch(b, 0x100 + b as u32, true));
            t.on_invalidation(BlockId::new(b));
        }
        assert!(t.storage().live_entries <= 3 * 2);
    }
}
