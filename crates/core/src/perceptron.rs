//! A perceptron last-touch predictor (Jiménez & Lin-style, adapted from
//! branch prediction to the last-touch problem).
//!
//! Where the paper's [`crate::TracePredictor`] hashes the whole touch trace
//! into one signature and demands an exact match, the perceptron learns a
//! *weighted vote* over the recent touch history: each of the last `hist`
//! PCs that touched the block (plus a per-block bias) indexes a small
//! weight table, the weights are summed, and the block is self-invalidated
//! when the sum clears a threshold. Training is mistake-driven with
//! saturating arithmetic:
//!
//! * an external invalidation means the preceding touch *was* a last touch
//!   the predictor missed (or under-voted) — weights for that touch's
//!   feature vector are incremented, unless the vote already cleared the
//!   threshold;
//! * a verified-premature self-invalidation means the vote fired on a
//!   non-last touch — the fired feature vector's weights are decremented;
//! * weights clamp at ±(2^(bits−1) − 1) — they saturate, never wrap
//!   (`tests/predict_properties.rs` fuzzes this).
//!
//! Spec string: `perceptron[:bits=8][,hist=4][,size=256][,theta=8]`.

use crate::fast_hash::{fnv1a_fold, FxHashMap, FNV_OFFSET};

use crate::ltp::PredictorConfig;
use crate::offline::PendingFifo;
use crate::policy::{FillKind, SelfInvalidationPolicy, Touch, VerifyOutcome};
use crate::table::StorageStats;
use crate::types::{BlockId, Pc};

/// Default touch-history depth (feature positions).
pub const PERCEPTRON_DEFAULT_HIST: usize = 4;
/// Default rows per weight table.
pub const PERCEPTRON_DEFAULT_SIZE: usize = 256;
/// Default weight width in bits (weights clamp at ±(2^(bits−1) − 1)).
pub const PERCEPTRON_DEFAULT_BITS: u32 = 8;
/// Default firing threshold.
pub const PERCEPTRON_DEFAULT_THETA: i32 = 8;

/// The weight tables: one per history position, plus a bias table indexed
/// by block.
#[derive(Debug)]
struct Weights {
    size: usize,
    max: i32,
    /// `positions[position][row]`.
    positions: Vec<Vec<i32>>,
    bias: Vec<i32>,
}

impl Weights {
    /// FNV-1a over (position, value), folded into a table row.
    fn row(&self, position: u64, value: u64) -> usize {
        let [h] = fnv1a_fold(fnv1a_fold([FNV_OFFSET], position), value);
        (h % self.size as u64) as usize
    }

    /// Replaces `rows` with the feature rows under `history`: they index
    /// `positions` position-wise (the per-block bias row is computed
    /// separately). Missing history positions hash a sentinel so short
    /// histories still produce a full vector.
    fn features(&self, history: &[Pc], rows: &mut Vec<usize>) {
        rows.clear();
        rows.extend((0..self.positions.len()).map(|j| {
            let pc = history
                .len()
                .checked_sub(j + 1)
                .map_or(u64::MAX, |i| u64::from(history[i].value()));
            self.row(j as u64, pc)
        }));
    }

    fn vote(&self, block: BlockId, rows: &[usize]) -> i32 {
        let mut y = self.bias[self.row(u64::MAX, block.index())];
        for (table, &row) in self.positions.iter().zip(rows) {
            y += table[row];
        }
        y
    }

    /// Saturating train: `delta` = ±1 applied to the bias row and every
    /// feature row, clamped to ±max.
    fn train(&mut self, block: BlockId, rows: &[usize], delta: i32) {
        let max = self.max;
        let bias_row = self.row(u64::MAX, block.index());
        let b = &mut self.bias[bias_row];
        *b = (*b + delta).clamp(-max, max);
        for (table, &row) in self.positions.iter_mut().zip(rows) {
            let w = &mut table[row];
            *w = (*w + delta).clamp(-max, max);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &i32> + '_ {
        self.positions.iter().flatten().chain(self.bias.iter())
    }
}

/// A block's most recent vote: the training example an external
/// invalidation rewards. The entry outlives the example so its row storage
/// is reused by the block's next touch.
#[derive(Debug, Default)]
struct LastVote {
    rows: Vec<usize>,
    y: i32,
    /// Whether an invalidation may still train on this vote.
    live: bool,
}

/// The perceptron last-touch predictor (see the module docs).
#[derive(Debug)]
pub struct PerceptronPredictor {
    hist: usize,
    theta: i32,
    config: PredictorConfig,
    weights: Weights,
    /// Per-block recent-PC history, newest last; reset on demand fills.
    histories: FxHashMap<u64, Vec<Pc>>,
    /// Per block: the feature rows and vote of the most recent touch.
    last_vote: FxHashMap<u64, LastVote>,
    /// Fired feature vectors awaiting directory verdicts, FIFO per block.
    pending: PendingFifo<Vec<usize>>,
    /// Feature vectors whose verdict arrived, reused by later fires.
    spare: Vec<Vec<usize>>,
}

impl PerceptronPredictor {
    /// Builds a predictor with the given geometry. `bits` ∈ 1..=31 is the
    /// weight width; `hist` the history depth; `size` the rows per table;
    /// `theta` the firing threshold.
    pub fn new(bits: u32, hist: usize, size: usize, theta: i32, config: PredictorConfig) -> Self {
        let bits = bits.clamp(1, 31);
        let hist = hist.max(1);
        let size = size.max(1);
        PerceptronPredictor {
            hist,
            theta,
            config,
            weights: Weights {
                size,
                max: (1i32 << (bits - 1)) - 1,
                positions: vec![vec![0; size]; hist],
                bias: vec![0; size],
            },
            histories: FxHashMap::default(),
            last_vote: FxHashMap::default(),
            pending: PendingFifo::new(),
            spare: Vec::new(),
        }
    }

    /// The largest weight magnitude currently stored — bounded by
    /// ±(2^(bits−1) − 1) at all times (fuzzed in `tests/`).
    pub fn max_abs_weight(&self) -> i32 {
        self.weights.iter().map(|w| w.abs()).max().unwrap_or(0)
    }
}

impl SelfInvalidationPolicy for PerceptronPredictor {
    fn name(&self) -> &'static str {
        "perceptron"
    }

    fn on_touch(&mut self, touch: Touch) -> bool {
        let history = self.histories.entry(touch.block.index()).or_default();
        if matches!(touch.fill.map(|f| f.kind), Some(FillKind::Demand)) {
            // A demand fill starts a fresh residency: the old history
            // belongs to a trace that already ended.
            history.clear();
        }
        history.push(touch.pc);
        let keep = history.len().saturating_sub(self.hist);
        if keep > 0 {
            history.drain(..keep);
        }
        let vote = self.last_vote.entry(touch.block.index()).or_default();
        self.weights.features(history, &mut vote.rows);
        vote.y = self.weights.vote(touch.block, &vote.rows);
        vote.live = true;
        let fire = vote.y >= self.theta && (self.config.self_invalidate_shared || touch.exclusive);
        if fire {
            let mut rows = self.spare.pop().unwrap_or_default();
            rows.clone_from(&vote.rows);
            self.histories.remove(&touch.block.index());
            self.pending.push(touch.block, rows);
        }
        fire
    }

    fn on_invalidation(&mut self, block: BlockId) {
        self.histories.remove(&block.index());
        // The touch we last voted on turned out to be a last touch. Reward
        // its features if the vote failed to clear the threshold.
        if let Some(vote) = self.last_vote.get_mut(&block.index()) {
            if std::mem::take(&mut vote.live) && vote.y < self.theta {
                self.weights.train(block, &vote.rows, 1);
            }
        }
    }

    fn on_verification(&mut self, block: BlockId, outcome: VerifyOutcome) {
        let Some(rows) = self.pending.pop(block) else {
            debug_assert!(false, "verification without a pending prediction");
            return;
        };
        if outcome == VerifyOutcome::Premature {
            self.weights.train(block, &rows, -1);
        }
        self.spare.push(rows);
    }

    fn storage(&self) -> StorageStats {
        StorageStats {
            blocks_tracked: self.histories.len() as u64,
            live_entries: self.weights.iter().filter(|w| **w != 0).count() as u64,
            signature_bits: (self.weights.max as u64 + 1).ilog2() as u8 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_sim::SimRng;

    /// The byte-wise FNV-1a row the folded hash must equal.
    fn bytewise_row(size: usize, position: u64, value: u64) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in position
            .to_le_bytes()
            .into_iter()
            .chain(value.to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % size as u64) as usize
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
    fn folded_rows_equal_bytewise_fnv1a() {
        for seed in 0..8 {
            let mut rng = SimRng::from_seed(seed);
            for _ in 0..200 {
                let hist = 1 + rng.below(256) as usize;
                // Sizes up to 2^40 keep most of the hash in the row.
                let size_bits = rng.below(41);
                let size = 1 + rng.below(1 << size_bits) as usize;
                let pred = PerceptronPredictor::new(8, hist, 1, 8, PredictorConfig::default());
                let weights = Weights {
                    size,
                    ..pred.weights
                };
                let block = any_width(&mut rng);
                assert_eq!(
                    weights.row(u64::MAX, block),
                    bytewise_row(size, u64::MAX, block),
                    "bias row of block {block:#x}"
                );
                let (position, value) = (any_width(&mut rng), any_width(&mut rng));
                assert_eq!(
                    weights.row(position, value),
                    bytewise_row(size, position, value)
                );
                let history: Vec<Pc> = (0..rng.below(257))
                    .map(|_| Pc::new(any_width(&mut rng) as u32))
                    .collect();
                let mut rows = vec![usize::MAX; 3];
                weights.features(&history, &mut rows);
                let expect: Vec<usize> = (0..hist)
                    .map(|j| {
                        let pc = history
                            .len()
                            .checked_sub(j + 1)
                            .map_or(u64::MAX, |i| u64::from(history[i].value()));
                        bytewise_row(size, j as u64, pc)
                    })
                    .collect();
                assert_eq!(rows, expect);
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

    fn p() -> PerceptronPredictor {
        PerceptronPredictor::new(
            PERCEPTRON_DEFAULT_BITS,
            PERCEPTRON_DEFAULT_HIST,
            PERCEPTRON_DEFAULT_SIZE,
            PERCEPTRON_DEFAULT_THETA,
            PredictorConfig::default(),
        )
    }

    #[test]
    fn learns_a_repeated_last_touch() {
        let mut pred = p();
        let mut fired_round = None;
        for round in 0..20 {
            assert!(!pred.on_touch(touch(5, 0x100, true)));
            assert!(!pred.on_touch(touch(5, 0x104, false)));
            let fire = pred.on_touch(touch(5, 0x108, false));
            if fire {
                fired_round = Some(round);
                pred.on_verification(BlockId::new(5), VerifyOutcome::Correct);
            } else {
                pred.on_invalidation(BlockId::new(5));
            }
        }
        let round = fired_round.expect("perceptron learns the pattern");
        assert!(round >= 1, "cannot fire before any training");
    }

    #[test]
    fn premature_verdicts_untrain() {
        let mut pred = p();
        // Train until it fires...
        while !pred.on_touch(touch(5, 0x100, true)) {
            pred.on_invalidation(BlockId::new(5));
        }
        // ...then punish every fire; it must eventually stop firing.
        let mut stopped = false;
        for _ in 0..64 {
            if pred.on_touch(touch(5, 0x100, true)) {
                pred.on_verification(BlockId::new(5), VerifyOutcome::Premature);
            } else {
                stopped = true;
                break;
            }
        }
        assert!(
            stopped,
            "premature penalties must eventually suppress firing"
        );
    }

    #[test]
    fn weights_saturate() {
        let mut pred = PerceptronPredictor::new(3, 2, 8, 1000, PredictorConfig::default());
        // theta too high to ever fire => every invalidation trains +1.
        for _ in 0..1000 {
            pred.on_touch(touch(1, 0x100, true));
            pred.on_invalidation(BlockId::new(1));
        }
        assert_eq!(pred.max_abs_weight(), 3, "3-bit weights clamp at ±3");
    }
}
