//! Branch direction predictors.

use std::fmt;

/// The predictor families the experiments use (Table 2 uses the 2-level
/// GAp predictor; design change 4 swaps in always-not-taken).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Statically predict not-taken.
    NotTaken,
    /// Statically predict taken.
    Taken,
    /// Per-branch table of 2-bit saturating counters.
    Bimodal {
        /// log2 of the counter table size.
        table_bits: u32,
    },
    /// Two-level GAp: global history register indexing per-address pattern
    /// history tables of 2-bit counters.
    TwoLevelGAp {
        /// Global history length in bits.
        history_bits: u32,
        /// log2 of the number of per-address tables.
        addr_bits: u32,
    },
    /// Gshare: global history XOR pc indexing one counter table.
    Gshare {
        /// Global history length in bits (also table index width).
        history_bits: u32,
    },
    /// Two-level PAp: per-branch local history registers indexing
    /// per-branch pattern tables of 2-bit counters.
    TwoLevelPAp {
        /// Local history length in bits.
        history_bits: u32,
        /// log2 of the number of local-history registers / tables.
        addr_bits: u32,
    },
    /// Tournament: a bimodal and a gshare component with a 2-bit chooser
    /// (Alpha 21264 style).
    Tournament {
        /// Global history length of the gshare component.
        history_bits: u32,
        /// log2 of the bimodal and chooser table sizes.
        table_bits: u32,
    },
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorKind::NotTaken => write!(f, "not-taken"),
            PredictorKind::Taken => write!(f, "taken"),
            PredictorKind::Bimodal { table_bits } => write!(f, "bimodal-{}", 1u64 << table_bits),
            PredictorKind::TwoLevelGAp { history_bits, addr_bits } => {
                write!(f, "GAp-h{history_bits}a{addr_bits}")
            }
            PredictorKind::Gshare { history_bits } => write!(f, "gshare-h{history_bits}"),
            PredictorKind::TwoLevelPAp { history_bits, addr_bits } => {
                write!(f, "PAp-h{history_bits}a{addr_bits}")
            }
            PredictorKind::Tournament { history_bits, table_bits } => {
                write!(f, "tournament-h{history_bits}t{table_bits}")
            }
        }
    }
}

/// Prediction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub lookups: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl PredictorStats {
    /// Misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

/// A branch direction predictor with immediate update.
///
/// # Example
///
/// ```
/// use perfclone_uarch::{BranchPredictor, PredictorKind};
/// let mut p = BranchPredictor::new(PredictorKind::Bimodal { table_bits: 10 });
/// for _ in 0..100 {
///     p.predict_and_update(0x40, true);
/// }
/// // A always-taken branch trains to near-zero mispredictions.
/// assert!(p.stats().mispredict_rate() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    kind: PredictorKind,
    counters: Vec<u8>,
    /// Second counter table (tournament gshare component).
    counters2: Vec<u8>,
    /// Chooser table (tournament) — 0/1 favour bimodal, 2/3 favour gshare.
    chooser: Vec<u8>,
    /// Per-branch local history registers (PAp).
    local_hist: Vec<u64>,
    history: u64,
    history_mask: u64,
    stats: PredictorStats,
}

// `#[inline]` like `predict_and_update`, which both instantiations of the
// pipeline loop inline; without it the iterator one (`Pipeline::run`, in
// another crate) calls this through the GOT per conditional branch.
#[inline]
fn bump(c: &mut u8, taken: bool) {
    *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
}

impl BranchPredictor {
    /// Creates a predictor of the given kind with weakly-not-taken state.
    pub fn new(kind: PredictorKind) -> BranchPredictor {
        let (entries, entries2, choosers, locals, history_mask) = match kind {
            PredictorKind::NotTaken | PredictorKind::Taken => {
                (0usize, 0usize, 0usize, 0usize, 0u64)
            }
            PredictorKind::Bimodal { table_bits } => (1usize << table_bits, 0, 0, 0, 0),
            PredictorKind::TwoLevelGAp { history_bits, addr_bits } => {
                (1usize << (history_bits + addr_bits), 0, 0, 0, (1u64 << history_bits) - 1)
            }
            PredictorKind::Gshare { history_bits } => {
                (1usize << history_bits, 0, 0, 0, (1u64 << history_bits) - 1)
            }
            PredictorKind::TwoLevelPAp { history_bits, addr_bits } => (
                1usize << (history_bits + addr_bits),
                0,
                0,
                1usize << addr_bits,
                (1u64 << history_bits) - 1,
            ),
            PredictorKind::Tournament { history_bits, table_bits } => (
                1usize << table_bits,
                1usize << history_bits,
                1usize << table_bits,
                0,
                (1u64 << history_bits) - 1,
            ),
        };
        BranchPredictor {
            kind,
            counters: vec![1; entries], // weakly not-taken
            counters2: vec![1; entries2],
            chooser: vec![2; choosers], // weakly favour the history component
            local_hist: vec![0; locals],
            history: 0,
            history_mask,
            stats: PredictorStats::default(),
        }
    }

    /// The predictor kind.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// predictor with the actual `taken` outcome. Returns the prediction.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        self.stats.lookups += 1;
        let pred = match self.kind {
            PredictorKind::NotTaken => false,
            PredictorKind::Taken => true,
            PredictorKind::Bimodal { table_bits } => {
                let idx = (pc as usize) & ((1 << table_bits) - 1);
                let pred = self.counters[idx] >= 2;
                bump(&mut self.counters[idx], taken);
                pred
            }
            PredictorKind::TwoLevelGAp { history_bits, addr_bits } => {
                let table = (pc as u64) & ((1 << addr_bits) - 1);
                let idx = ((table << history_bits) | (self.history & self.history_mask)) as usize;
                let pred = self.counters[idx] >= 2;
                bump(&mut self.counters[idx], taken);
                self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
                pred
            }
            PredictorKind::Gshare { .. } => {
                let idx = (((pc as u64) ^ self.history) & self.history_mask) as usize;
                let pred = self.counters[idx] >= 2;
                bump(&mut self.counters[idx], taken);
                self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
                pred
            }
            PredictorKind::TwoLevelPAp { history_bits, addr_bits } => {
                let slot = ((pc as u64) & ((1 << addr_bits) - 1)) as usize;
                let local = self.local_hist[slot] & self.history_mask;
                let idx = (((slot as u64) << history_bits) | local) as usize;
                let pred = self.counters[idx] >= 2;
                bump(&mut self.counters[idx], taken);
                self.local_hist[slot] =
                    ((self.local_hist[slot] << 1) | u64::from(taken)) & self.history_mask;
                pred
            }
            PredictorKind::Tournament { table_bits, .. } => {
                let b_idx = (pc as usize) & ((1 << table_bits) - 1);
                let g_idx = (((pc as u64) ^ self.history) & self.history_mask) as usize;
                let b_pred = self.counters[b_idx] >= 2;
                let g_pred = self.counters2[g_idx] >= 2;
                let use_gshare = self.chooser[b_idx] >= 2;
                let pred = if use_gshare { g_pred } else { b_pred };
                // Chooser trains toward whichever component was right.
                if b_pred != g_pred {
                    bump(&mut self.chooser[b_idx], g_pred == taken);
                }
                bump(&mut self.counters[b_idx], taken);
                bump(&mut self.counters2[g_idx], taken);
                self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
                pred
            }
        };
        if pred != taken {
            self.stats.mispredicts += 1;
        }
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_predictors() {
        let mut nt = BranchPredictor::new(PredictorKind::NotTaken);
        assert!(!nt.predict_and_update(0, true));
        assert_eq!(nt.stats().mispredicts, 1);
        let mut t = BranchPredictor::new(PredictorKind::Taken);
        assert!(t.predict_and_update(0, true));
        assert_eq!(t.stats().mispredicts, 0);
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = BranchPredictor::new(PredictorKind::Bimodal { table_bits: 8 });
        for _ in 0..1000 {
            p.predict_and_update(12, true);
        }
        assert!(p.stats().mispredict_rate() < 0.01);
    }

    #[test]
    fn bimodal_fails_on_alternation_gap_learns_it() {
        // Alternating pattern T,N,T,N: bimodal oscillates; GAp's history
        // captures it perfectly after warmup.
        let mut bim = BranchPredictor::new(PredictorKind::Bimodal { table_bits: 8 });
        let mut gap =
            BranchPredictor::new(PredictorKind::TwoLevelGAp { history_bits: 8, addr_bits: 4 });
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            bim.predict_and_update(12, taken);
            gap.predict_and_update(12, taken);
        }
        assert!(bim.stats().mispredict_rate() > 0.3, "bimodal {}", bim.stats().mispredict_rate());
        assert!(gap.stats().mispredict_rate() < 0.05, "gap {}", gap.stats().mispredict_rate());
    }

    #[test]
    fn gap_separates_branches_by_address() {
        let mut p =
            BranchPredictor::new(PredictorKind::TwoLevelGAp { history_bits: 6, addr_bits: 4 });
        // Branch A always taken, branch B always not-taken, interleaved.
        for _ in 0..2000 {
            p.predict_and_update(1, true);
            p.predict_and_update(2, false);
        }
        assert!(p.stats().mispredict_rate() < 0.05);
    }

    #[test]
    fn gshare_learns_periodic_pattern() {
        let mut p = BranchPredictor::new(PredictorKind::Gshare { history_bits: 10 });
        for i in 0..4000u32 {
            p.predict_and_update(7, i % 4 == 0);
        }
        assert!(p.stats().mispredict_rate() < 0.1);
    }

    #[test]
    fn pap_learns_local_patterns_under_aliasing_pressure() {
        // Two branches with different periodic patterns: PAp's local
        // histories keep them apart where a single global history mixes
        // them.
        let mut p =
            BranchPredictor::new(PredictorKind::TwoLevelPAp { history_bits: 8, addr_bits: 4 });
        for i in 0..4000u32 {
            p.predict_and_update(1, i % 3 == 0);
            p.predict_and_update(2, i % 5 == 0);
        }
        assert!(p.stats().mispredict_rate() < 0.05, "{}", p.stats().mispredict_rate());
    }

    #[test]
    fn tournament_beats_both_components_on_mixed_branches() {
        // One strongly biased branch (bimodal's bread and butter) and one
        // alternating branch (history's): the tournament must handle both.
        let mut t =
            BranchPredictor::new(PredictorKind::Tournament { history_bits: 10, table_bits: 8 });
        for i in 0..4000u32 {
            t.predict_and_update(1, true);
            t.predict_and_update(2, i % 2 == 0);
        }
        assert!(t.stats().mispredict_rate() < 0.05, "{}", t.stats().mispredict_rate());
    }

    #[test]
    fn display_names() {
        assert_eq!(PredictorKind::NotTaken.to_string(), "not-taken");
        assert_eq!(
            PredictorKind::TwoLevelGAp { history_bits: 8, addr_bits: 4 }.to_string(),
            "GAp-h8a4"
        );
        assert_eq!(
            PredictorKind::TwoLevelPAp { history_bits: 6, addr_bits: 5 }.to_string(),
            "PAp-h6a5"
        );
        assert_eq!(
            PredictorKind::Tournament { history_bits: 10, table_bits: 8 }.to_string(),
            "tournament-h10t8"
        );
    }
}
