//! The serializable workload-profile model — the artifact a vendor
//! disseminates in place of the proprietary application.

#[allow(unused_imports)] // referenced by intra-doc links
use perfclone_isa::InstrClass;
use serde::{Deserialize, Serialize};

use crate::error::ProfileError;
use crate::hist::DepHistogram;

/// Profile of one node (dynamic basic block) of the statistical flow graph.
///
/// A block is identified by its start pc and runs to the first control
/// transfer at or after it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockProfile {
    /// Start pc of the block (identifies the node).
    pub start_pc: u32,
    /// Number of instructions in the block.
    pub size: u32,
    /// Dynamic execution count of the block.
    pub execs: u64,
    /// Static instruction-class counts over the block body, indexed by
    /// [`InstrClass::index`].
    pub class_counts: [u32; 10],
    /// Indices into [`WorkloadProfile::streams`] for the block's static
    /// loads/stores, in program order.
    pub mem_ops: Vec<u32>,
    /// Index into [`WorkloadProfile::branches`] when the block ends in a
    /// conditional branch.
    pub branch: Option<u32>,
}

impl BlockProfile {
    /// The block's instruction-mix fractions.
    pub fn mix(&self) -> [f64; 10] {
        let total: u32 = self.class_counts.iter().sum();
        let mut out = [0.0; 10];
        if total > 0 {
            for (o, c) in out.iter_mut().zip(self.class_counts.iter()) {
                *o = f64::from(*c) / f64::from(total);
            }
        }
        out
    }
}

/// One edge of the statistical flow graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeProfile {
    /// Source node index.
    pub from: u32,
    /// Destination node index.
    pub to: u32,
    /// Number of times the transition was observed.
    pub count: u64,
}

/// Dependency-distance statistics for one (predecessor, block) context
/// (§3.1.1: characteristics are kept per unique predecessor/successor pair).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContextProfile {
    /// Predecessor node index (`u32::MAX` for the program entry).
    pub pred: u32,
    /// Node index.
    pub node: u32,
    /// Times this context executed.
    pub count: u64,
    /// Register producer→consumer distance histogram.
    pub reg_deps: DepHistogram,
    /// Memory (store→load) distance histogram.
    pub mem_deps: DepHistogram,
}

/// Stride statistics for one static load or store (§3.1.4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StreamProfile {
    /// The static instruction's pc.
    pub pc: u32,
    /// `true` when the instruction is a store.
    pub is_store: bool,
    /// Dynamic executions.
    pub execs: u64,
    /// The most frequently observed stride (bytes). Zero when the
    /// instruction executed fewer than twice.
    pub dominant_stride: i64,
    /// Dynamic references (after the first) using the dominant stride.
    pub dominant_count: u64,
    /// Mean run length of constant-stride runs at the dominant stride.
    pub mean_run_len: f64,
    /// Number of distinct strides observed (capped during collection).
    pub distinct_strides: u32,
    /// Access width in bytes.
    pub width: u8,
    /// Lowest byte address touched.
    pub min_addr: u64,
    /// Highest byte address touched.
    pub max_addr: u64,
    /// Run breaks whose jump moved forward (continuing through the data
    /// object).
    pub fwd_breaks: u64,
    /// Run breaks whose jump moved backward (returning to re-walk a
    /// region).
    pub back_breaks: u64,
    /// Mean backward-jump magnitude in bytes (0 when none occurred).
    pub mean_back_jump: f64,
}

/// Direction statistics for one static conditional branch (§3.1.5).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BranchProfile {
    /// The branch's pc.
    pub pc: u32,
    /// Dynamic executions.
    pub execs: u64,
    /// Times the branch was taken.
    pub taken: u64,
    /// Times the branch switched direction relative to its previous
    /// execution.
    pub transitions: u64,
    /// Times a per-branch order-4 direction-history model predicted the
    /// next direction correctly — an information-theoretic measure of the
    /// direction sequence's structure (microarchitecture independent; it
    /// is a property of the sequence, like the transition rate, not of
    /// any hardware predictor).
    pub history_hits: u64,
}

impl BranchProfile {
    /// Fraction of executions that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.taken as f64 / self.execs as f64
        }
    }

    /// Fraction of executions that switched direction (Haungs et al.).
    pub fn transition_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.transitions as f64 / self.execs as f64
        }
    }

    /// Fraction of executions the order-4 history model anticipated — near
    /// 1.0 for structured sequences (biased, alternating, periodic), near
    /// `max(t, 1-t)` for patternless ones.
    pub fn predictability(&self) -> f64 {
        if self.execs == 0 {
            1.0
        } else {
            self.history_hits as f64 / self.execs as f64
        }
    }
}

/// A complete microarchitecture-independent workload profile.
///
/// Produced by [`Profiler`](crate::Profiler); consumed by the
/// `perfclone-synth` clone generator and by the Figure-3 style
/// characterization reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Name of the profiled program.
    pub name: String,
    /// Total retired instructions profiled.
    pub total_instrs: u64,
    /// Statistical-flow-graph nodes.
    pub nodes: Vec<BlockProfile>,
    /// Statistical-flow-graph edges (transition counts).
    pub edges: Vec<EdgeProfile>,
    /// Per-(predecessor, node) dependency statistics.
    pub contexts: Vec<ContextProfile>,
    /// Per-static-load/store stream statistics.
    pub streams: Vec<StreamProfile>,
    /// Per-static-branch direction statistics.
    pub branches: Vec<BranchProfile>,
}

impl WorkloadProfile {
    /// Global dynamic instruction mix over the whole run.
    pub fn global_mix(&self) -> [f64; 10] {
        mix_of(&self.class_counts())
    }

    /// Dynamic instructions per class over the whole run: each node's
    /// class counts times its executions.
    pub(crate) fn class_counts(&self) -> [u64; 10] {
        let mut counts = [0u64; 10];
        for node in &self.nodes {
            for (i, c) in node.class_counts.iter().enumerate() {
                counts[i] += u64::from(*c) * node.execs;
            }
        }
        counts
    }

    /// Fraction of dynamic memory references covered by approximating each
    /// static load/store with its single most frequent stride — the metric
    /// of the paper's Figure 3.
    pub fn stride_coverage(&self) -> f64 {
        let mut covered = 0u64;
        let mut total = 0u64;
        for s in &self.streams {
            // The first access of a static op has no stride; count it as
            // covered, as the stream model reproduces it exactly.
            covered += s.dominant_count + 1;
            total += s.execs.max(1);
        }
        if total == 0 {
            1.0
        } else {
            (covered as f64 / total as f64).min(1.0)
        }
    }

    /// Number of unique streams (static memory instructions) the stride
    /// model needs for this program — the paper's "unique streams" count.
    pub fn unique_streams(&self) -> usize {
        self.streams.len()
    }

    /// Dynamic-execution-weighted mean basic-block size.
    pub fn mean_block_size(&self) -> f64 {
        let (mut wsum, mut w) = (0.0, 0.0);
        for n in &self.nodes {
            wsum += f64::from(n.size) * n.execs as f64;
            w += n.execs as f64;
        }
        if w == 0.0 {
            0.0
        } else {
            wsum / w
        }
    }

    /// Serializes the profile to JSON.
    ///
    /// # Errors
    ///
    /// Returns any underlying `serde_json` error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes a profile from JSON.
    ///
    /// # Errors
    ///
    /// Returns any underlying `serde_json` error.
    pub fn from_json(s: &str) -> Result<WorkloadProfile, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Structurally validates the profile's cross-references and statistics.
    ///
    /// Synthesis stages call this before indexing `streams`, `branches`, or
    /// `nodes`, so a corrupted, truncated, or hand-edited profile surfaces a
    /// typed [`ProfileError`] naming the first broken invariant instead of
    /// panicking on an out-of-bounds index downstream.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found: an empty node list,
    /// dangling edge/context/stream/branch references, direction counts
    /// exceeding executions, or non-finite stream statistics.
    pub fn check(&self) -> Result<(), ProfileError> {
        if self.nodes.is_empty() {
            return Err(ProfileError::Empty { name: self.name.clone() });
        }
        let nodes = self.nodes.len();
        for (i, e) in self.edges.iter().enumerate() {
            for node in [e.from, e.to] {
                if node as usize >= nodes {
                    return Err(ProfileError::EdgeNodeOutOfRange { edge: i, node, nodes });
                }
            }
        }
        for (i, c) in self.contexts.iter().enumerate() {
            if c.node as usize >= nodes {
                return Err(ProfileError::ContextNodeOutOfRange {
                    context: i,
                    node: c.node,
                    nodes,
                });
            }
            // `u32::MAX` is the entry-context sentinel, not a node index.
            if c.pred != u32::MAX && c.pred as usize >= nodes {
                return Err(ProfileError::ContextNodeOutOfRange {
                    context: i,
                    node: c.pred,
                    nodes,
                });
            }
        }
        for (ni, n) in self.nodes.iter().enumerate() {
            for &sid in &n.mem_ops {
                if sid as usize >= self.streams.len() {
                    return Err(ProfileError::StreamIndexOutOfRange {
                        node: ni,
                        index: sid,
                        streams: self.streams.len(),
                    });
                }
            }
            if let Some(bi) = n.branch {
                if bi as usize >= self.branches.len() {
                    return Err(ProfileError::BranchIndexOutOfRange {
                        node: ni,
                        index: bi,
                        branches: self.branches.len(),
                    });
                }
            }
        }
        for (i, b) in self.branches.iter().enumerate() {
            if b.taken > b.execs || b.transitions > b.execs || b.history_hits > b.execs {
                return Err(ProfileError::BranchCountsInconsistent { branch: i });
            }
        }
        for (i, s) in self.streams.iter().enumerate() {
            let finite = s.mean_run_len.is_finite() && s.mean_back_jump.is_finite();
            if s.min_addr > s.max_addr || !finite || s.mean_run_len < 0.0 {
                return Err(ProfileError::StreamStatsInvalid { stream: i });
            }
        }
        Ok(())
    }

    /// Outgoing edges of `node`, with transition probabilities.
    pub fn successors(&self, node: u32) -> Vec<(u32, f64)> {
        let total: u64 = self.edges.iter().filter(|e| e.from == node).map(|e| e.count).sum();
        if total == 0 {
            return Vec::new();
        }
        self.edges
            .iter()
            .filter(|e| e.from == node)
            .map(|e| (e.to, e.count as f64 / total as f64))
            .collect()
    }
}

/// Each class's share of the dynamic class counts `counts`, all zero
/// when they sum to zero.
pub(crate) fn mix_of(counts: &[u64; 10]) -> [f64; 10] {
    let total: u64 = counts.iter().sum();
    let mut out = [0.0; 10];
    if total > 0 {
        for (o, c) in out.iter_mut().zip(counts.iter()) {
            *o = *c as f64 / total as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "t".into(),
            total_instrs: 30,
            nodes: vec![BlockProfile {
                start_pc: 0,
                size: 3,
                execs: 10,
                class_counts: {
                    let mut c = [0u32; 10];
                    c[InstrClass::IntAlu.index()] = 2;
                    c[InstrClass::Branch.index()] = 1;
                    c
                },
                mem_ops: vec![],
                branch: Some(0),
            }],
            edges: vec![EdgeProfile { from: 0, to: 0, count: 9 }],
            contexts: vec![],
            streams: vec![StreamProfile {
                pc: 1,
                is_store: false,
                execs: 10,
                dominant_stride: 8,
                dominant_count: 9,
                mean_run_len: 9.0,
                distinct_strides: 1,
                width: 8,
                min_addr: 0x8000,
                max_addr: 0x8000 + 9 * 8,
                fwd_breaks: 0,
                back_breaks: 0,
                mean_back_jump: 0.0,
            }],
            branches: vec![BranchProfile {
                pc: 2,
                execs: 10,
                taken: 9,
                transitions: 2,
                history_hits: 8,
            }],
        }
    }

    #[test]
    fn mix_sums_to_one() {
        let p = tiny_profile();
        let sum: f64 = p.nodes[0].mix().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let gsum: f64 = p.global_mix().iter().sum();
        assert!((gsum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stride_coverage_counts_first_access() {
        let p = tiny_profile();
        assert!((p.stride_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_rates() {
        let b = BranchProfile { pc: 0, execs: 10, taken: 9, transitions: 2, history_hits: 8 };
        assert!((b.taken_rate() - 0.9).abs() < 1e-12);
        assert!((b.transition_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let p = tiny_profile();
        let s = p.to_json().unwrap();
        let q = WorkloadProfile::from_json(&s).unwrap();
        assert_eq!(q.name, "t");
        assert_eq!(q.nodes.len(), 1);
        assert_eq!(q.streams[0].dominant_stride, 8);
    }

    #[test]
    fn check_accepts_valid_and_names_violations() {
        let p = tiny_profile();
        assert!(p.check().is_ok());
        let mut q = p.clone();
        q.nodes[0].mem_ops = vec![7];
        assert!(matches!(q.check(), Err(ProfileError::StreamIndexOutOfRange { index: 7, .. })));
        let mut q = p.clone();
        q.edges[0].to = 9;
        assert!(matches!(q.check(), Err(ProfileError::EdgeNodeOutOfRange { node: 9, .. })));
        let mut q = p.clone();
        q.branches[0].taken = 99;
        assert!(matches!(q.check(), Err(ProfileError::BranchCountsInconsistent { .. })));
        let mut q = p.clone();
        q.streams[0].min_addr = q.streams[0].max_addr + 1;
        assert!(matches!(q.check(), Err(ProfileError::StreamStatsInvalid { stream: 0 })));
        let mut q = p;
        q.nodes.clear();
        assert!(matches!(q.check(), Err(ProfileError::Empty { .. })));
    }

    #[test]
    fn successors_normalize() {
        let mut p = tiny_profile();
        p.edges = vec![
            EdgeProfile { from: 0, to: 0, count: 3 },
            EdgeProfile { from: 0, to: 1, count: 1 },
        ];
        let succ = p.successors(0);
        let total: f64 = succ.iter().map(|(_, pr)| pr).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p.successors(42).is_empty());
    }
}
