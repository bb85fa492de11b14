//! The statistical-flow-graph walk (paper §3.2 steps 1, 6, 8, 9).

use perfclone_profile::{ProfileError, WorkloadProfile};
use rand::rngs::StdRng;
use rand::Rng;

use crate::SynthError;

/// One basic-block instance produced by the walk: which SFG node to
/// instantiate and which node preceded it (for context-sensitive
/// dependency statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockInstance {
    /// SFG node index.
    pub node: u32,
    /// Predecessor node index, `u32::MAX` when the instance was (re)seeded
    /// from the occurrence CDF.
    pub pred: u32,
}

/// Walks the SFG: seed a node from the occurrence-frequency CDF (step 1),
/// follow outgoing-edge probabilities (step 8), decrement occurrences
/// (step 6), and reseed whenever a node has no successors (step 8), until
/// `target_blocks` instances exist (step 9).
///
/// # Errors
///
/// Returns [`SynthError::InvalidProfile`] for an empty profile and
/// [`SynthError::WalkBudgetExhausted`] if the walk somehow outruns its
/// instance budget (the runaway guard for degenerate flow graphs).
pub(crate) fn walk_sfg(
    profile: &WorkloadProfile,
    target_blocks: u32,
    body_budget: u32,
    rng: &mut StdRng,
) -> Result<Vec<BlockInstance>, SynthError> {
    if profile.nodes.is_empty() {
        return Err(SynthError::InvalidProfile(ProfileError::Empty { name: profile.name.clone() }));
    }
    // Scale each node's occurrence count to the clone's size (step 6 only
    // works if the counts are commensurate with the number of blocks being
    // generated): node i gets a quota proportional to its execution
    // frequency, with at least one instance, sized so the total body fits
    // the instruction budget.
    let total_execs: f64 = profile.nodes.iter().map(|n| n.execs as f64).sum();
    let mean_size: f64 =
        profile.nodes.iter().map(|n| n.execs as f64 * f64::from(n.size.max(1))).sum::<f64>()
            / total_execs.max(1.0);
    let slots = if body_budget == u32::MAX {
        u64::from(target_blocks)
    } else {
        ((f64::from(body_budget) / mean_size.max(1.0)) as u64).clamp(1, u64::from(target_blocks))
    };
    let mut remaining: Vec<f64> = profile
        .nodes
        .iter()
        .map(|n| ((n.execs as f64 / total_execs.max(1.0)) * slots as f64).round().max(1.0))
        .collect();
    // Pre-resolve successor lists.
    let succs: Vec<Vec<(u32, f64)>> =
        (0..profile.nodes.len()).map(|i| profile.successors(i as u32)).collect();

    // Every iteration consumes one unit of some node's quota, so the
    // instance count is bounded by the quota total. The explicit budget is
    // the runaway backstop should that invariant ever break (e.g. a future
    // edit that forgets to decrement) — better a typed error than a hang.
    let instance_budget = (remaining.iter().map(|&r| r as usize).sum::<usize>()).saturating_add(16);

    let mut out = Vec::new();
    let mut body = 0u32;
    let mut reseeds = 0u64;
    let mut cur: Option<(u32, u32)> = None; // (node, pred)
    loop {
        if out.len() >= instance_budget {
            return Err(SynthError::WalkBudgetExhausted {
                instances: out.len(),
                budget: instance_budget,
            });
        }
        let (node, pred) = match cur.take() {
            Some(np) if remaining[np.0 as usize] > 0.0 => np,
            _ => {
                if remaining.iter().all(|&r| r <= 0.0) {
                    break;
                }
                reseeds += 1;
                (sample_cdf(&remaining, rng), u32::MAX)
            }
        };
        // The instruction budget keeps the clone's static footprint (and
        // thus its I-cache behaviour) commensurate with the original even
        // when blocks are huge (unrolled crypto rounds, say).
        let size = profile.nodes[node as usize].size.max(1);
        // Quotas already total about one budget; the hard stop at twice
        // the budget is a backstop against quota-floor inflation on
        // profiles with very many rarely-executed nodes.
        if !out.is_empty() && body.saturating_add(size) > body_budget.saturating_mul(2) {
            break;
        }
        body = body.saturating_add(size);
        out.push(BlockInstance { node, pred });
        remaining[node as usize] -= 1.0;

        let outgoing = &succs[node as usize];
        if outgoing.is_empty() {
            continue; // reseed next iteration (step 8)
        }
        let next = sample_edges(outgoing, rng);
        cur = Some((next, node));
    }
    // Published once per walk (the loop itself stays telemetry-free).
    perfclone_obs::count!("synth.walk.steps", out.len() as u64);
    perfclone_obs::count!("synth.walk.reseeds", reseeds);
    perfclone_obs::count!("synth.walk.body_instrs", u64::from(body));
    perfclone_obs::record!("synth.walk.instance_budget", instance_budget as u64);
    Ok(out)
}

fn sample_cdf(weights: &[f64], rng: &mut StdRng) -> u32 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        // All occurrences consumed: fall back to uniform.
        return rng.gen_range(0..weights.len()) as u32;
    }
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i as u32;
        }
    }
    weights.len() as u32 - 1
}

fn sample_edges(edges: &[(u32, f64)], rng: &mut StdRng) -> u32 {
    let mut x = rng.gen::<f64>();
    for (to, p) in edges {
        x -= p;
        if x <= 0.0 {
            return *to;
        }
    }
    // Callers only reach here with a non-empty edge list; node 0 is the
    // harmless reseed target should that ever change.
    edges.last().map(|e| e.0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfclone_profile::{BlockProfile, EdgeProfile};
    use rand::SeedableRng;

    fn two_node_profile(bias: u64) -> WorkloadProfile {
        let block = |pc: u32, execs: u64| BlockProfile {
            start_pc: pc,
            size: 4,
            execs,
            class_counts: [0; 10],
            mem_ops: vec![],
            branch: None,
        };
        WorkloadProfile {
            name: "t".into(),
            total_instrs: 0,
            nodes: vec![block(0, bias), block(10, 100)],
            edges: vec![
                EdgeProfile { from: 0, to: 0, count: bias },
                EdgeProfile { from: 0, to: 1, count: bias / 9 },
                EdgeProfile { from: 1, to: 0, count: 100 },
            ],
            contexts: vec![],
            streams: vec![],
            branches: vec![],
        }
    }

    #[test]
    fn walk_produces_requested_count() {
        let p = two_node_profile(900);
        let mut rng = StdRng::seed_from_u64(1);
        let w = walk_sfg(&p, 200, u32::MAX, &mut rng).unwrap();
        // Quota rounding may move the count by a node or two.
        assert!((195..=205).contains(&w.len()), "got {} instances", w.len());
    }

    #[test]
    fn walk_respects_frequencies() {
        let p = two_node_profile(900);
        let mut rng = StdRng::seed_from_u64(2);
        let w = walk_sfg(&p, 500, u32::MAX, &mut rng).unwrap();
        let hot = w.iter().filter(|b| b.node == 0).count();
        // Node 0 executes 9x more often; the walk should reflect that.
        assert!(hot > 300, "hot node visited only {hot}/500 times");
    }

    #[test]
    fn predecessors_follow_edges() {
        let p = two_node_profile(900);
        let mut rng = StdRng::seed_from_u64(3);
        let w = walk_sfg(&p, 300, u32::MAX, &mut rng).unwrap();
        for pair in w.windows(2) {
            if pair[1].pred != u32::MAX {
                assert_eq!(pair[1].pred, pair[0].node);
            }
        }
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let p = two_node_profile(900);
        let a = walk_sfg(&p, 100, u32::MAX, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = walk_sfg(&p, 100, u32::MAX, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_profile_yields_typed_error() {
        let mut p = two_node_profile(900);
        p.nodes.clear();
        let err = walk_sfg(&p, 100, u32::MAX, &mut StdRng::seed_from_u64(8)).unwrap_err();
        assert!(matches!(err, SynthError::InvalidProfile(_)), "got {err:?}");
    }
}
