//! Shard partitioning for the parallel data plane.
//!
//! The fabric steps each shard's switches on its own thread, so a good
//! partition (a) balances switch counts — the per-slot barrier makes the
//! slowest shard the critical path — and (b) keeps the cut small, since
//! every edge crossing the cut is a mailbox a departure may have to cross.
//! Exact min-cut balanced partitioning is NP-hard; this is the classic
//! greedy region-growing heuristic: seed each region at the
//! lowest-numbered unassigned switch, then repeatedly absorb the frontier
//! switch with the most links into the region (ties to the lowest id), BFS
//! order as a fallback when the frontier is empty (disconnected graphs).
//! Deterministic by construction — no randomness, no hash iteration.

use crate::{SwitchId, Topology};

/// Assigns each switch a shard in `0..shards`, balancing region sizes to
/// within one switch and greedily minimising the number of cut links.
/// `shards` is clamped to `1..=switch_count` (an empty topology yields an
/// empty plan). The result is deterministic for a given topology.
pub fn partition_switches(topo: &Topology, shards: usize) -> Vec<u32> {
    let n = topo.switch_count();
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, n);
    let mut plan = vec![u32::MAX; n];
    // Region size quotas: the first `n % shards` regions get one extra.
    let base = n / shards;
    let extra = n % shards;
    let mut assigned = 0usize;
    for shard in 0..shards {
        let quota = base + usize::from(shard < extra);
        if quota == 0 {
            continue;
        }
        // Seed at the lowest unassigned switch.
        let seed = (0..n)
            .find(|&i| plan[i] == u32::MAX)
            .expect("quotas sum to n");
        plan[seed] = shard as u32;
        assigned += 1;
        let mut region = vec![SwitchId(seed as u16)];
        for _ in 1..quota {
            // Pick the unassigned switch with the most links into the
            // region; scan the region's neighborhoods so the cost is
            // O(region × degree) per absorption.
            let mut best: Option<(usize, usize)> = None; // (links_in, idx)
            let mut counted = vec![0usize; n];
            for &r in &region {
                for nb in topo.switch_neighbors(r) {
                    let i = nb.0 as usize;
                    if plan[i] == u32::MAX {
                        counted[i] += 1;
                    }
                }
            }
            for (i, &c) in counted.iter().enumerate() {
                if c > 0 && plan[i] == u32::MAX {
                    let better = match best {
                        None => true,
                        Some((bc, bi)) => c > bc || (c == bc && i < bi),
                    };
                    if better {
                        best = Some((c, i));
                    }
                }
            }
            let pick = match best {
                Some((_, i)) => i,
                // Disconnected frontier: fall back to the lowest
                // unassigned switch anywhere.
                None => (0..n).find(|&i| plan[i] == u32::MAX).expect("quota left"),
            };
            plan[pick] = shard as u32;
            assigned += 1;
            region.push(SwitchId(pick as u16));
        }
    }
    debug_assert_eq!(assigned, n);
    debug_assert!(plan.iter().all(|&s| (s as usize) < shards));
    plan
}

/// The number of links whose endpoints land in different shards — the
/// mailbox traffic a plan implies. Observability for tests and benches.
pub fn cut_links(topo: &Topology, plan: &[u32]) -> usize {
    topo.switch_links()
        .filter(|&(_, x, y)| plan[x.0 as usize] != plan[y.0 as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn covers_every_switch_with_balanced_regions() {
        let topo = generators::torus(6, 6);
        for shards in [1, 2, 3, 4, 7] {
            let plan = partition_switches(&topo, shards);
            assert_eq!(plan.len(), 36);
            let mut sizes = vec![0usize; shards];
            for &s in &plan {
                sizes[s as usize] += 1;
            }
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced {shards}-way plan: {sizes:?}");
        }
    }

    #[test]
    fn one_shard_is_trivial_and_oversharding_clamps() {
        let topo = generators::line(3);
        assert_eq!(partition_switches(&topo, 1), vec![0, 0, 0]);
        let plan = partition_switches(&topo, 64);
        assert_eq!(plan.len(), 3);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn regions_prefer_connected_growth() {
        // A line cut in half should split at one edge: exactly one cut link.
        let topo = generators::line(8);
        let plan = partition_switches(&topo, 2);
        assert_eq!(cut_links(&topo, &plan), 1, "plan {plan:?}");
    }

    #[test]
    fn deterministic() {
        let topo = generators::torus(4, 4);
        assert_eq!(partition_switches(&topo, 4), partition_switches(&topo, 4));
    }
}
