//! Experiment N6: scaling the partitioned parallel data plane.
//!
//! The fabric's conservative-lookahead sharding (switch groups stepped on
//! scoped threads, one barrier per slot, departures committed in canonical
//! switch order) is exercised on a 1024-switch fat-tree — `fat_tree(2, 8)`,
//! the largest AN2 installation in the repository — at 1/2/4/8 shards.
//!
//! Two numbers per shard count:
//!
//! * **wall clock** (and delivered cells/sec) — the honest end-to-end
//!   measurement on whatever machine runs the harness. On a single-core CI
//!   box, threads cannot beat sequential and per-slot spawn overhead makes
//!   more shards *slower*; the column is still recorded because on real
//!   multi-core hardware it is the headline.
//! * **model speedup** — `sum(shard work) / max(shard work)` over the
//!   per-shard busy switch-step counters the fabric accumulates. Under the
//!   per-slot barrier the busiest shard is the critical path, so this
//!   ratio is the parallel speedup the partition admits, independent of
//!   core count. It is what the acceptance gate checks for monotonicity.
//!
//! Every shard count must deliver byte-identical results — asserted here
//! over a full per-circuit stats digest, and proven more broadly by the
//! `mode_equiv` suite.

use crate::{circuit_digest, parallel};
use an2::{FabricConfig, TrafficClass};
use an2_cells::{Cell, Packet, Segmenter, VcId};
use an2_topology::paths::{self, HostWiring};
use an2_topology::{generators, partition_switches, HostId};
use std::fmt::Write;
use std::time::Instant;

/// The fat-tree workload, built once (untimed): one best-effort circuit per
/// host, to the partner found by flipping host bit `i mod 8` — a mix of
/// route lengths that exercises every tree level without funnelling all
/// traffic through one spine switch — with enough pre-segmented packets
/// that no outbox runs dry inside the measured window.
pub struct TreeScenario {
    topo_arity: usize,
    topo_levels: usize,
    circuits: Vec<(VcId, HostId, HostId, HostWiring, Vec<Cell>)>,
}

impl TreeScenario {
    /// Builds the workload on `fat_tree(arity, levels)` for a measured
    /// window of `slots` (sizes the per-circuit preload).
    pub fn new(arity: usize, levels: usize, slots: u64) -> Self {
        let topo = generators::fat_tree(arity, levels);
        let hosts = topo.host_count();
        let payload = vec![5u8; 7_950];
        let mut circuits = Vec::new();
        let host_bits = hosts.trailing_zeros().max(1) as usize;
        for i in 0..hosts {
            let src = HostId(i as u16);
            let dst = HostId((i ^ (1 << (i % host_bits))) as u16);
            let vc = VcId::new(100 + i as u32);
            let Some(parts) = paths::host_wiring(&topo, src, dst) else {
                continue;
            };
            let pkt = Packet::from_bytes(payload.clone());
            let per_packet = Segmenter::new(vc).segment(&pkt);
            // One cell per host per slot is the injection ceiling; round up
            // a packet so the window never drains the outbox.
            let packets = (slots as usize / per_packet.len()) + 1;
            let mut cells = Vec::with_capacity(per_packet.len() * packets);
            for _ in 0..packets {
                cells.extend_from_slice(&per_packet);
            }
            circuits.push((vc, src, dst, parts, cells));
        }
        TreeScenario {
            topo_arity: arity,
            topo_levels: levels,
            circuits,
        }
    }

    /// A loaded fabric at the given shard count (untimed setup).
    pub fn prepare(&self, seed: u64, shards: usize) -> an2::Fabric {
        let topo = generators::fat_tree(self.topo_arity, self.topo_levels);
        let mut f = an2::Fabric::new(topo, FabricConfig::default(), seed);
        f.set_shards(shards);
        for (vc, src, dst, parts, cells) in &self.circuits {
            let (sw, links, sl, dl) = parts.clone();
            f.open_circuit(*vc, *src, *dst, TrafficClass::BestEffort, sw, links, sl, dl);
            f.send_cells(*vc, cells.clone());
        }
        f
    }
}

/// The run's per-circuit stats digest and delivered cells.
fn stats_digest(f: &an2::Fabric, scenario: &TreeScenario) -> (u64, u64) {
    circuit_digest(scenario.circuits.iter().map(|(vc, ..)| f.stats(*vc)))
}

/// The most resident memory an empty 1024-switch fabric may add: state is
/// sized to what a scenario uses, not to configured maxima.
const EMPTY_FABRIC_RSS_LIMIT_MB: f64 = 32.0;

/// The process's resident set in MB (`VmRSS` of `/proc/self/status`), or
/// `None` where that file is absent.
fn vm_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resident-set growth in MB of building an empty fabric (no circuit) on
/// `fat_tree(arity, levels)`, or `None` where `VmRSS` cannot be read.
/// Memory the allocator kept from earlier work in the process can absorb
/// part of the growth, so this reads low, never high.
fn empty_fabric_rss_mb(arity: usize, levels: usize) -> Option<f64> {
    let before = vm_rss_mb()?;
    let topo = generators::fat_tree(arity, levels);
    let fabric = an2::Fabric::new(topo, FabricConfig::default(), 7);
    let grown = vm_rss_mb()? - before;
    drop(std::hint::black_box(fabric));
    Some(grown)
}

/// One point on the N6 scaling curve.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// Data-plane shards (1 = sequential stepping).
    pub shards: usize,
    /// Simulated slots in the measured window.
    pub slots: u64,
    /// Wall time of the measured window, milliseconds (fastest of 3).
    pub wall_ms: f64,
    /// Wall time of [`TreeScenario::prepare`] — building the topology and
    /// fabric, opening every circuit and loading its cells — milliseconds
    /// (fastest of 3).
    pub prepare_ms: f64,
    /// Delivered cells per wall-clock second.
    pub cells_per_sec: f64,
    /// `sum(shard work) / max(shard work)`: the speedup the partition
    /// admits under the per-slot barrier, independent of core count.
    pub model_speedup: f64,
    /// Inter-switch links crossing the shard cut (mailbox pairs).
    pub cut_links: usize,
    /// Cells delivered — byte-identical across shard counts.
    pub delivered_cells: u64,
}

/// N6 — the parallel data plane on the 1024-switch fat-tree, swept over
/// power-of-two shard counts up to [`parallel::shard_count`] (default 8).
/// Three interleaved runs per point, fastest wall time counts; stats
/// digests must match the sequential engine exactly, the model speedup
/// must grow monotonically from 1 through 4 shards, and an empty fabric on
/// the same tree must add at most 32 MB of resident memory (checked where
/// `/proc/self/status` exists).
pub fn n6_parallel_dataplane() -> (Vec<ShardScaling>, String) {
    let slots = 3_000u64;
    let (arity, levels) = (2, 8); // 1024 switches, 256 hosts

    // Measured first, before the sweep's own allocations can be reused.
    let empty_rss_mb = empty_fabric_rss_mb(arity, levels);
    if let Some(mb) = empty_rss_mb {
        assert!(
            mb <= EMPTY_FABRIC_RSS_LIMIT_MB,
            "an empty fat_tree({arity}, {levels}) fabric grew VmRSS by {mb:.1} MB \
             (limit {EMPTY_FABRIC_RSS_LIMIT_MB} MB)"
        );
    }
    let scenario = TreeScenario::new(arity, levels, slots);
    let max_shards = parallel::shard_count();
    let mut sweep = vec![1usize];
    while *sweep.last().expect("non-empty") * 2 <= max_shards {
        sweep.push(sweep.last().expect("non-empty") * 2);
    }

    let topo = generators::fat_tree(arity, levels);
    let mut rows: Vec<ShardScaling> = Vec::new();
    let mut base: Option<(u64, u64)> = None;
    for &shards in &sweep {
        let mut wall_ms = f64::MAX;
        let mut prepare_ms = f64::MAX;
        let mut digest = (0u64, 0u64);
        let mut model_speedup = 1.0;
        for _ in 0..3 {
            let t = Instant::now();
            let mut f = scenario.prepare(7, shards);
            prepare_ms = prepare_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            f.step(slots);
            wall_ms = wall_ms.min(t.elapsed().as_secs_f64() * 1e3);
            digest = stats_digest(&f, &scenario);
            let work = f.shard_work();
            let total: u64 = work.iter().sum();
            let max = work.iter().copied().max().unwrap_or(1).max(1);
            model_speedup = total as f64 / max as f64;
        }
        match &base {
            None => base = Some(digest),
            Some(b) => assert_eq!(
                *b, digest,
                "{shards}-shard run diverged from the sequential digest"
            ),
        }
        let plan = partition_switches(&topo, shards);
        rows.push(ShardScaling {
            shards,
            slots,
            wall_ms,
            prepare_ms,
            cells_per_sec: digest.1 as f64 / (wall_ms / 1e3),
            model_speedup,
            cut_links: an2_topology::cut_links(&topo, &plan),
            delivered_cells: digest.1,
        });
    }
    // The acceptance gate: the partition must admit monotonically growing
    // parallelism from 1 through 4 shards.
    for pair in rows.windows(2) {
        if pair[1].shards <= 4 {
            assert!(
                pair[1].model_speedup >= pair[0].model_speedup,
                "model speedup regressed from {} shards ({:.2}) to {} ({:.2})",
                pair[0].shards,
                pair[0].model_speedup,
                pair[1].shards,
                pair[1].model_speedup
            );
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "N6  parallel data plane: {} switches ({}-ary {}-level fat-tree), \
         {} circuits, conservative per-slot barrier",
        topo.switch_count(),
        arity,
        levels,
        scenario.circuits.len()
    );
    let _ = match empty_rss_mb {
        Some(mb) => writeln!(
            out,
            "empty fabric: +{mb:.1} MB VmRSS (limit {EMPTY_FABRIC_RSS_LIMIT_MB} MB)"
        ),
        None => writeln!(out, "empty fabric: VmRSS unavailable, limit not checked"),
    };
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>10} {:>9} {:>12} {:>14} {:>10} {:>11}",
        "shards",
        "slots",
        "prepare ms",
        "wall ms",
        "Mcells/s",
        "model speedup",
        "cut links",
        "delivered"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>10.1} {:>9.1} {:>12.2} {:>13.2}x {:>10} {:>11}",
            r.shards,
            r.slots,
            r.prepare_ms,
            r.wall_ms,
            r.cells_per_sec / 1e6,
            r.model_speedup,
            r.cut_links,
            r.delivered_cells
        );
    }
    let _ = writeln!(
        out,
        "identical stats digests at every shard count (the mode_equiv \
         suite proves the same over random workloads, faults and \
         tracing); model speedup = sum/max of per-shard busy switch-steps — \
         the critical path under the barrier — while wall clock reflects \
         the harness machine's actual core count"
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tree_shard_sweep_is_deterministic() {
        // A 32-switch instance of the N6 workload: every shard count must
        // produce the same digest; the full-size curve runs in release via
        // the experiments binary.
        let slots = 400u64;
        let scenario = TreeScenario::new(2, 4, slots);
        let mut base = None;
        for shards in [1usize, 2, 4, 8] {
            let mut f = scenario.prepare(7, shards);
            f.step(slots);
            let digest = stats_digest(&f, &scenario);
            assert!(digest.1 > 0, "no traffic delivered at {shards} shards");
            match &base {
                None => base = Some(digest),
                Some(b) => assert_eq!(*b, digest, "diverged at {shards} shards"),
            }
        }
    }

    #[test]
    fn model_speedup_reflects_balance() {
        let slots = 400u64;
        let scenario = TreeScenario::new(2, 4, slots);
        let mut f = scenario.prepare(7, 4);
        f.step(slots);
        let work = f.shard_work();
        let total: u64 = work.iter().sum();
        let max = *work.iter().max().expect("4 shards");
        assert!(total > 0, "no work recorded");
        assert!(
            total as f64 / max as f64 > 2.0,
            "4-way partition admits less than 2x: {work:?}"
        );
    }
}
