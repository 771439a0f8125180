//! Experiment N2: wall-clock cost of the fabric data plane — the slab
//! fabric ([`an2::Fabric`]: interned VC ids, pooled cells, calendar agenda)
//! against the map-based reference ([`an2::reference::Fabric`]) on the same
//! seeded workload. The two produce identical cell-level results (enforced
//! by property tests and re-asserted here); only the wall clock differs.
//!
//! The workload (routes and pre-segmented packets) is built once in
//! [`Scenario::new`], and circuit setup plus outbox preload happen in
//! [`prepare_slab`]/[`prepare_reference`] — both outside the timed region,
//! so the comparison measures the fabrics' per-slot data-plane work rather
//! than the control plane or the AAL5 segmenter (shared code that would
//! dilute the ratio equally on both sides).

use crate::circuit_digest;
use an2::{FabricConfig, TraceConfig, Tracer, TrafficClass};
use an2_cells::{Cell, Packet, Segmenter, VcId};
use an2_topology::paths::{self, HostWiring};
use an2_topology::{generators, HostId};
use std::fmt::Write;
use std::time::Instant;

/// One circuit of the benchmark workload: endpoints, its route, and the
/// cells of its pre-segmented packets.
struct CircuitLoad {
    vc: VcId,
    src: HostId,
    dst: HostId,
    parts: HostWiring,
    cells: Vec<Cell>,
}

/// The benchmark scenario: a 4-switch SRC-style installation with 24
/// dual-homed hosts (so the aggregate host-link rate keeps the crossbars
/// busy rather than starving them), `circuits` best-effort circuits between
/// round-robin host pairs, and enough pre-segmented 7950-byte packets per
/// circuit that the outboxes never run dry inside the measured window.
pub struct Scenario {
    circuits: Vec<CircuitLoad>,
}

/// Hosts in the benchmark installation.
const HOSTS: usize = 24;

/// Packets pre-segmented per circuit: 24 × 166 cells ≈ 3984 cells per
/// circuit, comfortably above the ~10k-slot host-link budget shared by the
/// circuits of one host.
const PACKETS_PER_CIRCUIT: usize = 24;

impl Scenario {
    /// Builds the workload for `circuits` circuits (done once, untimed).
    pub fn new(circuits: u32) -> Self {
        let topo = generators::src_installation(4, HOSTS);
        let hosts = topo.host_count();
        let payload = vec![5u8; 7_950];
        let mut out = Vec::new();
        for i in 0..circuits {
            // Offset 6 ≡ 2 (mod 4 switches): the destination's two
            // attachment switches are disjoint from the source's, so every
            // route crosses an inter-switch link instead of hairpinning
            // through one crossbar.
            let src = HostId((i as usize % hosts) as u16);
            let dst = HostId(((i as usize + 6) % hosts) as u16);
            let vc = VcId::new(100 + i);
            let Some(parts) = paths::host_wiring(&topo, src, dst) else {
                continue;
            };
            let pkt = Packet::from_bytes(payload.clone());
            let per_packet = Segmenter::new(vc).segment(&pkt);
            let mut cells = Vec::with_capacity(per_packet.len() * PACKETS_PER_CIRCUIT);
            for _ in 0..PACKETS_PER_CIRCUIT {
                cells.extend_from_slice(&per_packet);
            }
            out.push(CircuitLoad {
                vc,
                src,
                dst,
                parts,
                cells,
            });
        }
        Scenario { circuits: out }
    }

    /// The per-circuit stats digest and delivered cells of a finished run,
    /// from either fabric's `stats` (untimed).
    fn digest<'a>(&self, stats: impl Fn(VcId) -> &'a an2::VcStats) -> (u64, u64) {
        circuit_digest(self.circuits.iter().map(|c| stats(c.vc)))
    }
}

/// Builds one fabric implementation loaded with the scenario (the two share
/// an API, not a trait): open every circuit, preload every outbox. This is
/// control-plane setup and belongs outside the timed region.
macro_rules! prepare {
    ($fab:ty, $scenario:expr, $seed:expr) => {{
        let topo = generators::src_installation(4, HOSTS);
        let mut f = <$fab>::new(topo, FabricConfig::default(), $seed);
        for c in &$scenario.circuits {
            let (sw, links, sl, dl) = c.parts.clone();
            f.open_circuit(
                c.vc,
                c.src,
                c.dst,
                TrafficClass::BestEffort,
                sw,
                links,
                sl,
                dl,
            );
            f.send_cells(c.vc, c.cells.clone());
        }
        f
    }};
}

/// A loaded slab fabric ready for [`run_slab`] (untimed setup).
pub fn prepare_slab(scenario: &Scenario, seed: u64) -> an2::Fabric {
    prepare!(an2::Fabric, scenario, seed)
}

/// A loaded reference fabric ready for [`run_reference`] (untimed setup).
pub fn prepare_reference(scenario: &Scenario, seed: u64) -> an2::reference::Fabric {
    prepare!(an2::reference::Fabric, scenario, seed)
}

/// The timed region: steps a prepared slab fabric and returns delivered
/// cells.
pub fn run_slab(f: &mut an2::Fabric, scenario: &Scenario, slots: u64) -> u64 {
    f.step(slots);
    scenario
        .circuits
        .iter()
        .map(|c| f.stats(c.vc).delivered_cells)
        .sum::<u64>()
}

/// The timed region: steps a prepared reference fabric and returns
/// delivered cells.
pub fn run_reference(f: &mut an2::reference::Fabric, scenario: &Scenario, slots: u64) -> u64 {
    f.step(slots);
    scenario
        .circuits
        .iter()
        .map(|c| f.stats(c.vc).delivered_cells)
        .sum::<u64>()
}

/// One slab-vs-reference wall-clock comparison.
#[derive(Debug, Clone)]
pub struct FabricPerf {
    /// Best-effort circuits in flight.
    pub circuits: u32,
    /// Simulated slots.
    pub slots: u64,
    /// Reference fabric wall time, milliseconds.
    pub reference_ms: f64,
    /// Slab fabric wall time, milliseconds.
    pub slab_ms: f64,
    /// `reference_ms / slab_ms`.
    pub speedup: f64,
    /// Cells delivered (identical for both fabrics by construction).
    pub delivered_cells: u64,
}

/// N2 — the fabric data-plane speedup: both implementations on the
/// 4-switch installation, 10k slots, at two circuit counts. Each side runs
/// five times interleaved; the fastest run counts (the usual
/// min-of-samples guard against scheduler noise).
pub fn n2_fabric_dataplane() -> (Vec<FabricPerf>, String) {
    let mut rows = Vec::new();
    for &circuits in &[64u32, 128] {
        let slots = 10_000u64;
        let scenario = Scenario::new(circuits);
        let mut reference_ms = f64::MAX;
        let mut slab_ms = f64::MAX;
        let mut ref_digest = (0, 0);
        let mut slab_digest = (0, 0);
        for _ in 0..5 {
            let mut f = prepare_reference(&scenario, 7);
            let t = Instant::now();
            run_reference(&mut f, &scenario, slots);
            reference_ms = reference_ms.min(t.elapsed().as_secs_f64() * 1e3);
            ref_digest = scenario.digest(|vc| f.stats(vc));
            let mut f = prepare_slab(&scenario, 7);
            let t = Instant::now();
            run_slab(&mut f, &scenario, slots);
            slab_ms = slab_ms.min(t.elapsed().as_secs_f64() * 1e3);
            slab_digest = scenario.digest(|vc| f.stats(vc));
        }
        assert_eq!(
            slab_digest, ref_digest,
            "fabrics diverged at {circuits} circuits"
        );
        rows.push(FabricPerf {
            circuits,
            slots,
            reference_ms,
            slab_ms,
            speedup: reference_ms / slab_ms,
            delivered_cells: slab_digest.1,
        });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N2  fabric data plane: slab (interned VCs, pooled cells, calendar \
         agenda) vs map-based reference, 4 switches / 24 hosts"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>13} {:>10} {:>9} {:>11}",
        "circuits", "slots", "reference ms", "slab ms", "speedup", "delivered"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>13.1} {:>10.1} {:>8.1}x {:>11}",
            r.circuits, r.slots, r.reference_ms, r.slab_ms, r.speedup, r.delivered_cells
        );
    }
    let _ = writeln!(
        out,
        "identical per-circuit stats digests (every counter and latency \
         sample); the speedup is pure data-structure work removed from the \
         per-slot path"
    );
    (rows, out)
}

/// One tracing-overhead measurement: the identical slab workload with the
/// flight recorder off and on.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Best-effort circuits in flight.
    pub circuits: u32,
    /// Simulated slots.
    pub slots: u64,
    /// Untraced slab wall time, milliseconds (the tracer-disabled path —
    /// directly comparable to `slab_ms` in the N2 baseline rows).
    pub untraced_ms: f64,
    /// Wall time with the flight recorder + registry attached.
    pub traced_ms: f64,
    /// `traced_ms / untraced_ms`.
    pub overhead: f64,
    /// Trace events recorded during the traced run.
    pub events: u64,
    /// Cells delivered (identical for both runs by construction).
    pub delivered_cells: u64,
}

/// N5 — what tracing costs: the N2 slab workload untraced vs with a
/// [`Tracer`] attached (flight recorder, registry counters, histogram,
/// 1-in-64 path sampling). Five interleaved runs each, fastest counts.
/// Delivered cells must match exactly — the recorder observes, never
/// steers. The untraced leg *is* the tracer-disabled path (`Option` gate
/// not taken), so comparing it against the N2 baseline shows the disabled
/// cost is in the noise.
pub fn n5_trace_overhead() -> (Vec<TraceOverhead>, String) {
    let mut rows = Vec::new();
    for &circuits in &[64u32, 128] {
        let slots = 10_000u64;
        let scenario = Scenario::new(circuits);
        let mut untraced_ms = f64::MAX;
        let mut traced_ms = f64::MAX;
        let mut plain_digest = (0, 0);
        let mut traced_digest = (0, 0);
        let mut events = 0;
        for _ in 0..5 {
            let mut f = prepare_slab(&scenario, 7);
            let t = Instant::now();
            run_slab(&mut f, &scenario, slots);
            untraced_ms = untraced_ms.min(t.elapsed().as_secs_f64() * 1e3);
            plain_digest = scenario.digest(|vc| f.stats(vc));

            let mut f = prepare_slab(&scenario, 7);
            let tracer = Tracer::new(TraceConfig {
                ring_capacity: 1 << 16,
                ..TraceConfig::default()
            });
            f.attach_tracer(tracer.clone());
            let t = Instant::now();
            run_slab(&mut f, &scenario, slots);
            traced_ms = traced_ms.min(t.elapsed().as_secs_f64() * 1e3);
            traced_digest = scenario.digest(|vc| f.stats(vc));
            events = tracer.events_seen();
        }
        assert_eq!(
            traced_digest, plain_digest,
            "tracing changed the run at {circuits} circuits"
        );
        rows.push(TraceOverhead {
            circuits,
            slots,
            untraced_ms,
            traced_ms,
            overhead: traced_ms / untraced_ms,
            events,
            delivered_cells: traced_digest.1,
        });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N5  tracing overhead: the N2 slab workload untraced vs with the \
         flight recorder, registry, and 1-in-64 path sampling attached"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>12} {:>10} {:>9} {:>10} {:>11}",
        "circuits", "slots", "untraced ms", "traced ms", "overhead", "events", "delivered"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>12.1} {:>10.1} {:>8.2}x {:>10} {:>11}",
            r.circuits,
            r.slots,
            r.untraced_ms,
            r.traced_ms,
            r.overhead,
            r.events,
            r.delivered_cells
        );
    }
    let _ = writeln!(
        out,
        "identical per-circuit stats digests traced and untraced; the untraced \
         leg is the tracer-disabled path, so its delta against the N2 slab \
         baseline is the disabled cost (an untaken Option branch)"
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_and_reference_deliver_identically() {
        // Small instance: the full-size wall-clock rows are exercised by
        // the experiments binary in release mode.
        let scenario = Scenario::new(16);
        for seed in [1u64, 7, 23] {
            let mut slab = prepare_slab(&scenario, seed);
            let mut reference = prepare_reference(&scenario, seed);
            run_slab(&mut slab, &scenario, 2_000);
            run_reference(&mut reference, &scenario, 2_000);
            assert_eq!(
                scenario.digest(|vc| slab.stats(vc)),
                scenario.digest(|vc| reference.stats(vc))
            );
        }
    }

    #[test]
    fn tracing_does_not_change_delivery() {
        let scenario = Scenario::new(16);
        let mut plain = prepare_slab(&scenario, 7);
        let mut traced = prepare_slab(&scenario, 7);
        let tracer = Tracer::new(TraceConfig::default());
        traced.attach_tracer(tracer.clone());
        run_slab(&mut traced, &scenario, 2_000);
        run_slab(&mut plain, &scenario, 2_000);
        assert_eq!(
            scenario.digest(|vc| traced.stats(vc)),
            scenario.digest(|vc| plain.stats(vc))
        );
        assert!(tracer.events_seen() > 0, "recorder saw nothing");
    }

    #[test]
    fn scenario_moves_traffic() {
        let scenario = Scenario::new(64);
        let mut f = prepare_slab(&scenario, 7);
        assert!(
            run_slab(&mut f, &scenario, 10_000) > 30_000,
            "scenario must keep the fabric under load"
        );
    }
}
