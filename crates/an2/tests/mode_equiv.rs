//! The replay contract across engine modes: `(spec, seed)` fixes the run
//! byte for byte however the engine executes it.
//!
//! One `Fabric` driver and one `Network` driver each run a seeded workload
//! under every mode in a table, and every mode must produce the same
//! [`RunDigest`] as the baseline — sequential, slot by slot, untraced:
//!
//! * **Sharding** (2 and 4 switch groups stepped on scoped threads behind
//!   the per-slot barrier) must be invisible.
//! * **Batching** (next-event watermarks skipping idle switches and quiet
//!   stretches) must be invisible, alone and combined with sharding.
//! * **Observation** (the flight recorder, or the recorder plus the
//!   telemetry observatory scraping and running its SLO watchdog) must
//!   not perturb the run. Traced fabric runs must also record the same
//!   flight-recorder contents, in the same order, in every mode.
//! * **Step boundaries** (odd chunk sizes moving every `step` call
//!   relative to ping deadlines and skeptic holddown expiries) must not
//!   move the run.
//!
//! The fabric workload mixes best-effort, guaranteed and signaled circuits
//! with a mid-run link failure and reroutes. The network workloads run the
//! full `Network` with the live embedded control plane: one with lossy
//! links and a fast monitor, one with scripted flap trains that drive two
//! backbone links through the skeptic's quarantine and holddown expiry.

use an2::{
    ControlPlaneConfig, FabricConfig, FaultSpec, FlapEvent, LossModel, Network, NetworkBuilder,
    ReconfigEvent, RunDigest, SkepticConfig, TraceConfig, TrafficClass,
};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::{SimDuration, SimRng};
use an2_topology::{generators, paths, HostId, LinkId, LinkState, SwitchId, Topology};
use an2_trace::ObservatoryConfig;
use proptest::prelude::*;

/// What the run carries besides the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Observe {
    Plain,
    /// The flight recorder.
    Traced,
    /// The flight recorder plus the observatory, scraping every 367 slots
    /// with the SLO watchdog live (network runs only).
    Observed,
}

/// How the engine executes a run.
#[derive(Clone, Copy, Debug)]
struct Mode {
    name: &'static str,
    shards: usize,
    batched: bool,
    observe: Observe,
    /// Most slots one `step` call may cover (network runs only).
    chunk: u64,
}

/// Slots between sends in the network workloads; the baseline steps in
/// whole send windows.
const WINDOW: u64 = 3_000;

const BASELINE: Mode = Mode {
    name: "sequential",
    shards: 1,
    batched: false,
    observe: Observe::Plain,
    chunk: WINDOW,
};

const fn mode(name: &'static str, shards: usize, batched: bool, observe: Observe) -> Mode {
    Mode {
        name,
        shards,
        batched,
        observe,
        chunk: WINDOW,
    }
}

/// Fabric modes. The first traced mode records the reference trace the
/// later traced modes must reproduce.
const FABRIC_MODES: [Mode; 8] = [
    mode("2 shards", 2, false, Observe::Plain),
    mode("4 shards", 4, false, Observe::Plain),
    mode("batched", 1, true, Observe::Plain),
    mode("batched + 2 shards", 2, true, Observe::Plain),
    mode("traced", 1, false, Observe::Traced),
    mode("traced + 2 shards", 2, false, Observe::Traced),
    mode("traced + 4 shards", 4, false, Observe::Traced),
    mode("traced + batched", 1, true, Observe::Traced),
];

const NETWORK_MODES: [Mode; 7] = [
    mode("2 shards", 2, false, Observe::Plain),
    mode("4 shards", 4, false, Observe::Plain),
    mode("batched", 1, true, Observe::Plain),
    mode("traced", 1, false, Observe::Traced),
    mode("observed", 1, false, Observe::Observed),
    Mode {
        chunk: 997,
        ..mode("batched, 997-slot steps", 1, true, Observe::Plain)
    },
    Mode {
        chunk: 7_919,
        ..mode("batched, 7919-slot steps", 1, true, Observe::Plain)
    },
];

/// What one run produced.
struct Run {
    /// The run's [`RunDigest`] (flight-recorder records excluded).
    digest: u64,
    /// Digest of the flight-recorder records, for traced runs.
    trace: Option<u64>,
    /// Cells delivered (network runs: on surviving circuits only).
    delivered: u64,
    /// Slots or switch-steps the batched engine fast-forwarded over.
    skipped: u64,
    /// Flight-recorder events seen.
    events: u64,
    /// Observatory intervals scraped.
    intervals: u64,
    /// Skeptic quarantine entries in the reconfiguration log.
    quarantines: u64,
}

fn tracer_config(sample_every: u32) -> TraceConfig {
    TraceConfig {
        sample_every,
        ..TraceConfig::default()
    }
}

// ------------------------------------------------------------- fabric —

fn fabric_topology(idx: usize) -> Topology {
    match idx {
        0 => {
            let mut t = generators::line(3);
            for s in [0u16, 0, 2, 2] {
                let h = t.add_host();
                t.attach_host(h, SwitchId(s)).unwrap();
            }
            t
        }
        1 => generators::fat_tree(2, 3),
        _ => generators::src_installation(4, 6),
    }
}

/// Drives a fabric through a seeded mixed workload (best-effort,
/// guaranteed and signaled circuits; a mid-run link failure with reroutes)
/// under `mode`.
fn fabric_run(topo_idx: usize, seed: u64, wl_seed: u64, mode: Mode) -> Run {
    let mut f = an2::Fabric::new(fabric_topology(topo_idx), FabricConfig::default(), seed);
    f.set_shards(mode.shards);
    f.set_batching(mode.batched);
    f.enable_profiling();
    let tracer = (mode.observe != Observe::Plain).then(|| {
        let t = an2_trace::Tracer::new(tracer_config(8));
        f.attach_tracer(t.clone());
        t
    });
    let mut wl = SimRng::new(wl_seed);
    // Circuits closed mid-run fold their final stats here, in close order.
    let mut digest = RunDigest::new();
    let mut delivered = 0;
    let hosts: Vec<HostId> = (0..f.topology().host_count())
        .map(|h| HostId(h as u16))
        .collect();
    let mut vcs: Vec<(VcId, HostId, HostId)> = Vec::new();
    for i in 0..6u32 {
        let vc = VcId::new(100 + i);
        let src = hosts[wl.gen_range(hosts.len())];
        let mut dst = hosts[wl.gen_range(hosts.len())];
        if dst == src {
            dst = hosts[(src.0 as usize + 1) % hosts.len()];
        }
        let Some((sw, links, sl, dl)) = paths::host_wiring(f.topology(), src, dst) else {
            continue;
        };
        match i % 4 {
            0 => f.open_circuit(
                vc,
                src,
                dst,
                TrafficClass::Guaranteed { cells_per_frame: 2 },
                sw,
                links,
                sl,
                dl,
            ),
            1 => f.open_circuit_signaled(vc, src, dst, sw, links, sl, dl),
            _ => f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl),
        }
        vcs.push((vc, src, dst));
    }
    for round in 0..8 {
        for &(vc, _, _) in &vcs {
            if !f.has_circuit(vc) || f.is_paged_out(vc) {
                continue;
            }
            if wl.gen_bool(0.8) {
                let len = 40 + wl.gen_range(700);
                let pkt = Packet::from_bytes(vec![(len % 251) as u8; len]);
                f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
            }
        }
        f.step(20 + wl.gen_range(40) as u64);
        if round == 4 {
            let victim = f.topology().switch_links().find(|&(l, ..)| {
                f.topology().link_state(l) == LinkState::Working && !f.circuits_using(l).is_empty()
            });
            if let Some((link, ..)) = victim {
                let victims = f.circuits_using(link);
                f.fail_link(link);
                for vc in victims {
                    let &(_, src, dst) = vcs
                        .iter()
                        .find(|(v, _, _)| *v == vc)
                        .expect("victim was opened by this test");
                    match paths::host_wiring(f.topology(), src, dst) {
                        Some((sw, links, sl, dl)) => f.reroute_circuit(vc, sw, links, sl, dl),
                        None => {
                            if let Some(s) = f.close_circuit(vc) {
                                delivered += s.delivered_cells;
                                digest.word(vc.raw() as u64).vc_stats(&s);
                            }
                        }
                    }
                }
            }
        }
    }
    f.step(2_000);

    // Either form of fast-forward counts: whole-fabric slot jumps, or
    // per-switch skips inside stepped slots.
    let skipped = f
        .profile()
        .map_or(0, |p| p.skipped_slots + p.skipped_switch_steps);
    let circuits: Vec<VcId> = vcs.iter().map(|&(vc, _, _)| vc).collect();
    delivered += circuits
        .iter()
        .filter_map(|&vc| f.try_stats(vc))
        .map(|s| s.delivered_cells)
        .sum::<u64>();
    Run {
        digest: digest.fabric(&mut f, &circuits).value(),
        trace: tracer
            .as_ref()
            .map(|t| RunDigest::new().trace_records(&t.records()).value()),
        delivered,
        skipped,
        events: tracer.map_or(0, |t| t.events_seen()),
        intervals: 0,
        quarantines: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn fabric_modes_match_the_sequential_baseline(seed in any::<u64>(), wl_seed in any::<u64>()) {
        for topo in 0..3usize {
            let base = fabric_run(topo, seed, wl_seed, BASELINE);
            prop_assert!(base.delivered > 0, "workload moved no traffic (topo {})", topo);
            let mut reference_trace = None;
            for mode in FABRIC_MODES {
                let run = fabric_run(topo, seed, wl_seed, mode);
                prop_assert_eq!(
                    base.digest, run.digest,
                    "{} diverged from the baseline (topo {})", mode.name, topo
                );
                if mode.batched {
                    prop_assert!(run.skipped > 0, "{} never fast-forwarded (topo {})", mode.name, topo);
                }
                if let Some(trace) = run.trace {
                    prop_assert!(run.events > 0, "{} recorded nothing (topo {})", mode.name, topo);
                    let reference = *reference_trace.get_or_insert(trace);
                    prop_assert_eq!(
                        reference, trace,
                        "{} perturbed the flight recorder (topo {})", mode.name, topo
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------ network —

/// A network workload: the full `Network` with faults and the embedded
/// control plane, one packet per circuit every [`WINDOW`] slots.
#[derive(Clone, Copy, Debug)]
enum Workload {
    /// Independent per-link loss plus a per-millisecond monitor: fault
    /// draws, credit resync and verdicts all along the run.
    Lossy { topo: usize, seed: u64 },
    /// Scripted flap trains drive two backbone links through death,
    /// quarantine and holddown expiry while the monitor pings every
    /// millisecond. A batcher that skipped a ping would shift a verdict; one
    /// that skipped a holddown expiry would shift a quarantine exit. Both
    /// land in the digest via the typed reconfiguration log.
    Skeptic { topo: usize },
}

fn backbone(net: &Network) -> Vec<LinkId> {
    net.topology().switch_links().map(|(l, ..)| l).collect()
}

/// Runs `workload` under `mode`.
fn network_run(workload: Workload, mode: Mode) -> Run {
    let b = Network::builder();
    let (b, seed, end, tail): (NetworkBuilder, u64, u64, u64) = match workload {
        Workload::Lossy { topo, seed } => {
            let b = match topo {
                0 => b.src_installation(4, 8),
                1 => b.src_installation(6, 12),
                _ => b.ring(4, 8),
            };
            (b, seed, 24_000, 8_000)
        }
        Workload::Skeptic { topo } => {
            let b = match topo {
                0 => b.src_installation(4, 8),
                _ => b.ring(4, 8),
            };
            let b = b.skeptic(SkepticConfig {
                base_wait: SimDuration::from_millis(5),
                max_level: 2,
                decay_after: SimDuration::from_millis(400),
            });
            (b, 5, 150_000, 60_000)
        }
    };
    let mut net = b.seed(seed).shards(mode.shards).build();
    net.set_batching(mode.batched);
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            if let Ok(vc) = net.open_best_effort(a, b) {
                circuits.push(vc);
            }
        }
    }
    let mut spec = FaultSpec {
        check_invariants: true,
        ..Default::default()
    };
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    match workload {
        Workload::Lossy { .. } => spec.default_link.loss = LossModel::Independent { p: 0.002 },
        Workload::Skeptic { .. } => {
            spec.monitor.fail_threshold = 3;
            spec.monitor.recover_threshold = 5;
            // Three flaps per link: downs just past the fail threshold,
            // up-gaps short enough that the skeptic's growing holddown
            // (5 ms, 10 ms, 20 ms) outlasts the recovery streak from the
            // second flap on, so quarantines enter and expire mid-run.
            for (i, &link) in backbone(&net).iter().take(2).enumerate() {
                let base = 20_000 + 3_000 * i as u64;
                for k in 0..3u64 {
                    spec.flaps.push(FlapEvent {
                        link,
                        down_at: base + 30_000 * k,
                        up_at: base + 30_000 * k + 8_000,
                    });
                }
            }
        }
    }
    net.attach_faults(&spec, seed);
    let tracer = match mode.observe {
        Observe::Plain => None,
        Observe::Traced => Some(net.attach_tracer(tracer_config(16))),
        Observe::Observed => Some(net.attach_observatory(
            tracer_config(16),
            ObservatoryConfig {
                every_slots: 367,
                ..ObservatoryConfig::default()
            },
        )),
    };
    net.enable_control_plane(ControlPlaneConfig::default());
    let mut tag = 0u8;
    let mut next_send = 0u64;
    while net.slot() < end {
        if net.slot() >= next_send {
            for &vc in &circuits {
                if !net.is_broken(vc) {
                    let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
                }
            }
            tag = tag.wrapping_add(1);
            next_send += WINDOW;
        }
        // Never step across a send slot: the workload stays identical
        // while the step boundaries inside each window vary with `chunk`.
        let remaining = next_send.min(end) - net.slot();
        net.step(remaining.min(mode.chunk));
    }
    net.step(tail);

    let delivered = circuits
        .iter()
        .filter(|&&vc| !net.is_broken(vc))
        .map(|&vc| net.stats(vc).delivered_cells)
        .sum();
    let quarantines = net
        .reconfig_log()
        .iter()
        .filter(|e| matches!(e, ReconfigEvent::LinkQuarantined { entered: true, .. }))
        .count() as u64;
    let mut digest = RunDigest::new();
    digest.network(&mut net, &circuits);
    for l in backbone(&net) {
        digest.word(net.skeptic_level(l).map_or(u64::MAX, u64::from));
    }
    Run {
        digest: digest.value(),
        trace: None,
        delivered,
        skipped: 0,
        events: tracer.as_ref().map_or(0, |t| t.events_seen()),
        intervals: tracer.map_or(0, |t| t.intervals_seen()),
        quarantines,
    }
}

fn check_network_modes(workload: Workload) {
    let base = network_run(workload, BASELINE);
    match workload {
        Workload::Lossy { .. } => assert!(base.delivered > 0, "{workload:?} moved no traffic"),
        Workload::Skeptic { .. } => assert!(
            base.quarantines > 0,
            "{workload:?}: the flap train never quarantined, the leg proves nothing"
        ),
    }
    for mode in NETWORK_MODES {
        let run = network_run(workload, mode);
        assert_eq!(
            base.digest, run.digest,
            "{} diverged from the baseline ({workload:?})",
            mode.name
        );
        if mode.observe != Observe::Plain {
            assert!(
                run.events > 0,
                "{} recorded nothing ({workload:?})",
                mode.name
            );
        }
        if mode.observe == Observe::Observed {
            assert!(
                run.intervals >= 40,
                "observatory scraped only {} intervals ({workload:?})",
                run.intervals
            );
        }
    }
}

#[test]
fn lossy_network_modes_match_the_sequential_baseline() {
    for topo in 0..3usize {
        for seed in [3u64, 17, 91] {
            check_network_modes(Workload::Lossy { topo, seed });
        }
    }
}

#[test]
fn skeptic_network_modes_match_the_sequential_baseline() {
    for topo in 0..2usize {
        check_network_modes(Workload::Skeptic { topo });
    }
}
