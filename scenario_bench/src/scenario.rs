//! Drives one workload through the public `an2::Network` API: build the
//! topology and network, open circuits, inject, step, receive, then
//! verify and digest. Every call into a layer is wrapped in a span when
//! the run is traced.

use crate::spans::{quantile, Spans};
use crate::workload::{payload, Workload};
use an2::{
    ControlPlaneConfig, FaultCounters, HostId, Network, Packet, ReconfigEvent, Tracer, VcId,
    VcStats,
};
use an2_trace::ObservatoryConfig;
use std::hint::black_box;
use std::time::Instant;

/// Every span name the benchmark records, parents first: `setup`,
/// `round` and `drain`, and `final` enclose the calls into the layers.
const SPAN_NAMES: [&str; 17] = [
    "setup",
    "topology.build",
    "network.build",
    "open_be",
    "open_gt",
    "attach_faults",
    "control.enable",
    "observe.attach",
    "round",
    "send_packet",
    "step",
    "take_received",
    "drain",
    "final",
    "verify",
    "digest",
    "trace.export",
];

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host seconds: topology, network, circuit opens, attachments.
    pub setup_s: f64,
    /// Host seconds from the first `send_packet` to the end of the drain.
    pub run_s: f64,
    /// Host seconds for the whole scenario: setup, run, checks, digest.
    pub total_s: f64,
    /// Cells delivered to destination controllers.
    pub cells_delivered: u64,
    /// Circuit opens attempted.
    pub opens: u64,
    /// Circuit opens refused.
    pub opens_refused: u64,
    /// Packets handed to `send_packet`.
    pub packets: u64,
    /// Packets reassembled byte-exact at their destination.
    pub packets_ok: u64,
    /// Delivered-cell latency samples.
    pub latency_samples: u64,
    /// Median simulated host-to-host cell latency, in cell slots.
    pub latency_p50_slots: u64,
    /// 99.9th-percentile simulated cell latency, in cell slots.
    pub latency_p999_slots: u64,
    /// Simulated ms from each injected link-down to the next
    /// `RoutesInstalled`, in schedule order.
    pub reconverge_ms: Vec<f64>,
    /// The run digest.
    pub digest: u64,
    /// Failed checks; empty in a correct run.
    pub errors: Vec<String>,
    /// The traced run's spans as a Chrome trace; empty when untraced.
    pub spans_trace: String,
    /// Per-layer metrics (name, unit, value): counters always, times only
    /// when traced.
    pub layers: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    /// Operations attempted: circuit opens plus packets handed to
    /// `send_packet`.
    pub fn attempted(&self) -> u64 {
        self.opens + self.packets
    }

    /// Operations failed: refused opens, refused sends, and packets not
    /// reassembled byte-exact by the end of the drain.
    pub fn failed(&self) -> u64 {
        self.opens_refused + (self.packets - self.packets_ok)
    }
}

/// A scenario in progress.
pub(crate) struct Scenario<'w> {
    w: &'w Workload,
    net: Network,
    spans: Spans,
    start: Instant,
    hosts: Vec<HostId>,
    /// The circuit each workload entry opened, if admitted.
    vcs: Vec<Option<VcId>>,
    /// Workload index by raw vc id.
    index: Vec<Option<usize>>,
    tracer: Option<Tracer>,
    opens_refused: u64,
    sends: u64,
    /// Every packet taken from a destination, with the host it was taken at.
    pub(crate) received: Vec<(HostId, VcId, Packet)>,
    setup_s: f64,
    run_s: f64,
    build_rss_mb: f64,
    reconfig_ns: u64,
    /// Whether the drain accounted for every cell within its cap.
    settled: bool,
}

impl<'w> Scenario<'w> {
    /// Builds the network on `shards` data-plane shards and opens every
    /// circuit.
    pub(crate) fn setup(w: &'w Workload, traced: bool, shards: usize) -> Self {
        let start = Instant::now();
        let mut spans = Spans::new(traced);
        spans.open("setup");
        let topo = spans.time("topology.build", || w.shape.build());
        let rss0 = rss_mb("VmRSS");
        let mut net = spans.time("network.build", || {
            Network::builder()
                .topology(topo)
                .seed(w.seed)
                .shards(shards)
                .build()
        });
        let build_rss_mb = rss_mb("VmRSS") - rss0;
        let hosts: Vec<HostId> = net.hosts().collect();
        let mut vcs = Vec::with_capacity(w.circuits.len());
        let mut opens_refused = 0;
        for c in &w.circuits {
            let (src, dst) = (hosts[c.src as usize], hosts[c.dst as usize]);
            let opened = match c.guaranteed {
                None => spans.time("open_be", || net.open_best_effort(src, dst)),
                Some(cells) => spans.time("open_gt", || net.open_guaranteed(src, dst, cells)),
            };
            if opened.is_err() {
                opens_refused += 1;
            }
            vcs.push(opened.ok());
        }
        let mut tracer = None;
        if let Some(schedule) = &w.chaos {
            spans.time("attach_faults", || {
                net.attach_faults(&schedule.fault, w.seed)
            });
            spans.time("control.enable", || {
                net.enable_control_plane(ControlPlaneConfig::default())
            });
            tracer = Some(spans.time("observe.attach", || {
                net.attach_observatory(an2::TraceConfig::default(), ObservatoryConfig::default())
            }));
        }
        if traced {
            net.enable_profiling();
        }
        spans.close();
        let max_vc = vcs.iter().flatten().map(|v| v.raw() as usize).max();
        let mut index = vec![None; max_vc.map_or(0, |m| m + 1)];
        for (i, vc) in vcs.iter().enumerate() {
            if let Some(vc) = vc {
                index[vc.raw() as usize] = Some(i);
            }
        }
        Scenario {
            w,
            net,
            spans,
            start,
            hosts,
            vcs,
            index,
            tracer,
            opens_refused,
            sends: 0,
            received: Vec::new(),
            setup_s: start.elapsed().as_secs_f64(),
            run_s: 0.0,
            build_rss_mb,
            reconfig_ns: 0,
            settled: false,
        }
    }

    /// Injects every round open loop, then drains until every cell is
    /// accounted for.
    pub(crate) fn run(&mut self) {
        let t = Instant::now();
        for k in 0..self.w.rounds {
            self.spans.begin_round(k);
            for i in 0..self.vcs.len() {
                let Some(vc) = self.vcs[i] else { continue };
                let bytes = payload(self.w.seed, i, k, self.w.packet_bytes(i));
                let net = &mut self.net;
                // A refused packet is never delivered, so `verify` counts
                // it as failed.
                let _ = self.spans.time("send_packet", || {
                    net.send_packet(vc, Packet::from_bytes(bytes))
                });
                self.sends += 1;
            }
            self.step(self.w.round_slots);
            self.take_all();
            self.spans.end_round();
        }
        self.spans.open("drain");
        let mut drained = 0;
        while !self.settled() && drained < self.w.drain_cap {
            self.step(self.w.drain_chunk);
            self.take_all();
            drained += self.w.drain_chunk;
        }
        self.settled = self.settled();
        self.spans.close();
        self.run_s = t.elapsed().as_secs_f64();
    }

    fn step(&mut self, slots: u64) {
        let reconfig =
            self.spans.on() && self.net.control_enabled() && !self.net.control_converged();
        let t = reconfig.then(Instant::now);
        let net = &mut self.net;
        self.spans.time("step", || net.step(slots));
        if let Some(t) = t {
            self.reconfig_ns += t.elapsed().as_nanos() as u64;
        }
    }

    fn take_all(&mut self) {
        for &h in &self.hosts {
            let net = &mut self.net;
            let got = self.spans.time("take_received", || net.take_received(h));
            self.received
                .extend(got.into_iter().map(|(vc, p)| (h, vc, p)));
        }
    }

    /// Whether every live circuit's cells are delivered, dropped or lost
    /// and its source queue is empty.
    fn settled(&self) -> bool {
        self.vcs.iter().flatten().all(|&vc| {
            self.net.is_broken(vc) || {
                let s = self.net.stats(vc);
                self.net.outbox_len(vc) == 0
                    && s.sent_cells == s.delivered_cells + s.dropped_cells + s.lost_cells
            }
        })
    }

    /// Checks the outputs, takes the digest (compared against `expect`
    /// when given) and, for observed runs, exports the telemetry.
    pub(crate) fn finish(mut self, expect: Option<u64>) -> Outcome {
        let mut out = Outcome {
            setup_s: self.setup_s,
            run_s: self.run_s,
            opens: self.w.circuits.len() as u64,
            opens_refused: self.opens_refused,
            packets: self.sends,
            ..Outcome::default()
        };
        self.spans.open("final");
        // Final statistics of every circuit; a broken one hands its
        // statistics back on close.
        let stats: Vec<Option<VcStats>> = self
            .vcs
            .iter()
            .map(|vc| {
                vc.map(|vc| match self.net.is_broken(vc) {
                    true => self.net.close(vc).expect("broken circuit closes"),
                    false => self.net.stats(vc).clone(),
                })
            })
            .collect();
        let (w, received, index) = (self.w, &self.received, &self.index);
        let verified = self
            .spans
            .time("verify", || verify(w, received, index, &stats, &mut out));
        if !self.settled {
            out.errors.push(format!(
                "cells still in flight after the {}-slot drain cap",
                self.w.drain_cap
            ));
        }
        check_faults(self.net.fault_counters(), &mut out.errors);
        let net = &self.net;
        out.digest = self.spans.time("digest", || digest(&stats, net));
        if let Some(want) = expect {
            if want != out.digest {
                out.errors.push(format!(
                    "digest mismatch: got {:016x}, want {want:016x}",
                    out.digest
                ));
            }
        }
        if let Some(tracer) = &self.tracer {
            let slot_ns = self.net.slot_duration().as_nanos().max(1);
            self.spans.time("trace.export", || {
                tracer.scrape_now();
                black_box(tracer.metrics_prometheus());
                black_box(an2::sink::chrome_trace_with_counters(
                    &tracer.records(),
                    &tracer.intervals(),
                    slot_ns,
                ));
            });
        }
        self.spans.close();
        out.total_s = self.start.elapsed().as_secs_f64();
        out.packets_ok = verified;
        out.cells_delivered = stats.iter().flatten().map(|s| s.delivered_cells).sum();
        let slot_us = self.net.slot_duration().as_nanos() as f64 / 1e3;
        let mut lat: Vec<u64> = stats
            .iter()
            .flatten()
            .flat_map(|s| s.latency_slots.samples().iter().copied())
            .collect();
        out.latency_samples = lat.len() as u64;
        out.latency_p50_slots = quantile(&mut lat, 0.5);
        out.latency_p999_slots = quantile(&mut lat, 0.999);
        if let Some(schedule) = &self.w.chaos {
            out.reconverge_ms =
                reconvergence(&schedule.fault.flaps, self.net.reconfig_log(), slot_us);
        }
        if self.w.chaos.is_none() && out.failed() > 0 {
            out.errors.push(format!(
                "{} of {} operations failed on a fault-free workload",
                out.failed(),
                out.attempted()
            ));
        }
        self.layers(&mut out);
        if self.spans.on() {
            out.spans_trace = self.spans.chrome_trace();
        }
        out
    }

    /// Per-layer metrics: counters the layers expose plus, when traced,
    /// the span times and self times.
    fn layers(&self, out: &mut Outcome) {
        let mut m: Vec<(String, &'static str, f64)> = Vec::new();
        let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));
        let sp = &self.spans;
        let ms = |name: &str| sp.durations(name).iter().sum::<u64>() as f64 / 1e6;
        let q_us = |name: &str, q: f64| quantile(&mut sp.durations(name), q) as f64 / 1e3;
        put("topology.build_ms", "ms", ms("topology.build"));
        put("network.build_ms", "ms", ms("network.build"));
        put("network.build_rss_mb", "MB", self.build_rss_mb);
        let be = self
            .w
            .circuits
            .iter()
            .filter(|c| c.guaranteed.is_none())
            .count();
        put("open_be.calls", "count", be as f64);
        put("open_be.us_p50", "us", q_us("open_be", 0.5));
        put("open_be.us_p99", "us", q_us("open_be", 0.99));
        put(
            "open_gt.calls",
            "count",
            (self.w.circuits.len() - be) as f64,
        );
        let gt_refused = self
            .w
            .circuits
            .iter()
            .zip(&self.vcs)
            .filter(|(c, vc)| c.guaranteed.is_some() && vc.is_none())
            .count();
        put("open_gt.refused", "count", gt_refused as f64);
        put("open_gt.us_p50", "us", q_us("open_gt", 0.5));
        put("open_gt.us_p99", "us", q_us("open_gt", 0.99));
        put("send_packet.calls", "count", self.sends as f64);
        put("send_packet.us_p50", "us", q_us("send_packet", 0.5));
        put("send_packet.us_p99", "us", q_us("send_packet", 0.99));
        put("take_received.ms", "ms", ms("take_received"));
        put("take_received.packets", "count", self.received.len() as f64);
        put("step.calls", "count", sp.durations("step").len() as f64);
        put("step.s", "s", ms("step") / 1e3);
        put("step.ms_p50", "ms", q_us("step", 0.5) / 1e3);
        put("step.ms_p99", "ms", q_us("step", 0.99) / 1e3);
        put("step.reconfig_s", "s", self.reconfig_ns as f64 / 1e9);
        if let Some(p) = self.net.profile() {
            put("profile.enqueue_s", "s", p.enqueue_ns as f64 / 1e9);
            put("profile.schedule_s", "s", p.schedule_ns as f64 / 1e9);
            put("profile.commit_s", "s", p.commit_ns as f64 / 1e9);
            put(
                "profile.fast_forward_s",
                "s",
                p.fast_forward_ns as f64 / 1e9,
            );
            put(
                "profile.switch_steps",
                "count",
                p.stepped_switch_steps as f64,
            );
            put(
                "profile.skipped_switch_steps",
                "count",
                p.skipped_switch_steps as f64,
            );
            put("profile.skipped_slots", "count", p.skipped_slots as f64);
            let busy = p.enqueue_ns + p.schedule_ns + p.commit_ns;
            put(
                "profile.ns_per_switch_step",
                "ns",
                busy as f64 / p.stepped_switch_steps.max(1) as f64,
            );
        }
        let work = self.net.shard_work();
        let mean = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
        let max = work.iter().copied().max().unwrap_or(0) as f64;
        put(
            "shard.work_imbalance",
            "ratio",
            if mean > 0.0 { max / mean } else { 1.0 },
        );
        let f = self.net.fault_counters().unwrap_or_default();
        put("faults.cells_lost", "count", f.cells_lost as f64);
        put("faults.resyncs", "count", f.resyncs_completed as f64);
        put("faults.markers_sent", "count", f.markers_sent as f64);
        put(
            "faults.invariant_violations",
            "count",
            f.invariant_violations as f64,
        );
        let c = self.net.ctrl_counters();
        put("control.messages", "count", c.messages_sent as f64);
        put("control.cells", "count", c.cells_sent as f64);
        put("control.messages_lost", "count", c.messages_lost as f64);
        let log = self.net.reconfig_log();
        let epochs = log
            .iter()
            .filter(|e| matches!(e, ReconfigEvent::EpochStarted { .. }))
            .count();
        let rerouted: u64 = log
            .iter()
            .map(|e| match e {
                ReconfigEvent::RoutesInstalled { rerouted, .. } => *rerouted,
                _ => 0,
            })
            .sum();
        put("control.epochs", "count", epochs as f64);
        put("control.rerouted", "count", rerouted as f64);
        let mut rc = out.reconverge_ms.clone();
        rc.sort_by(f64::total_cmp);
        put("reconverge.count", "count", rc.len() as f64);
        put(
            "reconverge_ms_p50",
            "ms",
            rc.get(rc.len().saturating_sub(1) / 2)
                .copied()
                .unwrap_or(0.0),
        );
        put("reconverge_ms_max", "ms", rc.last().copied().unwrap_or(0.0));
        let (seen, dropped, intervals, alerts) = self.tracer.as_ref().map_or((0, 0, 0, 0), |t| {
            (
                t.events_seen(),
                t.events_dropped(),
                t.intervals_seen(),
                t.health_events().iter().filter(|h| h.raised).count() as u64,
            )
        });
        put("trace.events_seen", "count", seen as f64);
        put("trace.events_dropped", "count", dropped as f64);
        put("observe.intervals", "count", intervals as f64);
        put("observe.alerts", "count", alerts as f64);
        put("trace.export_ms", "ms", ms("trace.export"));
        put("verify.ms", "ms", ms("verify"));
        put("digest.ms", "ms", ms("digest"));
        put("cell_latency.samples", "count", out.latency_samples as f64);
        put("delivered.base", "count", out.packets as f64);
        if sp.on() {
            let total_ns = (out.total_s * 1e9) as u64;
            let own = sp.self_times();
            debug_assert!(own.iter().all(|(n, _)| SPAN_NAMES.contains(n)));
            for name in SPAN_NAMES {
                let ns = own.iter().find(|(n, _)| *n == name).map_or(0, |(_, t)| *t);
                put(&format!("self.{name}_ms"), "ms", ns as f64 / 1e6);
            }
            put(
                "self.untimed_ms",
                "ms",
                total_ns.saturating_sub(sp.root_total()) as f64 / 1e6,
            );
            put("trace.spans", "count", sp.spans().len() as f64);
        }
        out.layers = m;
    }
}

/// Runs a whole scenario.
pub fn run(w: &Workload, traced: bool, shards: usize, expect: Option<u64>) -> Outcome {
    let mut s = Scenario::setup(w, traced, shards);
    s.run();
    s.finish(expect)
}

/// Checks every received packet against the payload its header names,
/// the circuit it arrived on and the host it arrived at, and each live
/// circuit's cell conservation. Records failures in `out.errors` and
/// returns the number of packets reassembled byte-exact.
fn verify(
    w: &Workload,
    received: &[(HostId, VcId, Packet)],
    index: &[Option<usize>],
    stats: &[Option<VcStats>],
    out: &mut Outcome,
) -> u64 {
    let rounds = w.rounds as usize;
    let mut seen = vec![false; w.circuits.len() * rounds];
    let mut ok = 0;
    for (host, vc, packet) in received {
        let bytes = packet.as_bytes();
        let Some(i) = index.get(vc.raw() as usize).copied().flatten() else {
            out.errors
                .push(format!("packet on unknown circuit {}", vc.raw()));
            continue;
        };
        let header = |at: usize| {
            bytes
                .get(at..at + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        };
        let round = header(4).unwrap_or(u32::MAX) as usize;
        let good = host.0 == w.circuits[i].dst
            && header(0) == Some(i as u32)
            && round < rounds
            && !seen[i * rounds + round]
            && bytes == payload(w.seed, i, round as u32, w.packet_bytes(i)).as_slice();
        if good {
            seen[i * rounds + round] = true;
            ok += 1;
        } else {
            out.errors.push(format!(
                "circuit {i}: packet at host {} is not a byte-exact, first delivery of a sent payload",
                host.0
            ));
        }
    }
    for (i, s) in stats.iter().enumerate() {
        if let Some(s) = s {
            if s.sent_cells != s.delivered_cells + s.dropped_cells + s.lost_cells {
                out.errors.push(format!(
                    "circuit {i}: cells not conserved (sent {} != delivered {} + dropped {} + lost {})",
                    s.sent_cells, s.delivered_cells, s.dropped_cells, s.lost_cells
                ));
            }
        }
    }
    ok
}

/// A fault layer that saw an invariant violation fails the run.
pub(crate) fn check_faults(c: Option<FaultCounters>, errors: &mut Vec<String>) {
    if let Some(c) = c {
        if c.invariant_violations != 0 {
            errors.push(format!(
                "{} fault-layer invariant violations",
                c.invariant_violations
            ));
        }
    }
}

/// FNV-1a over what the run observed, read from public accessors only:
/// per-circuit statistics with every latency sample, the control-cell
/// counters, and the typed reconfiguration log.
fn digest(stats: &[Option<VcStats>], net: &Network) -> u64 {
    let mut h = Fnv::default();
    for s in stats {
        let Some(s) = s else {
            h.u64(u64::MAX);
            continue;
        };
        for x in [
            s.sent_cells,
            s.delivered_cells,
            s.dropped_cells,
            s.lost_cells,
            s.corrupted_cells,
            s.packets_delivered,
            s.packets_corrupted,
            s.pages_out,
            s.pages_in,
        ] {
            h.u64(x);
        }
        h.u64(s.latency_slots.count() as u64);
        for &x in s.latency_slots.samples() {
            h.u64(x);
        }
    }
    let c = net.ctrl_counters();
    for x in [c.messages_sent, c.messages_lost, c.cells_sent] {
        h.u64(x);
    }
    for e in net.reconfig_log() {
        h.u64(e.slot());
        match *e {
            ReconfigEvent::LinkDead { link, .. } => h.u64(1 << 32 | link.0 as u64),
            ReconfigEvent::LinkWorking { link, .. } => h.u64(2 << 32 | link.0 as u64),
            ReconfigEvent::EpochStarted { tag, .. } => {
                h.u64(3 << 32 | tag.initiator.0 as u64);
                h.u64(tag.epoch);
            }
            ReconfigEvent::Quiesced { tag, messages, .. } => {
                h.u64(4 << 32 | tag.initiator.0 as u64);
                h.u64(tag.epoch);
                h.u64(messages);
            }
            ReconfigEvent::LinkQuarantined {
                link,
                entered,
                level,
                ..
            } => {
                h.u64(5 << 32 | link.0 as u64);
                h.u64((entered as u64) << 32 | level as u64);
            }
            ReconfigEvent::RoutesInstalled {
                tag,
                rerouted,
                kept,
                unroutable,
                ..
            } => {
                h.u64(6 << 32 | tag.initiator.0 as u64);
                h.u64(tag.epoch);
                h.u64(rerouted);
                h.u64(kept);
                h.u64(unroutable);
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Simulated ms from each injected link-down to the first
/// `RoutesInstalled` at or after it; link-downs never followed by an
/// install are left out.
fn reconvergence(flaps: &[an2::FlapEvent], log: &[ReconfigEvent], slot_us: f64) -> Vec<f64> {
    flaps
        .iter()
        .filter_map(|f| {
            log.iter()
                .find(|e| {
                    matches!(e, ReconfigEvent::RoutesInstalled { .. }) && e.slot() >= f.down_at
                })
                .map(|e| (e.slot() - f.down_at) as f64 * slot_us / 1e3)
        })
        .collect()
}

/// A `/proc/self/status` field (`VmRSS`, `VmHWM`) in MB; 0 where the file
/// is missing.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
