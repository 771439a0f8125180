//! What a run observes: the one canonical replay digest.
//!
//! The replay contract is that `(spec, seed)` fixes a run byte for byte in
//! every engine mode. [`RunDigest`] is the single definition of "the run"
//! that contract speaks about: an FNV-1a 64 accumulator that owns both the
//! hash and the encoding of each observable, so every equivalence suite,
//! replay check and experiment compares the same thing. Every value is
//! folded as little-endian bytes; variable-length parts (latency samples,
//! packet payloads, the reconfiguration log) are length-prefixed so two
//! different sequences never encode alike.

use crate::fabric::{CtrlCounters, Fabric, FaultCounters, VcStats};
use crate::network::Network;
use an2_cells::{Packet, VcId};
use an2_reconfig::{ReconfigEvent, Tag};
use an2_topology::HostId;
use an2_trace::TraceRecord;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

/// Folded in place of a circuit that no longer exists (closed, or broken
/// with no route), so losing a circuit never digests like keeping it.
const GONE_CIRCUIT: u64 = 0x00b2_0ce2;

/// A running digest of everything a run observes.
///
/// Fold observables with the typed methods, then compare
/// [`RunDigest::value`]s. [`RunDigest::fabric`] and [`RunDigest::network`]
/// fold a whole finished run in canonical order; the per-part methods serve
/// drivers that hold only part of a run (or the reference oracle, which
/// shares `VcStats` and `Packet` but not the `Fabric` type).
///
/// ```
/// use an2::{Network, RunDigest};
/// use an2_cells::Packet;
///
/// let run = |seed| {
///     let mut net = Network::builder().src_installation(4, 4).seed(seed).build();
///     let hosts: Vec<_> = net.hosts().collect();
///     let vc = net.open_best_effort(hosts[0], hosts[2]).unwrap();
///     net.send_packet(vc, Packet::from_bytes(vec![7; 500])).unwrap();
///     net.step(3_000);
///     RunDigest::new().network(&mut net, &[vc]).value()
/// };
/// assert_eq!(run(1), run(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest(u64);

impl Default for RunDigest {
    fn default() -> Self {
        RunDigest::new()
    }
}

impl RunDigest {
    /// An empty digest (the FNV-1a offset basis).
    pub fn new() -> Self {
        RunDigest(FNV_OFFSET)
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Folds raw bytes.
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds one 64-bit word (an observable without a typed fold).
    pub fn word(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Folds one circuit's statistics — every counter, then every latency
    /// sample in order — or, for `None`, the marker of a circuit that no
    /// longer exists.
    fn circuit(&mut self, stats: Option<&VcStats>) -> &mut Self {
        match stats {
            Some(s) => self.vc_stats(s),
            None => self.word(GONE_CIRCUIT),
        }
    }

    /// Folds one circuit's statistics: every counter, then every latency
    /// sample in order.
    pub fn vc_stats(&mut self, s: &VcStats) -> &mut Self {
        // Destructured so a new counter cannot be silently left out.
        let VcStats {
            sent_cells,
            delivered_cells,
            dropped_cells,
            latency_slots,
            packets_delivered,
            packets_corrupted,
            pages_out,
            pages_in,
            lost_cells,
            corrupted_cells,
        } = s;
        for x in [
            sent_cells,
            delivered_cells,
            dropped_cells,
            lost_cells,
            corrupted_cells,
            packets_delivered,
            packets_corrupted,
            pages_out,
            pages_in,
        ] {
            self.word(*x);
        }
        let samples = latency_slots.samples();
        self.word(samples.len() as u64);
        for &sample in samples {
            self.word(sample);
        }
        self
    }

    /// Folds one delivered packet: its circuit and every payload byte.
    pub fn delivered(&mut self, vc: VcId, packet: &Packet) -> &mut Self {
        let bytes = packet.as_bytes();
        self.word(vc.raw() as u64)
            .word(bytes.len() as u64)
            .bytes(bytes)
    }

    /// Folds the control-transport counters.
    fn ctrl_counters(&mut self, c: &CtrlCounters) -> &mut Self {
        let CtrlCounters {
            messages_sent,
            messages_lost,
            cells_sent,
        } = *c;
        self.word(messages_sent)
            .word(messages_lost)
            .word(cells_sent)
    }

    /// Folds the fault-layer counters. An absent fault layer (`None`) folds
    /// exactly like an inert one: all counters zero.
    fn fault_counters(&mut self, c: Option<FaultCounters>) -> &mut Self {
        let FaultCounters {
            cells_lost,
            cells_corrupted,
            credits_lost,
            markers_sent,
            markers_lost,
            replies_lost,
            resyncs_completed,
            crash_dropped_cells,
            invariant_violations,
        } = c.unwrap_or_default();
        for x in [
            cells_lost,
            cells_corrupted,
            credits_lost,
            markers_sent,
            markers_lost,
            replies_lost,
            resyncs_completed,
            crash_dropped_cells,
            invariant_violations,
        ] {
            self.word(x);
        }
        self
    }

    fn tag(&mut self, tag: Tag) -> &mut Self {
        self.word(tag.epoch).word(tag.initiator.0 as u64)
    }

    /// Folds one typed reconfiguration event: a variant tag (1–6), its slot
    /// and virtual time, then every field.
    fn reconfig_event(&mut self, e: &ReconfigEvent) -> &mut Self {
        let variant = match e {
            ReconfigEvent::LinkDead { .. } => 1,
            ReconfigEvent::LinkWorking { .. } => 2,
            ReconfigEvent::EpochStarted { .. } => 3,
            ReconfigEvent::Quiesced { .. } => 4,
            ReconfigEvent::RoutesInstalled { .. } => 5,
            ReconfigEvent::LinkQuarantined { .. } => 6,
        };
        self.word(variant).word(e.slot()).word(e.at().as_nanos());
        match *e {
            ReconfigEvent::LinkDead { link, .. } | ReconfigEvent::LinkWorking { link, .. } => {
                self.word(link.0 as u64)
            }
            ReconfigEvent::EpochStarted { tag, .. } => self.tag(tag),
            ReconfigEvent::Quiesced { tag, messages, .. } => self.tag(tag).word(messages),
            ReconfigEvent::RoutesInstalled {
                tag,
                rerouted,
                kept,
                unroutable,
                ..
            } => self.tag(tag).word(rerouted).word(kept).word(unroutable),
            ReconfigEvent::LinkQuarantined {
                link,
                entered,
                level,
                ..
            } => self
                .word(link.0 as u64)
                .word(entered as u64)
                .word(level as u64),
        }
    }

    /// Folds the whole typed reconfiguration log, length first.
    fn reconfig_log(&mut self, log: &[ReconfigEvent]) -> &mut Self {
        self.word(log.len() as u64);
        for e in log {
            self.reconfig_event(e);
        }
        self
    }

    /// Folds flight-recorder records in recording order: slot, virtual
    /// time and the event. Only runs that carry a tracer have records, so
    /// this is folded on request, never by [`RunDigest::fabric`] or
    /// [`RunDigest::network`].
    pub fn trace_records(&mut self, records: &[TraceRecord]) -> &mut Self {
        self.word(records.len() as u64);
        for r in records {
            self.word(r.slot)
                .word(r.at_ns)
                .bytes(format!("{:?}", r.event).as_bytes());
        }
        self
    }

    /// Folds everything a finished [`Fabric`] run observes: each listed
    /// circuit (closed ones as a marker), every packet waiting at every
    /// host (drained, host by host, in arrival order), the control and
    /// fault counters, and the final slot.
    pub fn fabric(&mut self, f: &mut Fabric, circuits: &[VcId]) -> &mut Self {
        for &vc in circuits {
            self.circuit(f.try_stats(vc));
        }
        for h in 0..f.topology().host_count() {
            for (vc, p) in f.take_received(HostId(h as u16)) {
                self.delivered(vc, &p);
            }
        }
        self.ctrl_counters(&f.ctrl_counters())
            .fault_counters(f.fault_counters())
            .word(f.slot())
    }

    /// Folds everything a finished [`Network`] run observes: each listed
    /// circuit (broken ones as a marker), every packet waiting at every
    /// host (drained, host by host, in arrival order), the control and
    /// fault counters, the typed reconfiguration log, the skeptic's
    /// suppressed recoveries, and the final slot.
    pub fn network(&mut self, net: &mut Network, circuits: &[VcId]) -> &mut Self {
        for &vc in circuits {
            self.circuit((!net.is_broken(vc)).then(|| net.stats(vc)));
        }
        let hosts: Vec<HostId> = net.hosts().collect();
        for h in hosts {
            for (vc, p) in net.take_received(h) {
                self.delivered(vc, &p);
            }
        }
        self.ctrl_counters(&net.ctrl_counters())
            .fault_counters(net.fault_counters())
            .reconfig_log(net.reconfig_log())
            .word(net.suppressed_recoveries())
            .word(net.slot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_reconfig::Tag;
    use an2_sim::SimTime;
    use an2_topology::{LinkId, SwitchId};

    fn stats() -> VcStats {
        let mut s = VcStats {
            sent_cells: 40,
            delivered_cells: 38,
            dropped_cells: 1,
            lost_cells: 1,
            corrupted_cells: 2,
            packets_delivered: 3,
            packets_corrupted: 1,
            pages_out: 1,
            pages_in: 1,
            ..VcStats::default()
        };
        for x in [7, 9, 12] {
            s.latency_slots.record(x);
        }
        s
    }

    fn tag(epoch: u64) -> Tag {
        Tag {
            epoch,
            initiator: SwitchId(2),
        }
    }

    fn log() -> Vec<ReconfigEvent> {
        let at = SimTime::from_nanos(5_000);
        vec![
            ReconfigEvent::LinkDead {
                slot: 10,
                at,
                link: LinkId(3),
            },
            ReconfigEvent::LinkWorking {
                slot: 11,
                at,
                link: LinkId(3),
            },
            ReconfigEvent::EpochStarted {
                slot: 12,
                at,
                tag: tag(1),
            },
            ReconfigEvent::Quiesced {
                slot: 13,
                at,
                tag: tag(1),
                messages: 40,
            },
            ReconfigEvent::RoutesInstalled {
                slot: 14,
                at,
                tag: tag(1),
                rerouted: 2,
                kept: 5,
                unroutable: 0,
            },
            ReconfigEvent::LinkQuarantined {
                slot: 15,
                at,
                link: LinkId(3),
                entered: true,
                level: 1,
            },
        ]
    }

    fn ctrl() -> CtrlCounters {
        CtrlCounters {
            messages_sent: 9,
            messages_lost: 1,
            cells_sent: 20,
        }
    }

    fn faults() -> FaultCounters {
        FaultCounters {
            cells_lost: 4,
            resyncs_completed: 2,
            ..FaultCounters::default()
        }
    }

    /// A digest over one of every observable.
    fn digest(
        s: &VcStats,
        payload: &[u8],
        log: &[ReconfigEvent],
        c: &CtrlCounters,
        f: FaultCounters,
    ) -> u64 {
        RunDigest::new()
            .vc_stats(s)
            .delivered(VcId::new(100), &Packet::from_bytes(payload.to_vec()))
            .ctrl_counters(c)
            .fault_counters(Some(f))
            .reconfig_log(log)
            .value()
    }

    #[test]
    fn every_observable_moves_the_digest() {
        let payload = vec![1u8, 2, 3, 4];
        let base = digest(&stats(), &payload, &log(), &ctrl(), faults());
        assert_eq!(base, digest(&stats(), &payload, &log(), &ctrl(), faults()));

        let mut s = stats();
        s.latency_slots = Default::default();
        for x in [7, 9, 13] {
            s.latency_slots.record(x);
        }
        assert_ne!(
            base,
            digest(&s, &payload, &log(), &ctrl(), faults()),
            "latency sample"
        );

        let mut p = payload.clone();
        p[2] ^= 1;
        assert_ne!(
            base,
            digest(&stats(), &p, &log(), &ctrl(), faults()),
            "payload byte"
        );

        for i in 0..log().len() {
            let mut l = log();
            match &mut l[i] {
                ReconfigEvent::LinkDead { link, .. } | ReconfigEvent::LinkWorking { link, .. } => {
                    link.0 += 1
                }
                ReconfigEvent::EpochStarted { tag, .. } => tag.initiator.0 += 1,
                ReconfigEvent::Quiesced { messages, .. } => *messages += 1,
                ReconfigEvent::RoutesInstalled { unroutable, .. } => *unroutable += 1,
                ReconfigEvent::LinkQuarantined { entered, .. } => *entered = !*entered,
            }
            assert_ne!(
                base,
                digest(&stats(), &payload, &l, &ctrl(), faults()),
                "reconfiguration event {i}"
            );
        }

        let mut c = ctrl();
        c.messages_lost += 1;
        assert_ne!(
            base,
            digest(&stats(), &payload, &log(), &c, faults()),
            "control counter"
        );

        let mut f = faults();
        f.markers_lost += 1;
        assert_ne!(
            base,
            digest(&stats(), &payload, &log(), &ctrl(), f),
            "fault counter"
        );
    }

    #[test]
    fn absent_fault_layer_folds_like_an_inert_one() {
        let mut absent = RunDigest::new();
        absent.fault_counters(None);
        let mut inert = RunDigest::new();
        inert.fault_counters(Some(FaultCounters::default()));
        assert_eq!(absent, inert);
        assert_ne!(absent, RunDigest::new(), "the counters are still folded");
    }

    #[test]
    fn a_gone_circuit_differs_from_an_idle_one() {
        let mut gone = RunDigest::new();
        gone.circuit(None);
        let mut idle = RunDigest::new();
        idle.circuit(Some(&VcStats::default()));
        assert_ne!(gone, idle);
    }
}
