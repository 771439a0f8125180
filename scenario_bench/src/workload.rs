//! Workload inputs, generated from a seed.
//!
//! A [`Workload`] is everything the benchmark hands the simulator: the
//! topology shape, the circuit list with classes, the open-loop injection
//! schedule, and (for the chaos workload) the concrete fault schedule.
//! The same `(name, size, seed)` always yields the same value, so two
//! runs of one seed drive byte-identical inputs.

use an2_chaos::gen::{self, Schedule};
use an2_chaos::spec::{CampaignSpec, Scenario, TopologyKind};
use an2_sim::SimRng;
use an2_topology::{generators, Topology};

/// Seeds the fixed host order of the SRC traffic matrices.
const MATRIX_SEED: u64 = 0xa2;

/// The named workloads.
pub const NAMES: [&str; 3] = ["fattree_be", "src_mixed", "src_chaos_observed"];

/// Full size (the benchmark) or tiny (the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` names.
    Full,
    /// Small instances of the same shapes, for tests.
    Tiny,
}

/// The topology a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `generators::fat_tree(arity, levels)`.
    FatTree {
        /// Switch arity `k`.
        arity: usize,
        /// Levels `n`.
        levels: usize,
    },
    /// `generators::src_installation(switches, hosts)`.
    Src {
        /// Backbone switches.
        switches: usize,
        /// Dual-homed hosts.
        hosts: usize,
    },
}

impl Shape {
    /// Instantiates the topology.
    pub fn build(self) -> Topology {
        match self {
            Shape::FatTree { arity, levels } => generators::fat_tree(arity, levels),
            Shape::Src { switches, hosts } => generators::src_installation(switches, hosts),
        }
    }

    fn hosts(self) -> usize {
        match self {
            Shape::FatTree { arity, levels } => arity.pow(levels as u32),
            Shape::Src { hosts, .. } => hosts,
        }
    }
}

/// One circuit to open: host indices and class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Circuit {
    /// Source host index.
    pub src: u16,
    /// Destination host index.
    pub dst: u16,
    /// `Some(cells_per_frame)` for a guaranteed circuit, `None` for
    /// best effort.
    pub guaranteed: Option<u16>,
}

/// A complete, seed-determined workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The seed the inputs were generated from; also seeds the network.
    pub seed: u64,
    /// Topology shape.
    pub shape: Shape,
    /// Circuits, opened in order.
    pub circuits: Vec<Circuit>,
    /// Injection rounds: every circuit is handed one packet per round.
    pub rounds: u32,
    /// Slots between rounds (open loop: sent whether or not earlier
    /// rounds have drained).
    pub round_slots: u64,
    /// Payload bytes of a best-effort packet.
    pub be_bytes: usize,
    /// Payload bytes of a guaranteed packet.
    pub gt_bytes: usize,
    /// Slots per drain step after the last round.
    pub drain_chunk: u64,
    /// Drain cap in slots; a run still holding cells past it fails.
    pub drain_cap: u64,
    /// The fault schedule (loss, flaps, monitor tuning), chaos only.
    pub chaos: Option<Schedule>,
}

impl Workload {
    /// Generates workload `name` at `size` from `seed`, or `None` for an
    /// unknown name.
    pub fn generate(name: &str, size: Size, seed: u64) -> Option<Workload> {
        let tiny = size == Size::Tiny;
        let mut rng = SimRng::new(seed ^ 0xa2a2_5eed);
        let w = match name {
            "fattree_be" => {
                let shape = if tiny {
                    Shape::FatTree {
                        arity: 2,
                        levels: 4,
                    }
                } else {
                    Shape::FatTree {
                        arity: 2,
                        levels: 8,
                    }
                };
                let per_host = 16;
                let circuits = fattree_circuits(&mut rng, shape.hosts(), per_host);
                Workload {
                    name: "fattree_be",
                    seed,
                    shape,
                    circuits,
                    // 16 rounds, not N7's single packet: over a 0.6-s run
                    // phase (4 rounds) the delivered-cell rate spread 0.21
                    // (IQR/median) between repetitions, over 3.8 s 0.09.
                    rounds: if tiny { 2 } else { 16 },
                    round_slots: 1000,
                    be_bytes: 530,
                    gt_bytes: 0,
                    drain_chunk: 500,
                    drain_cap: 200_000,
                    chaos: None,
                }
            }
            "src_mixed" => {
                let (switches, hosts) = if tiny { (4, 8) } else { (12, 64) };
                let shape = Shape::Src { switches, hosts };
                let ring = shuffled_hosts(hosts);
                let mut circuits = ring_circuits(&ring, 1, Some(64));
                circuits.extend(ring_circuits(&ring, 2, None));
                circuits.extend(ring_circuits(&ring, 3, None));
                Workload {
                    name: "src_mixed",
                    seed,
                    shape,
                    circuits,
                    rounds: if tiny { 4 } else { 100 },
                    round_slots: 2048,
                    be_bytes: 1500,
                    gt_bytes: 1000,
                    drain_chunk: 1024,
                    drain_cap: 200_000,
                    chaos: None,
                }
            }
            "src_chaos_observed" => {
                let (switches, hosts) = if tiny { (4, 8) } else { (8, 32) };
                let mut spec = CampaignSpec::defaults(
                    "bench_churn_loss",
                    Scenario::ChurnLoss {
                        flapping_links: 2,
                        flaps_per_link: 2,
                    },
                );
                spec.topology = TopologyKind::SrcInstallation {
                    switches: switches as u16,
                    hosts: hosts as u16,
                };
                spec.circuits = hosts as u32;
                if tiny {
                    spec.run_slots = 120_000;
                }
                let schedule = gen::generate(&spec, seed);
                let ring = shuffled_hosts(hosts);
                let mut circuits = ring_circuits(&ring, 1, None);
                circuits.extend(ring_circuits(&ring, 2, Some(32)).into_iter().step_by(4));
                Workload {
                    name: "src_chaos_observed",
                    seed,
                    shape: Shape::Src { switches, hosts },
                    circuits,
                    rounds: (schedule.run_slots / schedule.send_every) as u32,
                    round_slots: schedule.send_every,
                    be_bytes: schedule.packet_bytes,
                    gt_bytes: 480,
                    drain_chunk: 2048,
                    drain_cap: 400_000,
                    chaos: Some(schedule),
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Payload bytes of circuit `idx`'s packets.
    pub fn packet_bytes(&self, idx: usize) -> usize {
        if self.circuits[idx].guaranteed.is_some() {
            self.gt_bytes
        } else {
            self.be_bytes
        }
    }

    /// Cells those packets segment into.
    pub fn cells(&self) -> u64 {
        (0..self.circuits.len())
            .map(|i| an2_cells::Packet::from_bytes(vec![0; self.packet_bytes(i)]).cell_count())
            .sum::<usize>() as u64
            * self.rounds as u64
    }
}

fn circuit(src: usize, dst: usize, guaranteed: Option<u16>) -> Circuit {
    Circuit {
        src: src as u16,
        dst: dst as u16,
        guaranteed,
    }
}

/// The hosts in a fixed shuffled order. The traffic matrix is part of a
/// workload's definition, not of its seed: with a seed-drawn matrix the
/// route lengths through the frame schedule, and with them the p99.9 cell
/// latency, moved between 0.8 and 1.4 ms from seed to seed, so the
/// latency metrics would have measured the seed.
fn shuffled_hosts(hosts: usize) -> Vec<usize> {
    let mut ring: Vec<usize> = (0..hosts).collect();
    SimRng::new(MATRIX_SEED).shuffle(&mut ring);
    ring
}

/// One circuit from every host to the host `hop` places after it in
/// `ring`: every host sources and sinks exactly one, so no host link is a
/// seed-dependent hot spot.
fn ring_circuits(ring: &[usize], hop: usize, guaranteed: Option<u16>) -> Vec<Circuit> {
    (0..ring.len())
        .map(|i| circuit(ring[i], ring[(i + hop) % ring.len()], guaranteed))
        .collect()
}

/// The N7 shape: `per_host` circuits sourced at every host, the first
/// crossing the tree (to a seed-drawn host in the other half), the rest to
/// the leaf neighbour.
fn fattree_circuits(rng: &mut SimRng, hosts: usize, per_host: usize) -> Vec<Circuit> {
    let half = hosts / 2;
    let mut circuits = Vec::with_capacity(hosts * per_host);
    for j in 0..hosts * per_host {
        let src = j % hosts;
        let dst = if j < hosts {
            (src ^ half) ^ rng.gen_range(half)
        } else {
            src ^ 1
        };
        circuits.push(circuit(src, dst, None));
    }
    circuits
}

/// The payload of circuit `idx`'s packet in `round`: an 8-byte header
/// (`idx`, `round`, little endian) followed by a stream drawn from
/// `(seed, idx, round)`, so every delivered packet can be checked against
/// what was sent.
pub fn payload(seed: u64, idx: usize, round: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&(idx as u32).to_le_bytes());
    out.extend_from_slice(&round.to_le_bytes());
    let mut state = seed ^ ((idx as u64) << 32 | round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}
