//! Wires switch agents into a discrete-event world over a physical
//! [`Topology`], injects failures, and checks convergence — the apparatus
//! for the reconfiguration experiments (E1, E12).

use crate::agent::{AgentPublic, Edge, Msg, PublicHandle, SwitchAgent};
use crate::quiesce;
use an2_sim::{ActorId, SimDuration, SimTime, StopReason, World};
use an2_topology::{LinkId, LinkState, Node, SpanningTree, SwitchId, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// Default per-message software processing time on a line-card CPU. AN1's
/// measured sub-200 ms reconfigurations imply per-message costs in the
/// high-microsecond range; 100 µs is deliberately conservative.
pub const DEFAULT_PROCESSING: SimDuration = SimDuration::from_micros(100);

/// A network of reconfiguration agents over a physical topology.
pub struct ReconfigNet {
    world: World<Msg>,
    topo: Topology,
    actors: Vec<ActorId>,
    publics: Vec<PublicHandle>,
}

impl ReconfigNet {
    /// Builds the network and boots every switch at time zero (each switch
    /// learns its neighbours and triggers a reconfiguration, as at power-on).
    pub fn new(topo: Topology, seed: u64, processing: SimDuration) -> Self {
        let mut world = World::new(seed);
        let mut actors = Vec::new();
        let mut publics = Vec::new();
        for s in topo.switches() {
            let public: PublicHandle = Rc::new(RefCell::new(AgentPublic::default()));
            let actor = world.add_actor(SwitchAgent::new(s, processing, public.clone()));
            actors.push(actor);
            publics.push(public);
        }
        let mut net = ReconfigNet {
            world,
            topo,
            actors,
            publics,
        };
        // Announce every working inter-switch adjacency to both endpoints.
        for link in net.topo.links() {
            if net.topo.link_state(link) != LinkState::Working {
                continue;
            }
            let (ea, eb) = net.topo.endpoints(link);
            if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
                let latency = net.topo.link_latency(link);
                net.world.send_now(
                    net.actors[a.0 as usize],
                    Msg::LinkUp {
                        link,
                        neighbor: b,
                        actor: net.actors[b.0 as usize],
                        latency,
                    },
                );
                net.world.send_now(
                    net.actors[b.0 as usize],
                    Msg::LinkUp {
                        link,
                        neighbor: a,
                        actor: net.actors[a.0 as usize],
                        latency,
                    },
                );
            }
        }
        net
    }

    /// Convenience constructor with the default processing cost.
    pub fn with_defaults(topo: Topology, seed: u64) -> Self {
        ReconfigNet::new(topo, seed, DEFAULT_PROCESSING)
    }

    /// Runs the protocol until no messages remain in flight.
    pub fn run_to_quiescence(&mut self) -> StopReason {
        self.world.run()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The physical topology (including failures injected so far).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Kills a physical link and notifies both endpoint switches. If a
    /// parallel link between the same pair is still working, the logical
    /// adjacency survives and no notification is sent (the line card fails
    /// over transparently).
    pub fn kill_link(&mut self, link: LinkId) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        let (ea, eb) = self.topo.endpoints(link);
        if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
            if self.topo.links_between(a, b).is_empty() {
                self.world
                    .send_now(self.actors[a.0 as usize], Msg::LinkDown { neighbor: b });
                self.world
                    .send_now(self.actors[b.0 as usize], Msg::LinkDown { neighbor: a });
            }
        }
    }

    /// Kills a physical link but handles it with the §2 reduced-disruption
    /// extension: the endpoints flood an incremental delta instead of
    /// triggering a full reconfiguration. Stale spanning-tree state is the
    /// documented trade-off.
    pub fn kill_link_delta(&mut self, link: LinkId) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        let (ea, eb) = self.topo.endpoints(link);
        if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
            if self.topo.links_between(a, b).is_empty() {
                self.world.send_now(
                    self.actors[a.0 as usize],
                    Msg::LinkDownDelta { neighbor: b },
                );
                self.world.send_now(
                    self.actors[b.0 as usize],
                    Msg::LinkDownDelta { neighbor: a },
                );
            }
        }
    }

    /// Total incremental deltas applied across all switches.
    pub fn total_deltas_applied(&self) -> u64 {
        self.publics.iter().map(|p| p.borrow().deltas_applied).sum()
    }

    /// Pulls the plug on a switch: every incident link dies and all its
    /// neighbours are notified (the victim itself is silenced — dead
    /// switches do not run the protocol, so its own notifications are
    /// irrelevant).
    pub fn kill_switch(&mut self, victim: SwitchId) {
        let incident: Vec<LinkId> = self
            .topo
            .links()
            .filter(|&l| {
                let (ea, eb) = self.topo.endpoints(l);
                (ea.node == Node::Switch(victim) || eb.node == Node::Switch(victim))
                    && self.topo.link_state(l) == LinkState::Working
            })
            .collect();
        for link in incident {
            self.topo.set_link_state(link, LinkState::Dead);
            let (ea, eb) = self.topo.endpoints(link);
            if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
                let survivor = if a == victim { b } else { a };
                self.world.send_now(
                    self.actors[survivor.0 as usize],
                    Msg::LinkDown { neighbor: victim },
                );
            }
        }
    }

    /// The switch-to-switch edges that actually work right now.
    pub fn actual_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for s in self.topo.switches() {
            for t in self.topo.switch_neighbors(s) {
                if s < t {
                    edges.push((s, t));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// The (sorted, deduplicated) edges of a switch's current topology
    /// view, if it has one — for external consistency checks.
    pub fn view_edges_of(&self, s: SwitchId) -> Option<Vec<Edge>> {
        self.view_edges(s)
    }

    fn view_edges(&self, s: SwitchId) -> Option<Vec<Edge>> {
        self.publics[s.0 as usize].borrow().view.as_ref().map(|v| {
            let mut e: Vec<Edge> = v.edges.clone();
            e.sort_unstable();
            e.dedup();
            e
        })
    }

    /// Whether every switch in the same partition as `reference` holds a
    /// topology view that (a) matches every other member's and (b) equals
    /// that partition's actual working edges. Built on the shared
    /// [`quiesce`] detector the embedded control plane and
    /// the chaos oracle use.
    pub fn partition_converged(&self, reference: SwitchId) -> bool {
        let lv = quiesce::LiveView::all_live(&self.topo);
        let part = lv
            .live_partition_of(reference)
            .expect("reference switch exists");
        // View tags stand in for agent tags: a missing view reads as ZERO
        // and is then rejected by the view check, so agreement demands
        // every member completed the same reconfiguration.
        quiesce::partition_uniform(
            &lv,
            &part,
            &mut |s| {
                self.publics[s.0 as usize]
                    .borrow()
                    .view
                    .as_ref()
                    .map(|v| v.tag)
                    .unwrap_or(crate::Tag::ZERO)
            },
            &mut |s, _, expected| self.view_edges(s).as_deref() == Some(expected),
        )
        .is_ok()
    }

    /// Whether the whole network (assumed connected) has converged.
    pub fn converged(&self) -> bool {
        self.topo
            .switches()
            .next()
            .map(|s| self.topo.switches_connected() && self.partition_converged(s))
            .unwrap_or(true)
    }

    /// The instant the last switch in `reference`'s partition completed.
    pub fn last_completion(&self, reference: SwitchId) -> Option<SimTime> {
        let parts = self.topo.switch_partitions();
        let part = parts.iter().find(|p| p.contains(&reference))?;
        part.iter()
            .map(|&s| {
                self.publics[s.0 as usize]
                    .borrow()
                    .view
                    .as_ref()
                    .map(|v| v.completed_at)
            })
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Total protocol messages sent by all switches so far.
    pub fn total_messages(&self) -> u64 {
        self.publics.iter().map(|p| p.borrow().messages_sent).sum()
    }

    /// Total reconfigurations initiated across all switches.
    pub fn total_initiated(&self) -> u64 {
        self.publics.iter().map(|p| p.borrow().initiated).sum()
    }

    /// Reconstructs the propagation-order spanning tree from the converged
    /// view of `reference`'s partition.
    ///
    /// # Panics
    ///
    /// Panics if the switch has no view yet.
    pub fn spanning_tree(&self, reference: SwitchId) -> SpanningTree {
        let view = self.publics[reference.0 as usize]
            .borrow()
            .view
            .clone()
            .expect("switch has no topology view yet");
        SpanningTree::from_parents(
            view.tag.initiator,
            self.topo.switch_count(),
            view.parents.clone(),
        )
    }
}

/// The view oracle for an embedded control plane: runs the harness on
/// `topo` with the `crashed` switches killed until quiescence, then returns
/// every live switch whose embedded view (`embedded(s)`) differs from the
/// harness's converged view. A missing embedded view or an unconverged
/// oracle partition is a mismatch; a switch with no working links never
/// boots in the harness, so its embedded view must be empty.
pub fn view_mismatches(
    topo: &Topology,
    seed: u64,
    crashed: &[SwitchId],
    embedded: impl Fn(SwitchId) -> Option<Vec<Edge>>,
) -> Vec<SwitchId> {
    let mut oracle = ReconfigNet::with_defaults(topo.clone(), seed);
    for &s in crashed {
        oracle.kill_switch(s);
    }
    oracle.run_to_quiescence();
    topo.switches()
        .filter(|s| !crashed.contains(s))
        .filter(|&s| {
            let Some(view) = embedded(s) else {
                return true;
            };
            match oracle.view_edges_of(s) {
                Some(expected) => !oracle.partition_converged(s) || view != expected,
                None => !view.is_empty(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_topology::generators;

    fn converge(topo: Topology, seed: u64) -> ReconfigNet {
        let mut net = ReconfigNet::with_defaults(topo, seed);
        net.run_to_quiescence();
        assert!(net.converged(), "initial boot must converge");
        net
    }

    #[test]
    fn boot_converges_on_varied_topologies() {
        for topo in [
            generators::line(5),
            generators::ring(8),
            generators::star(6),
            generators::tree(2, 3),
            generators::mesh(3, 3),
            generators::torus(3, 3),
            generators::src_installation(8, 0),
        ] {
            converge(topo, 42);
        }
    }

    #[test]
    fn boot_converges_on_random_topologies_many_seeds() {
        for seed in 0..10 {
            let mut rng = an2_sim::SimRng::new(seed);
            let topo = generators::random_connected(16, 12, &mut rng);
            converge(topo, seed);
        }
    }

    #[test]
    fn view_matches_actual_edges() {
        let net = converge(generators::ring(6), 7);
        let edges = net.actual_edges();
        assert_eq!(edges.len(), 6);
        for s in net.topology().switches() {
            assert_eq!(net.view_edges(s).unwrap(), edges);
        }
    }

    #[test]
    fn link_failure_reconfigures_quickly() {
        let mut net = converge(generators::src_installation(8, 0), 3);
        let t0 = net.now();
        // Kill a backbone ring link.
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link(link);
        net.run_to_quiescence();
        assert!(net.converged(), "must reconverge after link failure");
        let done = net.last_completion(SwitchId(0)).unwrap();
        let elapsed = done.duration_since(t0);
        // The paper's AN1 demo: under 200 ms.
        assert!(
            elapsed < SimDuration::from_millis(200),
            "reconfiguration took {elapsed}"
        );
    }

    #[test]
    fn switch_failure_is_survived() {
        // "Pulling the plug on an arbitrary switch": every victim in turn.
        let topo = generators::src_installation(6, 0);
        for victim in topo.switches() {
            let mut net = converge(topo.clone(), 11);
            net.kill_switch(victim);
            net.run_to_quiescence();
            // The survivors' partition must agree on the reduced topology.
            let survivor = topo
                .switches()
                .find(|&s| s != victim)
                .expect("more than one switch");
            assert!(
                net.partition_converged(survivor),
                "killing {victim} left survivors inconsistent"
            );
        }
    }

    #[test]
    fn partition_converges_per_side() {
        // A line partitions when the middle link dies.
        let mut net = converge(generators::line(4), 5);
        let link = net.topology().links_between(SwitchId(1), SwitchId(2))[0];
        net.kill_link(link);
        net.run_to_quiescence();
        assert!(net.partition_converged(SwitchId(0)));
        assert!(net.partition_converged(SwitchId(3)));
        // Sides disagree (as they must: different partitions).
        assert_ne!(net.view_edges(SwitchId(0)), net.view_edges(SwitchId(3)));
    }

    #[test]
    fn overlapping_reconfigurations_converge() {
        // Kill two links at the same instant: two (or more) concurrent
        // initiators; epoch tags must sort it out.
        let mut net = converge(generators::torus(3, 3), 13);
        let l1 = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        let l2 = net.topology().links_between(SwitchId(4), SwitchId(5))[0];
        net.kill_link(l1);
        net.kill_link(l2);
        net.run_to_quiescence();
        assert!(net.converged());
    }

    #[test]
    fn propagation_tree_is_near_bfs() {
        // §2: "the tree obtained is usually very close to a breadth-first
        // tree". With uniform link latencies the propagation race gives a
        // BFS-depth tree; allow a small margin.
        let net = converge(generators::torus(4, 4), 17);
        let tree = net.spanning_tree(SwitchId(0));
        let root = tree.root();
        let bfs = SpanningTree::bfs(net.topology(), root);
        assert!(
            tree.height() <= bfs.height() + 1,
            "propagation tree height {} vs BFS {}",
            tree.height(),
            bfs.height()
        );
    }

    #[test]
    fn parallel_link_failover_without_reconfig() {
        let mut topo = generators::line(2);
        topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
        let mut net = converge(topo, 19);
        let initiated_before = net.total_initiated();
        // Kill one of the two parallel links: adjacency survives, so no
        // reconfiguration is triggered.
        let links = net.topology().links_between(SwitchId(0), SwitchId(1));
        assert_eq!(links.len(), 2);
        net.kill_link(links[0]);
        net.run_to_quiescence();
        assert_eq!(net.total_initiated(), initiated_before);
        assert!(net.converged());
    }

    #[test]
    fn message_complexity_is_linear_in_links() {
        // Propagation+collection+distribution is O(E) messages per
        // reconfiguration; with n initiators at boot it stays well under
        // n * E.
        let topo = generators::ring(12);
        let net = converge(topo, 23);
        let messages = net.total_messages();
        assert!(
            messages < 12 * 12 * 8,
            "boot storm used {messages} messages"
        );
    }

    #[test]
    fn spanning_tree_covers_partition() {
        let net = converge(generators::mesh(3, 4), 29);
        let tree = net.spanning_tree(SwitchId(5));
        for s in net.topology().switches() {
            assert!(tree.contains(s), "{s} missing from propagation tree");
        }
    }

    #[test]
    fn delta_flood_patches_all_views_without_reconfiguration() {
        let mut net = converge(generators::src_installation(10, 0), 71);
        let initiated_before = net.total_initiated();
        let link = net.topology().links_between(SwitchId(2), SwitchId(3))[0];
        net.kill_link_delta(link);
        net.run_to_quiescence();
        // No new reconfiguration was triggered...
        assert_eq!(net.total_initiated(), initiated_before);
        // ...yet every switch's view matches the new reality.
        let edges = net.actual_edges();
        for s in net.topology().switches() {
            assert_eq!(net.view_edges(s).unwrap(), edges, "{s} has a stale view");
        }
        assert!(net.total_deltas_applied() >= 10);
    }

    #[test]
    fn delta_uses_fewer_messages_than_full_reconfig() {
        let topo = generators::src_installation(16, 0);
        // Full reconfiguration cost.
        let mut full = converge(topo.clone(), 72);
        let before = full.total_messages();
        let link = full.topology().links_between(SwitchId(4), SwitchId(5))[0];
        full.kill_link(link);
        full.run_to_quiescence();
        let full_cost = full.total_messages() - before;
        // Delta cost on the same failure.
        let mut delta = converge(topo, 72);
        let before = delta.total_messages();
        let link = delta.topology().links_between(SwitchId(4), SwitchId(5))[0];
        delta.kill_link_delta(link);
        delta.run_to_quiescence();
        let delta_cost = delta.total_messages() - before;
        assert!(
            delta_cost < full_cost,
            "delta {delta_cost} messages !< full {full_cost}"
        );
        // Both end consistent.
        let edges = delta.actual_edges();
        for s in delta.topology().switches() {
            assert_eq!(delta.view_edges(s).unwrap(), edges);
        }
    }

    #[test]
    fn duplicate_deltas_suppressed_on_cyclic_topologies() {
        // On a ring the flood passes both ways around; the (origin, seq)
        // filter keeps the message count linear-ish in edges, not infinite.
        let mut net = converge(generators::ring(12), 73);
        let before = net.total_messages();
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link_delta(link);
        net.run_to_quiescence();
        let cost = net.total_messages() - before;
        // Two origins, each flooding over ~11 remaining links in both
        // directions: comfortably under 4*E + 2*N.
        assert!(cost < 4 * 12 + 2 * 12 + 20, "flood cost {cost}");
        let edges = net.actual_edges();
        for s in net.topology().switches() {
            assert_eq!(net.view_edges(s).unwrap(), edges);
        }
    }
}
