//! The per-node incidence index changes no answer: every adjacency query
//! equals a brute-force scan over the whole link table, order included,
//! on the standard generators under random link deaths, revivals, switch
//! kills and late cabling.

use crate::generators::{fat_tree, line, ring, src_installation};
use crate::graph::{
    Endpoint, HostId, LinkId, LinkState, Node, Port, SwitchId, Topology, AN2_SWITCH_PORTS,
    HOST_PORTS,
};
use crate::paths::{self, HostWiring};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Test-only reference: answers every adjacency query by scanning all links.
struct Scan<'a>(&'a Topology);

impl Scan<'_> {
    fn working_links_of(&self, node: Node) -> Vec<(LinkId, Endpoint)> {
        let t = self.0;
        t.links()
            .filter(|&l| t.link_state(l) == LinkState::Working)
            .filter_map(|l| {
                let (a, b) = t.endpoints(l);
                if a.node == node {
                    Some((l, b))
                } else if b.node == node {
                    Some((l, a))
                } else {
                    None
                }
            })
            .collect()
    }

    fn switch_neighbors(&self, s: SwitchId) -> Vec<SwitchId> {
        let mut out: Vec<SwitchId> = self
            .working_links_of(Node::Switch(s))
            .into_iter()
            .filter_map(|(_, far)| match far.node {
                Node::Switch(t) => Some(t),
                Node::Host(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn links_between(&self, s: SwitchId, t: SwitchId) -> Vec<LinkId> {
        self.working_links_of(Node::Switch(s))
            .into_iter()
            .filter(|(_, far)| far.node == Node::Switch(t))
            .map(|(l, _)| l)
            .collect()
    }

    fn host_attachments(&self, h: HostId) -> Vec<(LinkId, SwitchId)> {
        self.working_links_of(Node::Host(h))
            .into_iter()
            .filter_map(|(l, far)| match far.node {
                Node::Switch(s) => Some((l, s)),
                Node::Host(_) => None,
            })
            .collect()
    }

    fn free_port(&self, node: Node) -> Option<Port> {
        let t = self.0;
        let ports = match node {
            Node::Switch(_) => AN2_SWITCH_PORTS,
            Node::Host(_) => HOST_PORTS,
        };
        (0..ports).map(Port).find(|&p| {
            !t.links().any(|l| {
                let (a, b) = t.endpoints(l);
                a == Endpoint { node, port: p } || b == Endpoint { node, port: p }
            })
        })
    }

    /// BFS from `src` over scanned neighbours, lower-numbered first; the
    /// first discovery of a switch fixes its predecessor.
    fn shortest_path(&self, src: SwitchId, dst: SwitchId) -> Option<Vec<SwitchId>> {
        let mut prev: Vec<Option<SwitchId>> = vec![None; self.0.switch_count()];
        let mut seen = vec![false; self.0.switch_count()];
        seen[src.0 as usize] = true;
        let mut q = VecDeque::from([src]);
        while let Some(s) = q.pop_front() {
            for t in self.switch_neighbors(s) {
                if !std::mem::replace(&mut seen[t.0 as usize], true) {
                    prev[t.0 as usize] = Some(s);
                    q.push_back(t);
                }
            }
        }
        if !seen[dst.0 as usize] {
            return None;
        }
        let mut path = vec![dst];
        while let Some(p) = prev[path.last().expect("non-empty").0 as usize] {
            path.push(p);
        }
        path.reverse();
        Some(path)
    }

    /// The shortest route over every attachment pair (first wins a tie),
    /// wired with the lowest-id working link per hop and attachment.
    fn host_wiring(&self, src: HostId, dst: HostId) -> Option<HostWiring> {
        let mut best: Option<Vec<SwitchId>> = None;
        for (_, s) in self.host_attachments(src) {
            for (_, d) in self.host_attachments(dst) {
                if let Some(path) = self.shortest_path(s, d) {
                    if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                        best = Some(path);
                    }
                }
            }
        }
        let switches = best?;
        let links = switches
            .windows(2)
            .map(|w| self.links_between(w[0], w[1]).first().copied())
            .collect::<Option<Vec<_>>>()?;
        let attachment = |host: HostId, switch: SwitchId| {
            self.host_attachments(host)
                .into_iter()
                .find(|&(_, s)| s == switch)
                .map(|(l, _)| l)
        };
        let src_link = attachment(src, switches[0])?;
        let dst_link = attachment(dst, *switches.last().expect("non-empty"))?;
        Some((switches, links, src_link, dst_link))
    }
}

/// Every query the index answers, against the scan, for every node and
/// (switch, switch) / (host, host) pair.
fn assert_index_matches_scan(t: &Topology, label: &str) {
    let scan = Scan(t);
    let nodes = t
        .switches()
        .map(Node::Switch)
        .chain(t.hosts().map(Node::Host));
    for node in nodes {
        assert_eq!(
            t.working_links_of(node),
            scan.working_links_of(node),
            "{label}: working_links_of({node})"
        );
        assert_eq!(
            t.free_port(node),
            scan.free_port(node),
            "{label}: free_port({node})"
        );
    }
    for s in t.switches() {
        assert_eq!(
            t.switch_neighbors(s),
            scan.switch_neighbors(s),
            "{label}: switch_neighbors({s})"
        );
        for u in t.switches() {
            assert_eq!(
                t.links_between(s, u),
                scan.links_between(s, u),
                "{label}: links_between({s}, {u})"
            );
        }
    }
    for h in t.hosts() {
        assert_eq!(
            t.host_attachments(h),
            scan.host_attachments(h),
            "{label}: host_attachments({h})"
        );
        for g in t.hosts() {
            assert_eq!(
                paths::host_wiring(t, h, g),
                scan.host_wiring(h, g),
                "{label}: host_wiring({h}, {g})"
            );
        }
    }
}

/// The generators under test. `line` and `ring` get a single-homed and a
/// dual-homed host; the installation gets a parallel twin of one chord.
fn topologies() -> Vec<(&'static str, Topology)> {
    let with_hosts = |mut t: Topology| {
        let last = SwitchId((t.switch_count() - 1) as u16);
        let h = t.add_host();
        t.attach_host(h, SwitchId(0)).expect("host link");
        let g = t.add_host();
        t.attach_host(g, last).expect("host link");
        t.attach_host(g, SwitchId(1)).expect("alternate host link");
        t
    };
    let mut src = src_installation(6, 8);
    src.link_switches(SwitchId(0), SwitchId(2))
        .expect("parallel chord");
    vec![
        ("line(5)", with_hosts(line(5))),
        ("ring(6)", with_hosts(ring(6))),
        ("src_installation(6, 8)", src),
        ("fat_tree(2, 4)", fat_tree(2, 4)),
    ]
}

/// Applies one random mutation: a link death or revival, a switch kill, or
/// a late cable between two switches or from a host to a switch (which may
/// fail on exhausted ports, as it would for the scan).
fn mutate(t: &mut Topology, kind: u8, a: u16, b: u16) {
    let link = LinkId(a as u32 % t.link_count() as u32);
    let switches = t.switch_count() as u16;
    let sw = |x: u16| SwitchId(x % switches);
    match kind {
        0 | 1 => t.set_link_state(link, LinkState::Dead),
        2 => t.set_link_state(link, LinkState::Working),
        3 => {
            t.kill_switch(sw(a));
            assert!(
                Scan(t).working_links_of(Node::Switch(sw(a))).is_empty(),
                "kill_switch({}) left a working link",
                sw(a)
            );
        }
        4 => {
            let _ = t.link_switches(sw(a), sw(b));
        }
        _ => {
            if t.host_count() > 0 {
                let h = HostId(a % t.host_count() as u16);
                let _ = t.attach_host(h, sw(b));
            }
        }
    }
}

#[test]
fn fresh_generators_match_the_scan() {
    for (label, t) in topologies() {
        assert_index_matches_scan(&t, label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn index_matches_the_scan_under_random_failures(
        ops in proptest::collection::vec((0u8..6, any::<u16>(), any::<u16>()), 1..24),
    ) {
        for (label, mut t) in topologies() {
            for &(kind, a, b) in &ops {
                mutate(&mut t, kind, a, b);
            }
            assert_index_matches_scan(&t, label);
        }
    }
}
