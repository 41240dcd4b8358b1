//! The virtual switch: one longest-prefix route table.
//!
//! The switch plays the role of the paper's vSwitch / SR-IOV embedded switch
//! (Figure 2) and, in a cluster, of the top-of-rack switch joining the hosts'
//! uplinks: one idea at two scales, one type. Every route is a
//! `prefix/mask` over a [`Port`] and the egress [`Link`] towards it, so rate
//! caps, latency and loss are configured per route:
//!
//! * a vNIC is a /32 route, and a warm-migration alias a /32 route onto an
//!   existing port;
//! * a clustered host's own `10.<host>.0.0/16` block is a drop route: a
//!   frame for a dead vNIC dies here instead of leaving as cross-host
//!   traffic;
//! * the host's uplink is its 0/0 route, over a crossed view of the trunk
//!   port it shares with the ToR ([`HostUplink`]);
//! * the ToR ([`TorSwitch`]) holds a /16 route per host trunk, /32
//!   endpoints (gateways every host talks to) and /32 detours that steer a
//!   warm-migrated address down another host's trunk.
//!
//! Routes are kept most-specific-first, ties by prefix, so the first match
//! is the longest. Every forwarding pass drains and delivers them in that
//! order: for a host the vNICs in address order, then its block, then its
//! uplink; for the ToR the host trunks in ascending `HostId`. The fixed
//! order is the deterministic merge point the seeded fault scenarios and the
//! byte-identical cluster replays build on.

use crate::link::{Link, LinkConfig, LinkStats};
use crate::port::{next_run, uplink_pair, Frame, HostUplink, Port, TorUplink, Train};
use std::cmp::Reverse;

struct Route<P> {
    prefix: u32,
    mask: u32,
    /// The port the route's frames come from and are delivered into, and
    /// the egress link towards it; `None` for a drop route. An alias or a
    /// detour holds a clone of another route's port.
    hop: Option<(Port<P>, Link<P>)>,
}

/// A longest-prefix-routed switch over frames with payload `P`.
pub struct VirtualSwitch<P> {
    routes: Vec<Route<P>>,
    /// Frames dropped because no route, or a drop route, matched.
    unroutable: u64,
    /// Frames dropped because their best block or default route was the
    /// one they entered on.
    hairpins: u64,
    seed: u64,
    /// Reusable ingress buffer (hot path).
    scratch: Vec<Frame<P>>,
}

/// The top-of-rack switch is a [`VirtualSwitch`] of host trunks.
pub type TorSwitch<P> = VirtualSwitch<P>;

impl<P: Train> VirtualSwitch<P> {
    /// A switch with no routes.
    pub fn new() -> Self {
        VirtualSwitch {
            routes: Vec::new(),
            unroutable: 0,
            hairpins: 0,
            seed: 0x5EED,
            scratch: Vec::new(),
        }
    }

    /// Install `prefix/mask` over `hop` (a port and the link shape towards
    /// it), or as a drop route, replacing any route for the same pair. Only
    /// a /32 draws the next link seed, so a host's vNIC links see the same
    /// loss draws whatever block or uplink routes it holds.
    fn install(&mut self, prefix: u32, mask: u32, hop: Option<(Port<P>, LinkConfig)>) {
        let prefix = prefix & mask;
        if mask == u32::MAX {
            self.seed = self
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(prefix as u64);
        }
        let route = Route {
            prefix,
            mask,
            hop: hop.map(|(port, config)| (port, Link::new(config, self.seed))),
        };
        let key = |r: &Route<P>| (Reverse(r.mask), r.prefix);
        match self.routes.binary_search_by_key(&key(&route), key) {
            Ok(i) => self.routes[i] = route,
            Err(i) => self.routes.insert(i, route),
        }
    }

    /// Attach a new endpoint with address `addr` over an ideal egress link;
    /// returns the endpoint's port handle. Re-attaching an existing address
    /// replaces the old port.
    pub fn attach(&mut self, addr: u32) -> Port<P> {
        self.attach_with_link(addr, LinkConfig::ideal())
    }

    /// Attach a new endpoint with a specific egress link configuration: a
    /// vNIC, or at the ToR a datacenter-level endpoint whose stack runs on
    /// the caller's thread.
    pub fn attach_with_link(&mut self, addr: u32, link: LinkConfig) -> Port<P> {
        let port = Port::new(addr);
        self.attach_alias(addr, port.clone(), link);
        port
    }

    /// Attach `addr` as an *alias* of an existing port: frames for `addr`
    /// are delivered into `port`'s receive queue exactly like frames for
    /// the port's own address. A warm migration uses this to land a
    /// transplanted connection's original address on the destination NSM's
    /// vNIC — the stack demultiplexes by full 4-tuple, so one port can
    /// serve any number of adopted addresses.
    pub fn attach_alias(&mut self, addr: u32, port: Port<P>, link: LinkConfig) {
        self.install(addr, u32::MAX, Some((port, link)));
    }

    /// Attach a host trunk owning the block `prefix/mask`; returns the host
    /// end for the host switch to adopt
    /// ([`VirtualSwitch::set_uplink_filtered`]). `link` shapes the traffic
    /// *towards* the trunk (the downlink direction). Re-attaching an
    /// existing `(prefix, mask)` replaces the old trunk (the old host end
    /// goes dead).
    pub fn attach_trunk(&mut self, prefix: u32, mask: u32, link: LinkConfig) -> HostUplink<P> {
        let (host_end, TorUplink(port)) = uplink_pair(prefix & mask);
        self.install(prefix, mask, Some((port, link)));
        host_end
    }

    /// Wire this switch's uplink: `uplink` (the host end of a ToR trunk)
    /// becomes the 0/0 route, so frames with no local port leave through it
    /// and the ToR's deliveries enter through it. `local_prefix/local_mask`,
    /// this switch's own block, becomes a drop route: a destination in it
    /// with no port (a crashed vNIC) is a local drop, not cross-host traffic.
    pub fn set_uplink_filtered(
        &mut self,
        uplink: HostUplink<P>,
        local_prefix: u32,
        local_mask: u32,
    ) {
        self.install(local_prefix, local_mask, None);
        self.install(0, 0, Some((uplink.0.crossed(), LinkConfig::ideal())));
    }

    /// Install a detour: frames for `prefix/mask` are delivered into the
    /// port of the route that currently serves `via`, overriding the
    /// longest-prefix match. A warm migration adds a /32 at the ToR for each
    /// transplanted connection's address so the peer's frames follow the
    /// connection to its new host — the mid-step reroute of the handover.
    /// Replaces any previous route for the same `(prefix, mask)`. Returns
    /// `false` (and installs nothing) when no port serves `via`.
    pub fn add_route_via(&mut self, prefix: u32, mask: u32, via: u32) -> bool {
        let Some((port, link)) = self.route_of(via).and_then(|i| self.routes[i].hop.as_ref())
        else {
            return false;
        };
        let hop = (port.clone(), *link.config());
        self.install(prefix, mask, Some(hop));
        true
    }

    /// Remove the route for exactly `(prefix, mask)` — the undo of
    /// [`VirtualSwitch::add_route_via`] when a handover rolls back. Returns
    /// whether a route was removed. Frames already accepted onto the
    /// removed route's link are dropped with it.
    pub fn remove_route(&mut self, prefix: u32, mask: u32) -> bool {
        let prefix = prefix & mask;
        let before = self.routes.len();
        self.routes.retain(|r| (r.prefix, r.mask) != (prefix, mask));
        before != self.routes.len()
    }

    /// Detach an endpoint (its /32 route).
    pub fn detach(&mut self, addr: u32) {
        self.remove_route(addr, u32::MAX);
    }

    /// Detach the route for exactly `(prefix, mask)` together with every
    /// route riding its port — aliases ([`VirtualSwitch::attach_alias`])
    /// and detours ([`VirtualSwitch::add_route_via`]): what a crashed vNIC
    /// or a dead host's trunk leaves behind. Returns the number of routes
    /// removed.
    pub fn detach_port(&mut self, prefix: u32, mask: u32) -> usize {
        let prefix = prefix & mask;
        let route = self
            .routes
            .iter()
            .find(|r| (r.prefix, r.mask) == (prefix, mask));
        let Some((port, _)) = route.and_then(|r| r.hop.as_ref()) else {
            return 0;
        };
        let port = port.clone();
        let before = self.routes.len();
        self.routes
            .retain(|r| !r.hop.as_ref().is_some_and(|(p, _)| p.same_port(&port)));
        before - self.routes.len()
    }

    /// Every /32 route that delivers into another address's port, as
    /// `(address, the port's address)`, in address order: a host switch's
    /// adopted warm-move addresses, a ToR's detours.
    pub fn aliases(&self) -> Vec<(u32, u32)> {
        let hosts = self.routes.iter().filter(|r| r.mask == u32::MAX);
        let via = |r: &Route<P>| Some((r.prefix, r.hop.as_ref()?.0.addr()));
        hosts
            .filter_map(via)
            .filter(|(addr, port)| addr != port)
            .collect()
    }

    /// Reconfigure the egress link towards `addr` mid-flight (fault
    /// injection: rate, loss, latency or reordering changes under live
    /// traffic). In-flight frames keep their original delivery schedule.
    pub fn set_link_config(&mut self, addr: u32, config: LinkConfig, now_ns: u64) -> bool {
        match self.exact(addr).and_then(|i| self.routes[i].hop.as_mut()) {
            Some((_, link)) => {
                link.set_config(config, now_ns);
                true
            }
            None => false,
        }
    }

    /// Statistics of the egress link of the route whose prefix is exactly
    /// `addr`: a vNIC's address, a trunk's (already masked) block, or 0 for
    /// a host's uplink.
    pub fn link_stats(&self, addr: u32) -> Option<LinkStats> {
        let (_, link) = self.routes[self.exact(addr)?].hop.as_ref()?;
        Some(link.stats())
    }

    /// Number of installed routes.
    pub fn routes(&self) -> usize {
        self.routes.len()
    }

    /// Frames dropped because no route, or a drop route, matched.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Frames dropped because their best block or default route was the
    /// one they entered on.
    pub fn hairpins(&self) -> u64 {
        self.hairpins
    }

    /// The most specific route for `dst`.
    fn route_of(&self, dst: u32) -> Option<usize> {
        self.routes.iter().position(|r| dst & r.mask == r.prefix)
    }

    /// The most specific route whose prefix is exactly `addr`.
    fn exact(&self, addr: u32) -> Option<usize> {
        self.routes.iter().position(|r| r.prefix == addr)
    }

    /// Forward frames: drain every route's port in route order, push each
    /// frame through its best route's link, and deliver everything whose
    /// time has come. Returns the number of wire frames delivered (a
    /// [`Train`] counts each of its frames).
    ///
    /// This is the switch's one forwarding loop, host switch and ToR alike,
    /// and nothing taps it: a due frame goes straight from its link into
    /// the port's receive queue.
    ///
    /// At the ToR of a sharded cluster this runs on the caller's thread at
    /// the round barrier: every helper is parked, so the drain over routes —
    /// host trunks by prefix, i.e. ascending host id — is the deterministic
    /// merge point of all cross-shard traffic.
    pub fn step(&mut self, now_ns: u64) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.routes.len() {
            let Some((port, _)) = &self.routes[i].hop else {
                continue;
            };
            if port.drain_tx_into(&mut scratch) == 0 {
                continue; // an idle port costs one atomic load, no lock
            }
            // One route lookup per run of frames with the same destination.
            let mut frames = scratch.drain(..);
            while let Some((dst, run)) = next_run(&mut frames) {
                let hop = match self.route_of(dst) {
                    // A block or default route never sends a frame back out
                    // where it came in: the owner has no port for it, and
                    // reflecting would bounce a dead vNIC's frames between
                    // host switch and ToR forever. A /32's frames to itself
                    // are delivered (two VMs on one NSM).
                    Some(j) if j == i && self.routes[j].mask != u32::MAX => {
                        self.hairpins += wire_frames(run);
                        continue;
                    }
                    Some(j) => self.routes[j].hop.as_mut(),
                    None => None,
                };
                match hop {
                    Some((_, link)) => run.for_each(|f| link.offer(f, now_ns)),
                    None => self.unroutable += wire_frames(run),
                }
            }
        }
        self.scratch = scratch;
        let mut delivered = 0;
        for Route { mask, hop, .. } in &mut self.routes {
            let Some((port, link)) = hop else { continue };
            if !link.has_due(now_ns) {
                continue; // a route with nothing due costs no lock
            }
            let due = port.deliver_burst(|rx| link.drain_deliverable(now_ns, rx));
            // Frames handed up the default route are the upstream switch's
            // to deliver and count.
            if *mask != 0 {
                delivered += due;
            }
        }
        delivered
    }
}

/// Wire frames in `run`: what the switch counts, a train as its frames.
fn wire_frames<P: Train>(run: impl Iterator<Item = Frame<P>>) -> u64 {
    run.map(|f| f.payload.frames() as u64).sum()
}

impl<P: Train> nk_sim::Pollable for VirtualSwitch<P> {
    /// One forwarding pass: ingress collection plus delivery of every frame
    /// whose link latency has elapsed at `now_ns`.
    fn poll(&mut self, now_ns: u64) -> usize {
        self.step(now_ns)
    }
}

impl<P: Train> Default for VirtualSwitch<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_sim::SplitMix64;
    use std::collections::BTreeMap;

    const HOST_MASK: u32 = 0xFFFF_0000;

    fn frame(src: u32, dst: u32, tag: u32) -> Frame<u32> {
        Frame {
            src,
            dst,
            flow_hash: tag as u64,
            wire_bytes: 100,
            payload: tag,
        }
    }

    /// Every payload waiting at `port`, in arrival order.
    fn tags(port: &Port<u32>) -> Vec<u32> {
        std::iter::from_fn(|| port.recv())
            .map(|f| f.payload)
            .collect()
    }

    /// A host switch at `10.1.0.0/16` with its uplink wired, and the ToR
    /// end of that uplink.
    fn host_with_uplink() -> (VirtualSwitch<u32>, TorUplink<u32>) {
        let mut sw = VirtualSwitch::new();
        let (host_end, tor_end) = uplink_pair(0x0A01_0000);
        sw.set_uplink_filtered(host_end, 0x0A01_0000, HOST_MASK);
        (sw, tor_end)
    }

    /// Payloads the host sent up its uplink since the last call.
    fn sent_up(tor_end: &mut TorUplink<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        tor_end.drain_into(&mut out);
        out.iter().map(|f| f.payload).collect()
    }

    #[test]
    fn forwards_between_two_ports() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let b = sw.attach(2);
        a.send(frame(1, 2, 11));
        b.send(frame(2, 1, 22));
        let delivered = sw.step(0);
        assert_eq!(delivered, 2);
        assert_eq!(b.recv().unwrap().payload, 11);
        assert_eq!(a.recv().unwrap().payload, 22);
    }

    #[test]
    fn unknown_destination_is_counted() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        a.send(frame(1, 99, 1));
        sw.step(0);
        assert_eq!(sw.unroutable(), 1);
    }

    #[test]
    fn detach_stops_forwarding() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let _b = sw.attach(2);
        sw.detach(2);
        assert_eq!(sw.routes(), 1);
        a.send(frame(1, 2, 1));
        sw.step(0);
        assert_eq!(sw.unroutable(), 1);
    }

    #[test]
    fn per_port_latency_applies_on_egress() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let b = sw.attach_with_link(2, LinkConfig::ideal().with_latency_us(100));
        a.send(frame(1, 2, 5));
        sw.step(0);
        assert_eq!(b.rx_pending(), 0);
        sw.step(100_000);
        assert_eq!(b.recv().unwrap().payload, 5);
    }

    /// A route locks its port only for a frame that is due: a frame on a
    /// 2-µs link stays on the link at every step before its time, with the
    /// port's receive queue empty, and lands at exactly its time.
    #[test]
    fn a_frame_lands_at_exactly_its_time_and_not_a_step_before() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let b = sw.attach_with_link(2, LinkConfig::ideal().with_latency_us(2));
        a.send(frame(1, 2, 7));
        for now in [1_000, 2_000, 2_999] {
            assert_eq!(sw.step(now), 0, "at {now} ns");
            assert_eq!(b.rx_pending(), 0, "at {now} ns");
        }
        assert_eq!(sw.link_stats(2).unwrap().delivered, 0);
        assert!(b.recv().is_none());
        assert_eq!(sw.step(3_000), 1);
        assert_eq!(tags(&b), vec![7]);
    }

    /// Degrading a port's egress link mid-flight affects only frames
    /// forwarded after the change; already-queued frames still arrive.
    #[test]
    fn link_reconfiguration_applies_mid_flight() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let b = sw.attach_with_link(2, LinkConfig::ideal().with_latency_us(10));
        a.send(frame(1, 2, 1));
        sw.step(0); // frame admitted at 10 µs latency
        assert!(sw.set_link_config(2, LinkConfig::ideal().with_loss(1.0), 0));
        a.send(frame(1, 2, 2)); // hits the fully lossy link
        sw.step(10_000);
        assert_eq!(b.recv().unwrap().payload, 1, "in-flight frame survives");
        assert!(b.recv().is_none(), "post-change frame was dropped");
        assert_eq!(sw.link_stats(2).unwrap().dropped, 1);
        assert!(!sw.set_link_config(99, LinkConfig::ideal(), 0));
    }

    /// An alias delivers a second address into an existing port's queue.
    #[test]
    fn alias_delivers_into_the_adopting_port() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let b = sw.attach(2);
        sw.attach_alias(99, b.clone(), LinkConfig::ideal());
        a.send(frame(1, 99, 42));
        a.send(frame(1, 2, 43));
        sw.step(0);
        let mut got = tags(&b);
        got.sort_unstable();
        assert_eq!(got, [42, 43], "both the alias and the home address land");
        assert_eq!(sw.aliases(), [(99, 2)]);
        sw.detach(99);
        a.send(frame(1, 99, 44));
        sw.step(0);
        assert_eq!(sw.unroutable(), 1);
    }

    /// `link_stats` reads the route whose prefix is exactly the address: a
    /// dead vNIC inside the host's block reports nothing, not the block.
    #[test]
    fn link_stats_visible_per_destination() {
        let (mut sw, _tor_end) = host_with_uplink();
        let a = sw.attach(0x0A01_0001);
        let _b = sw.attach(0x0A01_0002);
        a.send(frame(a.addr(), 0x0A01_0002, 1));
        a.send(frame(a.addr(), 0x0A01_0002, 2));
        sw.step(0);
        assert_eq!(sw.link_stats(0x0A01_0002).unwrap().delivered, 2);
        assert!(sw.link_stats(0x0A01_0042).is_none());
        assert!(
            sw.link_stats(0x0A01_0000).is_none(),
            "a drop route has no link"
        );
    }

    /// With an uplink wired, frames with no local port leave through it,
    /// frames the ToR delivers reach local ports, and frames from the
    /// uplink for addresses this host does not own die here — never bounced
    /// back to the ToR.
    #[test]
    fn uplink_carries_nonlocal_traffic_both_ways() {
        let (mut sw, mut tor_end) = host_with_uplink();
        let a = sw.attach(0x0A01_0001);

        // Outbound: no local port → the frame exits via the uplink, and a
        // hand-off up the uplink is not counted as a delivery here.
        a.send(frame(a.addr(), 0x0A02_0099, 7));
        assert_eq!(sw.step(0), 0);
        assert_eq!(sw.unroutable(), 0);
        assert_eq!(sent_up(&mut tor_end), [7]);

        // Inbound: the ToR delivers a frame for local port 1.
        tor_end
            .0
            .deliver_burst(|rx| rx.push_back(frame(0x0A02_0099, a.addr(), 8)));
        assert_eq!(sw.step(0), 1);
        assert_eq!(tags(&a), [8]);

        // Inbound for another host's address is a hairpin, for a dead
        // address in the block a local drop; neither goes back up.
        tor_end.0.deliver_burst(|rx| {
            rx.push_back(frame(0x0A02_0099, 0x0A03_0001, 9));
            rx.push_back(frame(0x0A02_0099, 0x0A01_0042, 10));
        });
        sw.step(0);
        assert_eq!((sw.hairpins(), sw.unroutable()), (1, 1));
        assert!(
            sent_up(&mut tor_end).is_empty(),
            "no ping-pong back to the ToR"
        );
    }

    /// The egress is resolved once per run of frames with one destination;
    /// a burst that interleaves local, dead, unknown and remote
    /// destinations still sends every frame where a per-frame lookup
    /// would, in the order it was sent.
    #[test]
    fn a_mixed_burst_is_forwarded_run_by_run() {
        let (mut sw, mut tor_end) = host_with_uplink();
        let a = sw.attach(0x0A01_0001);
        let b = sw.attach(0x0A01_0002);
        let c = sw.attach(0x0A01_0003);
        let (dead, remote) = (0x0A01_0099, 0x0A02_0001);
        let dsts = [b.addr(), b.addr(), c.addr(), dead, dead, b.addr(), remote];
        let mut burst: Vec<Frame<u32>> = (dsts.iter().zip(0..))
            .map(|(&dst, tag)| frame(a.addr(), dst, tag))
            .collect();
        burst.push(frame(a.addr(), remote, 7));
        burst.push(frame(a.addr(), c.addr(), 8));
        a.send_burst(&mut burst);
        assert_eq!(sw.step(0), 5);
        assert_eq!((tags(&b), tags(&c)), (vec![0, 1, 5], vec![2, 8]));
        assert_eq!(sw.unroutable(), 2);
        assert_eq!(sent_up(&mut tor_end), [6, 7]);
        assert_eq!(sw.link_stats(0).unwrap().delivered_bytes, 200);
    }

    /// Installing the uplink and block routes draws no link seed: a lossy
    /// vNIC attached after them drops exactly the frames it drops on a
    /// switch with no uplink.
    #[test]
    fn uplink_and_block_routes_leave_the_vnic_seeds_alone() {
        let run = |uplink: bool| {
            let lossy = LinkConfig::ideal().with_loss(0.3);
            let mut sw = VirtualSwitch::new();
            let a = sw.attach_with_link(0x0A01_0001, lossy);
            if uplink {
                sw.set_uplink_filtered(uplink_pair(0x0A01_0000).0, 0x0A01_0000, HOST_MASK);
            }
            let b = sw.attach_with_link(0x0A01_0002, lossy);
            for tag in 0..200 {
                a.send(frame(a.addr(), b.addr(), tag));
                b.send(frame(b.addr(), a.addr(), tag));
            }
            sw.step(0);
            (tags(&a), tags(&b))
        };
        let (a, b) = run(false);
        assert!(a.len() < 180 && b.len() < 180, "the links are lossy");
        assert_eq!(run(true), (a, b));
    }

    #[test]
    fn routes_between_trunks_by_prefix() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut t1 = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        let mut t2 = tor.attach_trunk(0x0A02_0000, HOST_MASK, LinkConfig::ideal());
        assert_eq!(tor.routes(), 2);

        t1.send(frame(0x0A01_0001, 0x0A02_0007, 11));
        let delivered = tor.step(0);
        assert_eq!(delivered, 1);
        assert_eq!(t2.recv().unwrap().payload, 11);
        assert_eq!(tor.link_stats(0x0A02_0000).unwrap().delivered, 1);
    }

    /// An exact-match endpoint inside a trunk's block wins over the trunk.
    #[test]
    fn endpoints_are_more_specific_than_trunks() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut trunk = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        let gw = tor.attach_with_link(0x0A01_0500, LinkConfig::ideal());

        let mut other = tor.attach_trunk(0x0A02_0000, HOST_MASK, LinkConfig::ideal());
        other.send(frame(0x0A02_0001, 0x0A01_0500, 1));
        other.send(frame(0x0A02_0001, 0x0A01_0001, 2));
        tor.step(0);
        assert_eq!(gw.recv().unwrap().payload, 1);
        assert_eq!(trunk.recv().unwrap().payload, 2);
    }

    /// Frames that would exit their ingress trunk (or match nothing) die at
    /// the ToR with distinct counters.
    #[test]
    fn hairpins_and_unknown_destinations_are_dropped() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut t1 = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        t1.send(frame(0x0A01_0001, 0x0A01_0099, 1)); // back out the same trunk
        t1.send(frame(0x0A01_0001, 0xDEAD_0000, 2)); // no route at all
        tor.step(0);
        assert_eq!(tor.hairpins(), 1);
        assert_eq!(tor.unroutable(), 1);
        assert!(t1.recv().is_none());
    }

    /// A detour route steers one address off its home trunk and onto
    /// another host's trunk — the warm-migration reroute — removing it
    /// restores longest-prefix routing, and detaching the trunk removes it.
    #[test]
    fn detour_route_overrides_prefix_and_is_removable() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut t1 = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        let mut t2 = tor.attach_trunk(0x0A02_0000, HOST_MASK, LinkConfig::ideal());
        let gw = tor.attach_with_link(0xC0A8_0001, LinkConfig::ideal());

        // The migrated address 10.1.0.1 now lives behind host 2's trunk.
        assert!(tor.add_route_via(0x0A01_0001, u32::MAX, 0x0A02_0000));
        assert!(!tor.add_route_via(0x0A01_0001, u32::MAX, 0xDEAD_0000));

        gw.send(frame(0xC0A8_0001, 0x0A01_0001, 1)); // rerouted address
        gw.send(frame(0xC0A8_0001, 0x0A01_0002, 2)); // rest of the block
        tor.step(0);
        assert_eq!(t2.recv().unwrap().payload, 1, "detour wins over the /16");
        assert_eq!(t1.recv().unwrap().payload, 2);

        // Rollback: the /32 goes away and the block routes whole again.
        assert!(tor.remove_route(0x0A01_0001, u32::MAX));
        assert!(!tor.remove_route(0x0A01_0001, u32::MAX));
        gw.send(frame(0xC0A8_0001, 0x0A01_0001, 3));
        tor.step(0);
        assert_eq!(t1.recv().unwrap().payload, 3);

        // A dead trunk takes the detours riding it along, and nothing else.
        assert!(tor.add_route_via(0x0A01_0001, u32::MAX, 0x0A02_0000));
        assert!(tor.add_route_via(0x0A01_0002, u32::MAX, 0xC0A8_0001));
        assert_eq!(
            tor.aliases(),
            [(0x0A01_0001, 0x0A02_0000), (0x0A01_0002, 0xC0A8_0001)]
        );
        assert_eq!(tor.detach_port(0x0A02_0000, HOST_MASK), 2);
        assert_eq!(tor.detach_port(0x0A02_0000, HOST_MASK), 0);
        assert_eq!(tor.aliases(), [(0x0A01_0002, 0xC0A8_0001)]);
        assert_eq!(tor.routes(), 3, "t1, the endpoint and its detour stay");
    }

    /// The switch counts wire frames: a train delivered, hairpinned or
    /// unroutable counts each of its frames, and is delivered once, whole.
    #[test]
    fn a_train_counts_as_its_frames() {
        use crate::port::tests::Run;
        let train = |dst, first, frames| Frame {
            src: 0x0A01_0001,
            dst,
            flow_hash: 0,
            wire_bytes: 100 * frames,
            payload: Run { first, frames },
        };
        let mut sw: VirtualSwitch<Run> = VirtualSwitch::new();
        let (host_end, _tor_end) = uplink_pair(0x0A01_0000);
        sw.set_uplink_filtered(host_end, 0x0A01_0000, HOST_MASK);
        let a = sw.attach(0x0A01_0001);
        let b = sw.attach(0x0A01_0002);
        a.send(train(0x0A01_0002, 0, 3));
        a.send(train(0x0A01_0009, 3, 4)); // a dead vNIC in the block
        assert_eq!(sw.step(0), 3);
        let whole = Run {
            first: 0,
            frames: 3,
        };
        assert_eq!(
            b.recv().map(|f| (f.payload, f.wire_bytes)),
            Some((whole, 300))
        );
        assert!(b.recv().is_none());
        assert_eq!(sw.unroutable(), 4);
        let stats = sw.link_stats(0x0A01_0002).unwrap();
        assert_eq!((stats.sent, stats.delivered), (3, 3));

        let mut tor: TorSwitch<Run> = TorSwitch::new();
        let mut trunk = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        trunk.send(train(0x0A01_0005, 7, 2));
        assert_eq!(tor.step(0), 0);
        assert_eq!(tor.hairpins(), 2);
    }

    /// Downlink latency applies on the way towards a trunk.
    #[test]
    fn trunk_link_latency_applies() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut t1 = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        let mut t2 = tor.attach_trunk(
            0x0A02_0000,
            HOST_MASK,
            LinkConfig::ideal().with_latency_us(50),
        );
        t1.send(frame(0x0A01_0001, 0x0A02_0001, 5));
        tor.step(0);
        assert!(t2.recv().is_none());
        tor.step(50_000);
        assert_eq!(t2.recv().unwrap().payload, 5);
    }

    /// Two host switches wired through the ToR: a frame crosses host A's
    /// switch → uplink → ToR → host B's uplink → host B's switch → port.
    #[test]
    fn end_to_end_across_two_host_switches() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut sw_a: VirtualSwitch<u32> = VirtualSwitch::new();
        let mut sw_b: VirtualSwitch<u32> = VirtualSwitch::new();
        let trunk = |tor: &mut TorSwitch<u32>, prefix| {
            tor.attach_trunk(prefix, HOST_MASK, LinkConfig::ideal())
        };
        sw_a.set_uplink_filtered(trunk(&mut tor, 0x0A01_0000), 0x0A01_0000, HOST_MASK);
        sw_b.set_uplink_filtered(trunk(&mut tor, 0x0A02_0000), 0x0A02_0000, HOST_MASK);
        let a = sw_a.attach(0x0A01_0001);
        let b = sw_b.attach(0x0A02_0001);

        a.send(frame(0x0A01_0001, 0x0A02_0001, 77));
        sw_a.step(0); // local miss → uplink
        tor.step(0); // trunk A → trunk B
        sw_b.step(0); // uplink → local port
        assert_eq!(b.recv().unwrap().payload, 77);
        assert_eq!(sw_a.link_stats(0).unwrap().delivered_bytes, 100);
        assert_eq!(tor.link_stats(0x0A02_0000).unwrap().delivered_bytes, 100);
        assert_eq!(sw_a.unroutable() + sw_b.unroutable(), 0);

        // And the reply crosses back.
        b.send(frame(0x0A02_0001, 0x0A01_0001, 78));
        sw_b.step(0);
        tor.step(0);
        sw_a.step(0);
        assert_eq!(a.recv().unwrap().payload, 78);
    }

    /// Replacing a trunk kills the old host end: the ToR neither delivers
    /// into its port nor drains it any more.
    #[test]
    fn reattach_replaces_the_trunk_and_kills_the_old_end() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut old = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        let mut gw_feed = tor.attach_trunk(0x0A02_0000, HOST_MASK, LinkConfig::ideal());
        let mut new = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        assert_eq!(tor.routes(), 2, "re-attach replaced, not duplicated");

        gw_feed.send(frame(0x0A02_0001, 0x0A01_0001, 9));
        tor.step(0);
        assert_eq!(new.recv().unwrap().payload, 9, "new end serves the block");
        assert!(old.recv().is_none(), "old end is dead");

        // Frames the dead end sends are never drained.
        old.send(frame(0x0A01_0001, 0x0A02_0001, 1));
        tor.step(0);
        assert!(gw_feed.recv().is_none());
    }

    /// A trunk carries both directions in order, each independent of the
    /// other.
    #[test]
    fn trunk_frames_flow_both_directions_in_order() {
        let (mut host, mut tor) = uplink_pair::<u32>(0x0A01_0000);
        host.send(frame(1, 0x0A02_0001, 1));
        host.send(frame(1, 0x0A02_0001, 2));
        tor.0
            .deliver_burst(|rx| rx.push_back(frame(1, 0x0A01_0001, 3)));
        let mut out = Vec::new();
        assert_eq!(tor.drain_into(&mut out), 2);
        assert_eq!(out.iter().map(|f| f.payload).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(tor.drain_into(&mut out), 0);
        tor.0
            .deliver_burst(|rx| rx.push_back(frame(1, 0x0A01_0001, 4)));
        assert_eq!(host.recv().unwrap().payload, 3);
        assert_eq!(host.recv().unwrap().payload, 4);
        assert!(host.recv().is_none());
    }

    /// The trunk is a cross-thread edge: one thread sends N frames, singly
    /// and in bursts, while another drains the ToR side concurrently. Every
    /// frame arrives exactly once, in send order.
    #[test]
    fn a_concurrent_sender_and_drainer_see_every_frame_once_in_order() {
        const N: u32 = 50_000;
        let (mut host, mut tor) = uplink_pair::<u32>(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut tag = 0;
                let mut burst = Vec::new();
                while tag < N {
                    // Alternate a single frame with a burst of up to 7.
                    host.send(frame(1, 2, tag));
                    tag += 1;
                    burst.extend((tag..N.min(tag + 7)).map(|t| frame(1, 2, t)));
                    tag += burst.len() as u32;
                    host.0.send_burst(&mut burst);
                }
            });
            let mut got = Vec::with_capacity(N as usize);
            while got.len() < N as usize {
                if tor.drain_into(&mut got) == 0 {
                    std::thread::yield_now();
                }
            }
            assert!(got.iter().map(|f| f.payload).eq(0..N));
        });
    }

    /// One end of a route in the property test, and how frames enter and
    /// leave the switch through it.
    enum End {
        Port(Port<u32>),
        Trunk(HostUplink<u32>),
        Uplink(TorUplink<u32>),
    }

    impl End {
        fn send(&mut self, f: Frame<u32>) {
            match self {
                End::Port(p) => p.send(f),
                End::Trunk(h) => h.send(f),
                End::Uplink(t) => t.0.deliver_burst(|rx| rx.push_back(f)),
            }
        }

        fn received(&mut self) -> Vec<u32> {
            let mut out = Vec::new();
            match self {
                End::Port(p) => out.extend(std::iter::from_fn(|| p.recv())),
                End::Trunk(h) => out.extend(std::iter::from_fn(|| h.recv())),
                End::Uplink(t) => {
                    t.drain_into(&mut out);
                }
            }
            out.iter().map(|f| f.payload).collect()
        }
    }

    /// Seeded random /32, /16 and /0 routes — installed, replaced and
    /// removed — against a brute-force longest-prefix reference: every
    /// frame from every live end is delivered to the end of the longest
    /// matching route, hairpinned when that is the block or default route
    /// it came in on, and dropped when it is a drop route or nothing.
    #[test]
    fn forwarding_matches_a_brute_force_longest_prefix_reference() {
        // Frames delivered, hairpinned and dropped over all seeds.
        let mut seen = [0; 3];
        for seed in 1..=40u64 {
            let mut rng = SplitMix64::new(seed);
            let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
            let mut ends: Vec<End> = Vec::new();
            // (prefix, mask) → the end a route delivers into, or a drop route.
            let mut table: BTreeMap<(u32, u32), Option<usize>> = BTreeMap::new();
            let addr = |rng: &mut SplitMix64| {
                0x0A00_0000 | (rng.next_below(4) as u32) << 16 | rng.next_below(6) as u32
            };
            for _ in 0..12 {
                let a = addr(&mut rng);
                match rng.next_below(8) {
                    0..=3 => {
                        ends.push(End::Port(sw.attach(a)));
                        table.insert((a, u32::MAX), Some(ends.len() - 1));
                    }
                    4 | 5 => {
                        let prefix = a & HOST_MASK;
                        ends.push(End::Trunk(sw.attach_trunk(
                            prefix,
                            HOST_MASK,
                            LinkConfig::ideal(),
                        )));
                        table.insert((prefix, HOST_MASK), Some(ends.len() - 1));
                    }
                    6 => {
                        let (host_end, tor_end) = uplink_pair(0);
                        sw.set_uplink_filtered(host_end, a, HOST_MASK);
                        ends.push(End::Uplink(tor_end));
                        table.insert((a & HOST_MASK, HOST_MASK), None);
                        table.insert((0, 0), Some(ends.len() - 1));
                    }
                    _ => {
                        let mask = [u32::MAX, HOST_MASK][rng.next_below(2) as usize];
                        let removed = table.remove(&(a & mask, mask)).is_some();
                        assert_eq!(sw.remove_route(a, mask), removed);
                    }
                }
            }
            assert_eq!(sw.routes(), table.len());
            let live: Vec<usize> = table.values().flatten().copied().collect();
            if live.is_empty() {
                continue;
            }
            let mut expected: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            let (mut hairpins, mut dropped) = (0, 0);
            for tag in 0..200 {
                let from = live[rng.next_below(live.len() as u64) as usize];
                let dst = if rng.chance(0.1) {
                    rng.next_u64() as u32
                } else {
                    addr(&mut rng)
                };
                let best = table
                    .iter()
                    .filter(|((prefix, mask), _)| dst & mask == *prefix)
                    .max_by_key(|((_, mask), _)| *mask);
                match best {
                    Some(((_, mask), Some(end))) if *end == from && *mask != u32::MAX => {
                        hairpins += 1
                    }
                    Some((_, Some(end))) => expected.entry(*end).or_default().push(tag),
                    _ => dropped += 1,
                }
                ends[from].send(frame(0, dst, tag));
            }
            sw.step(0);
            for (i, end) in ends.iter_mut().enumerate() {
                let mut got = end.received();
                got.sort_unstable();
                let want = expected.remove(&i).unwrap_or_default();
                assert_eq!(got, want, "seed {seed}: end {i}");
            }
            assert_eq!(
                (sw.hairpins(), sw.unroutable()),
                (hairpins, dropped),
                "seed {seed}"
            );
            seen[0] += 200 - hairpins - dropped;
            seen[1] += hairpins;
            seen[2] += dropped;
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "every outcome is exercised: {seen:?}"
        );
    }
}
