//! The top-of-rack switch joining host uplinks into one cluster fabric.
//!
//! Where [`crate::switch::VirtualSwitch`] forwards by exact destination
//! address (it plays the host's vSwitch), the ToR routes by *prefix*: each
//! host trunk owns an address block (`10.<host>.0.0/16` under the cluster
//! scheme) and datacenter-level endpoints (gateways, storage front-ends)
//! attach with exact-match routes. Routes are kept most-specific-first, so
//! an endpoint inside a host's block still wins over the host trunk.
//!
//! Host trunks and endpoints attach the same way: every route holds a
//! [`Port`]. A host trunk ([`TorSwitch::attach_trunk`]) hands the host the
//! [`HostUplink`] end of its port; the host sends from the thread polling
//! its shard, and the ToR drains it on the caller's thread at the round
//! barrier, in route order (host trunks sort by prefix, i.e. ascending
//! `HostId`), which keeps cross-shard frame merging deterministic for any
//! thread count. An endpoint ([`TorSwitch::attach_endpoint`]) gets the port
//! itself: its stack runs on the caller's thread alongside the ToR.

use crate::link::{Link, LinkConfig, LinkStats};
use crate::port::{next_run, Frame, Port};
use crate::uplink::{uplink_pair, HostUplink, TorUplink};

struct Trunk<P> {
    prefix: u32,
    mask: u32,
    /// Where the route's frames come from and go to: an endpoint's port or
    /// a host trunk's. A detour ([`TorSwitch::add_route_via`]) holds a clone
    /// of the port of the trunk it rides.
    port: Port<P>,
    link: Link<P>,
    /// The link shape this trunk was attached with, kept so detour routes
    /// ([`TorSwitch::add_route_via`]) inherit the downlink's character.
    config: LinkConfig,
}

/// A prefix-routed top-of-rack switch over frames with payload `P`.
///
/// Routes live in a vector sorted most-specific-first (larger mask, then
/// lower prefix), so every forwarding pass resolves destinations in a fixed
/// deterministic order — the property the byte-identical cluster replays
/// build on.
pub struct TorSwitch<P> {
    routes: Vec<Trunk<P>>,
    /// Frames dropped because no route matched the destination.
    unroutable: u64,
    /// Frames dropped because the best route led back out the ingress trunk
    /// (the owning host had no local port for the address).
    hairpins: u64,
    seed: u64,
    scratch: Vec<Frame<P>>,
}

impl<P> TorSwitch<P> {
    /// An empty ToR switch.
    pub fn new() -> Self {
        TorSwitch {
            routes: Vec::new(),
            unroutable: 0,
            hairpins: 0,
            seed: 0x70F2,
            scratch: Vec::new(),
        }
    }

    /// Install a route for `prefix/mask` over `port`, replacing any previous
    /// route for the same `(prefix, mask)`.
    fn install(&mut self, prefix: u32, mask: u32, port: Port<P>, config: LinkConfig) {
        let prefix = prefix & mask;
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(prefix as u64)
            .wrapping_add(mask as u64);
        self.routes.retain(|t| (t.prefix, t.mask) != (prefix, mask));
        self.routes.push(Trunk {
            prefix,
            mask,
            port,
            link: Link::new(config, self.seed),
            config,
        });
        // Most-specific-first, ties by prefix: deterministic longest-prefix
        // matching without a trie.
        self.routes
            .sort_by_key(|t| (std::cmp::Reverse(t.mask), t.prefix));
    }

    /// Attach a host trunk owning the block `prefix/mask`; returns the host
    /// end of the trunk for the host switch to adopt
    /// ([`crate::switch::VirtualSwitch::set_uplink`]). `link` shapes the
    /// traffic *towards* the trunk (the downlink direction). Re-attaching an
    /// existing `(prefix, mask)` replaces the old trunk (the old host end
    /// goes dead).
    pub fn attach_trunk(&mut self, prefix: u32, mask: u32, link: LinkConfig) -> HostUplink<P> {
        let (host_end, TorUplink(port)) = uplink_pair(prefix & mask);
        self.install(prefix, mask, port, link);
        host_end
    }

    /// Attach a single endpoint (an exact-match /32 route), e.g. a
    /// datacenter gateway every host talks to. Returns its port; its stack
    /// runs on the caller's thread next to the ToR.
    pub fn attach_endpoint(&mut self, addr: u32, link: LinkConfig) -> Port<P> {
        let port = Port::new(addr);
        self.install(addr, u32::MAX, port.clone(), link);
        port
    }

    /// Install a detour: frames for `prefix/mask` are delivered down the
    /// trunk that currently serves `via`, overriding the longest-prefix
    /// match. A warm migration adds a host route (`/32`) for each
    /// transplanted connection's address so the peer's frames follow the
    /// connection to its new host — the mid-step reroute of the handover.
    /// Replaces any previous route for the same `(prefix, mask)`. Returns
    /// `false` (and installs nothing) when no trunk serves `via`.
    pub fn add_route_via(&mut self, prefix: u32, mask: u32, via: u32) -> bool {
        let Some(i) = Self::route_of(&self.routes, via) else {
            return false;
        };
        let (port, config) = (self.routes[i].port.clone(), self.routes[i].config);
        self.install(prefix, mask, port, config);
        true
    }

    /// Remove the route for exactly `(prefix, mask)` — the undo of
    /// [`TorSwitch::add_route_via`] when a handover rolls back. Returns
    /// whether a route was removed. Frames already accepted onto the
    /// removed route's link are dropped with it.
    pub fn remove_route(&mut self, prefix: u32, mask: u32) -> bool {
        let prefix = prefix & mask;
        let before = self.routes.len();
        self.routes.retain(|t| (t.prefix, t.mask) != (prefix, mask));
        before != self.routes.len()
    }

    /// Detach the trunk for exactly `(prefix, mask)` together with every
    /// detour riding its port ([`TorSwitch::add_route_via`]) — what a dead
    /// host leaves behind. Returns the number of routes removed.
    pub fn detach_trunk(&mut self, prefix: u32, mask: u32) -> usize {
        let prefix = prefix & mask;
        let Some(trunk) = self
            .routes
            .iter()
            .find(|t| (t.prefix, t.mask) == (prefix, mask))
        else {
            return 0;
        };
        let port = trunk.port.clone();
        let before = self.routes.len();
        self.routes.retain(|t| !t.port.same_port(&port));
        before - self.routes.len()
    }

    /// Number of attached routes (trunks plus endpoints).
    pub fn routes(&self) -> usize {
        self.routes.len()
    }

    /// Frames dropped because no route matched.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Frames dropped because they would have exited their ingress trunk.
    pub fn hairpins(&self) -> u64 {
        self.hairpins
    }

    /// Statistics of the link towards the route for `prefix` (as passed to
    /// [`TorSwitch::attach_trunk`], i.e. already masked).
    pub fn link_stats(&self, prefix: u32) -> Option<LinkStats> {
        self.routes
            .iter()
            .find(|t| t.prefix == prefix & t.mask)
            .map(|t| t.link.stats())
    }

    fn route_of(routes: &[Trunk<P>], dst: u32) -> Option<usize> {
        routes.iter().position(|t| dst & t.mask == t.prefix)
    }

    /// Forward frames: drain every route's ingress in route order, push each
    /// frame through the destination route's link, and deliver everything
    /// whose time has come. Returns the number of frames delivered.
    ///
    /// In a sharded cluster this runs on the caller's thread at the round
    /// barrier: every helper is parked, so the drain over routes — sorted
    /// by prefix, i.e. ascending host id — is the deterministic merge point
    /// of all cross-shard traffic.
    pub fn step(&mut self, now_ns: u64) -> usize {
        self.step_with(now_ns, |_| {})
    }

    /// [`TorSwitch::step`] with a tap called on every frame at the moment
    /// of delivery — in route order, on the caller's thread, which makes the
    /// tap sequence the same for any cluster thread count. The flight
    /// recorder's hot-flow table hangs off this.
    pub fn step_with<F: FnMut(&Frame<P>)>(&mut self, now_ns: u64, mut tap: F) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.routes.len() {
            self.routes[i].port.drain_tx_into(&mut scratch);
            // One route lookup per run of frames with the same destination.
            let mut frames = scratch.drain(..);
            while let Some((dst, run)) = next_run(&mut frames) {
                match Self::route_of(&self.routes, dst) {
                    Some(j) if j != i => {
                        let link = &mut self.routes[j].link;
                        run.for_each(|f| link.offer(f, now_ns));
                    }
                    // The best route points back where the frame came from:
                    // the owning host has no port for this address. Dropping
                    // here (instead of reflecting) keeps a dead vNIC from
                    // bouncing frames between host switch and ToR forever.
                    Some(_) => self.hairpins += run.count() as u64,
                    None => self.unroutable += run.count() as u64,
                }
            }
        }
        self.scratch = scratch;
        let mut delivered = 0;
        for Trunk { port, link, .. } in &mut self.routes {
            if link.in_flight() == 0 {
                continue; // an idle route costs no lock
            }
            delivered += port.deliver_burst(|rx| {
                let before = rx.len();
                let due = link.drain_deliverable(now_ns, rx);
                rx.range(before..).for_each(&mut tap);
                due
            });
        }
        delivered
    }
}

impl<P> nk_sim::Pollable for TorSwitch<P> {
    /// One forwarding pass: trunk ingress plus delivery of every frame whose
    /// link latency has elapsed at `now_ns`.
    fn poll(&mut self, now_ns: u64) -> usize {
        self.step(now_ns)
    }
}

impl<P> Default for TorSwitch<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::VirtualSwitch;

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
        let gw = tor.attach_endpoint(0x0A01_0500, LinkConfig::ideal());

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
        let gw = tor.attach_endpoint(0xC0A8_0001, LinkConfig::ideal());

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
        assert_eq!(tor.detach_trunk(0x0A02_0000, HOST_MASK), 2);
        assert_eq!(tor.detach_trunk(0x0A02_0000, HOST_MASK), 0);
        assert_eq!(tor.routes(), 3, "t1, the endpoint and its detour stay");
    }

    /// The delivery tap sees every delivered frame, in route order.
    #[test]
    fn step_with_taps_delivered_frames() {
        let mut tor: TorSwitch<u32> = TorSwitch::new();
        let mut t1 = tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal());
        let mut t2 = tor.attach_trunk(0x0A02_0000, HOST_MASK, LinkConfig::ideal());
        t1.send(frame(0x0A01_0001, 0x0A02_0007, 11));
        t1.send(frame(0x0A01_0001, 0x0A02_0008, 12));
        let mut tapped = Vec::new();
        let delivered = tor.step_with(0, |f| tapped.push((f.dst, f.payload)));
        assert_eq!(delivered, 2);
        assert_eq!(tapped, vec![(0x0A02_0007, 11), (0x0A02_0008, 12)]);
        assert_eq!(t2.recv().unwrap().payload, 11);
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
        sw_a.set_uplink(tor.attach_trunk(0x0A01_0000, HOST_MASK, LinkConfig::ideal()));
        sw_b.set_uplink(tor.attach_trunk(0x0A02_0000, HOST_MASK, LinkConfig::ideal()));
        let a = sw_a.attach(0x0A01_0001);
        let b = sw_b.attach(0x0A02_0001);

        a.send(frame(0x0A01_0001, 0x0A02_0001, 77));
        sw_a.step(0); // local miss → uplink
        tor.step(0); // trunk A → trunk B
        sw_b.step(0); // uplink → local port
        assert_eq!(b.recv().unwrap().payload, 77);
        assert_eq!(sw_a.uplink_stats().tx_frames, 1);
        assert_eq!(sw_b.uplink_stats().rx_frames, 1);
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
}
