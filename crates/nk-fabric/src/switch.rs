//! The virtual switch connecting ports.
//!
//! The switch plays the role of the paper's vSwitch / SR-IOV embedded switch
//! (Figure 2): every vNIC (NSM port, baseline VM port, remote host port)
//! attaches to it and frames are forwarded by destination address. Each
//! attached port gets an egress [`Link`] so per-port rate caps, latency and
//! loss can be configured.
//!
//! A clustered host's switch also holds the host end of its ToR trunk
//! ([`crate::uplink`]): each forwarding pass sends everything with no local
//! port up the trunk as one burst, and takes the ToR's deliveries in one
//! call.

use crate::link::{Link, LinkConfig, LinkStats};
use crate::port::{next_run, Frame, Port};
use crate::uplink::HostUplink;
use std::collections::{BTreeMap, VecDeque};

/// Traffic counters of a switch's uplink towards the top-of-rack switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UplinkStats {
    /// Frames sent out the uplink (no local port matched).
    pub tx_frames: u64,
    /// Wire bytes sent out the uplink.
    pub tx_bytes: u64,
    /// Frames received from the uplink and forwarded locally.
    pub rx_frames: u64,
    /// Wire bytes received from the uplink.
    pub rx_bytes: u64,
}

/// A virtual switch over frames with payload `P`.
///
/// Ports live in a `BTreeMap` so every forwarding pass visits them in
/// address order: the whole fabric stays deterministic across runs, which
/// the seeded fault-injection scenarios depend on.
pub struct VirtualSwitch<P> {
    /// Every attached address: the port its frames are delivered into and
    /// its egress link (impairments applied on the way *out* of the switch
    /// towards that port).
    ports: BTreeMap<u32, (Port<P>, Link<P>)>,
    default_link: LinkConfig,
    /// Frames dropped because the destination is unknown.
    unroutable: u64,
    /// Uplink towards a top-of-rack switch, when this switch is one host of
    /// a cluster: frames with no local destination leave through it instead
    /// of being dropped, and frames the ToR delivers re-enter through it.
    /// This is the host end of the trunk's port — the only edge that
    /// crosses a shard boundary when the cluster runs sharded.
    uplink: Option<HostUplink<P>>,
    /// Addresses under this `(prefix, mask)` are local to this switch even
    /// when no port currently owns them (a crashed vNIC): frames for them
    /// die here as unroutable instead of leaking out the uplink as phantom
    /// cross-host traffic.
    uplink_local: Option<(u32, u32)>,
    uplink_stats: UplinkStats,
    /// `(tx_bytes, rx_bytes)` as [`VirtualSwitch::take_uplink_bytes`] last saw them.
    uplink_mark: (u64, u64),
    seed: u64,
    /// Reusable frame buffers (hot path): the ingress/egress drain, the
    /// uplink-bound burst of a forwarding pass, and the ToR's deliveries.
    scratch: Vec<Frame<P>>,
    uplink_tx: Vec<Frame<P>>,
    uplink_rx: VecDeque<Frame<P>>,
}

impl<P> VirtualSwitch<P> {
    /// A switch whose ports get ideal egress links by default.
    pub fn new() -> Self {
        Self::with_default_link(LinkConfig::ideal())
    }

    /// A switch applying `default_link` to every port unless overridden.
    pub fn with_default_link(default_link: LinkConfig) -> Self {
        VirtualSwitch {
            ports: BTreeMap::new(),
            default_link,
            unroutable: 0,
            uplink: None,
            uplink_local: None,
            uplink_stats: UplinkStats::default(),
            uplink_mark: (0, 0),
            seed: 0x5EED,
            scratch: Vec::new(),
            uplink_tx: Vec::new(),
            uplink_rx: VecDeque::new(),
        }
    }

    /// Wire this switch's uplink: `uplink` is the host side of a trunk the
    /// top-of-rack switch attached. From now on frames with no local port go
    /// out the uplink instead of being dropped, and frames the ToR delivers
    /// are forwarded to local ports on every step.
    pub fn set_uplink(&mut self, uplink: HostUplink<P>) {
        self.uplink = Some(uplink);
    }

    /// Like [`VirtualSwitch::set_uplink`], but frames for addresses inside
    /// `local_prefix/local_mask` never exit the uplink: that block belongs
    /// to this switch, so a destination in it with no port (a crashed vNIC)
    /// is a local drop, not cross-host traffic. A clustered host passes its
    /// own address block here.
    pub fn set_uplink_filtered(
        &mut self,
        uplink: HostUplink<P>,
        local_prefix: u32,
        local_mask: u32,
    ) {
        self.uplink = Some(uplink);
        self.uplink_local = Some((local_prefix & local_mask, local_mask));
    }

    /// Traffic counters of the uplink (zero when none is wired).
    pub fn uplink_stats(&self) -> UplinkStats {
        self.uplink_stats
    }

    /// Uplink wire bytes `(tx, rx)` since the last call: the cluster
    /// placer's traffic signal, its cursor kept beside the counters.
    pub fn take_uplink_bytes(&mut self) -> (u64, u64) {
        let now = (self.uplink_stats.tx_bytes, self.uplink_stats.rx_bytes);
        let prev = std::mem::replace(&mut self.uplink_mark, now);
        (now.0 - prev.0, now.1 - prev.1)
    }

    /// Attach a new endpoint with address `addr`; returns the endpoint's port
    /// handle. Re-attaching an existing address replaces the old port.
    pub fn attach(&mut self, addr: u32) -> Port<P> {
        self.attach_with_link(addr, self.default_link)
    }

    /// Attach a new endpoint with a specific egress link configuration.
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
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(addr as u64);
        self.ports.insert(addr, (port, Link::new(link, self.seed)));
    }

    /// Detach an endpoint.
    pub fn detach(&mut self, addr: u32) {
        self.ports.remove(&addr);
    }

    /// Reconfigure the egress link towards `addr` mid-flight (fault
    /// injection: rate, loss, latency or reordering changes under live
    /// traffic). In-flight frames keep their original delivery schedule.
    pub fn set_link_config(&mut self, addr: u32, config: LinkConfig, now_ns: u64) -> bool {
        match self.ports.get_mut(&addr) {
            Some((_, link)) => {
                link.set_config(config, now_ns);
                true
            }
            None => false,
        }
    }

    /// Number of attached ports.
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Forward frames: drain every port's TX queue (and the uplink's RX
    /// side), push frames through the destination's egress link, and deliver
    /// everything whose time has come. Frames with no local destination go
    /// out the uplink when one is wired, and are dropped otherwise.
    ///
    /// Returns the number of frames delivered to ports during this call.
    pub fn step(&mut self, now_ns: u64) -> usize {
        // Ingress: collect from all ports, in address order, through the
        // reusable scratch buffer (no per-port allocation, one lock per
        // port). What has no local port leaves as one uplink burst.
        let mut scratch = std::mem::take(&mut self.scratch);
        for (port, _) in self.ports.values() {
            port.drain_tx_into(&mut scratch);
        }
        self.forward(&mut scratch, true, now_ns);
        // Ingress from the uplink: frames the ToR delivered enter the local
        // forwarding plane through the destination's egress link, exactly
        // like locally originated traffic. Frames for addresses this host
        // does not own are dropped here — never bounced back out — so a
        // routing mistake cannot ping-pong between switch and ToR.
        if let Some(up) = &mut self.uplink {
            if !self.uplink_tx.is_empty() {
                up.send_burst(&mut self.uplink_tx);
            }
            up.recv_burst(&mut self.uplink_rx);
            for f in &self.uplink_rx {
                self.uplink_stats.rx_frames += 1;
                self.uplink_stats.rx_bytes += f.wire_bytes as u64;
            }
            scratch.extend(self.uplink_rx.drain(..));
            self.forward(&mut scratch, false, now_ns);
        }
        // Egress: deliver matured frames, one burst per port.
        let mut delivered = 0;
        for (port, link) in self.ports.values_mut() {
            if link.in_flight() == 0 {
                continue; // an idle port costs no lock
            }
            delivered += port.deliver_burst(|rx| link.drain_deliverable(now_ns, rx));
        }
        self.scratch = scratch;
        delivered
    }

    /// Push `frames` (left empty) onto their destinations' egress links,
    /// resolving the egress once per run of frames with the same
    /// destination. Frames with no local port join the uplink burst when
    /// `to_uplink` is set, an uplink is wired and the address is not this
    /// switch's own, and are counted unroutable otherwise.
    fn forward(&mut self, frames: &mut Vec<Frame<P>>, to_uplink: bool, now_ns: u64) {
        let to_uplink = to_uplink && self.uplink.is_some();
        let mut frames = frames.drain(..);
        while let Some((dst, run)) = next_run(&mut frames) {
            let local_dead = (self.uplink_local).is_some_and(|(prefix, mask)| dst & mask == prefix);
            match self.ports.get_mut(&dst) {
                Some((_, link)) => run.for_each(|f| link.offer(f, now_ns)),
                None if to_uplink && !local_dead => {
                    let burst = self.uplink_tx.len();
                    self.uplink_tx.extend(run);
                    for f in &self.uplink_tx[burst..] {
                        self.uplink_stats.tx_frames += 1;
                        self.uplink_stats.tx_bytes += f.wire_bytes as u64;
                    }
                }
                None => self.unroutable += run.count() as u64,
            }
        }
    }

    /// Frames dropped because no port matched the destination address.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Statistics of the egress link towards `addr`.
    pub fn link_stats(&self, addr: u32) -> Option<LinkStats> {
        self.ports.get(&addr).map(|(_, link)| link.stats())
    }
}

impl<P> nk_sim::Pollable for VirtualSwitch<P> {
    /// One forwarding pass: ingress collection plus delivery of every frame
    /// whose link latency has elapsed at `now_ns`.
    fn poll(&mut self, now_ns: u64) -> usize {
        self.step(now_ns)
    }
}

impl<P> Default for VirtualSwitch<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Frame;

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
        assert_eq!(sw.ports(), 1);
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

    /// With an uplink wired, unroutable frames leave through it instead of
    /// being dropped, and frames delivered into the uplink reach local
    /// ports; frames from the uplink for unknown addresses die here.
    #[test]
    fn uplink_carries_nonlocal_traffic_both_ways() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let (host_end, mut tor_end) = crate::uplink::uplink_pair(0x10);
        sw.set_uplink(host_end);

        // Outbound: no local port 99 → the frame exits via the uplink.
        a.send(frame(1, 99, 7));
        sw.step(0);
        assert_eq!(sw.unroutable(), 0);
        let mut out = Vec::new();
        assert_eq!(tor_end.drain_into(&mut out), 1);
        assert_eq!(out[0].payload, 7);
        assert_eq!(sw.uplink_stats().tx_frames, 1);
        assert_eq!(sw.uplink_stats().tx_bytes, 100);

        // Inbound: the ToR delivers a frame for local port 1.
        tor_end.0.deliver_burst(|rx| rx.push_back(frame(99, 1, 8)));
        sw.step(0);
        assert_eq!(a.recv().unwrap().payload, 8);
        assert_eq!(sw.uplink_stats().rx_frames, 1);

        // Inbound for an unknown address is dropped, not bounced back.
        tor_end.0.deliver_burst(|rx| rx.push_back(frame(99, 42, 9)));
        sw.step(0);
        assert_eq!(sw.unroutable(), 1);
        let bounced = tor_end.drain_into(&mut out);
        assert_eq!(bounced, 0, "no ping-pong back to the ToR");
    }

    /// The filtered uplink keeps dead-local traffic local: a destination
    /// inside the switch's own block with no port is a drop here, never
    /// phantom cross-host traffic.
    #[test]
    fn uplink_filter_keeps_dead_local_traffic_local() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(0x0A01_0001);
        let (host_end, mut tor_end) = crate::uplink::uplink_pair(0x0A01_0000);
        sw.set_uplink_filtered(host_end, 0x0A01_0000, 0xFFFF_0000);
        a.send(frame(0x0A01_0001, 0x0A01_0099, 1)); // dead address in-block
        a.send(frame(0x0A01_0001, 0x0A02_0001, 2)); // genuinely remote
        sw.step(0);
        assert_eq!(sw.unroutable(), 1, "in-block miss dies locally");
        let mut out = Vec::new();
        assert_eq!(tor_end.drain_into(&mut out), 1);
        assert_eq!(out[0].payload, 2);
        assert_eq!(sw.uplink_stats().tx_frames, 1);
    }

    /// The egress is resolved once per run of frames with one destination;
    /// a burst that interleaves local, dead, unknown and remote
    /// destinations still sends every frame where a per-frame lookup
    /// would, in the order it was sent.
    #[test]
    fn a_mixed_burst_is_forwarded_run_by_run() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(0x0A01_0001);
        let b = sw.attach(0x0A01_0002);
        let c = sw.attach(0x0A01_0003);
        let (host_end, mut tor_end) = crate::uplink::uplink_pair(0x0A01_0000);
        sw.set_uplink_filtered(host_end, 0x0A01_0000, 0xFFFF_0000);
        let (dead, remote) = (0x0A01_0099, 0x0A02_0001);
        let dsts = [b.addr(), b.addr(), c.addr(), dead, dead, b.addr(), remote];
        let mut burst: Vec<Frame<u32>> = (dsts.iter().zip(0..))
            .map(|(&dst, tag)| frame(a.addr(), dst, tag))
            .collect();
        burst.push(frame(a.addr(), remote, 7));
        burst.push(frame(a.addr(), c.addr(), 8));
        a.send_burst(&mut burst);
        assert_eq!(sw.step(0), 5);
        let tags = |p: &Port<u32>| -> Vec<u32> {
            std::iter::from_fn(|| p.recv()).map(|f| f.payload).collect()
        };
        assert_eq!((tags(&b), tags(&c)), (vec![0, 1, 5], vec![2, 8]));
        assert_eq!(sw.unroutable(), 2);
        let mut out = Vec::new();
        tor_end.drain_into(&mut out);
        let sent_up: Vec<u32> = out.iter().map(|f| f.payload).collect();
        assert_eq!(sent_up, vec![6, 7]);
        assert_eq!(sw.uplink_stats().tx_bytes, 200);
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
        let mut got = vec![b.recv().unwrap().payload, b.recv().unwrap().payload];
        got.sort_unstable();
        assert_eq!(
            got,
            vec![42, 43],
            "both the alias and the home address land"
        );
        sw.detach(99);
        a.send(frame(1, 99, 44));
        sw.step(0);
        assert_eq!(sw.unroutable(), 1);
    }

    #[test]
    fn link_stats_visible_per_destination() {
        let mut sw: VirtualSwitch<u32> = VirtualSwitch::new();
        let a = sw.attach(1);
        let _b = sw.attach(2);
        a.send(frame(1, 2, 1));
        a.send(frame(1, 2, 2));
        sw.step(0);
        let stats = sw.link_stats(2).unwrap();
        assert_eq!(stats.delivered, 2);
        assert!(sw.link_stats(42).is_none());
    }
}
