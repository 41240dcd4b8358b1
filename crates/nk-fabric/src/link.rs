//! Link impairments: rate limiting, propagation delay, loss and reordering.
//!
//! A link's shape is [`LinkConfig`], defined in `nk-types` so that host and
//! cluster configurations and fault plans can name it; this module applies
//! it to a stream of frames. A reordered frame is late by a fixed
//! 50 µs (`REORDER_EXTRA_US`).

use crate::port::{Frame, Train};
use nk_sim::{SplitMix64, TokenBucket};
pub use nk_types::LinkConfig;
use std::collections::VecDeque;

/// Extra delay of a reordered frame, in microseconds: it arrives after the
/// frames sent within this window behind it.
const REORDER_EXTRA_US: u64 = 50;

struct Pending<P> {
    deliver_at_ns: u64,
    seq: u64,
    frame: Frame<P>,
}

impl<P> Pending<P> {
    /// Delivery order: by time, admission order breaking ties.
    fn key(&self) -> (u64, u64) {
        (self.deliver_at_ns, self.seq)
    }
}

/// Statistics of one link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted onto the link.
    pub sent: u64,
    /// Frames dropped by loss or rate policing.
    pub dropped: u64,
    /// Frames delivered out of the link.
    pub delivered: u64,
    /// Bytes delivered out of the link.
    pub delivered_bytes: u64,
    /// Mid-flight configuration changes applied (fault injection).
    pub reconfigurations: u64,
}

/// A unidirectional link applying [`LinkConfig`] impairments.
pub struct Link<P> {
    config: LinkConfig,
    bucket: Option<TokenBucket>,
    /// Sorted by [`Pending::key`]. A new frame's key is the largest unless
    /// it overtakes a reordered one or a fault cut the latency mid-flight,
    /// so admission is a `push_back` and delivery a `pop_front`.
    in_flight: VecDeque<Pending<P>>,
    rng: SplitMix64,
    seq: u64,
    stats: LinkStats,
}

impl<P: Train> Link<P> {
    /// Create a link with the given configuration and RNG seed.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            bucket: config.rate_gbps.map(|g| TokenBucket::for_gbps(g, 0)),
            config,
            in_flight: VecDeque::new(),
            rng: SplitMix64::new(seed),
            seq: 0,
            stats: LinkStats::default(),
        }
    }

    /// Offer a frame to the link at time `now_ns`. Frames beyond the rate cap
    /// or hit by loss are dropped (TCP sees them as congestion).
    ///
    /// A [`Train`] is admitted whole when the link draws nothing per frame
    /// (no loss, no reordering): it is charged to the rate cap frame by
    /// frame and cut to the frames that passed. Otherwise each of its wire
    /// frames is offered on its own, so the random draws and delivery order
    /// are those of the frames sent one by one.
    pub fn offer(&mut self, frame: Frame<P>, now_ns: u64) {
        let frames = frame.payload.frames();
        if frames > 1 && (self.config.loss > 0.0 || self.config.reorder > 0.0) {
            for piece in frame.into_frames() {
                self.admit(piece, 1, now_ns);
            }
        } else {
            self.admit(frame, frames, now_ns);
        }
    }

    /// [`Link::offer`] for a single frame, or a train of `frames` on a link
    /// that draws nothing per frame.
    fn admit(&mut self, mut frame: Frame<P>, mut frames: usize, now_ns: u64) {
        self.stats.sent += frames as u64;
        if let Some(bucket) = &mut self.bucket {
            // Charged in order: once one frame fails at `now_ns`, every
            // later one of the same size fails too, without a refill. A
            // lone frame skips the division.
            let passed = if frames == 1 {
                usize::from(bucket.try_consume(frame.wire_bytes as f64, now_ns))
            } else {
                let each = (frame.wire_bytes / frames) as f64;
                (0..frames)
                    .take_while(|_| bucket.try_consume(each, now_ns))
                    .count()
            };
            if passed < frames {
                self.stats.dropped += (frames - passed) as u64;
                if passed == 0 {
                    return;
                }
                frame = frame.split_front(passed);
                frames = passed;
            }
        }
        if self.rng.chance(self.config.loss) {
            self.stats.dropped += 1;
            return;
        }
        let mut delay_us = self.config.latency_us;
        if self.rng.chance(self.config.reorder) {
            delay_us += REORDER_EXTRA_US;
        }
        // The train's frames take consecutive sequence numbers, so it sorts
        // where each of them would.
        let pending = Pending {
            deliver_at_ns: now_ns + delay_us * 1_000,
            seq: self.seq + 1,
            frame,
        };
        self.seq += frames as u64;
        let key = pending.key();
        if self.in_flight.back().is_none_or(|last| last.key() < key) {
            self.in_flight.push_back(pending);
        } else {
            let at = self.in_flight.partition_point(|p| p.key() < key);
            self.in_flight.insert(at, pending);
        }
        debug_assert!(self.in_flight.iter().is_sorted_by_key(Pending::key));
    }

    /// Reconfigure the link mid-flight (fault injection: rate, loss, latency
    /// or reordering changes under live traffic). Frames already in flight
    /// keep the delivery schedule they were admitted with — only frames
    /// offered after the change see the new impairments — so a
    /// reconfiguration can never drop or duplicate an admitted frame. The
    /// rate bucket is rebuilt empty of debt at `now_ns`.
    pub fn set_config(&mut self, config: LinkConfig, now_ns: u64) {
        self.bucket = config.rate_gbps.map(|g| TokenBucket::for_gbps(g, now_ns));
        self.config = config;
        self.stats.reconfigurations += 1;
    }

    /// Append every frame whose delivery time has arrived to `out`,
    /// returning how many wire frames were drained (a train counts each).
    pub fn drain_deliverable(&mut self, now_ns: u64, out: &mut impl Extend<Frame<P>>) -> usize {
        let due = self
            .in_flight
            .partition_point(|p| p.deliver_at_ns <= now_ns);
        let before = self.stats.delivered;
        let stats = &mut self.stats;
        out.extend(self.in_flight.drain(..due).map(|p| {
            stats.delivered += p.frame.payload.frames() as u64;
            stats.delivered_bytes += p.frame.wire_bytes as u64;
            p.frame
        }));
        (self.stats.delivered - before) as usize
    }

    /// True when a frame's delivery time has arrived at `now_ns`: the
    /// front frame is the earliest due, so this is one comparison. A switch
    /// locks the port behind a link only when this holds.
    pub fn has_due(&self, now_ns: u64) -> bool {
        self.in_flight
            .front()
            .is_some_and(|p| p.deliver_at_ns <= now_ns)
    }

    /// Frames still queued on the link (a train is one).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Link statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::tests::Run;

    fn frame(bytes: usize) -> Frame<u32> {
        Frame {
            src: 1,
            dst: 2,
            flow_hash: 0,
            wire_bytes: bytes,
            payload: 0,
        }
    }

    /// Every frame deliverable at `now_ns`, as a fresh `Vec`.
    fn deliverable(link: &mut Link<u32>, now_ns: u64) -> Vec<Frame<u32>> {
        let mut out = Vec::new();
        link.drain_deliverable(now_ns, &mut out);
        out
    }

    #[test]
    fn ideal_link_delivers_immediately_in_order() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal(), 1);
        for i in 0..5 {
            let mut f = frame(100);
            f.payload = i;
            link.offer(f, 0);
        }
        let out = deliverable(&mut link, 0);
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.iter().map(|f| f.payload).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn latency_defers_delivery() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal().with_latency_us(10), 1);
        link.offer(frame(100), 0);
        assert!(deliverable(&mut link, 5_000).is_empty());
        assert_eq!(deliverable(&mut link, 10_000).len(), 1);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn rate_cap_drops_excess() {
        // 1 Gbps = 125 MB/s; offering 2 MB within one instant exceeds the
        // millisecond burst (125 KB).
        let mut link: Link<u32> = Link::new(LinkConfig::ideal().with_rate_gbps(1.0), 1);
        for _ in 0..2000 {
            link.offer(frame(1000), 0);
        }
        let s = link.stats();
        assert_eq!(s.sent, 2000);
        assert!(s.dropped > 1800, "dropped {}", s.dropped);
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal().with_loss(0.1), 99);
        for _ in 0..10_000 {
            link.offer(frame(100), 0);
        }
        let lost = link.stats().dropped as f64 / 10_000.0;
        assert!((lost - 0.1).abs() < 0.02, "loss rate {lost}");
    }

    #[test]
    fn reordering_changes_delivery_order() {
        let cfg = LinkConfig::ideal().with_reorder(0.3);
        let mut link: Link<u32> = Link::new(cfg, 5);
        for i in 0..100 {
            let mut f = frame(100);
            f.payload = i;
            link.offer(f, 0);
        }
        // Collect everything after the reorder window has passed.
        let out = deliverable(&mut link, 1_000_000_000);
        assert_eq!(out.len(), 100);
        let in_order = out.windows(2).all(|w| w[0].payload < w[1].payload);
        assert!(!in_order, "with 30% reordering some frames must be late");
    }

    /// Mid-flight reconfiguration must not disturb frames already admitted:
    /// they are delivered exactly once, on their original schedule.
    #[test]
    fn reconfiguration_preserves_in_flight_frames() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal().with_latency_us(10), 1);
        for i in 0..8 {
            let mut f = frame(100);
            f.payload = i;
            link.offer(f, 0);
        }
        assert_eq!(link.in_flight(), 8);
        // Degrade hard mid-flight: full loss, long delay.
        link.set_config(
            LinkConfig::ideal().with_loss(1.0).with_latency_us(10_000),
            0,
        );
        // The admitted frames still mature at the old 10 µs latency.
        let out = deliverable(&mut link, 10_000);
        assert_eq!(out.len(), 8);
        let tags: Vec<u32> = out.iter().map(|f| f.payload).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(link.stats().dropped, 0);
        assert_eq!(link.stats().reconfigurations, 1);
        // Frames offered after the change see the new impairments.
        link.offer(frame(100), 20_000);
        assert_eq!(link.stats().dropped, 1);
    }

    /// Loss injected mid-flight never duplicates a frame: every offered
    /// frame is either delivered exactly once or counted as dropped.
    #[test]
    fn lossy_reconfiguration_conserves_frames() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal(), 7);
        let mut offered = 0u32;
        for phase in 0..4 {
            let loss = if phase % 2 == 0 { 0.0 } else { 0.3 };
            link.set_config(LinkConfig::ideal().with_loss(loss).with_reorder(0.2), 0);
            for _ in 0..500 {
                let mut f = frame(100);
                f.payload = offered;
                offered += 1;
                link.offer(f, 0);
            }
        }
        let out = deliverable(&mut link, u64::MAX);
        let mut seen = std::collections::BTreeSet::new();
        for f in &out {
            assert!(
                seen.insert(f.payload),
                "frame {} delivered twice",
                f.payload
            );
        }
        let s = link.stats();
        assert_eq!(s.sent, offered as u64);
        assert_eq!(s.delivered + s.dropped, s.sent, "frames leaked or forged");
        assert!(s.dropped > 0, "the lossy phases must drop something");
    }

    /// A rate cap applied mid-flight polices only subsequent traffic, and
    /// lifting it restores full delivery.
    #[test]
    fn rate_change_applies_to_new_traffic_only() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal(), 3);
        for _ in 0..100 {
            link.offer(frame(1000), 0);
        }
        // Throttle hard: 0.001 Gbps admits almost nothing at one instant.
        link.set_config(LinkConfig::ideal().with_rate_gbps(0.001), 0);
        for _ in 0..100 {
            link.offer(frame(1000), 0);
        }
        let throttled_drops = link.stats().dropped;
        assert!(throttled_drops > 50, "cap must police: {throttled_drops}");
        // Lift the cap: traffic flows freely again.
        link.set_config(LinkConfig::ideal(), 0);
        for _ in 0..100 {
            link.offer(frame(1000), 0);
        }
        assert_eq!(link.stats().dropped, throttled_drops);
        assert_eq!(
            deliverable(&mut link, 0).len() as u64,
            link.stats().delivered
        );
    }

    /// Retransmissions after loss still get through: the link treats every
    /// offer independently, so a re-offered (retransmitted) frame is
    /// eventually delivered even under heavy loss.
    #[test]
    fn retransmitted_frames_eventually_deliver_under_loss() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal().with_loss(0.5), 21);
        let mut delivered = false;
        for attempt in 0..64 {
            let mut f = frame(100);
            f.payload = 42;
            link.offer(f, attempt);
            if !deliverable(&mut link, u64::MAX).is_empty() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "64 retransmissions all lost at p=0.5");
    }

    /// The sorted deque against a reference that re-derives every frame's
    /// delivery time from the same random stream and sorts by
    /// `(deliver_at_ns, seq)`: 30 % of the frames are late and overtaken,
    /// and the latency is cut and raised mid-flight, so frames land at the
    /// back, in the middle and at the very front of the queue.
    #[test]
    fn delivery_order_matches_a_sorted_reference_under_reordering_and_latency_changes() {
        for seed in 1..=4u64 {
            let config = |latency_us| LinkConfig {
                latency_us,
                reorder: 0.3,
                ..LinkConfig::ideal()
            };
            let mut latency_us = 40;
            let mut link: Link<u32> = Link::new(config(latency_us), seed);
            let mut model_rng = SplitMix64::new(seed);
            let mut ops = SplitMix64::new(seed ^ 0xD1FF);
            // (deliver_at_ns, seq, tag) of every admitted frame not yet due.
            let mut model: Vec<(u64, u64, u32)> = Vec::new();
            let (mut now, mut tag, mut inserted_inside) = (0u64, 0u32, 0usize);
            for _ in 0..4_000 {
                now += ops.next_below(8) * 1_000;
                match ops.next_below(16) {
                    0 => {
                        // A fault: the latency drops (new frames overtake
                        // everything in flight) or rises.
                        latency_us = [0, 5, 40, 200][ops.next_below(4) as usize];
                        link.set_config(config(latency_us), now);
                    }
                    1..=4 => {
                        let mut out = Vec::new();
                        let drained = link.drain_deliverable(now, &mut out);
                        model.sort_unstable();
                        let due = model.partition_point(|&(at, ..)| at <= now);
                        let expect: Vec<u32> = model.drain(..due).map(|(.., t)| t).collect();
                        let got: Vec<u32> = out.iter().map(|f| f.payload).collect();
                        assert_eq!(got, expect, "seed {seed} at {now} ns");
                        assert_eq!(drained, expect.len());
                    }
                    _ => {
                        // `offer` draws loss (never, at 0.0) then reorder.
                        let late = model_rng.chance(0.3);
                        let delay_us = latency_us + if late { REORDER_EXTRA_US } else { 0 };
                        tag += 1;
                        let key = (now + delay_us * 1_000, u64::from(tag));
                        inserted_inside += usize::from(model.iter().any(|m| (m.0, m.1) > key));
                        model.push((key.0, key.1, tag));
                        let mut f = frame(100);
                        f.payload = tag;
                        link.offer(f, now);
                    }
                }
                assert_eq!(link.in_flight(), model.len());
            }
            assert!(inserted_inside > 100, "seed {seed}: {inserted_inside}");
            assert_eq!(link.stats().dropped, 0);
        }
    }

    #[test]
    fn drain_deliverable_reuses_the_callers_buffer() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal(), 1);
        link.offer(frame(10), 0);
        link.offer(frame(20), 0);
        let mut buf = Vec::with_capacity(4);
        assert_eq!(link.drain_deliverable(0, &mut buf), 2);
        assert_eq!(buf.len(), 2);
        // Appends without clearing: the caller owns the buffer lifecycle.
        link.offer(frame(30), 0);
        assert_eq!(link.drain_deliverable(0, &mut buf), 1);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn stats_track_bytes() {
        let mut link: Link<u32> = Link::new(LinkConfig::ideal(), 1);
        link.offer(frame(500), 0);
        link.offer(frame(300), 0);
        let _ = deliverable(&mut link, 0);
        assert_eq!(link.stats().delivered_bytes, 800);
        assert_eq!(link.stats().delivered, 2);
    }

    /// The wire frames of `trains`, one `(tag, wire bytes)` each.
    fn expand(trains: Vec<Frame<Run>>) -> Vec<(u32, usize)> {
        let frames = trains.into_iter().flat_map(Train::into_frames);
        frames.map(|f| (f.payload.first, f.wire_bytes)).collect()
    }

    /// A link offered trains behaves as its twin offered their frames one
    /// by one: same seed, same frames delivered in the same order at the
    /// same times, same statistics. Under a rate cap trains are cut where
    /// the bucket runs dry; under loss or reordering they go frame by frame.
    #[test]
    fn a_train_crosses_a_link_as_its_frames_would() {
        const FRAME: usize = 1_514;
        let configs = [
            LinkConfig::ideal(),
            LinkConfig::ideal().with_latency_us(30),
            LinkConfig::ideal().with_rate_gbps(1.0),
            LinkConfig::ideal().with_rate_gbps(2.0).with_latency_us(10),
            LinkConfig::ideal().with_loss(0.1),
            LinkConfig::ideal().with_reorder(0.3).with_latency_us(20),
            LinkConfig::ideal()
                .with_rate_gbps(1.0)
                .with_loss(0.05)
                .with_reorder(0.1),
        ];
        for (c, config) in configs.into_iter().enumerate() {
            for seed in 1..=3u64 {
                let mut trains: Link<Run> = Link::new(config, seed);
                let mut singles: Link<Run> = Link::new(config, seed);
                let mut ops = SplitMix64::new(seed ^ 0x7A1);
                let (mut now, mut tag, mut cut) = (0u64, 0u32, 0usize);
                for _ in 0..3_000 {
                    now += ops.next_below(4) * 20_000;
                    let frames = 1 + ops.next_below(12) as usize;
                    let train = Frame {
                        src: 1,
                        dst: 2,
                        flow_hash: 9,
                        wire_bytes: frames * FRAME,
                        payload: Run { first: tag, frames },
                    };
                    tag += frames as u32;
                    let dropped = trains.stats().dropped;
                    trains.offer(train.clone(), now);
                    let lost = (trains.stats().dropped - dropped) as usize;
                    cut += usize::from(lost > 0 && lost < frames);
                    for piece in train.into_frames() {
                        singles.offer(piece, now);
                    }
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    let drained = trains.drain_deliverable(now, &mut a);
                    assert_eq!(drained, singles.drain_deliverable(now, &mut b));
                    assert_eq!(expand(a), expand(b), "config {c}, seed {seed}, at {now} ns");
                    assert_eq!(trains.stats(), singles.stats(), "config {c}, seed {seed}");
                }
                let (mut a, mut b) = (Vec::new(), Vec::new());
                trains.drain_deliverable(u64::MAX, &mut a);
                singles.drain_deliverable(u64::MAX, &mut b);
                assert_eq!(expand(a), expand(b));
                let stats = trains.stats();
                assert_eq!(stats, singles.stats());
                assert_eq!(stats.sent, u64::from(tag));
                assert_eq!(stats.delivered + stats.dropped, stats.sent);
                if config.rate_gbps.is_some() && config.loss == 0.0 {
                    assert!(cut > 0, "config {c}: some train is cut by the bucket");
                }
            }
        }
    }
}
