//! Spans recorded from outside the program, at the calls into each layer.
//!
//! A [`Tracer`] keeps spans (layer, start, end, parent, step id) in memory;
//! nothing is written until the run ends. A disabled tracer never reads the
//! clock, so untraced and traced runs share one code path. A layer's *self
//! time* is its spans' duration minus the part their child spans cover.

use crate::clock::now_ns;

/// Who a span's time belongs to. One entry per boundary the benchmark can
/// put a clock around from outside.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// The whole timed window (root).
    Window,
    /// One app tick: the load generator's client and echo-server code.
    Tick,
    /// GuestLib `SocketApi` calls made inside a tick (aggregated per tick).
    Guest,
    /// One host or cluster step.
    Step,
    /// `CoreEngine::poll`.
    Engine,
    /// `ServiceLib::process_requests`.
    ServiceRequests,
    /// The NSM `TcpStack::tick`.
    Netstack,
    /// `ServiceLib::process_stack`.
    ServiceStack,
    /// The remote (load generator side) `TcpStack::tick`.
    PeerStack,
    /// `VirtualSwitch::step`.
    Fabric,
    /// The benchmark's own CPU-speed probe (`probe.rs`).
    Probe,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 11] = [
        Layer::Window,
        Layer::Tick,
        Layer::Guest,
        Layer::Step,
        Layer::Engine,
        Layer::ServiceRequests,
        Layer::Netstack,
        Layer::ServiceStack,
        Layer::PeerStack,
        Layer::Fabric,
        Layer::Probe,
    ];

    /// Span name in the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Window => "window",
            Layer::Tick => "app.tick",
            Layer::Guest => "guest.socket_calls",
            Layer::Step => "step",
            Layer::Engine => "engine.poll",
            Layer::ServiceRequests => "service.process_requests",
            Layer::Netstack => "netstack.tick",
            Layer::ServiceStack => "service.process_stack",
            Layer::PeerStack => "peer.stack_tick",
            Layer::Fabric => "fabric.switch_step",
            Layer::Probe => "bench.speed_probe",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer the time belongs to.
    pub layer: Layer,
    /// Wall-clock start, ns.
    pub start_ns: u64,
    /// Wall-clock end, ns.
    pub end_ns: u64,
    /// Index of the span that caused this one ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Step id: spans of one step (and the tick before it) share it.
    pub step: u32,
    /// Calls folded into this span (1 for a plain span; an aggregate span
    /// sums many short calls made inside its parent).
    pub calls: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Advance the step id stamped on subsequent spans.
    pub fn next_step(&mut self) {
        self.step += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let now = now_ns();
        self.spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            step: self.step,
            calls: 1,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = now_ns();
    }

    /// Run `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Record `calls` short calls that together took `busy_ns` inside the
    /// innermost open span, as one aggregate child placed at the parent's
    /// start. Used for GuestLib calls, which are far too many to keep one
    /// span each.
    pub fn aggregate(&mut self, layer: Layer, busy_ns: u64, calls: u32) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = *self.open.last().expect("aggregate outside a span");
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent,
            step: self.step,
            calls,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.clamp(p.start_ns, p.end_ns);
            let end = s.end_ns.clamp(p.start_ns, p.end_ns);
            children[s.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Spans of the layer.
    pub spans: u64,
    /// Calls folded into those spans.
    pub calls: u64,
}

/// Self time, span count and call count per layer, indexed by
/// `Layer as usize`.
pub fn layer_totals(spans: &[Span]) -> [LayerTotal; Layer::ALL.len()] {
    let mut totals = [LayerTotal::default(); Layer::ALL.len()];
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = &mut totals[s.layer as usize];
        t.self_ns += self_ns;
        t.spans += 1;
        t.calls += u64::from(s.calls);
    }
    totals
}

/// Render spans as Chrome-trace JSON (`chrome://tracing`, Perfetto): one
/// complete (`"ph":"X"`) event per span, microsecond timestamps, the step
/// id and parent index under `args`. Aggregate spans carry their call
/// count and sit at their parent's start.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"step\":{},\"calls\":{}}}}}",
            s.layer.name(),
            workload,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.step,
            s.calls
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            step: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_interval() {
        let spans = [
            span(Layer::Step, 0, 100, NO_PARENT),
            span(Layer::Engine, 10, 30, 0),
            // Overlaps the previous child: the union covers 10..50.
            span(Layer::Netstack, 20, 50, 0),
            span(Layer::Fabric, 70, 90, 0),
            // A grandchild only reduces its own parent.
            span(Layer::ServiceStack, 75, 80, 3),
            // A child reaching past its parent is clipped to it.
            span(Layer::PeerStack, 95, 120, 0),
        ];
        assert_eq!(self_times(&spans), vec![35, 20, 30, 15, 5, 25]);
        let totals = layer_totals(&spans);
        assert_eq!(totals[Layer::Step as usize].self_ns, 35);
        assert_eq!(totals[Layer::Fabric as usize].self_ns, 15);
        assert_eq!(totals[Layer::Window as usize], LayerTotal::default());
    }

    #[test]
    fn self_times_of_a_properly_nested_tree_sum_to_the_root() {
        let mut t = Tracer::enabled();
        t.enter(Layer::Window);
        for _ in 0..3 {
            t.enter(Layer::Tick);
            t.aggregate(Layer::Guest, 0, 4);
            t.exit();
            t.next_step();
            t.enter(Layer::Step);
            t.time(Layer::Engine, || std::hint::black_box(1 + 1));
            t.time(Layer::Fabric, || std::hint::black_box(2 + 2));
            t.exit();
        }
        t.exit();
        let root = t.spans()[0];
        let total: u64 = self_times(t.spans()).iter().sum();
        assert_eq!(total, root.end_ns - root.start_ns);
        assert_eq!(t.spans().last().unwrap().step, 3);
        let totals = layer_totals(t.spans());
        assert_eq!(totals[Layer::Guest as usize].calls, 12);
        assert_eq!(totals[Layer::Engine as usize].spans, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.enter(Layer::Window);
        t.aggregate(Layer::Guest, 10, 1);
        assert_eq!(t.time(Layer::Engine, || 7), 7);
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let spans = [
            span(Layer::Step, 1_000, 3_500, NO_PARENT),
            span(Layer::Engine, 1_200, 1_700, 0),
        ];
        let json = chrome_trace("rpc", &spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"engine.poll\""));
        assert!(json.contains("\"ts\":1.200,\"dur\":0.500"));
        assert!(json.contains("\"parent\":-1"));
    }
}
