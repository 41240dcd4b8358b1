//! The uniform work-reporting interface of the host datapath.
//!
//! Every active component of a NetKernel host — the CoreEngine NQE switch,
//! the NSMs, remote peer stacks, the virtual switch — advances by being
//! polled with the current virtual time and reports how much work it did.
//! The host's step loop drives all of them through this one trait, so
//! scheduling policy (rounds, quiescence detection) lives in one place and
//! components stay oblivious to each other.

/// A component of the host datapath that can be driven by polling.
pub trait Pollable {
    /// Advance the component to virtual time `now_ns`, performing any work
    /// that is ready (switching NQEs, running protocol state machines,
    /// moving frames). Returns the number of work items processed — NQEs,
    /// segments or frames — with `0` meaning the component is quiescent at
    /// this instant. The caller may poll again within the same instant as
    /// long as work keeps being reported.
    fn poll(&mut self, now_ns: u64) -> usize;
}
