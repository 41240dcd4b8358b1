//! The receive-side-scaling (RSS) flow hash.
//!
//! "As NIC speed in cloud evolves from 40G/50G to 100G and higher, the NSM
//! has to use multiple cores for the network stack to achieve line rate"
//! (paper §3). Multi-core stacks therefore spread incoming frames over
//! per-core RX queues by hashing the flow, exactly like hardware RSS. The
//! mTCP port in §6.3 even hit an RSS-key driver bug on the testbed — in this
//! reproduction the RSS hash is symmetric by construction, so both directions
//! of a flow land on the same queue.

/// Symmetric flow hash: both directions of a connection map to the same
/// value, which is what a symmetric RSS key achieves on real NICs.
pub fn symmetric_flow_hash(ip_a: u32, port_a: u16, ip_b: u32, port_b: u16) -> u64 {
    // XOR makes the hash order-independent; multiply spreads the bits.
    let ips = (ip_a ^ ip_b) as u64;
    let ports = (port_a ^ port_b) as u64;
    (ips.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (ports.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_hash_is_symmetric() {
        let fwd = symmetric_flow_hash(0x0A000001, 80, 0x0A000002, 5555);
        let rev = symmetric_flow_hash(0x0A000002, 5555, 0x0A000001, 80);
        assert_eq!(fwd, rev);
        let other = symmetric_flow_hash(0x0A000001, 81, 0x0A000002, 5555);
        assert_ne!(fwd, other);
    }
}
