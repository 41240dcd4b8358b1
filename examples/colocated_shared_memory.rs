//! Use case 4 (§6.4): shared-memory networking between colocated VMs.
//!
//! Two VMs of the same tenant on the same host exchange data through the
//! shared-memory NSM: ServiceLib over a `LocalStack`, which moves payload
//! hugepage-to-hugepage by reference and never touches a TCP stack.
//!
//! Run with: `cargo run --example colocated_shared_memory`

use netkernel::host::NetKernelHost;
use netkernel::types::{
    HostConfig, NkError, NsmConfig, NsmId, SockAddr, SocketApi, VmConfig, VmId, VmToNsmPolicy,
};

fn main() {
    let cfg = HostConfig::new()
        .with_vm(VmConfig::new(VmId(1)).with_tenant(42))
        .with_vm(VmConfig::new(VmId(2)).with_tenant(42))
        .with_nsm(NsmConfig::shared_mem(NsmId(1)))
        .with_mapping(VmToNsmPolicy::All(NsmId(1)));
    let mut host = NetKernelHost::new(cfg).expect("valid host configuration");

    // VM1 listens; VM2 connects — both through ordinary socket calls.
    let g1 = host.guest_mut(VmId(1)).unwrap();
    let listener = g1.socket().unwrap();
    g1.bind(listener, SockAddr::new(0, 6379)).unwrap();
    g1.listen(listener, 8).unwrap();
    host.run(5, 100_000);

    let g2 = host.guest_mut(VmId(2)).unwrap();
    let client = g2.socket().unwrap();
    g2.connect(client, SockAddr::new(0, 6379)).unwrap();
    host.run(5, 100_000);

    // Move a burst of messages from VM2 to VM1.
    let message = vec![0xABu8; 8192];
    let mut sent = 0u64;
    for _ in 0..64 {
        let g2 = host.guest_mut(VmId(2)).unwrap();
        if let Ok(n) = g2.send(client, &message) {
            sent += n as u64;
        }
        host.run(2, 100_000);
    }

    // VM1 reads what VM2 sent, the host stepping while the rest waits in
    // the NSM for VM1's receive credit.
    let (conn, _) = host.guest_mut(VmId(1)).unwrap().accept(listener).unwrap();
    let mut received = 0u64;
    let mut buf = vec![0u8; 16 * 1024];
    while received < sent {
        match host.guest_mut(VmId(1)).unwrap().recv(conn, &mut buf) {
            Ok(0) => break,
            Ok(n) => received += n as u64,
            Err(NkError::WouldBlock) => host.run(1, 100_000),
            Err(e) => panic!("VM1's recv failed with {e:?}"),
        }
    }
    let stats = host.nsm_service_stats(NsmId(1)).unwrap();
    println!("VM2 sent {sent} bytes; VM1 received {received} bytes");
    println!(
        "shared-memory NSM accepted {} connection(s) and moved {} bytes hugepage-to-hugepage, bypassing TCP entirely",
        stats.accepted, stats.bytes_tx
    );
}
