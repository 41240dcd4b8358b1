//! Lifecycle: everything that attaches a VM or an NSM to the host or
//! detaches it again.
//!
//! Bring-up (`attach_vm`, `attach_nsm`, `wire_vm`), crash and restart,
//! intra-host migration, the drained cross-host pair (`export_vm` /
//! `import_vm`, `retire_vm`), the warm pair with its freeze window
//! (`export_vm_warm` / `import_vm_warm`), share retirement and link
//! degradation. All of it runs between poll phases, on the whole host.

use crate::host::{NetKernelHost, VmSlot};
use nk_fabric::link::LinkConfig;
use nk_guest::GuestLib;
use nk_netstack::cc::CcAlgorithm;
use nk_netstack::{StackConfig, TcpStack};
use nk_queue::{queue_set_pair, NkDevice, WakeState};
use nk_service::{Nsm, ServiceLib, SharedMemNsm, TcpNsm};
use nk_shmem::HugepageRegion;
use nk_sim::PoolMember;
use nk_types::faults::LinkFault;
use nk_types::migrate::{ConnSnapshot, VmWarmExport};
use nk_types::{
    NkError, NkResult, NsmConfig, NsmId, SocketApi, SocketId, StackKind, VmConfig, VmId,
};

pub use nk_types::migrate::VmExport;

impl NetKernelHost {
    /// The census audit: in debug builds, at the close of every step and of
    /// every entry point below that attaches or detaches something, no
    /// resource is half-attached. The engine's registered VMs are exactly
    /// the host's slots; every region wired into an NSM belongs to a slot,
    /// and a VM's mapped NSM is wired to it; every alias is owned by a live
    /// TCP NSM and still forwarded by the switch.
    pub(crate) fn audit_census(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let engine = self.engine.vm_ids();
        assert!(engine.iter().eq(self.vms.keys()), "engine has {engine:?}");
        for (id, nsm) in &self.nsms {
            for vm in nsm.wired_vms() {
                assert!(self.vms.contains_key(&vm), "{id:?} kept retired {vm:?}");
            }
            for vm in self.engine.mapped_vms(*id) {
                assert!(nsm.has_vm(vm), "{vm:?} maps to {id:?}, not wired to it");
            }
        }
        for (addr, owner) in &self.aliases {
            let live = matches!(self.nsms.get(owner), Some(Nsm::Tcp(_)));
            let forwarded = self.switch.link_stats(*addr).is_some();
            assert!(live && forwarded, "alias {addr:#x} of {owner:?} dangles");
        }
    }

    /// Bring one VM up on `nsm`: fresh queue sets, wake state and hugepage
    /// region, registered and mapped in CoreEngine, wired into the NSM, with
    /// a GuestLib on the guest ends. Shared between initial bring-up and
    /// [`NetKernelHost::import_vm`]; a failure leaves no trace of the VM.
    pub(crate) fn attach_vm(
        &mut self,
        vm_cfg: &VmConfig,
        nsm: NsmId,
        registered_at_ns: u64,
    ) -> NkResult<()> {
        if !self.nsms.contains_key(&nsm) {
            return Err(NkError::NotFound);
        }
        let mut guest_ends = Vec::new();
        let mut engine_ends = Vec::new();
        for _ in 0..vm_cfg.vcpus {
            let (req, resp) = queue_set_pair(self.cfg.queue_capacity);
            guest_ends.push(req);
            engine_ends.push(resp);
        }
        let wake = WakeState::new();
        let region = HugepageRegion::new(self.cfg.hugepages_per_pair);
        self.engine.register_vm(
            vm_cfg.id,
            engine_ends,
            wake.clone(),
            vm_cfg.tenant,
            vm_cfg.rate_limit_gbps,
            Some(region.clone()),
            registered_at_ns,
        )?;
        if let Err(e) = self.engine.map_vm(vm_cfg.id, nsm) {
            // Unwind: a failed attach must leave no registered-but-guestless
            // VM in the engine (a retry would then trip over the residue).
            let _ = self.engine.deregister_vm(vm_cfg.id);
            return Err(e);
        }
        let device = NkDevice::new(guest_ends, wake);
        let slot = VmSlot {
            guest: GuestLib::new(vm_cfg.id, device, region),
            draining: None,
        };
        self.vms.insert(vm_cfg.id, slot);
        self.wire_vm(nsm, vm_cfg.id)
    }

    /// Map `vm`'s hugepage region into `nsm`'s instance, so the NSM can
    /// serve the VM's connections. `NotFound` when either is gone.
    fn wire_vm(&mut self, nsm: NsmId, vm: VmId) -> NkResult<()> {
        let slot = self.vms.get(&vm).ok_or(NkError::NotFound)?;
        let instance = self.nsms.get_mut(&nsm).ok_or(NkError::NotFound)?;
        instance.add_vm(vm, slot.guest.region().clone());
        Ok(())
    }

    /// Detach every warm-migration alias `dead` selects from the switch and
    /// forget it.
    fn drop_aliases(&mut self, dead: impl Fn(&Self, u32, NsmId) -> bool) {
        let gone: Vec<u32> = self
            .aliases
            .iter()
            .filter(|(addr, owner)| dead(self, **addr, **owner))
            .map(|(addr, _)| *addr)
            .collect();
        for addr in gone {
            self.switch.detach(addr);
            self.aliases.remove(&addr);
        }
    }

    /// Bring one NSM up at restart `generation`: queue pairs registered with
    /// the engine, for TCP-stack NSMs a vNIC attached to the switch (the
    /// stack owns the port), and a pool member starting a fresh accounting
    /// life — ledger and epoch marks — at the configured size (the
    /// autoscaler resizes it from load). Shared between initial bring-up and
    /// [`NetKernelHost::restart_nsm`].
    pub(crate) fn attach_nsm(&mut self, nsm_cfg: &NsmConfig, generation: u32) -> NkResult<()> {
        let mut service_ends = Vec::new();
        let mut engine_ends = Vec::new();
        for _ in 0..nsm_cfg.vcpus {
            let (req, resp) = queue_set_pair(self.cfg.queue_capacity);
            engine_ends.push(req);
            service_ends.push(resp);
        }
        self.engine.register_nsm(nsm_cfg.id, engine_ends)?;
        let device = NkDevice::new(service_ends, WakeState::new());
        let batch = self.cfg.batch_size;
        let instance = match nsm_cfg.stack {
            StackKind::SharedMem => Nsm::SharedMem(Box::new(SharedMemNsm::new(device, batch))),
            kind => {
                let ip = self.nsm_addr(nsm_cfg.id);
                let port = self.switch.attach_with_link(
                    ip,
                    LinkConfig::ideal().with_rate_gbps(nsm_cfg.nic_rate_gbps),
                );
                let stack_cfg = StackConfig::new(ip)
                    .with_cc(CcAlgorithm::from_kind(nsm_cfg.cc))
                    .with_ephemeral_generation(generation);
                let stack = TcpStack::new(stack_cfg, port);
                let service = ServiceLib::new(nsm_cfg.id, device, batch);
                Nsm::Tcp(Box::new(TcpNsm::new(kind, service, stack)))
            }
        };
        self.nsms.insert(nsm_cfg.id, instance);
        self.pools
            .register(PoolMember::Nsm(nsm_cfg.id), nsm_cfg.vcpus);
        Ok(())
    }

    /// Hard-crash an NSM: the instance (stack state, queues, vNIC) is torn
    /// down, and every connection pinned to it observes
    /// [`NkError::ConnReset`] on its guest socket. Subsequent requests from
    /// VMs still mapped to the crashed NSM fail fast with
    /// [`NkError::NsmUnavailable`] until it is restarted or the VMs are
    /// migrated. Returns the number of connections reset.
    pub fn crash_nsm(&mut self, nsm: NsmId) -> NkResult<usize> {
        let instance = self.nsms.remove(&nsm).ok_or(NkError::NotFound)?;
        if matches!(instance, Nsm::Tcp(_)) {
            self.switch.detach(self.nsm_addr(nsm));
        }
        drop(instance);
        // Warm-migrated addresses adopted by the crashed vNIC die with it.
        self.drop_aliases(|_, _, owner| owner == nsm);
        self.pools.remove(PoolMember::Nsm(nsm));
        let resets = self.engine.crash_nsm(nsm);
        self.audit_census();
        resets
    }

    /// Re-provision a crashed NSM from its original configuration: fresh
    /// queues, an empty stack, and a new vNIC at the same address. VMs
    /// currently mapped to it are re-attached so their new connections work
    /// immediately; connections lost in the crash stay lost.
    pub fn restart_nsm(&mut self, nsm: NsmId) -> NkResult<()> {
        if self.nsms.contains_key(&nsm) {
            return Err(NkError::AlreadyRegistered);
        }
        let nsm_cfg = self.cfg.nsm(nsm).ok_or(NkError::NotFound)?.clone();
        let generation = {
            let g = self.generations.entry(nsm).or_insert(0);
            *g += 1;
            *g
        };
        self.attach_nsm(&nsm_cfg, generation)?;
        // Only VMs *currently mapped* to this NSM are re-attached: a VM
        // migrated away before the crash must not be resurrected by the
        // restart (the intra-host migration detaches it; this loop is the
        // other half of that guarantee).
        for vm in self.engine.mapped_vms(nsm) {
            self.wire_vm(nsm, vm)?;
        }
        self.audit_census();
        Ok(())
    }

    /// Live-migrate a VM onto a different NSM ("switch her NSM on the fly",
    /// §3): the target NSM is wired to the VM's hugepage region and new
    /// connections route to it; existing connections stay pinned to
    /// whichever NSM they were opened on.
    ///
    /// The VM is *detached* from its previous NSM unless connections are
    /// still pinned there (those need the region until they drain) — a
    /// migrated-away VM must not linger in the old instance's mappings,
    /// where it would leak the region and survive a later restart.
    pub fn migrate_vm(&mut self, vm: VmId, to: NsmId) -> NkResult<()> {
        let from = self.engine.nsm_of(vm);
        self.wire_vm(to, vm)?;
        self.engine.remap_vm(vm, to)?;
        if let Some(from) = from.filter(|f| *f != to) {
            if self.engine.pinned_connections(vm, from) == 0 {
                if let Some(old) = self.nsms.get_mut(&from) {
                    old.remove_vm(vm);
                }
            }
        }
        self.audit_census();
        Ok(())
    }

    // ---- Cross-host migration: export / import / drain -----------------------

    /// Begin moving a VM off this host: snapshot its identity for the
    /// destination host and put the local instance into *drain* — it keeps
    /// serving the connections pinned here, and
    /// [`NetKernelHost::retire_vm`] tears it down once
    /// [`NetKernelHost::vm_pinned`] reaches zero.
    pub fn export_vm(&mut self, vm: VmId) -> NkResult<VmExport> {
        let export = self.exportable(vm)?;
        self.vms.get_mut(&vm).expect("exportable").draining = Some(export.from_nsm);
        Ok(export)
    }

    /// The identity half of an export, drained or warm: `NotFound` unless
    /// the VM is configured, resident and mapped, `AlreadyRegistered` while
    /// it is already draining. Touches nothing.
    fn exportable(&self, vm: VmId) -> NkResult<VmExport> {
        let vm_cfg = self.cfg.vm(vm).cloned().ok_or(NkError::NotFound)?;
        let slot = self.vms.get(&vm).ok_or(NkError::NotFound)?;
        if slot.draining.is_some() {
            return Err(NkError::AlreadyRegistered);
        }
        let from_nsm = self.engine.nsm_of(vm).ok_or(NkError::NotFound)?;
        Ok(VmExport {
            vm: vm_cfg,
            from_nsm,
        })
    }

    /// Bring an exported VM up on this host: fresh queue sets, a fresh
    /// hugepage region, and new connections served by `nsm`. The paper's
    /// "switch her NSM on the fly" across the host boundary — connections
    /// pinned on the source host are *not* transplanted; they drain there.
    pub fn import_vm(&mut self, export: &VmExport, nsm: NsmId) -> NkResult<()> {
        let vm_cfg = &export.vm;
        if self.vms.contains_key(&vm_cfg.id) {
            return Err(NkError::AlreadyRegistered);
        }
        self.attach_vm(vm_cfg, nsm, self.now_ns)?;
        // A cancelled-then-retried import must not duplicate the VM's
        // configuration entry.
        if !self.cfg.vms.iter().any(|v| v.id == vm_cfg.id) {
            self.cfg.vms.push(vm_cfg.clone());
        }
        // A share previously retired to zero cores revives when a tenant
        // arrives, so the placer and autoscaler see real utilisation again
        // instead of a permanently idle-looking zero-budget pool.
        self.revive_nsm_share(nsm);
        self.audit_census();
        Ok(())
    }

    /// Abort an export whose import failed on the destination (or a warm
    /// migration still inside its freeze window): the VM leaves drain,
    /// thaws, and keeps running here as if the migration had never been
    /// attempted. Returns whether a drain or freeze was actually cancelled.
    pub fn cancel_export(&mut self, vm: VmId) -> bool {
        let frozen = self.engine.is_frozen(vm);
        self.thaw_vm(vm);
        let draining = self.vms.get_mut(&vm).and_then(|slot| slot.draining.take());
        draining.is_some() || frozen
    }

    /// VMs currently draining off this host, with the NSM share each is
    /// draining from, in id order.
    pub fn draining_vms(&self) -> Vec<(VmId, NsmId)> {
        let draining = |(vm, slot): (&VmId, &VmSlot)| Some((*vm, slot.draining?));
        self.vms.iter().filter_map(draining).collect()
    }

    /// VMs resident here and not draining — the VMs this host is *home* to,
    /// whose new connections open here — in id order.
    pub fn homed_vms(&self) -> impl Iterator<Item = VmId> + '_ {
        let homed = |(vm, slot): (&VmId, &VmSlot)| slot.draining.is_none().then_some(*vm);
        self.vms.iter().filter_map(homed)
    }

    /// Tear down a fully drained VM: its engine port (queues, mapping,
    /// counters and their marks), its slot (GuestLib, hugepage region, drain
    /// flag) and its configuration entry all go. Refused while connections
    /// are still pinned — draining means *waiting*, not resetting.
    pub fn retire_vm(&mut self, vm: VmId) -> NkResult<()> {
        if !self.vms.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        if self.vm_pinned(vm) > 0 {
            return Err(NkError::InvalidState);
        }
        self.engine.deregister_vm(vm)?;
        self.vms.remove(&vm);
        // Every NSM instance that was ever wired to the VM drops its region
        // mapping — a retired VM must not leak its hugepages into a share
        // that no longer serves it.
        for instance in self.nsms.values_mut() {
            instance.remove_vm(vm);
        }
        self.cfg.vms.retain(|v| v.id != vm);
        // Adopted warm-migration addresses whose owning stack no longer
        // serves any connection on them are dropped: a stale alias would
        // shadow a later adoption of the same address by a different NSM.
        self.drop_aliases(|host, addr, owner| match host.nsms.get(&owner) {
            Some(Nsm::Tcp(n)) => !n.stack().serves_ip(addr),
            _ => true,
        });
        self.audit_census();
        Ok(())
    }

    /// Scale a fully drained NSM's core share to zero (the ROADMAP's
    /// scale-to-zero of drained NSMs): fires only when no VM maps to it and
    /// no connection is pinned to it. The NSM instance stays alive at zero
    /// cores; a later [`NetKernelHost::import_vm`] onto it restores its
    /// configured allocation, and hosts running their own control plane can
    /// also revive it through backpressure-driven scale-up. Returns whether
    /// the share was retired now.
    pub fn retire_nsm_if_drained(&mut self, nsm: NsmId) -> bool {
        if !self.nsms.contains_key(&nsm)
            || !self.engine.mapped_vms(nsm).is_empty()
            || self.engine.pinned_connections_for_nsm(nsm) > 0
            || self.pools.cores(PoolMember::Nsm(nsm)) == Some(0)
        {
            return false;
        }
        self.pools.set_cores(PoolMember::Nsm(nsm), 0)
    }

    /// Undo a [`NetKernelHost::retire_nsm_if_drained`]: restore the NSM's
    /// configured core allocation. The revert half of an evacuation plan's
    /// scale-to-zero tail — a rolled-back plan must leave the share exactly
    /// as it found it. Returns whether a zero-core share was revived.
    pub fn revive_nsm_share(&mut self, nsm: NsmId) -> bool {
        if !self.nsms.contains_key(&nsm) || self.pools.cores(PoolMember::Nsm(nsm)) != Some(0) {
            return false;
        }
        let vcpus = self.cfg.nsm(nsm).map(|n| n.vcpus).unwrap_or(1);
        self.pools.set_cores(PoolMember::Nsm(nsm), vcpus)
    }

    /// Arm the warm-import fault: the next `n` calls to
    /// [`NetKernelHost::import_vm_warm`] refuse with
    /// [`NkError::NsmUnavailable`] before touching any state — the
    /// destination behaving as if its share vanished at the worst moment.
    /// Rollback paths (single warm migration and whole-plan evacuation) are
    /// tested through this surface.
    pub fn inject_import_failures(&mut self, n: u32) {
        self.import_fail_budget = n;
    }

    // ---- Warm cross-host migration: freeze / export / install ---------------

    /// Open a warm-migration freeze window on a VM: CoreEngine stops
    /// popping its fresh requests while in-flight work (stalled NQEs,
    /// responses, frames on the wire) keeps draining through
    /// [`NetKernelHost::begin_step`] / [`NetKernelHost::poll_round`]. A few
    /// quiesced steps later the VM's pipeline is snapshot-consistent.
    pub fn freeze_vm(&mut self, vm: VmId) -> NkResult<()> {
        if !self.vms.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        self.engine.set_frozen(vm, true);
        Ok(())
    }

    /// Close a freeze window without migrating: the VM resumes serving
    /// exactly as before.
    pub fn thaw_vm(&mut self, vm: VmId) {
        self.engine.set_frozen(vm, false);
    }

    /// True while the VM sits inside a freeze window.
    pub fn vm_frozen(&self, vm: VmId) -> bool {
        self.engine.is_frozen(vm)
    }

    /// True when none of the VM's pinned connections has bytes in flight
    /// (everything transmitted is acknowledged), no request NQEs are
    /// parked in its stall queues and no response is parked behind its full
    /// rings — the condition under which a warm export is a clean cut. The
    /// freeze window polls this between steps.
    pub fn vm_wire_quiet(&self, vm: VmId) -> bool {
        if self.engine.stalled_nqes_of(vm) > 0 || self.engine.parked_responses_of(vm) > 0 {
            return false;
        }
        self.engine.vm_entries(vm).iter().all(|(_, entry)| {
            match (entry.nsm_socket, self.nsms.get(&entry.nsm)) {
                (Some(sock), Some(Nsm::Tcp(n))) => n.stack().conn_quiet(sock),
                // Handshake still completing at the NQE level, or a
                // non-TCP share: not a clean cut yet.
                (None, _) => false,
                _ => true,
            }
        })
    }

    /// True when `nsm` currently holds per-VM state for `vm` (region
    /// mapping or sockets). Exposed for migration-hygiene assertions.
    pub fn nsm_serves_vm(&self, nsm: NsmId, vm: VmId) -> bool {
        self.nsms.get(&nsm).is_some_and(|i| i.has_vm(vm))
    }

    /// Foreign addresses currently aliased onto local vNICs for
    /// warm-migrated connections, in address order.
    pub fn warm_aliases(&self) -> Vec<(u32, NsmId)> {
        self.aliases.iter().map(|(a, n)| (*a, *n)).collect()
    }

    /// Export a VM *with* the live state of its pinned connections — the
    /// warm half of "switch her NSM on the fly" across hosts. Every
    /// connection's TCP machine, ServiceLib translation context and guest
    /// socket are snapshotted and torn out; the VM instance then retires
    /// immediately (nothing is left to drain). Call inside a freeze window
    /// after [`NetKernelHost::vm_wire_quiet`] reports a clean cut.
    ///
    /// Pre-validates before touching anything: all pinned connections must
    /// sit on the VM's current (TCP-stack) NSM with their NSM-side sockets
    /// known, and the guest sockets must be in a transplantable state —
    /// otherwise the export refuses with [`NkError::InvalidState`] and the
    /// VM keeps serving untouched.
    pub fn export_vm_warm(&mut self, vm: VmId) -> NkResult<VmWarmExport> {
        let base = self.exportable(vm)?;
        let from_nsm = base.from_nsm;
        // Fold every completion still waiting in the VM's NK-device queues,
        // or parked behind them (DataReceived payloads, send credits, a
        // reaped CloseComplete the application has not polled for), into
        // GuestLib state *before* validating — the queues are dropped with
        // the instance, payload announced but not absorbed would be lost in
        // the handover, and the guest-socket states checked below must be
        // the settled ones. Each drive empties the rings for the next flush.
        let slot = self.vms.get_mut(&vm).expect("presence checked above");
        slot.guest.drive();
        while self.engine.flush_vm(vm) > 0 {
            slot.guest.drive();
        }
        let entries = self.engine.vm_entries(vm);
        // Pre-validation pass over every layer the destructive phase will
        // touch: nothing is torn out until the whole export is known to
        // succeed, so a refusal leaves the VM serving untouched.
        if !matches!(self.nsms.get(&from_nsm), Some(Nsm::Tcp(_))) {
            return Err(NkError::InvalidState);
        }
        for (key, entry) in &entries {
            if entry.nsm != from_nsm || entry.nsm_socket.is_none() {
                return Err(NkError::InvalidState);
            }
            let Some(Nsm::Tcp(n)) = self.nsms.get(&entry.nsm) else {
                return Err(NkError::InvalidState);
            };
            // The stack connection must be post-handshake; an embryonic or
            // dying connection refuses to snapshot, so refuse the whole
            // export before anything is torn out.
            if !n
                .stack()
                .conn_transplantable(entry.nsm_socket.expect("checked above"))
            {
                return Err(NkError::InvalidState);
            }
            // The guest socket must be transplantable too — a socket the
            // application is closing (Close NQE parked by the freeze) would
            // fail export_socket *after* the NSM state was torn out.
            let slot = self.vms.get(&vm).expect("checked above");
            if !slot.guest.socket_transplantable(key.socket) {
                return Err(NkError::InvalidState);
            }
        }
        // Destructive phase — every step below succeeds by construction of
        // the checks above.
        let mut conns = Vec::new();
        for (key, _entry) in self.engine.extract_vm_entries(vm) {
            let Some(Nsm::Tcp(n)) = self.nsms.get_mut(&from_nsm) else {
                unreachable!("validated above");
            };
            let (tcp, pending_send, rx_outstanding) = n.export_conn(vm, key.socket)?;
            let slot = self.vms.get_mut(&vm).expect("presence checked above");
            let guest = slot.guest.export_socket(key.socket)?;
            conns.push(ConnSnapshot {
                guest_sock: key.socket,
                vm_queue_set: key.queue_set,
                tcp,
                pending_send,
                rx_outstanding,
                guest,
            });
        }
        // Nothing is pinned any more: the instance retires in place, and
        // the freeze window closes with it.
        self.retire_vm(vm).expect("extracted VM has nothing pinned");
        Ok(VmWarmExport {
            base,
            from_host: self.cfg.host_id,
            conns,
        })
    }

    /// Bring a warm-exported VM up on this host: the identity import of
    /// [`NetKernelHost::import_vm`] plus the installation of every
    /// transplanted connection — TCP state into `nsm`'s stack, translation
    /// context into its ServiceLib, tuples into the CoreEngine table, and
    /// the guest sockets (with their unread payload) into the fresh
    /// GuestLib. Each connection's original address is aliased onto the
    /// destination vNIC so rerouted frames land in the adopted stack.
    pub fn import_vm_warm(&mut self, export: &VmWarmExport, nsm: NsmId) -> NkResult<()> {
        let vm = export.vm_id();
        if self.import_fail_budget > 0 {
            self.import_fail_budget -= 1;
            return Err(NkError::NsmUnavailable);
        }
        if !matches!(self.nsms.get(&nsm), Some(Nsm::Tcp(_))) {
            return Err(NkError::NotFound);
        }
        // A transplanted address may be adopted as an alias only when it is
        // not the home vNIC address of a *different* alive local NSM —
        // aliasing over it would hijack that NSM's traffic. (A VM returning
        // to its origin host must land on the NSM whose address its
        // connections carry, or travel drained.)
        for ip in export.rerouted_ips() {
            let conflict = ip != self.nsm_addr(nsm)
                && self.cfg.nsms.iter().any(|n| {
                    n.id != nsm && self.nsms.contains_key(&n.id) && self.nsm_addr(n.id) == ip
                });
            if conflict {
                return Err(NkError::InvalidState);
            }
        }
        self.import_vm(&export.base, nsm)?;
        let mut installed: Vec<SocketId> = Vec::new();
        let mut added_aliases: Vec<u32> = Vec::new();
        let mut result = Ok(());
        for conn in &export.conns {
            let key = nk_types::ConnKey::vm(vm, conn.vm_queue_set, conn.guest_sock);
            // The engine pins the tuple with the same queue-set hash a
            // fresh connection would get; ServiceLib's proactive events
            // must ride that same set, so it is resolved first.
            let nsm_qs = match self.engine.nsm_queue_set_for(&key, nsm) {
                Ok(qs) => qs,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            let Some(Nsm::Tcp(n)) = self.nsms.get_mut(&nsm) else {
                unreachable!("validated above");
            };
            let stack_sock = match n.install_conn(vm, conn, nsm_qs.raw() as usize) {
                Ok(sock) => sock,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            installed.push(conn.guest_sock);
            let step = self
                .engine
                .install_entry(key, nsm, stack_sock)
                .map(|pinned_qs| {
                    debug_assert_eq!(pinned_qs, nsm_qs, "hash must agree across layers");
                })
                .and_then(|()| {
                    let slot = self.vms.get_mut(&vm).expect("imported above");
                    slot.guest.install_socket(&conn.guest)
                });
            if let Err(e) = step {
                result = Err(e);
                break;
            }
            let ip = conn.tcp.local.ip;
            if ip != self.nsm_addr(nsm) && self.aliases.get(&ip) != Some(&nsm) {
                // Attach — or re-point a stale mapping left by an earlier
                // warm hop — onto this NSM's vNIC port.
                let Some(Nsm::Tcp(n)) = self.nsms.get(&nsm) else {
                    unreachable!("validated above");
                };
                let port = n.stack().port().clone();
                let rate = self
                    .cfg
                    .nsm(nsm)
                    .map(|n| n.nic_rate_gbps)
                    .unwrap_or(nk_types::constants::LINE_RATE_GBPS);
                self.switch
                    .attach_alias(ip, port, LinkConfig::ideal().with_rate_gbps(rate));
                self.aliases.insert(ip, nsm);
                added_aliases.push(ip);
            }
        }
        if let Err(e) = result {
            // Unwind the partial import so the caller can re-install the
            // export elsewhere: tuples unpin, installed connections leave
            // the stack *silently* (export, not close — no FIN may reach
            // the peer of a connection that lives on at the source),
            // adopted aliases detach, and the identity import retires.
            self.engine.extract_vm_entries(vm);
            for guest_sock in installed {
                if let Some(Nsm::Tcp(n)) = self.nsms.get_mut(&nsm) {
                    let _ = n.export_conn(vm, guest_sock);
                }
            }
            self.drop_aliases(|_, ip, _| added_aliases.contains(&ip));
            self.retire_vm(vm).expect("unpinned partial import retires");
            return Err(e);
        }
        self.audit_census();
        Ok(())
    }

    /// Reconfigure the egress link towards an NSM's vNIC mid-flight (rate,
    /// loss, latency, reordering). Frames already in flight keep their
    /// original delivery schedule. Parameters out of range
    /// ([`LinkFault::validate`]) are refused with `BadConfig`.
    pub fn degrade_nsm_link(&mut self, nsm: NsmId, fault: LinkFault) -> NkResult<()> {
        let nsm_cfg = self.cfg.nsm(nsm).ok_or(NkError::NotFound)?;
        fault.validate()?;
        let config = LinkConfig {
            // A fault with no explicit cap falls back to the vNIC's
            // configured line rate — restoring a degraded link must never
            // leave it faster than it was provisioned.
            rate_gbps: Some(fault.rate_gbps.unwrap_or(nsm_cfg.nic_rate_gbps)),
            latency_us: fault.latency_us,
            loss: fault.loss,
            reorder: fault.reorder,
            ..LinkConfig::default()
        };
        if self
            .switch
            .set_link_config(self.nsm_addr(nsm), config, self.now_ns)
        {
            Ok(())
        } else {
            Err(NkError::NotFound)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::host::testutil::*;
    use nk_types::{NkError, NsmId, SockAddr, SocketApi, StackKind, VmId};

    /// Crash the serving NSM mid-connection: the guest socket observes a
    /// reset, and after a restart the guest reconnects with no app changes.
    #[test]
    fn nsm_crash_resets_sockets_and_restart_recovers() {
        let mut host = one_vm_host(StackKind::Kernel);
        remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");

        // Crash. The established connection dies with ConnReset.
        let resets = host.crash_nsm(NsmId(1)).unwrap();
        assert!(resets >= 1, "the live connection must be reset");
        assert!(!host.has_nsm(NsmId(1)));
        host.run(2, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).error());
        assert_eq!(guest.recv(s, &mut [0u8; 8]), Err(NkError::ConnReset));
        assert!(guest.stats().errors >= 1);

        // While the NSM is down, new sockets fail fast.
        let guest = host.guest_mut(VmId(1)).unwrap();
        let dead = guest.socket().unwrap();
        host.run(2, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        guest.drive();
        assert_eq!(guest.send(dead, b"x"), Err(NkError::NsmUnavailable));

        // Restart and reconnect: same application pattern, fresh socket.
        host.restart_nsm(NsmId(1)).unwrap();
        assert!(host.has_nsm(NsmId(1)));
        let guest = host.guest_mut(VmId(1)).unwrap();
        let _ = guest.close(s);
        let _ = guest.close(dead);
        let s2 = guest.socket().unwrap();
        guest.connect(s2, SockAddr::new(REMOTE_IP, 7)).unwrap();
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s2).writable(), "reconnect after restart failed");
    }

    /// Live migration: after `migrate_vm` new connections are served by the
    /// standby NSM while the crashed primary stays down.
    #[test]
    fn vm_migrates_to_standby_nsm_after_crash() {
        let mut host = kernel_host(0, 1, 2);
        remote_listener(&mut host);

        host.crash_nsm(NsmId(1)).unwrap();
        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        assert_eq!(host.nsm_of(VmId(1)), Some(NsmId(2)));

        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "standby NSM must serve the VM");
        assert!(host.nsm_service_stats(NsmId(2)).unwrap().requests > 0);
    }

    /// Export → import across two hosts: the drain counter tracks pinned
    /// connections, retire refuses while pinned, and the fully drained
    /// source NSM share scales to zero.
    #[test]
    fn export_import_drain_and_scale_to_zero() {
        let mut src = kernel_host(1, 1, 1);
        let mut dst = kernel_host(2, 0, 1);

        // Pin one connection on the source.
        remote_listener_at(&mut src, 0x0A01_0100);
        let s = guest_connect_to(&mut src, 0x0A01_0100);
        src.run(20, 100_000);
        assert!(src.vm_pinned(VmId(1)) >= 1);

        let export = src.export_vm(VmId(1)).unwrap();
        assert_eq!(export.from_nsm, NsmId(1));
        assert_eq!(src.draining_vms(), vec![(VmId(1), NsmId(1))]);
        // Double export is refused.
        assert_eq!(src.export_vm(VmId(1)), Err(NkError::AlreadyRegistered));
        // Retire refuses while the connection is pinned.
        assert_eq!(src.retire_vm(VmId(1)), Err(NkError::InvalidState));
        assert!(!src.retire_nsm_if_drained(NsmId(1)));

        // The destination brings the VM up and serves new connections.
        dst.import_vm(&export, NsmId(1)).unwrap();
        assert_eq!(dst.nsm_of(VmId(1)), Some(NsmId(1)));
        assert_eq!(
            dst.import_vm(&export, NsmId(1)),
            Err(NkError::AlreadyRegistered)
        );
        remote_listener_at(&mut dst, 0x0A02_0100);
        let s2 = guest_connect_to(&mut dst, 0x0A02_0100);
        dst.run(20, 100_000);
        let guest2 = dst.guest_mut(VmId(1)).unwrap();
        assert!(guest2.poll(s2).writable(), "imported VM must serve");

        // Close the pinned connection: the drain completes and the source
        // share retires to zero cores.
        let guest = src.guest_mut(VmId(1)).unwrap();
        guest.close(s).unwrap();
        src.run(10, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 0);
        src.retire_vm(VmId(1)).unwrap();
        assert!(src.guest_mut(VmId(1)).is_none());
        assert!(src.config().vm(VmId(1)).is_none());
        assert!(src.retire_nsm_if_drained(NsmId(1)));
        assert_eq!(src.nsm_cores(NsmId(1)), Some(0));
        // Retiring twice is a no-op.
        assert!(!src.retire_nsm_if_drained(NsmId(1)));
    }

    /// Intra-host migration must detach the VM from the source NSM: the
    /// stale mapping used to leak the region, and a later crash + restart
    /// of the source NSM must not resurrect the migrated VM.
    #[test]
    fn intra_host_migration_detaches_the_source_nsm() {
        let mut host = kernel_host(0, 1, 2);
        assert!(host.nsm_serves_vm(NsmId(1), VmId(1)));

        // No pinned connections: the migration detaches immediately.
        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        assert!(host.nsm_serves_vm(NsmId(2), VmId(1)));
        assert!(
            !host.nsm_serves_vm(NsmId(1), VmId(1)),
            "the source NSM must forget a migrated-away VM"
        );

        // Crash and restart the old NSM: the VM is not re-added (it maps
        // to NSM 2), and the restarted instance serves nothing for it.
        host.crash_nsm(NsmId(1)).unwrap();
        host.restart_nsm(NsmId(1)).unwrap();
        assert!(
            !host.nsm_serves_vm(NsmId(1), VmId(1)),
            "restart must not resurrect a migrated VM"
        );
        assert_eq!(host.nsm_of(VmId(1)), Some(NsmId(2)));

        // The VM still serves through its new NSM.
        remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
    }

    /// While connections are still pinned to the source NSM, migration
    /// keeps the region attached there (the pinned connections need it);
    /// retiring the VM later sweeps every instance.
    #[test]
    fn migration_with_pinned_connections_defers_the_detach() {
        let mut host = kernel_host(0, 1, 2);
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        assert!(host.vm_pinned(VmId(1)) >= 1);

        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        assert!(
            host.nsm_serves_vm(NsmId(1), VmId(1)),
            "pinned connections still need the source region"
        );
        // The pinned connection keeps streaming through the old NSM.
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert_eq!(guest.send(s, b"still via nsm1").unwrap(), 14);
        host.run(10, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(remote.recv(conn, &mut buf).unwrap(), 14);

        // Drain and retire: now every instance forgets the VM.
        let guest = host.guest_mut(VmId(1)).unwrap();
        guest.close(s).unwrap();
        host.run(10, 100_000);
        host.export_vm(VmId(1)).unwrap();
        host.retire_vm(VmId(1)).unwrap();
        assert!(!host.nsm_serves_vm(NsmId(1), VmId(1)));
        assert!(!host.nsm_serves_vm(NsmId(2), VmId(1)));
    }

    /// `import_vm` is atomic: a failed import leaves no residue (a retry
    /// succeeds), and an import onto a host whose config already lists the
    /// VM never duplicates the entry.
    #[test]
    fn import_vm_unwinds_on_failure_and_never_duplicates_config() {
        let mut src = kernel_host(1, 1, 1);
        let mut dst = kernel_host(2, 0, 1);

        let export = src.export_vm(VmId(1)).unwrap();
        // Import onto a non-existent NSM fails up front, leaving nothing.
        assert_eq!(dst.import_vm(&export, NsmId(9)), Err(NkError::NotFound));
        assert!(!dst.has_vm(VmId(1)));
        assert!(dst.config().vm(VmId(1)).is_none());
        // The retry (the cancelled-then-retried flow) succeeds cleanly.
        dst.import_vm(&export, NsmId(1)).unwrap();
        assert_eq!(
            dst.config().vms.iter().filter(|v| v.id == VmId(1)).count(),
            1
        );
        // Re-import of a resident VM is refused without a second push.
        assert_eq!(
            dst.import_vm(&export, NsmId(1)),
            Err(NkError::AlreadyRegistered)
        );
        assert_eq!(
            dst.config().vms.iter().filter(|v| v.id == VmId(1)).count(),
            1
        );

        // Bounce the VM around: export → retire → import again; the config
        // entry count stays exactly one through the whole cycle.
        src.retire_vm(VmId(1)).unwrap();
        let export_back = dst.export_vm(VmId(1)).unwrap();
        dst.retire_vm(VmId(1)).unwrap();
        src.import_vm(&export_back, NsmId(1)).unwrap();
        assert_eq!(
            src.config().vms.iter().filter(|v| v.id == VmId(1)).count(),
            1
        );
    }

    /// Warm export tears the whole pinned connection out (TCP state,
    /// ServiceLib context, guest socket), retires the source instance with
    /// zero drain, and the import recreates everything — including the
    /// address alias for the transplanted tuple.
    #[test]
    fn warm_export_import_moves_connection_state_between_hosts() {
        let mut src = kernel_host(1, 1, 1);
        let mut dst = kernel_host(2, 0, 1);

        // Pin one connection on the source and push some data.
        remote_listener_at(&mut src, 0x0A01_0100);
        let s = guest_connect_to(&mut src, 0x0A01_0100);
        src.run(20, 100_000);
        let guest = src.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
        assert_eq!(guest.send(s, b"pinned bytes").unwrap(), 12);
        src.run(20, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 1);

        src.freeze_vm(VmId(1)).unwrap();
        src.run(5, 100_000);
        assert!(src.vm_wire_quiet(VmId(1)));
        let export = src.export_vm_warm(VmId(1)).unwrap();
        assert_eq!(export.conns.len(), 1);
        assert_eq!(export.base.from_nsm, NsmId(1));
        assert_eq!(export.rerouted_ips(), vec![src.nsm_addr(NsmId(1))]);
        // The source is fully out: no guest, no pin, share retires now.
        assert!(!src.has_vm(VmId(1)));
        assert_eq!(src.vm_pinned(VmId(1)), 0);
        assert!(src.retire_nsm_if_drained(NsmId(1)));

        // Install on the destination: same guest socket id, pinned again,
        // alias adopted for the foreign address.
        dst.import_vm_warm(&export, NsmId(1)).unwrap();
        assert_eq!(dst.vm_pinned(VmId(1)), 1);
        let aliases = dst.warm_aliases();
        assert_eq!(aliases, vec![(src.nsm_addr(NsmId(1)), NsmId(1))]);
        let guest = dst.guest_mut(VmId(1)).unwrap();
        assert!(guest.has_socket(s));
        assert!(guest.poll(s).writable());
        // Double warm import is refused like a cold one.
        assert_eq!(
            dst.import_vm_warm(&export, NsmId(1)),
            Err(NkError::AlreadyRegistered)
        );
        // Crashing the adopting NSM tears the alias down with it.
        dst.crash_nsm(NsmId(1)).unwrap();
        assert!(dst.warm_aliases().is_empty());
    }

    /// A warm export never retires a VM with responses parked behind its
    /// full rings: it drains them into GuestLib first, so every byte
    /// announced to the frozen guest travels in the snapshot.
    #[test]
    fn warm_export_drains_parked_responses_into_the_snapshot() {
        let mut cfg = kernel_cfg(1, 1, 1);
        cfg.queue_capacity = 2;
        let mut src = crate::NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener_at(&mut src, 0x0A01_0100);
        let s = guest_connect_to(&mut src, 0x0A01_0100);
        src.run(20, 100_000);
        let remote = src.remote_mut(0x0A01_0100).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        assert_eq!(remote.send(conn, &[7u8; 48 * 1024]).unwrap(), 48 * 1024);
        src.freeze_vm(VmId(1)).unwrap();
        src.run(20, 100_000);
        assert!(src.parked_responses_of(VmId(1)) > 0, "the guest never read");
        assert!(!src.vm_wire_quiet(VmId(1)));

        let export = src.export_vm_warm(VmId(1)).unwrap();
        assert_eq!(export.conns[0].guest_sock, s);
        assert_eq!(export.conns[0].guest.rx_bytes, vec![7u8; 48 * 1024]);
    }

    /// A warm export refuses mid-close connections *before* touching
    /// anything: the application closed the socket while the Close NQE was
    /// parked by the freeze, so the guest socket is no longer
    /// transplantable — and the VM must keep serving untouched after the
    /// refusal.
    #[test]
    fn warm_export_refuses_a_closing_socket_without_damage() {
        let mut src = kernel_host(1, 1, 1);
        remote_listener_at(&mut src, 0x0A01_0100);
        let s = guest_connect_to(&mut src, 0x0A01_0100);
        src.run(20, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 1);

        // Freeze, then the app closes: the Close NQE parks in the frozen
        // queue while the guest socket transitions to Closing.
        src.freeze_vm(VmId(1)).unwrap();
        let guest = src.guest_mut(VmId(1)).unwrap();
        guest.close(s).unwrap();
        src.run(3, 100_000);
        assert_eq!(src.export_vm_warm(VmId(1)), Err(NkError::InvalidState));
        // Nothing was torn out: the VM, its pin and its NSM state survive,
        // and after a thaw the close completes normally.
        assert!(src.has_vm(VmId(1)));
        assert_eq!(src.vm_pinned(VmId(1)), 1);
        assert!(src.nsm_serves_vm(NsmId(1), VmId(1)));
        src.thaw_vm(VmId(1));
        src.run(10, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 0, "close completes after thaw");
    }

    /// A warm import must not alias a transplanted address over a
    /// *different* alive local NSM's home vNIC address (that would hijack
    /// its traffic): the import refuses and, being atomic, leaves nothing
    /// behind — a retry onto the owning NSM succeeds.
    #[test]
    fn warm_import_refuses_to_hijack_a_local_vnic_address() {
        let mut src = kernel_host(1, 1, 1);
        // The destination doubles as the origin-host shape: two NSMs, and
        // the transplanted connection carries NSM 1's home address.
        let mut dst = kernel_host(1, 0, 2);
        remote_listener_at(&mut src, 0x0A01_0100);
        guest_connect_to(&mut src, 0x0A01_0100);
        src.run(20, 100_000);
        src.freeze_vm(VmId(1)).unwrap();
        src.run(5, 100_000);
        let export = src.export_vm_warm(VmId(1)).unwrap();
        assert_eq!(export.rerouted_ips(), vec![dst.nsm_addr(NsmId(1))]);

        // Importing onto NSM 2 would hijack NSM 1's address: refused, and
        // atomically so — no VM, no aliases, no config entry left behind.
        assert_eq!(
            dst.import_vm_warm(&export, NsmId(2)),
            Err(NkError::InvalidState)
        );
        assert!(!dst.has_vm(VmId(1)));
        assert!(dst.warm_aliases().is_empty());
        assert!(dst.config().vm(VmId(1)).is_none());
        // Landing on the NSM that owns the address needs no alias at all.
        dst.import_vm_warm(&export, NsmId(1)).unwrap();
        assert!(dst.warm_aliases().is_empty());
        assert_eq!(dst.vm_pinned(VmId(1)), 1);
    }

    /// An aborted warm migration (cancel inside the freeze window) leaves
    /// the source VM serving exactly as before: parked requests thaw and
    /// flow, the pinned connection never resets.
    #[test]
    fn cancel_export_mid_freeze_restores_service() {
        let mut host = one_vm_host(StackKind::Kernel);
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();

        // Freeze, then let the application submit work: it parks.
        host.freeze_vm(VmId(1)).unwrap();
        assert!(host.vm_frozen(VmId(1)));
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert_eq!(guest.send(s, b"parked in the freeze").unwrap(), 20);
        host.run(10, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        assert_eq!(
            remote.recv(conn, &mut [0u8; 32]),
            Err(NkError::WouldBlock),
            "frozen VM's requests must not reach the wire"
        );

        // Abort the migration: thaw via cancel_export, the parked bytes
        // flow and the connection was never disturbed.
        assert!(host.cancel_export(VmId(1)));
        assert!(!host.vm_frozen(VmId(1)));
        host.run(10, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(remote.recv(conn, &mut buf).unwrap(), 20);
        assert_eq!(&buf[..20], b"parked in the freeze");
        assert_eq!(host.vm_pinned(VmId(1)), 1, "no reset, no unpin");
    }
}
