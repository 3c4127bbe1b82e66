//! The CXL fabric switch: ports, device binding, and transit timing.
//!
//! In CXL 2.0+ the fabric switch is compulsory, non-bypass hardware in
//! any multi-node interconnect (§II-B2). The Fabric Manager endpoint
//! inside the switch binds devices to Virtual PCI-to-PCI Bridges (VPPBs)
//! and assigns each a cacheID. This module models that control plane plus
//! the data-plane costs: per-upstream-port FlexBus serialization and a
//! fixed transit delay through the VCS.

use simkit::hash::FastMap;

use simkit::{SimDuration, SimTime};

use crate::link::{CxlParams, FlexBusLink};

/// Identifies one switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

/// A fabric switch with `n_upstream` host-facing ports.
///
/// Downstream (device-facing) serialization is modeled inside
/// [`crate::Type3Device`]; the switch owns the upstream links, the
/// binding table, and transit timing.
///
/// # Examples
///
/// ```
/// use cxlsim::{CxlParams, FabricSwitch, PortId};
/// use simkit::SimTime;
///
/// let mut sw = FabricSwitch::new(0, 2, CxlParams::default());
/// let cache_id = sw.bind_device(PortId(0));
/// assert_eq!(sw.device_port(cache_id), Some(PortId(0)));
/// let arrived = sw.upstream_transfer(SimTime::ZERO, 0, 64);
/// let routed = sw.transit(arrived);
/// assert!(routed > arrived);
/// ```
#[derive(Debug, Clone)]
pub struct FabricSwitch {
    id: u16,
    params: CxlParams,
    upstream: Vec<FlexBusLink>,
    /// FM endpoint binding: cacheID → downstream port.
    bindings: FastMap<u16, PortId>,
    next_cache_id: u16,
    /// Whether this switch carries a PIFS process core (CNV bit, §IV-C2).
    has_process_core: bool,
}

impl FabricSwitch {
    /// Creates switch `id` with `n_upstream` host ports.
    pub fn new(id: u16, n_upstream: usize, params: CxlParams) -> Self {
        FabricSwitch {
            id,
            params,
            upstream: (0..n_upstream.max(1))
                .map(|_| FlexBusLink::new(&params))
                .collect(),
            bindings: FastMap::default(),
            next_cache_id: 0,
            has_process_core: true,
        }
    }

    /// Switch id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Registers a device on downstream `port`; returns its cacheID
    /// ("each device is assigned a cacheID when recognized by the FM
    /// endpoint", §II-B2).
    pub fn bind_device(&mut self, port: PortId) -> u16 {
        let id = self.next_cache_id;
        self.next_cache_id += 1;
        self.bindings.insert(id, port);
        id
    }

    /// Downstream port bound to `cache_id`, if any.
    pub fn device_port(&self, cache_id: u16) -> Option<PortId> {
        self.bindings.get(&cache_id).copied()
    }

    /// Moves `bytes` across upstream port `port` arriving at `now`;
    /// returns delivery time at the switch (or host, symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn upstream_transfer(&mut self, now: SimTime, port: usize, bytes: u64) -> SimTime {
        self.upstream[port].transfer(now, bytes)
    }

    /// Adds VCS routing/arbitration transit to a message at `t`.
    pub fn transit(&self, t: SimTime) -> SimTime {
        simkit::stats::record_events(1);
        t + SimDuration::from_ns(self.params.switch_transit_ns)
    }

    /// Marks whether this switch carries a process core; read as the CNV
    /// field during multi-switch configuration (§IV-C2).
    pub fn set_process_core(&mut self, present: bool) {
        self.has_process_core = present;
    }

    /// CNV: `true` when the switch can run in-switch accumulation.
    pub fn cnv(&self) -> bool {
        self.has_process_core
    }

    /// The switch's fabric parameters.
    pub fn params(&self) -> &CxlParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_assigns_sequential_cache_ids() {
        let mut sw = FabricSwitch::new(0, 1, CxlParams::default());
        assert_eq!(sw.bind_device(PortId(0)), 0);
        assert_eq!(sw.bind_device(PortId(1)), 1);
        assert_eq!(sw.device_port(1), Some(PortId(1)));
        assert_eq!(sw.device_port(9), None);
    }

    #[test]
    fn transit_adds_fixed_delay() {
        let sw = FabricSwitch::new(0, 1, CxlParams::default());
        let t = sw.transit(SimTime::from_ns(100));
        assert_eq!(t.as_ns(), 100 + sw.params().switch_transit_ns);
    }

    #[test]
    fn upstream_ports_are_independent() {
        let mut sw = FabricSwitch::new(0, 2, CxlParams::default());
        let a = sw.upstream_transfer(SimTime::ZERO, 0, 64 * 1024);
        let b = sw.upstream_transfer(SimTime::ZERO, 1, 64);
        // Port 1 is idle — its small transfer beats port 0's big one.
        assert!(b < a);
    }

    #[test]
    fn same_port_congests() {
        let mut sw = FabricSwitch::new(0, 1, CxlParams::default());
        let a = sw.upstream_transfer(SimTime::ZERO, 0, 64 * 1024);
        let b = sw.upstream_transfer(SimTime::ZERO, 0, 64);
        // The second transfer queues behind the first (64 KB ≈ 1 µs at 64 GB/s).
        assert!(b > a, "b={b} a={a}");
    }

    #[test]
    fn cnv_defaults_on_and_toggles() {
        let mut sw = FabricSwitch::new(0, 1, CxlParams::default());
        assert!(sw.cnv());
        sw.set_process_core(false);
        assert!(!sw.cnv());
    }
}
