//! Multi-switch fabric topologies for the §IV-C scale-up study.
//!
//! CXL 3.0 permits non-tree fabrics; the paper's Fig 13(c) experiment
//! assumes fully connected switches, each with one local host and one
//! local Type 3 device, paying an extra 100 ns per inter-switch hop.

use serde::{Deserialize, Serialize};
use simkit::SimDuration;

use crate::link::CxlParams;

/// Identifies one fabric switch in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SwitchId(pub u16);

/// A fully connected multi-switch fabric with devices and hosts homed
/// round-robin: device `d` on switch `d % n_switches`, host `h` on
/// switch `h % n_switches`. One switch is the CXL 2.0 single-switch
/// system; `n` switches with `n` devices and `n` hosts is the Fig 13(c)
/// configuration ("each fabric switch has one local CXL memory and one
/// host").
///
/// # Examples
///
/// ```
/// use cxlsim::{CxlParams, SwitchId, Topology};
///
/// let topo = Topology::new(4, 8, 4, CxlParams::default());
/// assert_eq!(topo.device_switch(5), SwitchId(1));
/// assert_eq!(topo.hop_latency(SwitchId(0), SwitchId(0)).as_ns(), 0);
/// assert_eq!(topo.hop_latency(SwitchId(0), SwitchId(3)).as_ns(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    inter_switch_ns: u64,
    /// device index → owning switch
    device_home: Vec<SwitchId>,
    /// host index → local switch
    host_home: Vec<SwitchId>,
}

impl Topology {
    /// A fabric of `n_switches` switches carrying `n_devices` devices and
    /// `n_hosts` hosts, homed round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `n_switches` is zero.
    pub fn new(n_switches: u16, n_devices: u16, n_hosts: u16, params: CxlParams) -> Self {
        assert!(n_switches >= 1, "need at least one switch");
        let home = |n: u16| (0..n).map(|i| SwitchId(i % n_switches)).collect();
        Topology {
            inter_switch_ns: params.inter_switch_ns,
            device_home: home(n_devices),
            host_home: home(n_hosts),
        }
    }

    /// Switch owning device `dev`.
    pub fn device_switch(&self, dev: usize) -> SwitchId {
        self.device_home[dev]
    }

    /// Switch local to host `host`.
    pub fn host_switch(&self, host: usize) -> SwitchId {
        self.host_home[host]
    }

    /// Extra latency for traversing from switch `a` to switch `b`: one
    /// inter-switch hop unless they are the same switch.
    pub fn hop_latency(&self, a: SwitchId, b: SwitchId) -> SimDuration {
        SimDuration::from_ns(self.inter_switch_ns * u64::from(a != b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_switch_homes_everything_locally() {
        let t = Topology::new(1, 8, 2, CxlParams::default());
        for d in 0..8 {
            assert_eq!(t.device_switch(d), SwitchId(0));
        }
        assert_eq!(t.host_switch(1), SwitchId(0));
        assert_eq!(t.hop_latency(SwitchId(0), SwitchId(0)), SimDuration::ZERO);
    }

    #[test]
    fn homes_are_round_robin() {
        let t = Topology::new(4, 6, 5, CxlParams::default());
        for d in 0..6 {
            assert_eq!(t.device_switch(d), SwitchId(d as u16 % 4));
        }
        for h in 0..5 {
            assert_eq!(t.host_switch(h), SwitchId(h as u16 % 4));
        }
    }

    #[test]
    fn remote_hop_costs_inter_switch_latency() {
        let p = CxlParams::default();
        let t = Topology::new(2, 2, 2, p);
        assert_eq!(
            t.hop_latency(SwitchId(0), SwitchId(1)),
            SimDuration::from_ns(p.inter_switch_ns)
        );
        assert_eq!(t.hop_latency(SwitchId(1), SwitchId(1)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one switch")]
    fn zero_switches_are_rejected() {
        let _ = Topology::new(0, 1, 1, CxlParams::default());
    }
}
