//! The CXL fabric switch: VCS transit timing and the CNV bit.
//!
//! In CXL 2.0+ the fabric switch is compulsory, non-bypass hardware in
//! any multi-node interconnect (§II-B2): every message pays a fixed
//! routing/arbitration delay through the Virtual CXL Switch (VCS). Link
//! serialization is modelled where it happens — host↔switch links belong
//! to the host, switch↔device links to [`crate::Type3Device`] — so the
//! switch itself is only that delay plus the CNV bit (§IV-C2).

use simkit::{SimDuration, SimTime};

use crate::link::CxlParams;

/// A fabric switch.
///
/// # Examples
///
/// ```
/// use cxlsim::{CxlParams, FabricSwitch};
/// use simkit::SimTime;
///
/// let sw = FabricSwitch::new(CxlParams::default());
/// let routed = sw.transit(SimTime::from_ns(100));
/// assert_eq!(routed.as_ns(), 100 + CxlParams::default().switch_transit_ns);
/// assert!(sw.cnv());
/// ```
#[derive(Debug, Clone)]
pub struct FabricSwitch {
    transit: SimDuration,
    /// Whether this switch carries a PIFS process core (CNV bit, §IV-C2).
    has_process_core: bool,
}

impl FabricSwitch {
    /// Creates a switch with `params`' transit delay and a process core.
    pub fn new(params: CxlParams) -> Self {
        FabricSwitch {
            transit: SimDuration::from_ns(params.switch_transit_ns),
            has_process_core: true,
        }
    }

    /// Adds VCS routing/arbitration transit to a message at `t`.
    #[inline]
    pub fn transit(&self, t: SimTime) -> SimTime {
        simkit::stats::record_events(1);
        t + self.transit
    }

    /// Marks whether this switch carries a process core; read as the CNV
    /// field during multi-switch configuration (§IV-C2).
    pub fn set_process_core(&mut self, present: bool) {
        self.has_process_core = present;
    }

    /// CNV: `true` when the switch can run in-switch accumulation.
    #[inline]
    pub fn cnv(&self) -> bool {
        self.has_process_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transit_adds_fixed_delay() {
        let p = CxlParams::default();
        let sw = FabricSwitch::new(p);
        let t = sw.transit(SimTime::from_ns(100));
        assert_eq!(t.as_ns(), 100 + p.switch_transit_ns);
    }

    #[test]
    fn cnv_defaults_on_and_toggles() {
        let mut sw = FabricSwitch::new(CxlParams::default());
        assert!(sw.cnv());
        sw.set_process_core(false);
        assert!(!sw.cnv());
    }
}
