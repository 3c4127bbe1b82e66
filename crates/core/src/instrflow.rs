//! MemOpcode checking (§IV-A2).
//!
//! When a memory request reaches the fabric switch, the MemOpcode checker
//! inspects the instruction's `memOpcode` field: standard traffic
//! bypasses the process core and goes straight to the VCS for routing;
//! PIFS-enhanced opcodes (`DataFetch`, `Configuration`) are diverted into
//! the process core, which repacks row fetches into standard reads
//! ([`cxlsim::M2sReq::repack_for_device`]) whose SPID points at the
//! switch so retrieved data lands in switch registers instead of the
//! host.

use cxlsim::M2sReq;

/// Where the MemOpcode checker routes an incoming instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrRoute {
    /// Standard CXL.mem traffic: bypass the PC, route via the VCS.
    BypassToVcs,
    /// PIFS-enhanced: handled by the process core.
    ProcessCore,
}

/// The MemOpcode checker ("Upon receiving a memory request from the
/// host, the memopcode checker examines the instruction's memory
/// operation field").
///
/// # Examples
///
/// ```
/// use cxlsim::M2sReq;
/// use pifs_core::{check_memopcode, InstrRoute};
///
/// let standard = M2sReq::mem_read(0x1000, 1);
/// assert_eq!(check_memopcode(&standard), InstrRoute::BypassToVcs);
/// let fetch = M2sReq::data_fetch(0x1000, 3, 4, 1);
/// assert_eq!(check_memopcode(&fetch), InstrRoute::ProcessCore);
/// ```
pub fn check_memopcode(req: &M2sReq) -> InstrRoute {
    if req.opcode.is_pifs_enhanced() {
        InstrRoute::ProcessCore
    } else {
        InstrRoute::BypassToVcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_traffic_bypasses_the_pc() {
        assert_eq!(
            check_memopcode(&M2sReq::mem_read(0, 9)),
            InstrRoute::BypassToVcs
        );
    }

    #[test]
    fn enhanced_traffic_routes_to_the_pc() {
        assert_eq!(
            check_memopcode(&M2sReq::data_fetch(0, 1, 1, 9)),
            InstrRoute::ProcessCore
        );
        assert_eq!(
            check_memopcode(&M2sReq::configuration(0, 1, 4, 9)),
            InstrRoute::ProcessCore
        );
    }
}
