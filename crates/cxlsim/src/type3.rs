//! Type 3 CXL memory expanders: DDR4 DRAM behind a downstream port.

use memsim::{DramConfig, DramDevice, MemOp};
use simkit::SimTime;

use crate::link::{CxlParams, FlexBusLink};

/// One Type 3 (memory-only) CXL device: a [`memsim::DramDevice`] with
/// DDR4 timings reachable through its own downstream-port FlexBus links.
///
/// The request and response directions are independent media (full
/// duplex), each carrying one port-latency hop, so a device round trip
/// costs `2 × port_latency` plus serialization plus the DRAM access —
/// about half of the Table II CXL penalty, with the other half paid on
/// the host↔switch side.
///
/// # Examples
///
/// ```
/// use cxlsim::{CxlParams, Type3Device};
/// use simkit::SimTime;
///
/// let mut dev = Type3Device::new(CxlParams::default());
/// let done = dev.read(SimTime::ZERO, 0x40, 64);
/// assert!(done.as_ns() >= 50);
/// assert_eq!(dev.access_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Type3Device {
    dram: DramDevice,
    req_link: FlexBusLink,
    rsp_link: FlexBusLink,
    accesses: u64,
}

impl Type3Device {
    /// Creates a device with the standard DDR4 expander organization.
    pub fn new(params: CxlParams) -> Self {
        Type3Device {
            dram: DramDevice::new(DramConfig::ddr4_cxl_expander()),
            req_link: FlexBusLink::new(&params),
            rsp_link: FlexBusLink::new(&params),
            accesses: 0,
        }
    }

    /// Reads `bytes` at `addr`; the request flit leaves the switch at
    /// `now`, and the returned instant is when the last response byte
    /// arrives back at the switch.
    pub fn read(&mut self, now: SimTime, addr: u64, bytes: u64) -> SimTime {
        self.accesses += 1;
        let at_device = self.req_link.transfer(now, crate::M2sReq::WIRE_BYTES);
        let data_ready = self.dram.access_span(at_device, addr, bytes, MemOp::Read);
        self.rsp_link
            .transfer(data_ready, bytes + crate::M2sReq::WIRE_BYTES)
    }

    /// Total accesses served (Fig 13(b)'s per-device access frequency).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_includes_link_and_dram_latency() {
        let p = CxlParams::default();
        let mut dev = Type3Device::new(p);
        let done = dev.read(SimTime::ZERO, 0, 64);
        // At minimum: two port hops + an ACT+CAS+burst DRAM access.
        assert!(done.as_ns() >= 2 * p.port_latency_ns + 20, "done={done}");
    }

    #[test]
    fn reads_to_one_device_contend_on_its_links_and_banks() {
        let mut dev = Type3Device::new(CxlParams::default());
        let a = dev.read(SimTime::ZERO, 0, 4096);
        let b = dev.read(SimTime::ZERO, 1 << 20, 4096);
        assert!(b > a);
    }

    #[test]
    fn big_reads_serialize_on_the_response_link() {
        let mut dev = Type3Device::new(CxlParams::default());
        // 64 KB at 64 GB/s = 1 µs of serialization; dwarfs DRAM latency.
        let done = dev.read(SimTime::ZERO, 0, 64 * 1024);
        assert!(done.as_ns() >= 1000, "done={done}");
    }
}
