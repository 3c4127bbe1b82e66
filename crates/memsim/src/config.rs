//! DRAM configuration: organization, timing parameters, and the presets
//! from the paper's Table II.

use serde::{Deserialize, Serialize};
use simkit::SimDuration;

/// DRAM read-timing parameters, stored in device clock cycles plus the
/// clock period in picoseconds (the form DRAM datasheets and Table II
/// use). The model only reads, so the write timings (tWR, tCWL) have no
/// field.
///
/// # Examples
///
/// ```
/// use memsim::DramTimings;
/// let t = DramTimings::ddr5_4800();
/// assert_eq!(t.cl, 28);
/// assert!(t.cycles(t.cl).as_ns() >= 11); // 28 cycles × 417 ps
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTimings {
    /// CAS latency (read command → first data), cycles.
    pub cl: u32,
    /// RAS-to-CAS delay (ACT → RD), cycles.
    pub rcd: u32,
    /// Row precharge time (PRE → ACT), cycles.
    pub rp: u32,
    /// Row active time (ACT → PRE minimum), cycles.
    pub ras: u32,
    /// Row cycle (ACT → ACT same bank), cycles.
    pub rc: u32,
    /// Read-to-precharge (RD → PRE), cycles.
    pub rtp: u32,
    /// Refresh cycle time (REF → next command), cycles.
    pub rfc: u32,
    /// Four-activate window, cycles.
    pub faw: u32,
    /// ACT-to-ACT different banks, same rank, cycles.
    pub rrd: u32,
    /// Burst length in transfers (DDR5 = 16, DDR4 = 8).
    pub burst_length: u32,
    /// Average refresh interval, nanoseconds.
    pub refi_ns: u64,
    /// Clock period, picoseconds.
    pub tck_ps: u64,
}

impl DramTimings {
    /// DDR5-4800 timings from Table II: 28-28-28-52, tRC 79, tWR 48,
    /// tRTP 12, tCWL 22, nRFC1 30. Table II quotes tCK as 625 ps, which
    /// contradicts its own 4800 MT/s line (DDR5-4800 runs a 2400 MHz
    /// clock, tCK ≈ 417 ps); we keep the datasheet-consistent 417 ps so
    /// the peak-bandwidth arithmetic the paper relies on (12 channels of
    /// DDR5 saturating ahead of CXL) holds.
    pub fn ddr5_4800() -> Self {
        DramTimings {
            cl: 28,
            rcd: 28,
            rp: 28,
            ras: 52,
            rc: 79,
            rtp: 12,
            rfc: 30,
            faw: 32,
            rrd: 8,
            burst_length: 16,
            refi_ns: 3900,
            tck_ps: 417,
        }
    }

    /// DDR4-3200 timings for the CXL-attached expanders. §III notes the
    /// "CXL-attached DDR4 memory has a low refresh rate over CPU-attached
    /// DDR5" — the longer tREFI reflects that. Its write timings are
    /// tWR 24 and tCWL 16.
    pub fn ddr4_3200() -> Self {
        DramTimings {
            cl: 22,
            rcd: 22,
            rp: 22,
            ras: 52,
            rc: 74,
            rtp: 12,
            rfc: 35,
            faw: 34,
            rrd: 8,
            burst_length: 8,
            refi_ns: 7800,
            tck_ps: 625,
        }
    }

    /// Converts `cycles` device cycles to a wall-clock duration (rounding
    /// up to whole nanoseconds, consistent with the paper's 1 ns tick).
    pub fn cycles(&self, cycles: u32) -> SimDuration {
        SimDuration::from_ps_ceil(cycles as u64 * self.tck_ps)
    }

    /// Duration one 64 B line occupies the data bus: 8 transfers on an
    /// 8-byte bus, i.e. 4 clock cycles at double data rate.
    pub fn burst_time(&self) -> SimDuration {
        self.cycles(4)
    }

    /// Precomputes every duration the channel/bank state machines use.
    pub fn durations(&self) -> TimingDurations {
        TimingDurations {
            cl: self.cycles(self.cl),
            rcd: self.cycles(self.rcd),
            rp: self.cycles(self.rp),
            ras: self.cycles(self.ras),
            rc: self.cycles(self.rc),
            rtp: self.cycles(self.rtp),
            rfc: self.cycles(self.rfc),
            faw: self.cycles(self.faw),
            rrd: self.cycles(self.rrd),
            burst: self.burst_time(),
            refi_ns: self.refi_ns,
        }
    }
}

/// [`DramTimings`] with every cycle count pre-converted to a
/// [`SimDuration`].
///
/// `cycles()` pays a picosecond→nanosecond ceiling division; the access
/// path needs up to ten such conversions per 64 B line, which made the
/// conversion itself a measurable slice of simulation time. The values
/// here are exactly `DramTimings::cycles(...)` of the corresponding
/// field (asserted by `durations_match_cycles` below), so state machines
/// consuming this struct are bit-identical to ones converting on the
/// fly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingDurations {
    /// CAS latency.
    pub cl: SimDuration,
    /// RAS-to-CAS delay.
    pub rcd: SimDuration,
    /// Row precharge time.
    pub rp: SimDuration,
    /// Row active time.
    pub ras: SimDuration,
    /// Row cycle.
    pub rc: SimDuration,
    /// Read-to-precharge.
    pub rtp: SimDuration,
    /// Refresh cycle time.
    pub rfc: SimDuration,
    /// Four-activate window.
    pub faw: SimDuration,
    /// ACT-to-ACT, different banks, same rank.
    pub rrd: SimDuration,
    /// Data-bus occupancy of one 64 B burst.
    pub burst: SimDuration,
    /// Average refresh interval, nanoseconds.
    pub refi_ns: u64,
}

/// Physical organization of one DRAM device (one set of channels behind a
/// single controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramOrg {
    /// Independent channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Bus width in bytes (8 for a standard DIMM channel).
    pub bus_bytes: u32,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
}

impl DramOrg {
    /// Table II local configuration: 4 channels × 2 ranks, 64 GB DIMMs.
    pub fn table2_local() -> Self {
        DramOrg {
            channels: 4,
            ranks: 2,
            banks: 16,
            row_bytes: 8192,
            bus_bytes: 8,
            capacity_bytes: 4 * 64 * (1 << 30),
        }
    }

    /// A single-channel CXL expander backing one Type 3 device (the paper
    /// enables CXL memory through four channels of DDR4 across devices;
    /// each simulated device owns one).
    pub fn cxl_expander() -> Self {
        DramOrg {
            channels: 1,
            ranks: 2,
            banks: 16,
            row_bytes: 8192,
            bus_bytes: 8,
            capacity_bytes: 64 * (1 << 30),
        }
    }
}

/// Complete configuration for a [`crate::DramDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Timing parameters.
    pub timings: DramTimings,
    /// Organization.
    pub org: DramOrg,
}

impl DramConfig {
    /// The CPU-attached DDR5 pool from Table II.
    pub fn ddr5_4800_local() -> Self {
        DramConfig {
            timings: DramTimings::ddr5_4800(),
            org: DramOrg::table2_local(),
        }
    }

    /// One DDR4 CXL expander device.
    pub fn ddr4_cxl_expander() -> Self {
        DramConfig {
            timings: DramTimings::ddr4_3200(),
            org: DramOrg::cxl_expander(),
        }
    }

    /// Peak data-bus bandwidth of the whole device in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        // transfers/s = 2 / tCK ; bytes/s = transfers × bus width × channels
        let transfers_per_ns = 2000.0 / self.timings.tck_ps as f64;
        transfers_per_ns * self.org.bus_bytes as f64 * self.org.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_cycle_conversion_rounds_up() {
        let t = DramTimings::ddr5_4800();
        // 28 cycles × 417 ps = 11.676 ns → 12 ns.
        assert_eq!(t.cycles(t.cl).as_ns(), 12);
    }

    #[test]
    fn ddr5_peak_bandwidth_matches_datasheet() {
        let c = DramConfig::ddr5_4800_local();
        // 4800 MT/s × 8 B × 4 channels = 153.6 GB/s.
        let bw = c.peak_bandwidth_gbps();
        assert!((bw - 153.6).abs() < 0.5, "got {bw}");
    }

    #[test]
    fn ddr4_peak_bandwidth_matches_datasheet() {
        let c = DramConfig::ddr4_cxl_expander();
        // 3200 MT/s × 8 B × 1 channel = 25.6 GB/s.
        let bw = c.peak_bandwidth_gbps();
        assert!((bw - 25.6).abs() < 0.5, "got {bw}");
    }

    #[test]
    fn durations_match_cycles() {
        for t in [DramTimings::ddr5_4800(), DramTimings::ddr4_3200()] {
            let d = t.durations();
            assert_eq!(d.cl, t.cycles(t.cl));
            assert_eq!(d.rcd, t.cycles(t.rcd));
            assert_eq!(d.rp, t.cycles(t.rp));
            assert_eq!(d.ras, t.cycles(t.ras));
            assert_eq!(d.rc, t.cycles(t.rc));
            assert_eq!(d.rtp, t.cycles(t.rtp));
            assert_eq!(d.rfc, t.cycles(t.rfc));
            assert_eq!(d.faw, t.cycles(t.faw));
            assert_eq!(d.rrd, t.cycles(t.rrd));
            assert_eq!(d.burst, t.burst_time());
            assert_eq!(d.refi_ns, t.refi_ns);
        }
    }

    #[test]
    fn burst_time_is_four_cycles() {
        let t = DramTimings::ddr5_4800();
        assert_eq!(t.burst_time(), t.cycles(4));
        let t4 = DramTimings::ddr4_3200();
        assert_eq!(t4.burst_time(), t4.cycles(4));
    }

    #[test]
    fn ddr4_is_slower_than_ddr5_per_burst() {
        assert!(DramTimings::ddr4_3200().burst_time() > DramTimings::ddr5_4800().burst_time());
    }
}
