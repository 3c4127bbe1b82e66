//! A whole DRAM device: address mapping plus a set of channels.

use simkit::SimTime;

use crate::addrmap::LineDecoder;
use crate::channel::{Channel, ChannelStats};
use crate::config::DramConfig;
use crate::config::TimingDurations;

/// A multi-channel DRAM device (one local pool or one CXL expander).
///
/// # Examples
///
/// ```
/// use memsim::{DramConfig, DramDevice};
/// use simkit::SimTime;
///
/// let mut dev = DramDevice::new(DramConfig::ddr4_cxl_expander());
/// let t1 = dev.access(SimTime::ZERO, 0);
/// let t2 = dev.access(t1, 64);
/// assert!(t2 > t1);
/// assert_eq!(dev.stats().reads, 2);
/// ```
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    /// Address-decode constants cached at construction so the per-access
    /// front-end never re-derives them from the organization.
    decoder: LineDecoder,
    /// Timing durations pre-converted from cycles at construction.
    durs: TimingDurations,
    channels: Vec<Channel>,
}

/// Aggregated statistics across all channels of a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Activates into idle banks.
    pub empties: u64,
    /// Row-buffer conflicts.
    pub conflicts: u64,
    /// Read accesses.
    pub reads: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Refresh-induced stalls.
    pub refresh_stalls: u64,
}

impl DramStats {
    fn absorb(&mut self, c: &ChannelStats) {
        self.hits += c.hits;
        self.empties += c.empties;
        self.conflicts += c.conflicts;
        self.reads += c.reads;
        self.bytes += c.bytes;
        self.refresh_stalls += c.refresh_stalls;
    }

    /// Row-buffer hit ratio over all accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.empties + self.conflicts;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl DramDevice {
    /// Creates an idle device from `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.org.channels)
            .map(|_| Channel::new(cfg.org))
            .collect();
        DramDevice {
            cfg,
            decoder: LineDecoder::new(cfg.org),
            durs: cfg.timings.durations(),
            channels,
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Schedules one 64 B read of physical `addr` arriving at `now`;
    /// returns when its data burst completes.
    pub fn access(&mut self, now: SimTime, addr: u64) -> SimTime {
        simkit::stats::record_events(1);
        let loc = self.decoder.decode(addr);
        self.channels[loc.channel as usize].access(now, &loc, &self.durs)
    }

    /// Schedules a read spanning `bytes` starting at `addr` (split into
    /// 64 B lines, all arriving at `now`); returns when the last line
    /// completes.
    ///
    /// A span inside one DRAM row of one channel — every row read on a
    /// one-channel device, such as a CXL expander — is one
    /// [`Channel::access_run`] call, which leaves the device exactly as
    /// the per-line [`access`](Self::access) calls would. Any other span
    /// (one crossing a row boundary, wrapping the capacity, or
    /// interleaved over channels) takes the per-line calls.
    pub fn access_span(&mut self, now: SimTime, addr: u64, bytes: u64) -> SimTime {
        let first_line = addr / 64;
        let last_line = (addr + bytes.max(1) - 1) / 64;
        let lines = last_line - first_line + 1;
        if let Some(loc) = self.decoder.row_run(addr, lines) {
            simkit::stats::record_events(lines);
            let ch = &mut self.channels[loc.channel as usize];
            return now.max(ch.access_run(now, &loc, lines, &self.durs));
        }
        let mut done = now;
        for line in first_line..=last_line {
            done = done.max(self.access(now, line * 64));
        }
        done
    }

    /// Aggregated statistics over all channels.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s.absorb(&ch.stats);
        }
        s
    }

    /// Peak aggregate bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.cfg.peak_bandwidth_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_run_in_parallel() {
        let cfg = DramConfig::ddr5_4800_local();
        let mut dev = DramDevice::new(cfg);
        // Cache-line interleave puts consecutive lines on different
        // channels, so 4 lines should finish much sooner than 4× one line.
        let single = dev.access(SimTime::ZERO, 0);
        let mut dev2 = DramDevice::new(cfg);
        let mut done = SimTime::ZERO;
        for i in 0..4u64 {
            done = done.max(dev2.access(SimTime::ZERO, i * 64));
        }
        let serial_estimate = SimTime::from_ns(single.as_ns() * 3);
        assert!(
            done < serial_estimate,
            "done={done} serial≈{serial_estimate}"
        );
    }

    #[test]
    fn access_span_touches_every_line() {
        let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
        dev.access_span(SimTime::ZERO, 0, 256);
        assert_eq!(dev.stats().reads, 4);
        // Sub-line spans still cost one full line.
        let mut dev2 = DramDevice::new(DramConfig::ddr5_4800_local());
        dev2.access_span(SimTime::ZERO, 10, 16);
        assert_eq!(dev2.stats().reads, 1);
    }

    #[test]
    fn span_crossing_line_boundary_costs_two() {
        let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
        dev.access_span(SimTime::ZERO, 60, 16);
        assert_eq!(dev.stats().reads, 2);
    }

    #[test]
    fn sustained_stream_approaches_peak_bandwidth() {
        let cfg = DramConfig::ddr5_4800_local();
        let mut dev = DramDevice::new(cfg);
        let lines = 20_000u64;
        let mut done = SimTime::ZERO;
        for i in 0..lines {
            done = done.max(dev.access(SimTime::ZERO, i * 64));
        }
        let gbps = (lines * 64) as f64 / done.as_ns() as f64;
        let peak = dev.peak_bandwidth_gbps();
        assert!(
            gbps > peak * 0.5,
            "sequential stream should exceed 50% of peak: {gbps:.1} vs {peak:.1}"
        );
        assert!(
            gbps <= peak * 1.05,
            "cannot beat the bus: {gbps:.1} vs {peak:.1}"
        );
    }

    #[test]
    fn random_access_is_slower_than_sequential() {
        let cfg = DramConfig::ddr5_4800_local();
        let lines = 5_000u64;
        let mut seq = DramDevice::new(cfg);
        let mut seq_done = SimTime::ZERO;
        for i in 0..lines {
            seq_done = seq_done.max(seq.access(SimTime::ZERO, i * 64));
        }
        let mut rnd = DramDevice::new(cfg);
        let mut rnd_done = SimTime::ZERO;
        let mut x = 0x12345u64;
        for _ in 0..lines {
            // Simple LCG over a wide range to defeat row locality.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rnd_done = rnd_done.max(rnd.access(SimTime::ZERO, (x % (1 << 32)) & !63));
        }
        assert!(
            rnd_done > seq_done,
            "random={rnd_done} sequential={seq_done}"
        );
        assert!(rnd.stats().hit_ratio() < seq.stats().hit_ratio());
    }

    #[test]
    fn stats_aggregate_across_channels() {
        let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
        for i in 0..16u64 {
            dev.access(SimTime::ZERO, i * 64);
        }
        let s = dev.stats();
        assert_eq!(s.reads, 16);
        assert_eq!(s.bytes, 16 * 64);
        assert_eq!(s.hits + s.empties + s.conflicts, 16);
    }
}
