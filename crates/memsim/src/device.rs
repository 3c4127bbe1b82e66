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
    /// Lockstep width `w`, a divisor of the channel count: the channels
    /// of each group `[g·w, g·w + w)` hold identical state, so only
    /// each group's first channel, its representative, is simulated
    /// (see [`access_span`](Self::access_span)). It starts at the
    /// channel count and only narrows.
    width: usize,
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
    /// Adds `c`'s counts `times` times over.
    fn absorb(&mut self, c: &ChannelStats, times: u64) {
        self.hits += c.hits * times;
        self.empties += c.empties * times;
        self.conflicts += c.conflicts * times;
        self.reads += c.reads * times;
        self.bytes += c.bytes * times;
        self.refresh_stalls += c.refresh_stalls * times;
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
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless the organization is sound: at
    /// least one channel, rank and bank; `row_bytes` and
    /// `capacity_bytes` nonzero multiples of the 64 B line; and a
    /// positive refresh interval.
    pub fn new(cfg: DramConfig) -> Self {
        let org = cfg.org;
        for (field, n) in [
            ("channels", org.channels),
            ("ranks", org.ranks),
            ("banks", org.banks),
        ] {
            assert!(n >= 1, "DramOrg::{field} is {n}: it must be at least 1");
        }
        for (field, n) in [
            ("row_bytes", org.row_bytes),
            ("capacity_bytes", org.capacity_bytes),
        ] {
            assert!(
                n > 0 && n.is_multiple_of(64),
                "DramOrg::{field} is {n}: it must be a nonzero multiple of 64"
            );
        }
        assert!(
            cfg.timings.refi_ns > 0,
            "DramTimings::refi_ns is 0: it must be positive"
        );
        DramDevice {
            cfg,
            decoder: LineDecoder::new(org),
            durs: cfg.timings.durations(),
            channels: (0..org.channels).map(|_| Channel::new(org)).collect(),
            width: org.channels as usize,
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Schedules one 64 B read of physical `addr` arriving at `now`;
    /// returns when its data burst completes. One line reaches one
    /// channel, so this ends the lockstep (narrows it to width 1).
    pub fn access(&mut self, now: SimTime, addr: u64) -> SimTime {
        if self.width > 1 {
            self.narrow(1);
        }
        self.access_line(now, addr)
    }

    /// [`access`](Self::access) at width 1.
    fn access_line(&mut self, now: SimTime, addr: u64) -> SimTime {
        simkit::stats::record_events(1);
        let loc = self.decoder.decode(addr);
        self.channels[loc.channel as usize].access(now, &loc, &self.durs)
    }

    /// Schedules a read spanning `bytes` starting at `addr` (split into
    /// 64 B lines, all arriving at `now`); returns when the last line
    /// completes. The device ends exactly as after one
    /// [`access`](Self::access) per line, and records one simulation
    /// event per line.
    ///
    /// Under the cache-line interleave, line `L` goes to channel
    /// `L mod C`. Take a span that does not wrap the capacity and whose
    /// first line and line count are multiples of `w`, where `w`
    /// divides `C`. Each `w`-line block of it reaches the `w` channels
    /// of one group `[g·w, g·w + w)`, one line each, all in the same
    /// rank, bank and row, since they share `L div C`. So every channel
    /// of a group sees the same calls and keeps the same state as the
    /// group's first channel. The device keeps that width: each span
    /// narrows it to `gcd(width, first line, lines)`, and a span that
    /// wraps the capacity or a single-line [`access`](Self::access)
    /// narrows it to 1. At width `w > 1` a span is one
    /// [`Channel::access`] per block, on its representative channel.
    ///
    /// At width 1, a span inside one DRAM row of one channel, such as
    /// every row read on a one-channel CXL expander, is one
    /// [`Channel::access_run`] call. Any other span (one crossing a row
    /// boundary, wrapping the capacity, or interleaved over channels)
    /// takes the per-line calls.
    pub fn access_span(&mut self, now: SimTime, addr: u64, bytes: u64) -> SimTime {
        let first_line = addr / 64;
        let last_line = (addr + bytes.max(1) - 1) / 64;
        let lines = last_line - first_line + 1;
        let cap_lines = self.cfg.org.capacity_bytes / 64;
        let in_cap = first_line % cap_lines;
        let width = if in_cap + lines > cap_lines {
            1
        } else {
            gcd(gcd(self.width as u64, in_cap), lines) as usize
        };
        if width != self.width {
            self.narrow(width);
        }
        if width > 1 {
            simkit::stats::record_events(lines);
            let mut done = now;
            for block in (first_line..=last_line).step_by(width) {
                let loc = self.decoder.decode(block * 64);
                let ch = &mut self.channels[loc.channel as usize];
                done = done.max(ch.access(now, &loc, &self.durs));
            }
            return done;
        }
        if let Some(loc) = self.decoder.row_run(addr, lines) {
            simkit::stats::record_events(lines);
            let ch = &mut self.channels[loc.channel as usize];
            return now.max(ch.access_run(now, &loc, lines, &self.durs));
        }
        let mut done = now;
        for line in first_line..=last_line {
            done = done.max(self.access_line(now, line * 64));
        }
        done
    }

    /// Narrows the lockstep width to `to`, a proper divisor of the
    /// current width: each group's representative is copied into the
    /// channels that become representatives of its new, narrower groups.
    /// A representative that has served no read still holds its initial
    /// state, and so do its group's channels, so it is not copied.
    fn narrow(&mut self, to: usize) {
        let from = self.width;
        debug_assert!(
            to < from && from.is_multiple_of(to),
            "width {to} does not divide {from}"
        );
        for group in self.channels.chunks_mut(from) {
            let (rep, rest) = group.split_first_mut().expect("groups are nonempty");
            if rep.stats.reads > 0 {
                for ch in rest.iter_mut().skip(to - 1).step_by(to) {
                    ch.clone_from(rep);
                }
            }
        }
        self.width = to;
    }

    /// Aggregated statistics over all channels: each representative
    /// counts once for every channel of its lockstep group.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in self.channels.iter().step_by(self.width) {
            s.absorb(&ch.stats, self.width as u64);
        }
        s
    }

    /// Peak aggregate bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.cfg.peak_bandwidth_gbps()
    }
}

/// Greatest common divisor, with `gcd(a, 0) = a`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
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
    #[should_panic(expected = "DramOrg::banks is 0")]
    fn construction_names_a_missing_bank() {
        let mut cfg = DramConfig::ddr5_4800_local();
        cfg.org.banks = 0;
        DramDevice::new(cfg);
    }

    #[test]
    #[should_panic(expected = "DramOrg::row_bytes is 100")]
    fn construction_names_a_row_of_partial_lines() {
        let mut cfg = DramConfig::ddr5_4800_local();
        cfg.org.row_bytes = 100;
        DramDevice::new(cfg);
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
