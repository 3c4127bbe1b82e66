//! `DramDevice::access_span` against its definition: one `access` call
//! per 64 B line of the span, all arriving at the span's `now`.
//!
//! Spans inside one DRAM row of a one-channel device take the one-call
//! row-run path; every other span (crossing a row, wrapping the capacity,
//! or interleaved over channels) takes the per-line calls. Random span
//! sequences drive a device and a per-line twin side by side, and after
//! every span the two must agree on the completion time, the device
//! statistics, and the number of simulation events recorded.

use memsim::{DramConfig, DramDevice, DramOrg};
use proptest::prelude::*;
use simkit::SimTime;

/// The per-line definition of a span, with its event count.
fn per_line(dev: &mut DramDevice, now: SimTime, addr: u64, bytes: u64) -> SimTime {
    let first = addr / 64;
    let last = (addr + bytes.max(1) - 1) / 64;
    (first..=last).fold(now, |done, line| done.max(dev.access(now, line * 64)))
}

/// A device of `channels` channels over a small capacity, so spans wrap
/// it and revisit rows often.
fn device(channels: u32) -> DramDevice {
    let base = DramConfig::ddr4_cxl_expander();
    DramDevice::new(DramConfig {
        org: DramOrg {
            channels,
            capacity_bytes: 1 << 20,
            ..base.org
        },
        ..base
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn row_runs_equal_per_line_accesses(
        spans in collection::vec(any::<u64>(), 1..200),
        channels_pick in 0usize..3,
    ) {
        let channels = [1, 4, 12][channels_pick];
        let mut fast = device(channels);
        let mut slow = device(channels);
        let row = fast.config().org.row_bytes;
        let cap = fast.config().org.capacity_bytes;
        let mut clock = 0u64;
        for word in spans {
            // Arrivals wander back in time as well as forward.
            clock += word % 97;
            let now = SimTime::from_ns(clock.saturating_sub((word >> 8) % 3_000));
            // Embedding-row sized spans (up to 8 lines, odd offsets),
            // placed anywhere — near the end of a DRAM row or of the
            // capacity about one time in four, so they cross it.
            let bytes = 1 + (word >> 20) % 512;
            let addr = match (word >> 32) % 4 {
                0 => (word >> 36) % (cap / row) * row + row - (word >> 48) % 512,
                1 => cap * ((word >> 36) % 3) + cap - (word >> 48) % 512,
                _ => (word >> 36) % (4 * cap),
            };

            let before = simkit::stats::events_recorded();
            let done = fast.access_span(now, addr, bytes);
            let fast_events = simkit::stats::events_recorded() - before;
            let expected = per_line(&mut slow, now, addr, bytes);
            let slow_events = simkit::stats::events_recorded() - before - fast_events;

            prop_assert_eq!(done, expected, "span {:#x}+{} at {}", addr, bytes, now);
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(fast_events, slow_events);
        }
    }
}
