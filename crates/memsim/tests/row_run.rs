//! `DramDevice::access_span` against its definition: one `access` call
//! per 64 B line of the span, all arriving at the span's `now`.
//!
//! Spans inside one DRAM row of a one-channel device take the one-call
//! row-run path. Spans whose first line and line count are multiples of
//! the device's lockstep width take one channel access per width-wide
//! block; every other span (crossing a row, wrapping the capacity, or
//! interleaved over channels out of step) takes the per-line calls.
//! Random span sequences drive a device and a per-line twin side by
//! side, and after every span the two must agree on the completion
//! time, the device statistics, and the number of simulation events
//! recorded.

use memsim::{DramConfig, DramDevice, DramOrg};
use proptest::prelude::*;
use simkit::SimTime;

/// The per-line definition of a span, with its event count.
fn per_line(dev: &mut DramDevice, now: SimTime, addr: u64, bytes: u64) -> SimTime {
    let first = addr / 64;
    let last = (addr + bytes.max(1) - 1) / 64;
    (first..=last).fold(now, |done, line| done.max(dev.access(now, line * 64)))
}

/// Drives `fast` with one span and `slow` with its per-line definition,
/// and checks that they agree on the completion, the statistics and the
/// events recorded.
fn check_span(fast: &mut DramDevice, slow: &mut DramDevice, now: SimTime, addr: u64, bytes: u64) {
    let before = simkit::stats::events_recorded();
    let done = fast.access_span(now, addr, bytes);
    let fast_events = simkit::stats::events_recorded() - before;
    let expected = per_line(slow, now, addr, bytes);
    let slow_events = simkit::stats::events_recorded() - before - fast_events;

    assert_eq!(done, expected, "span {addr:#x}+{bytes} at {now}");
    assert_eq!(
        fast.stats(),
        slow.stats(),
        "span {addr:#x}+{bytes} at {now}"
    );
    assert_eq!(fast_events, slow_events);
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

            check_span(&mut fast, &mut slow, now, addr, bytes);
        }
    }

    #[test]
    fn lockstep_spans_equal_per_line_accesses(
        spans in collection::vec(any::<u64>(), 1..200),
        channels_pick in 0usize..3,
        wide_prefix in 0usize..16,
        odd_capacity in any::<bool>(),
    ) {
        // Row spans as the host issues them: 256 B and 512 B spans at
        // 256 B-aligned addresses, after a prefix of 768 B spans at
        // 768 B-aligned addresses (twelve lines, which keep a 12-channel
        // device at full width). About one span in twenty breaks the
        // lockstep part-way through: a single-line access, a span off
        // the 256 B grid, or a span from the end of the capacity, which
        // wraps it when it is longer than what is left. A capacity of
        // 2^14 + 2 lines, a multiple of neither 4 nor 12, makes a wrap
        // move every lockstep group off its channels.
        let channels = [1, 4, 12][channels_pick];
        let mut fast = device(channels);
        let mut slow = device(channels);
        if odd_capacity {
            for dev in [&mut fast, &mut slow] {
                let mut cfg = *dev.config();
                cfg.org.capacity_bytes += 128;
                *dev = DramDevice::new(cfg);
            }
        }
        let cap = fast.config().org.capacity_bytes;
        // Spans past the capacity keep their alignment only when the
        // capacity is a multiple of 256 B.
        let space = if odd_capacity { cap } else { 4 * cap };
        let mut clock = 0u64;
        for (i, word) in spans.into_iter().enumerate() {
            clock += word % 97;
            let now = SimTime::from_ns(clock.saturating_sub((word >> 8) % 3_000));
            let place = (word >> 20) % space;
            let wide = i < wide_prefix;
            let bytes = if wide { 768 } else { 256 << ((word >> 16) % 2) };
            match (word >> 58) % 64 {
                0 => {
                    let addr = place & !63;
                    let before = simkit::stats::events_recorded();
                    let done = fast.access(now, addr);
                    prop_assert_eq!(done, slow.access(now, addr), "line {:#x} at {}", addr, now);
                    prop_assert_eq!(fast.stats(), slow.stats());
                    prop_assert_eq!(simkit::stats::events_recorded() - before, 2);
                }
                1 => {
                    let addr = (place & !255) + 64 * (1 + (word >> 24) % 3);
                    check_span(&mut fast, &mut slow, now, addr, bytes);
                }
                2 => {
                    // One of the last two 256 B-aligned blocks.
                    let last = cap - cap % 256 - 256 * ((word >> 24) % 2);
                    let addr = cap * ((word >> 20) % 3) + last;
                    check_span(&mut fast, &mut slow, now, addr, bytes);
                }
                _ if wide => check_span(&mut fast, &mut slow, now, place / 768 * 768, bytes),
                _ => check_span(&mut fast, &mut slow, now, place & !255, bytes),
            }
        }
    }
}
