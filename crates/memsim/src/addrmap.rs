//! Physical-address decomposition into DRAM coordinates.

use crate::config::DramOrg;

/// Where one 64-byte access lands inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

/// Decodes `addr` into DRAM coordinates for a device organized as `org`,
/// with one hardware divide per level of the hierarchy — the fallback
/// for organizations [`LineDecoder`] cannot shift through, and the
/// reference its fast path is tested against.
///
/// The mapping is cache-line interleave: consecutive 64 B lines go
/// round-robin over channels, then fill a row, then move across banks and
/// ranks — the policy real memory controllers default to and the one the
/// paper's bandwidth-expansion argument assumes. Addresses beyond
/// capacity wrap (the simulation treats the device as its own physical
/// address space).
fn decode_divide(addr: u64, org: &DramOrg) -> Location {
    // line = ((((row * ranks + rank) * banks + bank) * lines_per_row
    //        + line_in_row) * channels + channel — channel varies fastest.
    let line = (addr % org.capacity_bytes) / 64;
    let ch = org.channels as u64;
    let lines_per_row = org.row_bytes / 64;
    let channel = line % ch;
    let rest = line / ch / lines_per_row;
    let bank = rest % org.banks as u64;
    let rest = rest / org.banks as u64;
    let rank = rest % org.ranks as u64;
    let row = rest / org.ranks as u64;
    Location {
        channel: channel as u32,
        rank: rank as u32,
        bank: bank as u32,
        row,
    }
}

/// Precomputed decode state for one DRAM organization.
///
/// The reference decode re-derives every divisor from the organization
/// on each call and pays a hardware divide per level of the hierarchy. The device front-end instead builds a `LineDecoder` once.
/// When the capacity, lines per row, banks and ranks are powers of two
/// (true of every stock organization) the decode chain collapses to
/// shifts and masks; the channel split is a shift too for a power-of-two
/// channel count, and an exact multiply otherwise (the host's 12
/// channels). Any other organization falls back to the reference path.
/// All paths produce bit-identical [`Location`]s —
/// `decode_is_cached_exactly` in the tests below sweeps organizations
/// against the reference.
#[derive(Debug, Clone, Copy)]
pub struct LineDecoder {
    org: DramOrg,
    /// Shift/mask constants, present only when the fast path is exact.
    fast: Option<DecodeShifts>,
}

#[derive(Debug, Clone, Copy)]
struct DecodeShifts {
    /// `log2(capacity_bytes)` wrap mask.
    cap_mask: u64,
    /// Line → (channel, rest) split.
    channels: ChannelSplit,
    /// `log2(lines_per_row)`.
    lpr_shift: u32,
    /// `log2(banks)` / its mask.
    ba_shift: u32,
    ba_mask: u64,
    /// `log2(ranks)` / its mask.
    ra_shift: u32,
    ra_mask: u64,
}

/// `n % channels` and `n / channels` without a hardware divide.
#[derive(Debug, Clone, Copy)]
enum ChannelSplit {
    /// Power-of-two channel count: `log2(channels)` and its mask.
    Shift { shift: u32, mask: u64 },
    /// Any other count `d`, by Lemire–Kaser–Kurz's multiply with
    /// `m = ⌈2⁶⁴ / d⌉`: `⌊m·n / 2⁶⁴⌋ = ⌊n / d⌋` exactly for every
    /// 32-bit `n` and 32-bit `d` ("Faster remainder by direct
    /// computation", 2019). The decoder only builds it when every line
    /// index fits in 32 bits.
    Multiply { m: u64, d: u64 },
}

impl ChannelSplit {
    fn new(channels: u64) -> Self {
        if channels.is_power_of_two() {
            ChannelSplit::Shift {
                shift: channels.trailing_zeros(),
                mask: channels - 1,
            }
        } else {
            ChannelSplit::Multiply {
                m: u64::MAX / channels + 1,
                d: channels,
            }
        }
    }

    /// `(n % channels, n / channels)`.
    #[inline]
    fn split(self, n: u64) -> (u64, u64) {
        match self {
            ChannelSplit::Shift { shift, mask } => (n & mask, n >> shift),
            ChannelSplit::Multiply { m, d } => {
                let q = ((u128::from(m) * u128::from(n)) >> 64) as u64;
                (n - q * d, q)
            }
        }
    }
}

impl LineDecoder {
    /// Builds the decoder for `org`, a sound organization as
    /// [`DramDevice::new`](crate::DramDevice::new) checks it.
    pub fn new(org: DramOrg) -> Self {
        let cap = org.capacity_bytes;
        let lpr = org.row_bytes / 64;
        let ch = org.channels as u64;
        let pow2 = |x: u64| x.is_power_of_two();
        // The multiply split is exact for 32-bit numerators, and every
        // number it splits is at most a line index, below `cap / 64`.
        let split_exact = pow2(ch) || cap / 64 <= 1 << 32;
        let fast = (pow2(cap)
            && split_exact
            && pow2(lpr)
            && pow2(org.banks as u64)
            && pow2(org.ranks as u64))
        .then(|| DecodeShifts {
            cap_mask: cap - 1,
            channels: ChannelSplit::new(ch),
            lpr_shift: lpr.trailing_zeros(),
            ba_shift: (org.banks as u64).trailing_zeros(),
            ba_mask: org.banks as u64 - 1,
            ra_shift: (org.ranks as u64).trailing_zeros(),
            ra_mask: org.ranks as u64 - 1,
        });
        LineDecoder { org, fast }
    }

    /// Decodes `addr` into DRAM coordinates: cache-line interleave over
    /// channels, then row, bank and rank (the layout the module's
    /// divide-based reference decode spells out).
    #[inline]
    pub fn decode(&self, addr: u64) -> Location {
        let Some(s) = &self.fast else {
            return decode_divide(addr, &self.org);
        };
        let line = (addr & s.cap_mask) >> 6;
        let (channel, rest) = s.channels.split(line);
        let rest = rest >> s.lpr_shift;
        Location {
            channel: channel as u32,
            rank: ((rest >> s.ba_shift) & s.ra_mask) as u32,
            bank: (rest & s.ba_mask) as u32,
            row: (rest >> s.ba_shift) >> s.ra_shift,
        }
    }

    /// The location shared by the `lines` consecutive 64 B lines starting
    /// at `addr`'s line, when they all lie in one DRAM row of one channel
    /// without wrapping the capacity; `None` when they do not, or when
    /// this organization's decode is not the shift path. One line is
    /// always its own run.
    #[inline]
    pub fn row_run(&self, addr: u64, lines: u64) -> Option<Location> {
        if lines > 1 {
            let s = self.fast.as_ref()?;
            // Consecutive lines interleave over channels, so only a
            // one-channel device keeps a span in one channel.
            if !matches!(s.channels, ChannelSplit::Shift { shift: 0, .. }) {
                return None;
            }
            let line = (addr & s.cap_mask) >> 6;
            let last = line.checked_add(lines - 1)?;
            if last > s.cap_mask >> 6 || line >> s.lpr_shift != last >> s.lpr_shift {
                return None;
            }
        }
        Some(self.decode(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> DramOrg {
        DramOrg {
            channels: 4,
            ranks: 2,
            banks: 16,
            row_bytes: 8192,
            bus_bytes: 8,
            capacity_bytes: 1 << 30,
        }
    }

    #[test]
    fn cacheline_interleave_rotates_channels() {
        let o = org();
        for i in 0..16u64 {
            let loc = decode_divide(i * 64, &o);
            assert_eq!(loc.channel, (i % 4) as u32, "line {i}");
        }
    }

    #[test]
    fn decode_is_within_bounds() {
        let o = org();
        for i in 0..10_000u64 {
            let loc = decode_divide(i * 64 + 3, &o);
            assert!(loc.channel < o.channels);
            assert!(loc.rank < o.ranks);
            assert!(loc.bank < o.banks);
        }
    }

    #[test]
    fn decode_is_cached_exactly() {
        // The precomputed decoder must agree with the reference decode
        // bit-for-bit, for pow2 and non-pow2 layouts.
        let non_pow2 = DramOrg {
            channels: 3,
            ..org()
        };
        // The host's local DRAM: 12 channels of the 256 GiB Table II
        // organization, whose 2^32 lines sit exactly at the multiply
        // split's 32-bit limit.
        let host = DramOrg {
            channels: 12,
            ..DramOrg::table2_local()
        };
        let one_channel = DramOrg {
            channels: 1,
            ..org()
        };
        for o in [org(), non_pow2, host, one_channel] {
            let d = LineDecoder::new(o);
            assert!(
                d.fast.is_some(),
                "{} channels take the fast path",
                o.channels
            );
            let mut addr = 0u64;
            for i in 0..50_000u64 {
                // Stride through lines, odd offsets, and wraps.
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i);
                assert_eq!(d.decode(addr), decode_divide(addr, &o), "addr {addr:#x}");
            }
            // The top of the address space: the largest line index and
            // the wrap just past capacity.
            for addr in [
                o.capacity_bytes - 1,
                o.capacity_bytes - 64,
                o.capacity_bytes,
            ] {
                assert_eq!(d.decode(addr), decode_divide(addr, &o), "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn row_runs_are_exactly_the_single_row_spans() {
        // Every line of a reported run decodes to the run's location,
        // and a span of a one-channel device is a run exactly when it
        // stays inside one row without wrapping the capacity.
        let tiny = DramOrg {
            channels: 1,
            capacity_bytes: 1 << 14,
            ..org()
        };
        let one = DramOrg {
            channels: 1,
            ..org()
        };
        // Smaller than one row: a span can wrap without leaving the row.
        let sub_row = DramOrg {
            capacity_bytes: 1 << 12,
            ..tiny
        };
        for o in [org(), one, tiny, sub_row] {
            let d = LineDecoder::new(o);
            let lpr = o.row_bytes / 64;
            let cap_lines = o.capacity_bytes / 64;
            let mut x = 1u64;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = x >> 20;
                let lines = 1 + i % 9;
                let run = d.row_run(addr, lines);
                if let Some(loc) = run {
                    for k in 0..lines {
                        assert_eq!(d.decode((addr / 64 + k) * 64), loc, "addr {addr:#x} +{k}");
                    }
                }
                let line = addr % o.capacity_bytes / 64;
                let in_row = line % lpr + lines <= lpr && line + lines <= cap_lines;
                let expected = lines == 1 || (o.channels == 1 && in_row);
                assert_eq!(run.is_some(), expected, "addr {addr:#x} lines {lines}");
            }
        }
    }

    #[test]
    fn multiply_split_divides_exactly_on_32_bit_numerators() {
        let mut n = 0u64;
        for d in [3u64, 5, 6, 7, 12, 24, 1_000_003, u32::MAX as u64] {
            let split = ChannelSplit::new(d);
            let edges = [0, 1, d - 1, d, d + 1, u32::MAX as u64 - 1, u32::MAX as u64];
            let random = (0..20_000u64).map(|i| {
                n = n.wrapping_mul(6364136223846793005).wrapping_add(i) >> 32;
                n
            });
            for x in edges.into_iter().chain(random) {
                assert_eq!(split.split(x), (x % d, x / d), "{x} / {d}");
            }
        }
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let o = org();
        assert_eq!(
            decode_divide(64, &o),
            decode_divide(o.capacity_bytes + 64, &o)
        );
    }

    #[test]
    fn same_line_same_location() {
        let o = org();
        assert_eq!(decode_divide(128, &o), decode_divide(129, &o));
        assert_eq!(decode_divide(128, &o), decode_divide(191, &o));
    }
}
