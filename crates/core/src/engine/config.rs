//! System configuration: the scheme matrix of the paper's evaluation.
//!
//! One configuration type covers every scheme:
//!
//! | Scheme | compute | placement | buffer | OoO | page mgmt |
//! |---|---|---|---|---|---|
//! | Pond | Host | all-CXL | — | — | — |
//! | Pond+PM | Host | managed | — | — | yes |
//! | BEACON-S | Switch | all-CXL | — | in-order | — |
//! | RecNMP | Dimm | local+spill | DIMM cache | — | — |
//! | PIFS-Rec | Switch | managed | HTR | OoO | yes |

#![deny(missing_docs)]

use cxlsim::CxlParams;
use dlrm::{ModelConfig, ThreadingMode};
use pagemgmt::InitialPlacement;

use crate::buffer::BufferPolicy;

pub use super::serving::ServingConfig;

/// Where SLS accumulation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeSite {
    /// On the host CPU (Pond): every row crosses the fabric to the host.
    Host,
    /// In the fabric switch process core (PIFS-Rec, BEACON).
    Switch,
    /// In the DIMM (RecNMP) for local rows; CXL rows fall back to host.
    Dimm,
}

/// Which page-management policy runs at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmStyle {
    /// This paper's §IV-B design: global hotness, private-hot regions,
    /// cold-age demotion, embedding spreading.
    PifsGlobal,
    /// A TPP-like baseline: promote on re-reference, demote LRU-ish under
    /// pressure, no global view and no spreading (Fig 13(d)'s "TPP" bar).
    Tpp,
}

/// Dynamic page-management knobs (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmConfig {
    /// Policy flavour.
    pub style: PmStyle,
    /// Fraction of actively-used pages eligible to move per rebalance
    /// round (Fig 13(a); paper default 35 %).
    pub migrate_threshold: f64,
    /// Cold-age demotion threshold for the private hot region
    /// (Fig 13(d); paper default 20 %, optimum 16 %).
    pub cold_age_threshold: f64,
    /// Migration blocking discipline (Fig 13(a) red vs green).
    pub granularity: pagemgmt::MigrationGranularity,
}

impl Default for PmConfig {
    fn default() -> Self {
        PmConfig {
            style: PmStyle::PifsGlobal,
            migrate_threshold: 0.35,
            cold_age_threshold: 0.16,
            granularity: pagemgmt::MigrationGranularity::CacheLineBlock,
        }
    }
}

/// On-switch (or on-DIMM) buffer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Replacement policy.
    pub policy: BufferPolicy,
    /// SRAM capacity in bytes (Fig 15 sweeps 64 KB–1 MB; default 512 KB).
    pub capacity_bytes: u64,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            policy: BufferPolicy::Htr,
            capacity_bytes: 512 * 1024,
        }
    }
}

/// Complete configuration of one simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The DLRM being served (usually a scaled-down Table I model).
    pub model: ModelConfig,
    /// CXL Type 3 devices in the pool.
    pub n_devices: u16,
    /// Hosts issuing queries.
    pub n_hosts: u16,
    /// Fabric switches (devices and hosts are spread round-robin).
    pub n_switches: u16,
    /// CPU cores per host running the lookup stage.
    pub cores_per_host: u32,
    /// Outstanding memory requests per core (MLP window).
    pub outstanding: usize,
    /// Where accumulation happens.
    pub compute: ComputeSite,
    /// Initial page placement.
    pub placement: InitialPlacement,
    /// Local-DRAM capacity as a fraction of the embedding working set
    /// (the scaled stand-in for the paper's fixed 128 GB).
    pub local_capacity_frac: f64,
    /// Dynamic page management, if enabled.
    pub page_mgmt: Option<PmConfig>,
    /// On-switch buffer (PIFS) or DIMM cache (RecNMP), if present.
    pub buffer: Option<BufferConfig>,
    /// Out-of-order accumulation in the switch engine.
    pub ooo: bool,
    /// Extra per-row address-translation latency in the switch (BEACON's
    /// added translation logic, §II-B2), ns.
    pub translation_ns: u64,
    /// Lookup-stage threading strategy.
    pub threading: ThreadingMode,
    /// Fabric latency/bandwidth parameters.
    pub cxl: CxlParams,
    /// Open-loop serving knobs: the batcher, admission control and the
    /// adaptive controller. Every open-loop session reads them (one
    /// opened by [`open_loop_begin`](crate::system::SlsSystem::open_loop_begin),
    /// directly or through `run_open_loop*` and the cluster's nodes);
    /// closed-loop [`run_trace`](crate::system::SlsSystem::run_trace)
    /// ignores this field.
    pub serving: ServingConfig,
    /// Batches excluded from measurement: they run first to warm the
    /// page placement, buffers and hotness state, modeling a system
    /// measured in steady state rather than from a cold boot. Their
    /// traffic and migration charges do not appear in
    /// [`RunMetrics`](crate::system::RunMetrics).
    pub warmup_batches: u32,
    /// Read by nothing: a run's workload is fixed by the trace it is
    /// given, which carries its own seed. The field stays only because
    /// perfbench's `replay.rs` still assigns it.
    pub seed: u64,
}

/// The largest `serving.max_wait_us` or `serving.sla_us` a knob accepts:
/// 10^12 µs, about 11.6 days. No serving run simulates that long, so the
/// cap binds no real setting, while every instant plus a wait or SLA
/// stays far inside the `u64` nanosecond clock.
pub const MAX_SERVING_US: f64 = 1e12;

/// The largest `translation_ns` a knob accepts: one second, 4×10^7 times
/// BEACON's 25 ns. A translation is charged once per CXL row fetch, so
/// at the cap a run needs over 10^10 of them back to back to overflow
/// the `u64` nanosecond clock, which wraps in release builds.
pub const MAX_TRANSLATION_NS: u64 = 1_000_000_000;

impl SystemConfig {
    fn base(model: ModelConfig) -> Self {
        SystemConfig {
            model,
            n_devices: 8,
            n_hosts: 1,
            n_switches: 1,
            cores_per_host: 8,
            outstanding: 16,
            compute: ComputeSite::Host,
            placement: InitialPlacement::AllCxl,
            local_capacity_frac: 0.2,
            page_mgmt: None,
            buffer: None,
            ooo: false,
            translation_ns: 0,
            threading: ThreadingMode::Batch,
            cxl: CxlParams::default(),
            serving: ServingConfig::default(),
            warmup_batches: 0,
            seed: 0,
        }
    }

    /// Pond (§VI-B): CXL memory pooling, host-side compute, no
    /// management.
    pub fn pond(model: ModelConfig) -> Self {
        Self::base(model)
    }

    /// Pond plus this paper's page-management software (the "Pond + PM"
    /// baseline).
    pub fn pond_pm(model: ModelConfig) -> Self {
        SystemConfig {
            placement: InitialPlacement::CxlFraction { cxl_frac: 0.8 },
            page_mgmt: Some(PmConfig::default()),
            ..Self::base(model)
        }
    }

    /// BEACON-S (§VI-B): in-switch compute, CXL-only memory, added
    /// translation logic, in-order accumulation, no locality buffer.
    pub fn beacon(model: ModelConfig) -> Self {
        SystemConfig {
            compute: ComputeSite::Switch,
            translation_ns: 25,
            ..Self::base(model)
        }
    }

    /// RecNMP (§VI-B): DIMM-side accumulation with bank-level parallelism
    /// and a DIMM cache; fixed local DRAM with CXL spill handled by the
    /// host.
    pub fn recnmp(model: ModelConfig, local_frac: f64) -> Self {
        SystemConfig {
            compute: ComputeSite::Dimm,
            placement: InitialPlacement::AllLocal, // spills to CXL when full
            local_capacity_frac: local_frac,
            buffer: Some(BufferConfig::default()),
            ..Self::base(model)
        }
    }

    /// PIFS-Rec: in-switch compute, managed tiered placement, HTR
    /// buffer, out-of-order accumulation.
    pub fn pifs_rec(model: ModelConfig) -> Self {
        SystemConfig {
            compute: ComputeSite::Switch,
            placement: InitialPlacement::CxlFraction { cxl_frac: 0.8 },
            page_mgmt: Some(PmConfig::default()),
            buffer: Some(BufferConfig::default()),
            ooo: true,
            ..Self::base(model)
        }
    }

    /// PIFS-Rec on a laptop-scale RMC1 — the quickstart configuration.
    pub fn pifs_rec_default() -> Self {
        Self::pifs_rec(ModelConfig::rmc1().scaled_down(4))
    }

    /// Applies one named knob override, `"key" = "value"`, so sweep
    /// harnesses can vary topology and page-management parameters without
    /// compiling new configuration code.
    ///
    /// Keys mirror the struct fields (`n_devices`, `n_hosts`,
    /// `n_switches`, `cores_per_host`, `outstanding`, `compute`,
    /// `local_capacity_frac`, `ooo`, `translation_ns`, `threading`,
    /// `warmup_batches`) plus dotted paths into the optional
    /// sub-configs: `placement.cxl_frac`, `placement.remote_frac`,
    /// `placement` (`all_local` / `all_cxl`), `pm.style` (`pifs` /
    /// `tpp`), `pm.migrate_threshold`, `pm.cold_age_threshold`,
    /// `pm.granularity` (`cache_line` / `page_block`), `pm` (`off`),
    /// `buffer.policy` (`htr` / `lru` / `fifo`), `buffer.capacity_kb`,
    /// and `buffer` (`off`). Setting a `pm.*` or `buffer.*` knob on a
    /// config where that subsystem is disabled enables it with defaults
    /// first. The open-loop batcher exposes `serving.batch_size` and
    /// `serving.max_wait_us` (microseconds; fractional values allowed),
    /// the admission controller `serving.shed_policy`
    /// (`none | queue:<depth> | deadline`) and `serving.sla_us`, and the
    /// adaptive-knob controller `serving.controller`
    /// (`fixed | load | epoch | adaptive`).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for unknown keys,
    /// unparseable values, or values that would make a degenerate system:
    /// a zero count (`n_devices`, `n_hosts`, `n_switches`,
    /// `cores_per_host`, `outstanding`), a negative or non-finite
    /// `local_capacity_frac`, a `placement.cxl_frac`,
    /// `placement.remote_frac`, `pm.migrate_threshold` or
    /// `pm.cold_age_threshold` outside [0, 1] (NaN included), a
    /// `buffer.capacity_kb` smaller than one row, or a
    /// `serving.max_wait_us` or `serving.sla_us` that is negative (under
    /// half a nanosecond for the SLA), NaN or above [`MAX_SERVING_US`], or a
    /// `translation_ns` above [`MAX_TRANSLATION_NS`]. The config is left
    /// unchanged in that case.
    pub fn apply_knob(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("knob {key}: cannot parse {value:?}"))
        }
        fn positive<T: std::str::FromStr + Default + PartialEq>(
            key: &str,
            value: &str,
        ) -> Result<T, String> {
            let v: T = parse(key, value)?;
            if v == T::default() {
                return Err(format!("knob {key}: must be positive"));
            }
            Ok(v)
        }
        /// Microseconds to whole nanoseconds, checked against
        /// `[0, MAX_SERVING_US]`.
        fn micros_to_ns(key: &str, value: &str) -> Result<u64, String> {
            let us: f64 = parse(key, value)?;
            if !(0.0..=MAX_SERVING_US).contains(&us) {
                return Err(format!(
                    "knob {key}: must be >= 0 and at most {MAX_SERVING_US:e} µs, got {value:?}"
                ));
            }
            // The range check bounds the product below 2^53, so the
            // rounded value is an exact integer and the cast is lossless.
            Ok((us * 1_000.0).round() as u64)
        }
        fn unit_fraction(key: &str, value: &str) -> Result<f64, String> {
            let frac: f64 = parse(key, value)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!(
                    "knob {key}: must be a fraction in [0, 1], got {value:?}"
                ));
            }
            Ok(frac)
        }
        match key {
            "n_devices" => self.n_devices = positive(key, value)?,
            "n_hosts" => self.n_hosts = positive(key, value)?,
            "n_switches" => self.n_switches = positive(key, value)?,
            "cores_per_host" => self.cores_per_host = positive(key, value)?,
            "outstanding" => self.outstanding = positive(key, value)?,
            "local_capacity_frac" => {
                let frac: f64 = parse(key, value)?;
                if !(frac >= 0.0 && frac.is_finite()) {
                    return Err(format!(
                        "knob {key}: must be a finite fraction >= 0, got {value:?}"
                    ));
                }
                self.local_capacity_frac = frac;
            }
            "ooo" => self.ooo = parse(key, value)?,
            "translation_ns" => {
                let ns: u64 = parse(key, value)?;
                if ns > MAX_TRANSLATION_NS {
                    return Err(format!(
                        "knob {key}: must be at most {MAX_TRANSLATION_NS} ns, got {value:?}"
                    ));
                }
                self.translation_ns = ns;
            }
            "warmup_batches" => self.warmup_batches = parse(key, value)?,
            "compute" => {
                self.compute = match value {
                    "host" => ComputeSite::Host,
                    "switch" => ComputeSite::Switch,
                    "dimm" => ComputeSite::Dimm,
                    _ => return Err(format!("knob compute: unknown site {value:?}")),
                }
            }
            "threading" => {
                self.threading = match value {
                    "batch" => ThreadingMode::Batch,
                    "table" => ThreadingMode::Table,
                    _ => return Err(format!("knob threading: unknown mode {value:?}")),
                }
            }
            "placement" => {
                self.placement = match value {
                    "all_local" => InitialPlacement::AllLocal,
                    "all_cxl" => InitialPlacement::AllCxl,
                    _ => return Err(format!("knob placement: unknown policy {value:?}")),
                }
            }
            "placement.cxl_frac" => {
                self.placement = InitialPlacement::CxlFraction {
                    cxl_frac: unit_fraction(key, value)?,
                }
            }
            "placement.remote_frac" => {
                self.placement = InitialPlacement::RemoteFraction {
                    remote_frac: unit_fraction(key, value)?,
                }
            }
            "pm" if value == "off" => self.page_mgmt = None,
            "pm.style" => {
                let style = match value {
                    "pifs" => PmStyle::PifsGlobal,
                    "tpp" => PmStyle::Tpp,
                    _ => return Err(format!("knob pm.style: unknown style {value:?}")),
                };
                self.page_mgmt.get_or_insert_with(PmConfig::default).style = style;
            }
            "pm.migrate_threshold" => {
                let frac = unit_fraction(key, value)?;
                self.page_mgmt
                    .get_or_insert_with(PmConfig::default)
                    .migrate_threshold = frac;
            }
            "pm.cold_age_threshold" => {
                let frac = unit_fraction(key, value)?;
                self.page_mgmt
                    .get_or_insert_with(PmConfig::default)
                    .cold_age_threshold = frac;
            }
            "pm.granularity" => {
                let granularity = match value {
                    "cache_line" => pagemgmt::MigrationGranularity::CacheLineBlock,
                    "page_block" => pagemgmt::MigrationGranularity::PageBlock,
                    _ => return Err(format!("knob pm.granularity: unknown value {value:?}")),
                };
                self.page_mgmt
                    .get_or_insert_with(PmConfig::default)
                    .granularity = granularity;
            }
            "buffer" if value == "off" => self.buffer = None,
            "buffer.policy" => {
                let policy = match value {
                    "htr" => BufferPolicy::Htr,
                    "lru" => BufferPolicy::Lru,
                    "fifo" => BufferPolicy::Fifo,
                    _ => return Err(format!("knob buffer.policy: unknown policy {value:?}")),
                };
                self.buffer.get_or_insert_with(BufferConfig::default).policy = policy;
            }
            "buffer.capacity_kb" => {
                let row_bytes = self.model.row_bytes();
                let bytes = parse::<u64>(key, value)?
                    .checked_mul(1024)
                    .filter(|&b| b >= row_bytes)
                    .ok_or_else(|| {
                        format!(
                            "knob {key}: must hold at least one {row_bytes} B row, got {value:?}"
                        )
                    })?;
                self.buffer
                    .get_or_insert_with(BufferConfig::default)
                    .capacity_bytes = bytes;
            }
            "serving.batch_size" => self.serving.batch_size = positive(key, value)?,
            "serving.max_wait_us" => self.serving.max_wait_ns = micros_to_ns(key, value)?,
            "serving.shed_policy" => {
                self.serving.shed = super::serving::ShedPolicy::parse(value)
                    .map_err(|e| format!("knob serving.shed_policy: {e}"))?;
            }
            "serving.sla_us" => {
                let ns = micros_to_ns(key, value)?;
                if ns == 0 {
                    return Err(format!("knob {key}: must be positive, got {value:?}"));
                }
                self.serving.sla_ns = ns;
            }
            "serving.controller" => {
                self.serving.controller = super::controller::ControllerPolicy::parse(value)
                    .map_err(|e| format!("knob serving.controller: {e}"))?;
            }
            _ => return Err(format!("unknown SystemConfig knob {key:?}")),
        }
        Ok(())
    }

    /// Total embedding pages for this model.
    pub fn n_pages(&self) -> u64 {
        let table_bytes = page_align(self.model.emb_num * self.model.row_bytes());
        (table_bytes / pagemgmt::PAGE_BYTES) * self.model.n_tables as u64
    }
}

/// Rounds `bytes` up to a whole number of pages.
pub(crate) fn page_align(bytes: u64) -> u64 {
    bytes.div_ceil(pagemgmt::PAGE_BYTES) * pagemgmt::PAGE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::pond(ModelConfig::rmc1().scaled_down(16))
    }

    #[test]
    fn knobs_cover_topology_and_subsystems() {
        let mut c = cfg();
        for (k, v) in [
            ("n_devices", "16"),
            ("n_hosts", "2"),
            ("cores_per_host", "4"),
            ("compute", "switch"),
            ("threading", "table"),
            ("placement.cxl_frac", "0.5"),
            ("pm.migrate_threshold", "0.25"),
            ("pm.style", "tpp"),
            ("buffer.policy", "lru"),
            ("buffer.capacity_kb", "64"),
            ("ooo", "true"),
            ("serving.batch_size", "16"),
            ("serving.max_wait_us", "12.5"),
            ("serving.shed_policy", "queue:48"),
            ("serving.sla_us", "30"),
            ("serving.controller", "adaptive"),
        ] {
            c.apply_knob(k, v).unwrap();
        }
        assert_eq!(c.n_devices, 16);
        assert_eq!(c.n_hosts, 2);
        assert_eq!(c.compute, ComputeSite::Switch);
        assert_eq!(c.threading, ThreadingMode::Table);
        assert_eq!(c.placement, InitialPlacement::CxlFraction { cxl_frac: 0.5 });
        let pm = c.page_mgmt.unwrap();
        assert_eq!(pm.migrate_threshold, 0.25);
        assert_eq!(pm.style, PmStyle::Tpp);
        let b = c.buffer.unwrap();
        assert_eq!(b.policy, BufferPolicy::Lru);
        assert_eq!(b.capacity_bytes, 64 * 1024);
        assert!(c.ooo);
        assert_eq!(c.serving.batch_size, 16);
        assert_eq!(c.serving.max_wait_ns, 12_500);
        assert_eq!(
            c.serving.shed,
            super::super::serving::ShedPolicy::QueueDepth { max_pending: 48 }
        );
        assert_eq!(c.serving.sla_ns, 30_000);
        assert_eq!(
            c.serving.controller,
            super::super::controller::ControllerPolicy::Adaptive
        );
    }

    #[test]
    fn serving_knob_rejects_degenerate_values() {
        let mut c = cfg();
        let before = c.clone();
        assert!(c.apply_knob("serving.batch_size", "0").is_err());
        assert!(c.apply_knob("serving.max_wait_us", "-1").is_err());
        assert!(c.apply_knob("serving.max_wait_us", "inf").is_err());
        assert!(c.apply_knob("serving.sla_us", "0").is_err());
        // Rounds to 0 ns.
        assert!(c.apply_knob("serving.sla_us", "0.0001").is_err());
        // An unchecked translation delay used to wrap the clock.
        for value in ["18446744073709551615", "1000000001"] {
            let err = c.apply_knob("translation_ns", value).unwrap_err();
            assert!(err.contains("translation_ns"), "{value}: {err}");
        }
        // Values past the cap used to saturate the nanosecond cast and
        // overflow the clock mid-run.
        for key in ["serving.max_wait_us", "serving.sla_us"] {
            for value in ["1e30", "nan", "1000000000001"] {
                let err = c.apply_knob(key, value).unwrap_err();
                assert!(err.contains(key), "{key}={value}: {err}");
            }
        }
        // The shed-policy parser's reason is surfaced through the knob.
        let err = c.apply_knob("serving.shed_policy", "queue:0").unwrap_err();
        assert!(
            err.contains("serving.shed_policy") && err.contains(">= 1"),
            "{err}"
        );
        let err = c.apply_knob("serving.controller", "pid").unwrap_err();
        assert!(
            err.contains("serving.controller") && err.contains("unknown serving controller"),
            "{err}"
        );
        assert_eq!(c, before);
        // The cap itself is accepted, and converts exactly.
        c.apply_knob("serving.max_wait_us", "1e12").unwrap();
        c.apply_knob("serving.sla_us", "1e12").unwrap();
        assert_eq!(c.serving.max_wait_ns, 1_000_000_000_000_000);
        assert_eq!(c.serving.sla_ns, 1_000_000_000_000_000);
        c.apply_knob("translation_ns", "1000000000").unwrap();
        assert_eq!(c.translation_ns, MAX_TRANSLATION_NS);
    }

    #[test]
    fn degenerate_topology_knobs_are_rejected() {
        let mut c = cfg();
        let before = c.clone();
        for (key, value) in [
            ("outstanding", "0"),
            ("n_hosts", "0"),
            ("n_devices", "0"),
            ("n_switches", "0"),
            ("cores_per_host", "0"),
            ("buffer.capacity_kb", "0"),
            ("buffer.capacity_kb", "18446744073709551615"),
            ("local_capacity_frac", "-1"),
            ("local_capacity_frac", "nan"),
            ("local_capacity_frac", "inf"),
            ("pm.migrate_threshold", "inf"),
            ("pm.migrate_threshold", "nan"),
            ("pm.migrate_threshold", "-0.1"),
            ("pm.migrate_threshold", "1.5"),
            ("pm.cold_age_threshold", "nan"),
            ("pm.cold_age_threshold", "-inf"),
            ("pm.cold_age_threshold", "-0.1"),
            ("pm.cold_age_threshold", "2"),
            ("placement.cxl_frac", "1.5"),
            ("placement.cxl_frac", "-0.1"),
            ("placement.cxl_frac", "nan"),
            ("placement.remote_frac", "nan"),
            ("placement.remote_frac", "inf"),
            ("placement.remote_frac", "2"),
        ] {
            let err = c.apply_knob(key, value).unwrap_err();
            assert!(err.contains(key), "{key}={value}: {err}");
        }
        assert_eq!(c, before);
        // The boundaries themselves are accepted.
        c.apply_knob("local_capacity_frac", "0").unwrap();
        c.apply_knob("buffer.capacity_kb", "1").unwrap();
        c.apply_knob("outstanding", "1").unwrap();
        for key in [
            "pm.migrate_threshold",
            "pm.cold_age_threshold",
            "placement.cxl_frac",
            "placement.remote_frac",
        ] {
            c.apply_knob(key, "0").unwrap();
            c.apply_knob(key, "1").unwrap();
        }
    }

    #[test]
    fn bad_knobs_leave_the_config_unchanged() {
        let mut c = cfg();
        let before = c.clone();
        assert!(c.apply_knob("n_devices", "lots").is_err());
        assert!(c.apply_knob("pm.style", "magic").is_err());
        assert!(c.apply_knob("no_such_knob", "1").is_err());
        assert!(c.apply_knob("seed", "7").is_err());
        assert_eq!(c, before);
    }

    #[test]
    fn subsystem_off_switches_work() {
        let mut c = SystemConfig::pifs_rec(ModelConfig::rmc1().scaled_down(16));
        c.apply_knob("pm", "off").unwrap();
        c.apply_knob("buffer", "off").unwrap();
        assert!(c.page_mgmt.is_none());
        assert!(c.buffer.is_none());
    }
}
