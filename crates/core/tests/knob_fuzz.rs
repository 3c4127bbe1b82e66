//! Every user-reachable spelling returns `Err` instead of panicking.
//!
//! Arbitrary keys and values go through `SystemConfig::apply_knob`, which
//! must leave the config untouched whenever it refuses one, and arbitrary
//! strings through the spec parsers the sweep axes use. The strings are
//! spelled from fragments of every grammar, numbers at and past the edges
//! of their domains, and characters no grammar uses, so most samples get
//! past the first token.

use pifs_core::engine::config::{MAX_SERVING_US, MAX_TRANSLATION_NS};
use pifs_core::engine::controller::ControllerPolicy;
use pifs_core::engine::serving::ShedPolicy;
use pifs_core::{ShardPolicy, SystemConfig};
use proptest::prelude::*;
use simkit::faults::{MAX_FAULT_MULT, MAX_FAULT_RATE};
use simkit::FaultSpec;
use tracegen::{ArrivalProcess, Distribution, QosClass};

/// Every key `apply_knob` documents; `every_listed_key_is_known` fails
/// on an entry it no longer matches.
const KEYS: &[&str] = &[
    "n_devices",
    "n_hosts",
    "n_switches",
    "cores_per_host",
    "outstanding",
    "local_capacity_frac",
    "ooo",
    "translation_ns",
    "warmup_batches",
    "compute",
    "threading",
    "placement",
    "placement.cxl_frac",
    "placement.remote_frac",
    "pm",
    "pm.style",
    "pm.migrate_threshold",
    "pm.cold_age_threshold",
    "pm.granularity",
    "buffer",
    "buffer.policy",
    "buffer.capacity_kb",
    "serving.batch_size",
    "serving.max_wait_us",
    "serving.shed_policy",
    "serving.sla_us",
    "serving.controller",
];

/// Words of the knob and spec grammars.
const WORDS: &[&str] = &[
    "none",
    "queue",
    "deadline",
    "fixed",
    "load",
    "epoch",
    "adaptive",
    "poisson",
    "bursty",
    "diurnal",
    "flash",
    "mix",
    "zipf",
    "zipf_head",
    "normal",
    "meta",
    "uniform",
    "random",
    "ZF",
    "failstop",
    "slow",
    "link",
    "latency_critical",
    "batch",
    "row_hash",
    "table_partition",
    "host",
    "switch",
    "dimm",
    "table",
    "all_local",
    "all_cxl",
    "pifs",
    "tpp",
    "cache_line",
    "page_block",
    "htr",
    "lru",
    "fifo",
    "off",
    "true",
    "",
    " ",
];

/// Numbers inside, at and past the edges of the knobs' domains.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "-0",
    "0.5",
    "0.999",
    "1.5",
    "16",
    "200",
    "1e12",
    "1.000001e12",
    "1e30",
    "1e308",
    "-1e308",
    "nan",
    "inf",
    "-inf",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "0x10",
];

/// Spells one string from `words`: each word adds a grammar word, a
/// number or, one time in eight, an arbitrary character, and three words
/// in four after the first start a new `:`-separated field.
fn spell(words: &[u64]) -> String {
    let mut s = String::new();
    for (i, &w) in words.iter().enumerate() {
        if i > 0 && w % 4 != 0 {
            s.push(':');
        }
        let pick = (w >> 8) as usize;
        match (w >> 2) % 8 {
            0 => s.push(char::from_u32((w >> 32) as u32 % 0x3000).unwrap_or('\u{FFFD}')),
            1..=3 => s.push_str(WORDS[pick % WORDS.len()]),
            _ => s.push_str(NUMBERS[pick % NUMBERS.len()]),
        }
    }
    s
}

#[test]
fn every_listed_key_is_known() {
    // "off" is the one value the bare `pm` and `buffer` keys take; every
    // other key refuses it with its own reason, not as an unknown key.
    let model = dlrm::ModelConfig::rmc1().scaled_down(16);
    for key in KEYS {
        let mut cfg = SystemConfig::pifs_rec(model.clone());
        if let Err(e) = cfg.apply_knob(key, "off") {
            assert!(!e.starts_with("unknown SystemConfig knob"), "{key}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn knobs_and_spec_parsers_reject_instead_of_panicking(
        knobs in collection::vec(collection::vec(any::<u64>(), 1..5), 1..8),
        spec in collection::vec(any::<u64>(), 0..5),
        preset in 0usize..3,
        qps_pick in 0usize..5,
    ) {
        let model = dlrm::ModelConfig::rmc1().scaled_down(16);
        let mut cfg = match preset {
            0 => SystemConfig::pond(model),
            1 => SystemConfig::pifs_rec(model),
            _ => SystemConfig::recnmp(model, 0.5),
        };
        for words in &knobs {
            // One key in four is spelled at random, the rest documented.
            let key = if words[0] % 4 == 0 {
                spell(&words[1..])
            } else {
                KEYS[(words[0] >> 2) as usize % KEYS.len()].to_string()
            };
            let value = spell(&words[1..]);
            let before = cfg.clone();
            match cfg.apply_knob(&key, &value) {
                Err(e) => {
                    prop_assert!(!e.is_empty());
                    prop_assert_eq!(&cfg, &before, "{}={:?} failed but changed the config", key, value);
                }
                Ok(()) => {
                    let cap_ns = MAX_SERVING_US * 1e3;
                    prop_assert!(cfg.serving.max_wait_ns as f64 <= cap_ns);
                    prop_assert!(cfg.serving.sla_ns as f64 <= cap_ns);
                    prop_assert!(cfg.translation_ns <= MAX_TRANSLATION_NS);
                }
            }
        }

        let s = spell(&spec);
        let qps = [1e6, 0.0, -1.0, f64::NAN, f64::INFINITY][qps_pick];
        if let Ok(p) = ArrivalProcess::parse(&s, qps) {
            prop_assert!(p.validate().is_ok(), "{:?} parsed to unsound {:?}", s, p);
        }
        let _ = Distribution::parse(&s);
        // Each parse that succeeds names its result with a label that
        // parses back to it.
        if let Ok(p) = ShedPolicy::parse(&s) {
            prop_assert_eq!(ShedPolicy::parse(&p.label()), Ok(p));
        }
        if let Ok(p) = ControllerPolicy::parse(&s) {
            prop_assert_eq!(ControllerPolicy::parse(p.label()), Ok(p));
        }
        if let Ok(p) = ShardPolicy::parse(&s) {
            prop_assert_eq!(ShardPolicy::parse(p.label()), Ok(p));
        }
        if let Ok(p) = FaultSpec::parse(&s) {
            prop_assert_eq!(FaultSpec::parse(&p.label()), Ok(p));
            // A multiplier past the cap would dilate spans and link
            // bytes toward the u64 limit.
            if let FaultSpec::Slow { mult, .. } | FaultSpec::Link { mult, .. } = p {
                prop_assert!((1.0..=MAX_FAULT_MULT).contains(&mult), "{:?} parsed to {:?}", s, p);
            }
            // A rate past the cap would make the schedule's generator
            // draw events without end.
            if let FaultSpec::FailStop { rate }
            | FaultSpec::Slow { rate, .. }
            | FaultSpec::Link { rate, .. } = p
            {
                prop_assert!(rate > 0.0 && rate <= MAX_FAULT_RATE, "{:?} parsed to {:?}", s, p);
            }
        }
        if let Ok(p) = QosClass::parse(&s) {
            prop_assert_eq!(QosClass::parse(p.label()), Ok(p));
        }
    }
}
