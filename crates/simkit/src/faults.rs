//! Deterministic fault injection: seeded schedules of node and link
//! faults, generated up front as pure data.
//!
//! A [`FaultSchedule`] is to failures what `tracegen`'s arrival
//! processes are to traffic: a pure function of `(spec, seed, n_nodes,
//! horizon)`, materialized once before the run starts. The simulation
//! consults the schedule — it never mutates it — so a faulty run is as
//! deterministic as a fault-free one: byte-identical across reruns and
//! runner thread counts, and checkpoint/resume sees the same schedule
//! because it is plain `Clone` data (determinism rule 6 in
//! ARCHITECTURE.md).
//!
//! Three fault families are modelled, matching the failure modes a
//! sharded SLS fleet actually meets:
//!
//! * **fail-stop** — a node dies at an instant and never recovers;
//! * **slow-down** — a node serves at a latency multiplier over an
//!   interval (thermal throttling, noisy neighbour, GC pause);
//! * **link degradation** — the shared aggregation link loses
//!   bandwidth / gains hop latency over an interval (congestion,
//!   lane retraining).
//!
//! Spellings mirror the arrival-spec grammar:
//! `none | failstop:<rate> | slow:<rate>:<mult> | link:<rate>:<mult>`,
//! where `<rate>` is expected fault events per simulated second (per
//! node for the node families, for the one shared link in the link
//! family) and `<mult>` is the latency/serialization multiplier while
//! the fault is active.

use crate::rng::DetRng;
use crate::time::SimTime;

/// Nanoseconds per simulated second (rates are quoted per second).
const NS_PER_S: f64 = 1e9;

/// Transient faults stay active for an exponentially distributed
/// interval whose mean is this fraction of the mean inter-fault gap —
/// i.e. a ~20% duty cycle per node, independent of the swept rate.
const DUTY_FRACTION: f64 = 0.2;

/// The largest latency or link multiplier a fault spec accepts.
///
/// Every multiplier dilates an integer quantity (a batch's service
/// span, a partial's link bytes and hop latency) through `f64` and back
/// to `u64`. At 10^6 a one-microsecond batch already stretches to a
/// second, far past any SLA a sweep measures, while a larger multiplier
/// only pushes dilated spans toward the `u64` limit, where the clock
/// would wrap instead of reporting the slow node.
pub const MAX_FAULT_MULT: f64 = 1e6;

/// The largest fault rate a fault spec accepts, in events per simulated
/// second (per node for the node families).
///
/// [`FaultSchedule::generate`] draws about `rate × nodes × horizon`
/// events, one exponential gap at a time, so the rate bounds both the
/// loop and the schedule's memory. At 10^6 a node faults once per
/// microsecond on average, about one batch's service span and 15× the
/// fastest rate the `cluster_faults` axis sweeps (64 000); a faster rate
/// no longer describes faults between batches, while a rate near `f64`'s
/// top draws gaps so small that the clock never reaches the horizon.
pub const MAX_FAULT_RATE: f64 = 1e6;

/// Scales the integer `x` by the fault multiplier `mult`, rounding the
/// product with `round` (`f64::round`, `f64::ceil`): the one conversion
/// of a fault-dilated quantity back to integer units.
///
/// # Panics
///
/// Panics naming `fault` if the dilated value does not fit in a `u64`,
/// instead of saturating into a quantity that wraps the clock.
pub fn dilate(x: u64, mult: f64, round: fn(f64) -> f64, fault: &str) -> u64 {
    let scaled = round(x as f64 * mult);
    assert!(
        (0.0..u64::MAX as f64).contains(&scaled),
        "{fault} fault: {x} dilated by {mult} is {scaled}, past the u64 range"
    );
    scaled as u64
}

/// A parsed fault family + parameters: the `fault` axis of a sweep.
///
/// Pure configuration — turn it into events with
/// [`FaultSchedule::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// No faults; the schedule is empty and the run is byte-identical
    /// to one that never heard of this module.
    None,
    /// Nodes fail permanently at `rate` events per node-second.
    FailStop {
        /// Expected fail-stop events per node per simulated second.
        rate: f64,
    },
    /// Nodes slow down by `mult` over exponential intervals arriving at
    /// `rate` events per node-second.
    Slow {
        /// Expected slow-down onsets per node per simulated second.
        rate: f64,
        /// Service-latency multiplier while the slow-down is active.
        mult: f64,
    },
    /// The shared aggregation link degrades by `mult` (serialization
    /// and hop latency multiplier) over exponential intervals arriving
    /// at `rate` events per second.
    Link {
        /// Expected degradation onsets per simulated second.
        rate: f64,
        /// Bandwidth-cut / hop-latency multiplier while active.
        mult: f64,
    },
}

impl FaultSpec {
    /// Parses the sweep spelling
    /// `none | failstop:<rate> | slow:<rate>:<mult> | link:<rate>:<mult>`.
    ///
    /// Rates must lie in `(0, MAX_FAULT_RATE]` and multipliers in
    /// `[1, MAX_FAULT_MULT]` (a fault never speeds a component up, and
    /// [`MAX_FAULT_RATE`] and [`MAX_FAULT_MULT`] say why the tops are
    /// bounded). Errors name the
    /// offending piece so sweep harnesses can surface *why* a spec was
    /// rejected.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or("").to_ascii_lowercase();
        let mut arg = |what: &str| -> Result<f64, String> {
            let raw = parts
                .next()
                .ok_or_else(|| format!("fault spec {spec:?}: missing {what}"))?;
            raw.parse::<f64>()
                .map_err(|_| format!("fault spec {spec:?}: {what} {raw:?} is not a number"))
        };
        let rate_of = |v: f64| -> Result<f64, String> {
            if v > 0.0 && v <= MAX_FAULT_RATE {
                Ok(v)
            } else {
                Err(format!(
                    "fault spec {spec:?}: rate must be positive and <= {MAX_FAULT_RATE}, got {v}"
                ))
            }
        };
        let mult_of = |v: f64| -> Result<f64, String> {
            if (1.0..=MAX_FAULT_MULT).contains(&v) {
                Ok(v)
            } else {
                Err(format!(
                    "fault spec {spec:?}: multiplier must be >= 1 and <= {MAX_FAULT_MULT}, got {v:?}"
                ))
            }
        };
        let parsed = match head.as_str() {
            "none" => FaultSpec::None,
            "failstop" => FaultSpec::FailStop {
                rate: rate_of(arg("rate")?)?,
            },
            "slow" => FaultSpec::Slow {
                rate: rate_of(arg("rate")?)?,
                mult: mult_of(arg("mult")?)?,
            },
            "link" => FaultSpec::Link {
                rate: rate_of(arg("rate")?)?,
                mult: mult_of(arg("mult")?)?,
            },
            other => {
                return Err(format!(
                    "unknown fault family {other:?} \
                     (none|failstop:<rate>|slow:<rate>:<mult>|link:<rate>:<mult>)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("fault spec {spec:?}: trailing arguments"));
        }
        Ok(parsed)
    }

    /// True for [`FaultSpec::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// A short stable label for curve keys and filenames.
    pub fn label(&self) -> String {
        match *self {
            FaultSpec::None => "none".to_string(),
            FaultSpec::FailStop { rate } => format!("failstop:{rate}"),
            FaultSpec::Slow { rate, mult } => format!("slow:{rate}:{mult}"),
            FaultSpec::Link { rate, mult } => format!("link:{rate}:{mult}"),
        }
    }
}

/// What a single [`FaultEvent`] does to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node stops answering forever.
    FailStop,
    /// The node's service latency is multiplied while the event is
    /// active.
    Slow {
        /// Latency multiplier (≥ 1).
        mult: f64,
    },
    /// The shared aggregation link's serialization and hop latency are
    /// multiplied while the event is active.
    LinkDegrade {
        /// Bandwidth-cut / hop-latency multiplier (≥ 1).
        mult: f64,
    },
}

/// One scheduled fault: target, activation window, effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Onset instant.
    pub at: SimTime,
    /// End of the activation window; `SimTime::from_ns(u64::MAX)` for
    /// fail-stop (no recovery).
    pub until: SimTime,
    /// Target node index, or [`FaultEvent::LINK`] for link events.
    pub node: u16,
    /// The effect while active.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Sentinel `node` value for events targeting the shared
    /// aggregation link rather than any node.
    pub const LINK: u16 = u16::MAX;
}

/// A materialized, immutable schedule of fault events for one run:
/// a pure function of `(spec, seed, n_nodes, horizon_ns)`.
///
/// # Examples
///
/// ```
/// use simkit::faults::{FaultSchedule, FaultSpec};
///
/// let spec = FaultSpec::parse("failstop:2000").unwrap();
/// let sched = FaultSchedule::generate(spec, 2024, 4, 1_000_000);
/// let again = FaultSchedule::generate(spec, 2024, 4, 1_000_000);
/// assert_eq!(sched.events(), again.events()); // pure function of the seed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    spec: FaultSpec,
    n_nodes: u16,
    events: Vec<FaultEvent>,
    /// Per-node death instant, precomputed from the fail-stop events.
    deaths: Vec<Option<SimTime>>,
}

impl FaultSchedule {
    /// The empty schedule: no events, every node alive forever. The
    /// cheap default every fault-free run carries (no allocation).
    pub fn none(n_nodes: u16) -> FaultSchedule {
        FaultSchedule {
            spec: FaultSpec::None,
            n_nodes,
            events: Vec::new(),
            deaths: Vec::new(),
        }
    }

    /// Generates the schedule for `n_nodes` nodes over
    /// `[0, horizon_ns]`: a single `DetRng` stream draws exponential
    /// inter-fault gaps at the aggregate rate (`rate × n_nodes` for the
    /// node families, `rate` for the link), then a victim node, then —
    /// for the transient families — an exponential active duration with
    /// mean `0.2 / rate` seconds (~20% duty per node). Fail-stop events
    /// that land on an already-dead node are skipped, but their draws
    /// are still consumed, so prefixes of different horizons agree.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero while `spec` targets nodes.
    pub fn generate(spec: FaultSpec, seed: u64, n_nodes: u16, horizon_ns: u64) -> FaultSchedule {
        let mut events = Vec::new();
        let mut rng = DetRng::new(seed);
        match spec {
            FaultSpec::None => {}
            FaultSpec::FailStop { rate } => {
                assert!(n_nodes > 0, "fail-stop faults need at least one node");
                let mean_gap = NS_PER_S / (rate * n_nodes as f64);
                let mut dead = vec![false; n_nodes as usize];
                let mut clock = 0.0f64;
                loop {
                    clock += rng.exp(mean_gap);
                    if clock > horizon_ns as f64 {
                        break;
                    }
                    let node = rng.below(n_nodes as u64) as u16;
                    if dead[node as usize] {
                        continue;
                    }
                    dead[node as usize] = true;
                    events.push(FaultEvent {
                        at: SimTime::from_ns(clock.round() as u64),
                        until: SimTime::from_ns(u64::MAX),
                        node,
                        kind: FaultKind::FailStop,
                    });
                    if dead.iter().all(|&d| d) {
                        break;
                    }
                }
            }
            FaultSpec::Slow { rate, mult } => {
                assert!(n_nodes > 0, "slow-down faults need at least one node");
                let mean_gap = NS_PER_S / (rate * n_nodes as f64);
                let mean_active = DUTY_FRACTION * NS_PER_S / rate;
                let mut clock = 0.0f64;
                loop {
                    clock += rng.exp(mean_gap);
                    if clock > horizon_ns as f64 {
                        break;
                    }
                    let node = rng.below(n_nodes as u64) as u16;
                    let active = rng.exp(mean_active);
                    events.push(FaultEvent {
                        at: SimTime::from_ns(clock.round() as u64),
                        until: SimTime::from_ns((clock + active).round() as u64),
                        node,
                        kind: FaultKind::Slow { mult },
                    });
                }
            }
            FaultSpec::Link { rate, mult } => {
                let mean_gap = NS_PER_S / rate;
                let mean_active = DUTY_FRACTION * NS_PER_S / rate;
                let mut clock = 0.0f64;
                loop {
                    clock += rng.exp(mean_gap);
                    if clock > horizon_ns as f64 {
                        break;
                    }
                    let active = rng.exp(mean_active);
                    events.push(FaultEvent {
                        at: SimTime::from_ns(clock.round() as u64),
                        until: SimTime::from_ns((clock + active).round() as u64),
                        node: FaultEvent::LINK,
                        kind: FaultKind::LinkDegrade { mult },
                    });
                }
            }
        }
        let deaths = if events.is_empty() {
            Vec::new()
        } else {
            let mut deaths = vec![None; n_nodes as usize];
            for ev in &events {
                if let FaultKind::FailStop = ev.kind {
                    deaths[ev.node as usize] = Some(ev.at);
                }
            }
            deaths
        };
        FaultSchedule {
            spec,
            n_nodes,
            events,
            deaths,
        }
    }

    /// The spec the schedule was generated from.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// True when the schedule holds no events — the fault-free fast
    /// path every hot loop gates on.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Node count the schedule was generated for.
    pub fn n_nodes(&self) -> u16 {
        self.n_nodes
    }

    /// All events, in onset order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The instant `node` fail-stops, if it ever does.
    pub fn death_of(&self, node: u16) -> Option<SimTime> {
        self.deaths.get(node as usize).copied().flatten()
    }

    /// Whether `node` is still answering at `at`. A node arriving at
    /// exactly its death instant is already dead.
    pub fn alive(&self, node: u16, at: SimTime) -> bool {
        match self.death_of(node) {
            Some(death) => at < death,
            None => true,
        }
    }

    /// The slow-down windows of `node`, as `(start_ns, end_ns, mult)`
    /// triples in onset order. Node runtimes load these once per run.
    pub fn slow_intervals(&self, node: u16) -> Vec<(u64, u64, f64)> {
        self.events
            .iter()
            .filter_map(|ev| match ev.kind {
                FaultKind::Slow { mult } if ev.node == node => {
                    Some((ev.at.as_ns(), ev.until.as_ns(), mult))
                }
                _ => None,
            })
            .collect()
    }

    /// The aggregation link's degradation multiplier at `at` — the
    /// maximum over active link events, 1.0 when none is active.
    pub fn link_mult(&self, at: SimTime) -> f64 {
        let mut mult = 1.0f64;
        for ev in &self.events {
            if let FaultKind::LinkDegrade { mult: m } = ev.kind {
                if ev.at <= at && at < ev.until {
                    mult = mult.max(m);
                }
            }
        }
        mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_families_and_reports_why_it_rejects() {
        assert_eq!(FaultSpec::parse("none"), Ok(FaultSpec::None));
        assert_eq!(
            FaultSpec::parse("failstop:2000"),
            Ok(FaultSpec::FailStop { rate: 2000.0 })
        );
        assert_eq!(
            FaultSpec::parse("SLOW:16000:4"),
            Ok(FaultSpec::Slow {
                rate: 16000.0,
                mult: 4.0
            })
        );
        assert_eq!(
            FaultSpec::parse("link:8000:8"),
            Ok(FaultSpec::Link {
                rate: 8000.0,
                mult: 8.0
            })
        );
        // Errors carry the reason, per the unified parse contract.
        assert!(FaultSpec::parse("meteor:1")
            .unwrap_err()
            .contains("unknown fault family"));
        assert!(FaultSpec::parse("failstop")
            .unwrap_err()
            .contains("missing rate"));
        assert!(FaultSpec::parse("failstop:x")
            .unwrap_err()
            .contains("not a number"));
        assert!(FaultSpec::parse("failstop:-1")
            .unwrap_err()
            .contains("positive"));
        assert!(FaultSpec::parse("slow:1e300:2")
            .unwrap_err()
            .contains("positive and <= 1000000"));
        assert!(FaultSpec::parse("failstop:1000000").is_ok());
        assert!(FaultSpec::parse("slow:100:0.5")
            .unwrap_err()
            .contains(">= 1"));
        assert!(FaultSpec::parse("link:100:1e300")
            .unwrap_err()
            .contains("<= 1000000"));
        assert!(FaultSpec::parse("none:1").unwrap_err().contains("trailing"));
        assert!(FaultSpec::parse("slow:100")
            .unwrap_err()
            .contains("missing mult"));
    }

    #[test]
    fn dilate_rounds_as_asked_and_refuses_to_saturate() {
        assert_eq!(dilate(5, 1.5, f64::round, "slow-down"), 8);
        assert_eq!(dilate(5, 1.1, f64::ceil, "link-degrade"), 6);
        assert_eq!(
            dilate(1_000, MAX_FAULT_MULT, f64::round, "slow-down"),
            1_000_000_000
        );
        let overflow =
            std::panic::catch_unwind(|| dilate(u64::MAX / 2, 4.0, f64::round, "slow-down"));
        let msg = *overflow.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("slow-down fault"), "{msg}");
    }

    #[test]
    fn label_round_trips_through_parse() {
        for spec in ["none", "failstop:2000", "slow:16000:4", "link:8000:8"] {
            let parsed = FaultSpec::parse(spec).unwrap();
            assert_eq!(FaultSpec::parse(&parsed.label()), Ok(parsed));
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        for spec in ["failstop:2000", "slow:16000:4", "link:8000:8"] {
            let spec = FaultSpec::parse(spec).unwrap();
            let a = FaultSchedule::generate(spec, 2024, 4, 10_000_000);
            let b = FaultSchedule::generate(spec, 2024, 4, 10_000_000);
            assert_eq!(a, b);
            let c = FaultSchedule::generate(spec, 2025, 4, 10_000_000);
            assert_ne!(a.events(), c.events(), "different seed, different schedule");
        }
    }

    #[test]
    fn failstop_stream_matches_golden_events() {
        // Seed 2024, 4 nodes, 2000 faults/node-s over 1 ms: the first
        // events are pinned the same way the DetRng and arrival streams
        // are, so any change to the draw order re-times every faulty
        // experiment and fails loudly here.
        let spec = FaultSpec::parse("failstop:2000").unwrap();
        let sched = FaultSchedule::generate(spec, 2024, 4, 1_000_000);
        let observed: Vec<(u64, u16)> = sched
            .events()
            .iter()
            .map(|ev| (ev.at.as_ns(), ev.node))
            .collect();
        assert_eq!(observed, golden::FAILSTOP);
        for &(at, node) in &golden::FAILSTOP {
            assert_eq!(sched.death_of(node), Some(SimTime::from_ns(at)));
            assert!(sched.alive(node, SimTime::from_ns(at - 1)));
            assert!(!sched.alive(node, SimTime::from_ns(at)));
        }
    }

    #[test]
    fn slow_stream_matches_golden_events() {
        let spec = FaultSpec::parse("slow:16000:4").unwrap();
        let sched = FaultSchedule::generate(spec, 2024, 4, 200_000);
        let observed: Vec<(u64, u64, u16)> = sched
            .events()
            .iter()
            .take(6)
            .map(|ev| (ev.at.as_ns(), ev.until.as_ns(), ev.node))
            .collect();
        assert_eq!(observed, golden::SLOW);
        for ev in sched.events() {
            assert!(matches!(ev.kind, FaultKind::Slow { mult } if mult == 4.0));
            assert!(ev.until >= ev.at);
        }
    }

    #[test]
    fn link_stream_matches_golden_events_and_mult_window() {
        let spec = FaultSpec::parse("link:8000:8").unwrap();
        let sched = FaultSchedule::generate(spec, 2024, 4, 1_000_000);
        let observed: Vec<(u64, u64)> = sched
            .events()
            .iter()
            .take(4)
            .map(|ev| (ev.at.as_ns(), ev.until.as_ns()))
            .collect();
        assert_eq!(observed, golden::LINK);
        let (at, until) = golden::LINK[0];
        assert_eq!(sched.link_mult(SimTime::from_ns(at)), 8.0);
        assert_eq!(sched.link_mult(SimTime::from_ns(at - 1)), 1.0);
        assert_eq!(sched.link_mult(SimTime::from_ns(until)), 1.0);
        for ev in sched.events() {
            assert_eq!(ev.node, FaultEvent::LINK);
        }
    }

    /// Golden first events captured from the first run; see the
    /// matching DetRng/arrival golden tests for the convention.
    mod golden {
        pub const FAILSTOP: [(u64, u16); 4] = [(121861, 0), (388112, 2), (429612, 1), (506996, 3)];
        pub const SLOW: [(u64, u64, u16); 6] = [
            (15233, 19666, 0),
            (17162, 27211, 3),
            (19460, 21772, 2),
            (28157, 50831, 1),
            (57189, 59156, 2),
            (75427, 80603, 3),
        ];
        pub const LINK: [(u64, u64); 4] = [
            (121861, 124418),
            (166191, 169279),
            (388112, 408209),
            (406494, 429173),
        ];
    }

    #[test]
    fn failstop_kills_each_node_at_most_once() {
        let spec = FaultSpec::parse("failstop:64000").unwrap();
        let sched = FaultSchedule::generate(spec, 7, 8, 10_000_000);
        let mut seen = [false; 8];
        for ev in sched.events() {
            assert!(!seen[ev.node as usize], "node {} died twice", ev.node);
            seen[ev.node as usize] = true;
        }
        assert!(
            seen.iter().all(|&d| d),
            "rate high enough to kill the fleet"
        );
    }

    #[test]
    fn horizon_prefixes_agree() {
        // A longer horizon extends the schedule without re-timing the
        // shared prefix — the property that lets sweep points at
        // different durations share one fault seed.
        let spec = FaultSpec::parse("slow:16000:4").unwrap();
        let short = FaultSchedule::generate(spec, 11, 4, 100_000);
        let long = FaultSchedule::generate(spec, 11, 4, 1_000_000);
        assert_eq!(
            short.events(),
            &long.events()[..short.events().len()],
            "short horizon must be a prefix of the long one"
        );
    }

    #[test]
    fn none_schedule_is_empty_and_everyone_lives() {
        let sched = FaultSchedule::none(4);
        assert!(sched.is_none());
        assert!(sched.events().is_empty());
        for n in 0..4 {
            assert!(sched.alive(n, SimTime::from_ns(u64::MAX - 1)));
            assert!(sched.slow_intervals(n).is_empty());
        }
        assert_eq!(sched.link_mult(SimTime::ZERO), 1.0);
        // generate() with FaultSpec::None agrees.
        let gen = FaultSchedule::generate(FaultSpec::None, 2024, 4, 1_000_000);
        assert!(gen.is_none());
    }

    #[test]
    fn event_rate_is_roughly_the_requested_rate() {
        // 16k slow events/node-s × 4 nodes over 10 ms ⇒ ~640 events.
        let spec = FaultSpec::parse("slow:16000:2").unwrap();
        let sched = FaultSchedule::generate(spec, 3, 4, 10_000_000);
        let n = sched.events().len() as f64;
        assert!((500.0..800.0).contains(&n), "got {n} events");
    }
}
