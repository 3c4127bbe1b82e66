//! Multi-tenant traffic mixes: several independent query streams — one
//! per tenant, each with its own model dimensions, arrival process, and
//! QoS class — merged into one arrival-ordered stream.
//!
//! A production serving fleet rarely hosts one model: a latency-critical
//! ranking model shares nodes with batch-class embedding backfill, and
//! the serving controllers must hold the former's tail while the latter
//! soaks up slack. [`TenantMixStream`] reproduces that shape
//! deterministically: each tenant is a full [`QueryStreamSpec`] (trace
//! recipe + arrival process + seeds), and the mix emits queries in
//! global arrival order with ties broken by tenant index — a k-way
//! merge of per-tenant sorted streams, so the output is sorted and
//! byte-reproducible.
//!
//! Tenants may have different table counts: the mix's
//! [`TenantMixStream::n_tables`] is the maximum, and
//! [`TenantMixStream::bag`] returns an empty bag for tables beyond the
//! emitting tenant's model (an empty bag costs zero simulated time, so
//! narrower tenants are not padded with fake work).
//!
//! Checkpointing falls out of the representation, exactly as for
//! [`QueryStream`]: the mix is `Clone`, and a clone
//! is a resumable snapshot.

use serde::{Deserialize, Serialize};
use simkit::SimTime;

use crate::stream::{QueryStream, QueryStreamSpec};

/// A tenant's service class: what its latency means to the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QosClass {
    /// User-facing traffic: the tenant's p99 is held against the SLA.
    LatencyCritical,
    /// Throughput traffic: only starvation matters, not the tail.
    Batch,
}

impl QosClass {
    /// Parses the knob spelling `latency_critical | batch`. Errors say
    /// why the spec was rejected.
    pub fn parse(spec: &str) -> Result<QosClass, String> {
        match spec.to_ascii_lowercase().as_str() {
            "latency_critical" => Ok(QosClass::LatencyCritical),
            "batch" => Ok(QosClass::Batch),
            other => Err(format!(
                "unknown QoS class {other:?} (latency_critical|batch)"
            )),
        }
    }

    /// A short stable label for curve keys.
    pub fn label(&self) -> &'static str {
        match self {
            QosClass::LatencyCritical => "latency_critical",
            QosClass::Batch => "batch",
        }
    }
}

/// One tenant of a multi-tenant mix: its workload recipe and QoS class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (curve keys, per-tenant metric labels).
    pub name: String,
    /// The tenant's service class.
    pub qos: QosClass,
    /// The tenant's workload: trace recipe, arrival process, seeds.
    pub stream: QueryStreamSpec,
}

/// The k-way merge of several per-tenant [`QueryStream`]s, in global
/// arrival order (ties broken by tenant index, then per-tenant FIFO).
///
/// [`Self::next_query`] returns `(qid, tenant, arrival)` — qids are
/// mix-global and push-sequential, matching what a serving session
/// assigns — and [`Self::bag`] reads the emitted query's bags until the
/// next call, exactly the [`QueryStream`] contract.
#[derive(Debug, Clone)]
pub struct TenantMixStream {
    specs: Vec<TenantSpec>,
    streams: Vec<QueryStream>,
    /// Each tenant's buffered head arrival: `heads[i]` is the arrival
    /// of the query `streams[i]` has already drawn (its bags are live
    /// in that stream's buffers) but the mix has not yet emitted;
    /// `None` once the tenant is exhausted.
    heads: Vec<Option<SimTime>>,
    /// The tenant whose query was emitted last (its bags are readable);
    /// its stream advances lazily on the next [`Self::next_query`].
    current: Option<usize>,
    next_qid: u64,
    n_tables: u32,
}

impl TenantMixStream {
    /// Opens the mix at query 0.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, holds more than `u16::MAX` tenants,
    /// or any tenant's stream is degenerate (as [`QueryStreamSpec::stream`]).
    pub fn new(specs: Vec<TenantSpec>) -> TenantMixStream {
        assert!(!specs.is_empty(), "a tenant mix needs at least one tenant");
        assert!(
            specs.len() <= u16::MAX as usize,
            "tenant indices are u16-sized"
        );
        let mut streams: Vec<QueryStream> = specs.iter().map(|t| t.stream.stream()).collect();
        // Pre-draw every tenant's first query so each head arrival is
        // known before the first merge decision.
        let heads = streams
            .iter_mut()
            .map(|s| s.next_query().map(|(_, at)| at))
            .collect();
        let n_tables = streams.iter().map(QueryStream::n_tables).max().unwrap_or(0);
        TenantMixStream {
            specs,
            streams,
            heads,
            current: None,
            next_qid: 0,
            n_tables,
        }
    }

    /// The tenant specs this mix was opened from, tenant-index order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Tables per query: the maximum across tenants (narrower tenants
    /// read empty bags for the excess tables).
    pub fn n_tables(&self) -> u32 {
        self.n_tables
    }

    /// Queries the mix emits in total (the sum over tenants).
    pub fn len(&self) -> u64 {
        self.specs.iter().map(|t| t.stream.n_queries()).sum()
    }

    /// Whether the mix is exhausted.
    pub fn is_empty(&self) -> bool {
        self.next_qid >= self.len()
    }

    /// Queries emitted so far.
    pub fn position(&self) -> u64 {
        self.next_qid
    }

    /// Advances to the next query in global arrival order, returning
    /// `(qid, tenant, arrival)`, or `None` when every tenant is
    /// exhausted. Arrivals are non-decreasing; equal arrivals emit the
    /// lower tenant index first.
    pub fn next_query(&mut self) -> Option<(u64, u16, SimTime)> {
        // Replace the emitted query's head: only now may its stream
        // advance (advancing earlier would invalidate its bags).
        if let Some(cur) = self.current.take() {
            self.heads[cur] = self.streams[cur].next_query().map(|(_, at)| at);
        }
        let (tenant, at) = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|at| (i, at)))
            .min_by_key(|&(i, at)| (at, i))?;
        let qid = self.next_qid;
        self.next_qid += 1;
        self.current = Some(tenant);
        Some((qid, tenant as u16, at))
    }

    /// The current query's bag for `table` — valid after a successful
    /// [`Self::next_query`], until the next call. Tables beyond the
    /// emitting tenant's model read as empty.
    ///
    /// # Panics
    ///
    /// Panics if no query has been emitted yet or `table` is outside
    /// the mix's table range.
    pub fn bag(&self, table: u32) -> &[u64] {
        let cur = self.current.expect("bag() before the first next_query()");
        assert!(table < self.n_tables, "table {table} out of range");
        if table >= self.streams[cur].n_tables() {
            return &[];
        }
        self.streams[cur].bag(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::dist::Distribution;
    use crate::trace::TraceSpec;

    fn tenant(name: &str, qos: QosClass, n_tables: u32, qps: f64, seed: u64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            qos,
            stream: QueryStreamSpec {
                trace: TraceSpec {
                    distribution: Distribution::Random,
                    n_tables,
                    rows_per_table: 200,
                    batch_size: 4,
                    n_batches: 3,
                    bag_size: 2,
                    seed,
                },
                arrival: ArrivalProcess::Poisson { qps },
                arrival_seed: seed ^ 0x5eed,
            },
        }
    }

    fn mix() -> TenantMixStream {
        TenantMixStream::new(vec![
            tenant("rank", QosClass::LatencyCritical, 3, 150_000.0, 7),
            tenant("backfill", QosClass::Batch, 2, 100_000.0, 11),
        ])
    }

    #[test]
    fn qos_parse_covers_spellings_and_reports_why_it_rejects() {
        assert_eq!(
            QosClass::parse("latency_critical"),
            Ok(QosClass::LatencyCritical)
        );
        assert_eq!(QosClass::parse("Batch"), Ok(QosClass::Batch));
        assert!(QosClass::parse("gold")
            .unwrap_err()
            .contains("unknown QoS class"));
        for qos in [QosClass::LatencyCritical, QosClass::Batch] {
            assert_eq!(QosClass::parse(qos.label()), Ok(qos));
        }
    }

    #[test]
    fn merge_is_sorted_sequential_and_complete() {
        let mut m = mix();
        assert_eq!(m.len(), 24);
        assert_eq!(m.n_tables(), 3);
        let mut last = SimTime::ZERO;
        let mut per_tenant = [0u64; 2];
        for expect_qid in 0..m.len() {
            let (qid, t, at) = m.next_query().expect("mix too short");
            assert_eq!(qid, expect_qid);
            assert!(at >= last, "arrivals must be non-decreasing");
            last = at;
            per_tenant[t as usize] += 1;
        }
        assert_eq!(per_tenant, [12, 12], "every tenant query emitted once");
        assert_eq!(m.next_query(), None);
        assert!(m.is_empty());
    }

    #[test]
    fn merged_queries_match_their_source_streams() {
        // Every emitted (tenant, bags, arrival) triple must equal the
        // corresponding element of that tenant's standalone stream.
        let specs = mix().specs().to_vec();
        let mut solo: Vec<QueryStream> = specs.iter().map(|t| t.stream.stream()).collect();
        let mut m = mix();
        while let Some((_, t, at)) = m.next_query() {
            let s = &mut solo[t as usize];
            let (_, solo_at) = s.next_query().expect("solo stream too short");
            assert_eq!(at, solo_at);
            for table in 0..s.n_tables() {
                assert_eq!(m.bag(table), s.bag(table));
            }
        }
    }

    #[test]
    fn narrow_tenants_read_empty_bags_for_excess_tables() {
        let mut m = mix();
        loop {
            let (_, t, _) = m.next_query().expect("mix has queries");
            if t == 1 {
                assert_eq!(m.bag(2), &[] as &[u64], "beyond tenant 1's 2 tables");
                assert!(!m.bag(1).is_empty());
                break;
            }
        }
    }

    #[test]
    fn clone_is_a_resumable_checkpoint() {
        let mut m = mix();
        for _ in 0..9 {
            let _ = m.next_query();
        }
        let mut resumed = m.clone();
        loop {
            let a = m.next_query();
            let b = resumed.next_query();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            for table in 0..m.n_tables() {
                assert_eq!(m.bag(table), resumed.bag(table));
            }
        }
    }

    #[test]
    fn equal_arrivals_emit_the_lower_tenant_first() {
        // Two fixed metronomes at the same rate arrive at identical
        // instants: tenant 0 must always precede tenant 1.
        let t0 = TenantSpec {
            name: "a".into(),
            qos: QosClass::LatencyCritical,
            stream: QueryStreamSpec {
                arrival: ArrivalProcess::Fixed { qps: 1_000_000.0 },
                ..tenant("a", QosClass::LatencyCritical, 2, 1.0, 3).stream
            },
        };
        let t1 = TenantSpec {
            name: "b".into(),
            qos: QosClass::Batch,
            stream: QueryStreamSpec {
                arrival: ArrivalProcess::Fixed { qps: 1_000_000.0 },
                ..tenant("b", QosClass::Batch, 2, 1.0, 5).stream
            },
        };
        let mut m = TenantMixStream::new(vec![t0, t1]);
        let mut expect = 0u16;
        while let Some((_, t, _)) = m.next_query() {
            assert_eq!(t, expect, "ties must alternate 0 then 1");
            expect = 1 - expect;
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_mix_rejected() {
        let _ = TenantMixStream::new(Vec::new());
    }
}
