//! Lazy query streaming: the fused trace + arrival iterator.
//!
//! [`TraceSpec::generate`] materializes every batch of every table up
//! front — O(batches × tables × batch_size × bag_size) memory — which
//! caps open-loop experiments at seconds of simulated traffic.
//! [`QueryStream`] walks the *same* deterministic draw sequence one
//! query at a time, holding only the current batch's lookups
//! (regenerated in place when the cursor crosses a batch boundary) plus
//! the per-table sampler states: memory is O(batch), independent of
//! trace length.
//!
//! The equivalence contract is exact, not statistical: for the same
//! [`QueryStreamSpec`], query `q`'s bag for table `t` is byte-identical
//! to `trace.bag(q / batch_size, t, q % batch_size)` of the generated
//! trace, and its timestamp equals `arrival.times(n, arrival_seed)[q]`.
//! This holds because both paths take their per-table samplers from the
//! one constructor, `TraceSpec::samplers`, and then draw
//! `batch_size × bag_size` indices per (batch, table) in the same
//! nesting — the stream simply defers each batch's draws until the
//! cursor reaches it. `tests/stream_equivalence.rs` proves the contract
//! property-based over arbitrary specs.
//!
//! Checkpointing falls out of the representation: `QueryStream` is
//! `Clone`, and a clone *is* a resumable snapshot — sampler RNG
//! cursors, the current batch's buffered lookups, and the arrival
//! generator all travel with it, while the read-only Zipf CDF is
//! shared rather than copied.

use serde::{Deserialize, Serialize};
use simkit::SimTime;

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::dist::Sampler;
use crate::trace::TraceSpec;

/// Everything needed to stream a workload deterministically: the trace
/// recipe plus the arrival process and its seed. This is the value
/// sweep runners ship between workers instead of a materialized
/// [`Trace`](crate::Trace) — a few dozen bytes, not the whole workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryStreamSpec {
    /// The trace recipe (dimensions, distribution, seed).
    pub trace: TraceSpec,
    /// The arrival process queries are timestamped from.
    pub arrival: ArrivalProcess,
    /// Seed of the arrival generator's RNG stream (independent of the
    /// trace seed, matching the separate seeding of
    /// [`ArrivalProcess::times`]).
    pub arrival_seed: u64,
}

impl QueryStreamSpec {
    /// Total queries the stream will emit: `n_batches × batch_size`.
    pub fn n_queries(&self) -> u64 {
        self.trace.n_batches as u64 * self.trace.batch_size as u64
    }

    /// Opens the stream at query 0.
    ///
    /// # Panics
    ///
    /// Panics if any trace dimension is zero or the arrival process is
    /// invalid (same validation as [`TraceSpec::generate`] and
    /// [`ArrivalGen::new`]).
    pub fn stream(&self) -> QueryStream {
        QueryStream::new(*self)
    }
}

/// A lazy, seekable-by-clone query iterator: one `(qid, arrival time)`
/// pair per [`QueryStream::next_query`] call, with the query's per-table
/// bags readable through [`QueryStream::bag`] until the next call.
///
/// # Examples
///
/// ```
/// use tracegen::{ArrivalProcess, Distribution, QueryStreamSpec, TraceSpec};
///
/// let spec = QueryStreamSpec {
///     trace: TraceSpec {
///         distribution: Distribution::Random,
///         n_tables: 2,
///         rows_per_table: 100,
///         batch_size: 4,
///         n_batches: 3,
///         bag_size: 2,
///         seed: 7,
///     },
///     arrival: ArrivalProcess::Fixed { qps: 1_000_000.0 },
///     arrival_seed: 7,
/// };
/// let mut stream = spec.stream();
/// let (qid, at) = stream.next_query().expect("first query");
/// assert_eq!(qid, 0);
/// assert_eq!(at.as_ns(), 0);
/// assert_eq!(stream.bag(0).len(), 2); // bag_size rows per table
///
/// // The stream agrees with the materialized trace, query by query.
/// let trace = spec.trace.generate();
/// assert_eq!(stream.bag(1), trace.bag(0, 1, 0));
/// ```
#[derive(Debug, Clone)]
pub struct QueryStream {
    spec: QueryStreamSpec,
    /// Per-table samplers, built as `generate` builds them.
    samplers: Vec<Sampler>,
    /// Current batch's lookups, one `batch_size × bag_size` buffer per
    /// table, recycled across batches.
    bufs: Vec<Vec<u64>>,
    /// Batches fully drawn so far (the buffers hold batch
    /// `batches_drawn - 1` once positive).
    batches_drawn: u32,
    /// Next query id to emit.
    next_qid: u64,
    arrivals: ArrivalGen,
}

impl QueryStream {
    /// Opens a stream for `spec` (see [`QueryStreamSpec::stream`]).
    pub fn new(spec: QueryStreamSpec) -> QueryStream {
        let t = &spec.trace;
        // The samplers TraceSpec::generate draws from.
        let samplers = t.samplers();
        let per_table = t.batch_size as usize * t.bag_size as usize;
        let bufs = (0..t.n_tables)
            .map(|_| Vec::with_capacity(per_table))
            .collect();
        QueryStream {
            spec,
            samplers,
            bufs,
            batches_drawn: 0,
            next_qid: 0,
            arrivals: ArrivalGen::new(spec.arrival, spec.arrival_seed),
        }
    }

    /// The spec this stream was opened from.
    pub fn spec(&self) -> &QueryStreamSpec {
        &self.spec
    }

    /// Number of tables per query.
    pub fn n_tables(&self) -> u32 {
        self.spec.trace.n_tables
    }

    /// Queries emitted so far (the next [`QueryStream::next_query`]
    /// returns qid `position()` while it lasts).
    pub fn position(&self) -> u64 {
        self.next_qid
    }

    /// Queries this stream emits in total.
    pub fn len(&self) -> u64 {
        self.spec.n_queries()
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.next_qid >= self.len()
    }

    /// Advances to the next query, returning its id and arrival time,
    /// or `None` once `n_batches × batch_size` queries have been
    /// emitted. Query ids count up from 0; timestamps are the arrival
    /// process's non-decreasing stream.
    pub fn next_query(&mut self) -> Option<(u64, SimTime)> {
        if self.next_qid >= self.len() {
            return None;
        }
        let qid = self.next_qid;
        let t = &self.spec.trace;
        // Crossing into an undrawn batch: replay generate's inner loop
        // for exactly that batch (per table, batch_size × bag_size
        // sequential draws) into the recycled buffers.
        if qid == self.batches_drawn as u64 * t.batch_size as u64 {
            let per_table = t.batch_size as usize * t.bag_size as usize;
            for (s, buf) in self.samplers.iter_mut().zip(&mut self.bufs) {
                buf.clear();
                s.fill(per_table, buf);
            }
            self.batches_drawn += 1;
        }
        self.next_qid += 1;
        Some((qid, self.arrivals.next_time()))
    }

    /// The current query's bag (row indices) for `table` — valid after
    /// a successful [`QueryStream::next_query`], until the next call.
    ///
    /// # Panics
    ///
    /// Panics if no query has been emitted yet or `table` is out of
    /// range.
    pub fn bag(&self, table: u32) -> &[u64] {
        assert!(self.next_qid > 0, "bag() before the first next_query()");
        let t = &self.spec.trace;
        let sample = ((self.next_qid - 1) % t.batch_size as u64) as usize;
        let start = sample * t.bag_size as usize;
        &self.bufs[table as usize][start..start + t.bag_size as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

    fn spec() -> QueryStreamSpec {
        QueryStreamSpec {
            trace: TraceSpec {
                distribution: Distribution::MetaLike {
                    reuse_frac: 0.35,
                    s: 1.05,
                },
                n_tables: 3,
                rows_per_table: 500,
                batch_size: 8,
                n_batches: 4,
                bag_size: 2,
                seed: 11,
            },
            arrival: ArrivalProcess::Poisson { qps: 100_000.0 },
            arrival_seed: 2024,
        }
    }

    #[test]
    fn stream_matches_materialized_trace_and_arrivals() {
        let spec = spec();
        let trace = spec.trace.generate();
        let times = spec
            .arrival
            .times(spec.n_queries() as usize, spec.arrival_seed);
        let mut stream = spec.stream();
        for expect_qid in 0..spec.n_queries() {
            let (qid, at) = stream.next_query().expect("stream too short");
            assert_eq!(qid, expect_qid);
            assert_eq!(at, times[qid as usize]);
            let batch = (qid / spec.trace.batch_size as u64) as usize;
            let sample = (qid % spec.trace.batch_size as u64) as u32;
            for table in 0..spec.trace.n_tables {
                assert_eq!(
                    stream.bag(table),
                    trace.bag(batch, table, sample),
                    "qid {qid} table {table}"
                );
            }
        }
        assert_eq!(stream.next_query(), None, "stream must end at capacity");
    }

    #[test]
    fn clone_is_a_resumable_checkpoint() {
        let mut stream = spec().stream();
        for _ in 0..13 {
            let _ = stream.next_query();
        }
        let mut resumed = stream.clone();
        loop {
            let a = stream.next_query();
            let b = resumed.next_query();
            assert_eq!(a, b);
            for table in 0..stream.n_tables() {
                assert_eq!(stream.bag(table), resumed.bag(table));
            }
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn position_and_len_track_the_cursor() {
        let mut stream = spec().stream();
        assert_eq!(stream.len(), 32);
        assert_eq!(stream.position(), 0);
        assert!(!stream.is_empty());
        while stream.next_query().is_some() {}
        assert_eq!(stream.position(), 32);
        assert!(stream.is_empty());
    }

    #[test]
    #[should_panic(expected = "before the first next_query")]
    fn bag_before_first_query_rejected() {
        let stream = spec().stream();
        let _ = stream.bag(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimensions_rejected() {
        let mut s = spec();
        s.trace.n_batches = 0;
        let _ = s.stream();
    }
}
