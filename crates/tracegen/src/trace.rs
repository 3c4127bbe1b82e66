//! The trace container and its generator.

use serde::{Deserialize, Serialize};
use simkit::DetRng;

use crate::dist::{Distribution, Sampler};

/// Row lookups for one table within one batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableLookups {
    /// Table index.
    pub table: u32,
    /// Row indices, sample-major: `batch_size × bag_size` entries.
    pub indices: Vec<u64>,
}

impl TableLookups {
    /// The fixed `bag_size`-per-sample layout (what [`TraceSpec`]
    /// generates).
    pub fn fixed(table: u32, indices: Vec<u64>) -> Self {
        TableLookups { table, indices }
    }
}

/// One inference batch: lookups for every table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Per-table lookup lists (one entry per table).
    pub tables: Vec<TableLookups>,
}

/// A complete embedding-access trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of tables.
    pub n_tables: u32,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Samples per batch.
    pub batch_size: u32,
    /// Lookups per table per sample.
    pub bag_size: u32,
    /// The batches, in arrival order.
    pub batches: Vec<Batch>,
}

impl Trace {
    /// Total row lookups across the whole trace.
    pub fn total_lookups(&self) -> u64 {
        self.batches
            .iter()
            .map(|b| b.tables.iter().map(|t| t.indices.len() as u64).sum::<u64>())
            .sum()
    }

    /// Iterates over `(batch_idx, table, sample, row)` in arrival order.
    pub fn iter_lookups(&self) -> impl Iterator<Item = (usize, u32, u32, u64)> + '_ {
        self.batches.iter().enumerate().flat_map(move |(bi, b)| {
            b.tables.iter().flat_map(move |t| {
                (0..self.batch_size).flat_map(move |s| {
                    self.sample_slice(t, s)
                        .iter()
                        .map(move |&row| (bi, t.table, s, row))
                })
            })
        })
    }

    /// The bag (row indices) for `(table, sample)` within batch `batch`:
    /// `bag_size` rows.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[inline]
    pub fn bag(&self, batch: usize, table: u32, sample: u32) -> &[u64] {
        self.sample_slice(&self.batches[batch].tables[table as usize], sample)
    }

    /// Sample `sample`'s row slice within one table's lookups.
    #[inline]
    fn sample_slice<'a>(&self, t: &'a TableLookups, sample: u32) -> &'a [u64] {
        let start = sample as usize * self.bag_size as usize;
        &t.indices[start..start + self.bag_size as usize]
    }
}

/// Everything needed to generate a [`Trace`] deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Index distribution.
    pub distribution: Distribution,
    /// Number of tables.
    pub n_tables: u32,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Samples per batch.
    pub batch_size: u32,
    /// Number of batches.
    pub n_batches: u32,
    /// Lookups per table per sample.
    pub bag_size: u32,
    /// RNG seed; the same spec always yields the same trace.
    pub seed: u64,
}

impl TraceSpec {
    /// One sampler per table, each on its own fork of the seed's root in
    /// table order: tables have independent popularity structure,
    /// matching per-table skew in production traces. They share the
    /// process-wide Zipf CDF. Both `generate` and
    /// [`QueryStream`](crate::QueryStream) start here, so their draws
    /// agree.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub(crate) fn samplers(&self) -> Vec<Sampler> {
        assert!(
            self.n_tables > 0
                && self.rows_per_table > 0
                && self.batch_size > 0
                && self.n_batches > 0
                && self.bag_size > 0,
            "all trace dimensions must be positive"
        );
        let mut root = DetRng::new(self.seed);
        (0..self.n_tables)
            .map(|_| Sampler::new(self.distribution, self.rows_per_table, root.fork()))
            .collect()
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn generate(&self) -> Trace {
        let mut samplers = self.samplers();
        let mut batches = Vec::with_capacity(self.n_batches as usize);
        for _ in 0..self.n_batches {
            let tables = samplers
                .iter_mut()
                .enumerate()
                .map(|(t, s)| {
                    TableLookups::fixed(
                        t as u32,
                        (0..self.batch_size as u64 * self.bag_size as u64)
                            .map(|_| s.next_index())
                            .collect(),
                    )
                })
                .collect();
            batches.push(Batch { tables });
        }
        Trace {
            n_tables: self.n_tables,
            rows_per_table: self.rows_per_table,
            batch_size: self.batch_size,
            bag_size: self.bag_size,
            batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TraceSpec {
        TraceSpec {
            distribution: Distribution::Random,
            n_tables: 3,
            rows_per_table: 500,
            batch_size: 8,
            n_batches: 4,
            bag_size: 2,
            seed: 11,
        }
    }

    #[test]
    fn generation_matches_dimensions() {
        let t = spec().generate();
        assert_eq!(t.batches.len(), 4);
        assert_eq!(t.batches[0].tables.len(), 3);
        assert_eq!(t.batches[0].tables[0].indices.len(), 16);
        assert_eq!(t.total_lookups(), 4 * 3 * 16);
    }

    // Determinism doubles as the persistence story: the `TraceSpec` is
    // the canonical serialized form of a trace, and regenerating from a
    // stored spec is a lossless round trip. (A JSON round trip of the
    // full `Trace` needs the real serde; the in-tree stand-in only
    // decorates the derives.)
    #[test]
    fn generation_is_deterministic() {
        assert_eq!(spec().generate(), spec().generate());
        let mut other = spec();
        other.seed = 12;
        assert_ne!(spec().generate(), other.generate());
    }

    #[test]
    fn tables_draw_independent_streams() {
        let t = spec().generate();
        assert_ne!(
            t.batches[0].tables[0].indices,
            t.batches[0].tables[1].indices
        );
    }

    #[test]
    fn bag_slicing_is_consistent_with_iteration() {
        let t = spec().generate();
        let bag = t.bag(1, 2, 3);
        assert_eq!(bag.len(), 2);
        let collected: Vec<u64> = t
            .iter_lookups()
            .filter(|&(b, table, sample, _)| b == 1 && table == 2 && sample == 3)
            .map(|(_, _, _, row)| row)
            .collect();
        assert_eq!(collected, bag);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batches_rejected() {
        let mut s = spec();
        s.n_batches = 0;
        let _ = s.generate();
    }
}
