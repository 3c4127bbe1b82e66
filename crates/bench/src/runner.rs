//! The parallel sweep runner: executes scenario work across a
//! `std::thread` worker pool and collects rows back in grid order.
//!
//! The schedulable unit is one grid point. Points are handed out in grid
//! order by an atomic cursor, so a worker that finishes early takes the
//! next unclaimed point. Each point writes its row payload into the slot
//! reserved for it, and rows are read out in point order — so the
//! emitted rows, and therefore the summarized figure JSON, are
//! bit-identical for any thread count, which
//! `tests/runner_determinism.rs` asserts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde_json::Value;

use crate::scenario::{Point, ResultRow, Scenario};

/// Executes scenario grids on a fixed-size worker pool.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    /// Worker threads (1 = the serial reference path).
    pub threads: usize,
}

/// What one sweep cost: wall time, points run, and the number of
/// simulated events (DRAM line accesses, link transfers, switch
/// transits — see [`simkit::stats::record_events`]) its simulations
/// recorded. `events / wall` is the simulator-throughput figure the
/// `repro -- all` summary table reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Grid points executed.
    pub points: usize,
    /// Simulated events recorded across all workers.
    pub events: u64,
}

impl RunStats {
    /// Simulated events per wall-clock second (0.0 when unmeasurable).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::with_default_threads()
    }
}

impl SweepRunner {
    /// A runner with an explicit thread count (minimum 1).
    pub fn new(threads: usize) -> SweepRunner {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// A runner sized to the machine's available hardware parallelism.
    pub fn with_default_threads() -> SweepRunner {
        SweepRunner::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Runs every point of `scenario`'s default grid. Rows come back in
    /// grid order regardless of which worker finished first.
    pub fn run(&self, scenario: &dyn Scenario) -> Vec<ResultRow> {
        self.run_points(scenario, scenario.points())
    }

    /// Runs an explicit point list (the `sweep` subcommand's override
    /// grids) through the pool.
    pub fn run_points(&self, scenario: &dyn Scenario, points: Vec<Point>) -> Vec<ResultRow> {
        self.run_points_stats(scenario, points).0
    }

    /// [`Self::run`] plus the sweep's [`RunStats`].
    pub fn run_stats(&self, scenario: &dyn Scenario) -> (Vec<ResultRow>, RunStats) {
        self.run_points_stats(scenario, scenario.points())
    }

    /// Runs `points` through the pool, also reporting [`RunStats`].
    pub fn run_points_stats(
        &self,
        scenario: &dyn Scenario,
        points: Vec<Point>,
    ) -> (Vec<ResultRow>, RunStats) {
        let started = std::time::Instant::now();
        let slots: Vec<Mutex<Option<Value>>> = points.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let events = AtomicU64::new(0);
        let workers = self.threads.min(points.len()).max(1);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let events_before = simkit::stats::events_recorded();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else { break };
                        let value = scenario.run(point);
                        *slots[i].lock().expect("runner slot poisoned") = Some(value);
                    }
                    let delta = simkit::stats::events_recorded() - events_before;
                    events.fetch_add(delta, Ordering::Relaxed);
                });
            }
        });

        let rows: Vec<ResultRow> = slots
            .into_iter()
            .zip(&points)
            .map(|(slot, point)| ResultRow {
                index: point.index,
                params: point.params().to_vec(),
                data: slot
                    .into_inner()
                    .expect("runner slot poisoned")
                    .expect("every point produced a value"),
            })
            .collect();
        let stats = RunStats {
            wall: started.elapsed(),
            points: rows.len(),
            events: events.load(Ordering::Relaxed),
        };
        (rows, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{cartesian_points, ParamSpec};
    use serde_json::json;

    struct Doubler;
    impl Scenario for Doubler {
        fn id(&self) -> &'static str {
            "doubler"
        }
        fn title(&self) -> &'static str {
            "test scenario"
        }
        fn params(&self) -> Vec<ParamSpec> {
            vec![ParamSpec::u64s("x", 0..32)]
        }
        fn run(&self, point: &Point) -> Value {
            json!(point.u64("x") * 2)
        }
        fn summarize(&self, rows: &[ResultRow]) -> Value {
            Value::Array(rows.iter().map(|r| r.data.clone()).collect())
        }
    }

    #[test]
    fn rows_come_back_in_grid_order_for_any_thread_count() {
        let serial = SweepRunner::new(1).run(&Doubler);
        for threads in [2, 5, 32] {
            let parallel = SweepRunner::new(threads).run(&Doubler);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.to_jsonl(), b.to_jsonl());
            }
        }
    }

    #[test]
    fn pool_never_spawns_more_workers_than_points() {
        // A 1-point grid with 8 requested threads must still complete.
        let mut points = cartesian_points(&[ParamSpec::u64s("x", [3])]);
        assert_eq!(points.len(), 1);
        let rows = SweepRunner::new(8).run_points(&Doubler, std::mem::take(&mut points));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].data, json!(6u64));
    }

    #[test]
    fn stats_report_points_and_events() {
        let (rows, stats) = SweepRunner::new(2).run_stats(&Doubler);
        assert_eq!(stats.points, rows.len());
        assert_eq!(stats.events, 0); // no simulation behind Doubler
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert_eq!(SweepRunner::new(0).threads, 1);
        assert!(SweepRunner::with_default_threads().threads >= 1);
    }
}
