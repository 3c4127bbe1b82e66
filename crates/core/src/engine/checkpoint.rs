//! Checkpointed warm-starts for streaming open-loop runs.
//!
//! A [`SimCheckpoint`] is a deep copy of the two stateful halves of a
//! streaming serving run at a query boundary: the [`SlsSystem`] (plant
//! timing state, page placement, hotness, scratch, and the in-progress
//! [`open_loop`](SlsSystem::open_loop_begin) session — RNG cursors live
//! inside the stream; batcher queue, histograms and the measurement
//! window inside the session) and the [`QueryStream`] cursor feeding
//! it. Because
//! every piece of simulation state is plain `Clone` data — there is no
//! hidden global state, thread-local, or wall-clock input anywhere in
//! the engine — capture is a pure deep copy and resume is provably
//! byte-identical to never having stopped: the differential suite
//! (`tests/streaming_equivalence.rs`) checkpoints at *every* dispatch
//! epoch and compares full metrics against the straight-through run.
//!
//! The intended use is sweep warm-starts: points that share a workload
//! prefix (for example a duration axis over one diurnal trace) run the
//! prefix once, checkpoint, and each longer point resumes from the
//! deepest captured prefix instead of replaying from zero.

#![deny(missing_docs)]

use tracegen::QueryStream;

use crate::system::SlsSystem;

/// A resumable snapshot of a streaming open-loop run: the system (with
/// its active session) plus the query-stream cursor, captured together
/// at a query boundary.
#[derive(Clone)]
pub struct SimCheckpoint {
    system: SlsSystem,
    stream: QueryStream,
}

impl SimCheckpoint {
    /// Captures the pair as-is. Typically called between
    /// [`SlsSystem::open_loop_push`] calls — i.e. after [`advance`]ing
    /// some number of queries — but any consistent (system, stream)
    /// moment works, including before `open_loop_begin`.
    pub fn capture(system: &SlsSystem, stream: &QueryStream) -> SimCheckpoint {
        SimCheckpoint {
            system: system.clone(),
            stream: stream.clone(),
        }
    }

    /// Queries the captured stream has emitted — the checkpoint's
    /// position on the workload's query axis.
    pub fn position(&self) -> u64 {
        self.stream.position()
    }

    /// A fresh resumable copy: the checkpoint itself stays intact, so
    /// several sweep points can warm-start from the same prefix.
    pub fn resume(&self) -> (SlsSystem, QueryStream) {
        (self.system.clone(), self.stream.clone())
    }
}

/// Pushes up to `n` queries from `stream` into `system`'s active
/// open-loop session; returns how many were pushed (fewer only when
/// the stream ran dry). The session keeps running — follow with more
/// [`advance`] calls, a [`SimCheckpoint::capture`], or
/// [`SlsSystem::open_loop_finish`].
///
/// # Panics
///
/// Panics if no session is active.
pub fn advance(system: &mut SlsSystem, stream: &mut QueryStream, n: u64) -> u64 {
    let mut pushed = 0;
    while pushed < n {
        let Some((_, at)) = stream.next_query() else {
            break;
        };
        system.open_loop_push(at, &*stream);
        pushed += 1;
    }
    pushed
}
