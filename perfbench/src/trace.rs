//! In-memory spans for the traced run.
//!
//! A span records a name, the grid point it belongs to (the request
//! identifier every span of one point shares), its parent, its host-time
//! interval and the heap allocation calls made inside it. Spans stay in
//! memory until the pass ends; aggregation happens afterwards. A span's
//! self time is its duration minus the time its child spans cover.

use std::time::Instant;

/// Heap allocation calls so far in this process.
pub fn alloc_calls() -> u64 {
    simkit::stats::alloc_stats().calls
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub point: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// The point new spans are attributed to.
    pub point: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            point: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Makes room for `n` more spans, so recording them allocates
    /// nothing inside a measured window.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            point: self.point,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push(id);
        let span = &mut self.spans[id as usize];
        span.allocs = alloc_calls();
        span.start_ns = self.t0.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let allocs = alloc_calls();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Per-span self time and self allocations (children subtracted).
    pub fn self_costs(&self) -> Vec<(u64, u64)> {
        let mut costs: Vec<(u64, u64)> =
            self.spans.iter().map(|s| (s.dur_ns(), s.allocs)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let c = &mut costs[p as usize];
                c.0 -= s.dur_ns().min(c.0);
                c.1 -= s.allocs.min(c.1);
            }
        }
        costs
    }
}

/// Totals of the spans selected by a predicate.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub self_allocs: u64,
}

impl Agg {
    pub fn of(tr: &Tracer, costs: &[(u64, u64)], mut keep: impl FnMut(&Span) -> bool) -> Agg {
        let mut a = Agg::default();
        for (s, &(self_ns, self_allocs)) in tr.spans.iter().zip(costs) {
            if keep(s) {
                a.count += 1;
                a.total_ns += s.dur_ns();
                a.self_ns += self_ns;
                a.allocs += s.allocs;
                a.self_allocs += self_allocs;
            }
        }
        a
    }
}
