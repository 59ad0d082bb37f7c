//! A forwarding [`Scheduler`] that times every protocol call from the
//! outside — the traced run's `sched` layer. Nothing inside the program is
//! instrumented: the executor or engine drives this wrapper exactly as it
//! would drive the scheduler itself.

use incr_dag::NodeId;
use incr_sched::{CompletionBatch, CostMeter, Scheduler};
use std::time::{Duration, Instant};

/// What the wrapper measured over the updates it drove.
#[derive(Debug, Default)]
pub struct SchedTrace {
    /// Time spent inside scheduler calls.
    pub busy: Duration,
    /// Per update, first call (`start`) to the end of the last call: the
    /// drive as the scheduler sees it. Time outside it is the caller's
    /// work before the drive and after quiescence.
    pub span: Duration,
    /// Abstract operations charged to the cost meter (`Scheduler::cost`).
    pub cost_ops: u64,
    /// Tasks handed out by `pop_batch` / `pop_ready`.
    pub popped: u64,
    /// Pop calls that handed out at least one task.
    pub nonempty_pops: u64,
    /// Updates driven (`start` calls).
    pub updates: u64,
}

pub struct Timed<'a> {
    inner: &'a mut dyn Scheduler,
    trace: &'a mut SchedTrace,
    span_start: Option<Instant>,
    last_end: Instant,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn Scheduler, trace: &'a mut SchedTrace) -> Timed<'a> {
        Timed {
            inner,
            trace,
            span_start: None,
            last_end: Instant::now(),
        }
    }

    /// Close the last update's span and cost. Call once the executor or
    /// engine driving this wrapper has returned.
    pub fn finish(mut self) {
        self.close_update();
    }

    fn close_update(&mut self) {
        if let Some(s) = self.span_start.take() {
            self.trace.span += self.last_end.saturating_duration_since(s);
            // The meter accumulates over one run and resets on `start`.
            self.trace.cost_ops += self.inner.cost().total_ops();
        }
    }

    fn time<R>(&mut self, call: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t0 = Instant::now();
        let r = call(&mut *self.inner);
        let t1 = Instant::now();
        self.trace.busy += t1 - t0;
        self.last_end = t1;
        r
    }

    fn popped(&mut self, n: usize) {
        self.trace.popped += n as u64;
        self.trace.nonempty_pops += (n > 0) as u64;
    }
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn start(&mut self, initial_active: &[NodeId]) {
        self.close_update();
        self.trace.updates += 1;
        let t0 = Instant::now();
        self.span_start = Some(t0);
        self.inner.start(initial_active);
        let t1 = Instant::now();
        self.trace.busy += t1 - t0;
        self.last_end = t1;
    }

    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.time(|s| s.on_completed(v, fired));
    }

    fn pop_ready(&mut self) -> Option<NodeId> {
        let r = self.time(|s| s.pop_ready());
        self.popped(r.is_some() as usize);
        r
    }

    fn pop_batch(&mut self, out: &mut Vec<NodeId>, max: usize) -> usize {
        let n = self.time(|s| s.pop_batch(out, max));
        self.popped(n);
        n
    }

    fn complete_batch(&mut self, batch: &CompletionBatch) {
        self.time(|s| s.complete_batch(batch));
    }

    fn is_quiescent(&self) -> bool {
        // `&self`: cannot record; it is a flag read in every scheduler.
        self.inner.is_quiescent()
    }

    fn cost(&self) -> CostMeter {
        self.inner.cost()
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }

    fn precompute_bytes(&self) -> usize {
        self.inner.precompute_bytes()
    }

    fn on_external_dispatch(&mut self, v: NodeId) {
        self.time(|s| s.on_external_dispatch(v));
    }

    fn gauges(&self) -> Vec<(&'static str, i64)> {
        self.inner.gauges()
    }
}
