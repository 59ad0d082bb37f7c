//! `replay-wide`: trace #6 replayed on the threaded executor under Hybrid.
//! Exercises the scheduler (`incr-sched`) and the dispatch pipeline
//! (`incr-runtime`); the Datalog layers are not involved.

use crate::report::{ms, quantile, ratio, LayerRow, Report, Rng, SetupSampler};
use crate::timed::{SchedTrace, Timed};
use incr_dag::NodeId;
use incr_runtime::{infallible, ExecConfig, Executor, StreamPolicy, StreamUpdate, TaskFn};
use incr_sched::SchedulerKind;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct updates drawn per seed; the run cycles through them.
const POOL: usize = 64;
/// Updates per `run_stream` call (one warm worker pool each).
const CHUNK: usize = 16;
/// Each update dirties one in `SAMPLE` of the trace's initial tasks.
const SAMPLE: u64 = 8;

/// Executed-task counter with one cache line per worker, so counting adds
/// no cross-thread contention to the task body.
struct TaskCounter {
    slots: Vec<Slot>,
}

#[repr(align(128))]
struct Slot(AtomicU64);

const SLOTS: usize = 64;
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static MY_SLOT: Cell<usize> = Cell::new(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
}

impl TaskCounter {
    fn new() -> TaskCounter {
        TaskCounter {
            slots: (0..SLOTS).map(|_| Slot(AtomicU64::new(0))).collect(),
        }
    }

    fn inc(&self) {
        let i = MY_SLOT.with(Cell::get);
        self.slots[i].0.fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// Size of the set of tasks an update executes: its dirty tasks plus
/// everything reachable from them along recorded `fired` edges. Computed
/// by BFS, independently of any scheduler.
fn fired_closure(fired: &[Vec<NodeId>], initial: &[NodeId]) -> usize {
    let mut seen = vec![false; fired.len()];
    let mut queue: Vec<NodeId> = Vec::new();
    for &v in initial {
        if !seen[v.index()] {
            seen[v.index()] = true;
            queue.push(v);
        }
    }
    let mut i = 0;
    while i < queue.len() {
        for &c in &fired[queue[i].index()] {
            if !seen[c.index()] {
                seen[c.index()] = true;
                queue.push(c);
            }
        }
        i += 1;
    }
    queue.len()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();

    // Inputs: the trace and the seeded update samples (not set-up time).
    let (inst, _) = incr_traces::generate(&incr_traces::preset(6));
    let dag = inst.dag.clone();
    let mut rng = Rng::new(seed);
    let pool: Vec<StreamUpdate> = (0..POOL)
        .map(|_| {
            let dirty: Vec<NodeId> = inst
                .initial_active
                .iter()
                .copied()
                .filter(|_| rng.below(SAMPLE) == 0)
                .collect();
            StreamUpdate::now(dirty)
        })
        .collect();
    let expected: Vec<usize> = pool
        .iter()
        .map(|u| fired_closure(&inst.fired, &u.initial))
        .collect();
    let fired = Arc::new(inst.fired);

    // Set-up: Hybrid's precompute (levels, interval lists) over the DAG.
    let build = || SchedulerKind::Hybrid.build(dag.clone());
    let mut setups = SetupSampler::new();
    let mut sched = setups.time(build);

    let workers = crate::report::nproc().saturating_sub(1).max(1);
    let mut cfg = ExecConfig::new(workers);
    cfg.black_box = None;
    let exec = Executor::with_config(cfg);
    let counter = Arc::new(TaskCounter::new());
    let task: TaskFn = {
        let fired = fired.clone();
        let counter = counter.clone();
        Arc::new(move |v, out: &mut Vec<NodeId>| {
            counter.inc();
            out.extend_from_slice(&fired[v.index()]);
        })
    };
    let task = infallible(task);
    let reg = incr_obs::registry();
    let inflight = reg.gauge("exec.in_flight");
    let coord_wait = reg.counter("exec.coord_wait_ns");
    let worker_busy = reg.counter("exec.worker_busy_ns");

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut st = SchedTrace::default();
    let (mut wait_ns, mut busy_ns) = (0u64, 0u64);
    let mut traced_tasks = 0u64;
    let mut peaks = Vec::new();
    let mut committed = 0u64;
    let mut measured_wall = Duration::ZERO;

    let deadline = Duration::from_secs_f64(seconds);
    let t_start = Instant::now();
    let mut chunk_no = 0usize;
    // Chunk 0 warms the pool, caches and allocator and is not measured;
    // in a traced run odd chunks go through the timing wrapper and even
    // ones run plain, so both halves see the same conditions.
    while chunk_no == 0 || t_start.elapsed() < deadline {
        if setups.due() {
            drop(setups.time(build));
        }
        let first = (chunk_no * CHUNK) % POOL;
        let chunk = &pool[first..first + CHUNK];
        let timed = trace && chunk_no % 2 == 1;
        let mut executed = Vec::with_capacity(CHUNK);
        let mut chunk_peaks = Vec::with_capacity(CHUNK);
        let mut last = counter.total();
        let mut on_commit = |_| {
            let now = counter.total();
            executed.push(now - last);
            last = now;
            chunk_peaks.push(inflight.peak() as f64);
        };
        let (w0, b0) = (coord_wait.get(), worker_busy.get());
        let c0 = Instant::now();
        let result = if timed {
            let mut t = Timed::new(sched.as_mut(), &mut st);
            let r = exec.run_stream_committed(
                &mut t,
                &dag,
                chunk,
                task.clone(),
                &StreamPolicy::serial(),
                None,
                &mut on_commit,
            );
            t.finish();
            r
        } else {
            exec.run_stream_committed(
                sched.as_mut(),
                &dag,
                chunk,
                task.clone(),
                &StreamPolicy::serial(),
                None,
                &mut on_commit,
            )
        };
        let chunk_wall = c0.elapsed();
        match result {
            Ok(report) => {
                for (i, &n) in executed.iter().enumerate() {
                    let want = expected[first + i] as u64;
                    rep.check((n != want).then(|| {
                        format!(
                            "update {}: executed {n} tasks, fired closure has {want}",
                            first + i
                        )
                    }));
                }
                if chunk_no > 0 {
                    committed += report.updates as u64;
                    measured_wall += chunk_wall;
                    let lat = report.update_seconds.iter().map(|s| s * 1e3);
                    if timed {
                        traced_ms.extend(lat);
                        wait_ns += coord_wait.get() - w0;
                        busy_ns += worker_busy.get() - b0;
                        traced_tasks += report.executed as u64;
                        peaks.extend_from_slice(&chunk_peaks);
                    } else {
                        plain_ms.extend(lat);
                    }
                }
            }
            Err(e) => {
                for _ in 0..CHUNK {
                    rep.check(Some(format!("stream failed: {e}")));
                }
            }
        }
        chunk_no += 1;
    }

    rep.samples.push(("updates", plain_ms.len() as u64));
    rep.samples.push(("setups", setups.count()));
    rep.metric("setup_s", setups.median_s(), "s");
    rep.metric("update_ms_p50", quantile(&plain_ms, 0.5), "ms");
    rep.metric("update_ms_p90", quantile(&plain_ms, 0.9), "ms");
    rep.metric(
        "updates_per_s",
        ratio(committed as f64, measured_wall.as_secs_f64()),
        "1/s",
    );
    if trace {
        rep.samples.push(("traced_updates", traced_ms.len() as u64));
        let n = traced_ms.len() as f64;
        let wall_ms: f64 = traced_ms.iter().sum::<f64>();
        let sched_ms = ms(st.busy);
        let wait_ms = wait_ns as f64 / 1e6;
        let dispatch_ms = ms(st.span) - sched_ms - wait_ms;
        rep.metric("sched.busy_ms_per_update", ratio(sched_ms, n), "ms");
        rep.metric(
            "sched.ns_per_task",
            ratio(sched_ms * 1e6, traced_tasks as f64),
            "ns",
        );
        rep.metric(
            "sched.cost_units_per_task",
            ratio(st.cost_ops as f64, traced_tasks as f64),
            "count",
        );
        rep.metric(
            "sched.tasks_per_pop_batch",
            ratio(st.popped as f64, st.nonempty_pops as f64),
            "count",
        );
        rep.metric(
            "runtime.dispatch_ms_per_update",
            ratio(dispatch_ms, n),
            "ms",
        );
        rep.metric("runtime.coord_wait_ms_per_update", ratio(wait_ms, n), "ms");
        rep.metric(
            "runtime.worker_busy_frac",
            ratio(busy_ns as f64 / 1e6, wall_ms * workers as f64),
            "frac",
        );
        rep.metric("runtime.in_flight_peak", quantile(&peaks, 0.5), "count");
        rep.metric(
            "runtime.tasks_per_update",
            ratio(traced_tasks as f64, n),
            "count",
        );
        rep.metric(
            "bench.trace_overhead_frac",
            ratio(quantile(&traced_ms, 0.5), quantile(&plain_ms, 0.5)) - 1.0,
            "frac",
        );
        rep.set_rows(
            vec![
                LayerRow {
                    name: "sched",
                    ms_per_update: ratio(sched_ms, n),
                },
                LayerRow {
                    name: "runtime.dispatch",
                    ms_per_update: ratio(dispatch_ms, n),
                },
                LayerRow {
                    name: "runtime.coord_wait",
                    ms_per_update: ratio(wait_ms, n),
                },
            ],
            ratio(wall_ms, n),
        );
    }
    rep
}
