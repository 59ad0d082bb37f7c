//! The two Datalog workloads, sharing one update loop:
//!
//! * `attack-rw` — the MulVAL attack graph under FBF maintenance with one
//!   closed-loop snapshot reader beside the writer (`incr-datalog` FBF,
//!   `mvcc`).
//! * `tc-delete` — transitive closure over one big SCC under DRed with
//!   the parallel evaluator (DRed overdelete/rederive, joins, `par`).
//!
//! Both run under Hybrid, with the engine driving the scheduler itself;
//! the threaded executor is idle.

use crate::report::{ms, quantile, ratio, LayerRow, Report, Rng, SetupSampler};
use crate::timed::{SchedTrace, Timed};
use incr_bench::attack::ATTACK_RULES;
use incr_bench::{AttackConfig, AttackWorkload};
use incr_datalog::{EvalOptions, FactEdit, IncrementalEngine, MaintenanceStrategy};
use incr_obs::Counter;
use incr_sched::SchedulerKind;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Updates run before measuring (checked, not timed).
const WARMUP: usize = 5;

/// Edits per `attack-rw` update, half of them deletions.
const ATTACK_EDITS: usize = 40;

/// `tc-delete` graph size and edges deleted per update.
const TC_NODES: u64 = 80;
const TC_DELETES: usize = 2;

const TC_RULES: &str = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n";

/// The base facts as `pred(a, b)` lines, kept beside the engine so the
/// final state can be rematerialized from scratch.
struct BaseFacts {
    rules: &'static str,
    facts: BTreeSet<String>,
}

impl BaseFacts {
    fn from_program(rules: &'static str, src: &str) -> BaseFacts {
        let facts = src
            .lines()
            .map(str::trim)
            .filter(|l| !l.contains(":-") && l.ends_with('.'))
            .map(|l| l.trim_end_matches('.').to_string())
            .collect();
        BaseFacts { rules, facts }
    }

    fn apply(&mut self, edits: &[FactEdit]) {
        for e in edits {
            let line = format!("{}({})", e.pred_name(), e.arg_texts().join(", "));
            match e {
                FactEdit::Add { .. } => self.facts.insert(line),
                FactEdit::Remove { .. } => self.facts.remove(&line),
            };
        }
    }

    fn source(&self) -> String {
        let mut src = String::from(self.rules);
        for f in &self.facts {
            src.push_str(f);
            src.push_str(".\n");
        }
        src
    }
}

/// The `tc-delete` edit stream: each update deletes a few present edges
/// and re-inserts the ones the previous update deleted, so every update
/// mixes both directions and their latencies form one mode.
struct TcEdits {
    rng: Rng,
    present: Vec<(String, String)>,
    deleted: Vec<(String, String)>,
}

impl TcEdits {
    fn next(&mut self) -> Vec<FactEdit> {
        let mut edits: Vec<FactEdit> = self
            .deleted
            .iter()
            .map(|(a, b)| FactEdit::add("edge", &[a, b]))
            .collect();
        let mut now_deleted = Vec::new();
        for _ in 0..TC_DELETES.min(self.present.len()) {
            let i = self.rng.below(self.present.len() as u64) as usize;
            let (a, b) = self.present.swap_remove(i);
            edits.push(FactEdit::remove("edge", &[&a, &b]));
            now_deleted.push((a, b));
        }
        self.present.append(&mut self.deleted);
        self.deleted = now_deleted;
        edits
    }
}

/// One base predicate's facts, split into present and absent.
struct Pool {
    pred: &'static str,
    present: Vec<Vec<String>>,
    absent: Vec<Vec<String>>,
}

/// The `attack-rw` edit stream over the network [`AttackWorkload`]
/// builds: each update swaps `ATTACK_EDITS / 2` present facts for absent
/// facts of the same predicate, so half of every update is deletions and
/// each base relation keeps its size. (`AttackWorkload::batch` lets the
/// sizes random-walk instead: its 120-fact `vuln` universe drains or
/// fills within a few hundred updates, and the cost of an update moves
/// by about 2x with it, so a run's figures would depend on where the
/// walk happened to go.)
struct AttackEdits {
    rng: Rng,
    pools: Vec<Pool>,
}

impl AttackEdits {
    fn new(cfg: &AttackConfig, base: &BaseFacts, rng: Rng) -> AttackEdits {
        let mut universes: Vec<(&'static str, Vec<Vec<String>>)> = vec![
            ("service", Vec::new()),
            ("hacl", Vec::new()),
            ("vuln", Vec::new()),
        ];
        for a in 0..cfg.hosts {
            for p in 0..cfg.programs {
                universes[0].1.push(vec![format!("h{a}"), format!("p{p}")]);
            }
            for b in (0..cfg.hosts).filter(|&b| b != a) {
                universes[1].1.push(vec![format!("h{a}"), format!("h{b}")]);
            }
        }
        universes[2].1 = (0..cfg.programs).map(|p| vec![format!("p{p}")]).collect();
        let pools = universes
            .into_iter()
            .map(|(pred, all)| {
                let (present, absent) = all
                    .into_iter()
                    .partition(|args| base.facts.contains(&format!("{pred}({})", args.join(", "))));
                Pool {
                    pred,
                    present,
                    absent,
                }
            })
            .collect();
        AttackEdits { rng, pools }
    }

    fn next(&mut self) -> Vec<FactEdit> {
        let mut edits = Vec::with_capacity(ATTACK_EDITS);
        for _ in 0..ATTACK_EDITS / 2 {
            let k = self.rng.below(self.pools.len() as u64) as usize;
            let pool = &mut self.pools[k];
            if pool.present.is_empty() || pool.absent.is_empty() {
                continue;
            }
            let gone = pool
                .present
                .swap_remove(self.rng.below(pool.present.len() as u64) as usize);
            let back = pool
                .absent
                .swap_remove(self.rng.below(pool.absent.len() as u64) as usize);
            edits.push(FactEdit::Remove {
                pred: pool.pred.into(),
                args: gone.clone(),
            });
            edits.push(FactEdit::Add {
                pred: pool.pred.into(),
                args: back.clone(),
            });
            pool.present.push(back);
            pool.absent.push(gone);
        }
        edits
    }
}

/// Ring of `n` nodes (one SCC, closure of n² paths) plus two seeded
/// random out-edges per node — the `datalog_perf` TC graph.
fn tc_graph(n: u64, rng: &mut Rng) -> (String, Vec<(String, String)>) {
    let mut edges = BTreeSet::new();
    for i in 0..n {
        edges.insert((format!("v{i}"), format!("v{}", (i + 1) % n)));
        edges.insert((format!("v{i}"), format!("v{}", rng.below(n))));
        edges.insert((format!("v{i}"), format!("v{}", rng.below(n))));
    }
    let mut src = String::from(TC_RULES);
    for (a, b) in &edges {
        src.push_str(&format!("edge({a}, {b}).\n"));
    }
    (src, edges.into_iter().collect())
}

/// What the closed-loop reader measured.
#[derive(Default)]
struct ReadStats {
    open_us: Vec<f64>,
    query_us: Vec<f64>,
    total_ms: Vec<f64>,
    wall: Duration,
    failures: Vec<String>,
}

/// One closed-loop reader: pin a snapshot, answer a seeded pattern
/// query, release, repeat until `stop`. Checks that pinned epochs never
/// go backwards.
fn reader_loop(
    engine_reader: incr_datalog::ReaderHandle,
    hosts: u64,
    seed: u64,
    stop: &AtomicBool,
) -> ReadStats {
    let mut rng = Rng::new(seed ^ 0x7ead);
    let mut st = ReadStats::default();
    let mut last_epoch = 0u64;
    let t_start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let pattern = format!("two_hop(h{}, ?)", rng.below(hosts));
        let t0 = Instant::now();
        let snap = engine_reader.snapshot();
        let t1 = Instant::now();
        let result = snap.query(&pattern);
        let t2 = Instant::now();
        let epoch = snap.epoch();
        drop(snap);
        st.open_us.push((t1 - t0).as_secs_f64() * 1e6);
        st.query_us.push((t2 - t1).as_secs_f64() * 1e6);
        st.total_ms.push(ms(t2 - t0));
        let err = match result {
            Err(e) => Some(format!("read {pattern}: {e}")),
            Ok(_) if epoch < last_epoch => Some(format!(
                "read pinned epoch {epoch} after epoch {last_epoch}"
            )),
            Ok(_) => None,
        };
        st.failures.extend(err);
        last_epoch = last_epoch.max(epoch);
    }
    st.wall = t_start.elapsed();
    st
}

/// Program counters read around each traced update.
struct Counters {
    names: Vec<(&'static str, Arc<Counter>)>,
}

impl Counters {
    const NAMES: [&'static str; 10] = [
        "datalog.dred.overdelete_ns",
        "datalog.dred.rederive_ns",
        "datalog.dred.insert_ns",
        "datalog.fbf.forward_rederive_ns",
        "datalog.fbf.count_saved_deletes",
        "datalog.fbf.backward_checks",
        "datalog.index.hit",
        "datalog.index.miss",
        "datalog.scan.full",
        "mvcc.publish_ns",
    ];

    fn new() -> Counters {
        let reg = incr_obs::registry();
        Counters {
            names: Self::NAMES.iter().map(|&n| (n, reg.counter(n))).collect(),
        }
    }

    fn read(&self) -> Vec<u64> {
        self.names.iter().map(|(_, c)| c.get()).collect()
    }

    fn add_delta(&self, acc: &mut [u64], before: &[u64]) {
        for (i, (_, c)) in self.names.iter().enumerate() {
            acc[i] += c.get() - before[i];
        }
    }

    fn sum(&self, acc: &[u64], name: &str) -> f64 {
        let i = Self::NAMES
            .iter()
            .position(|&n| n == name)
            .expect("known counter");
        acc[i] as f64
    }
}

enum EditStream {
    Attack(AttackEdits),
    Tc(TcEdits),
}

impl EditStream {
    fn next(&mut self) -> Vec<FactEdit> {
        match self {
            EditStream::Attack(a) => a.next(),
            EditStream::Tc(t) => t.next(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Attack,
    Tc,
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();

    // Inputs (not set-up time): program text and the edit stream.
    let (src, mut base, opts, mut stream) = match kind {
        Kind::Attack => {
            let mut rng = Rng::new(seed);
            let cfg = AttackConfig {
                seed: rng.next_u64(),
                ..AttackConfig::full()
            };
            let src = AttackWorkload::new(&cfg).program().to_string();
            let base = BaseFacts::from_program(ATTACK_RULES, &src);
            let stream = EditStream::Attack(AttackEdits::new(&cfg, &base, rng));
            let opts = EvalOptions::sequential().with_maintenance(MaintenanceStrategy::Fbf);
            (src, base, opts, stream)
        }
        Kind::Tc => {
            let mut rng = Rng::new(seed);
            let (src, edges) = tc_graph(TC_NODES, &mut rng);
            let base = BaseFacts::from_program(TC_RULES, &src);
            let stream = EditStream::Tc(TcEdits {
                rng,
                present: edges,
                deleted: Vec::new(),
            });
            (src, base, EvalOptions::default(), stream)
        }
    };

    // Set-up: parse, stratify, materialize (and FBF counts), plus
    // Hybrid's precompute over the task DAG.
    let build = || {
        IncrementalEngine::with_options(&src, opts.clone()).map(|e| {
            let sched = SchedulerKind::Hybrid.build(e.dag().clone());
            (e, sched)
        })
    };
    let mut setups = SetupSampler::new();
    let (mut engine, mut sched) = match setups.time(build) {
        Ok(b) => b,
        Err(e) => {
            rep.check(Some(format!("program failed to materialize: {e}")));
            return rep;
        }
    };

    let counters = Counters::new();
    let rows_retained = incr_obs::registry().gauge("mvcc.rows_retained");
    let mut acc = vec![0u64; Counters::NAMES.len()];
    let mut st = SchedTrace::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut traced_tasks, mut traced_changed) = (0u64, 0u64);
    let mut traced_cpu_s = 0.0;
    let mut retained_peak = 0i64;
    let mut committed = 0u64;
    let mut measured_wall = Duration::ZERO;
    let mut paused = Duration::ZERO;

    let stop = AtomicBool::new(false);
    let reader = engine.reader();
    let reads = std::thread::scope(|scope| {
        let reader_thread = (kind == Kind::Attack).then(|| {
            let stop = &stop;
            let hosts = AttackConfig::full().hosts;
            scope.spawn(move || reader_loop(reader, hosts, seed, stop))
        });
        let deadline = Duration::from_secs_f64(seconds);
        let mut t_measure = None;
        let mut i = 0usize;
        while i < WARMUP || t_measure.is_none_or(|t: Instant| t.elapsed() < deadline) {
            if i == WARMUP {
                t_measure = Some(Instant::now());
            }
            if setups.due() {
                let t0 = Instant::now();
                drop(setups.time(build));
                if t_measure.is_some() {
                    paused += t0.elapsed();
                }
            }
            let edits = stream.next();
            // In a traced run odd updates go through the timing wrapper
            // and even ones run plain, so both see the same conditions.
            let timed = trace && i % 2 == 1 && i >= WARMUP;
            let before = if timed { counters.read() } else { Vec::new() };
            let cpu0 = if timed {
                crate::report::process_cpu_s()
            } else {
                0.0
            };
            let t0 = Instant::now();
            let result = if timed {
                let mut t = Timed::new(sched.as_mut(), &mut st);
                let r = engine.update(&mut t, &edits);
                t.finish();
                r
            } else {
                engine.update(sched.as_mut(), &edits)
            };
            let dt = ms(t0.elapsed());
            match result {
                Ok(report) => {
                    rep.check(None);
                    base.apply(&edits);
                    if i >= WARMUP {
                        committed += 1;
                        if timed {
                            traced_ms.push(dt);
                            traced_cpu_s += crate::report::process_cpu_s() - cpu0;
                            counters.add_delta(&mut acc, &before);
                            traced_tasks += report.tasks_executed as u64;
                            traced_changed += report
                                .pred_changes
                                .values()
                                .map(|&(a, r)| (a + r) as u64)
                                .sum::<u64>();
                            retained_peak = retained_peak.max(rows_retained.get());
                        } else {
                            plain_ms.push(dt);
                        }
                    }
                }
                Err(e) => rep.check(Some(format!("update {i}: {e}"))),
            }
            i += 1;
        }
        measured_wall = t_measure
            .map_or(Duration::ZERO, |t| t.elapsed())
            .saturating_sub(paused);
        stop.store(true, Ordering::Relaxed);
        reader_thread.map(|h| h.join().expect("reader thread panicked"))
    });

    // Correctness: the maintained head equals a fresh materialization of
    // the final base facts (sequential DRed, a different configuration
    // from the one maintained), and a snapshot taken now equals head.
    let head = engine.database().image_at(None);
    match IncrementalEngine::with_options(&base.source(), EvalOptions::sequential()) {
        Ok(fresh) => {
            let want = fresh.database().image_at(None);
            rep.check((head != want).then(|| {
                format!(
                    "final head ({} facts) differs from a fresh materialization ({} facts)",
                    head.len(),
                    want.len()
                )
            }));
        }
        Err(e) => rep.check(Some(format!("fresh materialization failed: {e}"))),
    }
    let snap_image = engine.reader().snapshot().image();
    rep.check((snap_image != head).then(|| "final snapshot image differs from head".to_string()));

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
    if let Some(r) = &reads {
        rep.tally(r.total_ms.len() as u64, &r.failures);
        rep.samples.push(("reads", r.total_ms.len() as u64));
        rep.metric("read_ms_p50", quantile(&r.total_ms, 0.5), "ms");
        rep.metric("read_ms_p90", quantile(&r.total_ms, 0.9), "ms");
        rep.metric(
            "reads_per_s",
            ratio(r.total_ms.len() as f64, r.wall.as_secs_f64()),
            "1/s",
        );
    }
    if trace {
        rep.samples.push(("traced_updates", traced_ms.len() as u64));
        let n = traced_ms.len() as f64;
        let per = |x: f64| ratio(x, n);
        let ns_ms = |name: &str| counters.sum(&acc, name) / 1e6;
        let wall_ms: f64 = traced_ms.iter().sum();
        let sched_ms = ms(st.busy);
        let dred = [
            (
                "datalog.dred.overdelete",
                ns_ms("datalog.dred.overdelete_ns"),
            ),
            ("datalog.dred.rederive", ns_ms("datalog.dred.rederive_ns")),
            ("datalog.dred.insert", ns_ms("datalog.dred.insert_ns")),
        ];
        let forward_ms = ns_ms("datalog.fbf.forward_rederive_ns");
        let publish_ms = ns_ms("mvcc.publish_ns");
        // Engine time inside the drive that no named phase covers.
        let other_ms = ms(st.span) - sched_ms - dred.iter().map(|d| d.1).sum::<f64>() - forward_ms;
        let hits = counters.sum(&acc, "datalog.index.hit");
        let misses = counters.sum(&acc, "datalog.index.miss");

        rep.metric("sched.busy_ms_per_update", per(sched_ms), "ms");
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
            "datalog.dred.overdelete_ms_per_update",
            per(dred[0].1),
            "ms",
        );
        rep.metric("datalog.dred.rederive_ms_per_update", per(dred[1].1), "ms");
        rep.metric("datalog.dred.insert_ms_per_update", per(dred[2].1), "ms");
        rep.metric("datalog.fbf.forward_ms_per_update", per(forward_ms), "ms");
        rep.metric(
            "datalog.fbf.saved_deletes_per_update",
            per(counters.sum(&acc, "datalog.fbf.count_saved_deletes")),
            "count",
        );
        rep.metric(
            "datalog.fbf.backward_checks_per_update",
            per(counters.sum(&acc, "datalog.fbf.backward_checks")),
            "count",
        );
        rep.metric(
            "datalog.index.hit_ratio",
            ratio(hits, hits + misses),
            "frac",
        );
        rep.metric(
            "datalog.scan.full_per_update",
            per(counters.sum(&acc, "datalog.scan.full")),
            "count",
        );
        rep.metric(
            "datalog.tasks_per_update",
            per(traced_tasks as f64),
            "count",
        );
        rep.metric(
            "datalog.changed_tuples_per_update",
            per(traced_changed as f64),
            "count",
        );
        rep.metric("datalog.other_ms_per_update", per(other_ms), "ms");
        rep.metric(
            "datalog.par.cpu_per_wall",
            ratio(traced_cpu_s * 1e3, wall_ms),
            "ratio",
        );
        rep.metric("mvcc.publish_ms_per_update", per(publish_ms), "ms");
        rep.metric("mvcc.rows_retained_peak", retained_peak as f64, "count");
        if let Some(r) = &reads {
            rep.metric("mvcc.snapshot_open_us_p50", quantile(&r.open_us, 0.5), "us");
            rep.metric("mvcc.query_us_p50", quantile(&r.query_us, 0.5), "us");
        }
        rep.metric(
            "bench.trace_overhead_frac",
            ratio(quantile(&traced_ms, 0.5), quantile(&plain_ms, 0.5)) - 1.0,
            "frac",
        );
        let mut rows = vec![LayerRow {
            name: "sched",
            ms_per_update: per(sched_ms),
        }];
        rows.extend(dred.iter().map(|&(name, v)| LayerRow {
            name,
            ms_per_update: per(v),
        }));
        rows.push(LayerRow {
            name: "datalog.fbf.forward",
            ms_per_update: per(forward_ms),
        });
        rows.push(LayerRow {
            name: "datalog.other",
            ms_per_update: per(other_ms),
        });
        rows.push(LayerRow {
            name: "mvcc.publish",
            ms_per_update: per(publish_ms),
        });
        rep.set_rows(rows, per(wall_ms));
    }
    rep
}
