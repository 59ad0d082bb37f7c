//! End-to-end benchmark of the incremental-maintenance engine: three
//! workloads, end-to-end latency and throughput with tracing off, and a
//! separate traced run that splits each update's wall time by layer.
//! Workloads, metrics and their definitions are in `README.md`.
//!
//! ```text
//! e2ebench --workload <replay-wide|attack-rw|tc-delete|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable table, then a `host` stamp line, and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`). Exits 1 when any update, read or check failed, 2 on a
//! usage error.

mod datalog;
mod replay;
mod report;
mod timed;

use incr_obs::json::{obj, Json};
use report::Report;

const WORKLOADS: [&str; 3] = ["replay-wide", "attack-rw", "tc-delete"];

/// The end-to-end metrics every untraced run reports in its result. The
/// table also prints `update_ms_p50` and the read metrics; README.md says
/// why they stay out of the result.
const END_TO_END: [(&str, &str); 4] = [
    ("update_ms_p90", "ms"),
    ("updates_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports in its result; a layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("sched.busy_ms_per_update", "ms"),
    ("sched.ns_per_task", "ns"),
    ("sched.cost_units_per_task", "count"),
    ("sched.tasks_per_pop_batch", "count"),
    ("runtime.dispatch_ms_per_update", "ms"),
    ("runtime.coord_wait_ms_per_update", "ms"),
    ("runtime.worker_busy_frac", "frac"),
    ("runtime.in_flight_peak", "count"),
    ("runtime.tasks_per_update", "count"),
    ("datalog.dred.overdelete_ms_per_update", "ms"),
    ("datalog.dred.rederive_ms_per_update", "ms"),
    ("datalog.dred.insert_ms_per_update", "ms"),
    ("datalog.fbf.forward_ms_per_update", "ms"),
    ("datalog.fbf.saved_deletes_per_update", "count"),
    ("datalog.fbf.backward_checks_per_update", "count"),
    ("datalog.index.hit_ratio", "frac"),
    ("datalog.scan.full_per_update", "count"),
    ("datalog.tasks_per_update", "count"),
    ("datalog.changed_tuples_per_update", "count"),
    ("datalog.other_ms_per_update", "ms"),
    ("datalog.par.cpu_per_wall", "ratio"),
    ("mvcc.publish_ms_per_update", "ms"),
    ("mvcc.rows_retained_peak", "count"),
    ("mvcc.snapshot_open_us_p50", "us"),
    ("mvcc.query_us_p50", "us"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Report {
    let mut rep = match name {
        "replay-wide" => replay::run(args.seed, args.seconds, args.trace),
        "attack-rw" => datalog::run(datalog::Kind::Attack, args.seed, args.seconds, args.trace),
        "tc-delete" => datalog::run(datalog::Kind::Tc, args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are validated"),
    };
    rep.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    rep.metric(
        "ops_failed_frac",
        report::ratio(rep.failed as f64, rep.attempted as f64),
        "frac",
    );
    rep
}

fn print_report(name: &str, rep: &Report) {
    println!("== {name}");
    for m in &rep.metrics {
        println!("  {:<42} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !rep.rows.is_empty() {
        let wall: f64 = rep.rows.iter().map(|r| r.ms_per_update).sum();
        println!("  layer rows of the traced update wall (ms/update, share):");
        for r in &rep.rows {
            println!(
                "    {:<28} {:>10.4} {:>7.1}%",
                r.name,
                r.ms_per_update,
                100.0 * report::ratio(r.ms_per_update, wall)
            );
        }
        println!("    {:<28} {:>10.4}", "traced update wall", wall);
    }
    for f in &rep.failures {
        println!("  FAILED: {f}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    for &name in &names {
        let rep = run_workload(name, &args);
        print_report(name, &rep);
        attempted += rep.attempted;
        failed += rep.failed;
        // With several workloads each metric name is prefixed by its
        // workload; a single-workload result uses the bare names.
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        for &(metric, unit) in wanted {
            let value = rep.get(metric).unwrap_or(0.0);
            metrics.push((
                format!("{prefix}{metric}"),
                obj([("value", value.into()), ("unit", unit.into())]),
            ));
        }
        for &(k, v) in &rep.samples {
            samples.push((format!("{prefix}{k}"), v.into()));
        }
    }

    let host = obj([
        ("nproc", report::nproc().into()),
        ("cpu", report::cpu_model().into()),
        ("commit", report::code_version().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", Json::Bool(args.trace)),
        ("workload", args.workload.as_str().into()),
        ("samples", Json::Obj(samples)),
    ]);
    println!("host {}", host.to_json());
    let correct = failed == 0;
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    if !correct {
        std::process::exit(1);
    }
}
