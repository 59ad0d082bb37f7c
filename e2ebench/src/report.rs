//! What one workload run hands back, the statistics over its samples, and
//! the process-level measurements (memory, CPU time, host identity).

use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A layer row of the traced breakdown: milliseconds per traced update.
/// The rows of one workload sum to its traced update wall.
#[derive(Clone, Debug)]
pub struct LayerRow {
    pub name: &'static str,
    pub ms_per_update: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Updates, reads and correctness checks attempted.
    pub attempted: u64,
    /// Of those, the ones that returned an error or failed their check.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Traced runs only: the layer rows of the update wall.
    pub rows: Vec<LayerRow>,
    /// Sample counts stamped on the result (`updates`, `reads`, ...).
    pub samples: Vec<(&'static str, u64)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Count one attempted operation; `err` describes its failure.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            // Enough lines to diagnose; a systematic failure would
            // otherwise print one line per update.
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Count `attempted` operations of which `failures` failed.
    pub fn tally(&mut self, attempted: u64, failures: &[String]) {
        for f in failures {
            self.check(Some(f.clone()));
        }
        self.attempted += attempted - failures.len() as u64;
    }

    /// Add the rows and the unattributed remainder of `wall_ms`, and
    /// report `bench.unattributed_frac`.
    pub fn set_rows(&mut self, rows: Vec<LayerRow>, wall_ms: f64) {
        let attributed: f64 = rows.iter().map(|r| r.ms_per_update).sum();
        let rest = wall_ms - attributed;
        self.rows = rows;
        self.rows.push(LayerRow {
            name: "unattributed",
            ms_per_update: rest,
        });
        self.metric("bench.unattributed_frac", ratio(rest, wall_ms), "frac");
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How often a run repeats its set-up between updates.
const SETUP_EVERY: Duration = Duration::from_secs(2);

/// `setup_s` sampled across the whole run: the host's speed drifts over
/// seconds, so set-up is timed once at the start and again every
/// [`SETUP_EVERY`] between updates, and the median is reported.
pub struct SetupSampler {
    times: Vec<f64>,
    last: Instant,
}

impl SetupSampler {
    pub fn new() -> SetupSampler {
        SetupSampler {
            times: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Time one construction and return what it built.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = build();
        self.times.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        built
    }

    /// Whether the next between-updates set-up is due.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= SETUP_EVERY
    }

    pub fn median_s(&self) -> f64 {
        quantile(&self.times, 0.5)
    }

    pub fn count(&self) -> u64 {
        self.times.len() as u64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed by every thread of this process so far, in seconds
/// (`utime + stime` of `/proc/self/stat`, at clock-tick resolution).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    (ticks(11) + ticks(12)) / 100.0
}

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured: `git rev-parse HEAD` where the checkout is
/// a git repository, else an FNV-1a hash of the Rust sources under
/// `crates/` and `src/` (prefixed `src-`), so a result still names the
/// code it measured.
pub fn code_version() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let head = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !head.is_empty() {
            return head;
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "src"] {
        collect_rs(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
