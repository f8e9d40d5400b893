//! # campaign-bench — the paper's campaign, end to end and layer by layer
//!
//! Three workloads, each a campaign built through the public
//! `grid_campaign` API (`CampaignSpec` → `expand` → `execute` with a
//! `ResultCache`), measure what a user of the campaign engine waits for:
//! draining a plan into an empty cache, resuming it from the warm cache,
//! and reporting it. A separate traced pass attaches `Obs::enabled()`
//! through [`simulate_observed`] and splits the simulation time into the
//! layers the engine's own spans cover, next to the benchmark's timed
//! calls into `workload`, `campaign.cache`, `ser` and
//! `campaign.aggregate`.
//!
//! Every run checks its outputs: a digest of every `RunRecord::encode()`
//! in plan order plus the rendered report must agree between the drain,
//! the resume, the report's cache reads and every simulation pass, and
//! equal the pinned digest at the default seed's traces. Engine counts
//! that the passes report more than once must repeat exactly. See
//! `README.md` for why each workload exists.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use grid_batch::ClusterStats;
use grid_campaign::exec::simulate_observed;
use grid_campaign::{
    aggregate, execute, CampaignPlan, CampaignSpec, ExecOptions, ResultCache, RunRecord, RunUnit,
};
use grid_metrics::RunOutcome;
use grid_obs::Obs;
use grid_ser::{stable_hash128, Value};
use grid_workload::Scenario;

/// Version of the result layout and of the workload definitions; a
/// result only compares with results of the same schema.
pub const SCHEMA: &str = "campaign-bench/1";

/// The seed the pinned output digests belong to.
pub const DEFAULT_SEED: u64 = 42;

/// The workload seed of the paper campaign (`CampaignSpec::paper()`).
/// Traces whose simulation cost swings by an order of magnitude between
/// seeds at the benchmark's fractions stay on it for every `--seed`, so
/// a run-to-run bound can hold: all of `paper-364` and `fcfs-deep` (see
/// `README.md`).
const PAPER_SEED: u64 = 42;

/// The six Grid'5000 months (every paper scenario but pwa-g5k).
const MONTHS: [Scenario; 6] = [
    Scenario::Jan,
    Scenario::Feb,
    Scenario::Mar,
    Scenario::Apr,
    Scenario::May,
    Scenario::Jun,
];

/// Seeds swept by `seed-sweep`: this many, starting at the seed argument.
const SWEEP_SEEDS: u64 = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full 364-run paper matrix at a small fraction.
    Paper364,
    /// The months' reference runs (no reallocation) at a deep fraction.
    FcfsDeep,
    /// The months' full matrix at a tiny fraction over ten seeds.
    SeedSweep,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Paper364, Workload::FcfsDeep, Workload::SeedSweep];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper364 => "paper-364",
            Workload::FcfsDeep => "fcfs-deep",
            Workload::SeedSweep => "seed-sweep",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-site job-count fraction the workload runs at.
    pub fn fraction(self) -> f64 {
        match self {
            Workload::Paper364 => 0.0075,
            Workload::FcfsDeep => 0.35,
            Workload::SeedSweep => 0.005,
        }
    }

    /// Executor threads: two where the host has them, never more than
    /// it has. `fcfs-deep` is 24 long runs and stays on one thread, so
    /// its drain time is the simulation's, not the executor's packing.
    pub fn threads(self) -> usize {
        match self {
            Workload::FcfsDeep => 1,
            Workload::Paper364 | Workload::SeedSweep => nproc().min(2),
        }
    }

    /// Digest of the drained records and report at [`DEFAULT_SEED`] and
    /// the workload's own fraction.
    fn pinned_digest(self) -> &'static str {
        match self {
            Workload::Paper364 => "47a1cb5db2a2a509aa8cb994adf2fe0c",
            Workload::FcfsDeep => "1cb7fb85479795d8f53b6d3c5cef6620",
            Workload::SeedSweep => "ad0ec40eee4ed2b65d34b637b503589c",
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One benchmark input: a workload at a seed and a fraction.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Which campaign.
    pub workload: Workload,
    /// Workload seed (the first of the sweep for `seed-sweep`).
    pub seed: u64,
    /// Per-site job-count fraction.
    pub fraction: f64,
}

impl Case {
    /// The workload at `seed` and its own fraction.
    pub fn new(workload: Workload, seed: u64) -> Case {
        Case {
            workload,
            seed,
            fraction: workload.fraction(),
        }
    }

    /// The trace seeds the case actually runs: the paper seed for
    /// `paper-364` and `fcfs-deep` whatever `seed` is, and
    /// `seed..seed+9` for `seed-sweep`.
    pub fn trace_seeds(&self) -> Vec<u64> {
        match self.workload {
            Workload::Paper364 | Workload::FcfsDeep => vec![PAPER_SEED],
            Workload::SeedSweep => (0..SWEEP_SEEDS)
                .map(|i| self.seed.wrapping_add(i))
                .collect(),
        }
    }

    /// The campaign this case drains.
    fn campaign(&self) -> Campaign {
        let mut spec = CampaignSpec::paper();
        spec.name = format!("bench-{}", self.workload.name());
        spec.fraction = self.fraction;
        spec.seeds = self.trace_seeds();
        if self.workload != Workload::Paper364 {
            spec.scenarios = MONTHS.to_vec();
        }
        if self.workload == Workload::FcfsDeep {
            // No reallocation axis: the plan is the reference runs.
            spec.algorithms.clear();
            spec.heuristics.clear();
        }
        let plan = spec.expand();
        Campaign { spec, plan }
    }

    /// The digest this case must reproduce, when one is pinned: the
    /// default seed's, whenever the case runs the same traces at the
    /// workload's own fraction.
    pub fn pinned_digest(&self) -> Option<&'static str> {
        let default = Case::new(self.workload, DEFAULT_SEED);
        (self.trace_seeds() == default.trace_seeds() && self.fraction == default.fraction)
            .then(|| self.workload.pinned_digest())
    }

    /// Check a digest against the pinned one, if any.
    pub fn check_pinned(&self, digest: &str, what: &str) -> Result<(), String> {
        match self.pinned_digest() {
            Some(pinned) if pinned != digest => Err(format!(
                "{} {what}: output digest {digest} differs from the pinned {pinned}",
                self.workload.name()
            )),
            _ => Ok(()),
        }
    }
}

/// Hash of one unit's canonical record bytes.
fn record_hash(unit: &RunUnit, outcome: &RunOutcome) -> String {
    stable_hash128(RunRecord::new(unit, outcome.clone()).encode().as_bytes())
}

/// Per-unit record hashes in plan order; a missing outcome is an error.
fn record_hashes(
    units: &[RunUnit],
    outcomes: &[Option<RunOutcome>],
) -> Result<Vec<String>, String> {
    units
        .iter()
        .zip(outcomes)
        .map(|(unit, outcome)| match outcome {
            Some(o) => Ok(record_hash(unit, o)),
            None => Err(format!("{}: no outcome", unit.label())),
        })
        .collect()
}

/// The output digest: every record hash in plan order, then the report.
fn digest(record_hashes: &[String], report: &str) -> String {
    let mut all = record_hashes.join("\n");
    all.push('\n');
    all.push_str(&stable_hash128(report.as_bytes()));
    stable_hash128(all.as_bytes())
}

/// The output check: `what`'s digest must equal the drain's.
fn check_digest(what: &str, digest: &str, drain_digest: &str) -> Result<(), String> {
    if digest != drain_digest {
        return Err(format!(
            "{what} digest {digest} differs from the drain digest {drain_digest}"
        ));
    }
    Ok(())
}

/// What a case drains: one campaign spec and its expanded plan.
struct Campaign {
    spec: CampaignSpec,
    plan: CampaignPlan,
}

impl Campaign {
    /// The plan's units, in plan order.
    fn units(&self) -> &[RunUnit] {
        &self.plan.units
    }

    /// Read every unit's record back from `cache`, in unit order.
    fn load(&self, cache: &ResultCache) -> Result<Vec<Option<RunOutcome>>, String> {
        self.units()
            .iter()
            .map(|unit| match cache.load(unit) {
                Some(record) => Ok(Some(record.outcome)),
                None => Err(format!("{}: no readable record in the cache", unit.label())),
            })
            .collect()
    }

    /// The report a user reads: the paper tables and the CSV export.
    fn report(&self, outcomes: &[Option<RunOutcome>]) -> Result<String, String> {
        let results = aggregate(&self.spec, &self.plan, outcomes)?;
        Ok(results.render_tables() + &results.to_csv())
    }
}

/// User + system CPU seconds this process has used (Linux `/proc`,
/// 10 ms resolution).
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "/proc/self/stat: malformed CPU times".to_string())
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// A scratch directory removed again on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `path` afresh.
    pub fn create(path: impl Into<PathBuf>) -> Result<WorkDir, String> {
        let path = path.into();
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// A subdirectory path that does not exist yet.
    fn fresh(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for WorkDir {
    /// Remove the directory and settle the file system, so the deferred
    /// work of the removal does not spill into whatever runs next.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        settle_file_system();
    }
}

/// Wait for the file system's deferred work (dirty pages, journal
/// commits, block discards of deleted files) to finish, so that a timed
/// step does not pay for the files of an earlier one. Best effort:
/// without a `sync` program the run goes on unsettled.
fn settle_file_system() {
    let _ = std::process::Command::new("sync").status();
}

/// Median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run of the benchmark produced. A unit that panics or
/// whose record cannot be stored fails the run before an outcome
/// exists, so every outcome has no failed units.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Run units attempted.
    pub attempted: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail (the per-layer table) for stderr.
    pub detail: String,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::object();
        for m in &self.metrics {
            let mut v = Value::object();
            v.insert("value", m.value);
            v.insert("unit", m.unit);
            metrics.insert(m.name, v);
        }
        let mut v = Value::object();
        v.insert("correct", true);
        v.insert("attempted", self.attempted);
        v.insert("failed", 0u64);
        v.insert("metrics", metrics);
        v
    }
}

/// Engine counts that every pass over the same plan must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    ticks: u64,
    migrations: u64,
    first_fit_probes: u64,
}

impl Counts {
    fn add(&mut self, outcome: &RunOutcome, stats: &[ClusterStats]) {
        self.ticks += outcome.total_ticks;
        self.migrations += outcome.total_reallocations;
        self.first_fit_probes += stats.iter().map(|s| s.first_fit_probes).sum::<u64>();
    }

    /// Counts of a drained cache: outcomes plus the sidecars' stats.
    fn of_drain(
        units: &[RunUnit],
        outcomes: &[Option<RunOutcome>],
        cache: &ResultCache,
    ) -> Result<Counts, String> {
        let mut counts = Counts::default();
        for (unit, outcome) in units.iter().zip(outcomes) {
            let outcome = outcome
                .as_ref()
                .ok_or_else(|| format!("{}: no outcome", unit.label()))?;
            counts.add(outcome, &[]);
            counts.first_fit_probes += cache
                .load_obs(unit)
                .and_then(|side| {
                    side.get("cluster_stats")?
                        .as_arr()?
                        .iter()
                        .try_fold(0u64, |acc, s| {
                            Some(acc + s.get("first_fit_probes").map_or(Some(0), Value::as_u64)?)
                        })
                })
                .ok_or_else(|| format!("{}: unreadable telemetry sidecar", unit.label()))?;
        }
        Ok(counts)
    }

    fn check_same(&self, other: &Counts, what: &str) -> Result<(), String> {
        if self != other {
            return Err(format!(
                "engine counts differ between passes ({what}): {self:?} vs {other:?}"
            ));
        }
        Ok(())
    }
}

/// Resume and report repeat within a cycle until this much time is spent
/// on each (at least [`MIN_REPEATS`] times): they are short next to the
/// drain, and a median over many calls is what makes them steady.
const REPEAT_BUDGET: Duration = Duration::from_millis(500);

/// Fewest resume and report calls per cycle.
const MIN_REPEATS: usize = 3;

/// Set-up samples per cycle. Set-up is microseconds, so a run takes many,
/// spread over its cycles like the other timings, and reports their
/// median.
const SETUP_SAMPLES: usize = 100;

/// Call `f` until [`REPEAT_BUDGET`] is spent and at least
/// [`MIN_REPEATS`] times, pushing each call's seconds onto `samples`.
fn repeat<T>(
    samples: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let started = Instant::now();
    let mut calls = 0;
    loop {
        let t = Instant::now();
        let value = f()?;
        samples.push(t.elapsed().as_secs_f64());
        calls += 1;
        if calls >= MIN_REPEATS && started.elapsed() >= REPEAT_BUDGET {
            return Ok(value);
        }
    }
}

/// Timings of the drain/resume/report cycles of one run.
#[derive(Debug, Default)]
pub struct Cycles {
    setup_s: Vec<f64>,
    drain_s: Vec<f64>,
    cpu_s: Vec<f64>,
    resume_s: Vec<f64>,
    report_s: Vec<f64>,
    units: u64,
    /// Digest and engine counts of the first cycle, which every later
    /// cycle must reproduce.
    first: Option<(String, Counts)>,
}

/// A drained, checked cache whose reads are still to come.
pub struct Drain {
    campaign: Campaign,
    cache: ResultCache,
    digest: String,
}

impl Drain {
    /// The drained plan's units.
    pub fn units(&self) -> &[RunUnit] {
        self.campaign.units()
    }

    /// The cache the drain filled.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }
}

impl Cycles {
    /// One drain → resume → report cycle into a fresh cache.
    fn run(&mut self, case: &Case, work: &WorkDir) -> Result<(), String> {
        let drain = self.drain(case, work)?;
        self.read_back(case, &drain)
    }

    /// Set up, drain the plan into a fresh cache and check the drain.
    pub fn drain(&mut self, case: &Case, work: &WorkDir) -> Result<Drain, String> {
        self.setup_s.extend(setup_samples(case, work)?);
        let campaign = case.campaign();
        let units = campaign.units();
        let n = units.len();
        let dir = work.fresh("cache");
        let cache = ResultCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        settle_file_system();

        let cpu0 = cpu_seconds()?;
        let t = Instant::now();
        let (drained, summary) = execute(units, Some(&cache), &exec_options(case));
        self.drain_s.push(t.elapsed().as_secs_f64());
        self.cpu_s.push(cpu_seconds()? - cpu0);
        self.units += n as u64;
        if let Some(f) = summary.failures.iter().chain(&summary.store_errors).next() {
            return Err(format!(
                "{} of {n} units failed; first: {}: {}",
                summary.failures.len() + summary.store_errors.len(),
                f.unit,
                f.message
            ));
        }

        // Check the drain, then drop its outcomes before timing the
        // reads, so those start from the same heap in every cycle.
        let digest = digest(
            &record_hashes(units, &drained)?,
            &campaign.report(&drained)?,
        );
        case.check_pinned(&digest, "drain")?;
        let counts = Counts::of_drain(units, &drained, &cache)?;
        drop(drained);
        if case.workload == Workload::FcfsDeep && counts.ticks != 0 {
            return Err(format!("fcfs-deep ran {} reallocation ticks", counts.ticks));
        }
        match &self.first {
            None => self.first = Some((digest.clone(), counts)),
            Some((first, c)) => {
                check_digest("repeated drain", &digest, first)?;
                c.check_same(&counts, "repeated drains")?;
            }
        }
        Ok(Drain {
            campaign,
            cache,
            digest,
        })
    }

    /// Resume the drained plan from its cache and report it, each
    /// repeated, and check both against the drain.
    pub fn read_back(&mut self, case: &Case, drain: &Drain) -> Result<(), String> {
        let (campaign, cache) = (&drain.campaign, &drain.cache);
        let units = campaign.units();
        let n = units.len();
        let opts = exec_options(case);
        let resumed = repeat(&mut self.resume_s, || {
            let (resumed, again) = execute(units, Some(cache), &opts);
            self.units += n as u64;
            if again.cached != n {
                return Err(format!(
                    "resume answered {} of {n} units from the cache",
                    again.cached
                ));
            }
            Ok(resumed)
        })?;
        let resumed = record_hashes(units, &resumed)?;
        let (loaded, report) = repeat(&mut self.report_s, || {
            let loaded = campaign.load(cache)?;
            let report = campaign.report(&loaded)?;
            Ok((loaded, report))
        })?;
        let loaded = record_hashes(units, &loaded)?;
        check_digest("resume", &digest(&resumed, &report), &drain.digest)?;
        check_digest("report", &digest(&loaded, &report), &drain.digest)
    }
}

/// The executor options of a case: its thread count, nothing printed.
fn exec_options(case: &Case) -> ExecOptions {
    ExecOptions {
        threads: Some(case.workload.threads()),
        ..ExecOptions::default()
    }
}

/// Set-up as a user pays it before the first unit runs: build the specs,
/// expand the plan, open the cache. The cache directory is created
/// before the clock starts; creating a directory took 5 to 370 µs
/// between processes on the development VM, which would drown the
/// program's own set-up.
fn setup_samples(case: &Case, work: &WorkDir) -> Result<Vec<f64>, String> {
    let dir = work.fresh("setup");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let campaign = case.campaign();
        let cache = ResultCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        samples.push(t.elapsed().as_secs_f64());
        std::hint::black_box((campaign, cache));
    }
    Ok(samples)
}

/// Untraced end-to-end run: drain/resume/report cycles until `budget`
/// is spent (at least `min_cycles`), reporting per-metric medians.
pub fn end_to_end(
    case: &Case,
    work: &WorkDir,
    budget: Duration,
    min_cycles: u32,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut cycles = Cycles::default();
    let mut done = 0;
    loop {
        cycles.run(case, work)?;
        done += 1;
        // Stop when another cycle of the mean length would overrun.
        let per_cycle = started.elapsed() / done;
        if done >= min_cycles && started.elapsed() + per_cycle > budget {
            break;
        }
    }
    let metrics = vec![
        metric("drain_s", "s", median(&cycles.drain_s)),
        metric("cpu_s", "s", median(&cycles.cpu_s)),
        metric("resume_s", "s", median(&cycles.resume_s)),
        metric("report_s", "s", median(&cycles.report_s)),
        metric("setup_s", "s", median(&cycles.setup_s)),
        metric("peak_rss_mib", "MiB", peak_rss_mib()?),
    ];
    let digest = cycles.first.as_ref().map_or("", |(d, _)| d.as_str());
    let detail = format!(
        "{done} cycles ({} resumes, {} reports, {} set-ups); drains {:.3?} s, CPU {:.2?} s; \
         digest {digest}",
        cycles.resume_s.len(),
        cycles.report_s.len(),
        cycles.setup_s.len(),
        cycles.drain_s,
        cycles.cpu_s,
    );
    Ok(Outcome {
        attempted: cycles.units,
        metrics,
        detail,
    })
}

/// Map `f` over `0..n` on `threads` workers pulling indices off a
/// shared cursor, returning results in index order. This is how
/// `execute` hands out units, so a pass idles where the executor does.
fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // Relaxed: the cursor only hands out indices.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a simulation panicked in a benchmark pass"))
            .collect()
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// Everything one simulation pass over the plan reports.
#[derive(Debug, Default)]
struct Pass {
    /// Wall time of the whole pass, seconds.
    wall_s: f64,
    /// Per-unit wall time of `simulate_observed`, seconds.
    walls: Vec<f64>,
    hashes: Vec<String>,
    counts: Counts,
    /// Span totals by name, nanoseconds, and span counts.
    spans: BTreeMap<&'static str, (u64, u128)>,
    counters: BTreeMap<&'static str, u64>,
    events: u64,
    active_ticks: u64,
    stats: ClusterStats,
    bucket_spills: u64,
}

impl Pass {
    fn run(units: &[RunUnit], threads: usize, traced: bool) -> Pass {
        let started = Instant::now();
        let per_unit = par_map(units.len(), threads, |i| {
            let obs = if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            };
            let t = Instant::now();
            let (outcome, stats, grid) = simulate_observed(&units[i], &obs);
            let wall = t.elapsed().as_secs_f64();
            (wall, outcome, stats, grid, obs.snapshot())
        });
        let mut pass = Pass {
            wall_s: started.elapsed().as_secs_f64(),
            ..Pass::default()
        };
        for (unit, (wall, outcome, stats, grid, recorder)) in units.iter().zip(per_unit) {
            pass.walls.push(wall);
            pass.hashes.push(record_hash(unit, &outcome));
            pass.counts.add(&outcome, &stats);
            pass.active_ticks += outcome.active_ticks;
            pass.bucket_spills += grid.queue_bucket_spills;
            for s in &stats {
                pass.stats.recomputes += s.recomputes;
                pass.stats.suffix_repairs += s.suffix_repairs;
                pass.stats.batch_fast_placements += s.batch_fast_placements;
                pass.stats.profile_promotions += s.profile_promotions;
                pass.stats.max_queue_len = pass.stats.max_queue_len.max(s.max_queue_len);
                pass.stats.ect_snapshot_reuses += s.ect_snapshot_reuses;
                pass.stats.ect_column_refills += s.ect_column_refills;
            }
            if let Some(rec) = recorder {
                pass.events += rec.events().len() as u64;
                for (name, s) in rec.spans() {
                    let e = pass.spans.entry(name).or_default();
                    e.0 += s.count;
                    e.1 += s.total_ns;
                }
                for (name, n) in rec.counters() {
                    *pass.counters.entry(name).or_default() += n;
                }
            }
        }
        pass
    }

    fn total_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e6)
    }

    fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self times in ms of the [`SELF_TIMES`] layers, which partition
    /// the traced simulation wall time. `phase.outages` (no faults here)
    /// and `phase.realloc` outside its `realloc.tick` stay in the
    /// driver's own time.
    fn self_times(&self) -> [f64; 6] {
        let total = self.total_s() * 1e3;
        let run = self.span_ms("sim.run");
        let tick = self.span_ms("realloc.tick");
        let start_due = self.span_ms("phase.start_due");
        let completions = self.span_ms("phase.completions");
        let arrivals = self.span_ms("phase.arrivals");
        [
            total - run,
            run - tick - start_due - completions - arrivals,
            arrivals,
            completions,
            start_due,
            tick,
        ]
    }
}

/// The per-layer self-time rows, in table order.
const SELF_TIMES: [&str; 6] = [
    "core.run_setup_ms",
    "des.driver_self_ms",
    "core.mapping.arrivals_ms",
    "batch.completions_ms",
    "batch.start_due_ms",
    "core.realloc.tick_ms",
];

/// Engine counters both traced passes must reproduce exactly.
const EXACT_COUNTERS: [&str; 4] = [
    "ect.estimate_new",
    "sim.batches",
    "realloc.migrations",
    "realloc.attempted",
];

/// Percentile `q` (0..=1, nearest rank) of `values`.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Bytes and count of the files directly inside `dir` whose name ends
/// in `.json`.
fn json_files(dir: &Path) -> Result<(u64, u64), String> {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        if entry.file_name().to_string_lossy().ends_with(".json") {
            bytes += entry.metadata().map_err(|e| e.to_string())?.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// Traced run: one untraced drain for the cache figures, two untraced
/// simulation passes for the executor figures, two traced ones for the
/// engine's layers, and the benchmark's timed calls into `workload`,
/// `campaign.cache`, `ser` and `campaign.aggregate`.
pub fn layers(case: &Case, work: &WorkDir) -> Result<Outcome, String> {
    let campaign = case.campaign();
    let units = campaign.units();
    let n = units.len();
    let threads = case.workload.threads();

    // The drain, as the untraced run makes it.
    let dir = work.fresh("cache");
    let cache = ResultCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (drained, summary) = execute(units, Some(&cache), &exec_options(case));
    let failed = summary.failures.len() + summary.store_errors.len();
    if failed > 0 {
        return Err(format!("{failed} of {n} units failed in the drain"));
    }
    let report = campaign.report(&drained)?;
    let drain_digest = digest(&record_hashes(units, &drained)?, &report);
    case.check_pinned(&drain_digest, "drain")?;
    let drain_counts = Counts::of_drain(units, &drained, &cache)?;
    let (record_bytes, records) = json_files(&dir)?;
    let (sidecar_bytes, sidecars) = json_files(&dir.join("obs"))?;

    // Workload generation, as every run does it before simulating.
    let t = Instant::now();
    let mut jobs = 0u64;
    for unit in units {
        jobs += std::hint::black_box(unit.scenario.generate_fraction(unit.seed, unit.fraction))
            .len() as u64;
    }
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    // Untraced and traced passes alternate, so a drift in host speed
    // weighs on both sides of `obs.trace_overhead` alike.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        plain.push(Pass::run(units, threads, false));
        traced.push(Pass::run(units, threads, true));
    }
    for pass in plain.iter().chain(&traced) {
        check_digest(
            "simulation pass",
            &digest(&pass.hashes, &report),
            &drain_digest,
        )?;
        drain_counts.check_same(&pass.counts, "drain vs simulation pass")?;
    }
    for name in EXACT_COUNTERS {
        let (a, b) = (traced[0].counter(name), traced[1].counter(name));
        if a != b {
            return Err(format!(
                "counter {name} differs between traced passes: {a} vs {b}"
            ));
        }
    }
    if traced[0].counter("realloc.migrations") != drain_counts.migrations {
        return Err("realloc.migrations counter disagrees with the outcomes".into());
    }
    if case.workload == Workload::FcfsDeep && drain_counts.ticks != 0 {
        return Err(format!(
            "fcfs-deep ran {} reallocation ticks",
            drain_counts.ticks
        ));
    }

    // Cache and codec calls over the drained outcomes, serially.
    let scratch = ResultCache::open(work.fresh("store")).map_err(|e| e.to_string())?;
    let (mut encode, mut store, mut load, mut decode) = (0.0, 0.0, 0.0, 0.0);
    for (unit, outcome) in units.iter().zip(&drained) {
        let record = RunRecord::new(unit, outcome.clone().expect("checked by record_hashes"));
        let t = Instant::now();
        let text = std::hint::black_box(record.encode());
        encode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        scratch
            .store(unit, &record)
            .map_err(|e| format!("{}: {e}", unit.label()))?;
        store += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let loaded = scratch
            .load(unit)
            .ok_or_else(|| format!("{}: stored record not loadable", unit.label()))?;
        load += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = RunRecord::decode(&text).map_err(|e| format!("{}: {e}", unit.label()))?;
        decode += t.elapsed().as_secs_f64();
        if loaded.encode() != text || decoded.encode() != text {
            return Err(format!(
                "{}: loaded and decoded records differ",
                unit.label()
            ));
        }
    }
    let t = Instant::now();
    let results = aggregate(&campaign.spec, &campaign.plan, &drained)?;
    let aggregate_ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(results);

    // Times: mean of the two traced passes; counts from the first.
    let tr = &traced[0];
    let mean = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        passes.iter().map(f).sum::<f64>() / passes.len() as f64
    };
    let traced_ms = mean(&traced, &|p| p.total_s() * 1e3);
    let plain_s = mean(&plain, &Pass::total_s);
    let idle_s = mean(&plain, &|p| threads as f64 * p.wall_s - p.total_s());
    let unit_walls: Vec<f64> = (0..n).map(|i| mean(&plain, &|p| p.walls[i])).collect();
    let rows: Vec<(&'static str, f64)> = SELF_TIMES
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, mean(&traced, &|p| p.self_times()[i])))
        .collect();
    let ticks = drain_counts.ticks;
    let attempted = tr.counter("realloc.attempted");
    let estimates = tr.counter("ect.estimate_new");
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let tick_ms = rows[5].1;
    let tick_spans = tr.span_count("realloc.tick");
    let mut metrics = vec![metric("core.traced_sim_ms", "ms", traced_ms)];
    for &(name, ms) in &rows {
        metrics.push(metric(name, "ms", ms));
    }
    metrics.extend([
        metric("core.realloc.ticks", "count", ticks as f64),
        metric("core.realloc.active_ticks", "count", tr.active_ticks as f64),
        metric(
            "core.realloc.tick_ms_mean",
            "ms",
            if tick_spans == 0 {
                0.0
            } else {
                tick_ms / tick_spans as f64
            },
        ),
        metric(
            "core.realloc.examined",
            "count",
            tr.counter("realloc.examined") as f64,
        ),
        metric("core.realloc.attempted", "count", attempted as f64),
        metric(
            "core.realloc.migrations",
            "count",
            drain_counts.migrations as f64,
        ),
        metric(
            "core.realloc.useful_ratio",
            "ratio",
            ratio(drain_counts.migrations, attempted),
        ),
        metric("core.ect.estimates", "count", estimates as f64),
        metric(
            "core.ect.current",
            "count",
            tr.counter("ect.current_ect") as f64,
        ),
        metric(
            "core.ect.snapshot_reuses",
            "count",
            tr.stats.ect_snapshot_reuses as f64,
        ),
        metric(
            "core.ect.column_refills",
            "count",
            tr.stats.ect_column_refills as f64,
        ),
        metric(
            "core.ect.estimates_per_attempt",
            "ratio",
            ratio(estimates, attempted),
        ),
        metric(
            "batch.first_fit_probes",
            "count",
            drain_counts.first_fit_probes as f64,
        ),
        metric("batch.recomputes", "count", tr.stats.recomputes as f64),
        metric(
            "batch.suffix_repairs",
            "count",
            tr.stats.suffix_repairs as f64,
        ),
        metric(
            "batch.fast_placements",
            "count",
            tr.stats.batch_fast_placements as f64,
        ),
        metric(
            "batch.profile_promotions",
            "count",
            tr.stats.profile_promotions as f64,
        ),
        metric(
            "batch.max_queue_len",
            "count",
            tr.stats.max_queue_len as f64,
        ),
        metric("des.batches", "count", tr.counter("sim.batches") as f64),
        metric("des.bucket_spills", "count", tr.bucket_spills as f64),
        metric("workload.jobs", "count", jobs as f64),
        metric("workload.generate_ms", "ms", generate_ms),
        metric("core.run_ms_p50", "ms", percentile(&unit_walls, 0.5) * 1e3),
        metric("core.run_ms_max", "ms", percentile(&unit_walls, 1.0) * 1e3),
        metric("campaign.exec.units", "count", n as f64),
        metric("campaign.exec.busy_s", "s", plain_s),
        metric("campaign.exec.idle_s", "s", idle_s),
        metric("campaign.cache.store_ms", "ms", store * 1e3),
        metric("campaign.cache.load_ms", "ms", load * 1e3),
        metric("campaign.cache.record_bytes", "bytes", record_bytes as f64),
        metric(
            "campaign.cache.sidecar_bytes",
            "bytes",
            sidecar_bytes as f64,
        ),
        metric("campaign.cache.files", "count", (records + sidecars) as f64),
        metric("ser.encode_ms", "ms", encode * 1e3),
        metric("ser.decode_ms", "ms", decode * 1e3),
        metric("campaign.aggregate_ms", "ms", aggregate_ms),
        metric("obs.trace_overhead", "ratio", traced_ms / 1e3 / plain_s),
        metric("obs.events", "count", tr.events as f64),
    ]);

    let mut detail = format!(
        "per-layer self time, traced simulation (mean of 2 passes, {n} units, {threads} threads)\n"
    );
    for &(name, ms) in &rows {
        detail.push_str(&format!(
            "  {name:<28} {ms:>12.1} ms  {:>5.1} %\n",
            100.0 * ms / traced_ms
        ));
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    detail.push_str(&format!(
        "  {:<28} {sum:>12.1} ms  (traced total {traced_ms:.1} ms)\n",
        "sum"
    ));
    detail.push_str(&format!("digest {drain_digest}"));
    Ok(Outcome {
        attempted: 6 * n as u64,
        metrics,
        detail,
    })
}
