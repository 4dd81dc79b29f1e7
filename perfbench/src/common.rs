//! Pieces every workload shares: run context, the correctness gate,
//! provenance, statistics and the checks against the golden corpus.

use ballista::campaign::{self, run_campaign, CampaignConfig, CampaignStats, MutTally};
use ballista::crashcon::CrashTally;
use ballista::exec;
use serde::Deserialize;
use sim_kernel::variant::OsVariant;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::trace::{self, LayerTable, Span};

/// Where scratch files (journals, caches) and span dumps go, relative to
/// the directory the benchmark runs in.
pub const WORK_ROOT: &str = ".perfbench-work";

/// The cap of the golden corpus under `results/golden/`.
pub const GOLDEN_CAP: usize = 200;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// This run's private scratch directory.
    pub work: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, workload: &str) -> Result<Ctx, String> {
        let work = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        Ok(Ctx {
            seed,
            seconds,
            work,
        })
    }

    pub fn remove_work_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// When a phase stops: at the first whole cycle of operations after a
/// wall-clock budget, or after an exact number of operations (the
/// traced replay of an untraced phase). Ending on a whole cycle keeps
/// the mix of variants in a phase the same on every run.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Ops(usize),
}

impl Limit {
    pub fn more(&self, start: Instant, done: usize, cycle: usize) -> bool {
        match *self {
            Limit::Seconds(s) => start.elapsed().as_secs_f64() < s || !done.is_multiple_of(cycle),
            Limit::Ops(n) => done < n,
        }
    }
}

/// Counts checked operations and failures; a failure is an error, a
/// panic, or any result that disagrees with its reference.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(what());
            }
        }
    }

    /// Counts a failure for an operation already counted as attempted.
    pub fn fail_counted(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(what());
        }
    }
}

/// The settings a run's rows are tagged with.
#[derive(Debug, Clone)]
pub struct Shape {
    pub cap: String,
    pub engine: &'static str,
    pub workers: String,
}

/// A workload's result: the gate's counts, metrics by name, and
/// workload-specific end-to-end figures printed as rows only.
pub struct Outcome {
    pub shape: Shape,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub extra: Vec<(&'static str, f64, &'static str)>,
    pub table: Option<LayerTable>,
}

impl Outcome {
    pub fn new(shape: Shape, gate: Gate) -> Outcome {
        Outcome {
            shape,
            attempted: gate.attempted,
            failed: gate.failed,
            notes: gate.notes,
            metrics: BTreeMap::new(),
            extra: Vec::new(),
            table: None,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }
}

/// Provenance carried by every printed row.
pub struct Provenance {
    rev: String,
    workload: String,
    seed: u64,
    trace: bool,
    shape: Shape,
    nproc: usize,
}

impl Provenance {
    pub fn new(workload: &str, seed: u64, trace: bool, shape: &Shape) -> Provenance {
        Provenance {
            rev: source_rev(),
            workload: workload.to_owned(),
            seed,
            trace,
            shape: shape.clone(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    fn fields(&self) -> String {
        format!(
            r#""rev": "{}", "workload": "{}", "seed": {}, "cap": "{}", "engine": "{}", "workers": "{}", "nproc": {}, "trace": {}"#,
            self.rev,
            self.workload,
            self.seed,
            self.shape.cap,
            self.shape.engine,
            self.shape.workers,
            self.nproc,
            u8::from(self.trace)
        )
    }

    pub fn row(&self, name: &str, value: f64, unit: &str) -> String {
        format!(
            r#"row {{{}, "metric": "{name}", "value": {}, "unit": "{unit}"}}"#,
            self.fields(),
            json_num(value)
        )
    }

    pub fn header(&self) -> String {
        format!("layer table {{{}}}", self.fields())
    }
}

/// The git revision when the benchmark runs inside a git checkout;
/// otherwise a hash of the `crates/` sources, so rows of different code
/// still never share a tag.
fn source_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    // Only this directory's own repository counts, not one around it.
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let top = git(&["rev-parse", "--show-toplevel"]).and_then(|t| std::fs::canonicalize(t).ok());
    if here.is_some() && here == top {
        if let Some(rev) = git(&["rev-parse", "--short=12", "HEAD"]) {
            return rev;
        }
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// A finite JSON number (non-finite values print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Per-operation end times and executed cases of a phase, folded into
/// throughput per whole cycle of operations. Every cycle does the same
/// mix of work, so the median over cycles shrugs off a slow stretch that
/// covers less than half the run, where a run-long total would not.
#[derive(Debug, Default)]
pub struct Cycles {
    ends_s: Vec<f64>,
    cases: Vec<u64>,
}

impl Cycles {
    /// Records an operation that ended `end_s` seconds into the phase
    /// after executing `cases` cases.
    pub fn push(&mut self, end_s: f64, cases: u64) {
        self.ends_s.push(end_s);
        self.cases.push(cases);
    }

    /// Median over whole cycles of `cycle` operations of (operations per
    /// second, cases per second).
    pub fn rates(&self, cycle: usize) -> (f64, f64) {
        let (mut ops, mut cases) = (Vec::new(), Vec::new());
        for k in 0..self.ends_s.len() / cycle {
            let from = if k == 0 {
                0.0
            } else {
                self.ends_s[k * cycle - 1]
            };
            let secs = self.ends_s[(k + 1) * cycle - 1] - from;
            ops.push(cycle as f64 / secs);
            cases.push(self.cases[k * cycle..(k + 1) * cycle].iter().sum::<u64>() as f64 / secs);
        }
        (quantile(&mut ops, 0.5), quantile(&mut cases, 0.5))
    }
}

/// Linear-interpolated quantile; sorts `samples` in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs one workload operation; a panic becomes `None`, which the
/// caller counts as a failed operation.
pub fn guarded<R>(op: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).ok()
}

pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A serial classic campaign at `cap`.
pub fn serial(cap: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        parallelism: 1,
        ..CampaignConfig::default()
    }
}

/// Boots this thread's machine templates and fills the sampling-plan
/// cache for every variant at `cfg.cap`.
pub fn prime(cfg: &CampaignConfig) {
    for os in OsVariant::ALL {
        drop(exec::fresh_machine(os.machine_flavor()));
        let _ = campaign::fingerprint(os, cfg);
    }
}

/// Per-MuT tallies without the raw outcome bytes, for comparing reports
/// that differ only in whether raw recording was on.
pub fn without_raw(muts: &[MutTally]) -> Vec<MutTally> {
    muts.iter()
        .map(|t| MutTally {
            raw_outcomes: Vec::new(),
            ..t.clone()
        })
        .collect()
}

/// Per-layer metrics the program itself reports in [`CampaignStats`],
/// over the campaigns of the untraced phase, which executed `cases`.
pub fn stats_metrics(out: &mut Outcome, stats: &[CampaignStats], cases: u64) {
    let sum = |f: fn(&CampaignStats) -> f64| stats.iter().map(f).sum::<f64>();
    let campaigns = stats.len().max(1) as f64;
    let restores = sum(|s| s.restores as f64);
    if restores > 0.0 {
        out.set("exec.restore_ns", sum(|s| s.restore_ms) * 1e6 / restores);
        out.set(
            "exec.restores_fast_ratio",
            sum(|s| s.restores_fast as f64) / restores,
        );
    }
    out.set("exec.boot_ms", sum(|s| s.boot_ms) / campaigns);
    out.set(
        "exec.probe_provisions",
        sum(|s| s.probe_provisions as f64) / campaigns,
    );
    out.set(
        "campaign.replayed_cases",
        sum(|s| s.replayed_cases as f64) / campaigns,
    );
    out.set(
        "journal.fsyncs_per_kcase",
        sum(|s| s.journal_fsyncs as f64) * 1e3 / cases.max(1) as f64,
    );
}

/// Tracing overhead in percent: traced against untraced time for the
/// same work.
pub fn overhead_pct(plain_s: f64, traced_s: f64) -> f64 {
    100.0 * (traced_s - plain_s) / plain_s
}

/// Completes a traced run: the layer table's self-time shares, the
/// unattributed share, the tracing overhead, and the span dump.
pub fn finish_table(
    out: &mut Outcome,
    table: LayerTable,
    overhead_pct: f64,
    ctx: &Ctx,
    workload: &str,
    threads: &[&[Span]],
) {
    for layer in table.layers.keys() {
        out.set(
            &format!("self_pct.{}", layer.replace('/', ".")),
            table.self_pct(layer),
        );
    }
    out.set("unattributed_pct", table.unattributed_pct());
    out.set("trace.overhead_pct", overhead_pct);
    let path = Path::new(WORK_ROOT).join(format!("trace_{workload}_{}.jsonl", ctx.seed));
    if let Err(e) = trace::write_spans(&path, threads) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    out.table = Some(table);
}

#[derive(Deserialize)]
struct GoldenEntry {
    cap: usize,
    muts: Vec<MutTally>,
}

#[derive(Deserialize)]
struct CrashconGoldenEntry {
    cap: usize,
    muts: Vec<CrashTally>,
}

fn read_golden(name: &str) -> Result<String, String> {
    let dir = if cfg!(test) {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/golden")
    } else {
        PathBuf::from("results/golden")
    };
    let path = dir.join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The pinned cap-200 crashcon tallies of `os`.
pub fn golden_crashcon(os: OsVariant) -> Result<Vec<CrashTally>, String> {
    let g: CrashconGoldenEntry =
        serde_json::from_str(&read_golden(&format!("crashcon_{}.json", os.short_name()))?)
            .map_err(|e| format!("corrupt crashcon golden for {os}: {e}"))?;
    if g.cap != GOLDEN_CAP {
        return Err(format!("crashcon golden for {os} blessed at cap {}", g.cap));
    }
    Ok(g.muts)
}

/// The set-up correctness gate of every workload: cap-200 serial classic
/// tallies of all seven variants equal the golden corpus.
pub fn golden_gate(gate: &mut Gate) -> Result<(), String> {
    let cfg = CampaignConfig {
        record_raw: true,
        ..serial(GOLDEN_CAP)
    };
    for os in OsVariant::ALL {
        check_golden(gate, os, &run_campaign(os, &cfg).muts)?;
    }
    Ok(())
}

/// Checks cap-200 classic tallies of `os` against the golden corpus.
pub fn check_golden(gate: &mut Gate, os: OsVariant, live: &[MutTally]) -> Result<(), String> {
    let g: GoldenEntry = serde_json::from_str(&read_golden(&format!("{}.json", os.short_name()))?)
        .map_err(|e| format!("corrupt golden for {os}: {e}"))?;
    if g.cap != GOLDEN_CAP {
        return Err(format!("golden for {os} blessed at cap {}", g.cap));
    }
    gate.check(live == g.muts.as_slice(), || {
        format!("{os}: cap-{GOLDEN_CAP} tallies differ from results/golden")
    });
    Ok(())
}

/// The reference kernel's time, in ms, on the machine that scaled times
/// refer to. Any constant would do; this one is near the kernel's median
/// on the 2-vCPU Xeon guest the benchmark was sized on (0.8-1.3 ms).
pub const REFERENCE_MS: f64 = 1.0;

/// How fast the machine ran during a phase. A shared host can slow a
/// guest's vCPUs by up to 2x for minutes without any steal time or
/// run-queue wait showing inside the guest, so wall-clock times of one
/// build drift between runs by more than any change worth measuring.
/// `Speed` times a fixed kernel, which calls no `ballista` code, between
/// the workload's operations; `scale_op` turns an operation's wall-clock
/// time into the time it would take on a machine where the kernel takes
/// `REFERENCE_MS`.
#[derive(Debug, Default)]
pub struct Speed {
    samples_ms: Vec<f64>,
}

impl Speed {
    /// Runs the kernel once; returns and records its time in ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(reference_kernel(self.samples_ms.len() as u64));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// The median kernel time, in ms.
    pub fn kernel_ms(&self) -> f64 {
        quantile(&mut self.samples_ms.clone(), 0.5)
    }

    /// Time spent in the kernel so far, in ms.
    pub fn total_ms(&self) -> f64 {
        self.samples_ms.iter().sum()
    }

    /// Scales the wall-clock duration of an operation that ran since the
    /// previous sample by the kernel times just before and just after it;
    /// samples once more. Call `sample` once before the first operation.
    pub fn scale_op(&mut self, wall_s: f64) -> f64 {
        let before = self.samples_ms.last().copied();
        let after = self.sample();
        wall_s * REFERENCE_MS * 2.0 / (before.unwrap_or(after) + after)
    }
}

/// Churns a map of short heap strings to growing byte buffers, then
/// sorts a vector drawn from it: allocation, hashing and branchy integer
/// work, the mix the simulated kernels run. On the guest above, over
/// six `sweep` runs whose speed varied 1.4x, campaign time went as this
/// kernel's time to the power 1.02; a sort and binary search over a
/// fixed array, allocating nothing, tracked it less closely (1.1-1.5).
fn reference_kernel(seed: u64) -> u64 {
    type Map = HashMap<String, Vec<u8>, BuildHasherDefault<DefaultHasher>>;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = Map::default();
    let mut acc = 0u64;
    for i in 0..2000u64 {
        let k = next() % 16384;
        let key = format!("obj{k:x}");
        match map.get_mut(&key) {
            Some(buf) => {
                buf.push(i as u8);
                acc = acc.wrapping_add(buf.len() as u64);
            }
            None => {
                map.insert(key, vec![0; (k % 200) as usize]);
            }
        }
    }
    let mut lens: Vec<u64> = map.values().map(|b| b.len() as u64 ^ next()).collect();
    lens.sort_unstable();
    acc.wrapping_add(lens[lens.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_tally_fails_the_gate() {
        let golden: GoldenEntry =
            serde_json::from_str(&read_golden("win95.json").expect("corpus")).expect("parse");
        let mut gate = Gate::default();
        check_golden(&mut gate, OsVariant::Win95, &golden.muts).expect("corpus");
        let mut wrong = golden.muts.clone();
        wrong[3].aborts += 1;
        check_golden(&mut gate, OsVariant::Win95, &wrong).expect("corpus");
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.notes.len(), 1);
    }

    #[test]
    fn cycle_rates_take_the_median_cycle() {
        let mut c = Cycles::default();
        // Three cycles of two operations: 1 s, 4 s (a slow stretch), 1 s.
        for (end, cases) in [
            (0.5, 10),
            (1.0, 10),
            (3.0, 10),
            (5.0, 10),
            (5.5, 10),
            (6.0, 10),
        ] {
            c.push(end, cases);
        }
        assert_eq!(c.rates(2), (2.0, 20.0));
    }

    #[test]
    fn speed_scales_by_the_kernel_runs_around_an_operation() {
        let mut speed = Speed::default();
        let before = speed.sample();
        let secs = speed.scale_op(0.25);
        let after = speed.samples_ms[1];
        let want = 0.25 * REFERENCE_MS * 2.0 / (before + after);
        assert!((secs - want).abs() <= 1e-12 * want);
        assert_eq!(speed.samples_ms.len(), 2);
        assert!(speed.kernel_ms() >= before.min(after));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.25), 2.0);
        assert!((quantile(&mut v, 0.9) - 4.6).abs() < 1e-12);
    }
}
