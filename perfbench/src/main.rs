//! Benchmark of the ballista campaign engine, its journal, the campaign
//! service and the two non-classic campaign modes.
//!
//! ```text
//! perfbench --workload <sweep|durable|served|modes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets up the workload several times in child
//! processes (for `setup_s`), measures the peak memory of one more child
//! that runs a fixed number of the workload's operations (for
//! `peak_rss_mb`), runs the seeded operation sequence for
//! `--seconds` untraced, checks every result, and prints the end-to-end
//! metrics. With `--trace 1` it runs the sequence untraced for half the
//! time, then replays the same operations with spans around every call
//! into a `ballista` layer, and prints the layer table and the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for the metrics and workloads.

mod common;
mod durable;
mod gen;
mod modes;
mod served;
mod sweep;
mod trace;

use common::{Ctx, Outcome, Provenance};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cases_per_s", "cases/s"),
    ("campaign_p50_ms", "ms"),
    ("campaign_p90_ms", "ms"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that never enters a
/// layer reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.plan_us", "us"),
    ("campaign.prepare_us", "us"),
    ("campaign.fingerprint_us", "us"),
    ("campaign.replayed_cases", "count"),
    ("exec.case_ns.p50", "ns"),
    ("exec.case_ns.p99", "ns"),
    ("exec.case_ns.ProcessPrimitives", "ns"),
    ("exec.case_ns.IoPrimitives", "ns"),
    ("exec.case_ns.FileDirAccess", "ns"),
    ("exec.case_ns.MemoryManagement", "ns"),
    ("exec.case_ns.ProcessEnvironment", "ns"),
    ("exec.case_ns.CChar", "ns"),
    ("exec.case_ns.CFileIo", "ns"),
    ("exec.case_ns.CMemory", "ns"),
    ("exec.case_ns.CStreamIo", "ns"),
    ("exec.case_ns.CString", "ns"),
    ("exec.case_ns.CTime", "ns"),
    ("exec.case_ns.CMath", "ns"),
    ("exec.restore_ns", "ns"),
    ("exec.restores_fast_ratio", "ratio"),
    ("exec.boot_ms", "ms"),
    ("exec.probe_us", "us"),
    ("exec.probe_provisions", "count"),
    ("journal.append_us", "us"),
    ("journal.sync_ms", "ms"),
    ("journal.fsyncs_per_kcase", "count"),
    ("journal.recover_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.store_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("server.campaigns_executed_ratio", "ratio"),
    ("server.report_kb", "KiB"),
    ("fleet.shard_exec_ms", "ms"),
    ("fleet.wire_encode_us", "us"),
    ("fleet.wire_decode_us", "us"),
    ("fleet.wire_bytes_per_case", "bytes"),
    ("fleet.worker_spawn_ms", "ms"),
    ("fleet.process_overhead_ms", "ms"),
    ("adaptive.explore_ms", "ms"),
    ("adaptive.replay_ms", "ms"),
    ("coverage.from_report_us", "us"),
    ("crashcon.case_us", "us"),
    ("crashcon.points_per_case", "count"),
    ("crashcon.snapshots", "count"),
    ("crashcon.remounts", "count"),
    ("self_pct.sampling", "%"),
    ("self_pct.campaign", "%"),
    ("self_pct.exec", "%"),
    ("self_pct.exec.sim-win32", "%"),
    ("self_pct.exec.sim-posix", "%"),
    ("self_pct.exec.sim-libc", "%"),
    ("self_pct.journal", "%"),
    ("self_pct.server", "%"),
    ("self_pct.adaptive", "%"),
    ("self_pct.crashcon", "%"),
    ("self_pct.oracle", "%"),
    ("trace.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// Child set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;

const WORKLOADS: [&str; 4] = ["sweep", "durable", "served", "modes"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process is a child the benchmark spawned.
    child: Option<ChildRole>,
}

#[derive(Clone, Copy, PartialEq)]
enum ChildRole {
    /// Set up the workload, print `ready`, exit.
    Setup,
    /// Set up, run the workload's fixed footprint operations, print the
    /// process's `VmHWM`.
    Footprint,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child" => {
                args.child = match value()?.as_str() {
                    "setup" => Some(ChildRole::Setup),
                    "footprint" => Some(ChildRole::Footprint),
                    other => return Err(format!("--child takes setup or footprint, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let ctx = Ctx::new(args.seed, args.seconds, &args.workload)?;
    if let Some(role) = args.child {
        let served = set_up(&args.workload, &ctx)?;
        if role == ChildRole::Setup {
            println!("ready");
        } else {
            match args.workload.as_str() {
                "sweep" => sweep::footprint(&ctx),
                "durable" => durable::footprint(&ctx)?,
                "served" => served::footprint(served.as_ref().expect("set up above"), &ctx),
                "modes" => modes::footprint(&ctx),
                _ => unreachable!("validated in parse_args"),
            }
            println!("{}", common::peak_rss_mb()?);
        }
        ctx.remove_work_dir();
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        return Ok(());
    }
    let untraced = if args.trace {
        None
    } else {
        Some(time_children(args)?)
    };
    let outcome = match args.workload.as_str() {
        "sweep" => sweep::run(&ctx, args.trace),
        "durable" => durable::run(&ctx, args.trace),
        "served" => served::run(&ctx, args.trace),
        "modes" => modes::run(&ctx, args.trace),
        _ => unreachable!("validated in parse_args"),
    }?;
    ctx.remove_work_dir();
    report(args, &outcome, untraced)
}

/// The workload's set-up; `served` returns its running server.
fn set_up(workload: &str, ctx: &Ctx) -> Result<Option<served::Served>, String> {
    match workload {
        "sweep" => sweep::setup(),
        "durable" => durable::setup(),
        "served" => return served::setup(ctx).map(Some),
        "modes" => modes::setup(),
        _ => unreachable!("validated in parse_args"),
    }
    Ok(None)
}

/// Runs a child in `role` and returns the time from spawning it to its
/// first output line, and that line.
fn spawn_child(args: &Args, role: &str) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(&exe)
        .args([
            "--child",
            role,
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {role} child: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped above");
    let read = BufReader::new(stdout).read_line(&mut line);
    let elapsed = start.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {role} child: {e}"))?;
    if read.is_err() || !status.success() {
        return Err(format!("{role} child failed ({status})"));
    }
    Ok((elapsed, line.trim().to_owned()))
}

/// `setup_s`, the median over `SETUPS` set-up children of the time from
/// spawn to `ready`, each scaled by the reference kernel run just before
/// and just after it, and `peak_rss_mb`, the `VmHWM` of a child that
/// runs the workload's fixed footprint operations — a fixed amount of
/// work, so the figure does not grow with how fast the run went.
fn time_children(args: &Args) -> Result<(f64, f64), String> {
    let mut samples = Vec::with_capacity(SETUPS);
    let mut speed = common::Speed::default();
    speed.sample();
    for _ in 0..SETUPS {
        let (secs, line) = spawn_child(args, "setup")?;
        if line != "ready" {
            return Err(format!("set-up child said {line:?}"));
        }
        samples.push(speed.scale_op(secs));
    }
    let (_, rss) = spawn_child(args, "footprint")?;
    let rss = rss
        .parse()
        .map_err(|e| format!("footprint child said {rss:?}: {e}"))?;
    Ok((common::quantile(&mut samples, 0.5), rss))
}

fn report(args: &Args, outcome: &Outcome, untraced: Option<(f64, f64)>) -> Result<(), String> {
    let prov = Provenance::new(&args.workload, args.seed, args.trace, &outcome.shape);
    for note in &outcome.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        if let Some(table) = &outcome.table {
            println!("{}", table.render(&prov.header()));
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, outcome.metric(name).unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => untraced.expect("measured for untraced runs").0,
                "peak_rss_mb" => untraced.expect("measured for untraced runs").1,
                _ => outcome
                    .metric(name)
                    .ok_or(format!("workload did not measure {name}"))?,
            };
            metrics.push((name, value, unit));
        }
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for (name, value, unit) in metrics
        .iter()
        .copied()
        .chain(outcome.extra.iter().map(|(n, v, u)| (*n, *v, *u)))
    {
        println!("{}", prov.row(name, value, unit));
    }
    println!("{}", prov.row("failed_ratio", failed_ratio, "ratio"));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                common::json_num(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    Ok(())
}
