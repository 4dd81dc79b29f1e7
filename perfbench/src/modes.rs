//! `modes`: the serial crashcon and adaptive engines at cap 200,
//! alternating, variants in a seeded rotation. Each adaptive campaign
//! gets a fresh explore seed derived from the workload seed, so the
//! explore phase runs every time, as it does for each new campaign a
//! user configures. Crash-image enumeration and coverage-folded
//! exploration do most of their work here and nowhere else.
//!
//! The traced replay splits an adaptive campaign into its two public
//! steps: `pinned_plan_shared` (the explore phase, a memo miss for a
//! fresh seed) and `run_adaptive` (which then finds the plan memoized
//! and only replays it).

use ballista::adaptive::{self, AdaptiveConfig, PinnedPlan};
use ballista::campaign::{CampaignConfig, CampaignReport, CampaignStats};
use ballista::coverage::Coverage;
use ballista::crashcon::{self, CrashTally};
use ballista::oracle;
use sim_kernel::variant::OsVariant;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::common::{self, Ctx, Gate, Limit, Outcome, Shape, GOLDEN_CAP};
use crate::gen::{self, ModesOp};
use crate::trace::{self, LayerTable, Tracer};

const CAP: usize = GOLDEN_CAP;

/// Adaptive reports kept for timing the coverage fold.
const KEEP_REPORTS: usize = 8;

pub fn setup() {
    common::prime(&common::serial(CAP));
}

/// The fixed work behind `peak_rss_mb`: two rotations of crashcon and
/// adaptive campaigns.
pub fn footprint(ctx: &Ctx) {
    let ops = gen::modes_ops(ctx.seed, 4 * gen::CYCLE);
    let mut first = BTreeMap::new();
    phase(
        &ops,
        Limit::Ops(ops.len()),
        &common::serial(CAP),
        None,
        &mut Gate::default(),
        &mut first,
        0,
    );
}

/// The crashcon, adaptive and coverage layers timed on one campaign of
/// each mode on `os`, the adaptive one with explore seed `seed`. Lets a
/// workload that runs neither mode still report these layers.
pub fn probe(out: &mut Outcome, os: OsVariant, seed: u64) {
    let cfg = common::serial(CAP);
    let t = Instant::now();
    let report = crashcon::run_crashcon(os, &cfg);
    let cases = report.total_cases.max(1) as f64;
    out.set("crashcon.case_us", t.elapsed().as_secs_f64() * 1e6 / cases);
    out.set(
        "crashcon.points_per_case",
        report.total_points as f64 / cases,
    );
    if let Some(st) = report.stats {
        out.set("crashcon.snapshots", st.crashcon_snapshots as f64);
        out.set("crashcon.remounts", st.crashcon_remounts as f64);
    }
    let a = acfg(seed);
    let t = Instant::now();
    let pin = adaptive::pinned_plan_shared(os, &cfg, &a);
    out.set("adaptive.explore_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let report = adaptive::run_adaptive(os, &cfg, &a);
    out.set("adaptive.replay_ms", t.elapsed().as_secs_f64() * 1e3);
    let plans = pin.plans_by_name();
    let t = Instant::now();
    std::hint::black_box(Coverage::from_report_with_plans(&report, &cfg, &plans));
    out.set("coverage.from_report_us", t.elapsed().as_secs_f64() * 1e6);
}

#[derive(Default)]
struct Phase {
    ops: usize,
    wall_s: f64,
    campaign_ms: Vec<f64>,
    cases: u64,
    cycles: common::Cycles,
    points: u64,
    crash_cases: u64,
    /// Crash images snapshotted and remounted, over all crashcon campaigns.
    snapshots: u64,
    remounts: u64,
    crash_campaigns: u64,
    stats: Vec<CampaignStats>,
    kept: Vec<(CampaignReport, Arc<PinnedPlan>)>,
}

fn acfg(seed: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        seed,
        ..AdaptiveConfig::default()
    }
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    setup();
    let ops = gen::modes_ops(ctx.seed, 100_000);
    let cfg = common::serial(CAP);
    let mut gate = Gate::default();
    let mut first: BTreeMap<OsVariant, Vec<CrashTally>> = BTreeMap::new();
    let budget = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(
        &ops,
        Limit::Seconds(budget),
        &cfg,
        None,
        &mut gate,
        &mut first,
        0,
    );
    let mut traced_out = None;
    if traced {
        // The replay must explore again: the memo already holds the
        // plans of the untraced phase's seeds, so shift every seed.
        let fresh: Vec<ModesOp> = ops[..plain.ops]
            .iter()
            .map(|op| match *op {
                ModesOp::Adaptive(os, seed) => ModesOp::Adaptive(os, seed ^ 0x5EED_0000_0000_0001),
                other => other,
            })
            .collect();
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let replay = phase(
            &fresh,
            Limit::Ops(plain.ops),
            &cfg,
            Some(&mut tracer),
            &mut gate,
            &mut first,
            KEEP_REPORTS,
        );
        traced_out = Some((tracer, common::ns_since(origin), replay));
    }
    for (os, tallies) in &first {
        let golden = common::golden_crashcon(*os)?;
        gate.check(tallies == &golden, || {
            format!("{os}: crashcon tallies differ from results/golden")
        });
    }
    common::golden_gate(&mut gate)?;
    let mut out = Outcome::new(
        Shape {
            cap: CAP.to_string(),
            engine: "crashcon+adaptive serial",
            workers: "1".to_owned(),
        },
        gate,
    );
    let mut campaign_ms = plain.campaign_ms.clone();
    let (ops_per_s, cases_per_s) = plain.cycles.rates(2 * gen::CYCLE);
    out.set("cases_per_s", cases_per_s);
    out.set("campaign_p50_ms", common::quantile(&mut campaign_ms, 0.5));
    out.set("campaign_p90_ms", common::quantile(&mut campaign_ms, 0.9));
    out.set("requests_per_s", ops_per_s);
    if let Some((tracer, wall_ns, replay)) = traced_out {
        let spans = tracer.spans();
        let mut table = LayerTable::default();
        table.add(spans, wall_ns);
        common::stats_metrics(&mut out, &plain.stats, plain.cases);
        out.set(
            "adaptive.explore_ms",
            trace::mean_ns(spans, "adaptive::pinned_plan_shared").0 / 1e6,
        );
        out.set(
            "adaptive.replay_ms",
            trace::mean_ns(spans, "adaptive::run_adaptive").0 / 1e6,
        );
        let (crash_ns, crash_calls) = trace::mean_ns(spans, "crashcon::run_crashcon");
        out.set(
            "crashcon.case_us",
            crash_ns * crash_calls as f64 / replay.crash_cases.max(1) as f64 / 1e3,
        );
        out.set(
            "crashcon.points_per_case",
            plain.points as f64 / plain.crash_cases.max(1) as f64,
        );
        let crash_campaigns = plain.crash_campaigns.max(1) as f64;
        out.set(
            "crashcon.snapshots",
            plain.snapshots as f64 / crash_campaigns,
        );
        out.set("crashcon.remounts", plain.remounts as f64 / crash_campaigns);
        let mut fold_ns = Vec::new();
        for (report, pin) in &replay.kept {
            let plans = pin.plans_by_name();
            let t = Instant::now();
            std::hint::black_box(Coverage::from_report_with_plans(report, &cfg, &plans));
            fold_ns.push(common::ns_since(t) as f64);
        }
        out.set("coverage.from_report_us", common::mean(&fold_ns) / 1e3);
        common::finish_table(
            &mut out,
            table,
            common::overhead_pct(plain.wall_s, wall_ns as f64 / 1e9),
            ctx,
            "modes",
            &[spans],
        );
    }
    Ok(out)
}

fn phase(
    ops: &[ModesOp],
    limit: Limit,
    cfg: &CampaignConfig,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
    first: &mut BTreeMap<OsVariant, Vec<CrashTally>>,
    keep: usize,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    while limit.more(start, p.ops, 2 * gen::CYCLE) {
        if let Some(t) = tracer.as_deref_mut() {
            t.set_op(p.ops as u32);
        }
        let t = Instant::now();
        match ops[p.ops] {
            ModesOp::Crashcon(os) => {
                let Some(report) = common::guarded(|| match tracer.as_deref_mut() {
                    Some(tr) => tr.span("crashcon::run_crashcon", "crashcon", |_| {
                        crashcon::run_crashcon(os, cfg)
                    }),
                    None => crashcon::run_crashcon(os, cfg),
                }) else {
                    gate.check(false, || {
                        format!("op {}: {os} crashcon campaign panicked", p.ops)
                    });
                    p.cycles.push(start.elapsed().as_secs_f64(), 0);
                    p.ops += 1;
                    continue;
                };
                p.campaign_ms.push(t.elapsed().as_secs_f64() * 1e3);
                p.cases += report.total_cases as u64;
                p.cycles
                    .push(start.elapsed().as_secs_f64(), report.total_cases as u64);
                p.crash_cases += report.total_cases as u64;
                p.points += report.total_points;
                p.crash_campaigns += 1;
                if let Some(st) = report.stats {
                    p.snapshots += st.crashcon_snapshots;
                    p.remounts += st.crashcon_remounts;
                    p.stats.push(st);
                }
                let same = first.entry(os).or_insert_with(|| report.muts.clone()) == &report.muts;
                gate.check(report.consistent() && same, || {
                    format!(
                        "op {}: {os} crashcon report inconsistent or differs from its first run",
                        p.ops
                    )
                });
            }
            ModesOp::Adaptive(os, seed) => {
                let a = acfg(seed);
                let Some(report) = common::guarded(|| match tracer.as_deref_mut() {
                    Some(tr) => {
                        let pin = tr.span("adaptive::pinned_plan_shared", "adaptive", |_| {
                            adaptive::pinned_plan_shared(os, cfg, &a)
                        });
                        let report = tr.span("adaptive::run_adaptive", "adaptive", |_| {
                            adaptive::run_adaptive(os, cfg, &a)
                        });
                        if p.kept.len() < keep {
                            p.kept.push((report.clone(), pin));
                        }
                        report
                    }
                    None => adaptive::run_adaptive(os, cfg, &a),
                }) else {
                    gate.check(false, || {
                        format!("op {}: {os} adaptive campaign panicked", p.ops)
                    });
                    p.cycles.push(start.elapsed().as_secs_f64(), 0);
                    p.ops += 1;
                    continue;
                };
                p.campaign_ms.push(t.elapsed().as_secs_f64() * 1e3);
                p.cases += report.total_cases as u64;
                p.cycles
                    .push(start.elapsed().as_secs_f64(), report.total_cases as u64);
                p.stats.extend(report.stats);
                let check = oracle::check_report(&report);
                gate.check(check.violations.is_empty(), || {
                    format!("op {}: {os} adaptive report fails the oracle", p.ops)
                });
            }
        }
        p.ops += 1;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}
