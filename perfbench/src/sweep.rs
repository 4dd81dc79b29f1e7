//! `sweep`: the paper's protocol. The serial classic engine runs all
//! seven variants at cap 5000, in a seeded rotation, in a closed loop.
//! No journal, cache, fleet or server code runs, so this workload shows
//! a change to the case engine and is the no-change control for every
//! journal, fleet or service change.
//!
//! The traced replay calls the engine's public pieces one by one (pool
//! resolution, the shared sampling plan, `CaseRunner::execute` per case,
//! the isolation probe) in the serial engine's order, and checks that the
//! tallies it folds equal the engine's own.

use ballista::campaign::{self, run_campaign, CampaignStats, MutTally};
use ballista::exec::{self, CaseRunner, Session};
use ballista::{catalog, oracle, sampling, FailureClass, FunctionGroup, Mut, RawOutcome};
use sim_kernel::variant::OsVariant;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::common::{self, Ctx, Gate, Limit, Outcome, Shape};
use crate::gen;
use crate::trace::{self, Hist, LayerTable, Tracer};

const CAP: usize = 5000;

pub fn setup() {
    common::prime(&common::serial(CAP));
}

/// The fixed work behind `peak_rss_mb`: two rotations of campaigns.
pub fn footprint(ctx: &Ctx) {
    let ops = gen::sweep_ops(ctx.seed, 2 * gen::CYCLE);
    phase(
        &ops,
        Limit::Ops(ops.len()),
        &common::serial(CAP),
        &mut Gate::default(),
        &mut BTreeMap::new(),
    );
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    ops: usize,
    wall_s: f64,
    /// Per campaign: its variant and its time scaled to the reference
    /// machine, in ms.
    campaign_ms: Vec<(OsVariant, f64)>,
    cases: u64,
    cycles: common::Cycles,
    speed: common::Speed,
    stats: Vec<CampaignStats>,
}

/// Per-case timings of the traced replay.
#[derive(Default)]
struct CaseTimes {
    all: Hist,
    by_group: BTreeMap<&'static str, (u64, u64)>,
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    setup();
    let ops = gen::sweep_ops(ctx.seed, 100_000);
    let cfg = common::serial(CAP);
    let mut gate = Gate::default();
    let mut first: BTreeMap<OsVariant, Vec<MutTally>> = BTreeMap::new();
    let budget = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(&ops, Limit::Seconds(budget), &cfg, &mut gate, &mut first);
    let mut traced_out = None;
    if traced {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let mut times = CaseTimes::default();
        for (i, &os) in ops[..plain.ops].iter().enumerate() {
            tracer.set_op(i as u32);
            let tallies = decomposed(os, &cfg, &mut tracer, &mut times, &mut gate);
            gate.check(first.get(&os) == Some(&tallies), || {
                format!("op {i}: traced {os} tallies differ from the engine's")
            });
        }
        traced_out = Some((tracer, times, common::ns_since(origin)));
    }
    common::golden_gate(&mut gate)?;
    let mut out = Outcome::new(
        Shape {
            cap: CAP.to_string(),
            engine: "serial",
            workers: "1".to_owned(),
        },
        gate,
    );
    let (ops_per_s, cases_per_s) = plain.cycles.rates(gen::CYCLE);
    out.set("cases_per_s", cases_per_s);
    out.set("campaign_p50_ms", by_variant(&plain.campaign_ms, 0.5));
    out.set("campaign_p90_ms", by_variant(&plain.campaign_ms, 0.9));
    out.set("requests_per_s", ops_per_s);
    out.extra.push(("kernel_ms", plain.speed.kernel_ms(), "ms"));
    if let Some((tracer, times, wall_ns)) = traced_out {
        layer_metrics(
            &mut out, &plain, &tracer, &times, wall_ns, &cfg, &first, ctx,
        );
    }
    Ok(out)
}

fn phase(
    ops: &[OsVariant],
    limit: Limit,
    cfg: &campaign::CampaignConfig,
    gate: &mut Gate,
    first: &mut BTreeMap<OsVariant, Vec<MutTally>>,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    // Campaign time so far, scaled; `Cycles` takes end times on it.
    let mut scaled_s = 0.0;
    p.speed.sample();
    while limit.more(start, p.ops, gen::CYCLE) {
        let os = ops[p.ops];
        let t = Instant::now();
        let ran = common::guarded(|| run_campaign(os, cfg));
        let secs = p.speed.scale_op(t.elapsed().as_secs_f64());
        scaled_s += secs;
        let Some(report) = ran else {
            gate.check(false, || format!("op {}: {os} campaign panicked", p.ops));
            p.cycles.push(scaled_s, 0);
            p.ops += 1;
            continue;
        };
        p.campaign_ms.push((os, secs * 1e3));
        p.cases += report.total_cases as u64;
        p.cycles.push(scaled_s, report.total_cases as u64);
        p.stats.extend(report.stats);
        let check = oracle::check_report(&report);
        let same = first.entry(os).or_insert_with(|| report.muts.clone()) == &report.muts;
        gate.check(check.violations.is_empty() && same, || {
            format!(
                "op {}: {os} report fails the oracle or differs from its first run",
                p.ops
            )
        });
        p.ops += 1;
    }
    // The traced replay runs no kernel; leave its runs out of the wall
    // time `trace.overhead_pct` compares against.
    p.wall_s = start.elapsed().as_secs_f64() - p.speed.total_ms() / 1e3;
    p
}

/// The geometric mean over variants of each variant's `q` quantile of
/// campaign time. Two of the seven variants run campaigns half as long
/// as the rest, so the quantile of all campaigns pooled sits in the
/// tail of one variant's spread and moves with the shape of the noise.
fn by_variant(campaign_ms: &[(OsVariant, f64)], q: f64) -> f64 {
    let mut by: BTreeMap<OsVariant, Vec<f64>> = BTreeMap::new();
    for &(os, ms) in campaign_ms {
        by.entry(os).or_default().push(ms);
    }
    if by.is_empty() {
        return 0.0;
    }
    let logs: Vec<f64> = by
        .values_mut()
        .map(|v| common::quantile(v, q).ln())
        .collect();
    common::mean(&logs).exp()
}

/// The layer a case's execution time belongs to: the simulated API body
/// that ran it, behind the `exec` harness.
fn case_layer(os: OsVariant, group: FunctionGroup) -> &'static str {
    match group {
        FunctionGroup::ProcessPrimitives
        | FunctionGroup::IoPrimitives
        | FunctionGroup::FileDirAccess
        | FunctionGroup::MemoryManagement
        | FunctionGroup::ProcessEnvironment => {
            if os == OsVariant::Linux {
                "exec/sim-posix"
            } else {
                "exec/sim-win32"
            }
        }
        _ => "exec/sim-libc",
    }
}

/// One serial classic campaign, made of the engine's public calls in
/// the engine's order, each timed. Returns the folded tallies.
fn decomposed(
    os: OsVariant,
    cfg: &campaign::CampaignConfig,
    tracer: &mut Tracer,
    times: &mut CaseTimes,
    gate: &mut Gate,
) -> Vec<MutTally> {
    let registry = tracer.span("catalog::registry_for", "campaign", |_| {
        catalog::registry_for(os)
    });
    let muts = tracer.span("catalog::catalog_for", "campaign", |_| {
        catalog::catalog_for(os)
    });
    let budget = cfg.effective_fuel_budget();
    let mut session = Session::new();
    let mut tallies = Vec::with_capacity(muts.len());
    for m in &muts {
        let (pools, plan) = tracer.span("campaign::resolve_pools", "campaign", |t| {
            let pools = campaign::resolve_pools(&registry, m);
            let plan = if pools.is_empty() {
                Arc::new(sampling::single_case())
            } else {
                let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
                t.span("sampling::enumerate_shared", "sampling", |_| {
                    sampling::enumerate_shared(&dims, cfg.cap, m.name)
                })
            };
            (pools, plan)
        });
        let mut tally = empty_tally(m, plan.cases.len());
        let layer = case_layer(os, m.group);
        let group = times.by_group.entry(group_metric(m.group)).or_default();
        let mut runner = CaseRunner::new();
        let loop_start = Instant::now();
        let (mut calls, mut busy) = (0u64, 0u64);
        let mut crashed = None;
        for combo in &plan.cases {
            let t = Instant::now();
            let r = runner.execute(os, m, &pools, combo, &mut session, budget);
            let ns = common::ns_since(t);
            calls += 1;
            busy += ns;
            times.all.record(ns);
            if fold(&mut tally, r.class, r.raw, r.any_exceptional) {
                crashed = Some(combo);
                break;
            }
        }
        drop(runner);
        group.0 += calls;
        group.1 += busy;
        tracer.batch("CaseRunner::execute", layer, loop_start, calls, busy);
        if let Some(combo) = crashed {
            if cfg.isolation_probe {
                tally.crash_reproducible_in_isolation =
                    Some(tracer.span("exec::reproduce_in_isolation", "exec", |_| {
                        exec::reproduce_in_isolation(os, m, &pools, combo)
                    }));
            }
        }
        tallies.push(tally);
    }
    let report = campaign::CampaignReport {
        os,
        total_cases: tallies.iter().map(|t| t.cases).sum(),
        muts: tallies,
        stats: None,
        warnings: Vec::new(),
        degraded: false,
        fleet_degraded: false,
    };
    let check = tracer.span("oracle::check_report", "oracle", |_| {
        oracle::check_report(&report)
    });
    gate.check(check.violations.is_empty(), || {
        format!("traced {os} report fails the oracle")
    });
    report.muts
}

fn empty_tally(m: &Mut, planned: usize) -> MutTally {
    MutTally {
        name: m.name.to_owned(),
        group: m.group,
        cases: 0,
        planned,
        aborts: 0,
        restarts: 0,
        silents: 0,
        error_reports: 0,
        suspected_hindering: 0,
        passes: 0,
        catastrophic: false,
        crash_reproducible_in_isolation: None,
        raw_outcomes: Vec::new(),
    }
}

/// Folds one case into the tally the way the serial engine does; returns
/// `true` on a Catastrophic outcome, which ends the MuT.
fn fold(tally: &mut MutTally, class: FailureClass, raw: RawOutcome, any_exceptional: bool) -> bool {
    tally.cases += 1;
    match class {
        FailureClass::Catastrophic => {
            tally.catastrophic = true;
            return true;
        }
        FailureClass::Restart => tally.restarts += 1,
        FailureClass::Abort => tally.aborts += 1,
        FailureClass::Silent => tally.silents += 1,
        FailureClass::Hindering => tally.error_reports += 1,
        FailureClass::Pass if raw == RawOutcome::ReturnedError => {
            tally.error_reports += 1;
            if !any_exceptional {
                tally.suspected_hindering += 1;
            }
        }
        FailureClass::Pass => tally.passes += 1,
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    plain: &Phase,
    tracer: &Tracer,
    times: &CaseTimes,
    wall_ns: u64,
    cfg: &campaign::CampaignConfig,
    first: &BTreeMap<OsVariant, Vec<MutTally>>,
    ctx: &Ctx,
) {
    let spans = tracer.spans();
    let mut table = LayerTable::default();
    table.add(spans, wall_ns);
    out.set("exec.case_ns.p50", times.all.quantile(0.5));
    out.set("exec.case_ns.p99", times.all.quantile(0.99));
    for (group, (calls, ns)) in &times.by_group {
        if *calls > 0 {
            out.set(group, *ns as f64 / *calls as f64);
        }
    }
    out.set(
        "exec.probe_us",
        trace::mean_ns(spans, "exec::reproduce_in_isolation").0 / 1e3,
    );
    let (prepare_ns, muts) = trace::mean_ns(spans, "campaign::resolve_pools");
    if muts > 0 {
        out.set("campaign.prepare_us", prepare_ns / 1e3);
    }
    common::stats_metrics(out, &plain.stats, plain.cases);
    // Micro-measurements on the generated inputs, outside the traced
    // phase: an uncached plan per MuT, and the campaign fingerprint.
    let (mut plan_ns, mut plans, mut fp_ns) = (0u64, 0u64, Vec::new());
    for &os in first.keys() {
        let registry = catalog::registry_for(os);
        for m in catalog::catalog_for(os) {
            let dims: Vec<usize> = campaign::resolve_pools(&registry, &m)
                .iter()
                .map(Vec::len)
                .collect();
            if dims.is_empty() {
                continue;
            }
            let t = Instant::now();
            std::hint::black_box(sampling::enumerate(&dims, cfg.cap, m.name));
            plan_ns += common::ns_since(t);
            plans += 1;
        }
        let t = Instant::now();
        std::hint::black_box(campaign::fingerprint(os, cfg));
        fp_ns.push(common::ns_since(t) as f64);
    }
    out.set(
        "sampling.plan_us",
        plan_ns as f64 / plans.max(1) as f64 / 1e3,
    );
    out.set("campaign.fingerprint_us", common::mean(&fp_ns) / 1e3);
    // Crashcon and adaptive campaigns run only in the `modes` workload,
    // which the benchmark leaves out; time those layers here.
    let os = first.keys().next().copied().unwrap_or(OsVariant::Win95);
    crate::modes::probe(out, os, gen::Rng::new(ctx.seed, 8).next_u64());
    common::finish_table(
        out,
        table,
        common::overhead_pct(plain.wall_s, wall_ns as f64 / 1e9),
        ctx,
        "sweep",
        &[spans],
    );
}

/// The metric holding the mean `CaseRunner::execute` time of a group.
fn group_metric(group: FunctionGroup) -> &'static str {
    match group {
        FunctionGroup::ProcessPrimitives => "exec.case_ns.ProcessPrimitives",
        FunctionGroup::IoPrimitives => "exec.case_ns.IoPrimitives",
        FunctionGroup::FileDirAccess => "exec.case_ns.FileDirAccess",
        FunctionGroup::MemoryManagement => "exec.case_ns.MemoryManagement",
        FunctionGroup::ProcessEnvironment => "exec.case_ns.ProcessEnvironment",
        FunctionGroup::CChar => "exec.case_ns.CChar",
        FunctionGroup::CString => "exec.case_ns.CString",
        FunctionGroup::CMemory => "exec.case_ns.CMemory",
        FunctionGroup::CFileIo => "exec.case_ns.CFileIo",
        FunctionGroup::CStreamIo => "exec.case_ns.CStreamIo",
        FunctionGroup::CMath => "exec.case_ns.CMath",
        FunctionGroup::CTime => "exec.case_ns.CTime",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_variant_is_the_geometric_mean_of_per_variant_quantiles() {
        let ms = [
            (OsVariant::Linux, 10.0),
            (OsVariant::Win95, 40.0),
            (OsVariant::Linux, 10.0),
            (OsVariant::Win95, 40.0),
            (OsVariant::Win95, 40.0),
        ];
        assert!((by_variant(&ms, 0.5) - 20.0).abs() < 1e-9);
        assert_eq!(by_variant(&[], 0.5), 0.0);
    }
}
