//! `durable`: the classic case engine through the journaled campaign at
//! cap 1000, variants in a seeded rotation. Each write campaign gets a
//! fresh journal; the resume campaign after it cuts that journal at a
//! seeded record boundary and resumes it. Journal appends and syncs cost
//! several times the case itself, so a `journal`/`persist` change shows
//! here; resume runs the same layer the other way (recovery scan and
//! replay), so a write-path gain that slows recovery shows in
//! `resume_p50_ms`.
//!
//! The journaled engine appends inside the program, so the traced replay
//! times each campaign as one call and the journal's recovery scan
//! (`Journal::open_resume` on the cut file) as another; the append and
//! sync costs come from replaying the records of the written journals
//! through `Journal::append` after the traced phase.

use ballista::campaign::{self, run_campaign_journaled, CampaignConfig, CampaignStats, MutTally};
use ballista::journal::{CaseRecord, Journal, HEADER_LEN, RECORD_LEN};
use sim_kernel::variant::OsVariant;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::common::{self, Ctx, Gate, Limit, Outcome, Shape};
use crate::gen::{self, DurableOp};
use crate::trace::{self, LayerTable, Tracer};

const CAP: usize = 1000;

/// Written journals kept for the append/sync replay of a traced run.
const KEEP_JOURNALS: usize = 2;

pub fn setup() {
    common::prime(&common::serial(CAP));
}

/// The fixed work behind `peak_rss_mb`: two rotations of write and
/// resume campaigns.
pub fn footprint(ctx: &Ctx) -> Result<(), String> {
    let ops = gen::durable_ops(ctx.seed, 4 * gen::CYCLE);
    phase(
        &ops,
        Limit::Ops(ops.len()),
        &common::serial(CAP),
        ctx,
        None,
        &mut Gate::default(),
    )
    .map(drop)
}

#[derive(Default)]
struct Phase {
    ops: usize,
    wall_s: f64,
    campaign_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    /// Cases executed (a resume replays its journal prefix instead).
    cases: u64,
    cycles: common::Cycles,
    stats: Vec<CampaignStats>,
    /// Per op: its variant and its tallies, checked after the phase.
    results: Vec<(OsVariant, Vec<MutTally>)>,
    /// Bytes of the first written journals.
    kept: Vec<(OsVariant, Vec<u8>)>,
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    setup();
    let ops = gen::durable_ops(ctx.seed, 100_000);
    let cfg = common::serial(CAP);
    let mut gate = Gate::default();
    let budget = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(&ops, Limit::Seconds(budget), &cfg, ctx, None, &mut gate)?;
    let mut traced_out = None;
    if traced {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let replay = phase(
            &ops,
            Limit::Ops(plain.ops),
            &cfg,
            ctx,
            Some(&mut tracer),
            &mut gate,
        )?;
        traced_out = Some((tracer, common::ns_since(origin), replay));
    }
    // Every written and resumed tally must equal the serial engine's.
    let mut reference: BTreeMap<OsVariant, Vec<MutTally>> = BTreeMap::new();
    let phases = std::iter::once(&plain).chain(traced_out.as_ref().map(|t| &t.2));
    for (i, (os, muts)) in phases.flat_map(|p| &p.results).enumerate() {
        let want = reference
            .entry(*os)
            .or_insert_with(|| campaign::run_campaign(*os, &cfg).muts);
        if muts != want {
            gate.fail_counted(|| {
                format!("op {i}: journaled {os} tallies differ from the serial engine's")
            });
        }
    }
    common::golden_gate(&mut gate)?;
    let mut out = Outcome::new(
        Shape {
            cap: CAP.to_string(),
            engine: "journaled",
            workers: "1".to_owned(),
        },
        gate,
    );
    let mut campaign_ms = plain.campaign_ms.clone();
    let mut resume_ms = plain.resume_ms.clone();
    let (ops_per_s, cases_per_s) = plain.cycles.rates(2 * gen::CYCLE);
    out.set("cases_per_s", cases_per_s);
    out.set("campaign_p50_ms", common::quantile(&mut campaign_ms, 0.5));
    out.set("campaign_p90_ms", common::quantile(&mut campaign_ms, 0.9));
    out.set("requests_per_s", ops_per_s);
    out.extra
        .push(("resume_p50_ms", common::quantile(&mut resume_ms, 0.5), "ms"));
    if let Some((tracer, wall_ns, _)) = traced_out {
        let spans = tracer.spans();
        let mut table = LayerTable::default();
        table.add(spans, wall_ns);
        out.set(
            "journal.recover_ms",
            trace::mean_ns(spans, "Journal::open_resume").0 / 1e6,
        );
        common::stats_metrics(&mut out, &plain.stats, plain.cases);
        append_metrics(&mut out, &plain.kept, &cfg, ctx)?;
        common::finish_table(
            &mut out,
            table,
            common::overhead_pct(plain.wall_s, wall_ns as f64 / 1e9),
            ctx,
            "durable",
            &[spans],
        );
    }
    Ok(out)
}

fn phase(
    ops: &[DurableOp],
    limit: Limit,
    cfg: &CampaignConfig,
    ctx: &Ctx,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let journal = ctx.work.join("campaign.journal");
    let start = Instant::now();
    while limit.more(start, p.ops, 2 * gen::CYCLE) {
        let op = ops[p.ops];
        let (os, resume, cut) = match op {
            DurableOp::Write(os) => {
                // A fresh journal per write campaign.
                let _ = std::fs::remove_file(&journal);
                (os, false, 0)
            }
            DurableOp::Resume(os, frac) => (os, true, cut_journal(&journal, frac)?),
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.set_op(p.ops as u32);
            if resume {
                let hash = campaign::fingerprint(os, cfg).as_u64();
                t.span("Journal::open_resume", "journal", |_| {
                    Journal::open_resume(&journal, hash)
                })
                .map_err(|e| format!("recovering {}: {e}", journal.display()))?;
            }
        }
        let t = Instant::now();
        let ran = common::guarded(|| match tracer.as_deref_mut() {
            Some(tr) => tr.span("campaign::run_campaign_journaled", "campaign", |_| {
                run_campaign_journaled(os, cfg, &journal, resume)
            }),
            None => run_campaign_journaled(os, cfg, &journal, resume),
        })
        .unwrap_or_else(|| Err(std::io::Error::other("campaign panicked")));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        gate.check(ran.is_ok(), || {
            format!(
                "op {}: journaled {os} campaign failed: {:?}",
                p.ops,
                ran.as_ref().err()
            )
        });
        let report = ran.map_err(|e| format!("journaled campaign: {e}"))?;
        p.campaign_ms.push(ms);
        if resume {
            p.resume_ms.push(ms);
        } else if p.kept.len() < KEEP_JOURNALS {
            let bytes = std::fs::read(&journal).map_err(|e| format!("reading journal: {e}"))?;
            p.kept.push((os, bytes));
        }
        let executed = (report.total_cases as u64).saturating_sub(cut);
        p.cases += executed;
        p.cycles.push(start.elapsed().as_secs_f64(), executed);
        p.stats.extend(report.stats);
        p.results.push((os, report.muts));
        p.ops += 1;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    Ok(p)
}

/// The journal layer timed on one journaled campaign of `os` under
/// `cfg`: its fsyncs per thousand cases, `Journal::open_resume` on the
/// journal cut in half, and `Journal::append`/`Journal::sync` replaying
/// its records. Lets a workload without journaled campaigns of its own
/// still report the journal layer.
pub fn journal_probe(
    out: &mut Outcome,
    os: OsVariant,
    cfg: &CampaignConfig,
    ctx: &Ctx,
) -> Result<(), String> {
    let path = ctx.work.join("probe.journal");
    let report = run_campaign_journaled(os, cfg, &path, false)
        .map_err(|e| format!("journaled probe: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading journal: {e}"))?;
    let fsyncs = report.stats.map_or(0, |s| s.journal_fsyncs);
    out.set(
        "journal.fsyncs_per_kcase",
        fsyncs as f64 * 1e3 / report.total_cases.max(1) as f64,
    );
    cut_journal(&path, 0.5)?;
    let hash = campaign::fingerprint(os, cfg).as_u64();
    let t = Instant::now();
    Journal::open_resume(&path, hash).map_err(|e| format!("recovering probe journal: {e}"))?;
    out.set("journal.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    let _ = std::fs::remove_file(&path);
    append_metrics(out, &[(os, bytes)], cfg, ctx)
}

/// Cuts the journal after `frac` of its records, at a record boundary,
/// as a crash there would leave it. Returns the records kept.
fn cut_journal(path: &Path, frac: f64) -> Result<u64, String> {
    let len = std::fs::metadata(path)
        .map_err(|e| format!("journal to cut: {e}"))?
        .len();
    let records = len.saturating_sub(HEADER_LEN as u64) / RECORD_LEN as u64;
    let keep = ((records as f64 * frac) as u64).min(records);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("opening journal to cut: {e}"))?;
    file.set_len(HEADER_LEN as u64 + keep * RECORD_LEN as u64)
        .map_err(|e| format!("cutting journal: {e}"))?;
    Ok(keep)
}

/// `Journal::append` and `Journal::sync` timed on the records the
/// workload's write campaigns journaled. An append that crossed the
/// sync interval is counted as a sync.
fn append_metrics(
    out: &mut Outcome,
    kept: &[(OsVariant, Vec<u8>)],
    cfg: &CampaignConfig,
    ctx: &Ctx,
) -> Result<(), String> {
    let path = ctx.work.join("replay.journal");
    let (mut append_ns, mut appends, mut sync_ns, mut syncs) = (0u64, 0u64, 0u64, 0u64);
    for (os, bytes) in kept {
        let hash = campaign::fingerprint(*os, cfg).as_u64();
        let mut journal =
            Journal::create(&path, hash).map_err(|e| format!("replay journal: {e}"))?;
        for chunk in bytes[HEADER_LEN..].chunks_exact(RECORD_LEN) {
            let rec = CaseRecord::decode(chunk).ok_or("undecodable journal record")?;
            let before = journal.fsyncs();
            let t = Instant::now();
            journal.append(rec).map_err(|e| format!("append: {e}"))?;
            let ns = common::ns_since(t);
            if journal.fsyncs() > before {
                sync_ns += ns;
                syncs += 1;
            } else {
                append_ns += ns;
                appends += 1;
            }
        }
        let t = Instant::now();
        journal.sync().map_err(|e| format!("sync: {e}"))?;
        sync_ns += common::ns_since(t);
        syncs += 1;
    }
    let _ = std::fs::remove_file(&path);
    out.set(
        "journal.append_us",
        append_ns as f64 / appends.max(1) as f64 / 1e3,
    );
    out.set(
        "journal.sync_ms",
        sync_ns as f64 / syncs.max(1) as f64 / 1e6,
    );
    Ok(())
}
