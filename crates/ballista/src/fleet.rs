//! Sharded campaign execution — the fleet path.
//!
//! Splits one campaign into per-MuT-range **shards**, fans the shards
//! across a worker pool, and merges the shard outputs into a report
//! that is **bit-identical** to [`run_campaign`](crate::campaign::run_campaign)
//! (the engine-equivalence matrix proves it on every variant).
//!
//! # Why the merge is sound
//!
//! A shard executes its MuT range exactly like the parallel engine's
//! clean pass: every case at **residue zero**, one packed record byte
//! per case. Clean-pass records are independent per MuT — no shard can
//! observe another shard's execution — so *any* partition of the
//! catalog produces the same record set, and the coordinator can merge
//! shard outputs by simply placing each MuT's records back at its
//! catalog index. The sequential **replay pass** (shared with the
//! parallel engine, same function) then walks the merged records in
//! catalog order with the one true session, re-executing exactly the
//! cases whose outcome could depend on accumulated residue. The fleet
//! path therefore inherits the parallel engine's bit-identity argument
//! wholesale; the only new claim is the trivial one that partitioning a
//! set of independent jobs does not change the jobs — and, with the
//! supervisor, that *re-executing* an independent job after a worker
//! death cannot change it either (a shard is a pure function of its
//! spec).
//!
//! # Process supervision
//!
//! With [`FleetConfig::process`] set, shards execute on **supervised
//! worker processes** (the `fleet_worker` binary, or whatever
//! `BALLISTA_WORKER_CMD` names) speaking a length-prefixed frame
//! protocol over stdin/stdout: the supervisor sends [`ShardSpec`] wire
//! bytes, the worker streams per-MuT heartbeat frames while it works
//! and finishes with [`ShardResult`] wire bytes. The supervisor tracks
//! every worker with a **deterministic heartbeat deadline** derived
//! from the campaign's fuel budget (host wall-clock is consulted only
//! at this supervision boundary, never inside the engine), and on
//! worker death, hang, or malformed reply it requeues the shard with
//! bounded exponential backoff onto a healthy worker, quarantining a
//! slot after K consecutive failures. When no worker survives — or no
//! worker binary can be found at all — the campaign **degrades
//! gracefully to the in-process thread pool** and completes with a
//! `fleet_degraded` marker and PARTIAL-DATA-style warnings instead of
//! aborting. None of this can change a tally bit: supervision is pure
//! control plane, and the merge consumes the same records no matter
//! which worker produced them on which attempt.
//!
//! # Fault injection
//!
//! Workers honor env-latched faults so chaos tests and CI can kill
//! them deterministically: `BALLISTA_FLEET_FAULT=die:N` exits the
//! process when its Nth shard arrives, `garble:N` replies to the Nth
//! shard with an unparseable result frame, `hang:N` goes silent
//! forever on the Nth shard. `BALLISTA_FLEET_SHARD_DELAY_MS` stretches
//! every shard (widening the window for real SIGKILLs), and
//! `BALLISTA_FLEET_DEADLINE_MS` overrides the heartbeat deadline so
//! hang detection is testable in milliseconds.

use std::io::{BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sim_kernel::variant::OsVariant;

use crate::adaptive::AdaptiveConfig;
use crate::campaign::{
    clean_mut_quarantined, prepare, replay_pass, CampaignConfig, CampaignReport, CampaignStats,
    CleanMut, CleanRecords,
};
use crate::catalog;
use crate::exec::{self, Session};
use crate::telemetry::{self, TraceCollector};
use serde::{Deserialize, Serialize};

/// How a campaign is sharded and executed by [`run_campaign_fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FleetConfig {
    /// Shard count. `0` (the default) resolves to four shards per
    /// worker — small enough ranges that a slow shard cannot straggle
    /// the pool.
    #[serde(default)]
    pub shards: usize,
    /// Worker pool size. `0` (the default) picks the machine's
    /// available parallelism, like [`CampaignConfig::workers`].
    #[serde(default)]
    pub workers: usize,
    /// Execute shards on supervised worker **processes** instead of
    /// in-process threads. Workers are discovered via the
    /// `BALLISTA_WORKER_CMD` env var (whitespace-split command line) or
    /// a `fleet_worker` binary next to the current executable; when no
    /// worker can be spawned the campaign degrades to the thread pool.
    #[serde(default)]
    pub process: bool,
    /// Per-shard retry budget after worker failures before the
    /// supervisor executes the shard in-process. `0` (the default)
    /// resolves to 3.
    #[serde(default)]
    pub max_shard_retries: u32,
    /// Consecutive failures after which a worker slot is quarantined
    /// (no further respawns into it). `0` (the default) resolves to 2.
    #[serde(default)]
    pub worker_quarantine_after: u32,
}

impl FleetConfig {
    /// The effective worker count (`0` → available parallelism).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// The effective shard count over a catalog of `muts` MuTs:
    /// `shards` (capped at the MuT count — an empty shard is useless),
    /// with `0` resolving to four per worker.
    #[must_use]
    pub fn effective_shards(&self, muts: usize) -> usize {
        let want = match self.shards {
            0 => self.effective_workers().saturating_mul(4),
            n => n,
        };
        want.clamp(1, muts.max(1))
    }

    /// The effective per-shard retry budget (`0` → 3).
    #[must_use]
    pub fn effective_max_shard_retries(&self) -> u32 {
        match self.max_shard_retries {
            0 => 3,
            n => n,
        }
    }

    /// The effective consecutive-failure quarantine threshold (`0` → 2).
    #[must_use]
    pub fn effective_quarantine_after(&self) -> u32 {
        match self.worker_quarantine_after {
            0 => 2,
            n => n,
        }
    }
}

/// One shard's work order: run the clean pass for the catalog MuTs in
/// `[mut_start, mut_end)` of `os`'s catalog under `cfg`.
///
/// Self-contained by design — a worker holding only this (plus the
/// code) produces its [`ShardResult`]; nothing else crosses the shard
/// boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// OS variant whose catalog the range indexes.
    pub os: OsVariant,
    /// Campaign configuration (cap, fuel budget, cleanup mode, …).
    pub cfg: CampaignConfig,
    /// First catalog MuT index of this shard (inclusive).
    pub mut_start: usize,
    /// One past the last catalog MuT index of this shard.
    pub mut_end: usize,
    /// Whether to capture the per-case fuel side channel (needed only
    /// when the coordinator is tracing).
    #[serde(default)]
    pub capture_fuel: bool,
    /// Run the shard in crashcon mode: each case executes with the
    /// filesystem op recorder armed and the wire records carry packed
    /// [`crate::crashcon::CaseVerdict`]s (with the aux counts on the
    /// fuel channel) instead of campaign outcome bytes. Absent in specs
    /// from older coordinators, which deserializes to `false`.
    #[serde(default)]
    pub crashcon: bool,
    /// Run the shard over an **adaptive pinned plan** instead of the
    /// fixed samples: the worker re-derives the pinned plan from these
    /// knobs (deterministic, memoized per process — see
    /// [`crate::adaptive::pinned_plan_shared`]) and executes each MuT's
    /// pinned case list. Absent in specs from older coordinators, which
    /// deserializes to `None` (classic mode).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub adaptive: Option<AdaptiveConfig>,
}

impl ShardSpec {
    /// Serializes the spec for the wire.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("shard spec serializes")
    }

    /// Parses a spec off the wire.
    ///
    /// # Errors
    ///
    /// Returns the parse error text for malformed bytes. Never panics —
    /// adversarial bytes are an expected input at a process boundary
    /// (asserted by the `wire_hardening` proptest).
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        serde_json::from_slice(bytes).map_err(|e| e.to_string())
    }
}

/// One MuT's clean-pass output in wire form: the packed record byte per
/// case, the optional fuel side channel, or `None` for a MuT the shard
/// quarantined after repeated contained faults.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCleanMut {
    /// Packed record bytes, one per executed case ([`crate::crash::pack_case`]).
    pub records: Vec<u8>,
    /// Per-case fuel, present iff the spec asked for it; one entry per
    /// record.
    pub fuel: Option<Vec<u64>>,
}

/// A completed shard: per-MuT clean-pass outputs for the spec's range,
/// in range order, plus the shard's quarantine bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Echo of the spec's `mut_start`, so results self-describe their
    /// placement even when they arrive out of order.
    pub mut_start: usize,
    /// One entry per MuT in `[mut_start, mut_end)`; `None` marks a
    /// quarantined MuT.
    pub muts: Vec<Option<WireCleanMut>>,
    /// Human-readable quarantine/retry warnings, range order.
    pub warnings: Vec<String>,
    /// Contained worker panics that earned a retry inside this shard.
    pub quarantine_retries: u64,
}

/// Leading bytes of a [`ShardResult`] wire payload: a tag and the
/// layout version. A change to the layout bumps the last byte, so a
/// worker built from other sources is a protocol fault, not a misparse.
const RESULT_MAGIC: [u8; 4] = *b"BSR\x01";

/// Per-MuT tags of the result layout.
const MUT_QUARANTINED: u8 = 0;
const MUT_RECORDS: u8 = 1;
const MUT_RECORDS_FUEL: u8 = 2;

impl ShardResult {
    /// Serializes the result for the wire, in a binary layout (all
    /// integers little-endian):
    ///
    /// ```text
    /// "BSR" 0x01 | mut_start u64 | quarantine_retries u64 | muts u32
    /// per MuT:     tag u8 (0 quarantined, 1 records, 2 records + fuel)
    ///              [tag 1, 2] records u32 | record bytes
    ///              [tag 2]    one fuel u64 per record
    /// warnings u32 | per warning: length u32 | UTF-8 bytes
    /// ```
    ///
    /// A clean-pass record is one byte per case, so the payload is
    /// about one byte per case plus a few per MuT.
    ///
    /// # Panics
    ///
    /// Panics when a MuT's fuel channel does not have one entry per
    /// record, or a count exceeds `u32` — both producer bugs.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let len = |n: usize| {
            u32::try_from(n)
                .expect("shard result count fits u32")
                .to_le_bytes()
        };
        let mut_bytes: usize = self
            .muts
            .iter()
            .flatten()
            .map(|w| 4 + w.records.len() + w.fuel.as_ref().map_or(0, |f| 8 * f.len()))
            .sum();
        let warning_bytes: usize = self.warnings.iter().map(|w| 4 + w.len()).sum();
        let size = RESULT_MAGIC.len() + 8 + 8 + 4 + self.muts.len() + mut_bytes + 4 + warning_bytes;
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(&RESULT_MAGIC);
        out.extend_from_slice(&(self.mut_start as u64).to_le_bytes());
        out.extend_from_slice(&self.quarantine_retries.to_le_bytes());
        out.extend_from_slice(&len(self.muts.len()));
        for m in &self.muts {
            let Some(w) = m else {
                out.push(MUT_QUARANTINED);
                continue;
            };
            out.push(if w.fuel.is_some() {
                MUT_RECORDS_FUEL
            } else {
                MUT_RECORDS
            });
            out.extend_from_slice(&len(w.records.len()));
            out.extend_from_slice(&w.records);
            if let Some(fuel) = &w.fuel {
                assert_eq!(fuel.len(), w.records.len(), "one fuel entry per record");
                for f in fuel {
                    out.extend_from_slice(&f.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&len(self.warnings.len()));
        for w in &self.warnings {
            out.extend_from_slice(&len(w.len()));
            out.extend_from_slice(w.as_bytes());
        }
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Parses a result off the wire (the layout of
    /// [`ShardResult::to_wire`]). The parser is exact: every count is
    /// checked against the bytes left before anything is allocated, and
    /// trailing bytes are an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation. Never panics —
    /// adversarial bytes are an expected input at a process boundary
    /// (asserted by the `wire_hardening` proptest).
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        let mut r = WireReader(bytes);
        if r.take(4)? != RESULT_MAGIC {
            return Err("not a shard result (bad magic or layout version)".to_owned());
        }
        let mut_start = usize::try_from(r.u64()?).map_err(|_| "mut_start overflows usize")?;
        let quarantine_retries = r.u64()?;
        let n = r.count(1)?;
        let mut muts = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.take(1)?[0];
            if tag == MUT_QUARANTINED {
                muts.push(None);
                continue;
            }
            if tag != MUT_RECORDS && tag != MUT_RECORDS_FUEL {
                return Err(format!("unknown MuT tag {tag:#x}"));
            }
            let records = r.prefixed()?.to_vec();
            let fuel = if tag == MUT_RECORDS_FUEL {
                let raw = r.take(
                    records
                        .len()
                        .checked_mul(8)
                        .ok_or("fuel length overflows")?,
                )?;
                Some(
                    raw.chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect(),
                )
            } else {
                None
            };
            muts.push(Some(WireCleanMut { records, fuel }));
        }
        let n = r.count(4)?;
        let mut warnings = Vec::with_capacity(n);
        for _ in 0..n {
            let text = r.prefixed()?;
            let text = std::str::from_utf8(text).map_err(|e| format!("warning text: {e}"))?;
            warnings.push(text.to_owned());
        }
        if !r.0.is_empty() {
            return Err(format!(
                "{} trailing bytes after the shard result",
                r.0.len()
            ));
        }
        Ok(ShardResult {
            mut_start,
            muts,
            warnings,
            quarantine_retries,
        })
    }

    /// Total executed cases recorded in this shard (for progress).
    fn case_count(&self) -> u64 {
        self.muts
            .iter()
            .flatten()
            .map(|m| m.records.len() as u64)
            .sum()
    }
}

/// A cursor over untrusted wire bytes whose every read is bounds-checked.
struct WireReader<'a>(&'a [u8]);

impl<'a> WireReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.0.len() {
            return Err(format!("truncated: need {n} bytes, {} left", self.0.len()));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u32` count of items at least `min_item_bytes` long each,
    /// rejected when the bytes left cannot hold that many.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize;
        if n.saturating_mul(min_item_bytes) > self.0.len() {
            return Err(format!(
                "truncated: count {n} exceeds the {} bytes left",
                self.0.len()
            ));
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed byte string.
    fn prefixed(&mut self) -> Result<&'a [u8], String> {
        let n = self.count(1)?;
        self.take(n)
    }
}

// ---------------------------------------------------------------------
// Frame protocol (supervisor <-> worker process)
// ---------------------------------------------------------------------

/// Frame tag: a [`ShardSpec`] wire payload (supervisor → worker).
pub const FRAME_SPEC: u8 = b'S';
/// Frame tag: a [`ShardResult`] wire payload (worker → supervisor).
pub const FRAME_RESULT: u8 = b'R';
/// Frame tag: a [`Heartbeat`] payload (worker → supervisor), emitted
/// after every completed MuT so the supervisor can tell a slow shard
/// from a wedged worker.
pub const FRAME_HEARTBEAT: u8 = b'H';

/// Upper bound on a frame payload — anything larger is a protocol
/// fault, not a plausible shard.
const MAX_FRAME_LEN: usize = 1 << 28;

/// Worker liveness report: cumulative progress within the shard the
/// worker is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Heartbeat {
    /// MuTs of the current shard completed so far.
    pub muts_done: u64,
    /// Clean-pass cases of the current shard executed so far.
    pub cases_done: u64,
}

impl Heartbeat {
    /// The fixed 16-byte payload: `muts_done` then `cases_done`, both
    /// `u64` little-endian.
    #[must_use]
    pub fn to_wire(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.muts_done.to_le_bytes());
        out[8..].copy_from_slice(&self.cases_done.to_le_bytes());
        out
    }

    /// Parses a heartbeat payload.
    ///
    /// # Errors
    ///
    /// Returns an error unless the payload is exactly 16 bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != 16 {
            return Err(format!("heartbeat of {} bytes, want 16", bytes.len()));
        }
        let mut r = WireReader(bytes);
        Ok(Heartbeat {
            muts_done: r.u64()?,
            cases_done: r.u64()?,
        })
    }
}

/// Writes one `tag | u32-LE length | payload` frame with a single
/// `write_all`, so an unbuffered pipe sees one write per frame.
///
/// # Errors
///
/// Propagates the underlying I/O error (a broken pipe here means the
/// peer died).
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(tag);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
///
/// Returns an error for a truncated frame, an oversized length prefix,
/// or any underlying I/O failure — never panics, whatever the bytes.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut tag = [0u8; 1];
    if r.read(&mut tag)? == 0 {
        return Ok(None);
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((tag[0], payload)))
}

// ---------------------------------------------------------------------
// Env-latched fault injection (read by the worker process)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Die,
    Garble,
    Hang,
}

fn parse_fault() -> Option<(FaultKind, u64)> {
    let latch = std::env::var("BALLISTA_FLEET_FAULT").ok()?;
    let (kind, nth) = latch.split_once(':')?;
    let nth = nth.parse().ok()?;
    let kind = match kind {
        "die" => FaultKind::Die,
        "garble" => FaultKind::Garble,
        "hang" => FaultKind::Hang,
        _ => return None,
    };
    Some((kind, nth))
}

fn env_ms(name: &str) -> Option<Duration> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Executes one shard: the clean pass for every MuT in the spec's
/// range, under the engines' shared quarantine fence. This is the whole
/// worker side of the protocol — a remote worker is this function plus
/// a transport.
#[must_use]
pub fn execute_shard(spec: &ShardSpec) -> ShardResult {
    execute_shard_observed(spec, &mut |_| {})
}

/// [`execute_shard`] with a per-MuT progress callback (the worker loop
/// turns each callback into a heartbeat frame).
pub fn execute_shard_observed(
    spec: &ShardSpec,
    on_progress: &mut dyn FnMut(Heartbeat),
) -> ShardResult {
    if let Some(delay) = env_ms("BALLISTA_FLEET_SHARD_DELAY_MS") {
        std::thread::sleep(delay);
    }
    let registry = catalog::registry_for(spec.os);
    let muts = catalog::catalog_for(spec.os);
    let end = spec.mut_end.min(muts.len());
    // Adaptive shards execute the pinned plan: the worker re-derives it
    // from the spec's knobs (one explore per process, memoized), so the
    // wire stays small and every worker pins the identical plan.
    let pin = spec
        .adaptive
        .as_ref()
        .map(|a| crate::adaptive::pinned_plan_shared(spec.os, &spec.cfg, a));
    let mut out = ShardResult {
        mut_start: spec.mut_start,
        muts: Vec::with_capacity(end.saturating_sub(spec.mut_start)),
        warnings: Vec::new(),
        quarantine_retries: 0,
    };
    let mut cases_done = 0u64;
    for (m_idx, m) in muts.iter().enumerate().take(end).skip(spec.mut_start) {
        let mut prep = prepare(&registry, m, &spec.cfg);
        if let Some(pin) = &pin {
            prep.plan = Arc::clone(&pin.muts[m_idx].plan);
        }
        telemetry::on_mut_begin(prep.plan.cases.len() as u64);
        if spec.crashcon {
            let (packed, aux) =
                crate::crashcon::crash_mut_records(spec.os, &prep, spec.cfg.effective_fuel_budget());
            cases_done += packed.len() as u64;
            out.muts.push(Some(WireCleanMut {
                records: packed,
                fuel: Some(aux),
            }));
            on_progress(Heartbeat {
                muts_done: out.muts.len() as u64,
                cases_done,
            });
            continue;
        }
        let mut retries = 0u64;
        let clean = clean_mut_quarantined(
            spec.os,
            &prep,
            spec.cfg.effective_fuel_budget(),
            spec.capture_fuel,
            &mut out.warnings,
            &mut retries,
        );
        out.quarantine_retries += retries;
        cases_done += clean.as_ref().map_or(0, |c| c.records.len() as u64);
        out.muts.push(clean.map(|c| WireCleanMut {
            records: c.records,
            fuel: c.fuel,
        }));
        on_progress(Heartbeat {
            muts_done: out.muts.len() as u64,
            cases_done,
        });
    }
    telemetry::on_shard_executed();
    out
}

/// The worker-process main loop: reads [`FRAME_SPEC`] frames off
/// `input`, executes each shard, streams [`FRAME_HEARTBEAT`] frames
/// while working, and answers with a [`FRAME_RESULT`] frame — until a
/// clean EOF (the supervisor closing the pipe is the shutdown signal).
///
/// Honors the env-latched fault injections described in the module
/// docs, so a test or CI job can make this worker die, garble, or hang
/// on an exact shard.
///
/// # Errors
///
/// Returns an error for malformed input frames or a broken output pipe;
/// the `fleet_worker` binary maps that to a nonzero exit.
pub fn worker_loop(input: impl Read, output: impl Write) -> std::io::Result<()> {
    let fault = parse_fault();
    let mut input = BufReader::new(input);
    let mut output = output;
    let mut shard_no = 0u64;
    loop {
        let Some((tag, payload)) = read_frame(&mut input)? else {
            return Ok(());
        };
        if tag != FRAME_SPEC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("worker expected a spec frame, got tag {tag:#x}"),
            ));
        }
        shard_no += 1;
        match fault {
            Some((FaultKind::Die, nth)) if shard_no == nth => std::process::exit(9),
            Some((FaultKind::Hang, nth)) if shard_no == nth => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            _ => {}
        }
        let spec = ShardSpec::from_wire(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let result = {
            let out = &mut output;
            execute_shard_observed(&spec, &mut |hb| {
                // A broken pipe surfaces on the result frame below; a
                // missed heartbeat on its own is not fatal.
                let _ = write_frame(out, FRAME_HEARTBEAT, &hb.to_wire());
            })
        };
        if let Some((FaultKind::Garble, nth)) = fault {
            if shard_no == nth {
                write_frame(&mut output, FRAME_RESULT, b"\xff{definitely not a result")?;
                continue;
            }
        }
        write_frame(&mut output, FRAME_RESULT, &result.to_wire())?;
    }
}

// ---------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------

/// Wait-free live progress of one fleet campaign, updated by the
/// supervisor (or the thread pool) and read by `GET /campaign/<fp>`
/// while the campaign is in flight.
#[derive(Debug, Default)]
pub struct FleetProgress {
    /// Total shards in the campaign.
    pub shards_total: AtomicU64,
    /// Shards merged so far.
    pub shards_done: AtomicU64,
    /// Clean-pass cases executed so far (heartbeat-granular for process
    /// workers, shard-granular for threads).
    pub cases_done: AtomicU64,
    /// Worker processes that died, hung, or replied with garbage.
    pub worker_deaths: AtomicU64,
    /// Shard re-executions after worker failures.
    pub shard_retries: AtomicU64,
    /// Worker processes currently alive.
    pub workers_live: AtomicU64,
    /// Whether the campaign has degraded below full process execution.
    pub degraded: AtomicBool,
}

/// Point-in-time serializable copy of a [`FleetProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FleetProgressSnapshot {
    /// Total shards in the campaign.
    pub shards_total: u64,
    /// Shards merged so far.
    pub shards_done: u64,
    /// Clean-pass cases executed so far.
    pub cases_done: u64,
    /// Worker deaths observed so far.
    pub worker_deaths: u64,
    /// Shard retries so far.
    pub shard_retries: u64,
    /// Worker processes currently alive.
    pub workers_live: u64,
    /// Whether execution has degraded below full process workers.
    pub degraded: bool,
}

impl FleetProgress {
    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> FleetProgressSnapshot {
        FleetProgressSnapshot {
            shards_total: self.shards_total.load(Ordering::Relaxed),
            shards_done: self.shards_done.load(Ordering::Relaxed),
            cases_done: self.cases_done.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            shard_retries: self.shard_retries.load(Ordering::Relaxed),
            workers_live: self.workers_live.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    /// Latches the degraded flag and counts the degradation (once).
    fn degrade(&self) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            telemetry::on_fleet_degraded();
        }
    }
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// PIDs of all currently-live supervised workers, for tests that aim
/// real signals at them.
static WORKER_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Snapshot of the live supervised-worker PIDs across all campaigns in
/// this process — the chaos tests use it to aim real `SIGKILL`s.
#[must_use]
pub fn live_worker_pids() -> Vec<u32> {
    WORKER_PIDS.lock().expect("worker pid registry poisoned").clone()
}

/// The heartbeat deadline: the longest frame-to-frame silence the
/// supervisor tolerates before declaring a worker hung.
///
/// Derived deterministically from the campaign shape, not measured: a
/// worker heartbeats after every MuT, a MuT is at most `cap` cases, and
/// a case is fuel-capped at the budget — so the bound assumes a
/// pessimistic 10k fuel units per host millisecond and adds the
/// env-latched shard delay when present. `BALLISTA_FLEET_DEADLINE_MS`
/// overrides the whole computation for tests.
fn heartbeat_deadline(cfg: &CampaignConfig) -> Duration {
    if let Some(d) = env_ms("BALLISTA_FLEET_DEADLINE_MS") {
        return d + env_ms("BALLISTA_FLEET_SHARD_DELAY_MS").unwrap_or(Duration::ZERO);
    }
    let fuel = cfg.effective_fuel_budget();
    let cap = cfg.cap.max(1) as u64;
    let ms = 2_000 + cap.saturating_mul(fuel) / 10_000;
    Duration::from_millis(ms.clamp(2_000, 120_000))
        + env_ms("BALLISTA_FLEET_SHARD_DELAY_MS").unwrap_or(Duration::ZERO)
}

/// Bounded exponential backoff before a failed shard's next attempt:
/// 10ms doubling per attempt, capped at 640ms.
fn backoff_delay(attempt: u32) -> Duration {
    let ms = 10u64.saturating_mul(1 << attempt.saturating_sub(1).min(6));
    Duration::from_millis(ms.min(640))
}

/// Resolves the worker command line: `BALLISTA_WORKER_CMD` wins, else a
/// `fleet_worker` binary next to (or one directory above) the current
/// executable. `None` means process workers are unavailable and the
/// campaign degrades to threads.
fn worker_command() -> Option<Vec<String>> {
    if let Ok(cmd) = std::env::var("BALLISTA_WORKER_CMD") {
        let parts: Vec<String> = cmd.split_whitespace().map(str::to_owned).collect();
        return if parts.is_empty() { None } else { Some(parts) };
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for d in [Some(dir), dir.parent()].into_iter().flatten() {
        let cand = d.join("fleet_worker");
        if cand.is_file() {
            return Some(vec![cand.to_string_lossy().into_owned()]);
        }
    }
    None
}

/// A live worker process plus the channel its reader thread feeds.
struct WorkerHandle {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: Receiver<std::io::Result<(u8, Vec<u8>)>>,
    pid: u32,
}

impl WorkerHandle {
    fn spawn(cmd: &[String]) -> std::io::Result<WorkerHandle> {
        let mut child = Command::new(&cmd[0])
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "worker stdout missing")
        })?;
        let pid = child.id();
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader thread turns the pipe into timed frames: it ends
        // at EOF (dropping `tx`, which surfaces as a disconnect) or
        // after forwarding a read error.
        std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                match read_frame(&mut stdout) {
                    Ok(Some(frame)) => {
                        if tx.send(Ok(frame)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => return,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        WORKER_PIDS
            .lock()
            .expect("worker pid registry poisoned")
            .push(pid);
        Ok(WorkerHandle {
            child,
            stdin,
            frames: rx,
            pid,
        })
    }

    /// Reaps the process: graceful (close stdin, wait for the EOF exit)
    /// or forced (SIGKILL).
    fn reap(mut self, graceful: bool) {
        drop(self.stdin.take());
        if !graceful {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        WORKER_PIDS
            .lock()
            .expect("worker pid registry poisoned")
            .retain(|&p| p != self.pid);
    }
}

/// One queued shard attempt.
struct ShardJob {
    idx: usize,
    attempts: u32,
    ready_at: Instant,
}

struct QueueInner {
    pending: Vec<ShardJob>,
    completed: usize,
    total: usize,
}

/// The supervisor's work queue: shards waiting for a worker, including
/// failed shards serving out their backoff.
struct ShardQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

impl ShardQueue {
    fn new(total: usize) -> ShardQueue {
        ShardQueue {
            inner: Mutex::new(QueueInner {
                pending: (0..total)
                    .map(|idx| ShardJob {
                        idx,
                        attempts: 0,
                        ready_at: Instant::now(),
                    })
                    .collect(),
                completed: 0,
                total,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a job is ready (its backoff has elapsed) or the
    /// campaign is complete (`None`). Lowest shard index wins ties so
    /// execution order stays as close to catalog order as failures
    /// allow.
    fn pop(&self) -> Option<ShardJob> {
        let mut g = self.inner.lock().expect("shard queue poisoned");
        loop {
            if g.completed >= g.total {
                return None;
            }
            let now = Instant::now();
            let ready = g
                .pending
                .iter()
                .enumerate()
                .filter(|(_, j)| j.ready_at <= now)
                .min_by_key(|(_, j)| j.idx)
                .map(|(pos, _)| pos);
            if let Some(pos) = ready {
                return Some(g.pending.swap_remove(pos));
            }
            let wait = g
                .pending
                .iter()
                .map(|j| j.ready_at.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(50))
                .clamp(Duration::from_millis(1), Duration::from_millis(50));
            g = self
                .cv
                .wait_timeout(g, wait)
                .expect("shard queue poisoned")
                .0;
        }
    }

    fn push(&self, job: ShardJob) {
        self.inner
            .lock()
            .expect("shard queue poisoned")
            .pending
            .push(job);
        self.cv.notify_all();
    }

    fn complete(&self) {
        self.inner.lock().expect("shard queue poisoned").completed += 1;
        self.cv.notify_all();
    }

    /// Drains whatever is still pending (used after all slots retire).
    fn drain_pending(&self) -> Vec<ShardJob> {
        std::mem::take(&mut self.inner.lock().expect("shard queue poisoned").pending)
    }
}

/// Why a worker attempt on a shard failed.
enum WorkerFailure {
    Died(String),
    Hung,
    Malformed(String),
}

/// Shared context for the supervisor's slot threads.
struct Supervisor<'a> {
    specs: &'a [ShardSpec],
    wire: &'a [Vec<u8>],
    slots: &'a [Mutex<Option<ShardResult>>],
    queue: ShardQueue,
    progress: &'a FleetProgress,
    warnings: &'a Mutex<Vec<String>>,
    cmd: Vec<String>,
    deadline: Duration,
    max_retries: u32,
    quarantine_after: u32,
}

impl Supervisor<'_> {
    fn warn(&self, text: String) {
        self.warnings
            .lock()
            .expect("fleet warnings poisoned")
            .push(text);
    }

    /// Stores a completed shard and advances the campaign.
    fn store(&self, idx: usize, result: ShardResult, hb_cases_seen: u64) {
        let cases = result.case_count();
        self.progress
            .cases_done
            .fetch_add(cases.saturating_sub(hb_cases_seen), Ordering::Relaxed);
        self.progress.shards_done.fetch_add(1, Ordering::Relaxed);
        *self.slots[idx].lock().expect("shard slot poisoned") = Some(result);
        self.queue.complete();
    }

    /// Waits for the current shard's result, crediting heartbeats
    /// against the deadline. Returns the raw result payload and the
    /// heartbeat case count already credited to progress.
    fn await_result(
        &self,
        worker: &WorkerHandle,
        hb_cases: &mut u64,
    ) -> Result<Vec<u8>, WorkerFailure> {
        loop {
            match worker.frames.recv_timeout(self.deadline) {
                Ok(Ok((FRAME_HEARTBEAT, payload))) => {
                    if let Ok(hb) = Heartbeat::from_wire(&payload) {
                        let delta = hb.cases_done.saturating_sub(*hb_cases);
                        *hb_cases = hb.cases_done;
                        self.progress.cases_done.fetch_add(delta, Ordering::Relaxed);
                    }
                }
                Ok(Ok((FRAME_RESULT, payload))) => return Ok(payload),
                Ok(Ok((tag, _))) => {
                    return Err(WorkerFailure::Malformed(format!(
                        "unexpected frame tag {tag:#x}"
                    )))
                }
                Ok(Err(e)) => return Err(WorkerFailure::Malformed(e.to_string())),
                Err(RecvTimeoutError::Timeout) => return Err(WorkerFailure::Hung),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(WorkerFailure::Died("worker pipe closed".to_owned()))
                }
            }
        }
    }

    /// One slot's lifecycle: keep a worker process alive, feed it
    /// shards, and handle its failures until the campaign completes or
    /// the slot quarantines itself.
    fn slot_loop(&self) {
        let mut worker: Option<WorkerHandle> = None;
        let mut consecutive = 0u32;
        let mut spawned_before = false;
        while let Some(mut job) = self.queue.pop() {
            // Ensure a live worker in this slot.
            if worker.is_none() {
                match WorkerHandle::spawn(&self.cmd) {
                    Ok(h) => {
                        if spawned_before {
                            telemetry::on_worker_respawn();
                        }
                        spawned_before = true;
                        self.progress.workers_live.fetch_add(1, Ordering::Relaxed);
                        worker = Some(h);
                    }
                    Err(e) => {
                        consecutive += 1;
                        self.warn(format!("fleet supervisor could not spawn a worker: {e}"));
                        telemetry::on_shard_requeue();
                        self.queue.push(job);
                        if consecutive >= self.quarantine_after {
                            telemetry::on_worker_quarantined();
                            return;
                        }
                        std::thread::sleep(backoff_delay(consecutive));
                        continue;
                    }
                }
            }
            let h = worker.as_ref().expect("worker just ensured");
            let pid = h.pid;
            let mut hb_cases = 0u64;
            let sent = worker
                .as_mut()
                .and_then(|h| h.stdin.as_mut())
                .is_some_and(|stdin| write_frame(stdin, FRAME_SPEC, &self.wire[job.idx]).is_ok());
            let outcome = if sent {
                self.await_result(worker.as_ref().expect("worker alive"), &mut hb_cases)
            } else {
                Err(WorkerFailure::Died("worker stdin closed".to_owned()))
            };
            let failure = match outcome {
                Ok(payload) => match ShardResult::from_wire(&payload) {
                    Ok(result)
                        if result.mut_start == self.specs[job.idx].mut_start
                            && result.muts.len()
                                == self.specs[job.idx].mut_end - self.specs[job.idx].mut_start =>
                    {
                        telemetry::on_shard_executed();
                        self.store(job.idx, result, hb_cases);
                        consecutive = 0;
                        continue;
                    }
                    Ok(_) => {
                        telemetry::on_wire_protocol_fault();
                        WorkerFailure::Malformed("result does not match its spec".to_owned())
                    }
                    Err(e) => {
                        telemetry::on_wire_protocol_fault();
                        WorkerFailure::Malformed(e)
                    }
                },
                Err(f) => f,
            };
            // The worker failed this shard: count the death, roll back
            // its partial progress, and decide the shard's future.
            self.progress
                .cases_done
                .fetch_sub(hb_cases, Ordering::Relaxed);
            if let Some(h) = worker.take() {
                h.reap(false);
                self.progress.workers_live.fetch_sub(1, Ordering::Relaxed);
            }
            telemetry::on_worker_death();
            self.progress.worker_deaths.fetch_add(1, Ordering::Relaxed);
            consecutive += 1;
            job.attempts += 1;
            let what = match &failure {
                WorkerFailure::Died(e) => format!("died ({e})"),
                WorkerFailure::Hung => format!(
                    "missed its {}ms heartbeat deadline",
                    self.deadline.as_millis()
                ),
                WorkerFailure::Malformed(e) => format!("returned a malformed reply ({e})"),
            };
            if job.attempts > self.max_retries {
                // Retry budget exhausted: last resort is the supervisor
                // executing the shard in-process — degraded, never
                // aborted.
                self.warn(format!(
                    "fleet worker pid {pid} {what} on shard {}; retry budget exhausted, \
                     executing in-process",
                    job.idx
                ));
                self.progress.degrade();
                let result = execute_shard(&self.specs[job.idx]);
                self.store(job.idx, result, 0);
            } else {
                let backoff = backoff_delay(job.attempts);
                self.warn(format!(
                    "fleet worker pid {pid} {what} on shard {}; requeued with {}ms backoff \
                     (attempt {} of {})",
                    job.idx,
                    backoff.as_millis(),
                    job.attempts,
                    self.max_retries,
                ));
                telemetry::on_shard_retry(backoff.as_millis() as u64);
                telemetry::on_shard_requeue();
                self.progress.shard_retries.fetch_add(1, Ordering::Relaxed);
                job.ready_at = Instant::now() + backoff;
                self.queue.push(job);
            }
            if consecutive >= self.quarantine_after {
                self.warn(format!(
                    "fleet supervisor quarantined a worker slot after {consecutive} \
                     consecutive failures"
                ));
                telemetry::on_worker_quarantined();
                return;
            }
        }
        if let Some(h) = worker.take() {
            h.reap(true);
            self.progress.workers_live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/// Executes `todo` (indices into `specs`) on an in-process thread pool
/// that still round-trips the wire protocol — with hardened parsing: a
/// malformed buffer counts a protocol fault and falls back to the typed
/// value instead of panicking.
fn run_shards_threaded(
    specs: &[ShardSpec],
    todo: &[usize],
    workers: usize,
    slots: &[Mutex<Option<ShardResult>>],
    counters: &Arc<exec::stats::Counters>,
    progress: &FleetProgress,
    warnings: &Mutex<Vec<String>>,
) {
    let next = AtomicUsize::new(0);
    let workers = workers.min(todo.len()).max(1);
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|_| {
                    exec::stats::install_sink(Arc::clone(counters));
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = todo.get(t) else { break };
                        let spec = match ShardSpec::from_wire(&specs[i].to_wire()) {
                            Ok(spec) => spec,
                            Err(e) => {
                                telemetry::on_wire_protocol_fault();
                                warnings.lock().expect("fleet warnings poisoned").push(
                                    format!("shard {i} spec failed the wire round-trip ({e}); \
                                             executing from the typed spec"),
                                );
                                specs[i].clone()
                            }
                        };
                        let result = execute_shard(&spec);
                        let result = match ShardResult::from_wire(&result.to_wire()) {
                            Ok(result) => result,
                            Err(e) => {
                                telemetry::on_wire_protocol_fault();
                                warnings.lock().expect("fleet warnings poisoned").push(
                                    format!("shard {i} result failed the wire round-trip ({e}); \
                                             keeping the typed result"),
                                );
                                result
                            }
                        };
                        progress
                            .cases_done
                            .fetch_add(result.case_count(), Ordering::Relaxed);
                        progress.shards_done.fetch_add(1, Ordering::Relaxed);
                        *slots[i].lock().expect("shard slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("fleet worker panicked");
        }
    })
    .expect("fleet scope panicked");
}

/// Runs the full campaign sharded across a worker pool, producing a
/// report **bit-identical** to [`run_campaign`](crate::campaign::run_campaign)
/// on the same `(os, cfg)`.
///
/// The coordinator cuts the catalog into contiguous MuT ranges, ships
/// each range through the wire protocol to the pool, reassembles the
/// clean-pass records at their catalog indices, and runs the shared
/// sequential replay pass — see the module docs for why this cannot
/// change a single tally bit.
///
/// # Example
///
/// ```no_run
/// use ballista::campaign::CampaignConfig;
/// use ballista::fleet::{run_campaign_fleet, FleetConfig};
/// use sim_kernel::variant::OsVariant;
///
/// let cfg = CampaignConfig { cap: 200, ..CampaignConfig::default() };
/// let fleet = FleetConfig { shards: 8, workers: 2, ..FleetConfig::default() };
/// let report = run_campaign_fleet(OsVariant::Win95, &cfg, &fleet);
/// println!("{} cases over 8 shards", report.total_cases);
/// ```
#[must_use]
pub fn run_campaign_fleet(os: OsVariant, cfg: &CampaignConfig, fleet: &FleetConfig) -> CampaignReport {
    run_campaign_fleet_observed(os, cfg, fleet, None)
}

/// Runs a **crashcon** campaign on the fleet: the same shard dispatch,
/// supervision, and degradation machinery as [`run_campaign_fleet`],
/// with each shard executing in crashcon mode ([`ShardSpec::crashcon`])
/// — packed [`crate::crashcon::CaseVerdict`] bytes ride the record
/// channel and the aux counts ride the fuel channel. Crashcon cases are
/// residue-free, so the merge is a pure commutative fold per MuT (no
/// replay pass), and the tallies are **bit-identical** to the serial
/// engine's on every shard/worker split.
#[must_use]
pub fn run_crashcon_fleet(
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
) -> crate::crashcon::CrashconReport {
    let t0 = Instant::now();
    exec::stats::reset();
    let counters = Arc::new(exec::stats::Counters::default());
    exec::stats::install_sink(Arc::clone(&counters));
    let muts = catalog::catalog_for(os);
    let shard_count = fleet.effective_shards(muts.len());
    let workers = fleet.effective_workers().min(shard_count);
    let progress = FleetProgress::default();
    progress
        .shards_total
        .store(shard_count as u64, Ordering::Relaxed);
    let specs: Vec<ShardSpec> = (0..shard_count)
        .map(|s| ShardSpec {
            os,
            cfg: *cfg,
            mut_start: s * muts.len() / shard_count,
            mut_end: (s + 1) * muts.len() / shard_count,
            capture_fuel: true,
            crashcon: true,
            adaptive: None,
        })
        .collect();
    let result_slots: Vec<Mutex<Option<ShardResult>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let fleet_warnings = Mutex::new(Vec::new());
    dispatch_shards(
        &specs,
        fleet,
        workers,
        cfg,
        &result_slots,
        &counters,
        &progress,
        &fleet_warnings,
    );
    // Merge: fold each MuT's wire records into its tally at its catalog
    // index. Records are pure per-case verdicts, so the fold is
    // order-free and the shard partition is invisible in the result.
    let mut tallies = Vec::with_capacity(muts.len());
    for slot in result_slots {
        let shard = slot
            .into_inner()
            .expect("shard slot poisoned")
            .expect("every shard executed or degraded to the pool");
        debug_assert_eq!(shard.mut_start, tallies.len(), "shards merge in catalog order");
        for wire in shard.muts {
            let m = &muts[tallies.len()];
            let wire = wire.expect("crashcon shards do not quarantine MuTs");
            let aux = wire.fuel.expect("crashcon records always carry aux counts");
            tallies.push(crate::crashcon::fold_records(
                m.name, m.group, &wire.records, &aux,
            ));
        }
    }
    let warnings = fleet_warnings.into_inner().expect("fleet warnings poisoned");
    exec::stats::clear_sink();
    crate::crashcon::assemble(os, workers, tallies, warnings, 0, 0, &counters, t0)
}


/// Runs every shard spec to completion, filling `result_slots`: worker
/// processes under the [`Supervisor`] when `fleet.process` is set (with
/// graceful degradation to the in-process pool), plain worker threads
/// otherwise. Shared verbatim by the classic fleet campaign and the
/// crashcon fleet engine — the shard protocol is mode-agnostic.
#[allow(clippy::too_many_arguments)]
fn dispatch_shards(
    specs: &[ShardSpec],
    fleet: &FleetConfig,
    workers: usize,
    cfg: &CampaignConfig,
    result_slots: &[Mutex<Option<ShardResult>>],
    counters: &Arc<exec::stats::Counters>,
    progress: &FleetProgress,
    fleet_warnings: &Mutex<Vec<String>>,
) {
    if fleet.process {
        match worker_command() {
            Some(cmd) => {
                let wire: Vec<Vec<u8>> = specs.iter().map(ShardSpec::to_wire).collect();
                let sup = Supervisor {
                    specs,
                    wire: &wire,
                    slots: result_slots,
                    queue: ShardQueue::new(specs.len()),
                    progress,
                    warnings: fleet_warnings,
                    cmd,
                    deadline: heartbeat_deadline(cfg),
                    max_retries: fleet.effective_max_shard_retries(),
                    quarantine_after: fleet.effective_quarantine_after(),
                };
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| sup.slot_loop());
                    }
                });
                // Every slot retired (quarantine or spawn failure) with
                // shards still pending: finish on the thread pool
                // rather than abort.
                let leftover: Vec<usize> =
                    sup.queue.drain_pending().iter().map(|j| j.idx).collect();
                if !leftover.is_empty() {
                    fleet_warnings.lock().expect("fleet warnings poisoned").push(format!(
                        "fleet degraded: no worker process survived; executing {} remaining \
                         shard(s) on the in-process pool",
                        leftover.len()
                    ));
                    progress.degrade();
                    run_shards_threaded(
                        specs,
                        &leftover,
                        workers,
                        result_slots,
                        counters,
                        progress,
                        fleet_warnings,
                    );
                }
            }
            None => {
                fleet_warnings.lock().expect("fleet warnings poisoned").push(
                    "fleet degraded: no worker binary found (set BALLISTA_WORKER_CMD or \
                     install fleet_worker next to this executable); executing on the \
                     in-process pool"
                        .to_owned(),
                );
                progress.degrade();
                let todo: Vec<usize> = (0..specs.len()).collect();
                run_shards_threaded(
                    specs,
                    &todo,
                    workers,
                    result_slots,
                    counters,
                    progress,
                    fleet_warnings,
                );
            }
        }
    } else {
        let todo: Vec<usize> = (0..specs.len()).collect();
        run_shards_threaded(
            specs,
            &todo,
            workers,
            result_slots,
            counters,
            progress,
            fleet_warnings,
        );
    }
}

/// [`run_campaign_fleet`] with live progress: the supervisor (or the
/// thread pool) updates `progress` as shards complete, so the serving
/// layer can answer in-flight `GET /campaign/<fp>` requests with real
/// shard/case counts.
#[must_use]
pub fn run_campaign_fleet_observed(
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
    progress: Option<&FleetProgress>,
) -> CampaignReport {
    run_fleet_engine(os, cfg, fleet, progress, None)
}

/// The shared fleet-engine body behind the classic and adaptive
/// campaigns: with `adaptive` set, the coordinator derives the pinned
/// plan (before the stats epoch, so exploration never pollutes the
/// campaign counters), replays against pinned preps, and stamps every
/// shard spec with the adaptive knobs so workers re-derive the same
/// plan. Tallies stay bit-identical to the matching in-process engine
/// either way.
pub(crate) fn run_fleet_engine(
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
    progress: Option<&FleetProgress>,
    adaptive: Option<&AdaptiveConfig>,
) -> CampaignReport {
    let own_progress;
    let progress = match progress {
        Some(p) => p,
        None => {
            own_progress = FleetProgress::default();
            &own_progress
        }
    };
    let pin = adaptive.map(|a| crate::adaptive::pinned_plan_shared(os, cfg, a));
    let t0 = Instant::now();
    exec::stats::reset();
    let counters = Arc::new(exec::stats::Counters::default());
    exec::stats::install_sink(Arc::clone(&counters));
    telemetry::on_campaign_begin();
    let mut tc = TraceCollector::begin(os, cfg.cap as u64);
    let registry = catalog::registry_for(os);
    let muts = catalog::catalog_for(os);
    let preps: Vec<_> = match &pin {
        Some(pin) => crate::adaptive::pinned_preps(&registry, &muts, pin),
        None => muts.iter().map(|m| prepare(&registry, m, cfg)).collect(),
    };

    let shard_count = fleet.effective_shards(muts.len());
    let workers = fleet.effective_workers().min(shard_count);
    progress
        .shards_total
        .store(shard_count as u64, Ordering::Relaxed);
    let specs: Vec<ShardSpec> = (0..shard_count)
        .map(|s| ShardSpec {
            os,
            cfg: *cfg,
            mut_start: s * muts.len() / shard_count,
            mut_end: (s + 1) * muts.len() / shard_count,
            capture_fuel: tc.is_some(),
            crashcon: false,
            adaptive: adaptive.copied(),
        })
        .collect();

    let result_slots: Vec<Mutex<Option<ShardResult>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let fleet_warnings = Mutex::new(Vec::new());
    dispatch_shards(
        &specs,
        fleet,
        workers,
        cfg,
        &result_slots,
        &counters,
        progress,
        &fleet_warnings,
    );

    // Merge: place every MuT's records back at its catalog index. Shard
    // ranges partition the catalog, so this is a permutation-free
    // reassembly — then the shared replay pass does the rest.
    let mut records: Vec<CleanRecords> = Vec::with_capacity(muts.len());
    let mut warnings = Vec::new();
    let mut retries = 0u64;
    for slot in result_slots {
        let shard = slot
            .into_inner()
            .expect("shard slot poisoned")
            .expect("every shard executed or degraded to the pool");
        debug_assert_eq!(shard.mut_start, records.len(), "shards merge in catalog order");
        retries += shard.quarantine_retries;
        warnings.extend(shard.warnings);
        records.extend(shard.muts.into_iter().map(|m| {
            m.map(|w| CleanMut {
                records: w.records,
                fuel: w.fuel,
            })
        }));
    }
    warnings.extend(fleet_warnings.into_inner().expect("fleet warnings poisoned"));
    let degraded = records.iter().any(Option::is_none);
    let mut session = Session::new();
    let (tallies, replayed) = replay_pass(os, cfg, &preps, &records, &mut session, &mut tc);
    if let Some(tc) = tc {
        tc.finish();
    }
    telemetry::on_campaign_end();
    exec::stats::clear_sink();
    let total_cases = tallies.iter().map(|t| t.cases).sum::<usize>();
    let wall = t0.elapsed().as_secs_f64();
    let (boots, restores, boot_ns, restore_ns) = counters.snapshot();
    let stats = CampaignStats {
        parallelism: workers,
        wall_ms: wall * 1e3,
        cases_per_sec: total_cases as f64 / wall.max(1e-9),
        boots,
        restores,
        boot_ms: boot_ns as f64 / 1e6,
        restore_ms: restore_ns as f64 / 1e6,
        replayed_cases: replayed,
        quarantine_retries: retries,
        journal_fsyncs: 0,
        restores_fast: counters.restores_fast.load(Ordering::Relaxed),
        restores_full: counters.restores_full.load(Ordering::Relaxed),
        probe_provisions: counters.probe_provisions.load(Ordering::Relaxed),
        crashcon_snapshots: counters.crashcon_snapshots.load(Ordering::Relaxed),
        crashcon_remounts: counters.crashcon_remounts.load(Ordering::Relaxed),
    };
    CampaignReport {
        os,
        muts: tallies,
        total_cases,
        stats: Some(stats),
        warnings,
        degraded,
        fleet_degraded: progress.degraded.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ShardResult {
        ShardResult {
            mut_start: 12,
            muts: vec![
                Some(WireCleanMut {
                    records: vec![1, 2, 3],
                    fuel: Some(vec![0, 7, u64::MAX]),
                }),
                None,
                Some(WireCleanMut {
                    records: vec![9; 275],
                    fuel: None,
                }),
            ],
            warnings: vec!["quarantined ReadFile".to_owned(), "é".to_owned()],
            quarantine_retries: 2,
        }
    }

    #[test]
    fn result_wire_round_trips_every_mut_tag() {
        let result = sample_result();
        let wire = result.to_wire();
        assert_eq!(&wire[..4], b"BSR\x01");
        assert_eq!(ShardResult::from_wire(&wire), Ok(result));
        let empty = ShardResult {
            mut_start: 0,
            muts: Vec::new(),
            warnings: Vec::new(),
            quarantine_retries: 0,
        };
        assert_eq!(empty.to_wire().len(), 4 + 8 + 8 + 4 + 4);
        assert_eq!(ShardResult::from_wire(&empty.to_wire()), Ok(empty));
    }

    #[test]
    fn result_wire_is_about_a_byte_per_case() {
        let result = ShardResult {
            mut_start: 0,
            muts: vec![
                Some(WireCleanMut {
                    records: vec![0; 275],
                    fuel: None,
                });
                20
            ],
            warnings: Vec::new(),
            quarantine_retries: 0,
        };
        let per_case = result.to_wire().len() as f64 / (20.0 * 275.0);
        assert!((1.0..1.03).contains(&per_case), "{per_case} bytes per case");
    }

    #[test]
    fn result_parser_rejects_trailing_bytes_magic_and_tags() {
        let mut wire = sample_result().to_wire();
        wire.push(0);
        assert!(ShardResult::from_wire(&wire)
            .unwrap_err()
            .contains("trailing"));
        let mut wire = sample_result().to_wire();
        wire[3] = 2;
        assert!(ShardResult::from_wire(&wire).unwrap_err().contains("magic"));
        let mut wire = sample_result().to_wire();
        wire[24] = 3;
        assert!(ShardResult::from_wire(&wire).unwrap_err().contains("tag"));
    }

    #[test]
    fn result_parser_checks_counts_before_allocating() {
        let mut wire = RESULT_MAGIC.to_vec();
        wire.extend_from_slice(&[0; 16]);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ShardResult::from_wire(&wire).unwrap_err().contains("count"));
        // A record length past the end of the buffer.
        wire.truncate(20);
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(MUT_RECORDS);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ShardResult::from_wire(&wire).is_err());
    }

    #[test]
    fn heartbeat_is_a_fixed_16_byte_payload() {
        let hb = Heartbeat {
            muts_done: 3,
            cases_done: 1 << 40,
        };
        let wire = hb.to_wire();
        assert_eq!(Heartbeat::from_wire(&wire), Ok(hb));
        assert!(Heartbeat::from_wire(&wire[..15]).is_err());
        assert!(Heartbeat::from_wire(&[wire.as_slice(), &[0]].concat()).is_err());
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(Vec::new(), 0);
        write_frame(&mut w, FRAME_RESULT, b"payload").expect("in-memory write");
        assert_eq!(w.1, 1);
        assert_eq!(
            read_frame(&mut &w.0[..]).expect("well-formed"),
            Some((FRAME_RESULT, b"payload".to_vec()))
        );
    }
}
