//! `served`: an in-process campaign server on loopback with a fresh
//! cache directory, driven by two keep-alive clients in a closed loop.
//! Most requests repeat one of a few warm specs and are cache hits; in
//! every block of `MISS_EVERY` requests of a client, one is a never-seen
//! spec (variant and a cap in 150–400 from the seed, `process: true`,
//! `workers: 2`). A miss pays for fingerprinting, plan generation,
//! supervised `fleet_worker` spawn, shard wire encoding and decoding,
//! the clean and replay passes, and the cache store.
//!
//! Inside the server every call is the program's own, so the traced
//! replay times each request as the client sees it. The cache, fleet and
//! fingerprint figures come from calling those layers' public functions
//! on the replay's miss specs and reports after the traced phase.

use ballista::cache::ResultCache;
use ballista::campaign::{self, run_campaign, CampaignReport, MutTally};
use ballista::fleet::{self, FleetConfig, ShardResult, ShardSpec};
use ballista::server::{CampaignSpec, Server, ServerConfig, ServerMetrics};
use ballista::{catalog, sampling};
use sim_kernel::variant::OsVariant;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::common::{self, Ctx, Gate, Limit, Outcome, Shape};
use crate::gen::{self, Request, WARM};
use crate::trace::{LayerTable, Span, Tracer};

const CLIENTS: usize = 2;
const FLEET_WORKERS: usize = 2;
/// One request in this many is a never-seen spec.
const MISS_EVERY: usize = 8000;
/// Miss specs and reports probed after a traced phase.
const PROBES: usize = 4;

/// A never-seen spec: executed on supervised worker processes.
fn miss_spec(os: OsVariant, cap: usize) -> CampaignSpec {
    CampaignSpec {
        cap,
        workers: FLEET_WORKERS,
        process: true,
        ..CampaignSpec::new(os)
    }
}

/// A warm spec: cached at set-up on the in-process fleet, so that set-up
/// time does not hinge on process spawns; its hits never execute.
fn warm_spec(os: OsVariant, cap: usize) -> CampaignSpec {
    CampaignSpec {
        process: false,
        ..miss_spec(os, cap)
    }
}

/// A running server with its warm specs already cached.
pub struct Served {
    addr: SocketAddr,
    cache_dir: PathBuf,
    /// Response body of each warm spec, in [`WARM`] order.
    warm: Vec<Vec<u8>>,
}

pub fn setup(ctx: &Ctx) -> Result<Served, String> {
    static SERVERS: AtomicUsize = AtomicUsize::new(0);
    worker_binary()?;
    let cache_dir = ctx
        .work
        .join(format!("cache-{}", SERVERS.fetch_add(1, Ordering::Relaxed)));
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: cache_dir.clone(),
        cache_capacity: 64,
    })
    .map_err(|e| format!("binding the campaign server: {e}"))?;
    let addr = server.spawn().addr;
    let mut client = Client::connect(addr)?;
    let mut warm = Vec::with_capacity(WARM.len());
    for (os, cap) in WARM {
        let body = serde_json::to_vec(&warm_spec(os, cap)).map_err(|e| e.to_string())?;
        let (status, response) = client
            .request("POST", "/campaign", &body)
            .map_err(|e| format!("warming: {e}"))?;
        if status != 200 {
            return Err(format!("warming {os} cap {cap}: HTTP {status}"));
        }
        warm.push(response);
    }
    Ok(Served {
        addr,
        cache_dir,
        warm,
    })
}

/// The supervisor spawns `fleet_worker` from next to this executable.
fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let worker = exe.with_file_name("fleet_worker");
    if worker.is_file() {
        Ok(worker)
    } else {
        Err(format!("no fleet_worker next to {}", exe.display()))
    }
}

/// A persistent keep-alive HTTP/1.1 connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        frame.extend_from_slice(body);
        self.writer.write_all(&frame)?;
        let mut line = String::new();
        let mut status = 0u16;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            let header = line.trim_end();
            if status == 0 {
                status = header
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            } else if header.is_empty() {
                break;
            } else if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One client's share of a phase.
#[derive(Default)]
struct ClientRun {
    /// Requests sent (or a failed connection).
    attempted: u64,
    /// Requests answered.
    done: usize,
    wall_ns: u64,
    hit_us: Vec<f64>,
    hit_bytes: u64,
    /// When each block of `MISS_EVERY` requests ended, in scaled seconds
    /// of requests since the client started.
    block_ends: Vec<f64>,
    /// (variant, cap, scaled latency ms, body) per miss.
    misses: Vec<(OsVariant, usize, f64, Vec<u8>)>,
    /// The client's reference kernel runs: one before its first request
    /// and one after each block.
    speed: common::Speed,
    failures: Vec<String>,
    spans: Vec<Span>,
}

fn client_loop(
    served: &Served,
    mut ops: gen::ServedClient,
    limit: Limit,
    origin: Option<Instant>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut tracer = origin.map(Tracer::new);
    let mut client = match Client::connect(served.addr) {
        Ok(c) => c,
        Err(e) => {
            run.attempted = 1;
            run.failures.push(e);
            return run;
        }
    };
    let bodies: Vec<Vec<u8>> = WARM
        .iter()
        .map(|&(os, cap)| serde_json::to_vec(&warm_spec(os, cap)).expect("spec serializes"))
        .collect();
    let start = Instant::now();
    // Each block's time is scaled by the kernel runs on this thread just
    // before and just after it. A closed-loop client and the server
    // thread answering it take turns, so the kernel shares a core only
    // with the other client's requests.
    let (mut scaled_s, mut block_from, mut block_misses) = (0.0, Instant::now(), 0);
    let mut end_block = |run: &mut ClientRun, from: Instant| {
        let wall = from.elapsed().as_secs_f64();
        let scaled = run.speed.scale_op(wall);
        for miss in &mut run.misses[block_misses..] {
            miss.2 *= scaled / wall;
        }
        block_misses = run.misses.len();
        scaled
    };
    run.speed.sample();
    while limit.more(start, run.done, 1) {
        let Some(op) = ops.next() else { break };
        let miss_body;
        let (body, name, layer) = match op {
            Request::Warm(i) => (&bodies[i], "POST /campaign hit", "server"),
            Request::Miss(os, cap) => {
                miss_body = serde_json::to_vec(&miss_spec(os, cap)).expect("spec serializes");
                (&miss_body, "POST /campaign miss", "server/fleet")
            }
        };
        if let Some(t) = tracer.as_mut() {
            t.set_op(run.done as u32);
        }
        run.attempted += 1;
        let t = Instant::now();
        let response = match tracer.as_mut() {
            Some(tr) => tr.span(name, layer, |_| client.request("POST", "/campaign", body)),
            None => client.request("POST", "/campaign", body),
        };
        let elapsed = t.elapsed().as_secs_f64();
        match (op, response) {
            (_, Err(e)) => {
                run.failures.push(format!("request {}: {e}", run.done));
                break;
            }
            (_, Ok((status, _))) if status != 200 => run
                .failures
                .push(format!("request {}: HTTP {status}", run.done)),
            (Request::Warm(i), Ok((_, bytes))) => {
                run.hit_us.push(elapsed * 1e6);
                run.hit_bytes += bytes.len() as u64;
                if bytes != served.warm[i] {
                    run.failures.push(format!(
                        "request {}: hit body differs from the warm response",
                        run.done
                    ));
                }
            }
            (Request::Miss(os, cap), Ok((_, bytes))) => {
                run.misses.push((os, cap, elapsed * 1e3, bytes))
            }
        }
        run.done += 1;
        if run.done % MISS_EVERY == 0 {
            scaled_s += end_block(&mut run, block_from);
            run.block_ends.push(scaled_s);
            block_from = Instant::now();
        }
    }
    if run.done % MISS_EVERY != 0 {
        end_block(&mut run, block_from);
    }
    run.wall_ns = common::ns_since(start);
    if let Some(t) = tracer {
        run.spans = t.spans().to_vec();
    }
    run
}

/// Both clients' runs over one phase.
fn phase(served: &Served, seed: u64, limits: &[Limit], origin: Option<Instant>) -> Vec<ClientRun> {
    std::thread::scope(|s| {
        let handles: Vec<_> = gen::served_clients(seed, CLIENTS, MISS_EVERY)
            .into_iter()
            .zip(limits)
            .map(|(ops, limit)| s.spawn(move || client_loop(served, ops, *limit, origin)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The fixed work behind `peak_rss_mb`: five blocks of requests per
/// client, five misses each.
pub fn footprint(served: &Served, ctx: &Ctx) {
    drop(phase(
        served,
        ctx.seed,
        &[Limit::Ops(5 * MISS_EVERY); CLIENTS],
        None,
    ));
}

fn server_metrics(served: &Served) -> Result<ServerMetrics, String> {
    let mut client = Client::connect(served.addr)?;
    let (status, body) = client
        .request("GET", "/metrics", &[])
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    serde_json::from_slice(&body).map_err(|e| format!("GET /metrics body: {e}"))
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    let served = setup(ctx)?;
    let budget = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(&served, ctx.seed, &[Limit::Seconds(budget); CLIENTS], None);
    let plain_metrics = server_metrics(&served)?;
    let mut traced_out = None;
    if traced {
        // A fresh server, so the replayed misses miss again.
        let again = setup(ctx)?;
        let limits: Vec<Limit> = plain.iter().map(|r| Limit::Ops(r.done)).collect();
        let origin = Instant::now();
        let runs = phase(&again, ctx.seed, &limits, Some(origin));
        traced_out = Some((again, runs));
    }
    // Served bodies to check against the direct engine: the untraced
    // phase's misses first (they also count toward `cases_per_s`), then
    // the replay's, then every server's warm specs.
    let plain_misses: usize = plain.iter().map(|r| r.misses.len()).sum();
    let traced_runs = traced_out.iter().flat_map(|(_, runs)| runs);
    let mut to_check: Vec<(OsVariant, usize, &[u8])> = Vec::new();
    for run in plain.iter().chain(traced_runs) {
        gate.attempted += run.attempted;
        for f in &run.failures {
            gate.fail_counted(|| f.clone());
        }
        to_check.extend(
            run.misses
                .iter()
                .map(|(os, cap, _, body)| (*os, *cap, body.as_slice())),
        );
    }
    for server in std::iter::once(&served).chain(traced_out.iter().map(|(s, _)| s)) {
        to_check.extend(
            WARM.iter()
                .zip(&server.warm)
                .map(|((os, cap), body)| (*os, *cap, body.as_slice())),
        );
    }
    let references = references(&to_check);
    let mut miss_cases = vec![0u64; plain_misses];
    let mut miss_stats = Vec::new();
    for (i, (os, cap, body)) in to_check.iter().enumerate() {
        gate.attempted += 1;
        let report: Result<CampaignReport, _> = serde_json::from_slice(body);
        let Ok(report) = report else {
            gate.fail_counted(|| format!("served {os} cap {cap}: unparsable report"));
            continue;
        };
        if i < plain_misses {
            miss_cases[i] = report.total_cases as u64;
            miss_stats.extend(report.stats);
        }
        if report.fleet_degraded {
            gate.fail_counted(|| format!("served {os} cap {cap} lost its worker processes"));
        } else if common::without_raw(&report.muts) != references[&(*os, *cap)] {
            gate.fail_counted(|| {
                format!("served {os} cap {cap} differs from the direct engine report")
            });
        }
    }
    gate.check(
        plain_metrics.campaigns_executed == (WARM.len() + plain_misses) as u64,
        || {
            format!(
                "server executed {} campaigns for {} distinct specs",
                plain_metrics.campaigns_executed,
                WARM.len() + plain_misses
            )
        },
    );
    gate.check(fleet::live_worker_pids().is_empty(), || {
        "fleet workers still alive after the run".to_owned()
    });
    common::golden_gate(&mut gate)?;
    let mut out = Outcome::new(
        Shape {
            cap: format!(
                "{}-{} misses, {} warm",
                gen::MISS_CAP_MIN,
                gen::MISS_CAP_MAX,
                WARM[0].1
            ),
            engine: "server+fleet-process",
            workers: format!("{CLIENTS} clients, {FLEET_WORKERS} fleet workers"),
        },
        gate,
    );
    let mut miss_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.misses.iter().map(|m| m.2))
        .collect();
    let mut hit_us: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.hit_us.iter().copied())
        .collect();
    // A client's throughput is its median block: every block of
    // `MISS_EVERY` requests holds exactly one miss.
    let (mut requests_per_s, mut cases_per_s, mut first_miss) = (0.0, 0.0, 0);
    for run in &plain {
        let mut blocks = common::Cycles::default();
        for (k, end) in run.block_ends.iter().enumerate().take(run.misses.len()) {
            blocks.push(*end, miss_cases[first_miss + k]);
        }
        first_miss += run.misses.len();
        let (blocks_per_s, cases) = blocks.rates(1);
        requests_per_s += blocks_per_s * MISS_EVERY as f64;
        cases_per_s += cases;
    }
    out.set("cases_per_s", cases_per_s);
    out.set("campaign_p50_ms", common::quantile(&mut miss_ms, 0.5));
    out.set("campaign_p90_ms", common::quantile(&mut miss_ms, 0.9));
    out.set("requests_per_s", requests_per_s);
    out.extra
        .push(("hit_p50_us", common::quantile(&mut hit_us, 0.5), "us"));
    out.extra
        .push(("hit_p99_us", common::quantile(&mut hit_us, 0.99), "us"));
    out.extra
        .push(("miss_count", miss_ms.len() as f64, "count"));
    let kernel_ms: Vec<f64> = plain.iter().map(|r| r.speed.kernel_ms()).collect();
    out.extra
        .push(("kernel_ms", common::mean(&kernel_ms), "ms"));
    if let Some((again, traced_runs)) = traced_out {
        let mut table = LayerTable::default();
        for r in &traced_runs {
            table.add(&r.spans, r.wall_ns);
        }
        let hits: u64 = plain.iter().map(|r| r.hit_us.len() as u64).sum();
        let hit_bytes: u64 = plain.iter().map(|r| r.hit_bytes).sum();
        out.set(
            "server.report_kb",
            hit_bytes as f64 / hits.max(1) as f64 / 1024.0,
        );
        out.set(
            "cache.hit_ratio",
            plain_metrics.cache_hits as f64 / plain_metrics.campaign_posts.max(1) as f64,
        );
        out.set(
            "server.campaigns_executed_ratio",
            plain_metrics.campaigns_executed as f64 / (WARM.len() + plain_misses) as f64,
        );
        let specs: Vec<(OsVariant, usize)> = traced_runs
            .iter()
            .flat_map(|r| r.misses.iter().map(|m| (m.0, m.1)))
            .take(PROBES)
            .collect();
        common::stats_metrics(&mut out, &miss_stats, miss_cases.iter().sum());
        probes(&mut out, &again, &specs, ctx)?;
        // The replay's misses find their plans already cached in this
        // process, so only the hits compare like with like.
        let mut traced_hit_us: Vec<f64> = traced_runs
            .iter()
            .flat_map(|r| r.hit_us.iter().copied())
            .collect();
        let overhead = common::overhead_pct(
            common::quantile(&mut hit_us, 0.5),
            common::quantile(&mut traced_hit_us, 0.5),
        );
        let threads: Vec<&[Span]> = traced_runs.iter().map(|r| r.spans.as_slice()).collect();
        common::finish_table(&mut out, table, overhead, ctx, "served", &threads);
    }
    Ok(out)
}

/// The direct serial engine's tallies for every distinct spec, on
/// `CLIENTS` threads.
fn references(specs: &[(OsVariant, usize, &[u8])]) -> BTreeMap<(OsVariant, usize), Vec<MutTally>> {
    let mut keys: Vec<(OsVariant, usize)> = specs.iter().map(|s| (s.0, s.1)).collect();
    keys.sort();
    keys.dedup();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(&(os, cap)) = keys.get(next.fetch_add(1, Ordering::Relaxed)) {
                        mine.push(((os, cap), run_campaign(os, &common::serial(cap)).muts));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Timed calls into the campaign, sampling, cache and fleet layers on the
/// traced phase's first miss specs.
fn probes(
    out: &mut Outcome,
    served: &Served,
    specs: &[(OsVariant, usize)],
    ctx: &Ctx,
) -> Result<(), String> {
    let (mut fp_ns, mut prep_ns, mut plan_ns, mut store_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut enc_ns, mut dec_ns, mut shard_ns, mut overhead_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut wire_bytes, mut wire_cases) = (0u64, 0u64);
    let store = ResultCache::new(ctx.work.join("probe-cache"), 64)
        .map_err(|e| format!("probe cache: {e}"))?;
    for &(os, cap) in specs {
        let cfg = miss_spec(os, cap).config();
        let t = Instant::now();
        let fp = campaign::fingerprint(os, &cfg);
        fp_ns.push(common::ns_since(t) as f64);
        let registry = catalog::registry_for(os);
        let muts = catalog::catalog_for(os);
        for m in &muts {
            let t = Instant::now();
            let pools = campaign::resolve_pools(&registry, m);
            let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
            if dims.is_empty() {
                continue;
            }
            drop(sampling::enumerate_shared(&dims, cap, m.name));
            prep_ns.push(common::ns_since(t) as f64);
            let t = Instant::now();
            std::hint::black_box(sampling::enumerate(&dims, cap, m.name));
            plan_ns.push(common::ns_since(t) as f64);
        }
        let report = run_campaign(os, &cfg);
        let t = Instant::now();
        store
            .store(fp, &report)
            .map_err(|e| format!("cache store: {e}"))?;
        store_ns.push(common::ns_since(t) as f64);
        let fleet_cfg = miss_spec(os, cap).fleet();
        let shards = fleet_cfg.effective_shards(muts.len());
        for k in 0..shards {
            let shard = ShardSpec {
                os,
                cfg,
                mut_start: k * muts.len() / shards,
                mut_end: (k + 1) * muts.len() / shards,
                capture_fuel: false,
                crashcon: false,
                adaptive: None,
            };
            let t = Instant::now();
            let wire = shard.to_wire();
            enc_ns.push(common::ns_since(t) as f64);
            let t = Instant::now();
            let decoded =
                ShardSpec::from_wire(&wire).map_err(|e| format!("shard spec wire: {e}"))?;
            dec_ns.push(common::ns_since(t) as f64);
            let t = Instant::now();
            let result = fleet::execute_shard(&decoded);
            shard_ns.push(common::ns_since(t) as f64);
            let t = Instant::now();
            let wire = result.to_wire();
            enc_ns.push(common::ns_since(t) as f64);
            let t = Instant::now();
            let back =
                ShardResult::from_wire(&wire).map_err(|e| format!("shard result wire: {e}"))?;
            dec_ns.push(common::ns_since(t) as f64);
            wire_bytes += wire.len() as u64;
            wire_cases += back
                .muts
                .iter()
                .flatten()
                .map(|m| m.records.len() as u64)
                .sum::<u64>();
        }
        let t = Instant::now();
        drop(fleet::run_campaign_fleet(os, &cfg, &fleet_cfg));
        let process = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(fleet::run_campaign_fleet(
            os,
            &cfg,
            &FleetConfig {
                process: false,
                ..fleet_cfg
            },
        ));
        overhead_ms.push((process - t.elapsed().as_secs_f64()) * 1e3);
    }
    // A hit served by the server's cache: the same directory, warmed
    // into this cache's memory front by its first lookup.
    let cache = ResultCache::new(&served.cache_dir, 64)
        .map_err(|e| format!("opening server cache: {e}"))?;
    let (os, cap) = WARM[0];
    let fp = campaign::fingerprint(os, &warm_spec(os, cap).config());
    let mut lookup_ns = Vec::new();
    for _ in 0..=200 {
        let t = Instant::now();
        let hit = cache.lookup(fp);
        lookup_ns.push(common::ns_since(t) as f64);
        if hit.is_none() {
            return Err("warm spec missing from the server cache".to_owned());
        }
    }
    lookup_ns.remove(0);
    out.set("campaign.fingerprint_us", common::mean(&fp_ns) / 1e3);
    out.set("campaign.prepare_us", common::mean(&prep_ns) / 1e3);
    out.set("sampling.plan_us", common::mean(&plan_ns) / 1e3);
    out.set("cache.store_ms", common::mean(&store_ns) / 1e6);
    out.set(
        "cache.lookup_us",
        common::quantile(&mut lookup_ns, 0.5) / 1e3,
    );
    out.set("fleet.wire_encode_us", common::mean(&enc_ns) / 1e3);
    out.set("fleet.wire_decode_us", common::mean(&dec_ns) / 1e3);
    out.set("fleet.shard_exec_ms", common::mean(&shard_ns) / 1e6);
    out.set(
        "fleet.wire_bytes_per_case",
        wire_bytes as f64 / wire_cases.max(1) as f64,
    );
    out.set("fleet.process_overhead_ms", common::mean(&overhead_ms));
    out.set("fleet.worker_spawn_ms", worker_spawn_ms()?);
    if let Some(&(os, cap)) = specs.first() {
        crate::durable::journal_probe(out, os, &common::serial(cap), ctx)?;
    }
    Ok(())
}

/// Median over three spawns of `fleet_worker` of the time from spawn to
/// its first frame in reply to a one-MuT shard.
fn worker_spawn_ms() -> Result<f64, String> {
    let worker = worker_binary()?;
    let shard = ShardSpec {
        os: OsVariant::Win95,
        cfg: common::serial(1),
        mut_start: 0,
        mut_end: 1,
        capture_fuel: false,
        crashcon: false,
        adaptive: None,
    }
    .to_wire();
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut child = Command::new(&worker)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning fleet_worker: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped above");
        let mut stdout = child.stdout.take().expect("piped above");
        fleet::write_frame(&mut stdin, fleet::FRAME_SPEC, &shard)
            .map_err(|e| format!("to fleet_worker: {e}"))?;
        let frame =
            fleet::read_frame(&mut stdout).map_err(|e| format!("from fleet_worker: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        drop(stdin);
        std::io::copy(&mut stdout, &mut std::io::sink()).map_err(|e| e.to_string())?;
        let status = child
            .wait()
            .map_err(|e| format!("waiting for fleet_worker: {e}"))?;
        if frame.is_none() || !status.success() {
            return Err(format!("fleet_worker did not answer ({status})"));
        }
    }
    Ok(common::quantile(&mut samples, 0.5))
}
