//! Campaign-as-a-service: the fleet HTTP server.
//!
//! A minimal threaded HTTP/1.1 + JSON server over [`std::net`] — no
//! external dependencies, fully offline — that turns the campaign
//! engine into a shared service:
//!
//! * `POST /campaign` with a [`CampaignSpec`] body: the spec is folded
//!   to its [`CampaignFingerprint`], the result cache is probed, and
//!   only a genuinely new campaign is executed (on the sharded
//!   [`fleet`](crate::fleet) path). The response is the serialized
//!   [`CampaignReport`](crate::campaign::CampaignReport), plus an
//!   `X-Cache: hit | coalesced | miss` header.
//! * `GET /campaign/<fingerprint>`: the cached report, or `202` while
//!   that campaign is in flight, or `404`.
//! * `GET /metrics`: a JSON snapshot of the server counters — request
//!   totals, cache hit/miss/coalesce counts, in-flight depth, shard
//!   and throughput numbers.
//!
//! # Request coalescing
//!
//! Concurrent identical requests must cost **one** campaign, not K.
//! The first requester of a fingerprint becomes the *leader*: it
//! registers an in-flight entry, runs the campaign, stores the result,
//! and wakes everyone. Every other requester of the same fingerprint
//! blocks on that entry's condvar and then serves the leader's bytes —
//! the `Arc<Vec<u8>>` stored in the cache — so all K responses are
//! **bit-identical** by construction (same allocation, not merely equal
//! JSON). A leader panic is contained: followers get `500`, the
//! in-flight entry is removed, and the next request starts fresh.
//!
//! # Fingerprint memoization
//!
//! Computing a fingerprint resolves every MuT's pools and enumerates
//! its sampling plan through the process-wide plan cache: well under a
//! millisecond per variant for a never-seen cap of a few hundred, about
//! a quarter of one once the cap's plans are cached (perfbench's
//! `campaign.fingerprint_us` on `served` and `sweep`), and more for a
//! never-seen cap 5000 — either way far too slow for a hot cache-hit
//! path. The server memoizes spec → fingerprint in a hash map, so the
//! steady-state cost of a hit is two hash probes and a socket write
//! (the `fleet_bench` hit-path throughput target leans on this).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sim_kernel::variant::OsVariant;

use crate::adaptive::{fingerprint_adaptive, run_adaptive_fleet_observed, AdaptiveConfig};
use crate::cache::ResultCache;
use crate::campaign::{fingerprint, CampaignConfig, CampaignFingerprint};
use crate::fleet::{run_campaign_fleet_observed, FleetConfig, FleetProgress};
use crate::telemetry;
use serde::{Deserialize, Serialize};

/// Hard cap on an accepted request body (a campaign spec is tiny).
const MAX_BODY: usize = 1 << 20;

/// A campaign request as posted to `POST /campaign`.
///
/// Flat JSON with every knob optional except `os`, e.g.
/// `{"os": "Win95", "cap": 200}`. Omitted knobs take the
/// [`CampaignConfig::default`] protocol values (`cap` `0` also means
/// "default": the paper's 5 000). `shards`/`workers` of `0` let the
/// fleet pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// OS variant under test (serialized as the enum variant name,
    /// e.g. `"Win95"`).
    pub os: OsVariant,
    /// Per-MuT case cap; `0` → the paper's 5 000.
    #[serde(default)]
    pub cap: usize,
    /// Record per-case packed outcome bytes.
    #[serde(default)]
    pub record_raw: bool,
    /// Isolation-probe crashing cases (`null`/absent → on, the paper's
    /// protocol).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub isolation_probe: Option<bool>,
    /// Reset residue before every case (ablation knob).
    #[serde(default)]
    pub perfect_cleanup: bool,
    /// Engine parallelism knob (affects the fingerprint, like every
    /// other knob; the fleet executes shards at its own width).
    #[serde(default)]
    pub parallelism: usize,
    /// Per-case fuel budget; `0` → default.
    #[serde(default)]
    pub fuel_budget: u64,
    /// Fleet shard count; `0` → auto.
    #[serde(default)]
    pub shards: usize,
    /// Fleet worker count; `0` → auto.
    #[serde(default)]
    pub workers: usize,
    /// Execute shards on supervised worker processes (see
    /// [`FleetConfig::process`]); off by default. Does not affect the
    /// campaign fingerprint — process isolation is an execution detail,
    /// not a different campaign.
    #[serde(default)]
    pub process: bool,
    /// Adaptive mode: explore rounds. `0` (the default) means a
    /// **classic** fixed-plan campaign; any non-zero value selects the
    /// adaptive engine with that many rounds (and folds the
    /// `adaptive/1` mode tag plus all three adaptive knobs into the
    /// fingerprint).
    #[serde(default)]
    pub adaptive_rounds: usize,
    /// Adaptive explore seed (meaningful only with `adaptive_rounds`).
    #[serde(default)]
    pub adaptive_seed: u64,
    /// Adaptive rare-outcome bonus; `0` → the mode default (meaningful
    /// only with `adaptive_rounds`).
    #[serde(default)]
    pub adaptive_rare_bonus: u64,
}

impl CampaignSpec {
    /// The paper-protocol spec for one variant.
    #[must_use]
    pub fn new(os: OsVariant) -> Self {
        CampaignSpec {
            os,
            cap: 0,
            record_raw: false,
            isolation_probe: None,
            perfect_cleanup: false,
            parallelism: 0,
            fuel_budget: 0,
            shards: 0,
            workers: 0,
            process: false,
            adaptive_rounds: 0,
            adaptive_seed: 0,
            adaptive_rare_bonus: 0,
        }
    }

    /// The campaign config this spec denotes.
    #[must_use]
    pub fn config(&self) -> CampaignConfig {
        let default = CampaignConfig::default();
        CampaignConfig {
            cap: if self.cap == 0 { default.cap } else { self.cap },
            record_raw: self.record_raw,
            isolation_probe: self.isolation_probe.unwrap_or(default.isolation_probe),
            perfect_cleanup: self.perfect_cleanup,
            parallelism: self.parallelism,
            fuel_budget: self.fuel_budget,
        }
    }

    /// The fleet sizing this spec denotes.
    #[must_use]
    pub fn fleet(&self) -> FleetConfig {
        FleetConfig {
            shards: self.shards,
            workers: self.workers,
            process: self.process,
            ..FleetConfig::default()
        }
    }

    /// The adaptive mode this spec denotes: `Some` iff `adaptive_rounds`
    /// is non-zero.
    #[must_use]
    pub fn adaptive(&self) -> Option<AdaptiveConfig> {
        (self.adaptive_rounds != 0).then_some(AdaptiveConfig {
            rounds: self.adaptive_rounds,
            seed: self.adaptive_seed,
            rare_bonus: self.adaptive_rare_bonus,
        })
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an OS-assigned
    /// port — the bound address is [`Server::local_addr`]).
    pub addr: String,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
    /// Result-cache memory-front capacity (entries).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: PathBuf::from("results/cache"),
            cache_capacity: 64,
        }
    }
}

/// Host-side serving counters, all monotonic since server start.
/// Serialized as the `GET /metrics` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ServerMetrics {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// `POST /campaign` requests accepted.
    pub campaign_posts: u64,
    /// `GET /campaign/<fp>` requests accepted.
    pub campaign_gets: u64,
    /// Requests served from the result cache.
    pub cache_hits: u64,
    /// Requests that found no cache entry (leader executions).
    pub cache_misses: u64,
    /// Requests coalesced onto an in-flight identical campaign.
    pub requests_coalesced: u64,
    /// Campaigns actually executed by this server.
    pub campaigns_executed: u64,
    /// Campaigns currently in flight (shard queue depth proxy).
    pub inflight: u64,
    /// Cases/second of the most recently completed campaign
    /// (micro-cases — `cases_per_sec × 1e6` stored integrally).
    pub last_campaign_ucases_per_sec: u64,
}

/// One in-flight campaign: the leader publishes the serialized report
/// (or its panic) and wakes every coalesced follower. The supervisor
/// feeds `progress` while the campaign runs, so `GET /campaign/<fp>`
/// can answer with live shard/case counts instead of a bare `running`.
struct InFlight {
    done: Mutex<Option<Result<Arc<Vec<u8>>, String>>>,
    cv: Condvar,
    progress: Arc<FleetProgress>,
}

impl InFlight {
    fn wait(&self) -> Result<Arc<Vec<u8>>, String> {
        let mut done = self.done.lock().expect("inflight poisoned");
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).expect("inflight poisoned");
        }
    }

    fn publish(&self, result: Result<Arc<Vec<u8>>, String>) {
        *self.done.lock().expect("inflight poisoned") = Some(result);
        self.cv.notify_all();
    }
}

/// Shared server state: cache, fingerprint memo, in-flight table,
/// counters.
struct State {
    cache: ResultCache,
    fingerprints: Mutex<HashMap<CampaignSpec, CampaignFingerprint>>,
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    started: Instant,
    campaign_posts: AtomicU64,
    campaign_gets: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    requests_coalesced: AtomicU64,
    campaigns_executed: AtomicU64,
    inflight_depth: AtomicUsize,
    last_ucases_per_sec: AtomicU64,
}

impl State {
    fn metrics(&self) -> ServerMetrics {
        ServerMetrics {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            campaign_posts: self.campaign_posts.load(Ordering::Relaxed),
            campaign_gets: self.campaign_gets.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            requests_coalesced: self.requests_coalesced.load(Ordering::Relaxed),
            campaigns_executed: self.campaigns_executed.load(Ordering::Relaxed),
            inflight: self.inflight_depth.load(Ordering::Relaxed) as u64,
            last_campaign_ucases_per_sec: self.last_ucases_per_sec.load(Ordering::Relaxed),
        }
    }

    /// Spec → fingerprint, memoized (computing a fingerprint resolves
    /// every MuT's pools and sampling plan — too slow for the hot hit
    /// path).
    fn fingerprint_of(&self, spec: &CampaignSpec) -> CampaignFingerprint {
        if let Some(fp) = self
            .fingerprints
            .lock()
            .expect("fingerprint memo poisoned")
            .get(spec)
        {
            return *fp;
        }
        let fp = match spec.adaptive() {
            Some(acfg) => fingerprint_adaptive(spec.os, &spec.config(), &acfg),
            None => fingerprint(spec.os, &spec.config()),
        };
        self.fingerprints
            .lock()
            .expect("fingerprint memo poisoned")
            .insert(*spec, fp);
        fp
    }
}

/// The campaign service: a bound listener plus shared state. Serve with
/// [`Server::run`] (blocking) or [`Server::spawn`] (background thread).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// A [`Server`] running on a background thread (see [`Server::spawn`]).
/// Dropping the handle does **not** stop the server; it runs for the
/// life of the process.
pub struct RunningServer {
    /// The bound address clients should connect to.
    pub addr: SocketAddr,
}

impl Server {
    /// Binds the service.
    ///
    /// # Errors
    ///
    /// Propagates listener bind / cache directory creation failures.
    pub fn bind(cfg: &ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let cache = ResultCache::new(&cfg.cache_dir, cfg.cache_capacity)?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                cache,
                fingerprints: Mutex::new(HashMap::new()),
                inflight: Mutex::new(HashMap::new()),
                started: Instant::now(),
                campaign_posts: AtomicU64::new(0),
                campaign_gets: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                requests_coalesced: AtomicU64::new(0),
                campaigns_executed: AtomicU64::new(0),
                inflight_depth: AtomicUsize::new(0),
                last_ucases_per_sec: AtomicU64::new(0),
            }),
        })
    }

    /// The address the listener actually bound (resolves `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread: one handler thread per
    /// connection, HTTP/1.1 keep-alive within each.
    ///
    /// # Errors
    ///
    /// Returns only on a fatal `accept` failure.
    pub fn run(self) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            // Responses are written whole; never trade latency for
            // coalescing on this socket.
            let _ = stream.set_nodelay(true);
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(stream, &state));
        }
    }

    /// [`Server::run`] on a detached background thread; returns once
    /// the address is known.
    #[must_use]
    pub fn spawn(self) -> RunningServer {
        let addr = self.local_addr().expect("bound listener has an address");
        std::thread::spawn(move || {
            let _ = self.run();
        });
        RunningServer { addr }
    }
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Reads one request off the connection. `Ok(None)` = clean EOF
/// (client closed an idle keep-alive connection).
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    let version = parts.next().unwrap_or_default().to_owned();
    let mut content_length = 0usize;
    let mut keep_alive = version != "HTTP/1.0";
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Ok(None);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Writes one `application/json` response.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if !keep_alive {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: a split write interacts with Nagle +
    // delayed ACK into ~40ms per response on loopback.
    let mut frame = Vec::with_capacity(head.len() + body.len());
    frame.extend_from_slice(head.as_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Serves one connection until EOF, error, or `Connection: close`.
fn handle_connection(stream: TcpStream, state: &State) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut stream = stream;
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) | Err(_) => return,
        };
        let keep_alive = request.keep_alive;
        let ok = handle_request(&mut stream, state, &request).is_ok();
        if !ok || !keep_alive {
            return;
        }
    }
}

/// Routes one request.
fn handle_request(stream: &mut TcpStream, state: &State, request: &Request) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/campaign") => post_campaign(stream, state, request),
        ("GET", "/metrics") => {
            let body = serde_json::to_vec(&state.metrics())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            respond(stream, 200, "OK", &[], &body, request.keep_alive)
        }
        ("GET", path) if path.starts_with("/campaign/") => get_campaign(stream, state, request),
        _ => respond(
            stream,
            404,
            "Not Found",
            &[],
            br#"{"error":"unknown route"}"#,
            request.keep_alive,
        ),
    }
}

/// `GET /campaign/<fingerprint>`.
fn get_campaign(stream: &mut TcpStream, state: &State, request: &Request) -> io::Result<()> {
    state.campaign_gets.fetch_add(1, Ordering::Relaxed);
    let hex = request.path.trim_start_matches("/campaign/");
    let Ok(fp) = hex.parse::<CampaignFingerprint>() else {
        return respond(
            stream,
            400,
            "Bad Request",
            &[],
            br#"{"error":"malformed fingerprint"}"#,
            request.keep_alive,
        );
    };
    if let Some(bytes) = state.cache.lookup(fp) {
        state.cache_hits.fetch_add(1, Ordering::Relaxed);
        return respond(
            stream,
            200,
            "OK",
            &[("X-Cache", "hit")],
            &bytes,
            request.keep_alive,
        );
    }
    let running = state
        .inflight
        .lock()
        .expect("inflight table poisoned")
        .get(&fp.as_u64())
        .map(|flight| Arc::clone(&flight.progress));
    if let Some(progress) = running {
        // Live progress for the in-flight campaign, fed by the fleet
        // supervisor (or the thread pool) as shards complete.
        let p = progress.snapshot();
        let body = format!(
            r#"{{"status":"running","shards_done":{},"shards_total":{},"cases_done":{},"worker_deaths":{},"shard_retries":{},"workers_live":{},"degraded":{}}}"#,
            p.shards_done,
            p.shards_total,
            p.cases_done,
            p.worker_deaths,
            p.shard_retries,
            p.workers_live,
            p.degraded,
        );
        respond(
            stream,
            202,
            "Accepted",
            &[],
            body.as_bytes(),
            request.keep_alive,
        )
    } else {
        respond(
            stream,
            404,
            "Not Found",
            &[],
            br#"{"status":"unknown"}"#,
            request.keep_alive,
        )
    }
}

/// `POST /campaign` — the fingerprint/cache/coalesce/execute path.
fn post_campaign(stream: &mut TcpStream, state: &State, request: &Request) -> io::Result<()> {
    state.campaign_posts.fetch_add(1, Ordering::Relaxed);
    let spec: CampaignSpec = match serde_json::from_slice(&request.body) {
        Ok(spec) => spec,
        Err(e) => {
            let body = format!(r#"{{"error":"bad campaign spec: {e}"}}"#);
            return respond(
                stream,
                400,
                "Bad Request",
                &[],
                body.as_bytes(),
                request.keep_alive,
            );
        }
    };
    let fp = state.fingerprint_of(&spec);
    if let Some(bytes) = state.cache.lookup(fp) {
        state.cache_hits.fetch_add(1, Ordering::Relaxed);
        return respond(
            stream,
            200,
            "OK",
            &[("X-Cache", "hit")],
            &bytes,
            request.keep_alive,
        );
    }
    // Miss: become the leader, or coalesce onto the one in flight. The
    // decision happens under the in-flight lock with a double-checked
    // cache probe: a requester that missed the cache *before* the
    // previous leader stored its result, but reached this lock *after*
    // that leader retired, must serve the (now present) entry rather
    // than electing itself a second leader. The leader stores to the
    // cache before retiring its in-flight entry, so "no entry in
    // flight" + "cache probe misses" really means "nobody ran this".
    let (flight, leader) = {
        let mut inflight = state.inflight.lock().expect("inflight table poisoned");
        match inflight.get(&fp.as_u64()) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                if let Some(bytes) = state.cache.peek(fp) {
                    drop(inflight);
                    state.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return respond(
                        stream,
                        200,
                        "OK",
                        &[("X-Cache", "hit")],
                        &bytes,
                        request.keep_alive,
                    );
                }
                let flight = Arc::new(InFlight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                    progress: Arc::new(FleetProgress::default()),
                });
                inflight.insert(fp.as_u64(), Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    let result = if leader {
        state.cache_misses.fetch_add(1, Ordering::Relaxed);
        state.inflight_depth.fetch_add(1, Ordering::Relaxed);
        // The fingerprint lands in the log before execution so an
        // observer (the CI chaos job, an operator) can poll
        // `GET /campaign/<fp>` while the campaign is in flight.
        eprintln!("campaign {fp} executing");
        let ran = catch_unwind(AssertUnwindSafe(|| match spec.adaptive() {
            Some(acfg) => run_adaptive_fleet_observed(
                spec.os,
                &spec.config(),
                &acfg,
                &spec.fleet(),
                Some(&flight.progress),
            ),
            None => run_campaign_fleet_observed(
                spec.os,
                &spec.config(),
                &spec.fleet(),
                Some(&flight.progress),
            ),
        }));
        let result = match ran {
            Ok(report) => {
                state.campaigns_executed.fetch_add(1, Ordering::Relaxed);
                if let Some(stats) = &report.stats {
                    state
                        .last_ucases_per_sec
                        .store((stats.cases_per_sec * 1e6) as u64, Ordering::Relaxed);
                }
                state
                    .cache
                    .store(fp, &report)
                    .map_err(|e| format!("cache store failed: {e}"))
            }
            Err(_) => Err("campaign panicked".to_owned()),
        };
        flight.publish(result.clone());
        state
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(&fp.as_u64());
        state.inflight_depth.fetch_sub(1, Ordering::Relaxed);
        result
    } else {
        state.requests_coalesced.fetch_add(1, Ordering::Relaxed);
        telemetry::on_request_coalesced();
        flight.wait()
    };
    match result {
        Ok(bytes) => respond(
            stream,
            200,
            "OK",
            &[
                ("X-Cache", if leader { "miss" } else { "coalesced" }),
                ("X-Fingerprint", &fp.to_string()),
            ],
            &bytes,
            request.keep_alive,
        ),
        Err(e) => {
            let body = format!(r#"{{"error":"{e}"}}"#);
            respond(
                stream,
                500,
                "Internal Server Error",
                &[],
                body.as_bytes(),
                request.keep_alive,
            )
        }
    }
}
