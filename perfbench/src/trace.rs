//! In-memory spans around the benchmark's calls into each `ballista`
//! layer, and the layer table built from them.
//!
//! A span records a name, the layer it belongs to, start and end (ns
//! since the tracer's origin), its parent span and the operation id of
//! the workload operation it served. A *batch* span stands for many
//! back-to-back calls of one function (the per-case
//! `CaseRunner::execute` calls of one MuT): its interval spans the loop,
//! but only the summed duration of the timed calls counts as covered;
//! the loop's own bookkeeping stays unattributed. A layer's self time is
//! its spans' covered time minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
    /// Calls a batch span aggregates (1 for a plain span).
    pub calls: u64,
    /// Time inside the timed calls; equals `end_ns - start_ns` for a
    /// plain span.
    pub busy_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags every span recorded from now on with operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as one call of `name` in `layer`; spans recorded inside
    /// `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start = Instant::now();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        let end = self.ns(Instant::now());
        self.open.pop();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
        out
    }

    /// Records `calls` timed calls of `name` made between `start` and
    /// `end`, which together took `busy_ns`.
    pub fn batch(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        calls: u64,
        busy_ns: u64,
    ) {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
            calls,
            busy_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals over the spans of one or more tracers.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Layer → (calls, self ns).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Wall time of the traced phase, summed over client threads.
    pub wall_ns: u64,
    /// Wall time no top-level span covers.
    pub unattributed_ns: u64,
}

impl LayerTable {
    /// Folds one thread's spans, recorded over `wall_ns` of wall time.
    pub fn add(&mut self, spans: &[Span], wall_ns: u64) {
        let mut child_busy = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_busy[p as usize] += s.busy_ns;
            }
        }
        let mut covered = 0u64;
        for (s, children) in spans.iter().zip(child_busy) {
            let entry = self.layers.entry(s.layer).or_default();
            entry.0 += s.calls;
            entry.1 += s.busy_ns.saturating_sub(children);
            if s.parent.is_none() {
                covered += s.busy_ns;
            }
        }
        self.wall_ns += wall_ns;
        self.unattributed_ns += wall_ns.saturating_sub(covered);
    }

    pub fn self_pct(&self, layer: &str) -> f64 {
        let ns = self.layers.get(layer).map_or(0, |e| e.1);
        pct(ns, self.wall_ns)
    }

    pub fn unattributed_pct(&self) -> f64 {
        pct(self.unattributed_ns, self.wall_ns)
    }

    pub fn render(&self, header: &str) -> String {
        let mut out = format!(
            "{header}\n{:<16} {:>12} {:>12} {:>8}\n",
            "layer", "calls", "self_ms", "self_%"
        );
        for (layer, (calls, ns)) in &self.layers {
            out += &format!(
                "{layer:<16} {calls:>12} {:>12.3} {:>8.2}\n",
                *ns as f64 / 1e6,
                pct(*ns, self.wall_ns)
            );
        }
        out += &format!(
            "{:<16} {:>12} {:>12.3} {:>8.2}\n",
            "unattributed",
            "-",
            self.unattributed_ns as f64 / 1e6,
            self.unattributed_pct()
        );
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Mean duration in ns of the spans named `name`, with their call count.
pub fn mean_ns(spans: &[Span], name: &str) -> (f64, u64) {
    let (calls, ns) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(c, n), s| (c + s.calls, n + s.busy_ns));
    if calls == 0 {
        (0.0, 0)
    } else {
        (ns as f64 / calls as f64, calls)
    }
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_spans(path: &Path, threads: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"thread":{thread},"id":{i},"parent":{},"op":{},"name":"{}","layer":"{}","start_ns":{},"end_ns":{},"calls":{},"busy_ns":{}}}"#,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.op,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.calls,
                s.busy_ns
            )?;
        }
    }
    out.flush()
}

/// Log-linear histogram of nanosecond durations: 64 sub-buckets per
/// power of two, so a quantile reads within about 1.6 %.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        (SUB + u64::from(shift) * SUB + sub) as usize
    }

    fn lower_bound(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let shift = (b - SUB) / SUB;
        let sub = (b - SUB) % SUB;
        (SUB + sub) << shift
    }

    pub fn record(&mut self, v: u64) {
        let b = Hist::bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), as the midpoint of its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Hist::lower_bound(b) as f64;
                let hi = Hist::lower_bound(b + 1) as f64;
                return (lo + hi) / 2.0;
            }
        }
        unreachable!("rank is at most total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_batches_cover_only_busy_time() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.span("outer", "campaign", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", "sampling", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        t.batch("execute", "exec", Instant::now(), 10, 1_000);
        let mut table = LayerTable::default();
        let wall = t.ns(Instant::now()) + 1_000_000;
        table.add(t.spans(), wall);
        let campaign = table.layers["campaign"].1;
        let sampling = table.layers["sampling"].1;
        assert!(sampling >= 3_000_000);
        assert!((2_000_000..3_000_000 + 2_000_000).contains(&campaign));
        assert_eq!(table.layers["exec"], (10, 1_000));
        let top = t.spans()[0].busy_ns + 1_000;
        assert_eq!(table.unattributed_ns, wall - top);
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_resolution() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
    }
}
