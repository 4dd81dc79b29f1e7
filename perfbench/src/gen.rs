//! Seeded generation of every workload's operation sequence.
//!
//! The benchmark derives all of its inputs here, from the `--seed`
//! argument alone: variant rotations, durable cut points, the served
//! request mix and its never-seen miss specs, and the adaptive explore
//! seeds. The program under test receives only the generated inputs.
//! Draws that set how much work an operation does (cut points, miss
//! caps) are stratified, so that two seeds give different sequences
//! with the same distribution of work.

use sim_kernel::variant::OsVariant;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Stratified draws in `[0, 1)`: each block of `STRATA` draws takes one
/// value from each stratum, in a seeded order with seeded jitter.
struct Stratified {
    rng: Rng,
    block: Vec<usize>,
}

const STRATA: usize = 16;

impl Stratified {
    fn new(rng: Rng) -> Stratified {
        Stratified {
            rng,
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> f64 {
        if self.block.is_empty() {
            self.block = (0..STRATA).collect();
            self.rng.shuffle(&mut self.block);
        }
        let stratum = self.block.pop().expect("refilled above");
        (stratum as f64 + self.rng.unit()) / STRATA as f64
    }
}

/// Operations in one rotation of the variants.
pub const CYCLE: usize = OsVariant::ALL.len();

/// Variants in rotation: each cycle of seven visits every variant once,
/// in a seeded order.
fn rotation(rng: &mut Rng, n: usize) -> Vec<OsVariant> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut cycle = OsVariant::ALL;
        rng.shuffle(&mut cycle);
        out.extend(cycle);
    }
    out.truncate(n);
    out
}

/// `sweep`: the variant of each classic campaign.
pub fn sweep_ops(seed: u64, n: usize) -> Vec<OsVariant> {
    rotation(&mut Rng::new(seed, 1), n)
}

/// One `durable` operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurableOp {
    /// A journaled campaign written from scratch into a fresh journal.
    Write(OsVariant),
    /// The previous write's journal, cut after this fraction of its
    /// records (rounded down to a record boundary), then resumed.
    Resume(OsVariant, f64),
}

/// `durable`: write campaigns alternating with resumes of the journal
/// just written.
pub fn durable_ops(seed: u64, n: usize) -> Vec<DurableOp> {
    let variants = rotation(&mut Rng::new(seed, 2), n.div_ceil(2));
    let mut cuts = Stratified::new(Rng::new(seed, 3));
    let mut out = Vec::with_capacity(n);
    for os in variants {
        out.push(DurableOp::Write(os));
        out.push(DurableOp::Resume(os, cuts.next()));
    }
    out.truncate(n);
    out
}

/// One `modes` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModesOp {
    Crashcon(OsVariant),
    /// An adaptive campaign with a fresh explore seed, so the explore
    /// phase runs every time.
    Adaptive(OsVariant, u64),
}

/// `modes`: crashcon campaigns alternating with adaptive campaigns.
pub fn modes_ops(seed: u64, n: usize) -> Vec<ModesOp> {
    let variants = rotation(&mut Rng::new(seed, 4), n.div_ceil(2));
    let mut seeds = Rng::new(seed, 5);
    let mut out = Vec::with_capacity(n);
    for os in variants {
        out.push(ModesOp::Crashcon(os));
        out.push(ModesOp::Adaptive(os, seeds.next_u64()));
    }
    out.truncate(n);
    out
}

/// Caps of the never-seen `served` specs.
pub const MISS_CAP_MIN: usize = 150;
pub const MISS_CAP_MAX: usize = 400;

/// Warm `served` specs: requested once during set-up, then repeated as
/// cache hits. Their cap lies below the miss range, so no miss spec can
/// ever equal a warm one.
pub const WARM: [(OsVariant, usize); 4] = [
    (OsVariant::Win95, 100),
    (OsVariant::WinNt4, 100),
    (OsVariant::WinCe, 100),
    (OsVariant::Linux, 100),
];

/// One request of a `served` client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Repeat the warm spec with this index into [`WARM`].
    Warm(usize),
    /// A spec no client has requested before.
    Miss(OsVariant, usize),
}

/// One `served` client's request stream: in every block of
/// `miss_every` requests, exactly one (at a seeded position) is a
/// never-seen spec; the rest repeat a seeded warm spec.
#[derive(Debug, Clone)]
pub struct ServedClient {
    rng: Rng,
    misses: std::vec::IntoIter<(OsVariant, usize)>,
    miss_every: usize,
    pos: usize,
    miss_at: usize,
}

impl Iterator for ServedClient {
    type Item = Request;

    /// The next request; `None` once this client's share of the distinct
    /// miss specs is used up.
    fn next(&mut self) -> Option<Request> {
        if self.pos == self.miss_every {
            self.pos = 0;
        }
        if self.pos == 0 {
            self.miss_at = self.rng.below(self.miss_every as u64) as usize;
        }
        let at = self.pos;
        self.pos += 1;
        if at == self.miss_at {
            self.misses.next().map(|(os, cap)| Request::Miss(os, cap))
        } else {
            Some(Request::Warm(self.rng.below(WARM.len() as u64) as usize))
        }
    }
}

/// `served`: one request stream per client. Miss specs are distinct
/// across all clients: client `c` takes every `clients`-th spec of one
/// seeded list.
pub fn served_clients(seed: u64, clients: usize, miss_every: usize) -> Vec<ServedClient> {
    let all = miss_specs(seed);
    (0..clients)
        .map(|c| ServedClient {
            rng: Rng::new(seed, 100 + c as u64),
            misses: all
                .iter()
                .skip(c)
                .step_by(clients)
                .copied()
                .collect::<Vec<_>>()
                .into_iter(),
            miss_every,
            pos: 0,
            miss_at: 0,
        })
        .collect()
}

/// Every distinct miss spec, in a seeded order: a variant rotation
/// paired with stratified caps, made unique per variant.
fn miss_specs(seed: u64) -> Vec<(OsVariant, usize)> {
    let span = MISS_CAP_MAX - MISS_CAP_MIN + 1;
    let variants = rotation(&mut Rng::new(seed, 6), span * CYCLE);
    let mut caps = Stratified::new(Rng::new(seed, 7));
    let mut used = vec![vec![false; span]; CYCLE];
    variants
        .into_iter()
        .map(|os| {
            let vi = OsVariant::ALL
                .iter()
                .position(|v| *v == os)
                .expect("listed");
            let mut k = ((caps.next() * span as f64) as usize).min(span - 1);
            while used[vi][k] {
                k = (k + 1) % span;
            }
            used[vi][k] = true;
            (os, MISS_CAP_MIN + k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(sweep_ops(7, 50), sweep_ops(7, 50));
        assert_ne!(sweep_ops(7, 50), sweep_ops(8, 50));
        assert_eq!(durable_ops(7, 50), durable_ops(7, 50));
        assert_ne!(durable_ops(7, 50), durable_ops(8, 50));
        assert_eq!(modes_ops(7, 50), modes_ops(7, 50));
        assert_ne!(modes_ops(7, 50), modes_ops(8, 50));
        let served = |seed| -> Vec<Vec<Request>> {
            served_clients(seed, 2, 50)
                .into_iter()
                .map(|c| c.take(500).collect())
                .collect()
        };
        assert_eq!(served(7), served(7));
        assert_ne!(served(7), served(8));
    }

    #[test]
    fn rotation_visits_every_variant_once_per_cycle() {
        let ops = sweep_ops(3, 70);
        for cycle in ops.chunks(7) {
            let mut seen: Vec<_> = cycle.iter().map(|v| v.short_name()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 7);
        }
    }

    #[test]
    fn served_misses_are_distinct_and_never_warm() {
        let ops: Vec<Request> = served_clients(11, 2, 20)
            .into_iter()
            .flat_map(|c| c.take(2000))
            .collect();
        let mut misses: Vec<(String, usize)> = ops
            .iter()
            .filter_map(|r| match r {
                Request::Miss(os, cap) => Some((os.short_name().to_owned(), *cap)),
                Request::Warm(_) => None,
            })
            .collect();
        assert_eq!(misses.len(), 200);
        assert!(misses
            .iter()
            .all(|(_, cap)| (MISS_CAP_MIN..=MISS_CAP_MAX).contains(cap)));
        misses.sort();
        misses.dedup();
        assert_eq!(misses.len(), 200, "a miss spec repeated");
        let all: usize = served_clients(11, 2, 1)
            .into_iter()
            .map(Iterator::count)
            .sum();
        assert_eq!(
            all,
            CYCLE * (MISS_CAP_MAX - MISS_CAP_MIN + 1),
            "every distinct spec is used once"
        );
    }

    #[test]
    fn cut_points_cover_the_journal_evenly() {
        let cuts: Vec<f64> = durable_ops(5, 64)
            .into_iter()
            .filter_map(|op| match op {
                DurableOp::Resume(_, f) => Some(f),
                DurableOp::Write(_) => None,
            })
            .collect();
        assert_eq!(cuts.len(), 32);
        for half in [0.0, 0.5] {
            let n = cuts
                .iter()
                .filter(|f| **f >= half && **f < half + 0.5)
                .count();
            assert_eq!(n, 16, "each half of the journal gets half the cuts");
        }
    }
}
