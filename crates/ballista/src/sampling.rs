//! Test-case enumeration: exhaustive cartesian products, capped at a
//! pseudo-random sample.
//!
//! Paper protocol: "testing was capped at 5000 randomly selected test
//! cases per MuT ... the same pseudorandom sampling of test cases was
//! performed in the same order for each system call or C function tested
//! across the different Windows variants". The sample is therefore seeded
//! from the *MuT name only* — identical dimensions + identical name ⇒
//! identical case list on every variant, which is what makes the Figure 2
//! voting well-defined.
//!
//! # Plan layout
//!
//! A plan's cases live in one flat buffer, [`Cases`]: `len` cases of
//! `width = dims.len()` pool indices each, back to back, so case `i` is
//! the slice `[i * width, (i + 1) * width)`. A cap-5000 plan of a
//! four-parameter MuT is one 160 KB allocation (5000 × 4 × 8 bytes),
//! where a `Vec<usize>` per case cost 5000 allocations and about 72
//! bytes per case (a 24-byte header in the outer vector plus a 32-byte
//! heap block in a 48-byte allocator chunk). [`enumerate`] decodes every
//! draw straight into that buffer. [`Combo`] (one owned `Vec<usize>`)
//! remains only for [`decode`] and the adaptive explorer's in-flight
//! draws.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;
use std::sync::{Arc, Mutex, OnceLock};

/// The paper's per-MuT cap.
pub const PAPER_CAP: usize = 5000;

/// A test case: one pool index per parameter.
pub type Combo = Vec<usize>;

/// A plan's case list in one flat buffer: [`Cases::len`] cases of
/// `width` pool indices each (the MuT's parameter count), stored back
/// to back (see the module docs). Indexing and iteration yield each
/// case as a `&[usize]` slice; a zero-parameter MuT has width 0 and one
/// empty case.
#[derive(Clone, PartialEq, Eq)]
pub struct Cases {
    width: usize,
    len: usize,
    indices: Vec<usize>,
}

impl Cases {
    /// An empty list with room for `cases` cases of `width` indices,
    /// allocated exactly once.
    #[must_use]
    pub fn with_capacity(width: usize, cases: usize) -> Cases {
        Cases {
            width,
            len: 0,
            indices: Vec::with_capacity(width.saturating_mul(cases)),
        }
    }

    /// Number of cases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no cases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one case.
    ///
    /// # Panics
    ///
    /// Panics when `combo` does not have the list's `width` indices.
    pub fn push(&mut self, combo: &[usize]) {
        assert_eq!(
            combo.len(),
            self.width,
            "case of {} indices pushed onto cases of width {}",
            combo.len(),
            self.width
        );
        self.indices.extend_from_slice(combo);
        self.len += 1;
    }

    /// Appends the case with lexicographic index `linear`, decoded in
    /// place (the allocation-free twin of [`decode`]).
    fn push_linear(&mut self, linear: u64, dims: &[usize]) {
        debug_assert_eq!(dims.len(), self.width);
        let start = self.indices.len();
        self.indices.resize(start + dims.len(), 0);
        decode_into(linear, dims, &mut self.indices[start..]);
        self.len += 1;
    }

    /// The cases in order, each as a slice of pool indices.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            indices: &self.indices,
            width: self.width,
            remaining: self.len,
        }
    }
}

impl Index<usize> for Cases {
    type Output = [usize];

    fn index(&self, i: usize) -> &[usize] {
        assert!(i < self.len, "case {i} out of range for {} cases", self.len);
        &self.indices[i * self.width..(i + 1) * self.width]
    }
}

impl<'a> IntoIterator for &'a Cases {
    type Item = &'a [usize];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Cases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over [`Cases`], yielding each case as a slice.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    indices: &'a [usize],
    width: usize,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [usize];

    fn next(&mut self) -> Option<&'a [usize]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (case, rest) = self.indices.split_at(self.width);
        self.indices = rest;
        Some(case)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The selected case list for one MuT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSet {
    /// Pool sizes per parameter.
    pub dims: Vec<usize>,
    /// The selected combinations, in execution order.
    pub cases: Cases,
    /// Whether every combination is present.
    pub exhaustive: bool,
}

/// Total number of combinations for the given pool sizes.
#[must_use]
pub fn combination_count(dims: &[usize]) -> u64 {
    dims.iter().map(|&d| d as u64).product()
}

/// Decodes a linear (lexicographic) index into a combination — the
/// inverse of [`encode`]. Public for the adaptive explorer's
/// collision-probe fallback, which walks linear indices directly.
#[must_use]
pub fn decode(linear: u64, dims: &[usize]) -> Combo {
    let mut combo = vec![0usize; dims.len()];
    decode_into(linear, dims, &mut combo);
    combo
}

/// Mixed-radix decode into `slots`, least-significant dimension last
/// (lexicographic).
fn decode_into(mut linear: u64, dims: &[usize], slots: &mut [usize]) {
    for (slot, &d) in slots.iter_mut().zip(dims).rev() {
        *slot = (linear % d as u64) as usize;
        linear /= d as u64;
    }
}

/// The linear (lexicographic) index of a combination — the exact inverse
/// of the mixed-radix decode [`enumerate`] uses, with the *last*
/// dimension least significant. The adaptive explorer keys its
/// pinned-case dedup set on this index, so the encoding must stay in
/// lock-step with the decode above.
///
/// # Panics
///
/// Debug-asserts that the combo matches the dims (same length, every
/// index in range); release builds produce a nonsensical index for a
/// mismatched combo rather than panicking.
#[must_use]
pub fn encode(combo: &[usize], dims: &[usize]) -> u64 {
    debug_assert_eq!(combo.len(), dims.len());
    let mut linear = 0u64;
    for (&c, &d) in combo.iter().zip(dims) {
        debug_assert!(c < d);
        linear = linear * d as u64 + c as u64;
    }
    linear
}

/// Draws one index from a finite distribution given by integer
/// `weights`, via cumulative inverse sampling on the caller's RNG —
/// the deterministic weighted sampler behind the adaptive explorer.
/// Zero-weight entries are never drawn unless *every* weight is zero,
/// in which case the draw degrades to uniform (a campaign must not
/// wedge because a weighting rule zeroed out).
///
/// # Panics
///
/// Panics when `weights` is empty.
pub fn weighted_index(rng: &mut impl RngExt, weights: &[u64]) -> usize {
    assert!(!weights.is_empty(), "weighted draw over an empty pool");
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return rng.random_range(0..weights.len() as u64) as usize;
    }
    let mut r = rng.random_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

/// Deterministic FNV-1a over the seed name (stable across runs and
/// platforms, unlike `DefaultHasher`).
#[must_use]
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Hasher for sets of `u64` linear indices: one folded 64×64→128-bit
/// multiply per key. The keys [`enumerate`] and the adaptive explorer
/// dedup are RNG draws and probes made by this program, never outside
/// input, so SipHash's flood resistance buys nothing there.
#[derive(Default)]
pub(crate) struct LinearHasher(u64);

impl Hasher for LinearHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of linear indices under [`LinearHasher`].
pub(crate) type LinearSet = HashSet<u64, BuildHasherDefault<LinearHasher>>;

/// Enumerates the case set for pools of the given sizes: exhaustive when
/// the product is within `cap`, otherwise `cap` distinct pseudo-random
/// combinations seeded by `seed_name`.
///
/// # Panics
///
/// Panics when `dims` is empty or contains a zero (an empty pool is a
/// catalog wiring bug).
#[must_use]
pub fn enumerate(dims: &[usize], cap: usize, seed_name: &str) -> CaseSet {
    assert!(!dims.is_empty(), "MuT with no parameters has one (empty) case");
    assert!(dims.iter().all(|&d| d > 0), "empty pool for {seed_name}");
    let total = combination_count(dims);
    if total <= cap as u64 {
        let mut cases = Cases::with_capacity(dims.len(), total as usize);
        for linear in 0..total {
            cases.push_linear(linear, dims);
        }
        return CaseSet {
            dims: dims.to_vec(),
            cases,
            exhaustive: true,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed_from_name(seed_name));
    let mut seen = LinearSet::with_capacity_and_hasher(cap, BuildHasherDefault::default());
    let mut cases = Cases::with_capacity(dims.len(), cap);
    while cases.len() < cap {
        let linear = rng.random_range(0..total);
        if seen.insert(linear) {
            cases.push_linear(linear, dims);
        }
    }
    CaseSet {
        dims: dims.to_vec(),
        cases,
        exhaustive: false,
    }
}

type PlanKey = (String, Vec<usize>, usize);

fn plan_cache() -> &'static Mutex<BTreeMap<PlanKey, Arc<CaseSet>>> {
    static CACHE: OnceLock<Mutex<BTreeMap<PlanKey, Arc<CaseSet>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// [`enumerate`] through a process-wide plan cache: the paper runs *the
/// same* pseudorandom sample per MuT on every variant, so the plan for a
/// given (name, dims, cap) is computed once and shared across all seven
/// campaigns (and across campaign repeats). The cache is append-only and
/// bounded by the catalog: one entry per distinct MuT signature per cap.
///
/// # Panics
///
/// Same conditions as [`enumerate`].
#[must_use]
pub fn enumerate_shared(dims: &[usize], cap: usize, seed_name: &str) -> Arc<CaseSet> {
    let key = (seed_name.to_owned(), dims.to_vec(), cap);
    let mut cache = plan_cache().lock().expect("plan cache poisoned");
    if let Some(plan) = cache.get(&key) {
        return Arc::clone(plan);
    }
    let plan = Arc::new(enumerate(dims, cap, seed_name));
    cache.insert(key, Arc::clone(&plan));
    plan
}

/// Case list for a zero-parameter MuT: one empty case.
#[must_use]
pub fn single_case() -> CaseSet {
    let mut cases = Cases::with_capacity(0, 1);
    cases.push(&[]);
    CaseSet {
        dims: Vec::new(),
        cases,
        exhaustive: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_under_cap() {
        let set = enumerate(&[3, 2], 100, "small");
        assert!(set.exhaustive);
        assert_eq!(set.cases.len(), 6);
        assert_eq!(set.cases[0], vec![0, 0]);
        assert_eq!(set.cases[1], vec![0, 1]);
        assert_eq!(set.cases[5], vec![2, 1]);
    }

    #[test]
    fn capped_sampling_is_deterministic_and_distinct() {
        let a = enumerate(&[10, 10, 10, 10], 500, "CreateFile");
        let b = enumerate(&[10, 10, 10, 10], 500, "CreateFile");
        assert_eq!(a, b, "same seed name → same order (cross-variant rule)");
        assert!(!a.exhaustive);
        assert_eq!(a.cases.len(), 500);
        let distinct: HashSet<_> = a.cases.iter().collect();
        assert_eq!(distinct.len(), 500);
        // Different MuT name → different sample.
        let c = enumerate(&[10, 10, 10, 10], 500, "ReadFile");
        assert_ne!(a.cases, c.cases);
    }

    #[test]
    fn indices_in_range() {
        let set = enumerate(&[4, 7, 3], 50, "ranged");
        for case in &set.cases {
            assert_eq!(case.len(), 3);
            assert!(case[0] < 4 && case[1] < 7 && case[2] < 3);
        }
    }

    #[test]
    fn combination_counts() {
        assert_eq!(combination_count(&[10, 10, 10, 10]), 10_000);
        assert_eq!(combination_count(&[1]), 1);
        assert_eq!(combination_count(&[9, 9, 9, 9, 9]), 59_049);
    }

    #[test]
    fn paper_scale_sample() {
        // A 5-parameter call over 9-value pools (59 049 combos) capped at
        // the paper's 5000.
        let set = enumerate(&[9, 9, 9, 9, 9], PAPER_CAP, "MsgWaitForMultipleObjects");
        assert_eq!(set.cases.len(), PAPER_CAP);
        assert!(!set.exhaustive);
    }

    #[test]
    fn zero_param_mut() {
        let set = single_case();
        assert_eq!(set.cases.len(), 1);
        assert!(set.cases[0].is_empty());
    }

    #[test]
    fn seed_is_stable() {
        // Guards the cross-run determinism the experiments depend on.
        assert_eq!(seed_from_name("strlen"), seed_from_name("strlen"));
        assert_ne!(seed_from_name("strlen"), seed_from_name("strcpy"));
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn empty_pool_panics() {
        let _ = enumerate(&[3, 0], 10, "broken");
    }

    #[test]
    fn encode_inverts_decode() {
        let dims = [4, 7, 3];
        for linear in 0..combination_count(&dims) {
            let combo = decode(linear, &dims);
            assert_eq!(encode(&combo, &dims), linear);
        }
        // And over the sampled (capped) path too.
        let set = enumerate(&[9, 9, 9, 9], 100, "encode_roundtrip");
        let seen: HashSet<u64> = set.cases.iter().map(|c| encode(c, &set.dims)).collect();
        assert_eq!(seen.len(), set.cases.len(), "linear indices stay distinct");
    }

    /// The sampler as it was written over one `Vec<usize>` per case with
    /// a SipHash dedup set: the flat layout must draw the same cases.
    fn reference_enumerate(dims: &[usize], cap: usize, seed_name: &str) -> Vec<Combo> {
        let total = combination_count(dims);
        if total <= cap as u64 {
            return (0..total).map(|i| decode(i, dims)).collect();
        }
        let mut rng = StdRng::seed_from_u64(seed_from_name(seed_name));
        let mut seen = HashSet::new();
        let mut cases = Vec::new();
        while cases.len() < cap {
            let linear = rng.random_range(0..total);
            if seen.insert(linear) {
                cases.push(decode(linear, dims));
            }
        }
        cases
    }

    #[test]
    fn flat_plans_draw_the_reference_sample() {
        for (dims, cap) in [
            (&[3, 2][..], 100),
            (&[4, 7, 3][..], 50),
            (&[9, 9, 9, 9, 9][..], PAPER_CAP),
            (&[14, 14, 8][..], 1),
            (&[2][..], 2),
        ] {
            let set = enumerate(dims, cap, "reference");
            let want = reference_enumerate(dims, cap, "reference");
            assert_eq!(set.cases.len(), want.len());
            assert!(
                set.cases.iter().eq(want.iter().map(Vec::as_slice)),
                "{dims:?} cap {cap}"
            );
        }
    }

    #[test]
    fn cases_of_width_zero_hold_one_empty_case() {
        let set = single_case();
        assert_eq!(set.cases.len(), 1);
        assert!(!set.cases.is_empty());
        assert_eq!(&set.cases[0], &[] as &[usize]);
        assert_eq!(set.cases.iter().len(), 1);
        assert_eq!(set.cases.iter().collect::<Vec<_>>(), vec![&[] as &[usize]]);
        assert_eq!(format!("{:?}", set.cases), "[[]]");
        let mut none = Cases::with_capacity(0, 0);
        assert!(none.is_empty());
        none.push(&[]);
        assert_eq!(none, set.cases);
    }

    #[test]
    fn cases_index_within_bounds() {
        let set = enumerate(&[3, 2], 100, "small");
        assert_eq!(&set.cases[5], &[2, 1]);
        assert_eq!(set.cases.iter().nth(4), Some(&[2, 0][..]));
    }

    #[test]
    #[should_panic(expected = "case 6 out of range for 6 cases")]
    fn cases_index_past_the_end_panics() {
        let set = enumerate(&[3, 2], 100, "small");
        let _ = &set.cases[6];
    }

    #[test]
    #[should_panic(expected = "out of range for 1 cases")]
    fn width_zero_index_past_the_end_panics() {
        let _ = &single_case().cases[1];
    }

    #[test]
    fn cases_iterator_is_exact_size() {
        let set = enumerate(&[4, 7, 3], 50, "ranged");
        let mut it = set.cases.iter();
        assert_eq!(it.len(), 50);
        assert_eq!(it.size_hint(), (50, Some(50)));
        it.next();
        it.nth(1);
        assert_eq!(it.len(), 47);
        assert_eq!(it.by_ref().count(), 47);
        assert_eq!(it.len(), 0);
        assert_eq!(it.next(), None);
        assert_eq!((&set.cases).into_iter().len(), set.cases.len());
    }

    #[test]
    #[should_panic(expected = "case of 2 indices pushed onto cases of width 3")]
    fn cases_push_rejects_the_wrong_width() {
        Cases::with_capacity(3, 1).push(&[1, 2]);
    }

    #[test]
    fn enumerated_cases_equal_pushed_cases() {
        for (dims, cap) in [(&[3, 2][..], 100), (&[9, 9, 9, 9][..], 100)] {
            let set = enumerate(dims, cap, "pushed");
            let mut pushed = Cases::with_capacity(dims.len(), 0);
            for case in &set.cases {
                pushed.push(&decode(encode(case, dims), dims));
            }
            assert_eq!(pushed, set.cases);
            assert_eq!(format!("{pushed:?}"), format!("{:?}", set.cases));
            pushed.push(&vec![0; dims.len()]);
            assert_ne!(pushed, set.cases);
        }
        // Same cases, different width: not equal.
        assert_ne!(Cases::with_capacity(1, 0), Cases::with_capacity(2, 0));
    }

    #[test]
    fn weighted_draw_is_deterministic_and_biased() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            assert_eq!(
                weighted_index(&mut a, &[1, 64, 1]),
                weighted_index(&mut b, &[1, 64, 1])
            );
        }
        // The heavy entry dominates the draw.
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            counts[weighted_index(&mut rng, &[1, 64, 1])] += 1;
        }
        assert!(counts[1] > 500, "{counts:?}");
        // Zero weights never win unless all weights are zero.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(weighted_index(&mut rng, &[0, 0, 7, 0]), 2);
        }
        let uniform = weighted_index(&mut rng, &[0, 0, 0]);
        assert!(uniform < 3);
    }
}
