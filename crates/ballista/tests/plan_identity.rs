//! Pins the exact sampling plans. Every variant × MuT plan at caps 1,
//! 200 and the paper's 5000, and one adaptive pinned plan, fold into
//! FNV-1a digests that are hard-coded below. A change to how plans are
//! stored or drawn must leave every case, and its order, unchanged; the
//! cap-200 goldens alone would not notice a drift at cap 5000.

use ballista::adaptive::{pinned_plan_shared, AdaptiveConfig};
use ballista::campaign::{resolve_pools, CampaignConfig};
use ballista::catalog;
use ballista::sampling::{self, CaseSet};
use sim_kernel::variant::OsVariant;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Folds one plan: its dims, exhaustive flag, length and every index of
/// every case in execution order.
fn fold_plan(h: &mut Fnv, name: &str, plan: &CaseSet) {
    h.str(name);
    h.u64(plan.dims.len() as u64);
    for &d in &plan.dims {
        h.u64(d as u64);
    }
    h.u64(u64::from(plan.exhaustive));
    h.u64(plan.cases.len() as u64);
    for combo in &plan.cases {
        for &i in combo {
            h.u64(i as u64);
        }
    }
}

fn catalog_digest(os: OsVariant, cap: usize) -> u64 {
    let registry = catalog::registry_for(os);
    let mut h = Fnv::new();
    h.str(os.short_name());
    h.u64(cap as u64);
    for m in catalog::catalog_for(os) {
        let dims: Vec<usize> = resolve_pools(&registry, &m).iter().map(Vec::len).collect();
        let plan = if dims.is_empty() {
            sampling::single_case()
        } else {
            sampling::enumerate(&dims, cap, m.name)
        };
        fold_plan(&mut h, m.name, &plan);
    }
    h.0
}

/// `(variant, [cap 1, cap 200, cap 5000])`, computed on the layout with
/// one `Vec<usize>` per case.
const PINNED: [(OsVariant, [u64; 3]); 7] = [
    (
        OsVariant::Linux,
        [
            0x9e35_942a_391b_6556,
            0xe7a1_f9d7_67c9_2070,
            0x9f80_cf44_cef1_c223,
        ],
    ),
    (
        OsVariant::Win95,
        [
            0xf6fe_59a4_e1c4_cba5,
            0x72ff_92c4_db4f_0871,
            0xe678_e8cd_f427_3e76,
        ],
    ),
    (
        OsVariant::Win98,
        [
            0x86e5_18ae_a093_8258,
            0x02dd_d3d9_d10f_7eea,
            0x750f_7eed_043a_2758,
        ],
    ),
    (
        OsVariant::Win98Se,
        [
            0xa87f_e674_038e_a09a,
            0x180a_0b32_878d_7a34,
            0xc9ae_7f62_3df6_1b06,
        ],
    ),
    (
        OsVariant::WinNt4,
        [
            0x6db0_0be5_f2fa_2009,
            0x323d_9b24_3c04_c617,
            0xbcdd_3374_8e96_e935,
        ],
    ),
    (
        OsVariant::Win2000,
        [
            0x4164_3792_e44a_954f,
            0x3a98_d2a2_7cd8_7bfd,
            0x0df0_a74e_ec83_174f,
        ],
    ),
    (
        OsVariant::WinCe,
        [
            0xdc0a_7631_500a_38bf,
            0xf160_f125_7fc0_5079,
            0xab7e_7e14_8ffa_bb37,
        ],
    ),
];

/// The adaptive pinned plan of Win98 at cap 120, explore seed 7.
const ADAPTIVE_PINNED: u64 = 0x2d46_0bd4_6156_2c41;

#[test]
fn every_variant_plan_matches_its_pinned_digest() {
    let mut mismatches = Vec::new();
    for (os, digests) in PINNED {
        for (cap, want) in [1, 200, sampling::PAPER_CAP].into_iter().zip(digests) {
            let got = catalog_digest(os, cap);
            if got != want {
                mismatches.push(format!(
                    "{os} cap {cap}: {got:#018x} != pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "plans drifted:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn adaptive_pinned_plan_matches_its_pinned_digest() {
    let os = OsVariant::Win98;
    let cfg = CampaignConfig {
        cap: 120,
        ..CampaignConfig::default()
    };
    let acfg = AdaptiveConfig {
        seed: 7,
        ..AdaptiveConfig::default()
    };
    let pin = pinned_plan_shared(os, &cfg, &acfg);
    let mut h = Fnv::new();
    h.str(os.short_name());
    for m in &pin.muts {
        fold_plan(&mut h, &m.name, &m.plan);
    }
    assert_eq!(h.0, ADAPTIVE_PINNED, "pinned plan drifted: {:#018x}", h.0);
}
