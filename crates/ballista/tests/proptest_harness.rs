//! Property-based tests for the harness invariants: sampling determinism
//! and coverage, classification totality, pool constructibility, and
//! tally arithmetic.

use ballista::campaign::{run_mut_campaign_with, CampaignConfig};
use ballista::catalog;
use ballista::crash::{classify, classify_with_expectation, FailureClass, RawOutcome};
use ballista::exec::Session;
use ballista::sampling;
use proptest::prelude::*;
use sim_kernel::variant::OsVariant;

fn raw_outcome() -> impl Strategy<Value = RawOutcome> {
    prop_oneof![
        Just(RawOutcome::ReturnedSuccess),
        Just(RawOutcome::ReturnedError),
        Just(RawOutcome::TaskAbort),
        Just(RawOutcome::TaskHang),
        Just(RawOutcome::SystemCrash),
    ]
}

proptest! {
    /// Sampling is a function of (dims, cap, name): same inputs, same
    /// output; all indices in range; no duplicates; cap respected.
    #[test]
    fn sampling_invariants(
        dims in proptest::collection::vec(1usize..12, 1..6),
        cap in 1usize..2000,
        name in "[A-Za-z]{1,16}",
    ) {
        let a = sampling::enumerate(&dims, cap, &name);
        let b = sampling::enumerate(&dims, cap, &name);
        prop_assert_eq!(&a, &b);
        let total = sampling::combination_count(&dims);
        prop_assert_eq!(a.exhaustive, total <= cap as u64);
        prop_assert!(a.cases.len() as u64 <= total);
        prop_assert!(a.cases.len() <= cap.max(total.min(cap as u64) as usize));
        let mut seen = std::collections::HashSet::new();
        for combo in &a.cases {
            prop_assert_eq!(combo.len(), dims.len());
            for (i, &idx) in combo.iter().enumerate() {
                prop_assert!(idx < dims[i]);
            }
            prop_assert!(seen.insert(combo), "duplicate combo");
        }
        if a.exhaustive {
            prop_assert_eq!(a.cases.len() as u64, total);
        } else {
            prop_assert_eq!(a.cases.len(), cap);
        }
    }

    /// Classification is total and consistent: severity only ever equals
    /// or exceeds the refined (Hindering-aware) classification's base, and
    /// the oracle bit only matters for ReturnedSuccess/ReturnedError.
    #[test]
    fn classification_totality(raw in raw_outcome(), exceptional in any::<bool>()) {
        let base = classify(raw, exceptional);
        let refined = classify_with_expectation(raw, exceptional);
        // Refinement only changes ReturnedError-on-benign into Hindering.
        if raw == RawOutcome::ReturnedError && !exceptional {
            prop_assert_eq!(refined, FailureClass::Hindering);
        } else {
            prop_assert_eq!(refined, base);
        }
        // Hard outcomes ignore the oracle bit entirely.
        if matches!(raw, RawOutcome::TaskAbort | RawOutcome::TaskHang | RawOutcome::SystemCrash) {
            prop_assert_eq!(classify(raw, true), classify(raw, false));
            prop_assert!(base.is_failure());
        }
        // Byte roundtrip.
        prop_assert_eq!(RawOutcome::from_byte(raw.to_byte()), Some(raw));
    }

    /// Every pool value of every registered type constructs on a fresh
    /// machine of each Windows variant without panicking, and yields a
    /// stable name.
    #[test]
    fn windows_pools_always_construct(seed in 0usize..64) {
        let registry = catalog::registry_for(OsVariant::Win98);
        for ty in ["int", "size", "buffer", "cstring", "path", "double", "msec",
                   "flags", "FILE_ptr", "tm_ptr", "time_t_ptr", "HANDLE",
                   "filetime_ptr", "systemtime_ptr", "wstring", "mode_string"] {
            let pool = registry.pool(ty);
            let v = &pool[seed % pool.len()];
            for os in [OsVariant::Win95, OsVariant::WinNt4, OsVariant::WinCe] {
                let mut k = sim_kernel::Kernel::with_flavor(os.machine_flavor());
                let _ = (v.make)(&mut k, os);
                prop_assert!(k.is_alive(), "constructor crashed the machine: {ty}/{}", v.name);
            }
        }
    }

    /// Campaign tallies always partition the executed cases, for arbitrary
    /// MuTs and caps, and rates stay in [0, 1].
    #[test]
    fn tallies_partition_cases(cap in 5usize..60, mut_index in 0usize..40) {
        let os = OsVariant::Win98;
        let registry = catalog::registry_for(os);
        let muts = catalog::catalog_for(os);
        let m = &muts[mut_index % muts.len()];
        let cfg = CampaignConfig { cap, record_raw: true, isolation_probe: false, perfect_cleanup: false, parallelism: 1, fuel_budget: 0 };
        let mut session = Session::new();
        let t = run_mut_campaign_with(os, m, &registry, &cfg, &mut session);
        let catastrophic_case = usize::from(t.catastrophic);
        prop_assert_eq!(
            t.cases,
            t.aborts + t.restarts + t.silents + t.error_reports + t.passes + catastrophic_case,
            "{} tallies must partition", t.name
        );
        prop_assert!(t.cases <= t.planned);
        prop_assert_eq!(t.raw_outcomes.len(), t.cases);
        for r in [t.abort_rate(), t.restart_rate(), t.silent_rate(), t.failure_rate()] {
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }

    /// Executing the same case twice from clean sessions gives the same
    /// outcome — the repeatability the paper reports ("virtually all test
    /// results reproduce the same robustness problems every time").
    #[test]
    fn execution_is_repeatable(mut_index in 0usize..60, case_seed in 0usize..500) {
        let os = OsVariant::Win95;
        let registry = catalog::registry_for(os);
        let muts = catalog::catalog_for(os);
        let m = &muts[mut_index % muts.len()];
        let pools = ballista::campaign::resolve_pools(&registry, m);
        if pools.is_empty() {
            return Ok(());
        }
        let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
        let set = sampling::enumerate(&dims, 200, m.name);
        let combo = &set.cases[case_seed % set.cases.len()];
        let a = ballista::exec::execute_case(os, m, &pools, combo, &mut Session::new());
        let b = ballista::exec::execute_case(os, m, &pools, combo, &mut Session::new());
        prop_assert_eq!(a, b, "{} is not repeatable on {:?}", m.name, combo);
    }

    /// A batched [`CaseRunner`] driving a whole sampled sequence through
    /// one resident machine produces exactly the outcomes (and session
    /// residue) of clone-per-case fresh provisioning: dirty-state
    /// reset-in-place is observationally equivalent to a fresh
    /// `snapshot().restore()` before every case.
    #[test]
    fn batched_runner_equals_fresh_per_case(mut_index in 0usize..60, os_seed in 0usize..16) {
        let os = OsVariant::ALL[os_seed % OsVariant::ALL.len()];
        let registry = catalog::registry_for(os);
        let muts = catalog::catalog_for(os);
        let m = &muts[mut_index % muts.len()];
        let pools = ballista::campaign::resolve_pools(&registry, m);
        if pools.is_empty() {
            return Ok(());
        }
        let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
        let set = sampling::enumerate(&dims, 24, m.name);
        let mut runner = ballista::exec::CaseRunner::new();
        let mut batched = Session::new();
        let mut fresh = Session::new();
        for combo in &set.cases {
            let a = runner.execute(
                os, m, &pools, combo, &mut batched, ballista::exec::DEFAULT_FUEL_BUDGET,
            );
            let b = ballista::exec::execute_case_budgeted(
                os, m, &pools, combo, &mut fresh, ballista::exec::DEFAULT_FUEL_BUDGET,
            );
            prop_assert_eq!(a, b, "{} diverged on {:?} under {}", m.name, combo, os.short_name());
            prop_assert_eq!(batched.residue, fresh.residue, "residue diverged for {}", m.name);
        }
    }
}
