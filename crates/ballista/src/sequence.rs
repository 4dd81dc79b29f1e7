//! Sequence-dependent failure testing — the paper's stated future work
//! ("we will attempt to find ways to reproduce the elusive crashes that we
//! have observed … state- and sequence-dependent failures").
//!
//! Standard Ballista runs every test case on a pristine machine. This
//! extension runs a *pair* of calls on one machine: call **A** executes
//! first (its constructors and side effects stay), then call **B** runs in
//! whatever state A left behind. B's outcome is compared with its outcome
//! on a pristine machine; any difference is a **sequence dependence** —
//! from the benign (A deleted the file B was going to stat) to the severe
//! (A's residue pushed B over a 9x crash threshold).

use crate::crash::{FailureClass, RawOutcome};
use crate::datatype::TypeRegistry;
use crate::exec::{execute_case, execute_case_on, Session};
use crate::muts::Mut;
use crate::sampling::{self, Cases};
use crate::value::TestValue;
use serde::{Deserialize, Serialize};
use sim_kernel::variant::OsVariant;
use sim_kernel::Kernel;

/// One observed sequence dependence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceFinding {
    /// First call of the pair.
    pub first: String,
    /// Second call (the one whose behaviour changed).
    pub second: String,
    /// Pool-value names of the second call's arguments.
    pub second_values: Vec<String>,
    /// The second call's outcome alone on a pristine machine.
    pub alone: RawOutcome,
    /// Its outcome when run after the first call.
    pub sequenced: RawOutcome,
    /// CRASH classification of the sequenced outcome.
    pub sequenced_class: FailureClass,
}

impl SequenceFinding {
    /// Whether the sequence *worsened* the outcome (e.g. an error report
    /// alone became an abort or a crash in sequence) — the findings the
    /// paper's future work is after, as opposed to ordinary state
    /// visibility (a file deleted by A is legitimately absent for B).
    #[must_use]
    pub fn is_escalation(&self) -> bool {
        severity(self.sequenced) > severity(self.alone)
    }
}

fn severity(raw: RawOutcome) -> u8 {
    match raw {
        RawOutcome::ReturnedSuccess | RawOutcome::ReturnedError => 0,
        RawOutcome::TaskAbort => 1,
        RawOutcome::TaskHang => 2,
        RawOutcome::SystemCrash => 3,
    }
}

/// Configuration for a sequence sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceConfig {
    /// Case pairs tried per (A, B) MuT pair.
    pub cases_per_pair: usize,
    /// MuT pairs examined (sampled deterministically from the catalog).
    pub max_pairs: usize,
    /// How many cases of the *first* call run before the second — a
    /// warm-up chain that lets state (and 9x residue) accumulate the way
    /// a real workload's call history would.
    pub warmup_calls: usize,
}

impl Default for SequenceConfig {
    fn default() -> Self {
        SequenceConfig {
            cases_per_pair: 8,
            max_pairs: 400,
            warmup_calls: 4,
        }
    }
}

fn pools_for(registry: &TypeRegistry, m: &Mut) -> Vec<Vec<TestValue>> {
    m.params.iter().map(|ty| registry.pool(ty)).collect()
}

/// First `n` argument combinations in lexicographic (odometer) order.
///
/// Pools put valid values first, so the leading combinations are the
/// ones that actually mutate machine state — exactly what a warm-up
/// chain and a state-dependence probe want. Using a fixed order (rather
/// than the campaign sampler) also keeps the sweep reproducible
/// independent of the sampling RNG.
fn cases_for(pools: &[Vec<TestValue>], n: usize) -> Cases {
    if pools.is_empty() {
        return sampling::single_case().cases;
    }
    let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
    let n = n.max(1);
    let mut cases = Cases::with_capacity(dims.len(), n);
    let mut combo = vec![0usize; dims.len()];
    while cases.len() < n {
        cases.push(&combo);
        let mut i = dims.len();
        loop {
            if i == 0 {
                return cases; // the whole space is smaller than n
            }
            i -= 1;
            combo[i] += 1;
            if combo[i] < dims[i] {
                break;
            }
            combo[i] = 0;
        }
    }
    cases
}

/// Runs the sequence sweep over the OS's catalog.
///
/// Pairs are drawn by a deterministic generator seeded from the catalog
/// size, so results reproduce run-to-run while covering the whole catalog
/// as both first and second call. Cases where the warm-up chain already
/// crashed the machine are skipped — that is ordinary Table 3 material,
/// not a sequence dependence.
#[must_use]
pub fn run_sequence_sweep(
    os: OsVariant,
    muts: &[Mut],
    registry: &TypeRegistry,
    cfg: &SequenceConfig,
) -> Vec<SequenceFinding> {
    let mut findings = Vec::new();
    let n = muts.len();
    if n == 0 {
        return findings;
    }
    // Deterministic pair generator: a full-period-ish linear walk over the
    // pair space, so both slots sweep the catalog.
    let mut state = sampling::seed_from_name(muts[0].name) | 1;
    for _ in 0..cfg.max_pairs {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let ai = (state >> 33) as usize % n;
        let bi = (state >> 13) as usize % n;
        let (a, b) = (&muts[ai], &muts[bi]);
        let a_pools = pools_for(registry, a);
        let b_pools = pools_for(registry, b);
        let a_cases = cases_for(&a_pools, cfg.warmup_calls.max(1));
        let b_cases = cases_for(&b_pools, cfg.cases_per_pair);
        for b_combo in &b_cases {
            // Baseline: B alone on a pristine machine.
            let alone = execute_case(os, b, &b_pools, b_combo, &mut Session::new());
            // Sequence: the A warm-up chain, then B, all on one machine.
            let mut kernel = Kernel::with_flavor(os.machine_flavor());
            let mut chain_crashed = false;
            for a_combo in &a_cases {
                let first = execute_case_on(&mut kernel, os, a, &a_pools, a_combo);
                match first.raw {
                    RawOutcome::SystemCrash => {
                        chain_crashed = true; // A's own crash, not a sequence effect
                        break;
                    }
                    // Uncleaned state accumulates on the shared machine,
                    // exactly as in the paper's non-isolated harness runs.
                    RawOutcome::TaskAbort => kernel.residue += 1,
                    RawOutcome::ReturnedSuccess if first.any_exceptional => kernel.residue += 1,
                    _ => {}
                }
            }
            if chain_crashed {
                continue;
            }
            let sequenced = execute_case_on(&mut kernel, os, b, &b_pools, b_combo);
            if sequenced.raw != alone.raw {
                findings.push(SequenceFinding {
                    first: a.name.to_owned(),
                    second: b.name.to_owned(),
                    second_values: b_combo
                        .iter()
                        .zip(&b_pools)
                        .map(|(&i, pool)| pool[i].name.to_owned())
                        .collect(),
                    alone: alone.raw,
                    sequenced: sequenced.raw,
                    sequenced_class: sequenced.class,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn sweep_is_deterministic() {
        let os = OsVariant::Linux;
        let registry = catalog::registry_for(os);
        let muts: Vec<Mut> = catalog::catalog_for(os).into_iter().take(12).collect();
        let cfg = SequenceConfig {
            cases_per_pair: 4,
            max_pairs: 30,
            warmup_calls: 2,
        };
        let a = run_sequence_sweep(os, &muts, &registry, &cfg);
        let b = run_sequence_sweep(os, &muts, &registry, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn finds_filesystem_state_dependences() {
        // unlink(existing) then open(existing, O_RDONLY): alone the open
        // succeeds; in sequence it reports ENOENT — a visible (benign)
        // state dependence the sweep must detect.
        let os = OsVariant::Linux;
        let registry = catalog::registry_for(os);
        let all = catalog::catalog_for(os);
        let muts: Vec<Mut> = all
            .into_iter()
            .filter(|m| ["unlink", "open", "stat", "access"].contains(&m.name))
            .collect();
        let cfg = SequenceConfig {
            cases_per_pair: 24,
            max_pairs: 64,
            warmup_calls: 1,
        };
        let findings = run_sequence_sweep(os, &muts, &registry, &cfg);
        assert!(
            findings.iter().any(|f| f.first == "unlink"),
            "no unlink-induced dependence found: {findings:?}"
        );
    }

    #[test]
    fn escalation_predicate() {
        let f = SequenceFinding {
            first: "a".into(),
            second: "b".into(),
            second_values: vec![],
            alone: RawOutcome::ReturnedError,
            sequenced: RawOutcome::SystemCrash,
            sequenced_class: FailureClass::Catastrophic,
        };
        assert!(f.is_escalation());
        let g = SequenceFinding {
            alone: RawOutcome::ReturnedSuccess,
            sequenced: RawOutcome::ReturnedError,
            ..f
        };
        assert!(!g.is_escalation());
    }
}
