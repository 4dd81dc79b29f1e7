//! Extending Ballista: register your own data type and Module under Test
//! and let the harness hunt for robustness failures in *your* API — the
//! "Internet-based testing service" workflow of the Ballista project,
//! in-process.
//!
//! The example defines a deliberately fragile call,
//! `FrobnicateBuffer(buf, len, mode)`, that (a) dereferences `buf` without
//! probing, (b) hangs when `mode == 0xFF`, and (c) silently accepts a
//! too-large `len`. Ballista finds all three.
//!
//! ```sh
//! cargo run -p experiments --example custom_api
//! ```

use ballista::campaign::resolve_pools;
use ballista::datatype::TypeRegistry;
use ballista::exec::{execute_case, Session};
use ballista::muts::{arg, FunctionGroup, Mut};
use ballista::sampling;
use ballista::value::TestValue;
use ballista::FailureClass;
use sim_kernel::outcome::{ApiAbort, ApiReturn};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    // 1. A type registry with a custom "frob_mode" type plus the stock
    //    buffer/size pools.
    let mut registry = TypeRegistry::new();
    let stock = ballista::pools::posix_types();
    registry.register("buffer", stock.pool("buffer"));
    registry.register("size", stock.pool("size"));
    registry.register(
        "frob_mode",
        vec![
            TestValue::constant("MODE_FAST", false, 1),
            TestValue::constant("MODE_SAFE", false, 2),
            TestValue::constant("MODE_DEBUG(0xFF)", false, 0xFF),
            TestValue::constant("garbage mode", true, 0xDEAD),
        ],
    );

    // 2. The Module under Test: our fragile API.
    let frobnicate = Mut {
        name: "FrobnicateBuffer",
        group: FunctionGroup::MemoryManagement,
        params: vec!["buffer", "size", "frob_mode"],
        dispatch: Arc::new(|k, _os, a| {
            k.charge_call();
            let (buf, len, mode) = (arg::ptr(a[0]), a[1], arg::uint(a[2]));
            // Bug (b): the debug mode spins forever.
            if mode == 0xFF {
                return Err(ApiAbort::Hang);
            }
            if !matches!(mode, 1 | 2) {
                return Ok(ApiReturn::err(0, 22)); // robust EINVAL
            }
            // Bug (c): silently clamp absurd lengths instead of reporting.
            let effective = len.min(64);
            // Bug (a): no probing before the write loop.
            for i in 0..effective {
                if let Err(fault) = k.space.write_u8(buf.offset(i), 0x5A) {
                    return Err(ApiAbort::signal_from_fault(fault));
                }
            }
            Ok(ApiReturn::ok(effective as i64))
        }),
    };

    // 3. Enumerate, execute, classify — the standard Ballista loop.
    let pools = resolve_pools(&registry, &frobnicate);
    let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
    let plan = sampling::enumerate(&dims, 5000, frobnicate.name);
    let mut session = Session::new();
    let mut by_class: BTreeMap<FailureClass, usize> = BTreeMap::new();
    let mut worst_examples: BTreeMap<FailureClass, String> = BTreeMap::new();
    for combo in &plan.cases {
        let result = execute_case(
            sim_kernel::variant::OsVariant::Linux,
            &frobnicate,
            &pools,
            combo,
            &mut session,
        );
        *by_class.entry(result.class).or_default() += 1;
        worst_examples.entry(result.class).or_insert_with(|| {
            combo
                .iter()
                .zip(&pools)
                .map(|(&i, pool)| pool[i].name)
                .collect::<Vec<_>>()
                .join(", ")
        });
    }

    println!(
        "FrobnicateBuffer(buf, len, mode): {} test cases ({})\n",
        plan.cases.len(),
        if plan.exhaustive { "exhaustive" } else { "sampled" }
    );
    for (class, count) in by_class.iter().rev() {
        println!(
            "  {:<12} {:>5} cases   first: ({})",
            class.to_string(),
            count,
            worst_examples[class]
        );
    }
    println!("\nBallista found the hang (Restart), the unprobed writes (Abort),");
    println!("and the silent clamp (Silent) without knowing anything about the");
    println!("function beyond its parameter types.");
}
