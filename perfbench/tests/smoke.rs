//! The benchmark at a tiny length: every workload (those `BENCHMARK.json`
//! lists, plus `durable` and `modes`, which it leaves out) prints every metric that
//! `BENCHMARK.json` declares, with its unit, and passes its own
//! correctness gate. Slow in a debug build; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Deserialize;
use std::path::Path;
use std::process::Command;

#[derive(Deserialize)]
struct Decl {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Decl>,
    per_layer: Vec<Decl>,
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads = bench
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .chain(["durable", "modes"]);
    for w in workloads {
        for (trace, decls) in [("0", &bench.end_to_end), ("1", &bench.per_layer)] {
            let stdout = run(w, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with(r#"{"correct": true, "#) && last.contains(r#""failed": 0,"#),
                "{} --trace {trace}: {last}",
                w
            );
            for d in decls.iter() {
                let needle = format!(r#""{}": {{"value": "#, d.name);
                let at = last
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{}: {} missing from {last}", w, d.name));
                let rest = &last[at + needle.len()..];
                let value = &rest[..=rest.find('}').expect("closing brace")];
                let unit = format!(r#", "unit": "{}"}}"#, d.unit);
                assert!(
                    value.ends_with(&unit),
                    "{}: {} printed as {value}, not in {}",
                    w,
                    d.name,
                    d.unit
                );
                assert!(
                    stdout.contains(&format!(r#""metric": "{}", "#, d.name)),
                    "{}: no provenance row for {}",
                    w,
                    d.name
                );
            }
            assert!(
                stdout.contains(r#""metric": "failed_ratio", "value": 0,"#),
                "{}: failed_ratio row",
                w
            );
            if trace == "1" {
                assert!(stdout.contains("layer table {"), "{}: no layer table", w);
            }
        }
    }
}
