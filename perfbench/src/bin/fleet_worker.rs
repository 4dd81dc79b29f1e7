//! Supervised fleet worker for the benchmark's `served` workload. The
//! fleet supervisor looks for a `fleet_worker` binary next to the
//! running executable, so the benchmark ships its own.

fn main() {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    if let Err(e) = ballista::fleet::worker_loop(stdin, stdout) {
        eprintln!("fleet_worker: {e}");
        std::process::exit(1);
    }
}
