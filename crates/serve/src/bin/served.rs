//! The campaign-as-a-service daemon CLI.
//!
//! ```text
//! cargo run -p wsn-serve --bin served --release -- \
//!     serve [--addr HOST:PORT] [--state-dir DIR] [--checkpoint-every N] [--workers N]
//! cargo run -p wsn-serve --bin served --release -- bench [--smoke] [--out DIR]
//! ```
//!
//! * `serve` binds the listener, recovers any jobs a previous daemon
//!   left mid-matrix (their checkpoints live in the state directory),
//!   and serves until SIGINT/SIGTERM. Shutdown is graceful: the running
//!   job checkpoints and re-queues, so the next `served` picks it up and
//!   finishes it to a byte-identical artifact.
//! * `bench` writes the `BENCH_serve.json` request/stream-throughput
//!   ledger into `results/` (or `--out`/`$WSN_RESULTS_DIR`), gated by
//!   `perf compare` alongside the other ledgers.

use std::path::PathBuf;
use std::process::ExitCode;

use wsn_bench::cli::{results_dir, take_flag, take_switch};
use wsn_serve::server::{ServeConfig, Server};
use wsn_simcore::shutdown;

const USAGE: &str = "usage: served serve [--addr HOST:PORT] [--state-dir DIR] \
[--checkpoint-every N] [--workers N]\n       served bench [--smoke] [--out DIR]";

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{flag} needs a number, got {value:?}"))
}

fn cmd_serve(mut args: Vec<String>) -> Result<(), String> {
    let mut cfg = ServeConfig::default_config();
    if let Some(addr) = take_flag(&mut args, "--addr")? {
        cfg.addr = addr;
    }
    if let Some(dir) = take_flag(&mut args, "--state-dir")? {
        cfg.state_dir = PathBuf::from(dir);
    }
    if let Some(every) = take_flag(&mut args, "--checkpoint-every")? {
        cfg.checkpoint_every = parse_num("--checkpoint-every", &every)?;
    }
    if let Some(workers) = take_flag(&mut args, "--workers")? {
        cfg.workers = Some(parse_num("--workers", &workers)?);
    }
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    shutdown::install_signal_traps();
    let server = Server::bind(&cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let jobs = server.queue().list();
    let queued = jobs
        .iter()
        .filter(|j| j.state == wsn_serve::JobState::Queued)
        .count();
    println!(
        "served: listening on {} (state: {}, {} job(s) known, {} queued)",
        server.local_addr(),
        cfg.state_dir.display(),
        jobs.len(),
        queued
    );
    server.serve().map_err(|e| e.to_string())?;
    println!("served: shut down cleanly (running jobs checkpointed)");
    Ok(())
}

fn cmd_bench(mut args: Vec<String>) -> Result<(), String> {
    let smoke = take_switch(&mut args, "--smoke");
    let dir = match take_flag(&mut args, "--out")? {
        Some(d) => PathBuf::from(d),
        None => results_dir(),
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let doc = wsn_serve::bench::bench_serve(smoke);
    let path = dir.join("BENCH_serve.json");
    std::fs::write(&path, doc.to_file_string()).map_err(|e| e.to_string())?;
    println!("serve ledger -> {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.is_empty() {
        "serve".to_owned()
    } else {
        args.remove(0)
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(args),
        "bench" => cmd_bench(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("served: {e}");
            ExitCode::FAILURE
        }
    }
}
