//! The resident flow daemon: boots [`smt_serve::Daemon`], prints the
//! bound address, and drains gracefully on SIGTERM/SIGINT or a
//! `shutdown` request.
//!
//! ```text
//! cargo run --release -p smt-bench --bin smtd -- [options]
//!
//!   --listen ADDR           bind address        [127.0.0.1:2005]
//!   --addr-file FILE        also write the bound address to FILE
//!                           (useful with `--listen 127.0.0.1:0`)
//!   --cache-dir DIR         design-cache location [target/suite-cache]
//!   --jobs N                worker-pool cap for sweeps (0 = cores)
//!   --drain-timeout-ms N    shutdown drain bound [30000]
//! ```
//!
//! The process exits 0 after a clean drain: in-flight requests finish
//! (bounded by the drain timeout), queued ones are answered with a
//! `draining` error, and nothing is accepted afterwards.

use smt_serve::daemon::signals;
use smt_serve::{Daemon, DaemonConfig};
use std::time::Duration;

fn parse_args() -> Result<(DaemonConfig, Option<String>), String> {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:2005".to_owned(),
        ..DaemonConfig::default()
    };
    let mut addr_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("`{name}` needs a value"));
        match arg.as_str() {
            "--listen" => config.addr = value("--listen")?,
            "--addr-file" => addr_file = Some(value("--addr-file")?),
            "--cache-dir" => config.cache_dir = value("--cache-dir")?.into(),
            "--jobs" | "--threads" => {
                config.threads = value(&arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--drain-timeout-ms" => {
                config.drain_timeout =
                    Duration::from_millis(value(&arg)?.parse().map_err(|e| format!("{arg}: {e}"))?)
            }
            "--help" | "-h" => {
                println!(
                    "smtd: resident flow daemon\n\
                     --listen ADDR | --addr-file FILE | --cache-dir DIR | --jobs N |\n\
                     --drain-timeout-ms N"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((config, addr_file))
}

fn main() {
    let (config, addr_file) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("smtd: {e}");
            std::process::exit(2);
        }
    };
    let handle = match Daemon::spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("smtd: {e}");
            std::process::exit(1);
        }
    };
    println!("smtd listening on {}", handle.addr());
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", handle.addr())) {
            eprintln!("smtd: writing {path}: {e}");
        }
    }
    signals::install();
    while !handle.is_finished() {
        if signals::termination_requested() {
            eprintln!("smtd: termination signal; draining");
            handle.begin_drain();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    handle.wait();
    eprintln!("smtd: drained; bye");
}
