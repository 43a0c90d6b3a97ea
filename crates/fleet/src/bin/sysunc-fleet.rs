//! Standalone fleet supervisor + router.
//!
//! ```text
//! sysunc-fleet [--shards N] [--addr HOST:PORT] [--serve-bin PATH]
//!              [--child-workers N] [--child-queue N]
//!              [--child-cache-capacity N] [--child-cache-ttl-ms N]
//!              [--max-connections N] [--probe-interval-ms N]
//! ```
//!
//! Spawns N supervised `sysunc-serve` shards, binds the routing front
//! (port 0 = ephemeral), prints `fleet listening on <addr>` to stdout,
//! and serves until stdin reaches EOF — the same signal-free drain
//! convention the shards themselves use, so fleets nest under any
//! process manager that can close a pipe. The serve binary is located
//! via `--serve-bin`, the `SYSUNC_SERVE_BIN` environment variable, or
//! the supervisor's own build tree.

use std::fmt::Display;
use std::io::Read;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use sysunc_fleet::{Fleet, FleetConfig};

/// The value after `flag`, parsed, or an error naming the flag.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(args: &[String]) -> Result<FleetConfig, String> {
    let mut config = FleetConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--shards" => config.shards = value(&mut it, flag)?,
            "--addr" => config.addr = value(&mut it, flag)?,
            "--serve-bin" => config.serve_bin = Some(value(&mut it, flag)?),
            "--child-workers" => config.child_workers = value(&mut it, flag)?,
            "--child-queue" => config.child_queue = value(&mut it, flag)?,
            "--child-cache-capacity" => config.child_cache_capacity = value(&mut it, flag)?,
            "--child-cache-ttl-ms" => {
                config.child_cache_ttl = Some(Duration::from_millis(value(&mut it, flag)?))
            }
            "--max-connections" => config.max_connections = value(&mut it, flag)?,
            "--probe-interval-ms" => {
                config.probe_interval = Duration::from_millis(value(&mut it, flag)?)
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&raw) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("sysunc-fleet: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let shards = config.shards;
    let fleet = match Fleet::start(config) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("sysunc-fleet: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fleet listening on {}", fleet.addr());
    eprintln!("sysunc-fleet: {shards} shard(s) up, routing on {}", fleet.addr());
    // Serve until stdin closes.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("sysunc-fleet: stdin closed, draining fleet");
    fleet.shutdown();
    ExitCode::SUCCESS
}
