//! Standalone propagation server.
//!
//! ```text
//! sysunc-serve [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N]
//!              [--max-connections N] [--cache-capacity N] [--cache-shards N]
//!              [--cache-ttl-ms N] [--child]
//! ```
//!
//! Binds (port 0 = ephemeral), prints `listening on <addr>` to stdout,
//! and serves until stdin reaches EOF — the supervisor-friendly,
//! signal-free shutdown convention: closing the pipe asks the server
//! to drain and exit 0.
//!
//! `--workers N` is how many propagations run at once, each on its
//! connection's thread (default 4); `--queue N` is how many more
//! requests may wait for one of those run permits before the server
//! answers `503` (default 64). `--timeout-ms N` is the per-request
//! deadline (`408`); PROTOCOL.md states how late that answer can be.
//!
//! `--child` marks the process as a shard under a `sysunc-fleet`
//! supervisor: stderr chatter is suppressed (the supervisor owns the
//! operator console) while the stdout `listening on <addr>` handshake
//! line — the supervisor's readiness signal — is kept.

use std::fmt::Display;
use std::io::Read;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use sysunc::ModelRegistry;
use sysunc_serve::{Server, ServerConfig};

struct Args {
    config: ServerConfig,
    /// Supervised-shard mode: keep the stdout handshake, drop chatter.
    child: bool,
}

/// The value after `flag`, parsed, or an error naming the flag.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut config = ServerConfig::default();
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--addr" => config.addr = value(&mut it, flag)?,
            "--workers" => config.workers = value(&mut it, flag)?,
            "--queue" => config.queue_capacity = value(&mut it, flag)?,
            "--timeout-ms" => config.request_timeout = Duration::from_millis(value(&mut it, flag)?),
            "--max-connections" => config.max_connections = value(&mut it, flag)?,
            "--cache-capacity" => config.cache_capacity = value(&mut it, flag)?,
            "--cache-shards" => config.cache_shards = value(&mut it, flag)?,
            "--cache-ttl-ms" => {
                config.cache_ttl = Some(Duration::from_millis(value(&mut it, flag)?))
            }
            "--child" => child = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args { config, child })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Args { config, child } = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("sysunc-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let registry = match ModelRegistry::standard() {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("sysunc-serve: cannot build the model registry: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(config, registry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sysunc-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    // Serve until stdin closes.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    if !child {
        eprintln!("sysunc-serve: stdin closed, draining");
    }
    server.shutdown();
    ExitCode::SUCCESS
}
