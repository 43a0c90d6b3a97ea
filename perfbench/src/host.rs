//! Hosting the program under test: a `sysunc-serve` process, or a
//! 2-shard fleet whose front runs in a helper process of this binary,
//! plus `/metrics` scrapes and peak resident memory.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};
use sysunc_serve::HttpClient;

/// A running server or fleet: its front address, the shard addresses
/// (empty for a single server), and the process that owns them.
#[derive(Debug)]
pub struct Host {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where clients connect.
    pub addr: SocketAddr,
    /// Fleet shards, each a `sysunc-serve` child of the front process.
    pub shards: Vec<SocketAddr>,
}

/// The `sysunc-serve` binary that `run.sh` built next to this one, in
/// the same (release) profile directory. No other copy is used, so a
/// stale or debug server is never measured under this build's label.
pub fn serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("sysunc-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("no sysunc-serve binary at {}", path.display()))
    }
}

impl Host {
    /// Starts `sysunc-serve` with its default configuration and waits
    /// for its `listening on <addr>` line.
    pub fn serve(serve_bin: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(serve_bin);
        cmd.args(["--addr", "127.0.0.1:0", "--child"]);
        Self::spawn(cmd)
    }

    /// Starts a 2-shard fleet in a helper process (`perfbench
    /// fleet-front`), so the front's memory is measured apart from the
    /// benchmark's own.
    pub fn fleet(serve_bin: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("fleet-front").arg("--serve-bin").arg(serve_bin);
        Self::spawn(cmd)
    }

    fn spawn(mut cmd: Command) -> Result<Self, String> {
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot launch {cmd:?}: {e}"))?;
        let stdin = child.stdin.take();
        let mut host = Host {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: vec![],
        };
        let Some(stdout) = host.child.stdout.take() else {
            return Err("child stdout was not piped".into());
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the readiness line: {e}"))?;
        let mut addrs = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or("")
            .split(' ')
            .map(|a| a.parse::<SocketAddr>());
        match addrs.next() {
            Some(Ok(addr)) => host.addr = addr,
            _ => return Err(format!("unexpected readiness line '{}'", line.trim())),
        }
        host.shards = addrs
            .collect::<Result<_, _>>()
            .map_err(|e| format!("shard address: {e}"))?;
        Ok(host)
    }

    /// Peak resident memory, in MiB, of the host process and every
    /// process it started (the fleet's shards).
    pub fn peak_rss_mib(&self) -> f64 {
        let root = self.child.id();
        let kib: u64 = std::iter::once(root)
            .chain(children_of(root))
            .filter_map(vm_hwm_kib)
            .sum();
        kib as f64 / 1024.0
    }

    /// Asks the host to drain (closes its stdin) and waits for it,
    /// killing it after a deadline.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.stdin.take());
        let end = Instant::now() + Duration::from_secs(10);
        while Instant::now() < end {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.shutdown();
        }
    }
}

/// `VmHWM` (peak resident set) of a process, in KiB.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Direct children of `pid`, from each process's `stat` parent field.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| {
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|s| {
                    s.rsplit_once(')')?
                        .1
                        .split_whitespace()
                        .nth(1)?
                        .parse::<u32>()
                        .ok()
                })
                == Some(pid)
        })
        .collect()
}

/// A parsed `/metrics` exposition: series key (`name{labels}`) to value.
pub type Scrape = BTreeMap<String, f64>;

/// Scrapes `GET /metrics` from `addr`.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let text = HttpClient::connect(addr)
        .and_then(|mut c| c.scrape_metrics())
        .map_err(|e| format!("scraping {addr}: {e}"))?;
    Ok(parse_exposition(&text))
}

/// Parses a text exposition, skipping comments and unparseable lines.
pub fn parse_exposition(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The change of every series whose key starts with `prefix`, summed.
pub fn delta(before: &Scrape, after: &Scrape, prefix: &str) -> f64 {
    after
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .sum()
}

/// The `fleet-front` helper: starts a 2-shard fleet, prints `listening
/// on <front> <shard0> <shard1>`, and serves until stdin closes.
pub fn fleet_front(args: &[String]) -> Result<(), String> {
    let serve_bin = match args {
        [flag, path] if flag == "--serve-bin" => PathBuf::from(path),
        _ => return Err("usage: perfbench fleet-front --serve-bin PATH".into()),
    };
    let config = sysunc_fleet::FleetConfig {
        shards: 2,
        serve_bin: Some(serve_bin),
        ..sysunc_fleet::FleetConfig::default()
    };
    let fleet = sysunc_fleet::Fleet::start(config).map_err(|e| format!("fleet start: {e}"))?;
    let shards: Vec<String> = fleet
        .shard_addrs()
        .iter()
        .map(|a| a.map_or("-".into(), |a| a.to_string()))
        .collect();
    println!("listening on {} {}", fleet.addr(), shards.join(" "));
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    fleet.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_deltas_sum_matching_series() {
        let before = parse_exposition(
            "# HELP x\nsysunc_cache_hits_total 10\nsysunc_engine_run_duration_micros_sum{engine=\"a\"} 5\n",
        );
        let after = parse_exposition(
            "sysunc_cache_hits_total 25\nsysunc_engine_run_duration_micros_sum{engine=\"a\"} 9\n\
             sysunc_engine_run_duration_micros_sum{engine=\"b\"} 3\n",
        );
        assert_eq!(delta(&before, &after, "sysunc_cache_hits_total"), 15.0);
        assert_eq!(
            delta(&before, &after, "sysunc_engine_run_duration_micros_sum"),
            7.0
        );
        assert_eq!(delta(&before, &after, "missing"), 0.0);
    }
}
