//! Fleet-level observability: the supervisor/router's own counters
//! plus shard-aware aggregation of the children's `/metrics` exports.
//!
//! `GET /metrics` on the fleet front answers with one merged
//! Prometheus-style exposition: the `sysunc_fleet_*` series first
//! (routing, restarts, probe failures), then every child series summed
//! across shards. Summing is correct for the serve exposition because
//! all its series are monotone counters — including histogram buckets,
//! whose per-`le` cumulative counts add shard-wise.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters the fleet layer maintains itself, per shard where the
/// distinction matters.
#[derive(Debug)]
pub struct FleetMetrics {
    /// Requests placed on each shard (indexed by slot).
    routed: Vec<AtomicU64>,
    /// Times each shard was (re)spawned after its initial start.
    restarts: Vec<AtomicU64>,
    /// Health probes that failed (timeout, refused, non-200).
    probe_failures: AtomicU64,
    /// Forwarding attempts retried after a backend transport error.
    forward_retries: AtomicU64,
    /// Requests answered 503: no shard took them in time, or their
    /// re-send failed too.
    unrouted: AtomicU64,
}

impl FleetMetrics {
    /// A zeroed registry for `shards` slots.
    pub fn new(shards: usize) -> Self {
        Self {
            routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            restarts: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            probe_failures: AtomicU64::new(0),
            forward_retries: AtomicU64::new(0),
            unrouted: AtomicU64::new(0),
        }
    }

    /// Records one request placed on `slot`.
    pub fn routed(&self, slot: usize) {
        if let Some(c) = self.routed.get(slot) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one restart of `slot`.
    pub fn restarted(&self, slot: usize) {
        if let Some(c) = self.restarts.get(slot) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one failed health probe.
    pub fn probe_failed(&self) {
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one forwarding retry after a backend transport error.
    pub fn forward_retried(&self) {
        self.forward_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request answered `503`: no shard took it before its
    /// deadline, or its re-send failed too.
    pub fn unroutable(&self) {
        self.unrouted.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests placed on `slot` so far.
    pub fn routed_count(&self, slot: usize) -> u64 {
        self.routed.get(slot).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Restarts of `slot` so far.
    pub fn restart_count(&self, slot: usize) -> u64 {
        self.restarts.get(slot).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Restarts across all shards.
    pub fn total_restarts(&self) -> u64 {
        self.restarts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Failed health probes so far.
    pub fn probe_failure_count(&self) -> u64 {
        self.probe_failures.load(Ordering::Relaxed)
    }

    /// Forwarding retries so far.
    pub fn forward_retry_count(&self) -> u64 {
        self.forward_retries.load(Ordering::Relaxed)
    }

    /// Requests answered 503 for lack of a healthy shard so far.
    pub fn unrouted_count(&self) -> u64 {
        self.unrouted.load(Ordering::Relaxed)
    }

    /// Renders the `sysunc_fleet_*` exposition block.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(
            "# HELP sysunc_fleet_requests_routed_total Requests placed, by shard.\n\
             # TYPE sysunc_fleet_requests_routed_total counter\n",
        );
        for (slot, c) in self.routed.iter().enumerate() {
            out.push_str(&format!(
                "sysunc_fleet_requests_routed_total{{shard=\"{slot}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP sysunc_fleet_restarts_total Shard processes respawned, by shard.\n\
             # TYPE sysunc_fleet_restarts_total counter\n",
        );
        for (slot, c) in self.restarts.iter().enumerate() {
            out.push_str(&format!(
                "sysunc_fleet_restarts_total{{shard=\"{slot}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        let scalar = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        scalar(
            &mut out,
            "sysunc_fleet_probe_failures_total",
            "Health probes that failed.",
            self.probe_failure_count(),
        );
        scalar(
            &mut out,
            "sysunc_fleet_forward_retries_total",
            "Forwarding attempts retried after a backend error.",
            self.forward_retry_count(),
        );
        scalar(
            &mut out,
            "sysunc_fleet_unrouted_total",
            "Requests answered 503: no shard took them in time, or their re-send failed.",
            self.unrouted_count(),
        );
        out
    }
}

/// One metric family of a text exposition: its comment header block
/// and the value lines that follow it, keyed for merging.
struct Family {
    comments: Vec<String>,
    /// Series keys (`name{labels}`) in first-appearance order.
    order: Vec<String>,
    /// Summed values; `None` marks an unparseable value kept verbatim.
    values: HashMap<String, Option<u64>>,
    raw: HashMap<String, String>,
}

/// Sums several Prometheus-style text expositions series-by-series:
/// lines with the same `name{labels}` key add up, families keep their
/// `# HELP`/`# TYPE` headers, and series present in only some inputs
/// are carried through. Works for the serve exposition because every
/// series there is a monotone counter (histogram bucket counts sum
/// correctly per `le` bound across shards).
pub fn merge_expositions(texts: &[String]) -> String {
    let mut families: Vec<Family> = Vec::new();
    let mut family_index: HashMap<String, usize> = HashMap::new();
    for text in texts {
        let mut pending_comments: Vec<String> = Vec::new();
        let mut current: Option<usize> = None;
        for line in text.lines() {
            if line.starts_with('#') {
                pending_comments.push(line.to_string());
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) = match line.rsplit_once(' ') {
                Some((key, value)) => (key.to_string(), value.parse::<u64>().ok()),
                None => (line.to_string(), None),
            };
            // The family name is the series name without labels.
            let name = key.split('{').next().unwrap_or(&key).to_string();
            if !pending_comments.is_empty() {
                let idx = *family_index.entry(name.clone()).or_insert_with(|| {
                    families.push(Family {
                        comments: std::mem::take(&mut pending_comments),
                        order: Vec::new(),
                        values: HashMap::new(),
                        raw: HashMap::new(),
                    });
                    families.len() - 1
                });
                pending_comments.clear();
                current = Some(idx);
            } else if let Some(&idx) = family_index.get(&name) {
                current = Some(idx);
            }
            let idx = match current {
                Some(idx) => idx,
                None => {
                    // A headerless family: open one with no comments.
                    let idx = *family_index.entry(name.clone()).or_insert_with(|| {
                        families.push(Family {
                            comments: Vec::new(),
                            order: Vec::new(),
                            values: HashMap::new(),
                            raw: HashMap::new(),
                        });
                        families.len() - 1
                    });
                    current = Some(idx);
                    idx
                }
            };
            let Some(family) = families.get_mut(idx) else { continue };
            match family.values.get_mut(&key) {
                Some(Some(total)) => match value {
                    Some(v) => *total += v,
                    None => {
                        family.values.insert(key, None);
                    }
                },
                Some(None) => {}
                None => {
                    family.order.push(key.clone());
                    family.raw.insert(key.clone(), line.to_string());
                    family.values.insert(key, value);
                }
            }
        }
    }
    let mut out = String::new();
    for family in &families {
        for comment in &family.comments {
            out.push_str(comment);
            out.push('\n');
        }
        for key in &family.order {
            match family.values.get(key) {
                Some(Some(total)) => out.push_str(&format!("{key} {total}\n")),
                _ => {
                    if let Some(raw) = family.raw.get(key) {
                        out.push_str(raw);
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_counters_accumulate_and_render() {
        let m = FleetMetrics::new(2);
        m.routed(0);
        m.routed(0);
        m.routed(1);
        m.restarted(1);
        m.probe_failed();
        m.forward_retried();
        m.unroutable();
        assert_eq!(m.routed_count(0), 2);
        assert_eq!(m.routed_count(1), 1);
        assert_eq!(m.restart_count(1), 1);
        assert_eq!(m.total_restarts(), 1);
        let text = m.render_text();
        assert!(text.contains("sysunc_fleet_requests_routed_total{shard=\"0\"} 2"));
        assert!(text.contains("sysunc_fleet_restarts_total{shard=\"1\"} 1"));
        assert!(text.contains("sysunc_fleet_probe_failures_total 1"));
        assert!(text.contains("sysunc_fleet_unrouted_total 1"));
        // Out-of-range slots are ignored, never a panic.
        m.routed(7);
        m.restarted(7);
        assert_eq!(m.routed_count(7), 0);
    }

    #[test]
    fn merging_sums_series_and_keeps_family_headers() {
        let a = "# HELP x_total Things.\n# TYPE x_total counter\n\
                 x_total{route=\"/a\"} 3\nx_total{route=\"/b\"} 1\n\
                 # HELP y_total Others.\n# TYPE y_total counter\ny_total 10\n"
            .to_string();
        let b = "# HELP x_total Things.\n# TYPE x_total counter\n\
                 x_total{route=\"/a\"} 4\nx_total{route=\"/c\"} 2\n\
                 # HELP y_total Others.\n# TYPE y_total counter\ny_total 5\n"
            .to_string();
        let merged = merge_expositions(&[a, b]);
        assert!(merged.contains("x_total{route=\"/a\"} 7"), "{merged}");
        assert!(merged.contains("x_total{route=\"/b\"} 1"));
        assert!(merged.contains("x_total{route=\"/c\"} 2"), "only-in-b carried through");
        assert!(merged.contains("y_total 15"));
        // Exactly one header block per family.
        assert_eq!(merged.matches("# HELP x_total").count(), 1);
        assert_eq!(merged.matches("# TYPE y_total").count(), 1);
        // Family grouping: the /c series sits under the x_total block,
        // before y_total's header.
        let c_pos = merged.find("route=\"/c\"").expect("present");
        let y_pos = merged.find("# HELP y_total").expect("present");
        assert!(c_pos < y_pos, "series stay grouped under their family header");
    }

    #[test]
    fn merging_histogram_buckets_adds_per_le_counts() {
        let a = "# TYPE h histogram\nh_bucket{le=\"100\"} 2\nh_bucket{le=\"+Inf\"} 5\n\
                 h_sum 420\nh_count 5\n"
            .to_string();
        let b = "# TYPE h histogram\nh_bucket{le=\"100\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
                 h_sum 80\nh_count 2\n"
            .to_string();
        let merged = merge_expositions(&[a, b]);
        assert!(merged.contains("h_bucket{le=\"100\"} 3"), "{merged}");
        assert!(merged.contains("h_bucket{le=\"+Inf\"} 7"));
        assert!(merged.contains("h_sum 500"));
        assert!(merged.contains("h_count 7"));
    }

    #[test]
    fn merging_one_exposition_is_identity_modulo_blank_lines() {
        let a = "# HELP x_total T.\n# TYPE x_total counter\nx_total 9\n".to_string();
        assert_eq!(merge_expositions(&[a.clone()]), a);
        assert_eq!(merge_expositions(&[]), "");
    }
}
