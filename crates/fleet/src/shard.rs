//! The shard membership table: where each shard lives, whether it is
//! healthy, and which process generation serves it.
//!
//! Placement is consistent hashing in its simplest honest form: the
//! request's FNV-1a/64 content hash modulo the (fixed) shard count
//! picks the primary shard, so a repeated request always lands on the
//! shard whose LRU cache already holds its answer. When the primary is
//! unhealthy (crashed, mid-restart, failing probes) the router walks
//! forward to the next healthy slot — safe, because every propagation
//! is deterministic by seed: a fallback shard computes the exact same
//! bytes, it just pays a cache miss.
//!
//! Generations make restarts observable: each successful (re)spawn
//! bumps the slot's generation, and the router drops pooled backend
//! connections whose generation is stale instead of writing into a
//! dead socket.

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};

/// A point-in-time view of one shard slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Where the shard currently listens; `None` before first spawn.
    pub addr: Option<SocketAddr>,
    /// Whether the supervisor currently believes the shard serves.
    pub healthy: bool,
    /// Bumped on every successful (re)spawn.
    pub generation: u64,
}

#[derive(Debug, Default)]
struct Slot {
    addr: Option<SocketAddr>,
    healthy: bool,
    generation: u64,
}

/// Shared shard membership: one slot per shard, independently locked.
#[derive(Debug)]
pub struct ShardTable {
    slots: Vec<Mutex<Slot>>,
}

/// Locks a slot, recovering from poisoning: the table is a plain
/// record, always internally consistent between mutations.
fn lock(m: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ShardTable {
    /// A table of `shards` empty, unhealthy slots.
    pub fn new(shards: usize) -> Self {
        Self { slots: (0..shards.max(1)).map(|_| Mutex::new(Slot::default())).collect() }
    }

    /// Number of shard slots (fixed for the table's lifetime).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slots (never true — see [`ShardTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Installs a freshly spawned shard: address set, healthy, next
    /// generation. Returns the new generation.
    pub fn install(&self, slot: usize, addr: SocketAddr) -> u64 {
        let Some(m) = self.slots.get(slot) else { return 0 };
        let mut s = lock(m);
        s.addr = Some(addr);
        s.healthy = true;
        s.generation += 1;
        s.generation
    }

    /// Marks a shard unhealthy (crashed or failing probes); the router
    /// stops placing new requests on it until reinstalled or marked
    /// healthy again.
    pub fn mark_unhealthy(&self, slot: usize) {
        if let Some(m) = self.slots.get(slot) {
            lock(m).healthy = false;
        }
    }

    /// Marks a shard healthy again (a probe succeeded) without
    /// changing address or generation.
    pub fn mark_healthy(&self, slot: usize) {
        if let Some(m) = self.slots.get(slot) {
            lock(m).healthy = true;
        }
    }

    /// A point-in-time view of one slot.
    pub fn view(&self, slot: usize) -> SlotView {
        match self.slots.get(slot) {
            Some(m) => {
                let s = lock(m);
                SlotView { addr: s.addr, healthy: s.healthy, generation: s.generation }
            }
            None => SlotView { addr: None, healthy: false, generation: 0 },
        }
    }

    /// The primary slot for a content hash: `hash % shards`.
    pub fn place(&self, hash: u64) -> usize {
        (hash % self.slots.len().max(1) as u64) as usize
    }

    /// The slot that should serve a content hash right now: the
    /// primary when healthy, otherwise the next healthy slot in ring
    /// order. `None` when no shard is healthy.
    pub fn healthy_slot_for(&self, hash: u64) -> Option<(usize, SlotView)> {
        let primary = self.place(hash);
        for step in 0..self.slots.len() {
            let slot = (primary + step) % self.slots.len();
            let view = self.view(slot);
            if view.healthy && view.addr.is_some() {
                return Some((slot, view));
            }
        }
        None
    }

    /// Views of every slot, in slot order.
    pub fn views(&self) -> Vec<SlotView> {
        (0..self.slots.len()).map(|i| self.view(i)).collect()
    }

    /// Number of currently healthy shards.
    pub fn healthy_count(&self) -> usize {
        self.views().iter().filter(|v| v.healthy && v.addr.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    #[test]
    fn install_bumps_generation_and_marks_healthy() {
        let table = ShardTable::new(2);
        assert_eq!(table.view(0).generation, 0);
        assert!(!table.view(0).healthy);
        assert_eq!(table.install(0, addr(9001)), 1);
        let v = table.view(0);
        assert_eq!(v.addr, Some(addr(9001)));
        assert!(v.healthy);
        assert_eq!(table.install(0, addr(9002)), 2, "restart bumps the generation");
    }

    #[test]
    fn placement_is_stable_modulo_shard_count() {
        let table = ShardTable::new(4);
        for hash in [0u64, 1, 5, 1_000_003, u64::MAX] {
            assert_eq!(table.place(hash), (hash % 4) as usize);
            assert_eq!(table.place(hash), table.place(hash), "deterministic");
        }
    }

    #[test]
    fn unhealthy_primary_falls_through_to_the_next_healthy_slot() {
        let table = ShardTable::new(3);
        table.install(0, addr(9000));
        table.install(1, addr(9001));
        table.install(2, addr(9002));
        // hash 1 → primary slot 1.
        assert_eq!(table.healthy_slot_for(1).map(|(s, _)| s), Some(1));
        table.mark_unhealthy(1);
        assert_eq!(
            table.healthy_slot_for(1).map(|(s, _)| s),
            Some(2),
            "ring walk to the next healthy slot"
        );
        table.mark_unhealthy(2);
        assert_eq!(table.healthy_slot_for(1).map(|(s, _)| s), Some(0), "wraps");
        table.mark_unhealthy(0);
        assert!(table.healthy_slot_for(1).is_none(), "no healthy shard left");
        table.mark_healthy(1);
        assert_eq!(table.healthy_slot_for(1).map(|(s, _)| s), Some(1), "recovers");
    }

    #[test]
    fn healthy_count_tracks_marks_and_installs() {
        let table = ShardTable::new(2);
        assert_eq!(table.healthy_count(), 0);
        table.install(0, addr(9000));
        assert_eq!(table.healthy_count(), 1);
        table.install(1, addr(9001));
        assert_eq!(table.healthy_count(), 2);
        table.mark_unhealthy(0);
        assert_eq!(table.healthy_count(), 1);
    }
}
