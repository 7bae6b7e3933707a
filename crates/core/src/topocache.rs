//! Per-communicator topology cache — the `cache` sink of
//! [`crate::AdaptiveColl::plan`]. The planner's two topology functions
//! consult it when a caller passes one and build fresh otherwise; both
//! kinds of entry go through one lookup that reports hit or miss.
//!
//! Building a collective topology costs the full Kruskal pipeline: queue
//! all `n(n-1)/2` edges in the paper's order (one counting pass over the
//! distance matrix) and run the union-find acceptance loop. Production MPI calls the same collective on
//! the same communicator thousands of times, so the framework memoizes
//! built topologies keyed by
//! `(communicator epoch, collective, root, policy bucket)`:
//!
//! * the **epoch** ([`pdac_mpisim::Communicator::epoch`]) changes exactly
//!   when a communicator's (machine, binding) group changes — `dup` keeps
//!   it, `subset`/`split` mint a fresh one — so epoch equality implies the
//!   distance matrix is identical and any cached topology is valid;
//! * the **policy bucket** is the broadcast refinement
//!   ([`BcastTopology`]): hierarchical and collapsed trees are distinct
//!   entries even for one root.
//!
//! Entries are `Arc`-shared and immutable, so a hit costs one lock + hash
//! lookup + refcount bump and skips `edges.rs` and `unionfind.rs` entirely.
//! Misses build inside the cache lock, queue and all, and keep nothing of
//! the build but the topology. Capacity is bounded; FIFO eviction keeps the
//! common few-communicators-many-calls workload entirely resident. Rebinding
//! (dropping a communicator for a re-split one) is handled by
//! [`TopoCache::invalidate_epoch`], or simply by eviction, since a dead
//! epoch can never be requested again.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use pdac_telemetry::Counter;

use crate::adaptive::BcastTopology;
use crate::allgather_ring::Ring;
use crate::tree::Tree;

/// Which collective topology an entry holds, including the per-collective
/// parameters it was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TopoKind {
    /// Broadcast tree from `root` under the given refinement.
    Bcast {
        /// The broadcast root rank.
        root: usize,
        /// The policy bucket (hierarchical vs collapsed).
        topo: BcastTopology,
    },
    /// The allgather ring (rootless, no policy bucket).
    AllgatherRing,
}

/// Full cache key: communicator group identity plus collective parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TopoKey {
    /// Communicator epoch ([`pdac_mpisim::Communicator::epoch`]).
    epoch: u64,
    /// Collective and its parameters.
    kind: TopoKind,
}

/// A cached, immutable, shared topology: an `Arc<Tree>` under a
/// [`TopoKind::Bcast`] key, an `Arc<Ring>` under [`TopoKind::AllgatherRing`].
type CachedTopo = Arc<dyn Any + Send + Sync>;

/// Counters for observing cache behaviour (and asserting it in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Entries dropped by [`TopoCache::invalidate_epoch`].
    pub invalidations: u64,
}

struct Inner {
    map: HashMap<TopoKey, CachedTopo>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<TopoKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// Process-wide registry handles, resolved once per cache so the hot path
/// increments shared atomics without a name lookup. The per-instance
/// counters in [`Inner`] stay the source of truth for [`TopoCache::stats`];
/// these accumulate across caches for snapshot export.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl CacheMetrics {
    fn resolve() -> Self {
        let registry = pdac_telemetry::global().registry();
        CacheMetrics {
            hits: registry.counter("topocache.hits"),
            misses: registry.counter("topocache.misses"),
            evictions: registry.counter("topocache.evictions"),
            invalidations: registry.counter("topocache.invalidations"),
        }
    }
}

/// Memoizes built collective topologies per communicator epoch. See the
/// module docs for the keying and invalidation contract.
pub struct TopoCache {
    inner: Mutex<Inner>,
    metrics: CacheMetrics,
}

impl Default for TopoCache {
    fn default() -> Self {
        TopoCache::new()
    }
}

impl std::fmt::Debug for TopoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopoCache").field("stats", &self.stats()).finish()
    }
}

impl TopoCache {
    /// Cache with the default capacity (plenty for a handful of live
    /// communicators × roots × policy buckets).
    pub fn new() -> Self {
        TopoCache::with_capacity(256)
    }

    /// Cache holding at most `capacity` topologies (FIFO eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "topology cache needs capacity >= 1");
        TopoCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
                invalidations: 0,
            }),
            metrics: CacheMetrics::resolve(),
        }
    }

    /// The broadcast tree of communicator `epoch` rooted at `root` under
    /// `topo`, and whether the lookup hit; `build` runs on a miss.
    pub fn tree(
        &self,
        epoch: u64,
        root: usize,
        topo: BcastTopology,
        build: impl FnOnce() -> Tree,
    ) -> (Arc<Tree>, bool) {
        let kind = TopoKind::Bcast { root, topo };
        self.lookup(TopoKey { epoch, kind }, build)
    }

    /// The allgather ring of communicator `epoch`, and whether the lookup
    /// hit; `build` as for [`Self::tree`].
    pub fn ring(&self, epoch: u64, build: impl FnOnce() -> Ring) -> (Arc<Ring>, bool) {
        let kind = TopoKind::AllgatherRing;
        self.lookup(TopoKey { epoch, kind }, build)
    }

    /// The one lookup both topology kinds share. [`Self::tree`] and
    /// [`Self::ring`] pair each key kind with one entry type, so the
    /// downcast cannot fail.
    fn lookup<T: Send + Sync + 'static>(
        &self,
        key: TopoKey,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = inner.map.get(&key) {
            let topo = Arc::clone(entry).downcast::<T>().expect("key kind fixes the entry type");
            inner.hits += 1;
            self.metrics.hits.inc();
            self.record_event("topo_hit", key);
            return (topo, true);
        }
        inner.misses += 1;
        self.metrics.misses.inc();
        self.record_event("topo_miss", key);
        let topo = Arc::new(build());
        let evicted = inner.insert(key, Arc::clone(&topo) as CachedTopo);
        self.metrics.evictions.add(evicted);
        (topo, false)
    }

    /// Drops every entry of `epoch` (a communicator was rebound or freed).
    /// Returns the number of entries removed.
    pub fn invalidate_epoch(&self, epoch: u64) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = inner.map.len();
        inner.map.retain(|k, _| k.epoch != epoch);
        inner.order.retain(|k| k.epoch != epoch);
        let removed = before - inner.map.len();
        inner.invalidations += removed as u64;
        self.metrics.invalidations.add(removed as u64);
        pdac_telemetry::global().recorder().instant(
            0,
            "topocache",
            || format!("epoch_invalidate {epoch} ({removed} entries)"),
            || vec![("epoch", epoch.into()), ("removed", removed.into())],
        );
        removed
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let removed = inner.map.len();
        inner.map.clear();
        inner.order.clear();
        inner.invalidations += removed as u64;
        self.metrics.invalidations.add(removed as u64);
    }

    /// Records one gated hit/miss instant for `key`.
    fn record_event(&self, what: &'static str, key: TopoKey) {
        pdac_telemetry::global().recorder().instant(
            0,
            "topocache",
            || format!("{what} epoch {}", key.epoch),
            || {
                let (kind, root) = match key.kind {
                    TopoKind::Bcast { root, .. } => ("bcast", root as u64),
                    TopoKind::AllgatherRing => ("allgather_ring", 0),
                };
                vec![("epoch", key.epoch.into()), ("kind", kind.into()), ("root", root.into())]
            },
        );
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TopoCacheStats {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        TopoCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            evictions: inner.evictions,
            invalidations: inner.invalidations,
        }
    }
}

impl Inner {
    /// Inserts `value`, evicting FIFO past capacity; returns the number of
    /// entries evicted (published by the caller, which owns the metrics).
    fn insert(&mut self, key: TopoKey, value: CachedTopo) -> u64 {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
        }
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let oldest = self.order.pop_front().expect("order tracks map");
            self.map.remove(&oldest);
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast_tree::build_bcast_tree;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};

    fn matrix() -> DistanceMatrix {
        let ig = machines::ig();
        let b = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
        DistanceMatrix::for_binding(&ig, &b)
    }

    const HIER: BcastTopology = BcastTopology::Hierarchical;

    #[test]
    fn hit_returns_same_allocation() {
        let cache = TopoCache::new();
        let dist = matrix();
        let (a, a_hit) = cache.tree(1, 0, HIER, || build_bcast_tree(&dist, 0));
        let (b, b_hit) = cache.tree(1, 0, HIER, || unreachable!("second lookup must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a_hit && b_hit, "the outcome reports miss then hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = TopoCache::new();
        let dist = matrix();
        cache.tree(1, 0, HIER, || build_bcast_tree(&dist, 0));
        cache.tree(1, 1, HIER, || build_bcast_tree(&dist, 1));
        cache.tree(2, 0, HIER, || build_bcast_tree(&dist, 0));
        cache.tree(1, 0, BcastTopology::Collapsed, || build_bcast_tree(&dist, 0));
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn invalidate_epoch_only_touches_that_epoch() {
        let cache = TopoCache::new();
        let dist = matrix();
        cache.tree(1, 0, HIER, || build_bcast_tree(&dist, 0));
        cache.tree(2, 0, HIER, || build_bcast_tree(&dist, 0));
        assert_eq!(cache.invalidate_epoch(1), 1);
        assert_eq!(cache.stats().entries, 1);
        // Epoch 2 still hits; epoch 1 rebuilds.
        cache.tree(2, 0, HIER, || unreachable!("epoch 2 survives invalidation"));
        cache.tree(1, 0, HIER, || build_bcast_tree(&dist, 0));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let cache = TopoCache::with_capacity(2);
        let dist = matrix();
        for root in 0..3 {
            cache.tree(1, root, HIER, || build_bcast_tree(&dist, root));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // Oldest (root 0) was evicted; root 2 still resident.
        cache.tree(1, 2, HIER, || unreachable!("newest entry resident"));
        cache.tree(1, 0, HIER, || build_bcast_tree(&dist, 0));
        assert_eq!(cache.stats().misses, 4);
    }
}
