//! The named-metrics registry.
//!
//! A registry is a flat namespace of [`Counter`]s and [`LogHistogram`]s
//! keyed by dotted names (`knem.copies`, `exec.op_ns.dist5`). Handles are
//! get-or-create and `Arc`-shared: resolve once, then every update is a
//! relaxed atomic — the same cost as the ad-hoc stat structs this registry
//! replaces. Hot paths cache handles instead of re-resolving names.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LogHistogram;
use crate::snapshot::RegistrySnapshot;

/// A shared counter cell. Clones point at the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter (not registered anywhere).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Arc<LogHistogram>>,
}

/// A namespace of counters and histograms. See the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created zeroed on first use. The returned
    /// handle stays valid (and keeps counting into this registry) for the
    /// registry's lifetime.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Look up first: only a name's first use allocates its key.
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Convenience: `counter(name).add(n)` without keeping the handle.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        RegistrySnapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }

    /// Zeroes every metric **in place** — outstanding handles keep
    /// pointing at the same (now zeroed) cells.
    pub fn reset(&self) {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for c in inner.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x").get(), 4);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let h = reg.histogram("h");
        c.add(7);
        h.record(100);
        reg.reset();
        assert_eq!(c.get(), 0, "outstanding handle sees the reset");
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(reg.counter("x").get(), 1, "handle still registered");
    }

    #[test]
    fn snapshot_lists_everything() {
        let reg = Registry::new();
        reg.add("b", 2);
        reg.add("a", 1);
        reg.histogram("lat").record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), vec!["a", "b"], "sorted by name");
        assert_eq!(snap.histograms["lat"].count, 1);
    }
}
