//! The unified cache-accounting surface.
//!
//! Every cache tier in the serving stack — the information server's
//! fresh/LKG TTL maps and the per-lane Offering-Table L1s — reports the
//! same six counters through a [`TierSnapshot`], and a
//! [`CacheMetrics`] registry collects the named snapshots for one
//! service (or one whole sharded front). This replaces the bespoke
//! `(hits, misses)` tuples each cache used to grow: a bench row or a
//! `repro` JSON blob can carry the entire cache hierarchy's hit-rate
//! provenance as one structure.

/// Point-in-time counters for one cache tier.
///
/// Counters are cumulative since the tier's construction; `entries` and
/// `bytes` are the current occupancy. Snapshots of disjoint tiers (or
/// of the same logical tier across shards) combine with
/// [`TierSnapshot::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Lookups answered from the tier.
    pub hits: u64,
    /// Lookups the tier could not answer.
    pub misses: u64,
    /// Entries removed to stay under budget (expiry sweeps count too).
    pub evictions: u64,
    /// Entries written (inserts and overwrites).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Estimated resident bytes.
    pub bytes: u64,
}

impl TierSnapshot {
    /// Fraction of lookups answered by the tier, `0.0` when idle.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Combine with another snapshot (summing counters and occupancy) —
    /// used to fold per-shard snapshots of one logical tier, or to total
    /// a whole registry. Saturating, like every long-run counter here.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            evictions: self.evictions.saturating_add(other.evictions),
            insertions: self.insertions.saturating_add(other.insertions),
            entries: self.entries.saturating_add(other.entries),
            bytes: self.bytes.saturating_add(other.bytes),
        }
    }
}

/// A named collection of tier snapshots — the cache hierarchy of one
/// service at one instant.
#[derive(Debug, Clone, Default)]
pub struct CacheMetrics {
    tiers: Vec<(String, TierSnapshot)>,
}

impl CacheMetrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or merge into) the snapshot for `tier`. Recording the
    /// same name twice merges — that is how per-shard services fold
    /// their lanes' `table.l1` snapshots into one logical row.
    pub fn record(&mut self, tier: &str, snap: TierSnapshot) {
        match self.tiers.iter_mut().find(|(name, _)| name == tier) {
            Some((_, existing)) => *existing = existing.merge(snap),
            None => self.tiers.push((tier.to_string(), snap)),
        }
    }

    /// All tiers, in recording order.
    #[must_use]
    pub fn tiers(&self) -> &[(String, TierSnapshot)] {
        &self.tiers
    }

    /// The snapshot recorded under `tier`, if any.
    #[must_use]
    pub fn get(&self, tier: &str) -> Option<TierSnapshot> {
        self.tiers.iter().find(|(name, _)| name == tier).map(|(_, s)| *s)
    }

    /// Sum of every tier.
    #[must_use]
    pub fn total(&self) -> TierSnapshot {
        self.tiers.iter().fold(TierSnapshot::default(), |acc, (_, s)| acc.merge(*s))
    }

    /// Fold another registry into this one, tier by tier.
    pub fn absorb(&mut self, other: &CacheMetrics) {
        for (name, snap) in other.tiers() {
            self.record(name, *snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_idle_tier() {
        assert_eq!(TierSnapshot::default().hit_rate(), 0.0);
        let s = TierSnapshot { hits: 3, misses: 1, ..Default::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates() {
        let a = TierSnapshot { hits: u64::MAX, misses: 1, ..Default::default() };
        let b = TierSnapshot { hits: 5, misses: 2, ..Default::default() };
        let m = a.merge(b);
        assert_eq!(m.hits, u64::MAX);
        assert_eq!(m.misses, 3);
    }

    #[test]
    fn registry_records_and_merges_by_name() {
        let mut m = CacheMetrics::new();
        m.record("l1", TierSnapshot { hits: 1, entries: 2, ..Default::default() });
        m.record("l2", TierSnapshot { hits: 10, ..Default::default() });
        m.record("l1", TierSnapshot { hits: 4, entries: 3, ..Default::default() });
        assert_eq!(m.tiers().len(), 2);
        assert_eq!(m.get("l1").unwrap().hits, 5);
        assert_eq!(m.get("l1").unwrap().entries, 5);
        assert_eq!(m.total().hits, 15);
        assert_eq!(m.get("absent"), None);

        let mut other = CacheMetrics::new();
        other.record("l2", TierSnapshot { misses: 7, ..Default::default() });
        other.record("ttl", TierSnapshot { hits: 2, ..Default::default() });
        m.absorb(&other);
        assert_eq!(m.get("l2").unwrap().misses, 7);
        assert_eq!(m.tiers().len(), 3);
    }
}
