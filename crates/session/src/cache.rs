//! Offering-Table caching for the serving layer.
//!
//! The serving stack's determinism argument makes a rendered Offering
//! Table *addressable*: under the purity gate (model-backed forecasts,
//! no stale tier, no resilience — the same test batch parallelism
//! uses), a session's n-th solve is a pure function of
//! `(trip shape, solve index, config, forecast window)`. Two sessions
//! driving the same route with the same vehicle and departure produce
//! bit-identical solve sequences — so the table, *and the full
//! post-solve solver state*, computed by one session can be replayed
//! into another without running Algorithm 1 at all.
//!
//! One tier serves that reuse: a per-lane [`servecache::Lru`] (the L1)
//! behind one mutex, owned by a single [`crate::SessionService`].
//! Per-lane, so sharded lanes never contend on it; lanes are geographic
//! partitions of one process, so clones of a route stay in one lane
//! and there is no shared tier behind the L1.
//!
//! ## The key
//!
//! [`TableKey`] is `(trip_digest, stop_index, config_hash, window)`:
//!
//! * `trip_digest` hashes the trip's *shape* — vehicle, departure and
//!   route nodes but **not** the trip id — so fleet workloads where many
//!   drivers follow the same popular route (the Zipf skew the serve
//!   bench hammers) collapse onto shared entries;
//! * `stop_index` is the session's solve cursor. Solves are
//!   path-dependent (adapted solves reuse the private Dynamic Cache),
//!   so the index pins the *entire solve history*, making the cached
//!   post-solve [`ecocharge_core::SolverSnapshot`] exact;
//! * `config_hash` digests every [`EcoChargeConfig`] field (weights via
//!   [`ecocharge_core::RawWeights`], floats bit-cast, enums by name);
//! * `window` is the [`eis::forecast_window`] bucket of the solve
//!   instant: redundant for correctness (the itinerary pins the time)
//!   but it gives rollover invalidation a deterministic predicate —
//!   executing a [`crate::EventKind::Rollover`] evicts every entry of
//!   an older window from the L1 ([`TableCache::roll_window`]).
//!
//! Dynamic-Cache *adaptation* needs no invalidation: an
//! [`crate::EventKind::Adapt`] event is itself a solve, so the state it
//! leaves behind is captured by the next stop's snapshot under the next
//! `stop_index`.
//!
//! ## What a hit restores
//!
//! A [`SolveArtifact`] carries the outcome (table or no-offers) *and*
//! the absolute post-solve [`ecocharge_core::SolverSnapshot`] (Dynamic
//! Cache slot + counters + prune totals). A hit replays both, so
//! journal snapshots, `CacheImage`s and later *adapted* solves are
//! bit-identical to the uncached run — the identity tests sweep cache
//! on/off across threads × shards to prove it. Failed solves are never
//! cached (errors must re-observe the server).
//!
//! Hit/miss counters live in the cache (surfaced through
//! [`servecache::CacheMetrics`]), **not** in
//! [`crate::SessionStats`]: which concurrent session wins the insert
//! race is wall-clock dependent, and the stats struct is part of the
//! determinism contract.

use crate::scheduler::Event;
use ecocharge_core::{EcoChargeConfig, OfferingEntry, OfferingTable, RawWeights, SolverSnapshot};
use parking_lot::Mutex;
use servecache::{CacheMetrics, Fnv64, Lru, TierSnapshot};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trajgen::Trip;

/// The address of one rendered solve (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableKey {
    /// FNV-1a digest of the trip *shape* (vehicle, departure, route
    /// nodes — not the id).
    pub trip_digest: u64,
    /// The session's solve cursor at this stop — pins the whole solve
    /// history under path-dependent Dynamic Caching.
    pub stop_index: u32,
    /// Digest of the full [`EcoChargeConfig`].
    pub config_hash: u64,
    /// [`eis::forecast_window`] bucket of the solve instant, seconds.
    pub window: u64,
}

impl TableKey {
    /// The key of `event` for a session serving `trip` with the cursor
    /// at `stop_index`, under the pre-digested config.
    #[must_use]
    pub fn of(trip_digest: u64, stop_index: usize, config_hash: u64, event: &Event) -> Self {
        Self {
            trip_digest,
            stop_index: u32::try_from(stop_index).unwrap_or(u32::MAX),
            config_hash,
            window: eis::forecast_window(event.time).as_secs(),
        }
    }
}

/// Digest the trip's shape: vehicle, departure second and route nodes.
/// The trip *id* is deliberately excluded — sessions are keyed by trip
/// id, but two ids over the same shape solve identically, and that
/// collapse is the whole point of the table cache.
#[must_use]
pub fn trip_digest(trip: &Trip) -> u64 {
    let mut h = Fnv64::default();
    trip.vehicle.0.hash(&mut h);
    trip.depart.as_secs().hash(&mut h);
    for node in trip.route.nodes() {
        node.0.hash(&mut h);
    }
    h.finish()
}

/// Digest every field of the config. Exhaustive destructuring (no `..`)
/// so adding a field to [`EcoChargeConfig`] refuses to compile until
/// this digest learns about it — a silently unkeyed knob would alias
/// distinct solves.
#[must_use]
pub fn config_digest(config: &EcoChargeConfig) -> u64 {
    let EcoChargeConfig {
        k,
        radius_km,
        range_km,
        segment_km,
        weights,
        charge_window_h,
        quadtree_fraction,
        vehicle,
        degraded,
        threads,
        detour_backend,
        pruning,
    } = *config;
    let mut h = Fnv64::default();
    k.hash(&mut h);
    radius_km.to_bits().hash(&mut h);
    range_km.to_bits().hash(&mut h);
    segment_km.to_bits().hash(&mut h);
    let raw = RawWeights::from(weights);
    raw.w1.to_bits().hash(&mut h);
    raw.w2.to_bits().hash(&mut h);
    raw.w3.to_bits().hash(&mut h);
    charge_window_h.to_bits().hash(&mut h);
    quadtree_fraction.to_bits().hash(&mut h);
    match vehicle {
        None => 0u8.hash(&mut h),
        Some(v) => {
            1u8.hash(&mut h);
            v.id.0.hash(&mut h);
            v.battery_kwh.to_bits().hash(&mut h);
            v.soc.to_bits().hash(&mut h);
            v.max_ac_kw.to_bits().hash(&mut h);
            v.max_dc_kw.to_bits().hash(&mut h);
            v.reserve_soc.to_bits().hash(&mut h);
        }
    }
    degraded.fallback_enabled.hash(&mut h);
    for iv in [
        degraded.sun_fallback,
        degraded.wind_fallback,
        degraded.availability_fallback,
        degraded.traffic_fallback,
    ] {
        iv.lo().to_bits().hash(&mut h);
        iv.hi().to_bits().hash(&mut h);
    }
    threads.hash(&mut h);
    detour_backend.name().hash(&mut h);
    pruning.name().hash(&mut h);
    h.finish()
}

/// What one cached solve produced — the [`crate::SolveOutcome`] shapes
/// a solve event can take, minus failures (never cached).
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactOutcome {
    /// A table was rendered.
    Table(OfferingTable),
    /// No chargers in range at this stop.
    NoOffers,
}

/// One cached solve: the outcome plus the absolute post-solve solver
/// state a hit must replay (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveArtifact {
    /// Table or no-offers.
    pub outcome: ArtifactOutcome,
    /// The solver's state *after* this solve, restored verbatim on hit.
    pub post: SolverSnapshot,
}

impl SolveArtifact {
    /// Deterministic byte estimate for budget accounting: key + struct
    /// + the table's entry payload + a flat allowance for the snapshot's
    ///   cached components (which live behind `Arc`s of varying length —
    ///   an estimate keyed on the table is stable across runs, which is
    ///   what a deterministic eviction order needs).
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        const SNAPSHOT_SLOP: usize = 256;
        let table_entries = match &self.outcome {
            ArtifactOutcome::Table(t) => t.len(),
            ArtifactOutcome::NoOffers => 0,
        };
        std::mem::size_of::<TableKey>()
            + std::mem::size_of::<Self>()
            + table_entries * std::mem::size_of::<OfferingEntry>()
            + SNAPSHOT_SLOP
    }
}

/// Capacity knobs for the per-lane L1. `Default` is **disabled**: table
/// caching is opt-in because it only applies under the purity gate and
/// the serve bench is its proving ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCacheConfig {
    /// Master switch.
    pub enabled: bool,
    /// L1 (per-lane) entry budget.
    pub l1_entries: usize,
    /// L1 (per-lane) byte budget (estimated bytes, see
    /// [`SolveArtifact::weight_bytes`]).
    pub l1_bytes: usize,
}

impl Default for TableCacheConfig {
    fn default() -> Self {
        Self { enabled: false, l1_entries: 1 << 14, l1_bytes: 64 << 20 }
    }
}

impl TableCacheConfig {
    /// The default knobs with the master switch on.
    #[must_use]
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// One lane's table cache: a private L1. Interior mutability because
/// batch workers probe it through a shared reference.
#[derive(Debug)]
pub struct TableCache {
    l1: Mutex<Lru<TableKey, Arc<SolveArtifact>>>,
    /// Highest forecast window (seconds) this lane has swept — gates
    /// [`TableCache::roll_window`] to one sweep per window per lane.
    swept: AtomicU64,
}

impl TableCache {
    /// A lane cache under `config`.
    #[must_use]
    pub fn new(config: &TableCacheConfig) -> Self {
        Self {
            l1: Mutex::new(Lru::new(config.l1_entries, config.l1_bytes)),
            swept: AtomicU64::new(0),
        }
    }

    /// Probe the L1.
    #[must_use]
    pub fn lookup(&self, key: &TableKey) -> Option<Arc<SolveArtifact>> {
        self.l1.lock().get(key).map(Arc::clone)
    }

    /// Publish a freshly computed artifact.
    pub fn insert(&self, key: TableKey, artifact: Arc<SolveArtifact>) {
        let bytes = artifact.weight_bytes();
        self.l1.lock().insert(key, artifact, bytes);
    }

    /// Forecast-window rollover invalidation: drop every entry of a
    /// window before `window_secs`. Keys pin their window, so stale
    /// entries could never be *wrongly* hit — eviction reclaims their
    /// budget the moment this lane's virtual clock has provably passed
    /// them. Guarded to one sweep per window per lane (rollover events
    /// arrive once per session; sweeping on each would rescan the L1
    /// thousands of times per window). `fetch_max` makes the guard
    /// race-free: of concurrent rollers, every one that raises the
    /// high-water mark sweeps, so the highest window is never skipped.
    pub fn roll_window(&self, window_secs: u64) {
        if self.swept.fetch_max(window_secs, Ordering::Relaxed) < window_secs {
            self.l1.lock().evict_where(|k| k.window < window_secs);
        }
    }

    /// The L1 counters.
    #[must_use]
    pub fn l1_snapshot(&self) -> TierSnapshot {
        self.l1.lock().snapshot()
    }

    /// This lane's metrics (`session.l1`).
    #[must_use]
    pub fn metrics(&self) -> CacheMetrics {
        let mut m = CacheMetrics::default();
        m.record("session.l1", self.l1_snapshot());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_types::{SimTime, TripId, VehicleId};
    use ecocharge_core::Weights;

    fn fixture_trip(id: u32) -> Trip {
        let graph = roadnet::urban_grid(&roadnet::UrbanGridParams::default());
        let trips = trajgen::generate_trips(
            &graph,
            &trajgen::BrinkhoffParams { trips: 1, ..Default::default() },
        );
        let mut trip = trips[0].clone();
        trip.id = TripId(id);
        trip
    }

    #[test]
    fn trip_digest_ignores_id_but_sees_shape() {
        let a = fixture_trip(1);
        let b = fixture_trip(2);
        assert_eq!(trip_digest(&a), trip_digest(&b), "clones of one route share a digest");
        let mut c = a.clone();
        c.vehicle = VehicleId(999);
        assert_ne!(trip_digest(&a), trip_digest(&c), "vehicle is part of the shape");
        let mut d = a.clone();
        d.depart = SimTime::from_secs(a.depart.as_secs() + 1);
        assert_ne!(trip_digest(&a), trip_digest(&d), "departure is part of the shape");
    }

    #[test]
    fn config_digest_sees_every_knob_it_claims_to() {
        let base = EcoChargeConfig::default();
        let same = EcoChargeConfig::default();
        assert_eq!(config_digest(&base), config_digest(&same));
        let k = EcoChargeConfig { k: base.k + 1, ..base };
        assert_ne!(config_digest(&base), config_digest(&k));
        let w = EcoChargeConfig { weights: Weights::new(0.9, 0.05, 0.05), ..base };
        assert_ne!(config_digest(&base), config_digest(&w));
        let p = EcoChargeConfig { pruning: ecocharge_core::PruningMode::Off, ..base };
        assert_ne!(config_digest(&base), config_digest(&p));
        let d = EcoChargeConfig { detour_backend: roadnet::DetourBackend::Dijkstra, ..base };
        assert_ne!(config_digest(&base), config_digest(&d));
    }

    #[test]
    fn roll_window_evicts_only_older_windows() {
        let config = TableCacheConfig::enabled();
        let cache = TableCache::new(&config);
        let artifact = Arc::new(SolveArtifact {
            outcome: ArtifactOutcome::NoOffers,
            post: SolverSnapshot::default(),
        });
        for window in [0u64, 900, 1800] {
            let key = TableKey { trip_digest: 1, stop_index: 0, config_hash: 1, window };
            cache.insert(key, Arc::clone(&artifact));
        }
        cache.roll_window(1800);
        let old = TableKey { trip_digest: 1, stop_index: 0, config_hash: 1, window: 900 };
        let live = TableKey { trip_digest: 1, stop_index: 0, config_hash: 1, window: 1800 };
        assert!(cache.lookup(&old).is_none());
        assert!(cache.lookup(&live).is_some());
        assert_eq!(cache.l1_snapshot().evictions, 2);
    }

    #[test]
    fn concurrent_rolls_never_skip_the_highest_window() {
        use std::sync::atomic::AtomicUsize;
        const WORKERS: u64 = 4;
        const ROUNDS: u64 = 20_000;
        let artifact =
            SolveArtifact { outcome: ArtifactOutcome::NoOffers, post: SolverSnapshot::default() };
        let key = |window: u64| TableKey {
            trip_digest: 1,
            stop_index: 0,
            config_hash: 1,
            window: window * 900,
        };
        // Round r inserts windows 4r..4r+3, then four batch workers roll
        // one window each, interleaved, at once. Whoever arrives last at
        // the round's gate checks the previous round, inserts, and opens
        // the gate, then rolls straight away while the others spin, so
        // rolls overlap as closely as the host's cores allow. A guard
        // that lets a lower window's update land between a higher roll's
        // read and its write leaves that higher window unswept.
        let cache = TableCache::new(&TableCacheConfig::enabled());
        let (arrived, opened) = (AtomicUsize::new(0), AtomicU64::new(0));
        let survivors = Mutex::new(Vec::new());
        let gate = |round: u64| {
            let last = arrived.fetch_add(1, Ordering::AcqRel) + 1 == (round * WORKERS) as usize;
            if last {
                if round > 1 {
                    let top = round * WORKERS - 1;
                    let entries = cache.l1_snapshot().entries;
                    if entries != 1 || cache.lookup(&key(top)).is_none() {
                        survivors.lock().push((round - 1, entries));
                    }
                }
                for window in round * WORKERS..(round + 1) * WORKERS {
                    cache.insert(key(window), Arc::new(artifact.clone()));
                }
                opened.store(round, Ordering::Release);
            }
            let mut spins = 0u32;
            while opened.load(Ordering::Acquire) < round {
                spins += 1;
                if spins.is_multiple_of(256) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        };
        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let gate = &gate;
                let cache = &cache;
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        gate(round);
                        cache.roll_window(key(round * WORKERS + worker).window);
                    }
                });
            }
        });
        let survivors = survivors.into_inner();
        assert!(
            survivors.is_empty(),
            "(round, entries) where an older window survived: {survivors:?}"
        );
        assert_eq!(cache.l1_snapshot().entries, 1);
    }

    #[test]
    fn default_config_is_disabled() {
        assert!(!TableCacheConfig::default().enabled);
        assert!(TableCacheConfig::enabled().enabled);
    }
}
