//! The `repro serve` series — the per-lane Offering-Table cache under
//! closed-loop Zipf load.
//!
//! Deterministic virtual clients hammer one sharded serving front
//! (2 shards × 2 front threads, each lane with its own L1 table cache).
//! Each client's trip is drawn from a catalog of route shapes by a
//! Zipf(s) rank distribution — s = 0 is uniform (essentially every
//! driver on their own route, no reuse for the cache to find), s = 1.2
//! concentrates the fleet onto a few popular corridors, which is what
//! urban charging demand actually looks like.
//! Every (skew × session-count) cell is served twice, cache off then
//! cache on, and reports:
//!
//! * sustained throughput (flat-equivalent events/s over the serving
//!   wall clock) for both runs and their ratio;
//! * per-event latency percentiles (p50/p99/p999) of the cache-on run;
//! * the L1 hit rate from the unified [`servecache::CacheMetrics`]
//!   registry;
//! * **identity** — the cache-on run's merged event log and every
//!   session's solve record, bit-compared against the cache-off run.
//!
//! The gates feed [`serve_gate_failures`] (the `repro` binary exits
//! non-zero): every cell must be bit-identical, and at s = 1.2 the L1
//! must hit at all and the cached front must sustain ≥
//! [`SPEEDUP_GATE`]× the uncached events/s once the fleet is ≥
//! [`GATE_MIN_SESSIONS`] sessions (smaller fleets — the CI smoke runs
//! one at 1k — must merely not lose throughput). A
//! separate identity matrix re-serves the smallest high-skew cell across
//! shard × thread counts against an *unsharded, uncached* reference, so
//! the cache is also pinned against the flat serving path, not just
//! against its own topology.
//!
//! Written as `BENCH_serve.json` with the full metrics provenance block:
//! every cache tier's counters (the table L1 and the InfoServer's
//! forecast tiers), the cross-session forecast-share ledger, and the
//! summed lazy-pruning counters of the final cache-on run.

use crate::figures::HarnessConfig;
use crate::summary::percentile;
use chargers::{synth_fleet, ChargerFleet, FleetParams};
use ec_types::rng::SplitMix64;
use ec_types::{SimDuration, SimTime, TripId};
use ecocharge_core::{EcoChargeConfig, PruneStats, QueryCtx};
use ecocharge_session::{
    ServiceConfig, SessionService, ShardConfig, ShardEnv, ShardedService, TableCacheConfig,
};
use eis::{InfoServer, SimProviders};
use roadnet::{urban_grid, RoadGraph, UrbanGridParams};
use servecache::{CacheMetrics, TierSnapshot};
use std::io::Write;
use std::path::Path;
use trajgen::{generate_trips, BrinkhoffParams, Trip};

/// At s = 1.2 with ≥ [`GATE_MIN_SESSIONS`] sessions, the cached front
/// must sustain at least this multiple of the uncached events/s.
pub const SPEEDUP_GATE: f64 = 1.5;

/// The 1.5× gate applies from this fleet size up; smaller high-skew
/// cells (the CI smoke) must only not lose throughput (≥ 1.0×).
pub const GATE_MIN_SESSIONS: usize = 10_000;

/// Skew at and above which the speedup gates judge a row.
pub const GATE_SKEW: f64 = 1.2;

/// Shards in the serving front — two, so route shapes split across
/// lanes and sessions hand off between them mid-trip.
const FRONT_SHARDS: usize = 2;
/// Front threads — two, so the lanes actually run concurrently.
const FRONT_THREADS: usize = 2;
/// Quadtree depth for the urban-grid world (matches the shard series).
const TILE_DEPTH: u32 = 3;

/// One cell of the serve sweep: a (sessions × skew) workload served
/// twice, cache off then cache on.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// World label.
    pub world: String,
    /// Concurrent sessions registered.
    pub sessions: usize,
    /// Zipf skew of the shape distribution (0 = uniform).
    pub skew: f64,
    /// Distinct route shapes the clients actually sampled.
    pub shapes: usize,
    /// Flat-equivalent events executed (hand-off markers discounted).
    pub events: u64,
    /// Cache-off sustained throughput, events/s.
    pub off_events_per_s: f64,
    /// Cache-on sustained throughput, events/s.
    pub on_events_per_s: f64,
    /// `on_events_per_s / off_events_per_s`.
    pub speedup: f64,
    /// Median per-event latency of the cache-on run, µs.
    pub p50_us: f64,
    /// 99th-percentile per-event latency of the cache-on run, µs.
    pub p99_us: f64,
    /// 99.9th-percentile per-event latency of the cache-on run, µs.
    pub p999_us: f64,
    /// Table-cache L1 hit rate (all lanes merged).
    pub l1_hit_rate: f64,
    /// Cache-on event log and every session's solves equal the
    /// cache-off run bit-for-bit.
    pub identical: bool,
}

/// One cell of the identity matrix: the smallest high-skew workload
/// re-served cached at `shards × threads`, against the unsharded
/// uncached reference.
#[derive(Debug, Clone)]
pub struct IdentityCell {
    pub shards: usize,
    pub threads: usize,
    pub identical: bool,
}

/// The metrics provenance block of the final (largest, most skewed)
/// cache-on run — the unified registry view the serving layer exposes.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Every cache tier's counters: `session.l1` and the InfoServer
    /// forecast tiers.
    pub tiers: Vec<(String, TierSnapshot)>,
    /// Cross-session forecast-share ledger counters.
    pub forecast_shared_hits: u64,
    pub forecast_self_hits: u64,
    pub forecast_untagged_hits: u64,
    pub forecast_misses: u64,
    /// Lazy filter-refine counters summed over every session's solver.
    pub prune: PruneStats,
}

/// The full result of a serve sweep.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    pub rows: Vec<ServeRow>,
    pub identity: Vec<IdentityCell>,
    pub metrics: ServeMetrics,
}

/// Cumulative Zipf(s) weights over `catalog` ranks: rank r has weight
/// `1/(r+1)^s`, so s = 0 is uniform and larger s concentrates mass on
/// the low ranks.
fn zipf_cumulative(catalog: usize, skew: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(catalog);
    let mut total = 0.0;
    for r in 0..catalog {
        total += 1.0 / ((r + 1) as f64).powf(skew);
        cum.push(total);
    }
    cum
}

/// `sessions` deterministic virtual clients: client `i` samples a route
/// shape by Zipf rank (inverse CDF over `cum`) and drives it under its
/// own fresh trip id. Returns the client trips and the count of
/// distinct shapes sampled.
fn zipf_clients(shapes: &[Trip], cum: &[f64], sessions: usize, seed: u64) -> (Vec<Trip>, usize) {
    let total = cum.last().copied().unwrap_or(1.0);
    let mut sampled = vec![false; shapes.len()];
    let mut clients = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let u = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_f64()
            * total;
        let rank = cum.partition_point(|&c| c < u).min(shapes.len() - 1);
        sampled[rank] = true;
        let mut trip = shapes[rank].clone();
        trip.id = TripId(i as u32);
        clients.push(trip);
    }
    (clients, sampled.iter().filter(|&&s| s).count())
}

/// The sweep's world: the small urban grid (solves are cheap enough to
/// drive 50k-session cache-off rows), with a shape catalog big enough
/// that uniform sampling finds essentially no reuse.
struct World {
    name: String,
    graph: RoadGraph,
    fleet: ChargerFleet,
    sims: SimProviders,
    shapes: Vec<Trip>,
}

impl World {
    fn build(seed: u64, catalog: usize) -> Self {
        let graph = urban_grid(&UrbanGridParams::default());
        let fleet = synth_fleet(&graph, &FleetParams { count: 120, seed, ..Default::default() });
        // Short trips bound events/session so the uncached 50k row stays
        // tractable; common departure keeps popular shapes colliding in
        // the same forecast windows, as synchronized commutes do.
        let mut shapes = generate_trips(
            &graph,
            &BrinkhoffParams {
                trips: catalog.max(1),
                min_trip_m: 6_000.0,
                max_trip_m: 12_000.0,
                seed,
                ..BrinkhoffParams::default()
            },
        );
        for t in &mut shapes {
            t.depart = SimTime::from_secs(600);
        }
        Self {
            name: "urban-grid 40x32".to_string(),
            graph,
            fleet,
            sims: SimProviders::new(seed),
            shapes,
        }
    }
}

fn service_config(sessions: usize, cached: bool) -> ServiceConfig {
    let table_cache =
        if cached { TableCacheConfig::enabled() } else { TableCacheConfig::default() };
    ServiceConfig {
        max_sessions: sessions + 1,
        events_per_tick: sessions.max(64),
        // Segment re-ranks + rollovers only: the adaptation stream is
        // the `sessions` series' subject, not this one's.
        adapt_every: SimDuration::ZERO,
        table_cache,
        ..ServiceConfig::default()
    }
}

struct CellRun<'a> {
    front: ShardedService<'a>,
    serve_s: f64,
}

fn serve_cell<'a>(
    world: &'a World,
    env: &'a ShardEnv,
    config: EcoChargeConfig,
    clients: &[Trip],
    shards: usize,
    threads: usize,
    cached: bool,
) -> CellRun<'a> {
    let mut front = ShardedService::new(
        env,
        &world.graph,
        &world.fleet,
        &world.sims,
        config,
        ShardConfig {
            shards,
            tile_depth: TILE_DEPTH,
            threads,
            service: service_config(clients.len(), cached),
        },
    );
    for trip in clients {
        front.register(trip).expect("bench trips admit cleanly");
    }
    let started = std::time::Instant::now();
    front.run_to_completion().expect("bench serving");
    let serve_s = started.elapsed().as_secs_f64();
    CellRun { front, serve_s }
}

fn bit_identical(on: &ShardedService<'_>, off: &ShardedService<'_>) -> bool {
    let a = on.sessions();
    let b = off.sessions();
    on.event_log() == off.event_log()
        && a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| x.id == y.id && x.solves == y.solves)
}

fn capture_metrics(run: &CellRun<'_>) -> ServeMetrics {
    let registry: CacheMetrics = run.front.cache_metrics();
    let stats = run.front.stats();
    let mut prune = PruneStats::default();
    for s in run.front.sessions() {
        prune.accumulate(s.solver().prune_stats());
    }
    ServeMetrics {
        tiers: registry.tiers().to_vec(),
        forecast_shared_hits: stats.forecast_shared_hits,
        forecast_self_hits: stats.forecast_self_hits,
        forecast_untagged_hits: stats.forecast_untagged_hits,
        forecast_misses: stats.forecast_misses,
        prune,
    }
}

/// Run the Zipf load-hammering sweep: every skew × session-count cell
/// served cache-off then cache-on through the 2-shard front, plus the
/// identity matrix on the smallest high-skew cell.
#[must_use]
pub fn run_serve(harness: &HarnessConfig, session_counts: &[usize], skews: &[f64]) -> ServeReport {
    let max_sessions = session_counts.iter().copied().max().unwrap_or(0);
    let world = World::build(harness.seed, max_sessions);
    let config =
        EcoChargeConfig { detour_backend: harness.detour_backend, ..EcoChargeConfig::default() };

    let mut report = ServeReport::default();
    for &sessions in session_counts {
        // Catalog = fleet size: one shape per Zipf rank, so s = 0 gives
        // each driver (almost always) their own route.
        let shapes = &world.shapes[..sessions.min(world.shapes.len())];
        for &skew in skews {
            let cum = zipf_cumulative(shapes.len(), skew);
            let (clients, distinct) =
                zipf_clients(shapes, &cum, sessions, harness.seed ^ 0x5EED_CAFE);

            let env_off = ShardEnv::new(&world.sims, FRONT_SHARDS);
            let off =
                serve_cell(&world, &env_off, config, &clients, FRONT_SHARDS, FRONT_THREADS, false);
            let env_on = ShardEnv::new(&world.sims, FRONT_SHARDS);
            let on =
                serve_cell(&world, &env_on, config, &clients, FRONT_SHARDS, FRONT_THREADS, true);

            let stats = on.front.stats();
            let events = stats.events_executed - stats.handoffs;
            let off_eps = events as f64 / off.serve_s.max(1e-9);
            let on_eps = events as f64 / on.serve_s.max(1e-9);
            let mut latencies = on.front.event_latencies_us();
            latencies.sort_by(f64::total_cmp);
            let l1 = on.front.cache_metrics().get("session.l1").unwrap_or_default();
            report.rows.push(ServeRow {
                world: world.name.clone(),
                sessions,
                skew,
                shapes: distinct,
                events,
                off_events_per_s: off_eps,
                on_events_per_s: on_eps,
                speedup: on_eps / off_eps.max(1e-9),
                p50_us: percentile(&latencies, 0.50),
                p99_us: percentile(&latencies, 0.99),
                p999_us: percentile(&latencies, 0.999),
                l1_hit_rate: l1.hit_rate(),
                identical: bit_identical(&on.front, &off.front),
            });
            report.metrics = capture_metrics(&on);
        }
    }

    // Identity matrix: the smallest, most skewed cell re-served cached
    // across shard × thread counts against the unsharded uncached path.
    let Some(&sessions) = session_counts.iter().min() else { return report };
    let Some(skew) = skews.iter().copied().reduce(f64::max) else { return report };
    let shapes = &world.shapes[..sessions.min(world.shapes.len())];
    let cum = zipf_cumulative(shapes.len(), skew);
    let (clients, _) = zipf_clients(shapes, &cum, sessions, harness.seed ^ 0x5EED_CAFE);

    let server = InfoServer::from_sims(world.sims.clone());
    let ctx = QueryCtx::new(&world.graph, &world.fleet, &server, &world.sims, config);
    let mut flat = SessionService::new(service_config(clients.len(), false));
    for trip in &clients {
        flat.register(&ctx, trip).expect("bench trips admit cleanly");
    }
    flat.run_to_completion(&ctx).expect("bench serving");
    let flat_log = flat.event_log();
    let flat_sessions: Vec<_> = flat.sessions().collect();

    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let env = ShardEnv::new(&world.sims, shards);
            let run = serve_cell(&world, &env, config, &clients, shards, threads, true);
            let sharded = run.front.sessions();
            let identical = run.front.event_log() == flat_log
                && sharded.len() == flat_sessions.len()
                && sharded
                    .iter()
                    .zip(&flat_sessions)
                    .all(|(a, b)| a.id == b.id && a.solves == b.solves);
            report.identity.push(IdentityCell { shards, threads, identical });
        }
    }
    report
}

/// Every gated claim a finished sweep violates — empty means pass.
#[must_use]
pub fn serve_gate_failures(report: &ServeReport) -> Vec<String> {
    let mut failures = Vec::new();
    for r in &report.rows {
        if !r.identical {
            failures.push(format!(
                "sessions={} skew={}: cached tables diverged from the uncached run",
                r.sessions, r.skew
            ));
        }
        if r.skew >= GATE_SKEW {
            if r.l1_hit_rate <= 0.0 {
                failures.push(format!(
                    "sessions={} skew={}: high-skew load never hit the L1 table cache",
                    r.sessions, r.skew
                ));
            }
            let gate = if r.sessions >= GATE_MIN_SESSIONS { SPEEDUP_GATE } else { 1.0 };
            if r.speedup < gate {
                failures.push(format!(
                    "sessions={} skew={}: cache-on sustains only {:.2}x the cache-off \
                     events/s (gate {gate}x)",
                    r.sessions, r.skew, r.speedup
                ));
            }
        }
    }
    for c in &report.identity {
        if !c.identical {
            failures.push(format!(
                "identity matrix shards={} threads={}: cached tables diverged from the \
                 unsharded uncached run",
                c.shards, c.threads
            ));
        }
    }
    failures
}

/// Write the sweep as `BENCH_serve.json`, including the unified cache
/// metrics registry, the forecast-share ledger and the summed pruning
/// counters of the final cache-on run.
pub fn write_serve_json(path: &Path, report: &ServeReport) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"series\": \"serve\",")?;
    writeln!(f, "  \"world\": \"{}\",", report.rows.first().map_or("", |r| r.world.as_str()))?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in report.rows.iter().enumerate() {
        let sep = if i + 1 < report.rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"sessions\": {}, \"skew\": {:.1}, \"shapes\": {}, \"events\": {}, \
             \"off_events_per_s\": {:.1}, \"on_events_per_s\": {:.1}, \"speedup\": {:.4}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
             \"l1_hit_rate\": {:.4}, \"identical\": {}}}{sep}",
            r.sessions,
            r.skew,
            r.shapes,
            r.events,
            r.off_events_per_s,
            r.on_events_per_s,
            r.speedup,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.l1_hit_rate,
            r.identical
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"identity_matrix\": [")?;
    for (i, c) in report.identity.iter().enumerate() {
        let sep = if i + 1 < report.identity.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"shards\": {}, \"threads\": {}, \"identical\": {}}}{sep}",
            c.shards, c.threads, c.identical
        )?;
    }
    writeln!(f, "  ],")?;
    let m = &report.metrics;
    writeln!(f, "  \"cache_metrics\": {{")?;
    for (i, (name, t)) in m.tiers.iter().enumerate() {
        let sep = if i + 1 < m.tiers.len() { "," } else { "" };
        writeln!(
            f,
            "    \"{name}\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"insertions\": {}, \"entries\": {}, \"bytes\": {}}}{sep}",
            t.hits, t.misses, t.evictions, t.insertions, t.entries, t.bytes
        )?;
    }
    writeln!(f, "  }},")?;
    writeln!(
        f,
        "  \"forecast_share\": {{\"shared_hits\": {}, \"self_hits\": {}, \
         \"untagged_hits\": {}, \"misses\": {}}},",
        m.forecast_shared_hits, m.forecast_self_hits, m.forecast_untagged_hits, m.forecast_misses
    )?;
    writeln!(
        f,
        "  \"prune\": {{\"pool\": {}, \"exact_evals\": {}, \"pruned\": {}, \
         \"streamed_out\": {}}}",
        m.prune.pool, m.prune.exact_evals, m.prune.pruned, m.prune.streamed_out
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampling_is_deterministic_and_skewed() {
        let cum = zipf_cumulative(100, 1.2);
        assert_eq!(cum.len(), 100);
        assert!(cum.windows(2).all(|w| w[1] > w[0]), "cumulative weights must increase");
        // Rank 0 carries more mass than ranks 50..100 combined at s=1.2.
        let head = cum[0];
        let tail = cum[99] - cum[49];
        assert!(head > tail, "skew must concentrate on the head: {head} vs {tail}");

        // Uniform skew spreads the sampled mass wide; heavy skew narrows it.
        let graph = urban_grid(&UrbanGridParams::default());
        let shapes =
            generate_trips(&graph, &BrinkhoffParams { trips: 200, ..BrinkhoffParams::default() });
        let uni = zipf_cumulative(shapes.len(), 0.0);
        let (clients_a, distinct_uni) = zipf_clients(&shapes, &uni, 200, 42);
        let (clients_b, _) = zipf_clients(&shapes, &uni, 200, 42);
        assert_eq!(
            clients_a.iter().map(|t| t.route.nodes().to_vec()).collect::<Vec<_>>(),
            clients_b.iter().map(|t| t.route.nodes().to_vec()).collect::<Vec<_>>(),
            "same seed must sample the same clients"
        );
        let hot = zipf_cumulative(shapes.len(), 1.2);
        let (_, distinct_hot) = zipf_clients(&shapes, &hot, 200, 42);
        assert!(
            distinct_hot < distinct_uni,
            "skew must narrow the sampled catalog: {distinct_hot} vs {distinct_uni}"
        );
        // Client ids are fresh per session even when routes repeat.
        let ids: std::collections::BTreeSet<u32> = clients_a.iter().map(|t| t.id.0).collect();
        assert_eq!(ids.len(), clients_a.len());
    }

    #[test]
    fn tiny_sweep_is_identical_and_caches_under_skew() {
        let harness = HarnessConfig { seed: 7, ..HarnessConfig::default() };
        let report = run_serve(&harness, &[48], &[0.0, 1.2]);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.identical), "{:?}", report.rows);
        assert!(report.rows.iter().all(|r| r.events > 0));
        let hot = &report.rows[1];
        assert!(hot.skew >= 1.2);
        assert!(hot.l1_hit_rate > 0.0, "high skew must produce cache hits: {hot:?}");
        let uni = &report.rows[0];
        assert!(
            uni.shapes > hot.shapes,
            "uniform sampling must touch more shapes: {} vs {}",
            uni.shapes,
            hot.shapes
        );
        assert_eq!(report.identity.len(), 6);
        assert!(report.identity.iter().all(|c| c.identical), "{:?}", report.identity);
        assert!(
            report.metrics.tiers.iter().any(|(n, _)| n == "session.l1"),
            "provenance block must list the table tiers: {:?}",
            report.metrics.tiers
        );
        assert!(report.metrics.prune.pool > 0, "prune counters must be summed");
        // The tiny fleet is below GATE_MIN_SESSIONS, so only identity
        // and hit-rate findings could fire — and none should.
        let failures = serve_gate_failures(&report);
        assert!(
            failures.iter().all(|f| f.contains("only")),
            "unexpected non-throughput finding: {failures:?}"
        );
    }

    fn row(sessions: usize, skew: f64, speedup: f64, hit: f64) -> ServeRow {
        ServeRow {
            world: "test".into(),
            sessions,
            skew,
            shapes: sessions / 2,
            events: 1000,
            off_events_per_s: 100.0,
            on_events_per_s: 100.0 * speedup,
            speedup,
            p50_us: 50.0,
            p99_us: 400.0,
            p999_us: 900.0,
            l1_hit_rate: hit,
            identical: true,
        }
    }

    #[test]
    fn gates_catch_divergence_slow_cache_and_dead_cache() {
        // A clean sweep passes: big skewed row fast, uniform row slow is fine.
        let clean = ServeReport {
            rows: vec![row(50_000, 0.0, 0.9, 0.0), row(50_000, 1.2, 2.0, 0.5)],
            identity: vec![IdentityCell { shards: 2, threads: 4, identical: true }],
            metrics: ServeMetrics::default(),
        };
        assert!(serve_gate_failures(&clean).is_empty());

        // Big high-skew row below 1.5x: the throughput gate fires.
        let slow = ServeReport { rows: vec![row(50_000, 1.2, 1.2, 0.5)], ..ServeReport::default() };
        let f = serve_gate_failures(&slow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("1.20x"), "{f:?}");

        // Small high-skew row may be slow-ish but not a regression.
        let smoke = ServeReport { rows: vec![row(1_000, 1.2, 0.9, 0.5)], ..Default::default() };
        assert_eq!(serve_gate_failures(&smoke).len(), 1);
        let smoke_ok = ServeReport { rows: vec![row(1_000, 1.2, 1.1, 0.5)], ..Default::default() };
        assert!(serve_gate_failures(&smoke_ok).is_empty());

        // Divergence, a dead cache on a skewed row, and a bad identity
        // cell each produce a finding.
        let mut bad_row = row(50_000, 1.2, 2.0, 0.0);
        bad_row.identical = false;
        let bad = ServeReport {
            rows: vec![bad_row],
            identity: vec![IdentityCell { shards: 4, threads: 4, identical: false }],
            metrics: ServeMetrics::default(),
        };
        assert_eq!(serve_gate_failures(&bad).len(), 3);
    }

    #[test]
    fn json_writer_emits_rows_matrix_and_provenance() {
        let report = ServeReport {
            rows: vec![row(10_000, 1.2, 2.0, 0.6)],
            identity: vec![IdentityCell { shards: 2, threads: 4, identical: true }],
            metrics: ServeMetrics {
                tiers: vec![(
                    "session.l1".into(),
                    TierSnapshot {
                        hits: 10,
                        misses: 5,
                        evictions: 1,
                        insertions: 5,
                        entries: 4,
                        bytes: 4096,
                    },
                )],
                forecast_shared_hits: 7,
                forecast_self_hits: 2,
                forecast_untagged_hits: 0,
                forecast_misses: 3,
                prune: PruneStats { pool: 100, exact_evals: 60, pruned: 40, streamed_out: 10 },
            },
        };
        let dir = std::env::temp_dir().join("ecocharge_serve_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        write_serve_json(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"skew\": 1.2"));
        assert!(text.contains("\"identity_matrix\""));
        assert!(text.contains("\"session.l1\""));
        assert!(text.contains("\"forecast_share\""));
        assert!(text.contains("\"pruned\": 40"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
