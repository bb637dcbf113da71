//! The `repro prune` series — bound-driven lazy filter–refine (DESIGN.md
//! §4g) swept over **fleet size × search radius × pruning on/off**.
//!
//! Every cell ranks the identical trip workload twice on the same world:
//! once with `pruning: false` (the eager path evaluates the exact
//! availability of every reachable candidate) and once with
//! `pruning: true` (candidates whose optimistic envelope score cannot
//! reach the top-`k` are never exactly evaluated). Rows report the exact
//! evaluation counts from [`ecocharge_core::PruneStats`], the fraction
//! avoided, the per-query median wall clock, and — the load-bearing
//! column — whether the pruned Offering Tables are **bit-identical** to
//! the unpruned ones. On the largest fleet the pruned run is additionally
//! replayed across detour backend × thread count against the same
//! baseline, the same promise `repro detour` makes for backends alone.
//!
//! Written as `BENCH_prune.json` (hand-rolled — the vendored serde has no
//! JSON backend) so CI can archive the sweep.

use crate::figures::HarnessConfig;
use crate::summary::median_us;
use chargers::{synth_fleet, ChargerFleet, FleetParams};
use ecocharge_core::{
    DetourBackend, EcoCharge, EcoChargeConfig, OfferingTable, PruneStats, PruningMode, QueryCtx,
    RankingMethod,
};
use eis::{InfoServer, SimProviders};
use roadnet::{urban_grid, DetourCh, RoadGraph, UrbanGridParams};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use trajgen::{generate_trips, BrinkhoffParams, DatasetScale, Trip};

/// Fleet sizes at the default bench scale; `--scale` shrinks them
/// proportionally (floor 20) so smoke runs stay fast. The largest is
/// where the ≥30 %-avoided acceptance target is measured.
const FLEET_BASE: [usize; 3] = [100, 250, 500];

/// Search radii `R`, km. The paper's default is 50; the tighter radii
/// exercise the ordered candidate stream's distance cut-off.
const RADII_KM: [f64; 3] = [15.0, 30.0, 50.0];

/// Node columns/rows of the generated grid at the default bench scale.
const GRID_BASE_SIDE: usize = 64;

/// One cell of the sweep: one fleet size under one radius, with the
/// unpruned and pruned runs folded into a single row.
#[derive(Debug, Clone)]
pub struct PruneRow {
    /// Chargers in the fleet.
    pub fleet: usize,
    /// Search radius `R`, km.
    pub radius_km: f64,
    /// Offering Tables produced per configuration (cold + adapted).
    pub queries: usize,
    /// Candidates that entered the pool across all cold solves (identical
    /// for both configurations — pruning must not change the pool).
    pub pool: u64,
    /// Exact availability evaluations on the eager path.
    pub exact_unpruned: u64,
    /// Exact availability evaluations (cold + shadow materialisations)
    /// on the lazy path.
    pub exact_pruned: u64,
    /// `100 · (1 − exact_pruned / exact_unpruned)`.
    pub avoided_pct: f64,
    /// Median wall-clock per Offering Table, eager path, µs.
    pub median_unpruned_us: f64,
    /// Median wall-clock per Offering Table, lazy path, µs.
    pub median_pruned_us: f64,
    /// `median_unpruned_us / median_pruned_us`.
    pub speedup: f64,
    /// Whether every pruned Offering Table equals its unpruned twin
    /// bit-for-bit (on the largest fleet: across backend × thread count).
    pub identical: bool,
}

/// The world one sweep column runs against: a generated urban grid with a
/// synthetic fleet and the trip workload every configuration replays.
struct PruneWorld<'a> {
    graph: &'a RoadGraph,
    fleet: ChargerFleet,
    sims: SimProviders,
    trips: &'a [Trip],
    detour_ch: &'a OnceLock<Arc<DetourCh>>,
    threads: usize,
}

/// One configuration's full replay: every trip from cold, a second table
/// 3 km along (the Dynamic-Caching adaptation path — where shadow
/// materialisation earns its keep), repeated `reps` times on a fresh
/// information server so provider caches cannot leak between reps.
struct RunOutcome {
    tables: Vec<OfferingTable>,
    stats: PruneStats,
    times_us: Vec<f64>,
}

impl PruneWorld<'_> {
    fn run(&self, config: EcoChargeConfig, reps: usize) -> RunOutcome {
        let mut out =
            RunOutcome { tables: Vec::new(), stats: PruneStats::default(), times_us: Vec::new() };
        for rep in 0..reps.max(1) {
            let server = InfoServer::from_sims(self.sims.clone());
            let ctx = QueryCtx::new(self.graph, &self.fleet, &server, &self.sims, config);
            let resolved = roadnet::resolve_backend(
                config.detour_backend,
                self.graph,
                self.fleet.len(),
                true,
                1.0,
            );
            if resolved == DetourBackend::Ch {
                let ch = self
                    .detour_ch
                    .get_or_init(|| Arc::new(DetourCh::build(self.graph, self.threads.max(1))));
                ctx.adopt_detour_ch(Arc::clone(ch));
            }
            let mut method = EcoCharge::new();
            for trip in self.trips {
                method.reset_trip();
                for offset_m in [0.0f64, 3_000.0] {
                    let offset_m = offset_m.min(trip.length_m());
                    let now = trip.eta_at_offset(self.graph, offset_m);
                    let t0 = Instant::now();
                    let table = method.offering_table(&ctx, trip, offset_m, now).expect("table");
                    out.times_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    if rep == 0 {
                        out.tables.push(table);
                    }
                }
            }
            if rep == 0 {
                out.stats = method.prune_stats();
            }
        }
        out
    }
}

/// Fleet sizes at `scale`, shrunk from the bench defaults and capped at
/// what the grid can host (stations never share a node).
fn fleet_sizes(scale: DatasetScale, num_nodes: usize) -> Vec<usize> {
    let f = (scale.factor() / DatasetScale::bench().factor()).min(1.0);
    let mut sizes: Vec<usize> = FLEET_BASE
        .iter()
        .map(|&base| (((base as f64) * f).round() as usize).clamp(20, base).min(num_nodes / 2))
        .collect();
    sizes.dedup();
    sizes
}

/// Grid side at `scale` (`nodes = side²`), shrunk like the fleet.
fn grid_side(scale: DatasetScale) -> usize {
    let f = (scale.factor() / DatasetScale::bench().factor()).min(1.0);
    (((GRID_BASE_SIDE as f64) * f).round() as usize).clamp(16, GRID_BASE_SIDE)
}

/// Run the fleet-size × radius × pruning sweep on a generated urban grid.
#[must_use]
pub fn run_prune(harness: &HarnessConfig) -> Vec<PruneRow> {
    let side = grid_side(harness.scale);
    let graph = urban_grid(&UrbanGridParams {
        cols: side,
        rows: side,
        seed: harness.seed,
        ..UrbanGridParams::default()
    });
    let trips = generate_trips(
        &graph,
        &BrinkhoffParams {
            trips: harness.trips_per_rep.max(2),
            min_trip_m: 10_000.0,
            max_trip_m: 20_000.0,
            seed: harness.seed,
            ..BrinkhoffParams::default()
        },
    );
    let sims = SimProviders::new(harness.seed);
    let detour_ch = OnceLock::new();

    let sizes = fleet_sizes(harness.scale, graph.num_nodes());
    let largest = *sizes.last().expect("at least one fleet size");
    let mut rows = Vec::new();
    for &count in &sizes {
        let fleet =
            synth_fleet(&graph, &FleetParams { count, seed: harness.seed, ..Default::default() });
        let world = PruneWorld {
            graph: &graph,
            fleet,
            sims: sims.clone(),
            trips: &trips,
            detour_ch: &detour_ch,
            threads: harness.threads,
        };
        for &radius_km in &RADII_KM {
            let cfg = |pruning, threads, backend| EcoChargeConfig {
                pruning,
                threads,
                detour_backend: backend,
                radius_km,
                ..EcoChargeConfig::default()
            };
            let mut eager = world
                .run(cfg(PruningMode::Off, harness.threads, DetourBackend::Dijkstra), harness.reps);
            let mut lazy = world
                .run(cfg(PruningMode::On, harness.threads, DetourBackend::Dijkstra), harness.reps);
            let mut identical = lazy.tables == eager.tables;
            if count == largest {
                // Acceptance: bit-identity across backend × thread count
                // on the largest fleet (single replay each — the tables,
                // not the timings, are the evidence).
                let threads_hi = harness.threads.max(2);
                for (threads, backend) in [
                    (1, DetourBackend::Dijkstra),
                    (1, DetourBackend::Ch),
                    (threads_hi, DetourBackend::Ch),
                ] {
                    identical &=
                        world.run(cfg(PruningMode::On, threads, backend), 1).tables == eager.tables;
                }
            }
            let median_unpruned_us = median_us(&mut eager.times_us);
            let median_pruned_us = median_us(&mut lazy.times_us);
            rows.push(PruneRow {
                fleet: count,
                radius_km,
                queries: eager.tables.len(),
                pool: eager.stats.pool,
                exact_unpruned: eager.stats.exact_evals,
                exact_pruned: lazy.stats.exact_evals,
                avoided_pct: 100.0
                    * (1.0 - lazy.stats.exact_evals as f64 / eager.stats.exact_evals.max(1) as f64),
                median_unpruned_us,
                median_pruned_us,
                speedup: median_unpruned_us / median_pruned_us.max(1e-9),
                identical,
            });
        }
    }
    rows
}

/// Write the sweep as `BENCH_prune.json`.
pub fn write_prune_json(path: &Path, rows: &[PruneRow]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"series\": \"prune\",")?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"fleet\": {}, \"radius_km\": {:.1}, \"queries\": {}, \"pool\": {}, \
             \"exact_unpruned\": {}, \"exact_pruned\": {}, \"avoided_pct\": {:.2}, \
             \"median_unpruned_us\": {:.3}, \"median_pruned_us\": {:.3}, \"speedup\": {:.4}, \
             \"identical\": {}}}{sep}",
            r.fleet,
            r.radius_km,
            r.queries,
            r.pool,
            r.exact_unpruned,
            r.exact_pruned,
            r.avoided_pct,
            r.median_unpruned_us,
            r.median_pruned_us,
            r.speedup,
            r.identical
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            scale: DatasetScale::smoke(),
            reps: 1,
            trips_per_rep: 2,
            seed: 7,
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn pruned_rows_identical_and_cheaper_smoke() {
        let rows = run_prune(&tiny());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.identical, "pruned tables diverged: {r:?}");
            assert!(r.queries > 0 && r.pool > 0);
            assert_eq!(
                r.exact_unpruned, r.pool,
                "the eager path evaluates the whole pool exactly once"
            );
            assert!(
                r.exact_pruned <= r.exact_unpruned,
                "lazy path must never evaluate more: {r:?}"
            );
        }
        // Somewhere in the sweep the bound must actually bite.
        assert!(
            rows.iter().any(|r| r.exact_pruned < r.exact_unpruned),
            "no row avoided any exact evaluation: {rows:?}"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = run_prune(&tiny());
        let path = std::env::temp_dir().join("BENCH_prune_test.json");
        write_prune_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"series\": \"prune\""));
        assert!(text.contains("\"identical\": true"));
        let _ = std::fs::remove_file(&path);
    }
}
