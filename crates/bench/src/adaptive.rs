//! The `repro adaptive` series — does `Auto` ever lose to the best
//! static choice?
//!
//! The adaptive layer (DESIGN.md §4j) makes two cost-model decisions per
//! query context: which detour engine answers the derouting sweeps
//! ([`DetourBackend::Auto`]) and whether the lazy filter–refine engine is
//! worth its envelope overhead ([`PruningMode::Auto`]). Both decisions
//! were introduced to fix regressions where a globally static choice was
//! the *wrong* choice on part of the input spectrum — CH on city-scale
//! graphs, pruning on small candidate pools. This series is the
//! regression net for the fix itself:
//!
//! * every world produces one row per decision dimension (`backend`,
//!   `pruning`), timing both static options and `Auto` on the identical
//!   workload;
//! * a row passes (`auto_ok`) when `Auto` is at most [`TOLERANCE`] ×
//!   the *best* static option — the adaptive path may never reintroduce
//!   the regression it exists to fix, on either end of the spectrum;
//! * every row also replays the full Offering-Table identity contract:
//!   `Auto` vs. both static choices, and `Auto` across thread counts,
//!   bit-for-bit.
//!
//! The world list deliberately spans the whole decision spectrum: the
//! four paper datasets (city-scale, fleets 600–1200), a sparse-fleet
//! grid small enough that pruning must stay off, and metro-class
//! substrates (up to 1M+ nodes / 100k chargers, [`MetroTier`]) where the
//! hierarchy and the pruner must both engage. Written as
//! `BENCH_adaptive.json` so CI can archive the sweep and fail the build
//! when `Auto` loses a row.

use crate::figures::HarnessConfig;
use crate::summary::median_us;
use chargers::{synth_fleet, ChargerFleet, FleetParams};
use ecocharge_core::{
    DetourBackend, EcoCharge, EcoChargeConfig, OfferingTable, PruneCostModel, PruningMode,
    QueryCtx, RankingMethod,
};
use eis::{InfoServer, SimProviders};
use roadnet::{urban_grid, DetourCh, RoadGraph, UrbanGridParams};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use trajgen::{generate_trips, BrinkhoffParams, Dataset, DatasetKind, DatasetScale, Trip};

/// `Auto` must come within this factor of the best static option on
/// every row. The regression class this gate exists to catch is the
/// model sending a world to the decisively wrong engine — the motivating
/// failures ranged from 5× to 600×. Near-tied rows are a different
/// regime: sub-millisecond medians on a shared machine vary by ±20 %
/// run-to-run even between *identical* configurations, and on such rows
/// either pick is fine. 1.5 cleanly separates the two: far below any
/// real mis-prediction, comfortably above timer noise on a near-tie.
pub const TOLERANCE: f64 = 1.5;

/// How much metro-class substrate the sweep includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetroTier {
    /// No metro worlds (unit tests; debug builds).
    Off,
    /// The CI tier: ~96k nodes, 10k chargers.
    Small,
    /// The full tier: adds a 1M+-node grid with a 100k-charger fleet.
    Full,
}

impl MetroTier {
    /// Parse a CLI label (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Self::Off),
            "small" => Some(Self::Small),
            "full" => Some(Self::Full),
            _ => None,
        }
    }
}

/// One decision dimension on one world: both static options and `Auto`
/// on the identical workload.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// World label (dataset name or generated-grid descriptor).
    pub world: String,
    /// Network size, nodes.
    pub nodes: usize,
    /// Network size, edges.
    pub edges: usize,
    /// Charger-fleet size (the candidate pool's upper bound).
    pub fleet: usize,
    /// Which decision this row measures: `"backend"` or `"pruning"`.
    pub dim: &'static str,
    /// First static option's label.
    pub static_a: &'static str,
    /// First static option's median solve time, µs.
    pub static_a_us: f64,
    /// Second static option's label.
    pub static_b: &'static str,
    /// Second static option's median solve time, µs.
    pub static_b_us: f64,
    /// `Auto`'s median solve time, µs.
    pub auto_us: f64,
    /// What `Auto` resolved to on this world — for the backend
    /// dimension, at the representative (median start-of-trip)
    /// candidate-pool fan-out the per-batch resolution actually sees.
    pub auto_choice: &'static str,
    /// `auto_us ≤ min(static) × TOLERANCE`.
    pub auto_ok: bool,
    /// Offering Tables bit-identical across all options and across
    /// `Auto` thread counts (and non-empty).
    pub identical: bool,
}

/// A materialised world the sweep owns outright (unlike
/// [`crate::env::ExperimentEnv`], the graph here may be a generated
/// metro substrate with no dataset preset behind it).
struct World {
    name: String,
    graph: RoadGraph,
    fleet: ChargerFleet,
    sims: SimProviders,
    trips: Vec<Trip>,
    /// Shared CH index — built once per world, on first use by an
    /// option that resolves to the hierarchy. The build is a sunk cost
    /// here (every option that wants CH reuses it), so `Auto` resolves
    /// prebuilt-style, exactly like the experiment environments.
    detour_ch: OnceLock<Arc<DetourCh>>,
}

impl World {
    fn from_dataset(kind: DatasetKind, scale: DatasetScale, seed: u64, trips_n: usize) -> Self {
        let dataset = Dataset::build(kind, scale, seed);
        let fleet = synth_fleet(
            &dataset.graph,
            &FleetParams {
                count: kind.charger_count().min(dataset.graph.num_nodes()),
                seed,
                ..Default::default()
            },
        );
        let name = dataset.name().to_string();
        let Dataset { graph, mut trips, .. } = dataset;
        trips.truncate(trips_n.max(1));
        Self {
            name,
            graph,
            fleet,
            sims: SimProviders::new(seed),
            trips,
            detour_ch: OnceLock::new(),
        }
    }

    fn from_grid(
        name: &str,
        side: (usize, usize),
        fleet_n: usize,
        seed: u64,
        trips_n: usize,
    ) -> Self {
        let graph = urban_grid(&UrbanGridParams {
            cols: side.0,
            rows: side.1,
            seed,
            ..UrbanGridParams::default()
        });
        let fleet = synth_fleet(
            &graph,
            &FleetParams {
                count: fleet_n.min(graph.num_nodes() / 2).max(4),
                seed,
                ..Default::default()
            },
        );
        let trips = generate_trips(
            &graph,
            &BrinkhoffParams { trips: trips_n.max(1), seed, ..BrinkhoffParams::default() },
        );
        Self {
            name: name.to_string(),
            graph,
            fleet,
            sims: SimProviders::new(seed),
            trips,
            detour_ch: OnceLock::new(),
        }
    }

    fn shared_detour_ch(&self, threads: usize) -> Arc<DetourCh> {
        Arc::clone(
            self.detour_ch.get_or_init(|| Arc::new(DetourCh::build(&self.graph, threads.max(1)))),
        )
    }
}

/// One option's timed run: full EcoCharge solves over the world's trips.
struct OptionRun {
    median_us: f64,
    tables: Vec<OfferingTable>,
}

/// Run every configuration of one dimension over the world's trips:
/// per option a fresh information server (provider caches must not leak
/// between options) and a warm pass (server caches, backend resolution,
/// scratch allocations, CH bucket fills), then three timed passes of
/// full solves. The shared CH index is adopted by every option that
/// could touch the hierarchy, so no option pays the build inside its
/// timed region.
///
/// Two noise defenses, both load-bearing at the µs scale this gate
/// judges:
///
/// * Options are **interleaved pass-by-pass** (A, B, Auto, A, B, …),
///   so slow clock drift — thermal throttling, a neighbour stealing the
///   core — lands on every option equally instead of biasing whichever
///   ran last.
/// * Trips differ in intrinsic cost, so the per-solve sample
///   distribution is multimodal and a plain median across it jitters by
///   whole modes. Each trip instead keeps its *minimum* across the
///   passes (the standard noise-floor estimator), and the row reports
///   the median across trips.
fn run_options(world: &World, configs: &[EcoChargeConfig]) -> Vec<OptionRun> {
    let servers: Vec<InfoServer> =
        configs.iter().map(|_| InfoServer::from_sims(world.sims.clone())).collect();
    let ctxs: Vec<QueryCtx<'_>> = configs
        .iter()
        .zip(&servers)
        .map(|(config, server)| {
            let ctx = QueryCtx::new(&world.graph, &world.fleet, server, &world.sims, *config);
            if config.detour_backend != DetourBackend::Dijkstra {
                ctx.adopt_detour_ch(world.shared_detour_ch(config.threads));
            }
            ctx
        })
        .collect();
    let mut methods: Vec<EcoCharge> = configs.iter().map(|_| EcoCharge::new()).collect();
    for (ctx, method) in ctxs.iter().zip(&mut methods) {
        for trip in &world.trips {
            method.reset_trip();
            let _ = method.offering_table(ctx, trip, 0.0, trip.depart);
        }
    }

    let mut per_trip = vec![vec![f64::INFINITY; world.trips.len()]; configs.len()];
    let mut tables = vec![Vec::new(); configs.len()];
    for _pass in 0..3 {
        for (opt, (ctx, method)) in ctxs.iter().zip(&mut methods).enumerate() {
            tables[opt].clear();
            for (i, trip) in world.trips.iter().enumerate() {
                method.reset_trip();
                let t0 = Instant::now();
                let table = method.offering_table(ctx, trip, 0.0, trip.depart);
                per_trip[opt][i] = per_trip[opt][i].min(t0.elapsed().as_secs_f64() * 1e6);
                if let Ok(t) = table {
                    tables[opt].push(t);
                }
            }
        }
    }
    per_trip
        .iter_mut()
        .zip(tables)
        .map(|(times, tables)| OptionRun { median_us: median_us(times), tables })
        .collect()
}

/// Measure one decision dimension on one world. `configure` maps an
/// option index — 0 = static A, 1 = static B, 2 = `Auto` — onto a
/// configuration; the thread-identity cross-check reruns option 2 at a
/// higher thread count.
#[allow(clippy::too_many_arguments)]
fn measure_dim(
    world: &World,
    harness: &HarnessConfig,
    dim: &'static str,
    labels: (&'static str, &'static str),
    auto_choice: &'static str,
    configure: impl Fn(usize, usize) -> EcoChargeConfig,
) -> AdaptiveRow {
    let threads = harness.threads.max(1);
    let threads_hi = threads.max(4);
    let configs = [
        configure(0, threads),
        configure(1, threads),
        configure(2, threads),
        configure(2, threads_hi),
    ];
    let [a, b, auto, auto_hi] = <[OptionRun; 4]>::try_from(run_options(world, &configs))
        .unwrap_or_else(|_| unreachable!("one run per config"));

    let best_static = a.median_us.min(b.median_us);
    let identical = !auto.tables.is_empty()
        && auto.tables == a.tables
        && auto.tables == b.tables
        && auto.tables == auto_hi.tables;
    AdaptiveRow {
        world: world.name.clone(),
        nodes: world.graph.num_nodes(),
        edges: world.graph.num_edges(),
        fleet: world.fleet.len(),
        dim,
        static_a: labels.0,
        static_a_us: a.median_us,
        static_b: labels.1,
        static_b_us: b.median_us,
        auto_us: auto.median_us,
        auto_choice,
        auto_ok: auto.median_us <= best_static * TOLERANCE,
        identical,
    }
}

/// The median start-of-trip candidate-pool size — the fan-out the
/// per-batch backend resolution actually sees (the fleet size is only
/// its upper bound; the radius filter can cut it by an order of
/// magnitude on city graphs).
fn representative_fanout(world: &World, radius_km: f64) -> usize {
    let radius_m = radius_km * 1_000.0;
    let mut sizes: Vec<usize> = world
        .trips
        .iter()
        .map(|t| {
            let pos = t.position_at_offset(&world.graph, 0.0);
            world.fleet.nearest_iter(&pos).take_while(|(_, d)| *d <= radius_m).count()
        })
        .collect();
    sizes.sort_unstable();
    sizes.get(sizes.len() / 2).copied().unwrap_or(world.fleet.len())
}

fn measure_world(world: &World, harness: &HarnessConfig, rows: &mut Vec<AdaptiveRow>) {
    let base = EcoChargeConfig::default();

    // --- Backend dimension: pruning stays Auto, the engine varies. ---
    let pool = representative_fanout(world, base.radius_km);
    let backend_choice = roadnet::resolve_backend(
        DetourBackend::Auto,
        &world.graph,
        pool,
        true,
        roadnet::BackendCostModel::settle_fraction(pool, world.fleet.len()),
    );
    rows.push(measure_dim(
        world,
        harness,
        "backend",
        (DetourBackend::Dijkstra.name(), DetourBackend::Ch.name()),
        backend_choice.name(),
        |opt, threads| EcoChargeConfig {
            threads,
            detour_backend: match opt {
                0 => DetourBackend::Dijkstra,
                1 => DetourBackend::Ch,
                _ => DetourBackend::Auto,
            },
            pruning: PruningMode::Auto,
            ..base
        },
    ));

    // --- Pruning dimension: the engine stays Auto, the pruner varies. ---
    let pruning_choice = if world.fleet.len() >= PruneCostModel::calibrated().pool_threshold(base.k)
    {
        PruningMode::On.name()
    } else {
        PruningMode::Off.name()
    };
    rows.push(measure_dim(
        world,
        harness,
        "pruning",
        (PruningMode::Off.name(), PruningMode::On.name()),
        pruning_choice,
        |opt, threads| EcoChargeConfig {
            threads,
            detour_backend: DetourBackend::Auto,
            pruning: match opt {
                0 => PruningMode::Off,
                1 => PruningMode::On,
                _ => PruningMode::Auto,
            },
            ..base
        },
    ));
}

/// Run the adaptive sweep: both decision dimensions on every world.
///
/// Worlds: each dataset in `kinds` at the harness scale, a sparse-fleet
/// grid (64 chargers — below any sane pruning threshold), and the
/// metro tiers selected by `metro`.
#[must_use]
pub fn run_adaptive(
    harness: &HarnessConfig,
    kinds: &[DatasetKind],
    metro: MetroTier,
) -> Vec<AdaptiveRow> {
    // Pay both one-shot micro-calibrations before any timed region.
    let _ = PruneCostModel::calibrated();
    let _ = roadnet::BackendCostModel::calibrated();

    let trips_n = harness.trips_per_rep.clamp(2, 8);
    let mut rows = Vec::new();
    for &kind in kinds {
        let world = World::from_dataset(kind, harness.scale, harness.seed, trips_n);
        measure_world(&world, harness, &mut rows);
    }

    let world = World::from_grid("sparse-fleet 48x48", (48, 48), 64, harness.seed, trips_n);
    measure_world(&world, harness, &mut rows);

    if metro != MetroTier::Off {
        let world = World::from_grid("metro 320x300", (320, 300), 10_000, harness.seed, trips_n);
        measure_world(&world, harness, &mut rows);
    }
    if metro == MetroTier::Full {
        let world =
            World::from_grid("metro 1024x1024", (1024, 1024), 100_000, harness.seed, trips_n);
        measure_world(&world, harness, &mut rows);
    }
    rows
}

/// Write the sweep as `BENCH_adaptive.json`.
pub fn write_adaptive_json(path: &Path, rows: &[AdaptiveRow]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"series\": \"adaptive\",")?;
    writeln!(f, "  \"tolerance\": {TOLERANCE},")?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"world\": \"{}\", \"nodes\": {}, \"edges\": {}, \"fleet\": {}, \
             \"dim\": \"{}\", \"{}_us\": {:.3}, \"{}_us\": {:.3}, \"auto_us\": {:.3}, \
             \"auto_choice\": \"{}\", \"auto_ok\": {}, \"identical\": {}}}{sep}",
            r.world,
            r.nodes,
            r.edges,
            r.fleet,
            r.dim,
            r.static_a,
            r.static_a_us,
            r.static_b,
            r.static_b_us,
            r.auto_us,
            r.auto_choice,
            r.auto_ok,
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
    fn sweep_covers_both_dimensions_and_stays_identical() {
        let rows = run_adaptive(&tiny(), &[DatasetKind::Oldenburg], MetroTier::Off);
        // Oldenburg + the sparse-fleet grid, two dims each.
        assert_eq!(rows.len(), 4, "unexpected rows: {rows:#?}");
        for r in &rows {
            // Identity is the contract at every scale. `auto_ok` is a
            // *release*-grade timing gate (the repro binary enforces it);
            // a debug unit test only checks the plumbing produced times.
            assert!(r.identical, "tables diverged across options: {r:?}");
            assert!(r.auto_us > 0.0 && r.static_a_us > 0.0 && r.static_b_us > 0.0);
            assert!(["backend", "pruning"].contains(&r.dim));
        }
        // The sparse-fleet world sits below any in-band pruning
        // threshold: Auto must keep the pruner off there.
        let sparse_prune = rows
            .iter()
            .find(|r| r.world.starts_with("sparse-fleet") && r.dim == "pruning")
            .expect("sparse-fleet pruning row");
        assert_eq!(sparse_prune.auto_choice, "off", "{sparse_prune:?}");
        // The paper fleets sit above it.
        let paper_prune = rows
            .iter()
            .find(|r| r.world == "Oldenburg" && r.dim == "pruning")
            .expect("Oldenburg pruning row");
        assert_eq!(paper_prune.auto_choice, "on", "{paper_prune:?}");
    }

    #[test]
    fn metro_tier_parses() {
        assert_eq!(MetroTier::parse("off"), Some(MetroTier::Off));
        assert_eq!(MetroTier::parse("Small"), Some(MetroTier::Small));
        assert_eq!(MetroTier::parse("FULL"), Some(MetroTier::Full));
        assert_eq!(MetroTier::parse("metro"), None);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = run_adaptive(&tiny(), &[], MetroTier::Off);
        let path = std::env::temp_dir().join("BENCH_adaptive_test.json");
        write_adaptive_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"series\": \"adaptive\""));
        assert!(text.contains("\"dim\": \"backend\"") && text.contains("\"dim\": \"pruning\""));
        assert!(text.contains("\"auto_choice\""));
        let _ = std::fs::remove_file(&path);
    }
}
