//! The `repro detour` series — Dijkstra vs Contraction-Hierarchy on the
//! `D` component's three-sweep workload, swept over **backend × graph
//! size**.
//!
//! Two row families:
//!
//! * **Dataset rows** — every evaluation dataset at the harness scale,
//!   timing the exact batch the component computation issues per query
//!   point (forward time, forward energy, reverse energy over the full
//!   candidate set), once per backend. These rows additionally run full
//!   EcoCharge Offering Tables and require them bit-identical across
//!   backend × thread count (same promise `repro scaling` makes for
//!   threads alone).
//! * **Generated rows** — jittered urban grids of increasing size with a
//!   fixed-size synthetic charger fleet, the regime the CH backend is
//!   for: Dijkstra's three sweeps settle the whole (growing) network,
//!   while CH's cost stays pinned to the candidate count. The charger
//!   fleet deliberately does *not* grow with the network — charger
//!   density, not road density, bounds the candidate set in the paper's
//!   setting.
//!
//! Every row cross-checks three ways:
//!
//! * the per-candidate batch results must agree **bit-for-bit**;
//! * dataset rows compare full Offering Tables across backend × threads;
//! * settled-node counts are reported so the speedup has a mechanism
//!   attached, not just a wall-clock ratio.
//!
//! Written as `BENCH_detour.json` (hand-rolled — the vendored serde has
//! no JSON backend) so CI can archive the sweep.

use crate::env::ExperimentEnv;
use crate::figures::HarnessConfig;
use crate::summary::median_us;
use chargers::{synth_fleet, FleetParams};
use ec_types::rng::SplitMix64;
use ec_types::NodeId;
use ecocharge_core::{DetourBackend, EcoCharge, EcoChargeConfig, OfferingTable, RankingMethod};
use roadnet::{
    metric_cost, urban_grid, CostMetric, DetourCh, RoadGraph, SearchEngine, UrbanGridParams,
};
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use trajgen::{DatasetKind, DatasetScale};

/// Node columns/rows of the generated grids at the default bench scale
/// (`nodes = side²`). The largest is where the ≥5× CH speedup target is
/// measured; `--scale` shrinks the sides proportionally so smoke runs
/// stay fast.
const GRID_BASE_SIDES: [usize; 3] = [40, 80, 240];

/// Chargers placed on every generated grid (fixed across sizes — the
/// candidate set is bounded by the charger fleet, not the road network).
const GRID_FLEET: usize = 128;

/// One cell of the sweep: one graph under one backend.
#[derive(Debug, Clone)]
pub struct DetourRow {
    /// Dataset name, or `urban-grid SxS` for a generated network.
    pub dataset: String,
    /// Network size, nodes.
    pub nodes: usize,
    /// Detour backend measured.
    pub backend: DetourBackend,
    /// One-off preprocessing cost (CH build; zero for Dijkstra).
    pub preprocess_ms: f64,
    /// Shortcut arcs the preprocessing added (zero for Dijkstra).
    pub shortcuts: usize,
    /// Median wall-clock time of one three-sweep query batch, µs.
    pub median_query_us: f64,
    /// Mean nodes settled per query batch (all three sweeps).
    pub mean_settled: f64,
    /// `median(Dijkstra) / median(this backend)` on the same workload.
    pub speedup: f64,
    /// Whether this backend's batch results (and, on dataset rows,
    /// Offering Tables) equal the Dijkstra single-threaded baseline
    /// bit-for-bit.
    pub identical: bool,
}

/// One query point's three-sweep result, reduced to cost bit patterns
/// (`None` = unreachable) for exact comparison across backends.
type BatchBits = (Vec<Option<u64>>, Vec<Option<u64>>, Vec<Option<u64>>);

fn bits(costs: impl IntoIterator<Item = Option<f64>>) -> Vec<Option<u64>> {
    costs.into_iter().map(|c| c.map(f64::to_bits)).collect()
}

/// Timings for one backend over one workload.
struct BackendSample {
    median_us: f64,
    mean_settled: f64,
    /// CH only: every batch bit-equal to the Dijkstra baseline.
    batches_identical: bool,
}

/// Time both backends on the identical `(at, rejoin)` workload over
/// `cands`. The CH index is built (and timed) by the caller so dataset
/// rows can reuse the environment's shared hierarchy.
fn time_backends(
    g: &RoadGraph,
    ch: &DetourCh,
    cands: &[NodeId],
    points: &[(NodeId, NodeId)],
) -> (BackendSample, BackendSample) {
    let mut engine = SearchEngine::new();

    // --- Dijkstra baseline: the three batched settle-set sweeps. ---
    let mut dij_batch = |at: NodeId, rejoin: NodeId| -> (BatchBits, usize) {
        let mut settled = 0;
        let secs = engine.one_to_many(g, at, cands, metric_cost(CostMetric::Time));
        settled += engine.last_settled();
        let fwd = engine.one_to_many_profiled(g, at, cands, metric_cost(CostMetric::Energy));
        settled += engine.last_settled();
        let ret = engine.many_to_one_profiled(g, rejoin, cands, metric_cost(CostMetric::Energy));
        settled += engine.last_settled();
        let b = (
            bits(secs),
            bits(fwd.into_iter().map(|c| c.map(|(c, _)| c))),
            bits(ret.into_iter().map(|c| c.map(|(c, _)| c))),
        );
        (b, settled)
    };
    let _ = dij_batch(points[0].0, points[0].1); // warm allocations
    let mut dij_times = Vec::with_capacity(points.len());
    let mut dij_settled = 0usize;
    let mut dij_results = Vec::with_capacity(points.len());
    for &(at, rejoin) in points {
        let t0 = Instant::now();
        let (b, s) = dij_batch(at, rejoin);
        dij_times.push(t0.elapsed().as_secs_f64() * 1e6);
        dij_settled += s;
        dij_results.push(b);
    }

    // --- CH: the same workload on the prebuilt hierarchy. ---
    let mut ch_batch = |at: NodeId, rejoin: NodeId| -> (BatchBits, usize) {
        let mut settled = 0;
        let secs = ch.time.one_to_many(g, engine.ch_scratch(), at, cands);
        settled += engine.ch_scratch().last_settled();
        let fwd = ch.energy.one_to_many(g, engine.ch_scratch(), at, cands);
        settled += engine.ch_scratch().last_settled();
        let ret = ch.energy.many_to_one(g, engine.ch_scratch(), rejoin, cands);
        settled += engine.ch_scratch().last_settled();
        let b = (
            bits(secs.into_iter().map(|c| c.map(|c| c.cost))),
            bits(fwd.into_iter().map(|c| c.map(|c| c.cost))),
            bits(ret.into_iter().map(|c| c.map(|c| c.cost))),
        );
        (b, settled)
    };
    let _ = ch_batch(points[0].0, points[0].1); // warm the bucket fills
    let mut ch_times = Vec::with_capacity(points.len());
    let mut ch_settled = 0usize;
    let mut batches_identical = true;
    for (i, &(at, rejoin)) in points.iter().enumerate() {
        let t0 = Instant::now();
        let (b, s) = ch_batch(at, rejoin);
        ch_times.push(t0.elapsed().as_secs_f64() * 1e6);
        ch_settled += s;
        batches_identical &= b == dij_results[i];
    }

    let n = points.len().max(1) as f64;
    (
        BackendSample {
            median_us: median_us(&mut dij_times),
            mean_settled: dij_settled as f64 / n,
            batches_identical: true,
        },
        BackendSample {
            median_us: median_us(&mut ch_times),
            mean_settled: ch_settled as f64 / n,
            batches_identical,
        },
    )
}

/// Everything about one graph's row pair that isn't a timing.
struct PairMeta<'a> {
    name: &'a str,
    nodes: usize,
    /// The network itself plus the candidate fan-out, for checking the
    /// `Auto` default's pick against the measured pair.
    graph: &'a RoadGraph,
    fanout: usize,
    preprocess_ms: f64,
    shortcuts: usize,
    /// Dijkstra row's extra identity evidence (parallel Offering Tables
    /// on dataset rows; trivially true on generated rows).
    dij_identical: bool,
    /// CH row's extra identity evidence beyond the batch bit-compare.
    ch_identical: bool,
}

/// Regression net for the [`DetourBackend::Auto`] default: on every row
/// pair the backend the cost model would pick (prebuilt-style, the way
/// the experiment environments resolve it) must not be decisively the
/// slower of the two. The 2× relative slack plus a 1 ms absolute floor
/// absorbs micro-timing noise on small graphs where both backends
/// finish in a few hundred µs (a loaded test runner can double those
/// numbers on scheduler jitter alone); what this catches is the
/// original regression class — the model sending a city-scale graph to
/// CH (or a metro-scale one to Dijkstra) and losing big, i.e. by tens
/// of milliseconds.
fn assert_default_not_slowest(meta: &PairMeta<'_>, dij: &BackendSample, ch: &BackendSample) {
    // Full-settle fraction: this series' workload is the raw batch over
    // the whole candidate list, with no wider fleet the sweeps could
    // terminate early against.
    let pick = roadnet::resolve_backend(DetourBackend::Auto, meta.graph, meta.fanout, true, 1.0);
    let (picked_us, other_us) = match pick {
        DetourBackend::Dijkstra => (dij.median_us, ch.median_us),
        DetourBackend::Ch => (ch.median_us, dij.median_us),
        DetourBackend::Auto => unreachable!("resolution returns a concrete backend"),
    };
    assert!(
        picked_us <= other_us.mul_add(2.0, 1_000.0),
        "Auto default picked the slowest backend on {}: chose {} ({picked_us:.1}us) \
         over the alternative ({other_us:.1}us)",
        meta.name,
        pick.name()
    );
}

fn push_pair(
    rows: &mut Vec<DetourRow>,
    meta: &PairMeta<'_>,
    dij: &BackendSample,
    ch: &BackendSample,
) {
    assert_default_not_slowest(meta, dij, ch);
    rows.push(DetourRow {
        dataset: meta.name.to_string(),
        nodes: meta.nodes,
        backend: DetourBackend::Dijkstra,
        preprocess_ms: 0.0,
        shortcuts: 0,
        median_query_us: dij.median_us,
        mean_settled: dij.mean_settled,
        speedup: 1.0,
        identical: meta.dij_identical,
    });
    rows.push(DetourRow {
        dataset: meta.name.to_string(),
        nodes: meta.nodes,
        backend: DetourBackend::Ch,
        preprocess_ms: meta.preprocess_ms,
        shortcuts: meta.shortcuts,
        median_query_us: ch.median_us,
        mean_settled: ch.mean_settled,
        speedup: dij.median_us / ch.median_us.max(1e-9),
        identical: ch.batches_identical && meta.ch_identical,
    });
}

/// EcoCharge Offering Tables over `trips` under `config` (fresh
/// information server per run so provider caches cannot leak between
/// configurations).
fn tables_for(env: &ExperimentEnv, config: EcoChargeConfig, trips_n: usize) -> Vec<OfferingTable> {
    let trips = env.trips_for_rep(0, trips_n);
    let server = eis::InfoServer::from_sims(env.sims.clone());
    let ctx =
        ecocharge_core::QueryCtx::new(&env.dataset.graph, &env.fleet, &server, &env.sims, config);
    if config.detour_backend == DetourBackend::Ch {
        ctx.adopt_detour_ch(env.shared_detour_ch(config.threads));
    }
    let mut method = EcoCharge::new();
    let mut tables = Vec::new();
    for trip in &trips {
        method.reset_trip();
        if let Ok(table) = method.offering_table(&ctx, trip, 0.0, trip.depart) {
            tables.push(table);
        }
    }
    tables
}

/// The generated-grid sides at `scale`: the base sides shrink linearly
/// with the scale fraction (relative to the bench default) so smoke and
/// CI runs build small hierarchies, deduplicated after clamping.
fn grid_sides(scale: DatasetScale) -> Vec<usize> {
    let f = (scale.factor() / DatasetScale::bench().factor()).min(1.0);
    let mut sides: Vec<usize> = GRID_BASE_SIDES
        .iter()
        .map(|&base| (((base as f64) * f).round() as usize).clamp(12, base))
        .collect();
    sides.dedup();
    sides
}

/// Run the backend × graph-size sweep: one row pair (Dijkstra baseline,
/// then CH on the identical workload) per dataset in `kinds`, then one
/// pair per generated urban grid.
#[must_use]
pub fn run_detour(harness: &HarnessConfig, kinds: &[DatasetKind]) -> Vec<DetourRow> {
    let mut rows = Vec::new();
    let n_points = (harness.reps * harness.trips_per_rep).max(4);

    for &kind in kinds {
        let env = ExperimentEnv::build(kind, harness.scale, harness.seed);
        let g = &env.dataset.graph;
        let cands: Vec<NodeId> = env.fleet.iter().map(|c| c.node).collect();
        let trips = env.trips_for_rep(0, n_points);
        // The exact (at, rejoin) pair the component computation uses at a
        // trip's first segment: the vehicle queries from its current
        // position and rejoins further along the route.
        let points: Vec<(NodeId, NodeId)> = trips
            .iter()
            .map(|t| {
                let at = t.route.nearest_node_at(0.0);
                let rejoin = t.route.nearest_node_at(t.length_m() / 2.0);
                (at, rejoin)
            })
            .collect();

        let t0 = Instant::now();
        let ch = env.shared_detour_ch(harness.threads);
        let preprocess_ms = t0.elapsed().as_secs_f64() * 1e3;
        let shortcuts = ch.time.num_shortcuts() + ch.energy.num_shortcuts();
        let (dij, chs) = time_backends(g, &ch, &cands, &points);

        // --- Offering-Table identity across backend × thread count. ---
        let threads_hi = harness.threads.max(2);
        let cfg = |backend, threads| EcoChargeConfig {
            threads,
            detour_backend: backend,
            ..EcoChargeConfig::default()
        };
        let trips_n = harness.trips_per_rep.max(1);
        let baseline = tables_for(&env, cfg(DetourBackend::Dijkstra, 1), trips_n);
        let dij_par_ok =
            tables_for(&env, cfg(DetourBackend::Dijkstra, threads_hi), trips_n) == baseline;
        let ch_seq_ok = tables_for(&env, cfg(DetourBackend::Ch, 1), trips_n) == baseline;
        let ch_par_ok = tables_for(&env, cfg(DetourBackend::Ch, threads_hi), trips_n) == baseline;

        push_pair(
            &mut rows,
            &PairMeta {
                name: env.dataset.name(),
                nodes: g.num_nodes(),
                graph: g,
                fanout: cands.len(),
                preprocess_ms,
                shortcuts,
                dij_identical: dij_par_ok,
                ch_identical: ch_seq_ok && ch_par_ok,
            },
            &dij,
            &chs,
        );
    }

    // --- Generated grids: fixed fleet, growing network. ---
    for side in grid_sides(harness.scale) {
        let g = urban_grid(&UrbanGridParams {
            cols: side,
            rows: side,
            seed: harness.seed,
            ..UrbanGridParams::default()
        });
        let fleet = synth_fleet(
            &g,
            &FleetParams {
                count: GRID_FLEET.min(g.num_nodes() / 4).max(4),
                seed: harness.seed,
                ..FleetParams::default()
            },
        );
        let cands: Vec<NodeId> = fleet.iter().map(|c| c.node).collect();
        let mut rng = SplitMix64::new(ec_types::rng::subseed(harness.seed, 0xd7 + side as u64));
        let node = |rng: &mut SplitMix64| {
            NodeId(u32::try_from(rng.below(g.num_nodes() as u64)).expect("node id fits u32"))
        };
        let points: Vec<(NodeId, NodeId)> =
            (0..n_points).map(|_| (node(&mut rng), node(&mut rng))).collect();

        let t0 = Instant::now();
        let ch = DetourCh::build(&g, harness.threads.max(1));
        let preprocess_ms = t0.elapsed().as_secs_f64() * 1e3;
        let shortcuts = ch.time.num_shortcuts() + ch.energy.num_shortcuts();
        let (dij, chs) = time_backends(&g, &ch, &cands, &points);
        push_pair(
            &mut rows,
            &PairMeta {
                name: &format!("urban-grid {side}x{side}"),
                nodes: g.num_nodes(),
                graph: &g,
                fanout: cands.len(),
                preprocess_ms,
                shortcuts,
                dij_identical: true,
                ch_identical: true,
            },
            &dij,
            &chs,
        );
    }
    rows
}

/// Write the sweep as `BENCH_detour.json`.
pub fn write_detour_json(path: &Path, rows: &[DetourRow]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"series\": \"detour\",")?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"dataset\": \"{}\", \"nodes\": {}, \"backend\": \"{}\", \
             \"preprocess_ms\": {:.3}, \"shortcuts\": {}, \"median_query_us\": {:.3}, \
             \"mean_settled\": {:.1}, \"speedup\": {:.4}, \"identical\": {}}}{sep}",
            r.dataset,
            r.nodes,
            r.backend.name(),
            r.preprocess_ms,
            r.shortcuts,
            r.median_query_us,
            r.mean_settled,
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
    fn backends_agree_on_oldenburg_smoke() {
        let rows = run_detour(&tiny(), &[DatasetKind::Oldenburg]);
        // One dataset pair plus at least one generated-grid pair.
        assert!(rows.len() >= 4 && rows.len().is_multiple_of(2), "unexpected rows: {}", rows.len());
        let (dij, ch) = (&rows[0], &rows[1]);
        assert_eq!(dij.backend, DetourBackend::Dijkstra);
        assert_eq!(ch.backend, DetourBackend::Ch);
        // Identity is the contract at every scale; speed is not (a smoke
        // graph is too small for hierarchy to pay off reliably).
        assert!(dij.identical, "parallel Dijkstra tables diverged: {dij:?}");
        assert!(ch.identical, "CH diverged from the Dijkstra baseline: {ch:?}");
        assert!(ch.preprocess_ms > 0.0 && ch.shortcuts > 0);
        assert!(dij.median_query_us > 0.0 && ch.median_query_us > 0.0);
        // CH's cached bucket fills must make its sweeps settle far fewer
        // nodes than three full-graph Dijkstras.
        assert!(
            ch.mean_settled < dij.mean_settled,
            "CH settled {} vs Dijkstra {}",
            ch.mean_settled,
            dij.mean_settled
        );
        // Generated rows hold bit-identity too.
        for r in &rows[2..] {
            assert!(r.identical, "generated-grid row diverged: {r:?}");
            assert!(r.dataset.starts_with("urban-grid"));
        }
    }

    #[test]
    fn grid_sides_scale_down_and_dedup() {
        // Bench scale keeps the base sides; smoke shrinks and dedups.
        assert_eq!(grid_sides(DatasetScale::bench()), vec![40, 80, 240]);
        let smoke = grid_sides(DatasetScale::smoke());
        assert!(!smoke.is_empty() && smoke.iter().all(|&s| (12..=240).contains(&s)));
        let mut sorted = smoke.clone();
        sorted.dedup();
        assert_eq!(smoke, sorted, "sides must be deduplicated");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = run_detour(&tiny(), &[DatasetKind::Oldenburg]);
        let path = std::env::temp_dir().join("BENCH_detour_test.json");
        write_detour_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"series\": \"detour\""));
        assert!(text.contains("\"backend\": \"ch\""));
        assert!(text.contains("\"identical\": true"));
        assert!(text.contains("urban-grid"));
        let _ = std::fs::remove_file(&path);
    }
}
