//! The layer-probe pass of a traced run: re-solve a seeded sample of the
//! workload's split points through the solver's public building blocks,
//! one span per layer, on fresh information servers.

use crate::drive::{Tracer, NONE};
use crate::world::{solver_config, World};
use ec_types::{ChargerId, NodeId, SimTime};
use ecocharge_core::score::{prune_dominated, refine_topk};
use ecocharge_core::{detour_batch, objectives::compute_components, EcoCharge, QueryCtx};
use eis::InfoServer;
use roadnet::{DetourCh, SearchEngine};
use std::collections::BTreeMap;
use std::hint::black_box;
use trajgen::Trip;

/// One served solve: the trip and the `(offset, time)` it was solved at.
#[derive(Debug, Clone)]
pub struct SplitPoint {
    pub trip: Trip,
    pub offset_m: f64,
    pub time: SimTime,
}

/// Probe every point and return the layer metrics:
///
/// * `probe.rerank` — a fresh `EcoCharge::rerank` (cold solve);
/// * `probe.solve` ⊃ `probe.retrieval` (`within_radius`), `probe.detour`
///   (`detour_batch` with the time sweep), `probe.components`
///   (`compute_components`, which runs its own detour batch) and
///   `probe.score` (Eq. 4–6 interval scores, dominance pruning and top-k
///   refinement);
/// * `probe.ch_build` — one Contraction-Hierarchy detour-index build.
pub fn probe(
    world: &World,
    points: &[SplitPoint],
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let config = solver_config();
    let cold_server = InfoServer::from_sims(world.sims.clone());
    let cold_ctx = QueryCtx::new(&world.graph, &world.fleet, &cold_server, &world.sims, config);
    let layer_server = InfoServer::from_sims(world.sims.clone());
    let ctx = QueryCtx::new(&world.graph, &world.fleet, &layer_server, &world.sims, config);
    let mut engine = SearchEngine::new();
    let root = tracer.open("probe", NONE, NONE);
    let mut pool = 0usize;
    for p in points {
        let sid = p.trip.id.0;
        let s = tracer.open("probe.rerank", root, sid);
        black_box(EcoCharge::new().rerank(&cold_ctx, &p.trip, p.offset_m, p.time).ok());
        tracer.close(s);

        let solve = tracer.open("probe.solve", root, sid);
        let pos = p.trip.position_at_offset(&world.graph, p.offset_m);
        let node = p.trip.route.nearest_node_at(p.offset_m);
        let rejoin_at = (p.offset_m + config.segment_km * 1_000.0).min(p.trip.length_m());
        let rejoin = p.trip.route.nearest_node_at(rejoin_at);

        let s = tracer.open("probe.retrieval", solve, sid);
        let ids: Vec<ChargerId> = world
            .fleet
            .within_radius(&pos, config.radius_km * 1_000.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        tracer.close(s);
        pool += ids.len();

        let nodes: Vec<NodeId> = ids.iter().map(|&c| world.fleet.get(c).node).collect();
        let s = tracer.open("probe.detour", solve, sid);
        black_box(detour_batch(&ctx, &mut engine, node, rejoin, &nodes, true));
        tracer.close(s);

        let s = tracer.open("probe.components", solve, sid);
        let comps = compute_components(&ctx, &mut engine, node, rejoin, p.time, &ids)
            .expect("model-backed forecasts never fail");
        tracer.close(s);

        let s = tracer.open("probe.score", solve, sid);
        let scored: Vec<_> = comps
            .iter()
            .map(|c| config.weights.interval_score(c.l, c.a, c.d))
            .enumerate()
            .collect();
        let survivors: Vec<_> =
            prune_dominated(&scored, config.k).into_iter().map(|i| scored[i]).collect();
        black_box(refine_topk(&survivors, config.k));
        tracer.close(s);
        tracer.close(solve);
    }
    let s = tracer.open("probe.ch_build", root, NONE);
    black_box(DetourCh::build(&world.graph, 1));
    tracer.close(s);
    tracer.close(root);

    let summary = tracer.summary();
    let mean_us = |name: &str| summary.get(name).map_or(0.0, |e| e.1 * 1e6);
    let self_us = |name: &str| summary.get(name).map_or(0.0, |e| e.2 * 1e6);
    BTreeMap::from([
        ("solve.cold_us", mean_us("probe.rerank")),
        ("solve.self_us", self_us("probe.solve")),
        ("retrieval.us", mean_us("probe.retrieval")),
        ("retrieval.pool_mean", pool as f64 / points.len().max(1) as f64),
        ("detour.us", mean_us("probe.detour")),
        ("eis.eval_us", mean_us("probe.components") - mean_us("probe.detour")),
        ("score.us", mean_us("probe.score")),
        ("detour.ch_build_s", mean_us("probe.ch_build") * 1e-6),
    ])
}
