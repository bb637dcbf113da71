//! Workload inputs: the serving world, the client trips and the open-loop
//! arrival schedule, all derived from the workload seed.

use crate::spec::Workload;
use chargers::{synth_fleet, ChargerFleet, FleetParams};
use ec_types::rng::mix;
use ec_types::{SplitMix64, TripId};
use ecocharge_core::{DetourBackend, EcoChargeConfig, PruneCostModel};
use eis::SimProviders;
use roadnet::{urban_grid, BackendCostModel, RoadGraph, UrbanGridParams};
use trajgen::{generate_trips, BrinkhoffParams, Trip};

/// Seed streams, one per input kind.
pub mod stream {
    pub const FLEET: u64 = 1;
    pub const SIMS: u64 = 2;
    pub const ROUTES: u64 = 3;
    pub const ARRIVALS: u64 = 5;
    pub const CRASHES: u64 = 6;
    pub const SAMPLE: u64 = 7;
    pub const PROBE: u64 = 8;
}

/// The solver configuration every front and every replay uses.
pub fn solver_config() -> EcoChargeConfig {
    EcoChargeConfig::default()
}

/// Run both process-wide cost-model calibrations, so neither lands in a
/// served table.
pub fn calibrate() {
    std::hint::black_box(PruneCostModel::calibrated());
    std::hint::black_box(BackendCostModel::calibrated());
}

/// Seed of the serving world. The world is a constant of the workload —
/// the same city, chargers and weather for every run — and only the
/// clients, their arrival schedule and the crash points come from the
/// run's seed.
const WORLD_SEED: u64 = 1;

/// The static serving world: the default 40×32 urban grid, a charger
/// fleet and the component simulators.
pub struct World {
    pub graph: RoadGraph,
    pub fleet: ChargerFleet,
    pub sims: SimProviders,
}

impl World {
    pub fn build(w: &Workload) -> Self {
        let graph = urban_grid(&UrbanGridParams::default());
        let fleet = synth_fleet(
            &graph,
            &FleetParams {
                count: w.chargers,
                seed: mix(WORLD_SEED, stream::FLEET),
                ..Default::default()
            },
        );
        Self { graph, fleet, sims: SimProviders::new(mix(WORLD_SEED, stream::SIMS)) }
    }
}

/// The Auto-mode decisions this world gets from the calibrated models.
#[derive(Debug, Clone)]
pub struct Decisions {
    /// `PruneCostModel::calibrated().pool_threshold(k)`.
    pub prune_threshold: usize,
    /// Auto pruning engages: the fleet (every candidate is within the
    /// default 50 km radius on this grid) reaches the threshold.
    pub prune_on: bool,
    /// Index into [`crate::spec::BACKEND_LABELS`]: the engine a cold
    /// context picks at every possible fan-out.
    pub backend: usize,
}

impl Decisions {
    pub fn of(world: &World) -> Self {
        let k = solver_config().k;
        let prune_threshold = PruneCostModel::calibrated().pool_threshold(k);
        let n = world.fleet.len();
        let mut dijkstra = 0;
        for fanout in 1..=n {
            let settle = BackendCostModel::settle_fraction(fanout, n);
            let chosen =
                roadnet::resolve_backend(DetourBackend::Auto, &world.graph, fanout, false, settle);
            if chosen == DetourBackend::Dijkstra {
                dijkstra += 1;
            }
        }
        let backend = match dijkstra {
            d if d == n => 0,
            0 => 1,
            _ => 2,
        };
        Self { prune_threshold, prune_on: n >= prune_threshold, backend }
    }
}

/// `n` client trips in departure order, trip ids `0..n` in that order.
/// With a Zipf skew, each client takes a route shape (route + departure
/// second) from a catalog of `n` seeded shapes by Zipf rank; otherwise
/// every client has its own route. Ranks are drawn by stratified
/// sampling (client `k` takes the rank at quantile `(k + ½)/n`), so every
/// seed has the same rank histogram and seeds differ only in the routes
/// behind the ranks: independent draws moved the hit rate, and with it
/// throughput, by several percent from seed to seed.
pub fn clients(world: &World, w: &Workload, n: usize, seed: u64) -> Vec<Trip> {
    let catalog = generate_trips(
        &world.graph,
        &BrinkhoffParams {
            trips: n,
            min_trip_m: w.trip_m.0,
            max_trip_m: w.trip_m.1,
            window_secs: w.window_secs,
            seed: mix(seed, stream::ROUTES),
            ..BrinkhoffParams::default()
        },
    );
    let mut trips: Vec<Trip> = match w.zipf {
        None => catalog,
        Some(skew) => {
            let mut cum = Vec::with_capacity(n);
            let mut total = 0.0;
            for rank in 0..n {
                total += 1.0 / ((rank + 1) as f64).powf(skew);
                cum.push(total);
            }
            (0..n)
                .map(|k| {
                    let u = (k as f64 + 0.5) / n as f64 * total;
                    catalog[cum.partition_point(|&c| c < u).min(n - 1)].clone()
                })
                .collect()
        }
    };
    // Departure order; ties keep catalog/draw order (stable sort).
    trips.sort_by_key(|t| t.depart);
    for (i, t) in trips.iter_mut().enumerate() {
        t.id = TripId(u32::try_from(i).expect("client count fits u32"));
    }
    trips
}

/// Open-loop arrivals at `rate` per second: the offset of each of `n`
/// arrivals from the start of serving, seconds, ascending. Gaps are
/// uniform in `[0.5, 1.5] / rate` — seeded jitter around a steady rate.
pub fn arrivals(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(mix(seed, stream::ARRIVALS));
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += (0.5 + rng.next_f64()) / rate;
            t
        })
        .collect()
}

/// `count` distinct arrival indices in `[n/5, 4n/5)`, ascending — the
/// seeded crash points of a durable run.
pub fn crash_points(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let (lo, hi) = (n / 5, 4 * n / 5);
    let mut rng = SplitMix64::new(mix(seed, stream::CRASHES));
    let mut points: Vec<usize> = Vec::with_capacity(count);
    while points.len() < count.min(hi - lo) {
        let p = lo + rng.below((hi - lo) as u64) as usize;
        if !points.contains(&p) {
            points.push(p);
        }
    }
    points.sort_unstable();
    points
}

/// A seeded sample of up to `k` items of `items`, in their original order.
pub fn sample<T: Copy>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in 0..idx.len().min(k) {
        let j = i + rng.below((idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx.into_iter().map(|i| items[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_per_seed() {
        let a = arrivals(500, 80.0, 7);
        assert_eq!(a, arrivals(500, 80.0, 7));
        assert_ne!(a, arrivals(500, 80.0, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets ascend");
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!((mean_gap * 80.0 - 1.0).abs() < 0.05, "mean gap {mean_gap}");
        assert!(a.windows(2).all(|w| (w[1] - w[0]) * 80.0 >= 0.5 - 1e-9));
    }

    #[test]
    fn clients_are_deterministic_and_in_departure_order() {
        let w = crate::spec::workload("rush_hour_zipf").expect("workload exists");
        let world = World::build(&w);
        let a = clients(&world, &w, 200, 3);
        let b = clients(&world, &w, 200, 3);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|p| p[0].depart <= p[1].depart));
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id
            && x.depart == y.depart
            && x.route.nodes() == y.route.nodes()));
        assert!(a.iter().enumerate().all(|(i, t)| t.id.0 as usize == i));
    }

    #[test]
    fn crash_points_and_samples_are_seeded() {
        let c = crash_points(1000, 3, 5);
        assert_eq!(c, crash_points(1000, 3, 5));
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|&p| (200..800).contains(&p)));
        let items: Vec<usize> = (0..50).collect();
        let s = sample(&items, 10, 9);
        assert_eq!(s, sample(&items, 10, 9));
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
