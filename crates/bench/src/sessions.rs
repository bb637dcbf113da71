//! The `repro sessions` series — fleet-scale serving throughput.
//!
//! Sweeps the session count × worker-thread grid through one
//! [`SessionService`] per cell and measures what the serving layer
//! promises: throughput scales with threads, per-event latency stays
//! bounded under backpressure, the cross-session forecast ledger shows
//! real sharing — and every cell's Offering Tables are **bit-identical**
//! to the single-threaded run, with the baseline run spot-replayed
//! against a standalone [`EcoCharge`] on a fresh server. Written as
//! `BENCH_sessions.json` (hand-rolled — the vendored serde has no JSON
//! backend) so CI can archive the curve.

use crate::env::ExperimentEnv;
use crate::figures::HarnessConfig;
use crate::summary::percentile;
use ec_types::TripId;
use ecocharge_core::{EcoCharge, EcoChargeConfig, QueryCtx};
use ecocharge_session::{ServiceConfig, SessionService, SessionStats};
use eis::InfoServer;
use std::io::Write;
use std::path::Path;
use trajgen::{DatasetKind, Trip};

/// One cell of the sessions sweep.
#[derive(Debug, Clone)]
pub struct SessionsRow {
    /// Concurrent sessions registered.
    pub sessions: usize,
    /// `ServiceConfig::threads` for this cell.
    pub threads: usize,
    /// Events executed (re-ranks, rollovers, adaptations, retires).
    pub events: u64,
    /// Wall-clock registration time (segmentation + itinerary build), s.
    pub register_s: f64,
    /// Wall-clock serving time (`run_to_completion`), s.
    pub serve_s: f64,
    /// `events / serve_s`.
    pub events_per_s: f64,
    /// Median per-event execution latency, µs.
    pub p50_us: f64,
    /// 99th-percentile per-event execution latency, µs.
    pub p99_us: f64,
    /// Runnable events pushed past their tick by the budget.
    pub deferred: u64,
    /// Tables whose ranking changed (pushes to drivers).
    pub tables_emitted: u64,
    /// Fresh-forecast hits inherited from another session.
    pub shared_hits: u64,
    /// Share of forecast reads answered by another session's work.
    pub shared_hit_rate: f64,
    /// `events_per_s(this) / events_per_s(first thread count)`.
    pub speedup: f64,
    /// Event log and every session's solve record equal the first thread
    /// count's run; for the baseline cell itself, sampled sessions
    /// replayed bit-equal on a standalone solver.
    pub identical: bool,
}

/// `count` distinct-id trips from the environment's pool (wrapping the
/// pool when it is smaller — duplicate routes are fine, duplicate trip
/// ids are not, since sessions are keyed by trip).
fn session_trips(env: &ExperimentEnv, count: usize) -> Vec<Trip> {
    let pool = &env.dataset.trips;
    (0..count)
        .map(|i| {
            let mut trip = pool[i % pool.len()].clone();
            trip.id = TripId(i as u32);
            trip
        })
        .collect()
}

/// Replay `session`'s recorded solves on a standalone solver against a
/// fresh server; true when every table matches bit-for-bit.
fn replay_matches(
    env: &ExperimentEnv,
    config: EcoChargeConfig,
    session: &ecocharge_session::SessionState,
) -> bool {
    let server = InfoServer::from_sims(env.sims.clone());
    let ctx = QueryCtx::new(&env.dataset.graph, &env.fleet, &server, &env.sims, config);
    let resolved = roadnet::resolve_backend(
        config.detour_backend,
        &env.dataset.graph,
        env.fleet.len(),
        true,
        1.0,
    );
    if resolved == ecocharge_core::DetourBackend::Ch {
        ctx.adopt_detour_ch(env.shared_detour_ch(1));
    }
    let mut standalone = EcoCharge::new();
    session.solves.iter().all(|solve| {
        standalone
            .rerank(&ctx, &session.trip, solve.offset_m, solve.time)
            .map(|table| table == solve.table)
            .unwrap_or(false)
    })
}

fn serve_cell(
    env: &ExperimentEnv,
    harness: &HarnessConfig,
    trips: &[Trip],
    threads: usize,
) -> (SessionService, SessionStats, f64, f64) {
    let server = InfoServer::from_sims(env.sims.clone());
    let config =
        EcoChargeConfig { detour_backend: harness.detour_backend, ..EcoChargeConfig::default() };
    let ctx = QueryCtx::new(&env.dataset.graph, &env.fleet, &server, &env.sims, config);
    let resolved = roadnet::resolve_backend(
        harness.detour_backend,
        &env.dataset.graph,
        env.fleet.len(),
        true,
        1.0,
    );
    if resolved == ecocharge_core::DetourBackend::Ch {
        ctx.adopt_detour_ch(env.shared_detour_ch(threads));
    }
    let mut svc = SessionService::new(ServiceConfig { threads, ..ServiceConfig::default() });
    let started = std::time::Instant::now();
    for trip in trips {
        svc.register(&ctx, trip).expect("bench trips admit cleanly");
    }
    let register_s = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    svc.run_to_completion(&ctx).expect("bench serving");
    let serve_s = started.elapsed().as_secs_f64();
    let stats = svc.stats();
    (svc, stats, register_s, serve_s)
}

/// Run the sessions × threads sweep on the Oldenburg world. Within each
/// session count, the first entry of `thread_counts` (conventionally 1)
/// is the identity and speedup baseline.
#[must_use]
pub fn run_sessions(
    harness: &HarnessConfig,
    session_counts: &[usize],
    thread_counts: &[usize],
) -> Vec<SessionsRow> {
    let env = ExperimentEnv::build(DatasetKind::Oldenburg, harness.scale, harness.seed);
    let solver_config =
        EcoChargeConfig { detour_backend: harness.detour_backend, ..EcoChargeConfig::default() };
    let mut rows = Vec::new();
    for &count in session_counts {
        let trips = session_trips(&env, count);
        let mut baseline: Option<(f64, SessionService)> = None;
        for &threads in thread_counts {
            let (svc, stats, register_s, serve_s) = serve_cell(&env, harness, &trips, threads);
            let mut latencies = svc.event_latencies_us().to_vec();
            latencies.sort_by(f64::total_cmp);
            let events_per_s = stats.events_executed as f64 / serve_s.max(1e-9);
            let (speedup, identical) = match &baseline {
                None => {
                    // Spot-replay sampled sessions on a standalone solver.
                    let sessions: Vec<_> = svc.sessions().collect();
                    let sample = [0, sessions.len() / 2, sessions.len().saturating_sub(1)];
                    let ok =
                        sample.iter().all(|&i| replay_matches(&env, solver_config, sessions[i]));
                    (1.0, ok)
                }
                Some((base_eps, base_svc)) => {
                    let same_log = svc.event_log() == base_svc.event_log();
                    let same_solves = svc
                        .sessions()
                        .zip(base_svc.sessions())
                        .all(|(a, b)| a.id == b.id && a.solves == b.solves);
                    (events_per_s / base_eps.max(1e-9), same_log && same_solves)
                }
            };
            rows.push(SessionsRow {
                sessions: count,
                threads,
                events: stats.events_executed,
                register_s,
                serve_s,
                events_per_s,
                p50_us: percentile(&latencies, 0.50),
                p99_us: percentile(&latencies, 0.99),
                deferred: stats.events_deferred,
                tables_emitted: stats.tables_emitted,
                shared_hits: stats.forecast_shared_hits,
                shared_hit_rate: stats.shared_hit_rate(),
                speedup,
                identical,
            });
            if baseline.is_none() {
                baseline = Some((events_per_s, svc));
            }
        }
    }
    rows
}

/// Write the sweep as `BENCH_sessions.json`.
pub fn write_sessions_json(path: &Path, rows: &[SessionsRow]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"series\": \"sessions\",")?;
    writeln!(f, "  \"dataset\": \"Oldenburg\",")?;
    writeln!(f, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"sessions\": {}, \"threads\": {}, \"events\": {}, \
             \"register_s\": {:.4}, \"serve_s\": {:.4}, \"events_per_s\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"deferred\": {}, \
             \"tables_emitted\": {}, \"shared_hits\": {}, \"shared_hit_rate\": {:.4}, \
             \"speedup\": {:.4}, \"identical\": {}}}{sep}",
            r.sessions,
            r.threads,
            r.events,
            r.register_s,
            r.serve_s,
            r.events_per_s,
            r.p50_us,
            r.p99_us,
            r.deferred,
            r.tables_emitted,
            r.shared_hits,
            r.shared_hit_rate,
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
    use trajgen::DatasetScale;

    #[test]
    fn tiny_sweep_is_identical_and_shares() {
        let harness =
            HarnessConfig { scale: DatasetScale::smoke(), seed: 7, ..HarnessConfig::default() };
        let rows = run_sessions(&harness, &[4], &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.identical), "{rows:?}");
        assert!(rows.iter().all(|r| r.events > 0));
        let base = &rows[0];
        assert!((base.speedup - 1.0).abs() < 1e-9);
        assert!(base.shared_hits + base.tables_emitted > 0);
    }

    #[test]
    fn json_writer_emits_every_row() {
        let rows = vec![SessionsRow {
            sessions: 10,
            threads: 4,
            events: 120,
            register_s: 0.5,
            serve_s: 1.5,
            events_per_s: 80.0,
            p50_us: 900.0,
            p99_us: 4_000.0,
            deferred: 3,
            tables_emitted: 40,
            shared_hits: 25,
            shared_hit_rate: 0.4,
            speedup: 2.5,
            identical: true,
        }];
        let dir = std::env::temp_dir().join("ecocharge_sessions_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sessions.json");
        write_sessions_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sessions\": 10"));
        assert!(text.contains("\"identical\": true"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
