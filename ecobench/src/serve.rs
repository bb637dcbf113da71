//! One serving pass of a workload: build its front, drive the arrival
//! schedule through it, then read the front's counters and spot-check its
//! tables.

use crate::check::{check, Check};
use crate::drive::{Driver, Flat, Front, Refusals, Tracer};
use crate::measure::{dir_bytes, dir_files, mean, median, nearest_rank, peak_rss_mb, thread_cpu_s};
use crate::probe::SplitPoint;
use crate::spec::Workload;
use crate::world::{calibrate, crash_points, sample, solver_config, stream, World};
use ec_types::rng::mix as mix_seed;
use ecocharge_core::{PruneStats, QueryCtx};
use ecocharge_session::journal::snapshot_name;
use ecocharge_session::{
    read_journal, recover, Journal, JournalConfig, ServiceConfig, SessionPhase, SessionService,
    SessionStats, ShardConfig, ShardEnv, ShardedService, TableCacheConfig,
};
use eis::InfoServer;
use servecache::{CacheMetrics, TierSnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trajgen::Trip;

/// Shards of the sharded front.
const SHARDS: usize = 2;
/// Tick threads of every front. One: on a two-vCPU host the per-tick
/// thread spawns of a two-thread fan-out made run-to-run spreads exceed
/// every bound (see the README).
const TICK_THREADS: usize = 1;
/// Crash/recover points of a durable run.
const CRASHES: usize = 3;
/// Served sessions replayed by the correctness check, plus sessions that
/// recovery restored mid-trip.
const CHECK_SESSIONS: usize = 12;
const CHECK_RESTORED: usize = 6;
/// Split points the traced run's layer probe re-solves.
const PROBE_POINTS: usize = 150;

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        tile_depth: 3,
        threads: TICK_THREADS,
        service: ServiceConfig {
            table_cache: TableCacheConfig::enabled(),
            ..ServiceConfig::default()
        },
    }
}

/// Where a durable front journals: one fresh directory per pass.
fn journal_dir(out: &Path, tag: &str) -> PathBuf {
    let dir = out.join(format!("journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set-up cost split into its three parts, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub calibration_s: f64,
    pub world_s: f64,
    pub front_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.calibration_s + self.world_s + self.front_s
    }
}

/// Set the workload up once, from calibration to an empty front, and
/// time each part. Meant to run in a fresh process, since the cost-model
/// calibrations happen once per process.
pub fn setup_sample(w: &Workload, out: &Path) -> Result<SetupTimes, String> {
    let t = Instant::now();
    calibrate();
    let calibration_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let world = World::build(w);
    if w.sharded {
        let env = ShardEnv::new(&world.sims, SHARDS);
        let world_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let front = ShardedService::new(
            &env,
            &world.graph,
            &world.fleet,
            &world.sims,
            solver_config(),
            shard_config(),
        );
        let front_s = t.elapsed().as_secs_f64();
        black_box(&front);
        return Ok(SetupTimes { calibration_s, world_s, front_s });
    }
    let server = InfoServer::from_sims(world.sims.clone());
    let ctx = QueryCtx::new(&world.graph, &world.fleet, &server, &world.sims, solver_config());
    black_box(&ctx);
    let world_s = t.elapsed().as_secs_f64();
    let dir = journal_dir(out, "setup");
    let t = Instant::now();
    let svc = if w.durable {
        SessionService::with_journal(ServiceConfig::default(), JournalConfig::new(&dir))
            .map_err(|e| format!("journal create: {e}"))?
    } else {
        SessionService::new(ServiceConfig::default())
    };
    let front_s = t.elapsed().as_secs_f64();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(SetupTimes { calibration_s, world_s, front_s })
}

/// Everything one serving pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// First-table latency of every served session, ms.
    pub first_ms: Vec<f64>,
    /// Generator lateness per arrival, ms.
    pub late_ms: Vec<f64>,
    pub busy_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
    /// Events executed, hand-off markers discounted.
    pub events: u64,
    pub stats: SessionStats,
    pub registered: u64,
    pub refusals: Refusals,
    pub never_served: u64,
    /// Solve errors surfaced by a tick (the service quarantined).
    pub tick_error: Option<String>,
    pub recover_s: Vec<f64>,
    pub check: Check,
    /// Journal directory size at the end of a durable pass, MB.
    pub disk_mb: f64,
    pub layer: BTreeMap<&'static str, f64>,
    pub splits: Vec<SplitPoint>,
    pub tracer: Option<Tracer>,
}

fn tier(m: &CacheMetrics, name: &str) -> TierSnapshot {
    m.get(name).unwrap_or_default()
}

/// Read the driver's and the front's counters once serving has ended, and
/// run the correctness check.
fn finish(
    mut driver: Driver<'_>,
    front: &dyn Front,
    world: &World,
    seed: u64,
    durable: bool,
    restored: &[ec_types::SessionId],
    out: &mut Outcome,
) {
    driver.finish();
    let stats = front.stats();
    let caches = front.caches();
    let sessions = front.sessions();
    let (l1, l2, fresh) =
        (tier(&caches, "session.l1"), tier(&caches, "session.l2"), tier(&caches, "eis.fresh"));
    let mut prune = PruneStats::default();
    let (mut dyn_hits, mut dyn_misses) = (0u64, 0u64);
    for s in &sessions {
        prune.accumulate(s.solver().prune_stats());
        let (h, m) = s.cache_stats();
        dyn_hits += h;
        dyn_misses += m;
    }
    let lanes = front.lane_events();
    let lane_mean = lanes.iter().sum::<u64>() as f64 / lanes.len().max(1) as f64;
    let lane_max = lanes.iter().copied().max().unwrap_or(0) as f64;
    let mut ticks = driver.tick_ms.clone();
    ticks.sort_by(f64::total_cmp);
    let mut late = driver.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let trace = &driver.trace;
    out.layer.extend([
        ("scheduler.ticks", driver.ticks as f64),
        ("scheduler.batch_mean", ratio(driver.tick_events as f64, driver.ticks as f64)),
        ("scheduler.events_deferred", stats.events_deferred as f64),
        ("scheduler.backlog_max", trace.backlog_max as f64),
        ("scheduler.tick_p50_ms", nearest_rank(&ticks, 0.5)),
        ("scheduler.tick_p99_ms", nearest_rank(&ticks, 0.99)),
        ("register.count", driver.registered as f64),
        ("register.p50_us", median(&driver.register_us)),
        ("table_cache.l1_hit_rate", l1.hit_rate()),
        ("table_cache.l2_hit_rate", l2.hit_rate()),
        ("table_cache.l1_evictions", l1.evictions as f64),
        ("table_cache.l2_bytes", l2.bytes as f64),
        ("shard.handoffs", stats.handoffs as f64),
        ("shard.lane_events_max_over_mean", ratio(lane_max, lane_mean)),
        (
            "exec.parallel_efficiency",
            ratio(driver.tick_cpu_s, driver.tick_wall_s * TICK_THREADS as f64),
        ),
        ("eis.fresh_hit_rate", fresh.hit_rate()),
        ("eis.forecast_misses", stats.forecast_misses as f64),
        ("eis.shared_hit_rate", stats.shared_hit_rate()),
        ("prune.pool", prune.pool as f64),
        ("prune.exact_eval_share", ratio(prune.exact_evals as f64, prune.pool as f64)),
        ("solve.adapted_share", ratio(dyn_hits as f64, (dyn_hits + dyn_misses) as f64)),
        ("journal.records", stats.journal_records as f64),
        ("generator.late_p50_ms", nearest_rank(&late, 0.5)),
        ("generator.late_p99_ms", nearest_rank(&late, 0.99)),
    ]);

    // Correctness: a seeded sample of sessions holding recorded solves,
    // plus sessions crash recovery restored mid-trip.
    let served: Vec<ec_types::SessionId> =
        sessions.iter().filter(|s| !s.solves.is_empty()).map(|s| s.id).collect();
    let picked = sample(&served, CHECK_SESSIONS, mix_seed(seed, stream::SAMPLE));
    let restored = sample(restored, CHECK_RESTORED, mix_seed(seed, stream::SAMPLE + 100));
    out.check = check(world, &sessions, &picked, &restored, durable);

    // Split points for the layer probe: a seeded sample of served solves.
    if trace.tracer.is_some() {
        let solves: Vec<(usize, usize)> = sessions
            .iter()
            .enumerate()
            .flat_map(|(i, s)| (0..s.solves.len()).map(move |j| (i, j)))
            .collect();
        out.splits = sample(&solves, PROBE_POINTS, mix_seed(seed, stream::PROBE))
            .into_iter()
            .map(|(i, j)| {
                let solve = &sessions[i].solves[j];
                SplitPoint {
                    trip: sessions[i].trip.clone(),
                    offset_m: solve.offset_m,
                    time: solve.time,
                }
            })
            .collect();
    }

    out.stats = stats;
    out.events = stats.events_executed.saturating_sub(stats.handoffs);
    out.registered = driver.registered;
    out.refusals = driver.refusals;
    out.never_served = driver.never_served;
    out.busy_s = driver.busy.as_secs_f64();
    out.cpu_s = driver.busy_cpu_s;
    out.first_ms = driver.first_ms;
    out.late_ms = driver.late_ms;
    out.tracer = driver.trace.tracer.take();
}

/// Drive one full pass of `trips` arriving at `offsets` (seconds from the
/// start of serving) through the workload's front.
pub fn serve(
    w: &Workload,
    world: &World,
    trips: &[Trip],
    offsets: &[f64],
    seed: u64,
    tracer: Option<Tracer>,
    out_dir: &Path,
) -> Outcome {
    if w.durable {
        return serve_durable(world, trips, offsets, seed, tracer, out_dir);
    }
    let mut out = Outcome::default();
    let mut driver = Driver::new(trips, offsets, tracer);
    let (env, server, ctx);
    let mut front: Box<dyn Front + '_> = if w.sharded {
        env = ShardEnv::new(&world.sims, SHARDS);
        Box::new(ShardedService::new(
            &env,
            &world.graph,
            &world.fleet,
            &world.sims,
            solver_config(),
            shard_config(),
        ))
    } else {
        server = InfoServer::from_sims(world.sims.clone());
        ctx = QueryCtx::new(&world.graph, &world.fleet, &server, &world.sims, solver_config());
        Box::new(Flat { svc: SessionService::new(ServiceConfig::default()), ctx: &ctx })
    };
    driver.start();
    if let Err(e) = driver.run_until(front.as_mut(), trips.len()) {
        out.tick_error = Some(format!("[{}] {e}", e.code()));
    }
    out.rss_mb = peak_rss_mb();
    finish(driver, front.as_ref(), world, seed, false, &[], &mut out);
    // Journal, snapshot and recovery layers do not run on this front.
    out.layer.extend(DURABLE_ONLY.iter().map(|&name| (name, 0.0)));
    out
}

/// Layer metrics only a journaled front produces.
const DURABLE_ONLY: &[&str] = &[
    "journal.bytes_per_event",
    "journal.append_us",
    "snapshot.count",
    "snapshot.bytes",
    "snapshot.tick_ms",
    "recovery.read_ms",
    "recovery.events_replayed",
    "recovery.snapshot_bytes_loaded",
    "recover_s",
    "disk_mb",
];

/// The durable pass: a journaled flat service, crashed (dropped) right
/// after a seeded arrival's first table, while that trip is still queued,
/// and recovered. Each recovery gets a fresh
/// information server and query context, and its duration shifts the
/// arrivals still to come (the outage is reported as `recover_s`, not
/// folded into later sessions' latency).
fn serve_durable(
    world: &World,
    trips: &[Trip],
    offsets: &[f64],
    seed: u64,
    tracer: Option<Tracer>,
    out_dir: &Path,
) -> Outcome {
    let traced = tracer.is_some();
    let mut out = Outcome::default();
    let dir = journal_dir(out_dir, if traced { "traced" } else { "run" });
    let jconfig = JournalConfig::new(&dir);
    let config = ServiceConfig::default();
    let crashes = crash_points(trips.len(), CRASHES, seed);
    let mut driver = Driver::new(trips, offsets, tracer);
    driver.watch_snapshots = true;
    let mut svc = Some(
        SessionService::with_journal(config, jconfig.clone())
            .expect("the benchmark's journal directory is writable"),
    );
    let mut restored = Vec::new();
    let mut fresh = TierSnapshot::default();
    let (mut replayed, mut snapshot_bytes_loaded) = (0u64, 0u64);
    driver.start();
    for epoch in 0..=crashes.len() {
        let stop = crashes.get(epoch).copied().unwrap_or(trips.len());
        if epoch > 0 {
            drop(svc.take());
        }
        let (t0, cpu0) = (Instant::now(), thread_cpu_s());
        let server = InfoServer::from_sims(world.sims.clone());
        let ctx = QueryCtx::new(&world.graph, &world.fleet, &server, &world.sims, solver_config());
        if epoch > 0 {
            let (recovered, report) = recover(&ctx, config, jconfig.clone())
                .expect("recovery of an intact journal succeeds");
            let t1 = Instant::now();
            driver.recovered(t0, t1, thread_cpu_s() - cpu0);
            out.recover_s.push((t1 - t0).as_secs_f64());
            replayed += report.events_replayed;
            if let Some(wm) = report.snapshot_watermark {
                snapshot_bytes_loaded +=
                    std::fs::metadata(dir.join(snapshot_name(wm))).map_or(0, |m| m.len());
            }
            restored.extend(
                recovered
                    .sessions()
                    .filter(|s| s.phase == SessionPhase::Active && s.next_stop() > 0)
                    .map(|s| s.id),
            );
            svc = Some(recovered);
        }
        let mut front = Flat { svc: svc.take().expect("a live service"), ctx: &ctx };
        if let Err(e) = driver.run_until(&mut front, stop) {
            out.tick_error = Some(format!("[{}] {e}", e.code()));
        }
        fresh = fresh.merge(tier(&front.caches(), "eis.fresh"));
        if epoch == crashes.len() || out.tick_error.is_some() {
            out.rss_mb = peak_rss_mb();
            let (snaps, plain) =
                (driver.trace.snapshot_ticks.clone(), driver.trace.plain_ticks.clone());
            restored.sort_unstable();
            restored.dedup();
            finish(driver, &front, world, seed, true, &restored, &mut out);
            out.layer.insert(
                "snapshot.tick_ms",
                if snaps.is_empty() { 0.0 } else { (mean(&snaps) - mean(&plain)) * 1e3 },
            );
            break;
        }
        svc = Some(front.svc);
    }

    let is_snap = |n: &str| n.starts_with("snap-");
    let journal_bytes = std::fs::metadata(jconfig.journal_path()).map_or(0, |m| m.len());
    let disk = dir_bytes(&dir, |_| true);
    out.disk_mb = disk as f64 / (1024.0 * 1024.0);
    out.layer.extend([
        ("eis.fresh_hit_rate", fresh.hit_rate()),
        ("journal.bytes_per_event", journal_bytes as f64 / out.events.max(1) as f64),
        ("snapshot.count", dir_files(&dir, is_snap) as f64),
        ("snapshot.bytes", dir_bytes(&dir, is_snap) as f64),
        ("recovery.events_replayed", replayed as f64),
        ("recovery.snapshot_bytes_loaded", snapshot_bytes_loaded as f64),
        ("recover_s", median(&out.recover_s)),
        ("disk_mb", out.disk_mb),
    ]);
    if traced {
        let (read_ms, append_us) = journal_costs(&jconfig, out_dir);
        out.layer.extend([("recovery.read_ms", read_ms), ("journal.append_us", append_us)]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Time one `read_journal` of the final journal, and the mean cost of
/// re-appending its records into a scratch journal.
fn journal_costs(jconfig: &JournalConfig, out_dir: &Path) -> (f64, f64) {
    let t = Instant::now();
    let read = read_journal(&jconfig.journal_path()).expect("the journal just written reads back");
    let read_ms = t.elapsed().as_secs_f64() * 1e3;
    let scratch = journal_dir(out_dir, "append");
    let mut journal = Journal::create(
        JournalConfig { snapshot_every_ticks: 0, ..JournalConfig::new(&scratch) },
        read.adapt_every,
    )
    .expect("the scratch journal directory is writable");
    let t = Instant::now();
    for record in &read.records {
        journal.append(record).expect("scratch journal append");
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6 / read.records.len().max(1) as f64;
    drop(journal);
    let _ = std::fs::remove_dir_all(&scratch);
    (read_ms, append_us)
}
