//! Geographic sharding: partition the world, not the fleet.
//!
//! [`ShardedService`] splits the served region into quadtree tiles
//! ([`spatial_index::TileGrid`]), balances the tiles across N shards by
//! charger count (LPT greedy — the classic longest-processing-time
//! heuristic), and runs one full serving stack per shard: its own
//! deterministic [`crate::EventScheduler`], its own
//! [`eis::InfoServer`] (forecast cache + [`eis::ForecastShare`] ledger)
//! and its own [`ecocharge_core::QueryCtx`] (search scratch, shared CH
//! detour index). A session is served by the shard its trip currently
//! drives through; shard tick batches execute in parallel through
//! `ec-exec`.
//!
//! ## Hand-off
//!
//! A trip that crosses a tile boundary owned by another shard carries a
//! [`EventKind::Handoff`] stop in its itinerary at the `(time, offset)`
//! of the first stop of the new shard run. Executing it produces no
//! solve — the origin shard drops the session from its registry
//! ([`SessionService::take_departures`]) and the front delivers the
//! *whole* session object (solver with its Dynamic-Cache slot, cursor,
//! last ranking, solve record) to the destination shard
//! ([`SessionService::adopt_session`]) at the end of the global tick.
//! Hand-off is pure transfer: no re-plan, no re-solve, nothing a table
//! could observe.
//!
//! Itinerary stops are assigned to shards **per time group**: all stops
//! sharing one virtual second stay on one shard (the shard under the
//! group's first stop). This keeps the heap's `(time, session, kind)`
//! order consistent with itinerary order — a `Handoff` sorts before
//! every other kind at its instant, so it may only front a time group,
//! never split one.
//!
//! ## The sharded determinism argument
//!
//! The unsharded [`SessionService`] promises bit-identical Offering
//! Tables at any thread count. Sharding adds two claims:
//!
//! 1. **Per-session solves are untouched.** A session's events execute
//!    in itinerary order whatever shard executes them (the cursor
//!    travels with the session), at unchanged `(offset, time)` instants,
//!    against its private solver state (which travels too). Forecast
//!    purity per `(key, window)` makes the answering server
//!    interchangeable — a different shard's cache returns byte-identical
//!    values. So every solve, and hence every table, is bit-identical to
//!    the unsharded run at any shard count.
//! 2. **The merged log is the total order.** Each shard's event log is a
//!    subsequence of the global `(time, session, kind)` order; merging
//!    the per-shard logs and dropping the `Handoff` markers reproduces
//!    the unsharded service's log exactly.
//!
//! ## Forecast federation
//!
//! Federation has two halves on two cadences:
//!
//! * **values, every tick** — each shard drains the fresh forecast
//!   cells it computed this tick
//!   ([`eis::InfoServer::export_fresh_cells`]) and every peer installs
//!   them, together with the exporting ledger's ownership claims. By
//!   forecast purity per `(key, window)` the installed bytes are
//!   exactly what the peer would compute itself, so value federation is
//!   bit-identity preserving — it only turns the peer's would-be misses
//!   into *shared* hits, which is precisely the cross-session reuse the
//!   unsharded server gives co-located sessions for free and
//!   partitioning would otherwise destroy. Draining is incremental, so
//!   each round costs O(cells computed this round), not O(cache size);
//! * **counters, at drain and on demand** — each shard's
//!   [`eis::ForecastShare`] ledger is exported and merged into one
//!   [`eis::Ledger`] — a pure CRDT-style join (commutative,
//!   associative, idempotent; see [`eis::share`]), so federation needs
//!   no global lock and no coordination. Exporting clones the owners
//!   map, so the join stays off the per-tick path.
//!
//! ## Crash safety
//!
//! A journaled front ([`ShardedService::with_journal`]) gives every
//! shard its own write-ahead journal under `dir/shard-N`, snapshots
//! disabled — recovery replays the full logs. [`recover_sharded`]
//! replays all shard journals **in causal lockstep**: a commit is
//! replayable once every session it touches is present on its shard, and
//! replaying a commit immediately delivers the hand-offs it produced, so
//! cross-shard adoptions replay exactly as they happened. Registration
//! records stay identical to the unsharded wire format (the sharded
//! itinerary is a pure function of `(trip, config, shard plan)` and is
//! recomputed, never journaled).

use crate::error::{RecoveryError, RegisterError, SessionError};
use crate::journal::{read_journal, Journal, JournalConfig, Record};
use crate::recovery::{rebuild_trip, RecoveryReport};
use crate::registry::{build_itinerary, PlannedStop, SessionState};
use crate::scheduler::{Event, EventKind};
use crate::service::{ServiceConfig, SessionService};
use crate::stats::SessionStats;
use ec_types::{EcError, GeoPoint, SessionId, SimDuration};
use ecocharge_core::{EcoChargeConfig, QueryCtx};
use eis::{InfoServer, Ledger, SimProviders};
use spatial_index::TileGrid;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sharding knobs, wrapped around the per-shard [`ServiceConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards (≥ 1; 1 degenerates to unsharded serving with
    /// zero hand-offs).
    pub shards: usize,
    /// Quadtree tile depth: the world is split into `4^depth` tiles
    /// before balancing (must exceed neither
    /// [`spatial_index::MAX_TILE_DEPTH`] nor what memory allows; depth 3
    /// = 64 tiles balances up to ~16 shards well).
    pub tile_depth: u32,
    /// Worker threads for the global tick: up to `min(threads, shards)`
    /// lanes execute their batches concurrently. Within a lane, batches
    /// always run single-threaded — the shard *is* the unit of
    /// parallelism here (within-shard batch fan-out is the unsharded
    /// service's own `threads` knob, measured by the bench's `sessions`
    /// series; stacking both would oversubscribe the host).
    pub threads: usize,
    /// The per-shard serving config ([`ServiceConfig::threads`] is
    /// overridden to 1 per the above; `max_sessions` applies per shard).
    pub service: ServiceConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards: 4, tile_depth: 3, threads: 1, service: ServiceConfig::default() }
    }
}

impl ShardConfig {
    /// Lanes ticked concurrently per global tick.
    #[must_use]
    pub fn tick_workers(&self) -> usize {
        self.threads.min(self.shards).max(1)
    }

    /// The config one lane's [`SessionService`] runs under.
    fn lane_config(&self) -> ServiceConfig {
        ServiceConfig { threads: 1, ..self.service }
    }
}

/// The geographic partition: a fixed-depth tile grid over the graph's
/// bounding box plus a balanced tile→shard assignment. Pure in
/// `(graph bounds, fleet, shards, depth)`, so every process — including
/// crash recovery — recomputes the identical plan.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    grid: TileGrid,
    assignment: Vec<u32>,
    shards: usize,
    load: Vec<u64>,
}

impl ShardPlan {
    /// Partition `graph.bounds()` at `tile_depth` and balance the tiles
    /// across `shards` by charger count: tiles are taken heaviest-first
    /// (ties by tile id) and each goes to the least-loaded shard (ties
    /// by shard id) — LPT greedy, within 4/3 of the optimal makespan and
    /// fully deterministic.
    #[must_use]
    pub fn build(
        graph: &roadnet::RoadGraph,
        fleet: &chargers::ChargerFleet,
        shards: usize,
        tile_depth: u32,
    ) -> Self {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let grid = TileGrid::new(graph.bounds(), tile_depth);
        let tiles = grid.num_tiles() as usize;
        let mut counts = vec![0u64; tiles];
        for charger in fleet.all() {
            counts[grid.tile_of(&charger.loc) as usize] += 1;
        }
        let mut order: Vec<usize> = (0..tiles).collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(counts[t]), t));
        let mut load = vec![0u64; shards];
        let mut assignment = vec![0u32; tiles];
        for t in order {
            let s = (0..shards).min_by_key(|&s| (load[s], s)).expect("shards >= 1");
            assignment[t] = s as u32;
            load[s] += counts[t];
        }
        Self { grid, assignment, shards, load }
    }

    /// The shard owning the tile under `pos` (out-of-bounds positions
    /// clamp onto the boundary, as in [`TileGrid::tile_of`]).
    #[must_use]
    pub fn shard_of(&self, pos: &GeoPoint) -> usize {
        self.assignment[self.grid.tile_of(pos) as usize] as usize
    }

    /// Shard count.
    #[must_use]
    pub const fn num_shards(&self) -> usize {
        self.shards
    }

    /// The tile grid the plan partitions.
    #[must_use]
    pub const fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Chargers per shard under the balanced assignment.
    #[must_use]
    pub fn charger_load(&self) -> &[u64] {
        &self.load
    }
}

/// Plan a trip's itinerary for sharded serving: the unsharded
/// [`build_itinerary`] with a [`EventKind::Handoff`] stop inserted in
/// front of every shard change. Returns the itinerary and the home
/// shard (the shard of the first stop). Stops are assigned per *time
/// group* — see the module docs for why a group never splits.
///
/// # Errors
/// As [`build_itinerary`].
pub fn build_sharded_itinerary(
    ctx: &QueryCtx<'_>,
    trip: &trajgen::Trip,
    adapt_every: SimDuration,
    plan: &ShardPlan,
) -> Result<(Vec<PlannedStop>, usize), EcError> {
    let base = build_itinerary(ctx, trip, adapt_every)?;
    if plan.num_shards() == 1 {
        return Ok((base, 0));
    }
    let mut out = Vec::with_capacity(base.len() + 4);
    let mut home = None;
    let mut current = 0usize;
    let mut i = 0;
    while i < base.len() {
        let time = base[i].time;
        let shard = plan.shard_of(&trip.position_at_offset(ctx.graph, base[i].offset_m));
        match home {
            None => {
                home = Some(shard);
                current = shard;
            }
            Some(_) if shard != current => {
                out.push(PlannedStop {
                    kind: EventKind::Handoff,
                    time,
                    offset_m: base[i].offset_m,
                });
                current = shard;
            }
            Some(_) => {}
        }
        while i < base.len() && base[i].time == time {
            out.push(base[i]);
            i += 1;
        }
    }
    Ok((out, home.unwrap_or(0)))
}

/// The per-shard environment the lanes borrow: one [`InfoServer`] per
/// shard (own forecast cache, own [`eis::ForecastShare`] ledger). Kept
/// outside [`ShardedService`] so the service can borrow the servers for
/// its lifetime.
#[derive(Debug)]
pub struct ShardEnv {
    servers: Vec<InfoServer>,
}

impl ShardEnv {
    /// One model-backed server per shard over shared simulators, each
    /// logging its fresh-tier computations for the per-tick value
    /// federation round.
    #[must_use]
    pub fn new(sims: &SimProviders, shards: usize) -> Self {
        let servers: Vec<InfoServer> =
            (0..shards).map(|_| InfoServer::from_sims(sims.clone())).collect();
        for server in &servers {
            server.enable_federation();
        }
        Self { servers }
    }

    /// The per-shard servers, shard order.
    #[must_use]
    pub fn servers(&self) -> &[InfoServer] {
        &self.servers
    }
}

/// One shard's serving stack: its service plus the context it solves
/// against (per-shard server, shared graph/fleet/sims).
struct Lane<'a> {
    service: SessionService,
    ctx: QueryCtx<'a>,
}

impl std::fmt::Debug for Lane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane").field("service", &self.service).finish_non_exhaustive()
    }
}

/// The sharded front: keeps the unsharded `register → tick → retire`
/// surface while fanning work across geographic shards. See the module
/// docs for the architecture and the determinism argument.
#[derive(Debug)]
pub struct ShardedService<'a> {
    plan: ShardPlan,
    lanes: Vec<Lane<'a>>,
    ledger: Ledger,
    graph: &'a roadnet::RoadGraph,
    adapt_every: SimDuration,
    tick_workers: usize,
}

impl<'a> ShardedService<'a> {
    /// An unjournaled sharded front. `env` must hold exactly
    /// `shard.shards` servers.
    #[must_use]
    pub fn new(
        env: &'a ShardEnv,
        graph: &'a roadnet::RoadGraph,
        fleet: &'a chargers::ChargerFleet,
        sims: &'a SimProviders,
        config: EcoChargeConfig,
        shard: ShardConfig,
    ) -> Self {
        Self::assemble(env, graph, fleet, sims, config, shard, None).expect("unjournaled")
    }

    /// A sharded front journaling every shard under `dir/shard-N`.
    /// Snapshots are disabled shard-wide: sharded recovery replays the
    /// full per-shard logs in causal lockstep (a snapshot would restore
    /// one shard past adoptions its peers have not yet replayed).
    ///
    /// # Errors
    /// [`SessionError::Journal`] when a shard journal cannot be created.
    pub fn with_journal(
        env: &'a ShardEnv,
        graph: &'a roadnet::RoadGraph,
        fleet: &'a chargers::ChargerFleet,
        sims: &'a SimProviders,
        config: EcoChargeConfig,
        shard: ShardConfig,
        dir: &Path,
    ) -> Result<Self, SessionError> {
        Self::assemble(env, graph, fleet, sims, config, shard, Some(dir.to_path_buf()))
    }

    fn assemble(
        env: &'a ShardEnv,
        graph: &'a roadnet::RoadGraph,
        fleet: &'a chargers::ChargerFleet,
        sims: &'a SimProviders,
        config: EcoChargeConfig,
        shard: ShardConfig,
        journal_dir: Option<PathBuf>,
    ) -> Result<Self, SessionError> {
        assert_eq!(
            env.servers.len(),
            shard.shards,
            "the ShardEnv must hold one InfoServer per shard"
        );
        let plan = ShardPlan::build(graph, fleet, shard.shards, shard.tile_depth);
        let lane_config = shard.lane_config();
        let mut lanes = Vec::with_capacity(shard.shards);
        for (i, server) in env.servers.iter().enumerate() {
            let mut service = match &journal_dir {
                Some(dir) => {
                    SessionService::with_journal(lane_config, shard_journal_config(dir, i))?
                }
                None => SessionService::new(lane_config),
            };
            let ctx = QueryCtx::new(graph, fleet, server, sims, config);
            service.attach_share(server.forecast_share());
            lanes.push(Lane { service, ctx });
        }
        Ok(Self {
            plan,
            lanes,
            ledger: Ledger::default(),
            graph,
            adapt_every: shard.service.adapt_every,
            tick_workers: shard.tick_workers(),
        })
    }

    /// Share one prebuilt CH detour index across every shard's context
    /// (each shard would otherwise build its own copy on first use).
    pub fn adopt_detour_ch(&self, ch: &Arc<roadnet::DetourCh>) {
        for lane in &self.lanes {
            lane.ctx.adopt_detour_ch(Arc::clone(ch));
        }
    }

    /// The partition in force.
    #[must_use]
    pub const fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Admit `trip`: plan its sharded itinerary and register it on its
    /// home shard (the shard under its first stop).
    ///
    /// # Errors
    /// As [`SessionService::register`]; duplicates are refused across
    /// *all* shards (a session may live on any of them).
    pub fn register(&mut self, trip: &trajgen::Trip) -> Result<SessionId, RegisterError> {
        let id = SessionId(trip.id.0);
        if self.lanes.iter().any(|l| l.service.session(id).is_some()) {
            return Err(RegisterError::Duplicate(id));
        }
        let (itinerary, home) = {
            let ctx = &self.lanes[0].ctx;
            build_sharded_itinerary(ctx, trip, self.adapt_every, &self.plan)
                .map_err(RegisterError::Planning)?
        };
        let Lane { service, ctx } = &mut self.lanes[home];
        service.register_planned(ctx, trip, Some(itinerary))
    }

    /// One **global tick**: every shard executes one batch concurrently,
    /// then the front delivers the round's hand-offs and runs the
    /// federation round (forecast values + ledger join, see the module
    /// docs). Returns events executed across all shards.
    ///
    /// # Errors
    /// The first failing shard's error, in shard order (that shard is
    /// quarantined; hand-offs staged by healthy shards stay staged — the
    /// per-shard journals remain the source of truth).
    pub fn tick(&mut self) -> Result<usize, SessionError> {
        let results = ec_exec::parallel_map_mut(
            self.tick_workers,
            &mut self.lanes,
            |_| (),
            |(), _, lane| {
                let Lane { service, ctx } = lane;
                service.tick(ctx)
            },
        );
        self.finish_tick(results)
    }

    /// One global tick with the lanes executed **serially**, returning
    /// `(events executed, per-lane seconds)`. The outcome is identical
    /// to [`ShardedService::tick`] — lanes are independent within a tick
    /// (hand-off delivery and federation happen only after every lane
    /// ran), so execution order cannot matter — but each lane's cost is
    /// measured in isolation. A scheduler model over those timings can
    /// price the parallel schedule exactly even on a host with fewer
    /// cores than shards, where wall-clocking [`ShardedService::tick`]
    /// would only measure time-slicing (see the bench's `repro shard`
    /// critical-path throughput).
    ///
    /// # Errors
    /// As [`ShardedService::tick`].
    pub fn tick_timed(&mut self) -> Result<(usize, Vec<f64>), SessionError> {
        let mut results = Vec::with_capacity(self.lanes.len());
        let mut lane_s = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            let started = std::time::Instant::now();
            let Lane { service, ctx } = lane;
            results.push(service.tick(ctx));
            lane_s.push(started.elapsed().as_secs_f64());
        }
        Ok((self.finish_tick(results)?, lane_s))
    }

    /// The shared tail of a global tick: surface the first lane error
    /// (every lane has already run), deliver hand-offs, federate.
    fn finish_tick(
        &mut self,
        results: Vec<Result<usize, SessionError>>,
    ) -> Result<usize, SessionError> {
        let mut executed = 0;
        for result in results {
            executed += result?;
        }
        self.deliver_handoffs();
        self.federate_values();
        Ok(executed)
    }

    /// Move every staged departure to its destination shard.
    fn deliver_handoffs(&mut self) {
        let mut moves: Vec<(usize, SessionState)> = Vec::new();
        for lane in &mut self.lanes {
            for state in lane.service.take_departures() {
                let next = state
                    .next_event()
                    .expect("a Handoff stop always fronts at least one more stop");
                let dest =
                    self.plan.shard_of(&state.trip.position_at_offset(self.graph, next.offset_m));
                moves.push((dest, state));
            }
        }
        for (dest, state) in moves {
            self.lanes[dest].service.adopt_session(state);
        }
    }

    /// A full federation round: this tick's values plus the ledger
    /// counter join.
    fn federate(&mut self) {
        self.federate_values();
        let ledger = &mut self.ledger;
        for (i, lane) in self.lanes.iter().enumerate() {
            ledger.merge(&lane.ctx.server.forecast_share().export(i as u32));
        }
    }

    /// Value federation: move the fresh forecast cells computed since
    /// the last round to every peer shard (bit-identity preserving by
    /// forecast purity, see the module docs). Incremental — each round
    /// costs O(cells computed this round), so it runs every tick. The
    /// ledger counter join does *not*: exporting a [`eis::ForecastShare`]
    /// clones its whole owners map, so the join runs only at drain
    /// ([`ShardedService::run_to_completion`]) and on demand
    /// ([`ShardedService::federated_ledger`]), which always see a fresh
    /// join anyway.
    fn federate_values(&mut self) {
        if self.lanes.len() > 1 {
            let deltas: Vec<eis::ForecastCells> =
                self.lanes.iter().map(|l| l.ctx.server.export_fresh_cells()).collect();
            for (j, lane) in self.lanes.iter().enumerate() {
                for (i, delta) in deltas.iter().enumerate() {
                    if i != j && !delta.is_empty() {
                        lane.ctx.server.install_fresh_cells(delta);
                    }
                }
            }
        }
    }

    /// Global-tick until every shard's queue drains.
    ///
    /// # Errors
    /// As [`ShardedService::tick`].
    pub fn run_to_completion(&mut self) -> Result<(), SessionError> {
        while self.pending_events() > 0 {
            self.tick()?;
        }
        self.federate();
        Ok(())
    }

    /// Events still queued, all shards.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.lanes.iter().map(|l| l.service.pending_events()).sum()
    }

    /// Live sessions, all shards.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.lanes.iter().map(|l| l.service.active_sessions()).sum()
    }

    /// Fleet-wide counters: per-shard stats [`SessionStats::absorb`]ed
    /// together (saturating). `events_executed` and `handoffs` count the
    /// `Handoff` markers, so they exceed the unsharded run's figures by
    /// exactly [`SessionStats::handoffs`].
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for lane in &self.lanes {
            total.absorb(&lane.service.stats());
        }
        total
    }

    /// Per-shard counter snapshots, shard order.
    #[must_use]
    pub fn per_shard_stats(&self) -> Vec<SessionStats> {
        self.lanes.iter().map(|l| l.service.stats()).collect()
    }

    /// The unified cache-metrics registry across the whole front: every
    /// lane's `session.l1` and the per-shard InfoServer forecast tiers
    /// (`eis.fresh`, `eis.lkg`), each merged across lanes. Observational counters — never part of the
    /// identity contract.
    #[must_use]
    pub fn cache_metrics(&self) -> servecache::CacheMetrics {
        let mut metrics = servecache::CacheMetrics::default();
        for lane in &self.lanes {
            metrics.absorb(&lane.service.cache_metrics());
            metrics.absorb(&lane.ctx.server.cache_metrics());
        }
        metrics
    }

    /// Per-event execution latencies across every lane, µs. Lane order,
    /// not execution order — use for percentiles, not for sequencing.
    #[must_use]
    pub fn event_latencies_us(&self) -> Vec<f64> {
        self.lanes
            .iter()
            .flat_map(|lane| lane.service.event_latencies_us().iter().copied())
            .collect()
    }

    /// The federated forecast ledger as of the last join, re-joined
    /// fresh so late observations are visible without waiting a tick.
    #[must_use]
    pub fn federated_ledger(&self) -> Ledger {
        let mut ledger = self.ledger.clone();
        for (i, lane) in self.lanes.iter().enumerate() {
            ledger.merge(&lane.ctx.server.forecast_share().export(i as u32));
        }
        ledger
    }

    /// The merged execution log: every shard's log, `Handoff` markers
    /// dropped, merged into `(time, session, kind)` order — by the
    /// determinism argument, exactly the unsharded service's log.
    #[must_use]
    pub fn event_log(&self) -> Vec<Event> {
        let mut log: Vec<Event> = self
            .lanes
            .iter()
            .flat_map(|l| l.service.event_log().iter().copied())
            .filter(|e| e.kind != EventKind::Handoff)
            .collect();
        log.sort_by_key(Event::key);
        log
    }

    /// One session by id, wherever it currently lives.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&SessionState> {
        self.lanes.iter().find_map(|l| l.service.session(id))
    }

    /// All sessions in id order, across shards.
    #[must_use]
    pub fn sessions(&self) -> Vec<&SessionState> {
        let mut all: Vec<&SessionState> =
            self.lanes.iter().flat_map(|l| l.service.sessions()).collect();
        all.sort_by_key(|s| s.id);
        all
    }
}

/// The journal layout of shard `i` under the front's journal directory.
fn shard_journal_config(dir: &Path, shard: usize) -> JournalConfig {
    JournalConfig {
        snapshot_every_ticks: 0,
        ..JournalConfig::new(dir.join(format!("shard-{shard}")))
    }
}

/// Rebuild a sharded front from its per-shard journals (see the module
/// docs). Every shard's full log is replayed; commits replay in causal
/// lockstep so cross-shard adoptions happen exactly as they did live,
/// and every replayed batch re-verifies events, outcomes and watermarks
/// against the journal.
///
/// # Errors
/// Per-shard as [`crate::recover`]; additionally
/// [`RecoveryError::ReplayDivergence`] when a journal registers a
/// session on a shard the recomputed plan does not home it on, or when
/// commit records reference adoptions no surviving journal explains
/// (cross-shard causality broken by corruption).
pub fn recover_sharded<'a>(
    env: &'a ShardEnv,
    graph: &'a roadnet::RoadGraph,
    fleet: &'a chargers::ChargerFleet,
    sims: &'a SimProviders,
    config: EcoChargeConfig,
    shard: ShardConfig,
    dir: &Path,
) -> Result<(ShardedService<'a>, Vec<RecoveryReport>), RecoveryError> {
    assert_eq!(env.servers.len(), shard.shards, "the ShardEnv must hold one InfoServer per shard");
    let plan = ShardPlan::build(graph, fleet, shard.shards, shard.tile_depth);

    let mut reads = Vec::with_capacity(shard.shards);
    for i in 0..shard.shards {
        let jconfig = shard_journal_config(dir, i);
        let path = jconfig.journal_path();
        if !path.exists() {
            return Err(RecoveryError::MissingJournal { dir: jconfig.dir.display().to_string() });
        }
        let read = read_journal(&path)?;
        if read.adapt_every != shard.service.adapt_every {
            return Err(RecoveryError::ConfigMismatch {
                what: "adapt_every",
                journal: read.adapt_every.as_secs(),
                config: shard.service.adapt_every.as_secs(),
            });
        }
        reads.push(read);
    }

    let lane_config = shard.lane_config();
    let mut lanes: Vec<Lane<'a>> = env
        .servers
        .iter()
        .map(|server| {
            let service =
                SessionService::from_recovery(lane_config, SessionStats::default(), Vec::new());
            Lane { service, ctx: QueryCtx::new(graph, fleet, server, sims, config) }
        })
        .collect();
    let mut reports: Vec<RecoveryReport> = reads
        .iter()
        .map(|r| RecoveryReport {
            tail_defect: r.tail_defect.clone(),
            healed_len: r.valid_len,
            ..RecoveryReport::default()
        })
        .collect();

    // Causal lockstep: round-robin over shards, each replaying records
    // until one is not yet *ready* — a commit touching a session whose
    // adoption a peer shard has not replayed. Replaying the peer's
    // Handoff commit delivers the adoption and unblocks it next pass.
    let mut cursors = vec![0usize; shard.shards];
    loop {
        let mut progressed = false;
        for i in 0..shard.shards {
            while let Some(record) = reads[i].records.get(cursors[i]) {
                if let Record::Commit { entries, .. } = record {
                    if !entries.iter().all(|e| lanes[i].service.session(e.session).is_some()) {
                        break;
                    }
                }
                match record {
                    Record::Register { session, vehicle, depart, nodes } => {
                        let trip =
                            rebuild_trip(&lanes[i].ctx, session.0, *vehicle, *depart, nodes)?;
                        let (itinerary, home) = build_sharded_itinerary(
                            &lanes[i].ctx,
                            &trip,
                            shard.service.adapt_every,
                            &plan,
                        )
                        .map_err(RecoveryError::Planning)?;
                        if home != i {
                            return Err(RecoveryError::ReplayDivergence {
                                detail: format!(
                                    "shard {i} journals the admission of session {session} but \
                                     the recomputed plan homes it on shard {home}"
                                ),
                            });
                        }
                        let Lane { service, ctx } = &mut lanes[i];
                        service.replay_register_planned(ctx, &trip, Some(itinerary))?;
                        reports[i].registers_replayed += 1;
                    }
                    Record::Commit { after, deferred, entries } => {
                        {
                            let Lane { service, ctx } = &mut lanes[i];
                            service.replay_commit(ctx, entries, *deferred, *after).map_err(
                                |e| match e {
                                    SessionError::Recovery(r) => r,
                                    other => RecoveryError::ReplayDivergence {
                                        detail: other.to_string(),
                                    },
                                },
                            )?;
                        }
                        reports[i].commits_replayed += 1;
                        reports[i].events_replayed += entries.len() as u64;
                        let moves: Vec<(usize, SessionState)> = lanes[i]
                            .service
                            .take_departures()
                            .into_iter()
                            .map(|state| {
                                let next = state
                                    .next_event()
                                    .expect("a Handoff stop always fronts at least one more stop");
                                let dest = plan
                                    .shard_of(&state.trip.position_at_offset(graph, next.offset_m));
                                (dest, state)
                            })
                            .collect();
                        for (dest, state) in moves {
                            lanes[dest].service.adopt_session(state);
                        }
                    }
                }
                cursors[i] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    if let Some(stuck) = (0..shard.shards).find(|&i| cursors[i] < reads[i].records.len()) {
        return Err(RecoveryError::ReplayDivergence {
            detail: format!(
                "shard {stuck} holds {} unreplayable commit record(s) referencing sessions no \
                 surviving journal hands off to it — cross-shard causality broken (corrupt or \
                 inconsistently healed journals)",
                reads[stuck].records.len() - cursors[stuck]
            ),
        });
    }

    for (i, read) in reads.iter().enumerate() {
        let journal = Journal::resume(shard_journal_config(dir, i), read.valid_len)?;
        let Lane { service, ctx } = &mut lanes[i];
        service.attach_journal(journal);
        service.attach_share(ctx.server.forecast_share());
    }

    let mut front = ShardedService {
        plan,
        lanes,
        ledger: Ledger::default(),
        graph,
        adapt_every: shard.service.adapt_every,
        tick_workers: shard.tick_workers(),
    };
    front.federate();
    Ok((front, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chargers::{synth_fleet, FleetParams};
    use roadnet::{urban_grid, UrbanGridParams};
    use trajgen::{generate_trips, BrinkhoffParams};

    fn fixture() -> (roadnet::RoadGraph, chargers::ChargerFleet, SimProviders, Vec<trajgen::Trip>) {
        let graph = urban_grid(&UrbanGridParams::default());
        let fleet = synth_fleet(&graph, &FleetParams { count: 120, seed: 3, ..Default::default() });
        let sims = SimProviders::new(9);
        let trips = generate_trips(
            &graph,
            &BrinkhoffParams {
                trips: 4,
                min_trip_m: 10_000.0,
                max_trip_m: 18_000.0,
                ..Default::default()
            },
        );
        (graph, fleet, sims, trips)
    }

    #[test]
    fn plan_balances_chargers_and_covers_every_tile() {
        let (graph, fleet, _, _) = fixture();
        for shards in [1, 2, 4, 8] {
            let plan = ShardPlan::build(&graph, &fleet, shards, 3);
            assert_eq!(plan.num_shards(), shards);
            let total: u64 = plan.charger_load().iter().sum();
            assert_eq!(total, fleet.len() as u64, "every charger lands on exactly one shard");
            // LPT bound: no shard holds more than the heaviest tile plus
            // a fair share of the rest.
            let max = *plan.charger_load().iter().max().unwrap();
            let fair = total / shards as u64;
            let heaviest_tile = (0..plan.grid().num_tiles())
                .map(|t| fleet.all().iter().filter(|c| plan.grid().tile_of(&c.loc) == t).count())
                .max()
                .unwrap() as u64;
            assert!(
                max <= fair + heaviest_tile,
                "shards={shards}: max load {max} exceeds fair share {fair} + heaviest tile {heaviest_tile}"
            );
            // Every charger position maps to a valid shard.
            for c in fleet.all() {
                assert!(plan.shard_of(&c.loc) < shards);
            }
        }
    }

    #[test]
    fn sharded_itineraries_alternate_handoffs_with_work() {
        let (graph, fleet, sims, trips) = fixture();
        let server = InfoServer::from_sims(sims.clone());
        let ctx = QueryCtx::new(&graph, &fleet, &server, &sims, EcoChargeConfig::default());
        let plan = ShardPlan::build(&graph, &fleet, 4, 3);
        let mut saw_handoff = false;
        for trip in &trips {
            let (stops, home) =
                build_sharded_itinerary(&ctx, trip, SimDuration::from_mins(5), &plan).unwrap();
            assert!(home < 4);
            let base = build_itinerary(&ctx, trip, SimDuration::from_mins(5)).unwrap();
            let work: Vec<_> =
                stops.iter().copied().filter(|s| s.kind != EventKind::Handoff).collect();
            assert_eq!(work, base, "dropping the Handoff markers recovers the base itinerary");
            for pair in stops.windows(2) {
                if pair[0].kind == EventKind::Handoff {
                    saw_handoff = true;
                    assert_eq!(
                        pair[0].time, pair[1].time,
                        "a Handoff carries the time of the stop it fronts"
                    );
                    assert!(
                        pair[1].kind != EventKind::Handoff,
                        "consecutive Handoffs would be a zero-length shard run"
                    );
                }
            }
            assert_ne!(
                stops.last().unwrap().kind,
                EventKind::Handoff,
                "a Handoff is never the final stop"
            );
            // No time group is ever split across shards: a Handoff's
            // instant must not appear earlier in the itinerary.
            for (i, s) in stops.iter().enumerate() {
                if s.kind == EventKind::Handoff {
                    assert!(
                        stops[..i].iter().all(|p| p.time < s.time),
                        "a Handoff may only front a whole time group"
                    );
                }
            }
        }
        assert!(saw_handoff, "10–18 km urban trips at depth 3 must cross shard boundaries");
    }

    #[test]
    fn sharded_table_cache_with_one_entry_l1_is_bit_identical() {
        let (graph, fleet, sims, mut trips) = fixture();
        // Align departures so every session interleaves at the shared
        // rollover/adapt instants (staggered trips would keep each
        // shape's sessions adjacent in every batch, and even a one-entry
        // L1 would absorb all collisions), then clone every trip under a
        // fresh id so the key space collides.
        for t in &mut trips {
            t.depart = ec_types::SimTime::from_secs(600);
        }
        let mut all = trips.clone();
        for (i, t) in trips.iter().enumerate() {
            let mut clone = t.clone();
            clone.id = ec_types::TripId(1000 + i as u32);
            all.push(clone);
        }

        // Uncached, unsharded reference.
        let server = InfoServer::from_sims(sims.clone());
        let ctx = QueryCtx::new(&graph, &fleet, &server, &sims, EcoChargeConfig::default());
        let mut flat = SessionService::new(ServiceConfig::default());
        for trip in &all {
            flat.register(&ctx, trip).unwrap();
        }
        flat.run_to_completion(&ctx).unwrap();

        for shards in [2, 4] {
            let env = ShardEnv::new(&sims, shards);
            // A one-entry L1 evicts on nearly every insert, so most
            // colliding probes miss and re-solve.
            let table_cache = crate::TableCacheConfig {
                enabled: true,
                l1_entries: 1,
                ..crate::TableCacheConfig::default()
            };
            let mut front = ShardedService::new(
                &env,
                &graph,
                &fleet,
                &sims,
                EcoChargeConfig::default(),
                ShardConfig {
                    shards,
                    threads: 2,
                    service: ServiceConfig { table_cache, ..ServiceConfig::default() },
                    ..ShardConfig::default()
                },
            );
            for trip in &all {
                front.register(trip).unwrap();
            }
            front.run_to_completion().unwrap();

            assert_eq!(front.event_log(), flat.event_log(), "shards={shards}");
            for (a, b) in front.sessions().iter().zip(flat.sessions()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.solves, b.solves, "shards={shards}");
                assert_eq!(a.cache_stats(), b.cache_stats(), "restored solver counters");
            }
            let metrics = front.cache_metrics();
            let l1 = metrics.get("session.l1").expect("lanes report their L1s merged");
            assert!(l1.insertions > 0, "{l1:?}");
            assert!(metrics.get("eis.fresh").is_some(), "forecast tiers ride along");
        }
    }

    #[test]
    fn single_shard_front_matches_the_unsharded_service() {
        let (graph, fleet, sims, trips) = fixture();

        let server = InfoServer::from_sims(sims.clone());
        let ctx = QueryCtx::new(&graph, &fleet, &server, &sims, EcoChargeConfig::default());
        let mut flat = SessionService::new(ServiceConfig::default());
        for trip in &trips {
            flat.register(&ctx, trip).unwrap();
        }
        flat.run_to_completion(&ctx).unwrap();

        let env = ShardEnv::new(&sims, 1);
        let mut front = ShardedService::new(
            &env,
            &graph,
            &fleet,
            &sims,
            EcoChargeConfig::default(),
            ShardConfig { shards: 1, ..ShardConfig::default() },
        );
        for trip in &trips {
            front.register(trip).unwrap();
        }
        front.run_to_completion().unwrap();

        assert_eq!(front.stats().handoffs, 0, "one shard can have no boundaries");
        assert_eq!(front.event_log(), flat.event_log());
        for (a, b) in front.sessions().iter().zip(flat.sessions()) {
            assert_eq!(a.solves, b.solves);
        }
    }
}
