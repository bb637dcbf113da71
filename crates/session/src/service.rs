//! The multi-tenant session service.
//!
//! [`SessionService`] owns the registry, the scheduler and the batched
//! execution loop:
//!
//! * **admission** — a hard session cap and one-live-session-per-trip
//!   keying (so session ids — hence the scheduler's total order — do not
//!   depend on registration order);
//! * **ticks** — every session's whole itinerary is queued at
//!   registration, so the heap's pop order *is* the global total order;
//!   each [`SessionService::tick`] pops one bounded batch — a prefix of
//!   that order holding at most one event per session (enforced by
//!   [`EventScheduler::pop_batch`]) — and fans it out through
//!   [`ec_exec::parallel_map_mut`]; distinct sessions means parallel
//!   execution touches disjoint mutable state, and the per-session cap
//!   means a session's events execute strictly in itinerary order;
//! * **backpressure** — events due beyond the per-tick budget stay
//!   queued (counted in [`SessionStats::events_deferred`]); their
//!   virtual times are never rewritten, so deferral delays wall-clock
//!   latency only, never changes a table;
//! * **shedding** — when a solve fails against a degraded InfoServer,
//!   the session is retired gracefully with a typed [`ShedReason`]
//!   (stable error code + `eis` provenance) instead of poisoning the
//!   tick;
//! * **journaling** — with [`SessionService::with_journal`], every
//!   committed transition (admission, executed batch) is appended to the
//!   write-ahead journal before the next tick may run, and the full
//!   service image is snapshotted on a tick cadence — the basis of crash
//!   recovery ([`crate::recovery`]);
//! * **containment** — a journal append failure or a worker panic
//!   mid-batch **quarantines** the service: mutations return typed
//!   errors ([`SessionError::Quarantined`]) while reads (sessions,
//!   stats, event log) keep answering. A quarantined service never
//!   panics outward and never executes another event — the journal on
//!   disk stays the source of truth for recovery.

use crate::cache::{config_digest, TableCache, TableCacheConfig};
use crate::error::{JournalError, RegisterError, SessionError};
use crate::journal::{
    write_snapshot, CacheImage, CommitEntry, Journal, JournalConfig, OutcomeTag, Record,
    ServiceImage, SessionImage,
};
use crate::registry::{
    build_itinerary, PlannedStop, SessionPhase, SessionState, ShedReason, SolveOutcome,
};
use crate::scheduler::{Event, EventScheduler};
use crate::stats::SessionStats;
use ec_types::{EcError, SessionId, SimDuration, SimTime};
use ecocharge_core::QueryCtx;
use eis::{FeedKind, ForecastShare, InfoServer, SessionScope};
use servecache::CacheMetrics;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Fault injection for the service-level chaos harness. Deterministic
/// (keyed on the global event index), so chaos runs are replayable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceChaos {
    /// Panic inside the worker executing the event with this 0-based
    /// global index (the Nth event the service executes). Exercises the
    /// worker-panic containment path: batch shed, service quarantined,
    /// no panic escapes [`SessionService::tick`].
    pub panic_at_event: Option<u64>,
}

/// Serving-layer knobs (the per-trip ranking knobs stay on
/// [`ecocharge_core::EcoChargeConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Admission cap: concurrent *active* sessions.
    pub max_sessions: usize,
    /// Backpressure budget: events executed per tick (min 1).
    pub events_per_tick: usize,
    /// Mid-segment Dynamic-Cache adaptation cadence
    /// (`SimDuration::ZERO` disables the extra events; segment re-ranks
    /// and rollovers still run).
    pub adapt_every: SimDuration,
    /// Shed a session whose solve fails (degraded InfoServer) instead of
    /// failing the tick.
    pub shed_degraded: bool,
    /// Worker threads for batch fan-out. Sessions are the unit of
    /// parallelism; each solve runs single-threaded inside its session
    /// scope so forecast reads stay attributed (see [`eis::share`]).
    pub threads: usize,
    /// Injected faults (chaos harness); default = none.
    pub chaos: ServiceChaos,
    /// Offering-Table caching (one L1 per lane — see [`crate::cache`]). Default **off**; when on it engages only
    /// under the purity gate batch parallelism already requires, and
    /// cached solves are bit-identical to uncached ones.
    pub table_cache: TableCacheConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 10_000,
            events_per_tick: 64,
            adapt_every: SimDuration::from_mins(5),
            shed_degraded: true,
            threads: 1,
            chaos: ServiceChaos::default(),
            table_cache: TableCacheConfig::default(),
        }
    }
}

/// Whether the service is serving or has contained a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceHealth {
    /// Normal operation.
    Serving,
    /// A fault was contained: the service is read-only. `cause` is the
    /// stable code of the triggering failure (e.g. `JRN-007` for a
    /// refused journal append, `SES-004` for a worker panic).
    Quarantined {
        /// Stable code of the failure that triggered the quarantine.
        cause: &'static str,
    },
}

/// The fleet-scale serving layer (see the module docs).
#[derive(Debug)]
pub struct SessionService {
    config: ServiceConfig,
    scheduler: EventScheduler,
    slots: Vec<Option<SessionState>>,
    index: BTreeMap<SessionId, usize>,
    active: usize,
    stats: SessionStats,
    event_log: Vec<Event>,
    latencies_us: Vec<f64>,
    share: Option<Arc<ForecastShare>>,
    journal: Option<Journal>,
    health: ServiceHealth,
    last_defect: Option<JournalError>,
    /// Tick batch buffer, reused across ticks (with the scheduler's own
    /// lookahead scratch this makes the warmed pop path allocation-free).
    batch_scratch: Vec<Event>,
    /// The lane's Offering-Table cache, when
    /// [`ServiceConfig::table_cache`] enables it.
    table_cache: Option<TableCache>,
    /// Sessions that executed a [`crate::EventKind::Handoff`] stop this
    /// tick and left the registry — the sharded front collects them via
    /// [`SessionService::take_departures`] and delivers each to its
    /// destination shard. Always empty in unsharded serving.
    departures: Vec<SessionState>,
}

impl SessionService {
    /// An empty, unjournaled service.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            config,
            scheduler: EventScheduler::new(),
            slots: Vec::new(),
            index: BTreeMap::new(),
            active: 0,
            stats: SessionStats::default(),
            event_log: Vec::new(),
            latencies_us: Vec::new(),
            share: None,
            journal: None,
            health: ServiceHealth::Serving,
            last_defect: None,
            batch_scratch: Vec::new(),
            table_cache: config.table_cache.enabled.then(|| TableCache::new(&config.table_cache)),
            departures: Vec::new(),
        }
    }

    /// An empty service writing a fresh write-ahead journal (truncating
    /// any previous one in the journal directory).
    ///
    /// # Errors
    /// [`SessionError::Journal`] when the journal cannot be created.
    pub fn with_journal(
        config: ServiceConfig,
        journal: JournalConfig,
    ) -> Result<Self, SessionError> {
        let journal = Journal::create(journal, config.adapt_every)?;
        let mut svc = Self::new(config);
        svc.journal = Some(journal);
        Ok(svc)
    }

    /// Rebuild a service skeleton from recovered sessions — the recovery
    /// module's constructor. Queues every active session's remaining
    /// itinerary; the caller then replays the journal tail on top.
    pub(crate) fn from_recovery(
        config: ServiceConfig,
        stats: SessionStats,
        states: Vec<SessionState>,
    ) -> Self {
        let mut svc = Self::new(config);
        svc.stats = stats;
        for state in states {
            if state.phase == SessionPhase::Active {
                for event in state.pending_events() {
                    svc.scheduler.push(event);
                }
                svc.active += 1;
            }
            let id = state.id;
            let slot = svc.slots.len();
            svc.slots.push(Some(state));
            svc.index.insert(id, slot);
        }
        svc
    }

    /// Attach the forecast-share ledger (recovery path; the normal path
    /// attaches lazily at first registration).
    pub(crate) fn attach_share(&mut self, share: Arc<ForecastShare>) {
        self.share = Some(share);
    }

    /// Attach an open journal for post-recovery appends.
    pub(crate) fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// The lane's table cache, when enabled.
    #[must_use]
    pub fn table_cache(&self) -> Option<&TableCache> {
        self.table_cache.as_ref()
    }

    /// Unified cache metrics for this lane's table cache
    /// (`session.l1`).
    /// Counters are observational — which concurrent solve wins an
    /// insert race is wall-clock dependent — which is why they live
    /// here and not in [`SessionStats`].
    #[must_use]
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.table_cache.as_ref().map(TableCache::metrics).unwrap_or_default()
    }

    /// The configuration in force.
    #[must_use]
    pub const fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Serving or quarantined.
    #[must_use]
    pub const fn health(&self) -> ServiceHealth {
        self.health
    }

    /// The last *non-fatal* journal-layer defect tolerated while serving
    /// (a failed snapshot write — see [`SessionStats::journal_defects`]).
    #[must_use]
    pub const fn last_journal_defect(&self) -> Option<&JournalError> {
        self.last_defect.as_ref()
    }

    fn quarantine(&mut self, cause: &'static str) {
        self.health = ServiceHealth::Quarantined { cause };
    }

    /// Admit `trip` as a session: segment it, precompute its itinerary
    /// and queue every event of it. The session id is the trip id, so
    /// the scheduler's total order is invariant under registration
    /// order. Journaled services write the `Register` record **before**
    /// mutating the registry — an admission that is not durable does not
    /// happen.
    ///
    /// # Errors
    /// [`RegisterError::Full`] at the admission cap,
    /// [`RegisterError::Duplicate`] for an already-served trip,
    /// [`RegisterError::Planning`] when segmentation fails,
    /// [`RegisterError::Journal`] when the WAL refused the record (the
    /// service quarantines), [`RegisterError::Quarantined`] afterwards.
    pub fn register(
        &mut self,
        ctx: &QueryCtx<'_>,
        trip: &trajgen::Trip,
    ) -> Result<SessionId, RegisterError> {
        self.register_planned(ctx, trip, None)
    }

    /// [`SessionService::register`] with an optional pre-planned
    /// itinerary — the sharded front registers sessions with itineraries
    /// carrying [`crate::EventKind::Handoff`] stops (still a pure
    /// function of `(trip, config, shard plan)`, so the journal keeps
    /// recording only the trip and recovery recomputes the plan).
    pub(crate) fn register_planned(
        &mut self,
        ctx: &QueryCtx<'_>,
        trip: &trajgen::Trip,
        itinerary: Option<Vec<PlannedStop>>,
    ) -> Result<SessionId, RegisterError> {
        if let ServiceHealth::Quarantined { cause } = self.health {
            return Err(RegisterError::Quarantined { cause });
        }
        let id = SessionId(trip.id.0);
        if self.index.contains_key(&id) {
            self.stats.rejected += 1;
            return Err(RegisterError::Duplicate(id));
        }
        if self.active >= self.config.max_sessions {
            self.stats.rejected += 1;
            return Err(RegisterError::Full { max_sessions: self.config.max_sessions });
        }
        let itinerary = match itinerary {
            Some(planned) => planned,
            None => build_itinerary(ctx, trip, self.config.adapt_every).map_err(|e| {
                self.stats.rejected += 1;
                RegisterError::Planning(e)
            })?,
        };
        if let Some(journal) = self.journal.as_mut() {
            let record = Record::Register {
                session: id,
                vehicle: trip.vehicle.0,
                depart: trip.depart,
                nodes: trip.route.nodes().iter().map(|n| n.0).collect(),
            };
            if let Err(e) = journal.append(&record) {
                self.stats.rejected += 1;
                self.quarantine(e.code());
                return Err(RegisterError::Journal(e));
            }
            self.stats.journal_records += 1;
        }
        if self.share.is_none() {
            self.share = Some(ctx.server.forecast_share());
        }
        let state = SessionState::new(id, trip.clone(), itinerary);
        for event in state.planned_events() {
            self.scheduler.push(event);
        }
        let slot = self.slots.len();
        self.slots.push(Some(state));
        self.index.insert(id, slot);
        self.active += 1;
        self.stats.registered += 1;
        Ok(id)
    }

    /// Whether parallel batch execution is allowed against `server`:
    /// only when forecasts are pure per `(key, window)` — the
    /// model-backed, no-resilience, no-stale configuration (the same
    /// test the lazy filter–refine engine applies). Otherwise cache
    /// *values* could depend on which concurrent solve populated them,
    /// and the service degrades to sequential batches to keep the total
    /// order the only source of truth.
    fn parallel_ok(server: &InfoServer) -> bool {
        server.availability_model_backed() && !server.serves_stale() && !server.resilience_enabled()
    }

    /// The cancellation filter `pop_batch`/`pop_exact` use: a session is
    /// dead when it is unknown or no longer active. Unknown ids are
    /// treated as cancelled (defensive: the scheduler never invents ids,
    /// but a map miss must drop the event, not panic the serving loop).
    fn is_cancelled<'a>(
        index: &'a BTreeMap<SessionId, usize>,
        slots: &'a [Option<SessionState>],
    ) -> impl Fn(SessionId) -> bool + 'a {
        move |sid| {
            index.get(&sid).is_none_or(|&slot| {
                slots
                    .get(slot)
                    .and_then(|s| s.as_ref())
                    .is_none_or(|s| s.phase != SessionPhase::Active)
            })
        }
    }

    /// Execute `events` (already popped, distinct sessions) and fold the
    /// outcomes into registry + stats. Returns the journalable commit
    /// entries and, in strict mode, the first failing solve.
    ///
    /// Worker panics (real or chaos-injected) are contained here: the
    /// batch's sessions are shed with a `SES-004` reason, the service is
    /// quarantined, and a typed error is returned — a panic below the
    /// service boundary never unwinds through it.
    fn execute_batch(
        &mut self,
        ctx: &QueryCtx<'_>,
        events: &[Event],
    ) -> Result<(Vec<CommitEntry>, Option<EcError>), SessionError> {
        // Take the batch's session states out of their slots. A missing
        // state is an internal invariant violation — contained by
        // restoring what was taken and quarantining, never by panicking.
        let mut work: Vec<(Event, SessionState)> = Vec::with_capacity(events.len());
        for &ev in events {
            let taken = self
                .index
                .get(&ev.session)
                .copied()
                .and_then(|slot| self.slots.get_mut(slot).and_then(Option::take));
            match taken {
                Some(state) => work.push((ev, state)),
                None => {
                    self.restore_states(work);
                    self.quarantine("SES-006");
                    return Err(SessionError::Internal {
                        what: "scheduled event for a session absent from the registry",
                    });
                }
            }
        }

        // Both batch parallelism and table caching require forecast
        // purity: against a server without it, execution degrades to
        // sequential *uncached* batches (a cached table could otherwise
        // embed whichever degraded answer happened to be live).
        let pure = Self::parallel_ok(ctx.server);
        let threads = if pure { self.config.threads } else { 1 };
        let table_cache = if pure { self.table_cache.as_ref() } else { None };
        let config_hash = config_digest(&ctx.config);
        let base = self.stats.events_executed;
        let panic_at = self
            .config
            .chaos
            .panic_at_event
            .and_then(|t| t.checked_sub(base))
            .and_then(|rel| usize::try_from(rel).ok())
            .filter(|&rel| rel < work.len());
        let ran = catch_unwind(AssertUnwindSafe(|| {
            ec_exec::parallel_map_mut(
                threads,
                &mut work,
                |_| (),
                |_scratch, i, item| {
                    let (ev, state) = item;
                    if panic_at == Some(i) {
                        panic!("injected worker panic at global event {}", base + i as u64);
                    }
                    let _scope = SessionScope::enter(state.id.0);
                    let start = std::time::Instant::now();
                    let outcome = match table_cache {
                        Some(cache) => state.execute_cached(ctx, ev, cache, config_hash),
                        None => state.execute(ctx, ev),
                    };
                    (outcome, start.elapsed().as_secs_f64() * 1e6)
                },
            )
        }));

        let outcomes = match ran {
            Ok(outcomes) => outcomes,
            Err(_panic) => {
                // Panic containment: per-session state in this batch may
                // be partially mutated and can no longer be trusted —
                // shed the whole batch, quarantine, surface typed.
                let batch_events = work.len();
                for (ev, state) in &mut work {
                    if state.phase == SessionPhase::Active {
                        state.shed(ShedReason {
                            code: "SES-004".to_string(),
                            detail: format!(
                                "worker panic while executing {:?}@{}",
                                ev.kind,
                                ev.time.as_secs()
                            ),
                        });
                        self.stats.sessions_shed += 1;
                        self.active -= 1;
                    }
                }
                self.restore_states(work);
                self.quarantine("SES-004");
                return Err(SessionError::WorkerPanic { batch_events });
            }
        };

        let mut entries = Vec::with_capacity(work.len());
        let mut first_failure: Option<EcError> = None;
        for ((ev, mut state), (outcome, micros)) in work.into_iter().zip(outcomes) {
            self.event_log.push(ev);
            self.latencies_us.push(micros);
            self.stats.events_executed += 1;
            let tag = match outcome {
                SolveOutcome::Table { emitted: true } => {
                    self.stats.tables_emitted += 1;
                    OutcomeTag::Emitted
                }
                SolveOutcome::Table { emitted: false } => {
                    self.stats.heartbeats += 1;
                    OutcomeTag::Heartbeat
                }
                SolveOutcome::NoOffers => {
                    self.stats.no_offer_solves += 1;
                    OutcomeTag::NoOffers
                }
                SolveOutcome::Retired => {
                    self.stats.sessions_completed += 1;
                    self.active -= 1;
                    OutcomeTag::Retired
                }
                SolveOutcome::HandedOff => {
                    self.stats.handoffs += 1;
                    self.active -= 1;
                    OutcomeTag::Handoff
                }
                SolveOutcome::Failed(e) => {
                    if self.config.shed_degraded {
                        state.shed(ShedReason {
                            code: e.code().to_string(),
                            detail: shed_provenance(ctx.server, &e),
                        });
                        self.stats.sessions_shed += 1;
                        self.active -= 1;
                        OutcomeTag::Shed
                    } else {
                        if first_failure.is_none() {
                            first_failure = Some(e);
                        }
                        OutcomeTag::Failed
                    }
                }
            };
            entries.push(CommitEntry {
                time: ev.time,
                session: ev.session,
                kind: ev.kind,
                outcome: tag,
            });
            if tag == OutcomeTag::Handoff {
                // The session leaves this shard: drop it from the
                // registry (its remaining heap entries die lazily via the
                // cancellation filter — an unknown id is cancelled) and
                // stage the state for delivery to the destination shard.
                self.index.remove(&state.id);
                self.departures.push(state);
            } else {
                self.restore_states(std::iter::once((ev, state)));
            }
        }
        Ok((entries, first_failure))
    }

    /// Put taken states back into their slots, dropping any whose slot
    /// vanished (cannot happen; defensive against panicking in cleanup).
    fn restore_states(&mut self, work: impl IntoIterator<Item = (Event, SessionState)>) {
        for (_, state) in work {
            if let Some(&slot) = self.index.get(&state.id) {
                if let Some(s) = self.slots.get_mut(slot) {
                    *s = Some(state);
                }
            }
        }
    }

    /// Execute one batch of due events. Returns the number executed
    /// (zero when the queue is drained). Journaled services append the
    /// batch's `Commit` record and take snapshots on the configured
    /// cadence before returning.
    ///
    /// # Errors
    /// * [`SessionError::Quarantined`] — the service contained an
    ///   earlier fault and is read-only;
    /// * [`SessionError::WorkerPanic`] — a worker panicked in this batch
    ///   (batch shed, now quarantined);
    /// * [`SessionError::Journal`] — the WAL refused the commit record
    ///   (now quarantined; the in-memory state advanced but is no longer
    ///   authoritative — recover from the journal);
    /// * [`SessionError::Solve`] — `shed_degraded` off and a solve
    ///   failed: the first failure in total order, after the batch
    ///   completes and commits.
    pub fn tick(&mut self, ctx: &QueryCtx<'_>) -> Result<usize, SessionError> {
        if let ServiceHealth::Quarantined { cause } = self.health {
            return Err(SessionError::Quarantined { cause });
        }
        // The batch buffer is taken off `self` for the tick (the
        // cancellation filter borrows the registry) and put back after —
        // steady-state ticking reuses its capacity and allocates nothing
        // on the pop path.
        let mut events = std::mem::take(&mut self.batch_scratch);
        let deferred = {
            let cancelled = Self::is_cancelled(&self.index, &self.slots);
            self.scheduler.pop_batch_into(self.config.events_per_tick, &cancelled, &mut events)
        };
        if events.is_empty() {
            self.batch_scratch = events;
            return Ok(0);
        }
        self.stats.events_deferred += deferred;
        let executed_result = self.execute_batch(ctx, &events);
        events.clear();
        self.batch_scratch = events;
        let (entries, first_failure) = executed_result?;
        let executed = entries.len();

        if let Some(journal) = self.journal.as_mut() {
            let record = Record::Commit { after: self.stats.events_executed, deferred, entries };
            if let Err(e) = journal.append(&record) {
                self.quarantine(e.code());
                return Err(SessionError::Journal(e));
            }
            self.stats.journal_records += 1;
            if journal.tick_snapshot_due() {
                let dir = journal.config().dir.clone();
                let image = self.image();
                match write_snapshot(&dir, &image) {
                    Ok(_) => self.stats.snapshots_written += 1,
                    Err(e) => {
                        // Non-fatal: serving degrades to journal-only
                        // (recovery replays a longer tail).
                        self.stats.journal_defects += 1;
                        self.last_defect = Some(e);
                    }
                }
            }
        }
        match first_failure {
            Some(e) => Err(SessionError::Solve(e)),
            None => Ok(executed),
        }
    }

    /// Re-apply one journaled `Register` record during recovery: the
    /// admission already happened (only successful admissions are
    /// journaled), so cap and duplicate checks become divergence checks.
    pub(crate) fn replay_register(
        &mut self,
        ctx: &QueryCtx<'_>,
        trip: &trajgen::Trip,
    ) -> Result<(), crate::error::RecoveryError> {
        self.replay_register_planned(ctx, trip, None)
    }

    /// [`SessionService::replay_register`] with an optional pre-planned
    /// (sharded) itinerary — sharded recovery recomputes the shard plan
    /// and hands each shard the itinerary its journal's admissions were
    /// built from.
    pub(crate) fn replay_register_planned(
        &mut self,
        ctx: &QueryCtx<'_>,
        trip: &trajgen::Trip,
        itinerary: Option<Vec<PlannedStop>>,
    ) -> Result<(), crate::error::RecoveryError> {
        use crate::error::RecoveryError;
        let id = SessionId(trip.id.0);
        if self.index.contains_key(&id) {
            return Err(RecoveryError::ReplayDivergence {
                detail: format!("journal registers session {id} twice"),
            });
        }
        let itinerary = match itinerary {
            Some(planned) => planned,
            None => build_itinerary(ctx, trip, self.config.adapt_every)
                .map_err(RecoveryError::Planning)?,
        };
        if self.share.is_none() {
            self.share = Some(ctx.server.forecast_share());
        }
        let state = SessionState::new(id, trip.clone(), itinerary);
        for event in state.planned_events() {
            self.scheduler.push(event);
        }
        let slot = self.slots.len();
        self.slots.push(Some(state));
        self.index.insert(id, slot);
        self.active += 1;
        self.stats.registered += 1;
        self.stats.journal_records += 1;
        Ok(())
    }

    /// Re-execute one journaled batch during recovery: pop exactly the
    /// recorded events (no budget decision, no deferral lookahead — the
    /// recorded `deferred` count is credited as-is) and verify both the
    /// popped keys and the produced outcomes against the record.
    ///
    /// # Errors
    /// [`SessionError::Recovery`] with
    /// [`crate::error::RecoveryError::ReplayDivergence`] when replay
    /// produces different events or outcomes than the journal recorded.
    pub(crate) fn replay_commit(
        &mut self,
        ctx: &QueryCtx<'_>,
        entries: &[CommitEntry],
        deferred: u64,
        after: u64,
    ) -> Result<(), SessionError> {
        use crate::error::RecoveryError;
        let events = {
            let cancelled = Self::is_cancelled(&self.index, &self.slots);
            self.scheduler.pop_exact(entries.len(), &cancelled)
        };
        if events.len() != entries.len() {
            return Err(RecoveryError::ReplayDivergence {
                detail: format!(
                    "journal commits {} events but the scheduler could replay only {}",
                    entries.len(),
                    events.len()
                ),
            }
            .into());
        }
        for (ev, want) in events.iter().zip(entries) {
            if ev.time != want.time || ev.session != want.session || ev.kind != want.kind {
                return Err(RecoveryError::ReplayDivergence {
                    detail: format!(
                        "replayed event {:?}@{} for session {} where the journal recorded \
                         {:?}@{} for session {}",
                        ev.kind,
                        ev.time.as_secs(),
                        ev.session,
                        want.kind,
                        want.time.as_secs(),
                        want.session
                    ),
                }
                .into());
            }
        }
        self.stats.events_deferred += deferred;
        let (replayed, _strict_failure) = self.execute_batch(ctx, &events)?;
        for (got, want) in replayed.iter().zip(entries) {
            if got.outcome != want.outcome {
                return Err(RecoveryError::ReplayDivergence {
                    detail: format!(
                        "event {:?}@{} for session {} replayed as {} but the journal recorded {}",
                        got.kind,
                        got.time.as_secs(),
                        got.session,
                        got.outcome,
                        want.outcome
                    ),
                }
                .into());
            }
        }
        if self.stats.events_executed != after {
            return Err(RecoveryError::ReplayDivergence {
                detail: format!(
                    "watermark after replayed batch is {} but the journal recorded {after}",
                    self.stats.events_executed
                ),
            }
            .into());
        }
        self.stats.journal_records += 1;
        Ok(())
    }

    /// Tick until the queue drains (every session completed or shed).
    ///
    /// # Errors
    /// As [`SessionService::tick`].
    pub fn run_to_completion(&mut self, ctx: &QueryCtx<'_>) -> Result<(), SessionError> {
        while !self.scheduler.is_empty() {
            self.tick(ctx)?;
        }
        Ok(())
    }

    /// The full service image at the current watermark — what a snapshot
    /// stores.
    pub(crate) fn image(&self) -> ServiceImage {
        let share = self.share.as_ref().map(|s| s.snapshot()).unwrap_or_default();
        let sessions = self
            .index
            .values()
            .filter_map(|&slot| self.slots.get(slot).and_then(|s| s.as_ref()))
            .map(session_image)
            .collect();
        ServiceImage { watermark: self.stats.events_executed, stats: self.stats, share, sessions }
    }

    /// Counter snapshot, forecast-sharing ledger folded in.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats;
        if let Some(share) = &self.share {
            s.absorb_share(share.snapshot());
        }
        s
    }

    /// Sessions that crossed a shard boundary this tick: each executed
    /// its [`crate::EventKind::Handoff`] stop and left this service's
    /// registry with its full state (solver cache, cursor, ranking,
    /// solve record) intact. The sharded front delivers each to
    /// [`SessionService::adopt_session`] on the destination shard.
    /// Always empty in unsharded serving.
    pub fn take_departures(&mut self) -> Vec<SessionState> {
        std::mem::take(&mut self.departures)
    }

    /// Adopt a session handed off from another shard: queue its
    /// remaining itinerary tail (starting with the stop its `Handoff`
    /// event fronted, at the same virtual time) and register its state.
    /// The session keeps its id, Dynamic-Cache slot, cursor and solve
    /// record — adoption is pure transfer, never a re-plan.
    pub fn adopt_session(&mut self, state: SessionState) {
        debug_assert!(!self.index.contains_key(&state.id), "session {} adopted twice", state.id);
        debug_assert_eq!(state.phase, SessionPhase::Active);
        for event in state.pending_events() {
            self.scheduler.push(event);
        }
        let id = state.id;
        let slot = self.slots.len();
        self.slots.push(Some(state));
        self.index.insert(id, slot);
        self.active += 1;
    }

    /// Live sessions (registered, not yet retired or shed).
    #[must_use]
    pub const fn active_sessions(&self) -> usize {
        self.active
    }

    /// Events still queued.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    /// Virtual time of the next queued event, if any. Lets an outer
    /// loop (e.g. the closed-loop outcome engine) interleave its own
    /// virtual-time heap with this service's without draining either.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.scheduler.next_time()
    }

    /// Every executed event, in execution order — which, by the
    /// determinism argument, *is* the scheduler's total order whatever
    /// the thread count or tick budget. A recovered service's log covers
    /// replayed and post-recovery events (the pre-snapshot prefix lives
    /// only in the journal).
    #[must_use]
    pub fn event_log(&self) -> &[Event] {
        &self.event_log
    }

    /// Per-event wall-clock execution latencies, microseconds, in
    /// execution order (measurement only — not deterministic).
    #[must_use]
    pub fn event_latencies_us(&self) -> &[f64] {
        &self.latencies_us
    }

    /// One session by id.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&SessionState> {
        self.index.get(&id).and_then(|&slot| self.slots.get(slot).and_then(|s| s.as_ref()))
    }

    /// All sessions in id order (the registry keeps retired and shed
    /// sessions so their solve records stay auditable).
    pub fn sessions(&self) -> impl Iterator<Item = &SessionState> {
        self.index.values().filter_map(|&slot| self.slots.get(slot).and_then(|s| s.as_ref()))
    }
}

/// Snapshot one session (see [`SessionImage`]).
fn session_image(s: &SessionState) -> SessionImage {
    let cache = s.solver().dynamic_cache();
    let (hits, misses) = cache.stats();
    SessionImage {
        id: s.id,
        vehicle: s.trip.vehicle.0,
        depart: s.trip.depart,
        nodes: s.trip.route.nodes().iter().map(|n| n.0).collect(),
        next_stop: u32::try_from(s.next_stop()).unwrap_or(u32::MAX),
        phase: match s.phase {
            SessionPhase::Active => 0,
            SessionPhase::Completed => 1,
            SessionPhase::Shed => 2,
        },
        shed: s.shed_reason.as_ref().map(|r| (r.code.clone(), r.detail.clone())),
        last_ranking: s.current_ranking().map(|ids| ids.iter().map(|c| c.0).collect()),
        solves_before: s.solves.len() as u64,
        cache: CacheImage {
            slot: cache.slot().cloned(),
            hits,
            misses,
            empty_probes: cache.empty_probes(),
            prune: s.solver().prune_stats(),
        },
    }
}

/// Build the shed-reason provenance detail: the failing error plus
/// whatever the server's resilience layer knows (breaker states per
/// feed, stale tier) — the same provenance surface `eis::resilience`
/// exposes to the ranking layer. The stable code travels separately in
/// [`ShedReason::code`].
fn shed_provenance(server: &InfoServer, e: &EcError) -> String {
    let mut parts = vec![format!("solve failed: {e}")];
    for feed in [FeedKind::Weather, FeedKind::Wind, FeedKind::Availability, FeedKind::Traffic] {
        if let Some(state) = server.breaker_state(feed) {
            parts.push(format!("{feed:?} breaker {state:?}"));
        }
    }
    if server.serves_stale() {
        parts.push(format!("stale tier on ({} served)", server.stats().stale_served()));
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use chargers::{synth_fleet, FleetParams};
    use ecocharge_core::{DegradedPolicy, EcoChargeConfig};
    use eis::SimProviders;
    use roadnet::{urban_grid, UrbanGridParams};
    use trajgen::{generate_trips, BrinkhoffParams, Trip};

    struct Fixture {
        graph: roadnet::RoadGraph,
        fleet: chargers::ChargerFleet,
        sims: SimProviders,
        trips: Vec<Trip>,
    }

    impl Fixture {
        fn new() -> Self {
            let graph = urban_grid(&UrbanGridParams::default());
            let fleet =
                synth_fleet(&graph, &FleetParams { count: 120, seed: 3, ..Default::default() });
            let sims = SimProviders::new(9);
            let trips = generate_trips(
                &graph,
                &BrinkhoffParams {
                    trips: 3,
                    min_trip_m: 10_000.0,
                    max_trip_m: 18_000.0,
                    ..Default::default()
                },
            );
            Self { graph, fleet, sims, trips }
        }

        fn server(&self) -> InfoServer {
            InfoServer::from_sims(self.sims.clone())
        }

        fn ctx<'a>(&'a self, server: &'a InfoServer) -> QueryCtx<'a> {
            QueryCtx::new(&self.graph, &self.fleet, server, &self.sims, EcoChargeConfig::default())
        }
    }

    fn run_service(f: &Fixture, config: ServiceConfig) -> SessionService {
        let server = f.server();
        let ctx = f.ctx(&server);
        let mut svc = SessionService::new(config);
        for trip in &f.trips {
            svc.register(&ctx, trip).unwrap();
        }
        svc.run_to_completion(&ctx).unwrap();
        svc
    }

    #[test]
    fn serves_sessions_to_completion() {
        let f = Fixture::new();
        let svc = run_service(&f, ServiceConfig::default());
        let stats = svc.stats();
        assert_eq!(stats.registered, f.trips.len() as u64);
        assert_eq!(stats.sessions_completed, f.trips.len() as u64);
        assert_eq!(svc.active_sessions(), 0);
        assert_eq!(svc.pending_events(), 0);
        assert_eq!(svc.health(), ServiceHealth::Serving);
        let planned: usize = svc.sessions().map(|s| s.itinerary().len()).sum();
        assert_eq!(stats.events_executed, planned as u64);
        assert!(stats.tables_emitted >= f.trips.len() as u64, "every trip opens with a table");
        for s in svc.sessions() {
            assert_eq!(s.phase, SessionPhase::Completed);
            assert!(!s.solves.is_empty());
            assert!(s.solves[0].emitted, "first solve is always a push");
        }
        // The executed log is the scheduler's total order.
        let log = svc.event_log();
        assert_eq!(log.len(), planned);
        assert!(log.windows(2).all(|w| w[0].key() <= w[1].key()), "log must be sorted by key");
        assert_eq!(svc.event_latencies_us().len(), log.len());
    }

    #[test]
    fn admission_cap_and_duplicate_trips_are_refused() {
        let f = Fixture::new();
        let server = f.server();
        let ctx = f.ctx(&server);
        let mut svc =
            SessionService::new(ServiceConfig { max_sessions: 1, ..ServiceConfig::default() });
        let id = svc.register(&ctx, &f.trips[0]).unwrap();
        assert_eq!(svc.register(&ctx, &f.trips[1]), Err(RegisterError::Full { max_sessions: 1 }));
        svc.run_to_completion(&ctx).unwrap();
        // Capacity freed by retirement…
        svc.register(&ctx, &f.trips[1]).unwrap();
        // …but a finished trip stays registered (its record is kept).
        assert_eq!(svc.register(&ctx, &f.trips[0]), Err(RegisterError::Duplicate(id)));
        assert_eq!(svc.stats().rejected, 2);
    }

    #[test]
    fn backpressure_defers_without_changing_any_table() {
        let f = Fixture::new();
        let wide = run_service(&f, ServiceConfig::default());
        let tight =
            run_service(&f, ServiceConfig { events_per_tick: 1, ..ServiceConfig::default() });
        assert!(tight.stats().events_deferred > 0, "a 1-event budget must defer");
        assert_eq!(tight.event_log(), wide.event_log(), "deferral cannot reorder execution");
        for (a, b) in tight.sessions().zip(wide.sessions()) {
            assert_eq!(a.solves, b.solves, "deferral cannot change a single table");
        }
    }

    #[test]
    fn parallel_batches_are_bit_identical_to_sequential() {
        let f = Fixture::new();
        let seq = run_service(&f, ServiceConfig { threads: 1, ..ServiceConfig::default() });
        for threads in [2, 4, 8] {
            let par = run_service(&f, ServiceConfig { threads, ..ServiceConfig::default() });
            assert_eq!(par.event_log(), seq.event_log(), "threads={threads}");
            // Forecast-share attribution is observational (which session
            // gets credited a hit depends on wall-clock interleaving);
            // everything else must match exactly.
            let scrub = |mut s: SessionStats| {
                s.forecast_shared_hits = 0;
                s.forecast_self_hits = 0;
                s.forecast_untagged_hits = 0;
                s.forecast_misses = 0;
                s
            };
            assert_eq!(scrub(par.stats()), scrub(seq.stats()), "threads={threads}");
            for (a, b) in par.sessions().zip(seq.sessions()) {
                assert_eq!(a.solves, b.solves, "threads={threads}");
            }
        }
    }

    #[test]
    fn degraded_server_sheds_sessions_with_provenance() {
        use eis::FlakyProvider;
        let f = Fixture::new();
        // Every upstream call fails, and component fallbacks are off, so
        // every first solve errors.
        let flaky = Arc::new(FlakyProvider::new(f.sims.clone(), 1, "bundle"));
        let server = InfoServer::new(flaky.clone(), flaky.clone(), flaky)
            .with_resilience(eis::ResiliencePolicy::default(), 7);
        let config =
            EcoChargeConfig { degraded: DegradedPolicy::disabled(), ..EcoChargeConfig::default() };
        let ctx = QueryCtx::new(&f.graph, &f.fleet, &server, &f.sims, config);

        let mut svc = SessionService::new(ServiceConfig::default());
        for trip in &f.trips {
            svc.register(&ctx, trip).unwrap();
        }
        svc.run_to_completion(&ctx).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.sessions_shed, f.trips.len() as u64);
        assert_eq!(stats.sessions_completed, 0);
        assert_eq!(svc.active_sessions(), 0);
        for s in svc.sessions() {
            assert_eq!(s.phase, SessionPhase::Shed);
            let reason = s.shed_reason.as_ref().unwrap();
            assert!(
                reason.code.starts_with("EC-"),
                "shed reason must carry the solve's stable code: {reason}"
            );
            assert!(reason.detail.contains("solve failed"), "{reason}");
            assert!(reason.detail.contains("breaker"), "resilience provenance missing: {reason}");
        }

        // Without shedding, the same failure surfaces as a typed tick
        // error carrying the solve's code.
        let mut strict =
            SessionService::new(ServiceConfig { shed_degraded: false, ..ServiceConfig::default() });
        strict.register(&ctx, &f.trips[0]).unwrap();
        let err = strict.run_to_completion(&ctx).unwrap_err();
        assert!(matches!(err, SessionError::Solve(_)), "{err}");
        assert_eq!(err.code(), "SES-001");
    }

    /// Duplicate each fixture trip under a fresh id: sessions sharing a
    /// trip *shape* are exactly what the table-cache key collapses.
    fn with_clones(trips: &[Trip]) -> Vec<Trip> {
        let mut all = trips.to_vec();
        for (i, t) in trips.iter().enumerate() {
            let mut clone = t.clone();
            clone.id = ec_types::TripId(1000 + i as u32);
            all.push(clone);
        }
        all
    }

    fn scrub_share(mut s: SessionStats) -> SessionStats {
        // Forecast-share attribution is observational, and a cached
        // solve never touches the server at all, so these counters
        // legitimately differ between cached and uncached runs.
        s.forecast_shared_hits = 0;
        s.forecast_self_hits = 0;
        s.forecast_untagged_hits = 0;
        s.forecast_misses = 0;
        s
    }

    #[test]
    fn table_cache_is_bit_identical_and_replays_clone_sessions() {
        let f = Fixture::new();
        let trips = with_clones(&f.trips);
        let run = |threads: usize, table_cache: crate::TableCacheConfig| {
            let server = f.server();
            let ctx = f.ctx(&server);
            let mut svc = SessionService::new(ServiceConfig {
                threads,
                table_cache,
                ..ServiceConfig::default()
            });
            for trip in &trips {
                svc.register(&ctx, trip).unwrap();
            }
            svc.run_to_completion(&ctx).unwrap();
            svc
        };
        let off = run(1, crate::TableCacheConfig::default());
        assert!(off.cache_metrics().tiers().is_empty(), "cache off reports no tiers");
        for threads in [1, 2, 8] {
            let on = run(threads, crate::TableCacheConfig::enabled());
            assert_eq!(on.event_log(), off.event_log(), "threads={threads}");
            for (a, b) in on.sessions().zip(off.sessions()) {
                assert_eq!(a.solves, b.solves, "threads={threads}");
                assert_eq!(a.cache_stats(), b.cache_stats(), "restored solver counters");
                assert_eq!(a.solver().prune_stats(), b.solver().prune_stats());
                assert_eq!(a.current_ranking(), b.current_ranking());
            }
            assert_eq!(scrub_share(on.stats()), scrub_share(off.stats()), "threads={threads}");
            let metrics = on.cache_metrics();
            let l1 = metrics.get("session.l1").expect("cache on reports its L1");
            assert!(l1.insertions > 0);
            // Hit counters are deliberately outside the determinism
            // contract (§4l): two lanes solving the same shape in one
            // parallel batch may both miss and both insert. Only the
            // sequential run promises every clone after the first hits.
            if threads == 1 {
                assert!(l1.hits > 0, "clone sessions must replay cached solves: {l1:?}");
            }
        }
    }

    #[test]
    fn impure_servers_bypass_the_table_cache() {
        // A resilience-wrapped server fails the purity gate even while
        // healthy: cached tables could embed degraded answers, so the
        // service must serve uncached (and sequential) — with identical
        // solves to a plain run.
        let f = Fixture::new();
        let run = |server: &InfoServer, table_cache: crate::TableCacheConfig| {
            let ctx = f.ctx(server);
            let mut svc =
                SessionService::new(ServiceConfig { table_cache, ..ServiceConfig::default() });
            for trip in &f.trips {
                svc.register(&ctx, trip).unwrap();
            }
            svc.run_to_completion(&ctx).unwrap();
            svc
        };
        let plain_server = f.server();
        let plain = run(&plain_server, crate::TableCacheConfig::default());
        let guarded_server = f.server().with_resilience(eis::ResiliencePolicy::default(), 7);
        let guarded = run(&guarded_server, crate::TableCacheConfig::enabled());
        assert_eq!(guarded.event_log(), plain.event_log());
        for (a, b) in guarded.sessions().zip(plain.sessions()) {
            assert_eq!(a.solves, b.solves);
        }
        let l1 = guarded.cache_metrics().get("session.l1").expect("tier exists, idle");
        assert_eq!(
            (l1.hits, l1.misses, l1.insertions),
            (0, 0, 0),
            "the purity gate must keep the cache untouched: {l1:?}"
        );
    }

    #[test]
    fn worker_panic_is_contained_sheds_batch_and_quarantines() {
        let f = Fixture::new();
        let server = f.server();
        let ctx = f.ctx(&server);
        for threads in [1, 4] {
            let mut svc = SessionService::new(ServiceConfig {
                threads,
                chaos: ServiceChaos { panic_at_event: Some(0) },
                ..ServiceConfig::default()
            });
            for trip in &f.trips {
                svc.register(&ctx, trip).unwrap();
            }
            // The panic must surface as a typed error, not an unwind.
            let err = svc.run_to_completion(&ctx).unwrap_err();
            assert!(matches!(err, SessionError::WorkerPanic { .. }), "{err}");
            assert_eq!(svc.health(), ServiceHealth::Quarantined { cause: "SES-004" });
            // Degradation contract: reads still work…
            assert!(svc.stats().sessions_shed > 0);
            assert!(svc
                .sessions()
                .any(|s| { s.shed_reason.as_ref().is_some_and(|r| r.code == "SES-004") }));
            // …mutations are refused typed.
            let err = svc.tick(&ctx).unwrap_err();
            assert_eq!(err.code(), "SES-005");
            let err = svc.register(&ctx, &f.trips[0]).unwrap_err();
            assert_eq!(err.code(), "SES-105");
        }
    }
}
