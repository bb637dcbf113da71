//! Per-session lifecycle and the precomputed event itinerary.
//!
//! A session is one trip served end-to-end: **register** (segment the
//! trip, precompute every event the trip will ever need) → **advance**
//! (execute itinerary stops in order: segment-boundary re-ranks,
//! forecast-window rollovers, cache adaptations) → **retire** at
//! arrival. Because trips are scheduled (§II-A: the route is known), the
//! whole itinerary is a pure function of `(trip, config)` computed at
//! registration — there is nothing event execution can discover that
//! would change *which* events exist, which is what lets the scheduler
//! promise one total order up front.

use crate::cache::{trip_digest, ArtifactOutcome, SolveArtifact, TableCache, TableKey};
use crate::scheduler::{Event, EventKind};
use ec_types::{ChargerId, EcError, SessionId, SimDuration, SimTime};
use ecocharge_core::{CknnQuery, EcoCharge, OfferingTable, QueryCtx};
use std::fmt;
use std::sync::Arc;
use trajgen::Trip;

/// One precomputed itinerary stop: the virtual instant, trip offset and
/// kind of one future event of this session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedStop {
    /// What happens.
    pub kind: EventKind,
    /// When (virtual time).
    pub time: SimTime,
    /// Where along the trip, metres.
    pub offset_m: f64,
}

/// Precompute a trip's full event itinerary:
///
/// * a [`EventKind::Rerank`] at every split point of the CkNN split list
///   (offset and free-flow ETA straight from [`CknnQuery`]);
/// * a [`EventKind::Rollover`] at every 15-minute forecast-window
///   boundary ([`eis::forecast_window`] grid) strictly inside the trip;
/// * an [`EventKind::Adapt`] every `adapt_every` (skipped when another
///   stop already lands on the same second; `SimDuration::ZERO`
///   disables the cadence);
/// * one [`EventKind::Retire`] at arrival.
///
/// Stops are sorted by `(time, kind)`; offsets for time-driven stops
/// come from the deterministic inverse ETA ([`Trip::offset_at_time`]).
///
/// # Errors
/// Propagates trip-segmentation failures from [`CknnQuery::new`].
pub fn build_itinerary(
    ctx: &QueryCtx<'_>,
    trip: &Trip,
    adapt_every: SimDuration,
) -> Result<Vec<PlannedStop>, EcError> {
    let query = CknnQuery::new(ctx, trip)?;
    let mut stops: Vec<PlannedStop> = query
        .split_points()
        .iter()
        .map(|sp| PlannedStop { kind: EventKind::Rerank, time: sp.eta, offset_m: sp.offset_m })
        .collect();
    let arrival = trip.arrival(ctx.graph);

    let mut window = eis::forecast_window(trip.depart) + eis::FORECAST_TTL;
    while window < arrival {
        if window > trip.depart {
            stops.push(PlannedStop {
                kind: EventKind::Rollover,
                time: window,
                offset_m: trip.offset_at_time(ctx.graph, window),
            });
        }
        window = window + eis::FORECAST_TTL;
    }

    if adapt_every > SimDuration::ZERO {
        let taken: std::collections::HashSet<u64> =
            stops.iter().map(|s| s.time.as_secs()).collect();
        let mut t = trip.depart + adapt_every;
        while t < arrival {
            if !taken.contains(&t.as_secs()) {
                stops.push(PlannedStop {
                    kind: EventKind::Adapt,
                    time: t,
                    offset_m: trip.offset_at_time(ctx.graph, t),
                });
            }
            t = t + adapt_every;
        }
    }

    stops.push(PlannedStop { kind: EventKind::Retire, time: arrival, offset_m: trip.length_m() });
    stops.sort_by_key(|s| (s.time, s.kind));
    Ok(stops)
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Events remain in its itinerary.
    Active,
    /// Retired at arrival; its solve record is complete.
    Completed,
    /// Shed by the service (degraded InfoServer); `shed_reason` carries
    /// the provenance.
    Shed,
}

/// One solve the session performed, with the exact inputs that produced
/// it — the replay record the identity tests (and any audit) use to
/// reproduce the table on a standalone [`EcoCharge`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedTable {
    /// Which event asked for it.
    pub kind: EventKind,
    /// Virtual solve instant.
    pub time: SimTime,
    /// Trip offset, metres.
    pub offset_m: f64,
    /// The Offering Table.
    pub table: OfferingTable,
    /// True when the ranking changed against the session's previous
    /// solve (a table push to the driver); false for heartbeats.
    pub emitted: bool,
}

/// What executing one event observed.
#[derive(Debug)]
pub enum SolveOutcome {
    /// A table was produced; `emitted` as in [`SolvedTable`].
    Table {
        /// Ranking changed vs the previous solve.
        emitted: bool,
    },
    /// No chargers in range at this stop.
    NoOffers,
    /// The session retired (trip complete).
    Retired,
    /// The session left this shard at a [`EventKind::Handoff`] stop; the
    /// service extracts it for delivery to the destination shard. Only
    /// sharded itineraries produce this.
    HandedOff,
    /// The solve failed (provider/config error) — the service decides
    /// between shedding the session and propagating.
    Failed(EcError),
}

/// Why a session was shed, in typed form: a stable error code from the
/// taxonomy (`crate::error`) plus the human-facing provenance detail
/// (breaker states, stale tier). Alert on `code`; read `detail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedReason {
    /// Stable code of the underlying failure: the failing solve's
    /// [`EcError::code`], or `SES-004` when a worker panic shed the
    /// whole batch.
    pub code: String,
    /// Human provenance: the error text plus whatever the InfoServer's
    /// resilience layer knew at shed time.
    pub detail: String,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.detail)
    }
}

/// One registered session: the trip, its private ranking state (own
/// Dynamic Cache and search engine — never shared across sessions), the
/// precomputed itinerary and the cursor into it, and the full solve
/// record.
#[derive(Debug)]
pub struct SessionState {
    /// Stable id (the trip's id — registration-order independent).
    pub id: SessionId,
    /// The trip being served.
    pub trip: Trip,
    method: EcoCharge,
    itinerary: Vec<PlannedStop>,
    next_stop: usize,
    last_ranking: Option<Vec<ChargerId>>,
    /// Lifecycle phase.
    pub phase: SessionPhase,
    /// Every solve, in execution order. After crash recovery this holds
    /// only post-recovery solves (tables are not journaled; the journal
    /// records outcomes, not payloads).
    pub solves: Vec<SolvedTable>,
    /// Why the session was shed, when it was.
    pub shed_reason: Option<ShedReason>,
}

/// The pieces [`SessionState::restore`] rebuilds a session from — what a
/// snapshot stores (plus the deterministically recomputed itinerary).
#[derive(Debug)]
pub struct SessionRestore {
    /// Stable id.
    pub id: SessionId,
    /// The trip, rebuilt from journaled route node ids.
    pub trip: Trip,
    /// The itinerary, recomputed via [`build_itinerary`] (pure in
    /// `(trip, config)`, so recomputing reproduces the original exactly).
    pub itinerary: Vec<PlannedStop>,
    /// Cursor: stops before this index already executed pre-crash.
    pub next_stop: usize,
    /// The last ranking shown to the driver (drives `emitted` flags of
    /// post-recovery solves, so it must be restored exactly).
    pub last_ranking: Option<Vec<ChargerId>>,
    /// Lifecycle phase at snapshot time.
    pub phase: SessionPhase,
    /// Shed provenance, when phase is [`SessionPhase::Shed`].
    pub shed_reason: Option<ShedReason>,
    /// The solver with its Dynamic Cache restored bit-exactly (adapted
    /// solves reuse cached components — value-bearing state).
    pub solver: EcoCharge,
}

impl SessionState {
    /// A freshly admitted session.
    #[must_use]
    pub fn new(id: SessionId, trip: Trip, itinerary: Vec<PlannedStop>) -> Self {
        Self {
            id,
            trip,
            method: EcoCharge::new(),
            itinerary,
            next_stop: 0,
            last_ranking: None,
            phase: SessionPhase::Active,
            solves: Vec::new(),
            shed_reason: None,
        }
    }

    /// Rebuild a session from crash-recovery state. The inverse of the
    /// snapshot image: everything value-bearing is restored exactly; the
    /// solve record restarts empty (see [`SessionState::solves`]).
    #[must_use]
    pub fn restore(parts: SessionRestore) -> Self {
        Self {
            id: parts.id,
            trip: parts.trip,
            method: parts.solver,
            itinerary: parts.itinerary,
            next_stop: parts.next_stop,
            last_ranking: parts.last_ranking,
            phase: parts.phase,
            solves: Vec::new(),
            shed_reason: parts.shed_reason,
        }
    }

    /// The precomputed itinerary.
    #[must_use]
    pub fn itinerary(&self) -> &[PlannedStop] {
        &self.itinerary
    }

    /// Index of the next unexecuted itinerary stop (== number of events
    /// already executed for this session).
    #[must_use]
    pub const fn next_stop(&self) -> usize {
        self.next_stop
    }

    /// The session's solver — read by the journal when snapshotting (the
    /// Dynamic Cache inside is value-bearing state).
    #[must_use]
    pub const fn solver(&self) -> &EcoCharge {
        &self.method
    }

    /// Index one past the first [`EventKind::Handoff`] at or after
    /// `from` — the **local-prefix horizon**. A scheduler only ever holds
    /// a session's stops up to (and including) its next departure: the
    /// stops beyond it belong to another shard's scheduler and are pushed
    /// there by `adopt_session` when the hand-off is delivered. Pushing
    /// past the horizon would leave stale duplicates in the origin shard's
    /// heap when a trip later re-enters it (A→B→A). Unsharded itineraries
    /// have no Handoff stops, so the horizon is the itinerary end and
    /// this is a no-op.
    fn event_horizon(&self, from: usize) -> usize {
        self.itinerary
            .get(from..)
            .unwrap_or(&[])
            .iter()
            .position(|s| s.kind == EventKind::Handoff)
            .map_or(self.itinerary.len(), |i| from + i + 1)
    }

    /// Every itinerary stop up to the local-prefix horizon as a
    /// schedulable event, in itinerary order. The service queues all of
    /// them at registration — the heap then holds the session's complete
    /// local future, so its pop order *is* the shard's total order. (For
    /// unsharded itineraries the horizon is the whole itinerary.)
    pub fn planned_events(&self) -> impl Iterator<Item = Event> + '_ {
        self.itinerary[..self.event_horizon(0)].iter().map(|s| Event {
            time: s.time,
            session: self.id,
            kind: s.kind,
            offset_m: s.offset_m,
        })
    }

    /// The not-yet-executed tail of the itinerary — up to the next
    /// local-prefix horizon — as schedulable events: what recovery
    /// re-queues for a restored active session, and what `adopt_session`
    /// queues when a hand-off arrives (the heap then holds the session's
    /// complete remaining local future, exactly as if the executed prefix
    /// had run in this scheduler).
    pub fn pending_events(&self) -> impl Iterator<Item = Event> + '_ {
        self.itinerary[self.next_stop.min(self.itinerary.len())..self.event_horizon(self.next_stop)]
            .iter()
            .map(|s| Event { time: s.time, session: self.id, kind: s.kind, offset_m: s.offset_m })
    }

    /// The next unexecuted stop, if the session is still active —
    /// the sequencing check [`SessionState::execute`] asserts against.
    #[must_use]
    pub fn next_event(&self) -> Option<Event> {
        if self.phase != SessionPhase::Active {
            return None;
        }
        self.itinerary.get(self.next_stop).map(|s| Event {
            time: s.time,
            session: self.id,
            kind: s.kind,
            offset_m: s.offset_m,
        })
    }

    /// Execute `event` (which must be this session's current stop):
    /// advance the cursor and, for solve events, run one re-rank of
    /// Algorithm 1 at the stop's `(offset, time)` against the session's
    /// private Dynamic Cache.
    pub fn execute(&mut self, ctx: &QueryCtx<'_>, event: &Event) -> SolveOutcome {
        debug_assert_eq!(Some(event.key()), self.next_event().map(|e| e.key()));
        self.next_stop += 1;
        if event.kind == EventKind::Retire {
            self.phase = SessionPhase::Completed;
            return SolveOutcome::Retired;
        }
        if event.kind == EventKind::Handoff {
            // No solve: the stop only marks the departure point. The
            // session object (solver cache, cursor, ranking — everything)
            // travels to the destination shard as-is.
            return SolveOutcome::HandedOff;
        }
        match self.method.rerank(ctx, &self.trip, event.offset_m, event.time) {
            Ok(table) => {
                let ranking = table.charger_ids();
                let emitted = self.last_ranking.as_deref() != Some(&ranking[..]);
                if emitted {
                    self.last_ranking = Some(ranking);
                }
                self.solves.push(SolvedTable {
                    kind: event.kind,
                    time: event.time,
                    offset_m: event.offset_m,
                    table,
                    emitted,
                });
                SolveOutcome::Table { emitted }
            }
            Err(EcError::NoCandidates) => {
                self.last_ranking = None;
                SolveOutcome::NoOffers
            }
            Err(e) => SolveOutcome::Failed(e),
        }
    }

    /// [`SessionState::execute`] through the Offering-Table
    /// cache (see [`crate::cache`]). Only solve events are keyed;
    /// `Retire`/`Handoff` stops delegate unchanged. A hit advances the
    /// cursor, restores the cached absolute post-solve solver snapshot,
    /// and replays the outcome against this session's *own* ranking
    /// history (`emitted` is per-driver state, never cached). A miss
    /// runs the normal path and publishes the artifact — unless the
    /// solve failed, which must re-observe the server every time.
    ///
    /// The caller is responsible for only passing a cache under the
    /// purity gate (model-backed forecasts, no stale tier, no
    /// resilience) — the same precondition batch parallelism has.
    pub fn execute_cached(
        &mut self,
        ctx: &QueryCtx<'_>,
        event: &Event,
        cache: &TableCache,
        config_hash: u64,
    ) -> SolveOutcome {
        if event.kind == EventKind::Retire || event.kind == EventKind::Handoff {
            return self.execute(ctx, event);
        }
        let key = TableKey::of(trip_digest(&self.trip), self.next_stop, config_hash, event);
        if event.kind == EventKind::Rollover {
            cache.roll_window(key.window);
        }
        if let Some(artifact) = cache.lookup(&key) {
            debug_assert_eq!(Some(event.key()), self.next_event().map(|e| e.key()));
            self.next_stop += 1;
            self.method.restore_snapshot(&artifact.post);
            return match &artifact.outcome {
                ArtifactOutcome::Table(table) => {
                    let ranking = table.charger_ids();
                    let emitted = self.last_ranking.as_deref() != Some(&ranking[..]);
                    if emitted {
                        self.last_ranking = Some(ranking);
                    }
                    self.solves.push(SolvedTable {
                        kind: event.kind,
                        time: event.time,
                        offset_m: event.offset_m,
                        table: table.clone(),
                        emitted,
                    });
                    SolveOutcome::Table { emitted }
                }
                ArtifactOutcome::NoOffers => {
                    self.last_ranking = None;
                    SolveOutcome::NoOffers
                }
            };
        }
        let outcome = self.execute(ctx, event);
        let cached_outcome = match &outcome {
            SolveOutcome::Table { .. } => Some(ArtifactOutcome::Table(
                self.solves.last().expect("a Table outcome pushes a solve").table.clone(),
            )),
            SolveOutcome::NoOffers => Some(ArtifactOutcome::NoOffers),
            _ => None,
        };
        if let Some(cached) = cached_outcome {
            cache.insert(
                key,
                Arc::new(SolveArtifact { outcome: cached, post: self.method.snapshot() }),
            );
        }
        outcome
    }

    /// Mark the session shed with its typed provenance.
    pub fn shed(&mut self, reason: ShedReason) {
        self.phase = SessionPhase::Shed;
        self.shed_reason = Some(reason);
    }

    /// The session's Dynamic-Cache `(hits, misses)`.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        self.method.cache_stats()
    }

    /// The latest ranking shown to this session's driver.
    #[must_use]
    pub fn current_ranking(&self) -> Option<&[ChargerId]> {
        self.last_ranking.as_deref()
    }
}
