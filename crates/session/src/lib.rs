//! # `ecocharge-session` — the fleet-scale serving layer.
//!
//! Every crate below this one makes a *single* trip's CkNN-EC solve fast
//! or robust. This crate is the layer the ROADMAP's "heavy traffic from
//! millions of users" needs above that: a multi-tenant continuous-query
//! service that owns N concurrent trips end-to-end and multiplexes their
//! work instead of looping over them.
//!
//! * [`cache`] — the Offering-Table cache: a per-lane L1 LRU of
//!   rendered solves, keyed so sessions sharing a trip shape replay
//!   each other's solves with bit-identical results (cache on/off is
//!   sweep-tested);
//! * [`registry`] — per-session lifecycle (register trip → segment →
//!   re-rank → advance → retire) with the session's full solve record;
//! * [`scheduler`] — the deterministic virtual-time event scheduler: a
//!   binary-heap queue keyed `(event_time, session_id, event_kind)`
//!   interleaving segment-boundary re-ranks, 15-minute forecast-window
//!   rollovers and Dynamic-Cache adaptations across all sessions in one
//!   total order;
//! * [`service`] — [`SessionService`]: admission control, batched event
//!   execution fanned out through `ec-exec` (bit-identical Offering
//!   Tables at any thread count), bounded per-tick event budgets with
//!   deterministic overflow deferral, and graceful session shedding when
//!   the InfoServer is degraded;
//! * [`stats`] — [`SessionStats`], the service-wide counters including
//!   the cross-session forecast-sharing hit rates measured by
//!   [`eis::ForecastShare`];
//! * [`error`] — the unified error taxonomy: every failure the serving
//!   stack can surface, as typed variants with stable codes (`SES-*`,
//!   `JRN-*`, `REC-*` here; `EC-*` from the core);
//! * [`journal`] — the write-ahead event journal: committed transitions
//!   in a compact, versioned, checksummed binary log with periodic
//!   whole-service snapshots;
//! * [`recovery`] — crash recovery: newest usable snapshot + journal
//!   tail replay, verified record-by-record against what the journal
//!   says happened;
//! * [`shard`] — geographic sharding: [`ShardedService`] partitions the
//!   world into balanced quadtree tiles, runs one serving stack per
//!   shard with deterministic cross-shard session hand-off, and
//!   federates the per-shard forecast ledgers with a pure CRDT join —
//!   bit-identical Offering Tables at any shard count.
//!
//! ## Crash safety
//!
//! A journaled service ([`SessionService::with_journal`]) appends every
//! committed transition — admissions and executed batches — to the
//! write-ahead journal *before* acknowledging it, and snapshots the
//! full service image (registry, cursors, per-session Dynamic Caches,
//! forecast-share ledger) on a tick cadence. After a crash,
//! [`recovery::recover`] rebuilds the service from the newest usable
//! snapshot and re-executes the journal tail with the original batch
//! boundaries; because execution is deterministic (below), the replayed
//! events, outcomes and Offering Tables are **bit-identical** to the
//! uninterrupted run — and the replay *verifies* that, record by
//! record, failing loudly ([`error::RecoveryError::ReplayDivergence`])
//! rather than diverging silently.
//!
//! Faults degrade, they do not cascade: a refused journal append or a
//! worker panic **quarantines** the service (reads keep answering,
//! mutations return typed errors, nothing panics outward); a failed
//! snapshot write degrades to journal-only operation; a torn journal
//! tail or corrupt snapshot file is healed or skipped by recovery.
//!
//! ## The determinism argument
//!
//! The service promises: *for every trip, the sequence of Offering
//! Tables produced through the service is bit-identical to replaying the
//! same `(offset, time)` solves through a standalone
//! [`ecocharge_core::EcoCharge`] on a fresh server — at any thread
//! count, any batch budget, any registration order.* Three properties
//! carry it:
//!
//! 1. **The heap holds the whole future.** Every event a session will
//!    ever need is queued at registration, so the heap's pop order *is*
//!    the global `(time, session, kind)` total order — independent of
//!    tick budget and thread count. A batch is a prefix of that order
//!    capped at one event per session, so batch items touch disjoint
//!    mutable state (`ec_exec::parallel_map_mut` cannot reorder anything
//!    a session observes) and each session's events execute strictly in
//!    itinerary order.
//! 2. **Virtual times never bend.** An event's `(offset_m, time)` come
//!    from the trip's precomputed itinerary; backpressure defers *real*
//!    execution to a later tick but never rewrites the virtual instant a
//!    solve is evaluated at.
//! 3. **Forecast purity per window.** For model-backed servers a
//!    forecast is a pure function of `(feed key, forecast window)`
//!    ([`eis::forecast_window`]), so whichever session warms a cache
//!    cell, every later reader gets byte-identical values — sharing
//!    changes cost, never answers. Against servers without that
//!    guarantee the service falls back to sequential batch execution.

pub mod cache;
pub mod error;
pub mod journal;
pub mod recovery;
pub mod registry;
pub mod scheduler;
pub mod service;
pub mod shard;
pub mod stats;

pub use cache::{
    config_digest, trip_digest, ArtifactOutcome, SolveArtifact, TableCache, TableCacheConfig,
    TableKey,
};
pub use error::{JournalError, RecoveryError, RegisterError, SessionError};
pub use journal::{
    read_journal, CommitEntry, Journal, JournalConfig, JournalRead, OutcomeTag, Record,
    ServiceImage, SessionImage, SinkChaos,
};
pub use recovery::{recover, RecoveryReport};
pub use registry::{
    build_itinerary, PlannedStop, SessionPhase, SessionState, ShedReason, SolveOutcome, SolvedTable,
};
pub use scheduler::{Batch, Event, EventKind, EventScheduler};
pub use service::{ServiceChaos, ServiceConfig, ServiceHealth, SessionService};
pub use shard::{
    build_sharded_itinerary, recover_sharded, ShardConfig, ShardEnv, ShardPlan, ShardedService,
};
pub use stats::SessionStats;
