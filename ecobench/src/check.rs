//! The correctness check every run ends with: spot-replay a seeded sample
//! of served sessions on a standalone [`EcoCharge`] against a fresh
//! [`InfoServer`] and compare every recorded Offering Table bit for bit.

use crate::world::{solver_config, World};
use ec_types::{SessionId, SimTime};
use ecocharge_core::{EcoCharge, OfferingTable, QueryCtx};
use ecocharge_session::{EventKind, SessionState};
use eis::InfoServer;

/// What the replay found.
#[derive(Debug, Default, Clone)]
pub struct Check {
    pub sessions: usize,
    /// Sessions among them that crash recovery restored mid-trip.
    pub restored: usize,
    pub solves: usize,
    pub mismatches: usize,
    /// The first few mismatches, for the log.
    pub detail: Vec<String>,
}

/// Replay every executed solve stop of `session` from the start of its
/// trip and compare the tables it recorded. A session that crash recovery
/// rebuilt records only its post-recovery solves: with `durable` set, the
/// recorded solves must equal the *tail* of the uninterrupted replay;
/// otherwise they must equal all of it.
fn replay(world: &World, session: &SessionState, durable: bool, check: &mut Check) {
    let server = InfoServer::from_sims(world.sims.clone());
    let ctx = QueryCtx::new(&world.graph, &world.fleet, &server, &world.sims, solver_config());
    let mut solver = EcoCharge::new();
    let executed = &session.itinerary()[..session.next_stop().min(session.itinerary().len())];
    let mut produced: Vec<(EventKind, SimTime, u64, OfferingTable)> = Vec::new();
    for stop in executed {
        if matches!(stop.kind, EventKind::Rerank | EventKind::Rollover | EventKind::Adapt) {
            if let Ok(table) = solver.rerank(&ctx, &session.trip, stop.offset_m, stop.time) {
                produced.push((stop.kind, stop.time, stop.offset_m.to_bits(), table));
            }
        }
    }
    let recorded = &session.solves;
    check.solves += recorded.len();
    let mismatch =
        if recorded.len() > produced.len() || (!durable && recorded.len() < produced.len()) {
            Some(format!("recorded {} solves, replay produced {}", recorded.len(), produced.len()))
        } else {
            let tail = &produced[produced.len() - recorded.len()..];
            tail.iter().zip(recorded).find_map(|((kind, time, offset, table), solve)| {
                let same = *kind == solve.kind
                    && *time == solve.time
                    && *offset == solve.offset_m.to_bits()
                    && *table == solve.table;
                (!same).then(|| format!("table at t={} differs", solve.time.as_secs()))
            })
        };
    if let Some(why) = mismatch {
        check.mismatches += 1;
        if check.detail.len() < 5 {
            check.detail.push(format!("session {}: {why}", session.id));
        }
    }
}

/// Replay `sample` (and `restored`, sessions recovery rebuilt mid-trip)
/// out of `sessions`; `durable` when the front recovered from crashes.
pub fn check(
    world: &World,
    sessions: &[&SessionState],
    sample: &[SessionId],
    restored: &[SessionId],
    durable: bool,
) -> Check {
    let mut out = Check::default();
    for (ids, is_restored) in [(sample, false), (restored, true)] {
        for id in ids {
            if let Some(s) = sessions.iter().find(|s| s.id == *id) {
                out.sessions += 1;
                out.restored += usize::from(is_restored);
                replay(world, s, durable, &mut out);
            }
        }
    }
    out
}
