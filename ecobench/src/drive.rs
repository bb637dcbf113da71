//! The open-loop driver: registers each client when its arrival is due,
//! ticks the serving front between arrivals, and times everything on its
//! own clock. With a [`Tracer`] it also records a span around every public
//! call it makes.

use crate::measure::thread_cpu_s;
use ec_types::SessionId;
use ecocharge_core::QueryCtx;
use ecocharge_session::{
    RegisterError, SessionError, SessionService, SessionState, SessionStats, ShardedService,
};
use servecache::CacheMetrics;
use std::time::{Duration, Instant};
use trajgen::Trip;

/// The public serving surface the driver exercises, flat or sharded.
pub trait Front {
    fn register(&mut self, trip: &Trip) -> Result<SessionId, RegisterError>;
    fn tick(&mut self) -> Result<usize, SessionError>;
    fn pending_events(&self) -> usize;
    /// Whether the session has executed its first itinerary stop (its
    /// first re-rank).
    fn first_ran(&self, id: SessionId) -> bool;
    fn stats(&self) -> SessionStats;
    fn sessions(&self) -> Vec<&SessionState>;
    /// Table-cache and forecast-cache tiers, merged over lanes.
    fn caches(&self) -> CacheMetrics;
    /// Events executed per lane (one lane for a flat service).
    fn lane_events(&self) -> Vec<u64>;
}

/// A flat [`SessionService`] with the query context it ticks against.
pub struct Flat<'c, 'a> {
    pub svc: SessionService,
    pub ctx: &'c QueryCtx<'a>,
}

impl Front for Flat<'_, '_> {
    fn register(&mut self, trip: &Trip) -> Result<SessionId, RegisterError> {
        self.svc.register(self.ctx, trip)
    }
    fn tick(&mut self) -> Result<usize, SessionError> {
        self.svc.tick(self.ctx)
    }
    fn pending_events(&self) -> usize {
        self.svc.pending_events()
    }
    fn first_ran(&self, id: SessionId) -> bool {
        self.svc.session(id).is_some_and(|s| s.next_stop() > 0)
    }
    fn stats(&self) -> SessionStats {
        self.svc.stats()
    }
    fn sessions(&self) -> Vec<&SessionState> {
        self.svc.sessions().collect()
    }
    fn caches(&self) -> CacheMetrics {
        let mut m = self.svc.cache_metrics();
        m.absorb(&self.ctx.server.cache_metrics());
        m
    }
    fn lane_events(&self) -> Vec<u64> {
        vec![self.svc.stats().events_executed]
    }
}

impl Front for ShardedService<'_> {
    fn register(&mut self, trip: &Trip) -> Result<SessionId, RegisterError> {
        ShardedService::register(self, trip)
    }
    fn tick(&mut self) -> Result<usize, SessionError> {
        ShardedService::tick(self)
    }
    fn pending_events(&self) -> usize {
        ShardedService::pending_events(self)
    }
    fn first_ran(&self, id: SessionId) -> bool {
        self.session(id).is_some_and(|s| s.next_stop() > 0)
    }
    fn stats(&self) -> SessionStats {
        ShardedService::stats(self)
    }
    fn sessions(&self) -> Vec<&SessionState> {
        ShardedService::sessions(self)
    }
    fn caches(&self) -> CacheMetrics {
        self.cache_metrics()
    }
    fn lane_events(&self) -> Vec<u64> {
        self.per_shard_stats().iter().map(|s| s.events_executed).collect()
    }
}

/// No parent / no session.
pub const NONE: u32 = u32::MAX;

/// How long before a due arrival the idle driver stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(500);

/// One recorded span: a named interval on the benchmark's clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub session: u32,
    pub start_s: f64,
    pub end_s: f64,
}

/// In-memory span store, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            name,
            parent,
            session,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: end.duration_since(self.origin).as_secs_f64(),
        });
        id
    }

    /// Open a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, session: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, session, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[id as usize].end_s = end;
    }

    /// Per span name: `(count, mean duration s, mean self time s)`. Self
    /// time is the span's duration minus its children's (children of
    /// one parent never overlap here: the driver is one thread).
    pub fn summary(&self) -> std::collections::BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_s[s.parent as usize] += s.end_s - s.start_s;
            }
        }
        let mut out: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
            std::collections::BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_s) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_s - s.start_s;
            e.2 += (s.end_s - s.start_s - kids).max(0.0);
        }
        for e in out.values_mut() {
            e.1 /= e.0 as f64;
            e.2 /= e.0 as f64;
        }
        out
    }

    /// Write every span as a tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\tname\tsession\tstart_s\tend_s")?;
        let opt = |v: u32| if v == NONE { "-".to_string() } else { v.to_string() };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{:.9}\t{:.9}",
                opt(s.parent),
                s.name,
                opt(s.session),
                s.start_s,
                s.end_s
            )?;
        }
        f.flush()
    }
}

/// Registration refusals by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Refusals {
    pub full: u64,
    pub duplicate: u64,
    pub planning: u64,
    pub journal: u64,
    pub quarantined: u64,
}

impl Refusals {
    pub fn total(&self) -> u64 {
        self.full + self.duplicate + self.planning + self.journal + self.quarantined
    }
}

/// Measurements the traced pass adds.
#[derive(Debug, Default)]
pub struct TraceData {
    pub tracer: Option<Tracer>,
    /// Root span of the serving pass.
    pub root: u32,
    pub backlog_max: usize,
    /// Tick durations (s) with and without a snapshot written in them.
    pub snapshot_ticks: Vec<f64>,
    pub plain_ticks: Vec<f64>,
}

/// The open-loop driver state, carried across crash/recover epochs.
pub struct Driver<'t> {
    trips: &'t [Trip],
    offsets: &'t [f64],
    origin: Instant,
    /// Outage time the schedule has been shifted by (recoveries).
    shift: Duration,
    next: usize,
    pending_first: Vec<(SessionId, Instant)>,
    /// First-table latency of every served session, ms.
    pub first_ms: Vec<f64>,
    /// How late the generator reached each arrival, ms.
    pub late_ms: Vec<f64>,
    /// Wall time inside `register`, `tick` and `recover` calls.
    pub busy: Duration,
    /// CPU time inside the same calls, seconds.
    pub busy_cpu_s: f64,
    /// CPU and wall time inside `tick` calls alone, seconds.
    pub tick_cpu_s: f64,
    pub tick_wall_s: f64,
    pub registered: u64,
    pub refusals: Refusals,
    pub ticks: u64,
    pub tick_events: u64,
    pub tick_ms: Vec<f64>,
    pub register_us: Vec<f64>,
    /// Sessions whose first stop never ran because the queue drained.
    pub never_served: u64,
    /// Whether snapshot ticks are told apart (journaled fronts).
    pub watch_snapshots: bool,
    pub trace: TraceData,
}

impl<'t> Driver<'t> {
    pub fn new(trips: &'t [Trip], offsets: &'t [f64], tracer: Option<Tracer>) -> Self {
        let mut trace = TraceData::default();
        if let Some(mut t) = tracer {
            trace.root = t.open("serve", NONE, NONE);
            trace.tracer = Some(t);
        }
        Self {
            trips,
            offsets,
            origin: Instant::now(),
            shift: Duration::ZERO,
            next: 0,
            pending_first: Vec::new(),
            first_ms: Vec::with_capacity(trips.len()),
            late_ms: Vec::with_capacity(trips.len()),
            busy: Duration::ZERO,
            busy_cpu_s: 0.0,
            tick_cpu_s: 0.0,
            tick_wall_s: 0.0,
            registered: 0,
            refusals: Refusals::default(),
            ticks: 0,
            tick_events: 0,
            tick_ms: Vec::new(),
            register_us: Vec::with_capacity(trips.len()),
            never_served: 0,
            watch_snapshots: false,
            trace,
        }
    }

    /// Restart the schedule clock (serving starts now).
    pub fn start(&mut self) {
        self.origin = Instant::now();
    }

    fn due(&self, i: usize) -> Instant {
        self.origin + self.shift + Duration::from_secs_f64(self.offsets[i])
    }

    /// Account a crash recovery that took `cpu_s` of CPU: the call counts
    /// as busy time, and arrivals not yet due are shifted by it.
    pub fn recovered(&mut self, start: Instant, end: Instant, cpu_s: f64) {
        let d = end - start;
        self.busy += d;
        self.busy_cpu_s += cpu_s;
        self.shift += d;
        if let Some(t) = self.trace.tracer.as_mut() {
            t.record("recover", self.trace.root, NONE, start, end);
        }
    }

    /// Serve arrivals until arrival `stop` (a crash point) has been
    /// registered and its first stop executed — its later stops are still
    /// queued, so the crash interrupts a trip — or, when `stop` is past the
    /// last arrival, until every registered session has had its first
    /// table.
    pub fn run_until(&mut self, front: &mut dyn Front, stop: usize) -> Result<(), SessionError> {
        loop {
            let now = Instant::now();
            if self.next < self.trips.len() {
                let due = self.due(self.next);
                if now >= due {
                    let crash_point = self.next == stop;
                    self.arrive(front, now, due);
                    if crash_point {
                        return self.tick(front);
                    }
                    continue;
                }
                if front.pending_events() == 0 {
                    // Sleep until shortly before the arrival, then spin: a
                    // sleeping thread on a shared host can wake milliseconds
                    // late, which would read as first-table latency.
                    match (due - now).checked_sub(SPIN) {
                        Some(nap) => std::thread::sleep(nap),
                        None => std::hint::spin_loop(),
                    }
                    continue;
                }
            } else if self.pending_first.is_empty() {
                return Ok(());
            } else if front.pending_events() == 0 {
                self.never_served += self.pending_first.len() as u64;
                self.pending_first.clear();
                return Ok(());
            }
            self.tick(front)?;
        }
    }

    fn arrive(&mut self, front: &mut dyn Front, now: Instant, due: Instant) {
        let trip = &self.trips[self.next];
        self.next += 1;
        self.late_ms.push((now - due).as_secs_f64() * 1e3);
        if self.trace.tracer.is_some() {
            self.trace.backlog_max = self.trace.backlog_max.max(front.pending_events());
        }
        let cpu0 = thread_cpu_s();
        let start = Instant::now();
        let result = front.register(trip);
        let end = Instant::now();
        self.busy += end - start;
        self.busy_cpu_s += thread_cpu_s() - cpu0;
        self.register_us.push((end - start).as_secs_f64() * 1e6);
        if let Some(t) = self.trace.tracer.as_mut() {
            t.record("register", self.trace.root, trip.id.0, start, end);
        }
        match result {
            Ok(id) => {
                self.registered += 1;
                self.pending_first.push((id, due));
            }
            Err(RegisterError::Full { .. }) => self.refusals.full += 1,
            Err(RegisterError::Duplicate(_)) => self.refusals.duplicate += 1,
            Err(RegisterError::Planning(_)) => self.refusals.planning += 1,
            Err(RegisterError::Journal(_)) => self.refusals.journal += 1,
            Err(RegisterError::Quarantined { .. }) => self.refusals.quarantined += 1,
        }
    }

    fn tick(&mut self, front: &mut dyn Front) -> Result<(), SessionError> {
        let traced = self.trace.tracer.is_some();
        let snaps_before =
            if self.watch_snapshots && traced { front.stats().snapshots_written } else { 0 };
        let cpu0 = thread_cpu_s();
        let start = Instant::now();
        let result = front.tick();
        let end = Instant::now();
        let cpu = thread_cpu_s() - cpu0;
        let wall = end - start;
        self.busy += wall;
        self.busy_cpu_s += cpu;
        self.tick_cpu_s += cpu;
        self.tick_wall_s += wall.as_secs_f64();
        let executed = result?;
        self.ticks += 1;
        self.tick_events += executed as u64;
        self.tick_ms.push(wall.as_secs_f64() * 1e3);
        if let Some(t) = self.trace.tracer.as_mut() {
            t.record("tick", self.trace.root, NONE, start, end);
            if self.watch_snapshots {
                if front.stats().snapshots_written > snaps_before {
                    self.trace.snapshot_ticks.push(wall.as_secs_f64());
                } else {
                    self.trace.plain_ticks.push(wall.as_secs_f64());
                }
            }
        }
        let first_ms = &mut self.first_ms;
        self.pending_first.retain(|&(id, due)| {
            if front.first_ran(id) {
                first_ms.push((end - due).as_secs_f64() * 1e3);
                false
            } else {
                true
            }
        });
        Ok(())
    }

    /// Close the serving pass's root span.
    pub fn finish(&mut self) {
        if let Some(t) = self.trace.tracer.as_mut() {
            t.close(self.trace.root);
        }
    }
}
