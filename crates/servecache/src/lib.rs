//! # `servecache` — the serving-cache substrate
//!
//! One home for every process-level cache the serving stack leans on
//! (DESIGN.md §4l). Before this crate each layer grew its own cache with
//! its own accounting: the information server's TTL maps counted hits
//! one way, the solver's Dynamic Cache another, and nothing had a
//! capacity bound. This crate unifies them behind four generic pieces:
//!
//! * [`ttl`] — the sim-clock [`TtlCache`], moved here from `eis::cache`
//!   and given what it always lacked: **entry/byte budgets** with a
//!   deterministic FIFO eviction order (insertion order, lazily
//!   deduplicated), so a long-running server cannot grow without bound;
//! * [`lru`] — a deterministic O(1) [`Lru`] with entry *and* byte
//!   budgets, the per-lane Offering-Table cache;
//! * [`metrics`] — [`TierSnapshot`] / [`CacheMetrics`], the unified
//!   hits/misses/evictions/bytes registry every tier reports through,
//!   replacing the bespoke per-cache `(u64, u64)` tuples;
//! * [`fnv`] — a run-stable FNV-1a 64 hasher ([`std::collections::HashMap`]'s
//!   default hasher is randomly seeded per process, so anything that
//!   must hash identically across runs — cache-key digests recorded in
//!   journals or bench JSON — routes through this instead).
//!
//! The crate deliberately knows nothing about forecasts, Offering
//! Tables or sessions: keys and values are generic, byte weights are
//! supplied by the caller, and expiry runs on [`ec_types::SimTime`] so
//! cached state ages at simulated speed and experiments stay
//! reproducible.

pub mod fnv;
pub mod lru;
pub mod metrics;
pub mod ttl;

pub use fnv::Fnv64;
pub use lru::Lru;
pub use metrics::{CacheMetrics, TierSnapshot};
pub use ttl::{TtlBudget, TtlCache};
