//! # `ecocharge-bench` — the evaluation harness
//!
//! Regenerates every figure of the paper's §V on the synthetic-substitute
//! datasets (DESIGN.md §3–4). The `repro` binary drives the four
//! experiment series; the Criterion benches micro-measure the substrate
//! operations each figure exercises.
//!
//! Absolute milliseconds differ from the paper (a Rust library on
//! different hardware vs. a Python prototype on a VMware node); the
//! *shapes* — method ordering, parameter trends, ablation ranking — are
//! the reproduction target. EXPERIMENTS.md records paper-vs-measured for
//! every series.

pub mod adaptive;
pub mod detour;
pub mod env;
pub mod extensions;
pub mod figures;
pub mod outcomes;
pub mod prune;
pub mod recovery;
pub mod scaling;
pub mod serve;
pub mod sessions;
pub mod shard;
pub mod table;
pub mod validate;

mod summary;

pub use adaptive::{run_adaptive, write_adaptive_json, AdaptiveRow, MetroTier};
pub use detour::{run_detour, write_detour_json, DetourRow};
pub use env::ExperimentEnv;
pub use extensions::{run_balance, run_cache, run_dayrun, run_modes, run_regret, run_throughput};
pub use figures::{run_fig6, run_fig7, run_fig8, run_fig9, HarnessConfig, Row};
pub use outcomes::{
    outcomes_gate_failures, run_outcomes_series, write_outcomes_json, FeedbackProbe,
    OutcomesReport, OutcomesRow,
};
pub use prune::{run_prune, write_prune_json, PruneRow};
pub use recovery::{run_recovery, run_recovery_chaos, write_recovery_json, ChaosRow, RecoveryRow};
pub use scaling::{run_scaling, write_scaling_json, ScalingRow};
pub use serve::{
    run_serve, serve_gate_failures, write_serve_json, IdentityCell, ServeReport, ServeRow,
};
pub use sessions::{run_sessions, write_sessions_json, SessionsRow};
pub use shard::{run_shard, shard_gate_failures, write_shard_json, ShardRow};
pub use table::{print_rows, write_csv};
pub use validate::{run_validation, Check};
