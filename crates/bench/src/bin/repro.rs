//! `repro` — regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run -p ecocharge-bench --bin repro --release -- all
//! cargo run -p ecocharge-bench --bin repro --release -- fig6 --reps 5 --trips 8
//! cargo run -p ecocharge-bench --bin repro --release -- fig9 --scale 0.1 --seed 7
//! ```
//!
//! Flags: `--reps N` repetitions, `--trips N` trips per repetition,
//! `--scale F` fraction of the paper's trajectory cardinality, `--seed N`.

use ecocharge_bench::{
    outcomes_gate_failures, print_rows, run_adaptive, run_balance, run_cache, run_dayrun,
    run_detour, run_fig6, run_fig7, run_fig8, run_fig9, run_modes, run_outcomes_series, run_prune,
    run_recovery, run_recovery_chaos, run_regret, run_scaling, run_serve, run_sessions, run_shard,
    run_throughput, run_validation, serve_gate_failures, shard_gate_failures, write_adaptive_json,
    write_csv, write_detour_json, write_outcomes_json, write_prune_json, write_recovery_json,
    write_scaling_json, write_serve_json, write_sessions_json, write_shard_json, HarnessConfig,
    MetroTier,
};
use ecocharge_core::DetourBackend;
use std::path::PathBuf;
use trajgen::{DatasetKind, DatasetScale};

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig6|fig7|fig8|fig9|all|regret|cache|modes|balance|ext|scaling|detour|prune|adaptive|sessions|shard|serve|recovery|outcomes> \
        [--reps N] [--trips N] [--scale F] [--seed N] [--threads N] [--sessions N] \
        [--detour-backend dijkstra|ch|auto] [--metro off|small|full] [--csv DIR]\n\
  fig6..fig9  the paper's evaluation figures\n\
  all         all four paper figures\n\
  regret      extension: forecast-vs-ground-truth referee\n\
  cache       extension: Dynamic Caching on/off + API-call economy\n\
  modes       extension: Mode 1/2/3 end-to-end refresh latency\n\
  balance     extension: recommendation-traffic balancing burst\n\
  throughput  extension: Mode-2 server throughput under client load\n\
  dayrun      extension: closed-loop fleet day (clean vs grid energy)\n\
  scaling     F_t vs threads (1,2,4,8) with bit-identity check; writes BENCH_scaling.json\n\
  detour      Dijkstra vs CH backend x graph-size sweep (all datasets + generated\n\
              urban grids) with bit-identity check; writes BENCH_detour.json\n\
              (exits non-zero when any backend diverges)\n\
  prune       lazy filter-refine: fleet x radius x pruning on/off sweep counting\n\
              exact-EC evaluations avoided, with bit-identity check; writes\n\
              BENCH_prune.json (exits non-zero when any pruned table diverges or\n\
              the largest fleet avoids no evaluations)\n\
  adaptive    cost-model-driven selection: Auto vs both static choices per decision\n\
              dimension (detour backend, pruning) on every world — paper datasets,\n\
              a sparse-fleet grid and metro-class substrates (--metro full adds a\n\
              1M+-node grid with 100k chargers); writes BENCH_adaptive.json (exits\n\
              non-zero when Auto loses to the best static choice on any row, or any\n\
              table diverges)\n\
  sessions    fleet-scale serving: sessions (10,100,1000) x service threads (1,4,8)\n\
              through the multi-tenant SessionService, measuring throughput, p50/p99\n\
              event latency and the cross-session forecast-sharing hit rate, with a\n\
              bit-identity check per cell; writes BENCH_sessions.json (exits non-zero\n\
              when any cell diverges or the largest sweep shares no forecasts)\n\
  shard       geographic sharding: shards (1,2,4,8) x front threads (1,4,8) over a\n\
              metro-tier grid city (--sessions trips, default 1000) through the\n\
              sharded front, measuring cross-shard hand-offs, the per-shard\n\
              breakdown and the federated shared-hit rate, with a bit-identity\n\
              check against the unsharded run per cell. events/s is critical-path\n\
              throughput: per-tick lane costs are measured in isolation and\n\
              LPT-scheduled onto the row's worker count, so the number is\n\
              independent of this host's core count (span(s) is that critical\n\
              path; serve(s) the serial wall clock); writes BENCH_shard.json\n\
              (exits non-zero when any cell diverges, 4 shards sustain < 3x the\n\
              critical-path events/s of 1 shard at >= 4 threads, or the federated\n\
              hit rate drifts more than 5 points)\n\
  serve       per-lane Offering-Table cache under closed-loop Zipf load: deterministic\n\
              virtual clients (skew 0/0.8/1.2 x 1k/10k/50k sessions, or --sessions N\n\
              for a single fleet size) hammer a 2-shard front cache-off then\n\
              cache-on, measuring sustained events/s, p50/p99/p999 latency and\n\
              the L1 hit rate, with a bit-identity check per cell plus an\n\
              identity matrix across shard x thread counts on the smallest\n\
              high-skew cell; writes BENCH_serve.json (exits non-zero when any\n\
              cell diverges, a high-skew cell never hits the cache, or cache-on\n\
              falls below the throughput gate: 1.5x at >=10k sessions, 1.0x below)\n\
  recovery    crash-recovery fidelity: seeded crashes (clean kills at record/tick\n\
              boundaries, torn tails mid-record) x recovery threads (1,4,8) over a\n\
              journaled fleet, asserting the recovered Offering Tables are\n\
              bit-identical to the uninterrupted run, plus a deterministic chaos\n\
              soak (journal-append failures, worker panics, snapshot corruption);\n\
              writes BENCH_recovery.json (exits non-zero on any divergence or any\n\
              fault that escapes containment)\n\
  outcomes    closed-loop realized outcomes: driver policies (Nearest, CommitTop1,\n\
              HedgeTopK, ReQueryOnFull) x fleet sizes x demand intensities through\n\
              the stochastic-occupancy simulator, measuring realized wait, strand\n\
              rate, queue depth, detour energy and realized-vs-predicted EC error,\n\
              with a per-cell determinism matrix (solver threads 1/4/8 + reversed\n\
              registration must be bit-identical) and a feedback on/off probe;\n\
              --sessions N runs a single fleet of N vehicles (CI smoke); writes\n\
              BENCH_outcomes.json (exits non-zero when any cell diverges, a table\n\
              policy fails to beat Nearest on strand rate AND mean wait at the\n\
              highest intensity, ReQueryOnFull strands more than CommitTop1 on any\n\
              cell, or observed-full feedback fails to alter realized outcomes)\n\
  validate    self-check: assert every headline shape claim (exits non-zero on failure)\n\
  ext         all four extensions\n\
  --threads N worker threads for ranking / rep fan-out (default 1)\n\
  --detour-backend B  detour engine for every ranking in the run (default auto:\n\
              the calibrated cost model picks per graph); bit-identical results\n\
              either way, only the speed changes"
    );
    std::process::exit(2);
}

fn print_regret(harness: &HarnessConfig) {
    let rows = run_regret(harness);
    println!("\n=== Extension: forecast-driven regret ===");
    println!("{:<12} {:>14} {:>14} {:>9}", "dataset", "SC% (paper)", "SC% (truth)", "regret");
    for r in rows {
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>9.2}",
            r.dataset,
            r.forecast_sc_pct,
            r.actual_sc_pct,
            r.forecast_sc_pct - r.actual_sc_pct
        );
    }
}

fn print_cache(harness: &HarnessConfig) {
    let rows = run_cache(harness);
    println!("\n=== Extension: Dynamic Caching ablation ===");
    println!(
        "{:<12} {:<12} {:>8} {:>9} {:>10} {:>10} {:>8}",
        "dataset", "config", "SC%", "Ft(ms)", "api calls", "hits", "adapts"
    );
    for r in rows {
        println!(
            "{:<12} {:<12} {:>8.2} {:>9.3} {:>10} {:>10} {:>8}",
            r.dataset, r.label, r.sc_pct, r.ft_ms, r.upstream_calls, r.cache_hits, r.adaptations
        );
    }
}

fn print_modes(harness: &HarnessConfig) {
    let (compute_ms, rows) = run_modes(harness);
    println!("\n=== Extension: operating-mode latency (ranking {compute_ms:.3} ms) ===");
    println!("{:<12} {:>12} {:>12}", "mode", "cold (ms)", "warm (ms)");
    for r in rows {
        println!("{:<12} {:>12.2} {:>12.2}", format!("{:?}", r.mode), r.cold_ms, r.warm_ms);
    }
}

fn print_throughput(harness: &HarnessConfig) {
    let rows = run_throughput(harness, &[1, 2, 4, 8], 16);
    println!("\n=== Extension: Mode-2 server throughput (full solves, Oldenburg) ===");
    println!(
        "{:<9} {:>8} {:>10} {:>14} {:>16}",
        "clients", "workers", "requests", "tables/sec", "mean latency ms"
    );
    for r in rows {
        println!(
            "{:<9} {:>8} {:>10} {:>14.0} {:>16.3}",
            r.clients, r.workers, r.requests, r.tables_per_s, r.mean_latency_ms
        );
    }
}

fn print_dayrun(harness: &HarnessConfig) {
    let rows = run_dayrun(harness, 40);
    println!("\n=== Extension: closed-loop fleet day (40 vehicles, Oldenburg Tuesday) ===");
    println!(
        "{:<11} {:>7} {:>10} {:>10} {:>11} {:>10} {:>11} {:>8}",
        "policy", "stops", "conflicts", "clean kWh", "grid kWh", "clean %", "detour kWh", "skipped"
    );
    for r in rows {
        println!(
            "{:<11} {:>7} {:>10} {:>10.1} {:>11.1} {:>9.1}% {:>11.1} {:>8}",
            r.policy,
            r.charge_stops,
            r.conflicts,
            r.clean_kwh,
            r.grid_kwh,
            r.clean_fraction() * 100.0,
            r.detour_kwh,
            r.skipped
        );
    }
}

fn print_balance(harness: &HarnessConfig) {
    let rows = run_balance(harness, 40);
    println!("\n=== Extension: recommendation-traffic balancing (40 vehicles) ===");
    println!(
        "{:<14} {:>9} {:>9} {:>14} {:>8}",
        "method", "vehicles", "max load", "distinct tops", "SC%"
    );
    for r in rows {
        println!(
            "{:<14} {:>9} {:>9} {:>14} {:>8.2}",
            r.label, r.vehicles, r.max_load, r.distinct_tops, r.sc_pct
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let which = args[0].as_str();
    let mut harness = HarnessConfig::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut metro = MetroTier::Small;
    let mut sessions_override: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = args.get(i + 1).unwrap_or_else(|| usage());
        match flag {
            "--reps" => harness.reps = val.parse().unwrap_or_else(|_| usage()),
            "--trips" => harness.trips_per_rep = val.parse().unwrap_or_else(|_| usage()),
            "--scale" => {
                harness.scale = DatasetScale::fraction(val.parse().unwrap_or_else(|_| usage()));
            }
            "--seed" => harness.seed = val.parse().unwrap_or_else(|_| usage()),
            "--threads" => {
                harness.threads = val.parse().unwrap_or_else(|_| usage());
                if harness.threads == 0 {
                    usage();
                }
            }
            "--detour-backend" => {
                harness.detour_backend = DetourBackend::parse(val).unwrap_or_else(|| usage());
            }
            "--metro" => metro = MetroTier::parse(val).unwrap_or_else(|| usage()),
            "--sessions" => {
                let n: usize = val.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                sessions_override = Some(n);
            }
            "--csv" => csv_dir = Some(PathBuf::from(val)),
            _ => usage(),
        }
        i += 2;
    }
    let emit = |name: &str, rows: &[ecocharge_bench::Row]| {
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{name}.csv"));
            match write_csv(&path, rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("csv write failed for {name}: {e}"),
            }
        }
    };

    let started = std::time::Instant::now();
    match which {
        "fig6" => {
            let rows = run_fig6(&harness);
            print_rows("Figure 6: Performance Evaluation", &rows, false);
            emit("fig6", &rows);
        }
        "fig7" => {
            let rows = run_fig7(&harness);
            print_rows("Figure 7: R-opt Evaluation", &rows, false);
            emit("fig7", &rows);
        }
        "fig8" => {
            let rows = run_fig8(&harness);
            print_rows("Figure 8: Q-opt Evaluation", &rows, false);
            emit("fig8", &rows);
        }
        "fig9" => {
            let rows = run_fig9(&harness);
            print_rows("Figure 9: Weight Ablation", &rows, true);
            emit("fig9", &rows);
        }
        "all" => {
            let rows = run_fig6(&harness);
            print_rows("Figure 6: Performance Evaluation", &rows, false);
            emit("fig6", &rows);
            let rows = run_fig7(&harness);
            print_rows("Figure 7: R-opt Evaluation", &rows, false);
            emit("fig7", &rows);
            let rows = run_fig8(&harness);
            print_rows("Figure 8: Q-opt Evaluation", &rows, false);
            emit("fig8", &rows);
            let rows = run_fig9(&harness);
            print_rows("Figure 9: Weight Ablation", &rows, true);
            emit("fig9", &rows);
        }
        "scaling" => {
            let rows = run_scaling(&harness, &[1, 2, 4, 8]);
            println!("\n=== Scaling: F_t vs worker threads (Oldenburg) ===");
            println!(
                "{:<12} {:>8} {:>10} {:>9} {:>8} {:>10}",
                "method", "threads", "Ft(ms)", "speedup", "tables", "identical"
            );
            for r in &rows {
                println!(
                    "{:<12} {:>8} {:>10.3} {:>8.2}x {:>8} {:>10}",
                    r.method, r.threads, r.ft_ms, r.speedup, r.tables, r.identical
                );
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_scaling.json");
            match write_scaling_json(&path, &rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("scaling json write failed: {e}"),
            }
            if rows.iter().any(|r| !r.identical) {
                eprintln!("ERROR: a parallel run diverged from the single-threaded tables");
                std::process::exit(1);
            }
        }
        "detour" => {
            let rows = run_detour(&harness, &DatasetKind::ALL);
            println!(
                "\n=== Detour backends: three-sweep D-component batch, \
                 datasets + generated grids ==="
            );
            println!(
                "{:<19} {:>8} {:>9} {:>12} {:>10} {:>13} {:>13} {:>9} {:>10}",
                "graph",
                "nodes",
                "backend",
                "prep(ms)",
                "shortcuts",
                "query(us)",
                "settled/qry",
                "speedup",
                "identical"
            );
            for r in &rows {
                println!(
                    "{:<19} {:>8} {:>9} {:>12.1} {:>10} {:>13.1} {:>13.0} {:>8.2}x {:>10}",
                    r.dataset,
                    r.nodes,
                    r.backend.name(),
                    r.preprocess_ms,
                    r.shortcuts,
                    r.median_query_us,
                    r.mean_settled,
                    r.speedup,
                    r.identical
                );
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_detour.json");
            match write_detour_json(&path, &rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("detour json write failed: {e}"),
            }
            if rows.iter().any(|r| !r.identical) {
                eprintln!("ERROR: a backend diverged from the Dijkstra single-threaded tables");
                std::process::exit(1);
            }
        }
        "prune" => {
            let rows = run_prune(&harness);
            println!("\n=== Lazy filter-refine: exact evaluations avoided (urban grid) ===");
            println!(
                "{:<7} {:>9} {:>8} {:>8} {:>12} {:>10} {:>9} {:>12} {:>12} {:>8} {:>10}",
                "fleet",
                "R(km)",
                "queries",
                "pool",
                "exact eager",
                "exact lazy",
                "avoided",
                "eager(us)",
                "lazy(us)",
                "speedup",
                "identical"
            );
            for r in &rows {
                println!(
                    "{:<7} {:>9.0} {:>8} {:>8} {:>12} {:>10} {:>8.1}% {:>12.1} {:>12.1} {:>7.2}x {:>10}",
                    r.fleet,
                    r.radius_km,
                    r.queries,
                    r.pool,
                    r.exact_unpruned,
                    r.exact_pruned,
                    r.avoided_pct,
                    r.median_unpruned_us,
                    r.median_pruned_us,
                    r.speedup,
                    r.identical
                );
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_prune.json");
            match write_prune_json(&path, &rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("prune json write failed: {e}"),
            }
            if rows.iter().any(|r| !r.identical) {
                eprintln!("ERROR: a pruned run diverged from the unpruned tables");
                std::process::exit(1);
            }
            let largest = rows.iter().map(|r| r.fleet).max().unwrap_or(0);
            if !rows
                .iter()
                .filter(|r| r.fleet == largest)
                .any(|r| r.exact_pruned < r.exact_unpruned)
            {
                eprintln!("ERROR: pruning avoided no exact evaluations on the largest fleet");
                std::process::exit(1);
            }
        }
        "adaptive" => {
            let rows = run_adaptive(&harness, &DatasetKind::ALL, metro);
            println!(
                "\n=== Adaptive selection: Auto vs static per decision dimension \
                 (tolerance {:.2}x best static) ===",
                ecocharge_bench::adaptive::TOLERANCE
            );
            println!(
                "{:<19} {:>9} {:>9} {:>7} {:<8} {:>13} {:>13} {:>11} {:>7} {:>8} {:>10}",
                "world",
                "nodes",
                "edges",
                "fleet",
                "dim",
                "staticA(us)",
                "staticB(us)",
                "auto(us)",
                "pick",
                "auto_ok",
                "identical"
            );
            for r in &rows {
                println!(
                    "{:<19} {:>9} {:>9} {:>7} {:<8} {:>13.1} {:>13.1} {:>11.1} {:>7} {:>8} {:>10}",
                    r.world,
                    r.nodes,
                    r.edges,
                    r.fleet,
                    r.dim,
                    r.static_a_us,
                    r.static_b_us,
                    r.auto_us,
                    r.auto_choice,
                    r.auto_ok,
                    r.identical
                );
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_adaptive.json");
            match write_adaptive_json(&path, &rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("adaptive json write failed: {e}"),
            }
            if rows.iter().any(|r| !r.identical) {
                eprintln!("ERROR: an adaptive run diverged from the static tables");
                std::process::exit(1);
            }
            if rows.iter().any(|r| !r.auto_ok) {
                eprintln!("ERROR: Auto lost to the best static choice on a row");
                std::process::exit(1);
            }
        }
        "sessions" => {
            let rows = run_sessions(&harness, &[10, 100, 1000], &[1, 4, 8]);
            println!("\n=== Sessions: fleet-scale serving (Oldenburg) ===");
            println!(
                "{:<9} {:>8} {:>8} {:>11} {:>10} {:>10} {:>9} {:>9} {:>8} {:>9} {:>8} {:>10}",
                "sessions",
                "threads",
                "events",
                "events/s",
                "p50(us)",
                "p99(us)",
                "deferred",
                "shared",
                "share%",
                "speedup",
                "tables",
                "identical"
            );
            for r in &rows {
                println!(
                    "{:<9} {:>8} {:>8} {:>11.0} {:>10.1} {:>10.1} {:>9} {:>9} {:>7.1}% {:>8.2}x {:>8} {:>10}",
                    r.sessions,
                    r.threads,
                    r.events,
                    r.events_per_s,
                    r.p50_us,
                    r.p99_us,
                    r.deferred,
                    r.shared_hits,
                    r.shared_hit_rate * 100.0,
                    r.speedup,
                    r.tables_emitted,
                    r.identical
                );
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_sessions.json");
            match write_sessions_json(&path, &rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("sessions json write failed: {e}"),
            }
            if rows.iter().any(|r| !r.identical) {
                eprintln!("ERROR: a session-service run diverged from the single-threaded tables");
                std::process::exit(1);
            }
            let largest = rows.iter().map(|r| r.sessions).max().unwrap_or(0);
            if !rows.iter().filter(|r| r.sessions == largest).any(|r| r.shared_hits > 0) {
                eprintln!("ERROR: the largest sweep shared no forecasts across sessions");
                std::process::exit(1);
            }
        }
        "shard" => {
            let rows = run_shard(
                &harness,
                metro,
                sessions_override.unwrap_or(1000),
                &[1, 2, 4, 8],
                &[1, 4, 8],
            );
            println!(
                "\n=== Sharding: geographic partition x front threads ({}) ===",
                rows.first().map_or("?", |r| r.world.as_str())
            );
            println!(
                "{:<7} {:>8} {:>9} {:>9} {:>9} {:>8} {:>11} {:>9} {:>8} {:>8} {:>10} {:<24}",
                "shards",
                "threads",
                "events",
                "handoffs",
                "serve(s)",
                "span(s)",
                "events/s",
                "speedup",
                "share%",
                "drift",
                "identical",
                "per-shard events"
            );
            for r in &rows {
                let per_shard = r
                    .per_shard_events
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("/");
                println!(
                    "{:<7} {:>8} {:>9} {:>9} {:>9.2} {:>8.2} {:>11.0} {:>8.2}x {:>7.1}% {:>+8.3} {:>10} {:<24}",
                    r.shards,
                    r.threads,
                    r.events,
                    r.handoffs,
                    r.serve_s,
                    r.span_s,
                    r.events_per_s,
                    r.speedup,
                    r.shared_hit_rate * 100.0,
                    r.hit_rate_delta,
                    r.identical,
                    per_shard
                );
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_shard.json");
            match write_shard_json(&path, &rows) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("shard json write failed: {e}"),
            }
            let failures = shard_gate_failures(&rows);
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("ERROR: {f}");
                }
                std::process::exit(1);
            }
        }
        "serve" => {
            let session_counts: Vec<usize> =
                sessions_override.map_or_else(|| vec![1000, 10_000, 50_000], |n| vec![n]);
            let report = run_serve(&harness, &session_counts, &[0.0, 0.8, 1.2]);
            println!(
                "\n=== Serve: per-lane table cache under Zipf load ({}, {} shards) ===",
                report.rows.first().map_or("?", |r| r.world.as_str()),
                2
            );
            println!(
                "{:<9} {:>6} {:>8} {:>9} {:>11} {:>11} {:>8} {:>9} {:>9} {:>9} {:>7} {:>10}",
                "sessions",
                "skew",
                "shapes",
                "events",
                "off ev/s",
                "on ev/s",
                "speedup",
                "p50(us)",
                "p99(us)",
                "p999(us)",
                "L1%",
                "identical"
            );
            for r in &report.rows {
                println!(
                    "{:<9} {:>6.1} {:>8} {:>9} {:>11.0} {:>11.0} {:>7.2}x {:>9.1} {:>9.1} {:>9.1} {:>6.1}% {:>10}",
                    r.sessions,
                    r.skew,
                    r.shapes,
                    r.events,
                    r.off_events_per_s,
                    r.on_events_per_s,
                    r.speedup,
                    r.p50_us,
                    r.p99_us,
                    r.p999_us,
                    r.l1_hit_rate * 100.0,
                    r.identical
                );
            }
            println!("\nidentity matrix (smallest high-skew cell, cached, vs flat uncached):");
            for c in &report.identity {
                println!("  shards={} threads={} identical={}", c.shards, c.threads, c.identical);
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_serve.json");
            match write_serve_json(&path, &report) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("serve json write failed: {e}"),
            }
            let failures = serve_gate_failures(&report);
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("ERROR: {f}");
                }
                std::process::exit(1);
            }
        }
        "recovery" => {
            let rows = run_recovery(&harness, 100, &[1, 4, 8], 3);
            println!("\n=== Recovery: crash-point x thread sweep (Oldenburg, journaled) ===");
            println!(
                "{:<9} {:>8} {:>9} {:>6} {:>9} {:>9} {:>11} {:>10} {:>10}",
                "sessions",
                "threads",
                "records",
                "torn",
                "snapshot",
                "replayed",
                "recover(s)",
                "resume(s)",
                "identical"
            );
            for r in &rows {
                println!(
                    "{:<9} {:>8} {:>9} {:>6} {:>9} {:>9} {:>11.3} {:>10.3} {:>10}",
                    r.sessions,
                    r.threads,
                    r.surviving_records,
                    r.torn,
                    r.from_snapshot,
                    r.events_replayed,
                    r.recover_s,
                    r.resume_s,
                    r.identical
                );
            }
            let chaos = run_recovery_chaos(&harness, 100);
            println!("\n=== Recovery: deterministic chaos soak ===");
            println!("{:<32} {:>10} {:>20}", "scenario", "contained", "recovered identical");
            for c in &chaos {
                println!("{:<32} {:>10} {:>20}", c.scenario, c.contained, c.recovered_identical);
            }
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_recovery.json");
            match write_recovery_json(&path, &rows, &chaos) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("recovery json write failed: {e}"),
            }
            if rows.iter().any(|r| !r.identical) {
                eprintln!("ERROR: a recovered run diverged from the uninterrupted tables");
                std::process::exit(1);
            }
            if chaos.iter().any(|c| !c.contained || !c.recovered_identical) {
                eprintln!("ERROR: an injected fault escaped containment or corrupted recovery");
                std::process::exit(1);
            }
        }
        "outcomes" => {
            let fleets: Vec<usize> = sessions_override.map_or_else(|| vec![16, 32], |n| vec![n]);
            let intensities = [0.5, 1.5, 3.0];
            let report = run_outcomes_series(&harness, &fleets, &intensities);
            println!(
                "\n=== Outcomes: closed-loop realized outcomes ({}, {} chargers) ===",
                report.world, report.chargers
            );
            println!(
                "{:<14} {:>8} {:>9} {:>8} {:>7} {:>7} {:>9} {:>8} {:>9} {:>10} {:>9} {:>10}",
                "policy",
                "vehicles",
                "intensity",
                "attempts",
                "strand",
                "wait(s)",
                "queue",
                "divert",
                "requery",
                "detour kWh",
                "EC MAE",
                "identical"
            );
            for r in &report.rows {
                println!(
                    "{:<14} {:>8} {:>9.1} {:>8} {:>6.1}% {:>7.0} {:>9.2} {:>8} {:>9} {:>10.1} {:>9.2} {:>10}",
                    r.policy,
                    r.vehicles,
                    r.intensity,
                    r.attempts,
                    r.strand_rate * 100.0,
                    r.mean_wait_s,
                    r.mean_queue_len,
                    r.diversions,
                    r.re_queries,
                    r.detour_kwh,
                    r.ec_mae_kwh,
                    r.identical
                );
            }
            let fb = &report.feedback;
            println!(
                "\nfeedback probe ({}, {} vehicles, intensity {}): observed_full={} diverged={}",
                fb.policy, fb.vehicles, fb.intensity, fb.observed_full, fb.diverged
            );
            let path =
                csv_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_outcomes.json");
            match write_outcomes_json(&path, &report) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("outcomes json write failed: {e}"),
            }
            let failures = outcomes_gate_failures(&report);
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("ERROR: {f}");
                }
                std::process::exit(1);
            }
        }
        "regret" => print_regret(&harness),
        "cache" => print_cache(&harness),
        "modes" => print_modes(&harness),
        "balance" => print_balance(&harness),
        "throughput" => print_throughput(&harness),
        "dayrun" => print_dayrun(&harness),
        "validate" => {
            let checks = run_validation(&harness);
            println!("\n=== Reproduction self-validation ===");
            let mut failed = 0;
            for c in &checks {
                println!("[{}] {} — {}", if c.pass { "PASS" } else { "FAIL" }, c.claim, c.evidence);
                if !c.pass {
                    failed += 1;
                }
            }
            println!("\n{} checks, {} failed", checks.len(), failed);
            if failed > 0 {
                std::process::exit(1);
            }
        }
        "ext" => {
            print_regret(&harness);
            print_cache(&harness);
            print_modes(&harness);
            print_balance(&harness);
            print_throughput(&harness);
            print_dayrun(&harness);
        }
        _ => usage(),
    }
    eprintln!("\n[{}] completed in {:.1}s", which, started.elapsed().as_secs_f64());
}
