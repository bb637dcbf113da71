//! `ecobench` — the repository benchmark: open-loop driver arrivals served
//! through the public session API, with an outside-in per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path ecobench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) serves the same schedule untraced and then traced, and
//! adds the layer-probe pass, printing the per-layer metrics. Both end with
//! a bit-for-bit spot replay of served sessions and print one JSON object
//! as their last line. Workloads, metric names and units, and each
//! workload's arrival rate and declared decision labels come from
//! `BENCHMARK.json` at the repository root.

mod check;
mod drive;
mod measure;
mod probe;
mod serve;
mod spec;
mod world;

use measure::{median, nearest_rank, tail_percentile};
use serve::{Outcome, SetupTimes};
use spec::{Contract, BACKEND_LABELS, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Every run serves at least this many sessions, so the printed p90
/// first-table latency has at least ten samples beyond it.
const MIN_SESSIONS: usize = 100;
/// Set-ups timed per run, each in a fresh process.
const SETUP_SAMPLES: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ecobench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Time `SETUP_SAMPLES` set-ups, each in a fresh process of this binary.
fn setup_samples(args: &Args) -> Result<Vec<SetupTimes>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("spawning a set-up sample: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let parts: Vec<f64> = text
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup "))
                .map(|l| l.split_whitespace().filter_map(|v| v.parse().ok()).collect())
                .unwrap_or_default();
            match (out.status.success(), parts.as_slice()) {
                (true, &[calibration_s, world_s, front_s]) => {
                    Ok(SetupTimes { calibration_s, world_s, front_s })
                }
                _ => Err(format!(
                    "set-up sample failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let contract = Contract::load(&package_dir().join("..").join("BENCHMARK.json"))?;
    contract.check_registry()?;
    let w =
        spec::workload(&args.workload).ok_or(format!("unknown workload `{}`", args.workload))?;
    let declared = contract.declared(w.name)?;
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    if args.setup_only {
        let t = serve::setup_sample(&w, &out_dir)?;
        println!("setup {} {} {}", t.calibration_s, t.world_s, t.front_s);
        return Ok(ExitCode::SUCCESS);
    }

    // Journal directories an interrupted run left behind.
    for entry in std::fs::read_dir(&out_dir).map_err(|e| e.to_string())?.flatten() {
        if entry.file_name().to_string_lossy().starts_with("journal-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let setups = setup_samples(&args)?;
    let totals: Vec<String> = setups.iter().map(|t| format!("{:.4}", t.total())).collect();
    println!("setup samples (s, one fresh process each): {}", totals.join(" "));
    world::calibrate();
    let world = world::World::build(&w);
    let decisions = world::Decisions::of(&world);
    let backend = BACKEND_LABELS[decisions.backend];
    let on_off = |b: bool| if b { "on" } else { "off" };
    println!(
        "decisions: prune.auto_on={} (threshold {}, fleet {}) detour.backend={backend} \
         [declared prune={} detour={}]",
        on_off(decisions.prune_on),
        decisions.prune_threshold,
        world.fleet.len(),
        on_off(declared.prune_on),
        declared.detour
    );
    if decisions.prune_on != declared.prune_on || backend != declared.detour {
        return Err(format!(
            "workload `{}` resolved prune={} detour={backend}, but BENCHMARK.json declares \
             prune={} detour={}",
            w.name,
            on_off(decisions.prune_on),
            on_off(declared.prune_on),
            declared.detour
        ));
    }

    let n = MIN_SESSIONS.max((declared.rate * args.seconds).round() as usize);
    let trips = world::clients(&world, &w, n, args.seed);
    let offsets = world::arrivals(n, declared.rate, args.seed);
    println!(
        "workload {} seed {} seconds {} trace {}: {n} sessions at {} sessions/s, open loop",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        declared.rate
    );

    let base = serve::serve(&w, &world, &trips, &offsets, args.seed, None, &out_dir);
    let mut runs = vec![base];
    if args.trace {
        let traced = serve::serve(
            &w,
            &world,
            &trips,
            &offsets,
            args.seed,
            Some(drive::Tracer::new()),
            &out_dir,
        );
        runs.push(traced);
    }

    let mut metrics: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let setup_total: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let base = &runs[0];
    let mut first = base.first_ms.clone();
    first.sort_by(f64::total_cmp);
    metrics.insert("setup_s", (median(&setup_total), setups.len()));
    metrics.insert("first_table_p50_ms", (nearest_rank(&first, 0.5), first.len()));
    metrics.insert("events_per_busy_s", (base.events as f64 / base.busy_s, base.events as usize));
    metrics.insert(
        "cpu_us_per_event",
        (base.cpu_s * 1e6 / base.events.max(1) as f64, base.events as usize),
    );
    metrics.insert("peak_rss_mb", (base.rss_mb, 1));

    let accounts = report_accounts(&runs, &w);
    for &(name, unit) in END_TO_END {
        let (v, n) = metrics[name];
        println!("metric {name} {v} {unit} (n={n})");
    }
    // First-table tails swing with the host's load far more than any bound
    // allows (see the README): printed with their sample counts, not gated.
    for (name, p) in [("first_table_p90_ms", 0.9), ("first_table_p99_ms", 0.99)] {
        match tail_percentile(&first, p) {
            Some(v) => println!("metric {name} {v} ms (n={}, not gated)", first.len()),
            None => println!("metric {name}: {} samples, too few", first.len()),
        }
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let overhead = tracing_overhead_pct(&runs[0], &runs[1]);
        let traced = &mut runs[1];
        let mut tracer = traced.tracer.take().expect("the traced pass keeps its spans");
        let probe = probe::probe(&world, &traced.splits, &mut tracer);
        values.extend(traced.layer.iter().map(|(k, v)| (*k, *v)));
        values.extend(probe);
        let part = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        values.extend([
            ("detour.backend", decisions.backend as f64),
            ("prune.auto_on", f64::from(u8::from(decisions.prune_on))),
            ("prune.threshold", decisions.prune_threshold as f64),
            ("setup.calibration_s", part(|t| t.calibration_s)),
            ("setup.world_s", part(|t| t.world_s)),
            ("setup.front_s", part(|t| t.front_s)),
            ("failed_share", accounts.failed as f64 / accounts.attempted.max(1) as f64),
            ("trace.spans", tracer.spans.len() as f64),
            ("trace.overhead_pct", overhead),
        ]);
        let path = out_dir.join(format!("trace-{}-s{}.tsv", w.name, args.seed));
        tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", tracer.spans.len(), path.display());
        for &(name, unit) in PER_LAYER {
            let v = values.get(name).copied().unwrap_or(0.0);
            println!("layer {name} {v} {unit}");
        }
    } else {
        values.extend(metrics.iter().map(|(k, (v, _))| (*k, *v)));
    }

    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = accounts.mismatches == 0 && accounts.tick_errors == 0;
    println!("{}", result_json(correct, accounts.attempted, accounts.failed, listed, &values)?);
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Traced minus untraced driver cost per event, as a share of untraced.
fn tracing_overhead_pct(untraced: &Outcome, traced: &Outcome) -> f64 {
    let per_event = |o: &Outcome| o.busy_s / o.events.max(1) as f64;
    100.0 * (per_event(traced) / per_event(untraced) - 1.0)
}

/// Attempted / failed operation totals over every pass of the run.
struct Accounts {
    attempted: u64,
    failed: u64,
    mismatches: usize,
    tick_errors: usize,
}

/// Print the per-phase failure accounting, the generator's lateness and
/// the correctness check of every pass; return the totals.
fn report_accounts(runs: &[Outcome], w: &spec::Workload) -> Accounts {
    let mut acc = Accounts { attempted: 0, failed: 0, mismatches: 0, tick_errors: 0 };
    for (i, o) in runs.iter().enumerate() {
        let pass = if i == 0 { "untraced" } else { "traced" };
        let r = &o.refusals;
        let reg_attempted = o.registered + r.total();
        println!(
            "[{pass}] phase register: attempted {reg_attempted} succeeded {} failed {} \
             (full {}, duplicate {}, planning {}, journal {}, quarantined {})",
            o.registered,
            r.total(),
            r.full,
            r.duplicate,
            r.planning,
            r.journal,
            r.quarantined
        );
        let solve_errors = u64::from(o.tick_error.is_some());
        let ev_failed =
            o.stats.sessions_shed + o.stats.no_offer_solves + solve_errors + o.never_served;
        let ev_attempted = o.events + solve_errors + o.never_served;
        println!(
            "[{pass}] phase events: attempted {ev_attempted} succeeded {} failed {ev_failed} \
             (sessions_shed {}, no_offer_solves {}, solve_errors {solve_errors}, \
             first_stop_never_ran {})",
            ev_attempted - ev_failed,
            o.stats.sessions_shed,
            o.stats.no_offer_solves,
            o.never_served
        );
        if let Some(e) = &o.tick_error {
            println!("[{pass}] tick error: {e}");
        }
        let rec = o.recover_s.len() as u64;
        println!("[{pass}] phase recover: attempted {rec} succeeded {rec} failed 0");
        let mut late = o.late_ms.clone();
        late.sort_by(f64::total_cmp);
        println!(
            "[{pass}] generator lateness: p50 {} ms, p99 {} ms, max {} ms (n={})",
            nearest_rank(&late, 0.5),
            nearest_rank(&late, 0.99),
            late.last().copied().unwrap_or(0.0),
            late.len()
        );
        let c = &o.check;
        println!(
            "[{pass}] correctness: replayed {} sessions ({} restored by recovery), {} solves, \
             {} mismatches",
            c.sessions, c.restored, c.solves, c.mismatches
        );
        for d in &c.detail {
            println!("[{pass}] mismatch: {d}");
        }
        if w.durable {
            println!(
                "[{pass}] journal: FileSink appends with write_all + flush, no fsync; \
                 disk_mb {} MB, recover_s median {} s (n={})",
                o.disk_mb,
                median(&o.recover_s),
                o.recover_s.len()
            );
        }
        acc.attempted += reg_attempted + ev_attempted + rec;
        acc.failed += r.total() + ev_failed + c.mismatches as u64;
        acc.mismatches += c.mismatches;
        acc.tick_errors += usize::from(o.tick_error.is_some());
    }
    acc
}

/// The result line: `correct`, `attempted`, `failed` and every listed
/// metric with its unit.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    listed: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        let v = values.get(name).copied().ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Contract {
        Contract::load(&package_dir().join("..").join("BENCHMARK.json"))
            .expect("BENCHMARK.json loads")
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(spec::valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry_and_declares_every_workload() {
        let c = contract();
        c.check_registry().expect("registry matches BENCHMARK.json");
        let names: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for name in names {
            c.declared(name).expect("every workload declares rate, prune and detour");
        }
    }

    #[test]
    fn the_result_line_prints_every_declared_name_with_its_unit() {
        let c = contract();
        for (listed, declared) in [(END_TO_END, &c.end_to_end), (PER_LAYER, &c.per_layer)] {
            let values: BTreeMap<&str, f64> =
                listed.iter().enumerate().map(|(i, &(n, _))| (n, i as f64 + 0.5)).collect();
            let line = result_json(true, 10, 0, listed, &values).expect("all measured");
            let parsed = spec::Json::parse(&line).expect("the result line is JSON");
            let metrics = parsed.get("metrics").expect("metrics object");
            for (name, unit) in declared {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} not printed"));
                assert_eq!(m.get("unit").and_then(spec::Json::as_str), Some(unit.as_str()));
            }
        }
    }

    #[test]
    fn the_result_line_refuses_missing_or_non_finite_values() {
        let values = BTreeMap::from([("setup_s", f64::NAN)]);
        assert!(result_json(true, 1, 0, &END_TO_END[..1], &values).is_err());
        assert!(result_json(true, 1, 0, &END_TO_END[..2], &BTreeMap::new()).is_err());
    }
}
