//! `sqlb-perfbench`: the SQLB benchmark binary.
//!
//! ```text
//! sqlb-perfbench measure --workload W --seed N --seconds S [--expect-digest HEX]
//! sqlb-perfbench trace   --workload W --seed N --seconds S [--expect-digest HEX] [--spans-dir DIR]
//! sqlb-perfbench digest  --workload W --seed N
//! ```
//!
//! `measure` times `Simulator::new` and `Simulator::run` with
//! observability off, over as many runs as fit in `S` seconds, and
//! prints the end-to-end metrics. `trace` runs the layer replay (see
//! [`replay`]) beside the engine and prints the per-layer metrics. Both
//! check every run's report digest and print, as their last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; they exit
//! with 1 when a check failed. `digest` prints the report digest of one
//! run (and, for the socket workload, of the same configuration inline).

mod replay;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sqlb_obs::ObsSnapshot;
use sqlb_sim::{MediationMode, Method, SimulationConfig, SimulationReport, Simulator};

use replay::Replay;
use span::{Layer, LayerTotals, Tracer};
use stats::{
    failed_ratio, failure_counts, median, peak_rss_mb, reportable_percentile, tail, RunOutcome,
};

/// Fewest timed runs a measurement takes, however long they are.
const MIN_RUNS: usize = 3;
/// Fewest engine/replay rounds a traced measurement takes.
const MIN_TRACE_ROUNDS: usize = 2;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    expect: Option<u64>,
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (measure|trace|digest)")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        expect: None,
        spans_dir: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--expect-digest" => {
                args.expect = Some(u64::from_str_radix(&value, 16).map_err(|e| bad(&e))?)
            }
            "--spans-dir" => args.spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result line of the benchmark contract.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// The output check of one engine run: its digest against the
/// expectation, and the query accounting identity (every issued query is
/// allocated by exactly one shard or counted unallocated).
fn check_report(report: &SimulationReport, expected: u64) -> Result<(), String> {
    if report.digest() != expected {
        return Err(format!(
            "digest {:016x} != expected {expected:016x}",
            report.digest()
        ));
    }
    let allocated: u64 = report.shard_allocations.iter().sum();
    if allocated + report.unallocated_queries != report.issued_queries {
        return Err(format!(
            "accounting: {allocated} allocated + {} unallocated != {} issued",
            report.unallocated_queries, report.issued_queries
        ));
    }
    if report.completed_queries > report.issued_queries || report.issued_queries == 0 {
        return Err("completed/issued counters out of range".to_string());
    }
    Ok(())
}

fn outcome(report: &SimulationReport, check_passed: bool) -> RunOutcome {
    RunOutcome {
        issued: report.issued_queries,
        unallocated: report.unallocated_queries,
        degraded_waves: report.degraded_waves,
        check_passed,
    }
}

fn run_engine(config: SimulationConfig) -> Result<SimulationReport, String> {
    Simulator::new(config, Method::Sqlb)
        .map(Simulator::run)
        .map_err(|e| e.to_string())
}

/// The digest every run of this measurement must produce: the pinned one
/// when given; for the socket workload the inline digest of the same
/// configuration (the transport must not change a single bit); otherwise
/// `None`, and the first run's digest binds the rest.
fn reference_digest(config: SimulationConfig, expect: Option<u64>) -> Result<Option<u64>, String> {
    if config.mediation != MediationMode::Socket {
        return Ok(expect);
    }
    let inline = run_engine(config.with_mediation(MediationMode::Inline))?.digest();
    match expect {
        Some(pinned) if pinned != inline => Err(format!(
            "inline digest {inline:016x} != pinned {pinned:016x}"
        )),
        _ => Ok(Some(inline)),
    }
}

/// [`reference_digest`], with a mismatch reported as a failed check
/// (falling back to the pinned digest) rather than an abort.
fn expected_digest(
    config: SimulationConfig,
    expect: Option<u64>,
    correct: &mut bool,
) -> Option<u64> {
    reference_digest(config, expect).unwrap_or_else(|why| {
        println!("check failed: {why}");
        *correct = false;
        expect
    })
}

/// The measuring window of one invocation. It takes at least `min`
/// rounds; after that a round starts only if one as long as the last
/// still ends inside `--seconds`, so an invocation does not overshoot its
/// window by a whole round.
struct Window {
    started: Instant,
    length: Duration,
    min: usize,
    rounds: usize,
    round_started: Instant,
}

impl Window {
    fn new(seconds: f64, min: usize) -> Self {
        let now = Instant::now();
        Window {
            started: now,
            length: Duration::from_secs_f64(seconds),
            min,
            rounds: 0,
            round_started: now,
        }
    }

    /// Starts the next round; `false` when it would not fit.
    fn next_round(&mut self) -> bool {
        let now = Instant::now();
        let last = if self.rounds == 0 {
            Duration::ZERO
        } else {
            now - self.round_started
        };
        if self.rounds >= self.min && now - self.started + last > self.length {
            return false;
        }
        self.rounds += 1;
        self.round_started = now;
        true
    }
}

fn measure(args: &Args, config: SimulationConfig) -> Result<bool, String> {
    let mut window = Window::new(args.seconds, MIN_RUNS);
    let mut correct = true;
    let mut expected = expected_digest(config, args.expect, &mut correct);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut outcomes = Vec::new();
    let mut last = None;
    while window.next_round() {
        let t0 = Instant::now();
        let sim = Simulator::new(config, Method::Sqlb).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let report = sim.run();
        let t2 = Instant::now();
        setups.push((t1 - t0).as_secs_f64());
        rates.push(report.issued_queries as f64 / (t2 - t1).as_secs_f64());
        eprintln!(
            "run {}: {:.1} allocations/s, set-up {:.6} s",
            rates.len(),
            rates[rates.len() - 1],
            setups[setups.len() - 1]
        );
        let want = *expected.get_or_insert(report.digest());
        let checked = check_report(&report, want);
        if let Err(why) = &checked {
            println!("run {}: check failed: {why}", outcomes.len() + 1);
            correct = false;
        }
        outcomes.push(outcome(&report, checked.is_ok()));
        last = Some(report);
    }
    let last = last.expect("at least one run");
    let (attempted, failed) = failure_counts(&outcomes);
    let rss = peak_rss_mb().unwrap_or(0.0);
    let rate = median(&rates);
    let setup = median(&setups);
    println!(
        "workload {} seed {} digest {:016x}: {} queries, {} provider and {} consumer \
         departures, {} migrations per run",
        args.workload,
        args.seed,
        expected.unwrap_or(0),
        last.issued_queries,
        last.provider_departures.len(),
        last.consumer_departures.len(),
        last.migrations.len()
    );
    println!(
        "allocations_per_s {rate:.1} 1/s (median of {} runs)",
        rates.len()
    );
    println!("setup_s {setup:.6} s (median of {} set-ups)", setups.len());
    println!("peak_rss_mb {rss:.1} MB (VmHWM after {} runs)", rates.len());
    println!(
        "failed_ratio {:.6} ({failed} of {attempted} queries)",
        failed_ratio(&outcomes)
    );
    let metrics = [
        metric("allocations_per_s", rate, "1/s"),
        metric("setup_s", setup, "s"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Counts imported from the observability-on engine run.
fn obs_count(snapshot: &ObsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

/// Σ of the per-mediator counters `mediator_<i>_<suffix>`.
fn mediator_sum(snapshot: &ObsSnapshot, suffix: &str) -> f64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("mediator_") && name.ends_with(suffix))
        .map(|&(_, v)| v as f64)
        .sum()
}

fn trace(args: &Args, config: SimulationConfig) -> Result<bool, String> {
    let mut window = Window::new(args.seconds, MIN_TRACE_ROUNDS);
    let mut correct = true;
    let mut outcomes = Vec::new();
    let fail = |what: String| {
        println!("check failed: {what}");
        false
    };

    // The exact counts of the existing instruments, from one engine run
    // with observability on (digest-neutral by construction).
    let expected = expected_digest(config, args.expect, &mut correct);
    let sim =
        Simulator::new(config.with_observability(true), Method::Sqlb).map_err(|e| e.to_string())?;
    let obs = sim.obs().clone();
    let observed = sim.run();
    let snapshot = obs.snapshot();
    let expected = expected.unwrap_or(observed.digest());
    let checked = check_report(&observed, expected);
    if let Err(why) = &checked {
        correct &= fail(format!("observed run: {why}"));
    }
    outcomes.push(outcome(&observed, checked.is_ok()));

    let mut engine_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut population_setups = Vec::new();
    let mut shard_setups = Vec::new();
    let mut totals = LayerTotals::default();
    let mut gather_us = Vec::new();
    let mut issued = 0u64;
    let mut allocated = 0u64;
    let mut candidates = 0u64;
    let mut last_spans = Vec::new();
    let mut last_counts = None;
    let mut sync_rounds = 0;
    while window.next_round() {
        let sim = Simulator::new(config, Method::Sqlb).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let report = sim.run();
        engine_walls.push(t.elapsed().as_secs_f64());
        let checked = check_report(&report, expected);
        if let Err(why) = &checked {
            correct &= fail(format!("engine run: {why}"));
        }
        outcomes.push(outcome(&report, checked.is_ok()));

        // Alternate which replay goes first, so neither always inherits
        // the other's warm heap.
        let order = if engine_walls.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let mut replay = Replay::new(config, &report, traced).map_err(|e| e.to_string())?;
            let t = Instant::now();
            replay.run();
            let wall = t.elapsed().as_secs_f64();
            let diffs = replay.fidelity();
            if !diffs.is_empty() {
                correct &= fail(format!("replay diverged: {}", diffs.join("; ")));
            }
            if !traced {
                untraced_walls.push(wall);
                continue;
            }
            traced_walls.push(wall);
            let spans = std::mem::replace(&mut replay.tracer, Tracer::new(false)).into_spans();
            totals.add(&spans);
            for s in &spans {
                match s.layer {
                    Layer::SetupPopulation => population_setups.push(s.duration() as f64 / 1e9),
                    Layer::SetupShards => shard_setups.push(s.duration() as f64 / 1e9),
                    Layer::Gather => gather_us.push(s.duration() as f64 / 1e3),
                    _ => {}
                }
            }
            let counts = replay.counts();
            issued += counts.issued;
            allocated += counts.allocated;
            candidates += counts.candidates;
            sync_rounds = replay.sync_rounds();
            last_counts = Some(counts);
            last_spans = spans;
        }
    }
    let counts = last_counts.expect("at least one traced replay");

    // Per-layer self time, normalized per query, candidate or round.
    let per = |layer: Layer, n: u64, scale: f64| -> f64 {
        if n == 0 {
            0.0
        } else {
            totals.self_ns(layer) as f64 / n as f64 / scale
        }
    };
    let per_round = |layer: Layer| per(layer, totals.count(layer), 1e6);
    let traced_wall_ns: f64 = traced_walls.iter().sum::<f64>() * 1e9;
    let coverage = totals.covered_ns() as f64 / traced_wall_ns;
    let overhead = median(&traced_walls) / median(&untraced_walls);
    let replay_ratio = median(&untraced_walls) / median(&engine_walls);

    let p50 = tail(&gather_us, 50.0);
    let p99 = tail(&gather_us, 99.0);
    let gather_hist = snapshot
        .histogram("wave_gather_seconds")
        .unwrap_or_default();
    // The histogram keeps only p50/p95/p99: read the highest of them the
    // sample count allows, and say which one it is.
    let (hist_pct, hist_p99) = match reportable_percentile(gather_hist.count as usize, 99.0) {
        p if p >= 99.0 => (99, gather_hist.p99),
        p if p >= 95.0 => (95, gather_hist.p95),
        _ => (50, gather_hist.p50),
    };
    let obs_issued = observed.issued_queries.max(1) as f64;
    let waves = obs_count(&snapshot, "waves_begun");
    let delivered = obs_count(&snapshot, "requests_delivered");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (attempted, failed) = failure_counts(&outcomes);

    let metrics = vec![
        metric("sim.setup.population_s", median(&population_setups), "s"),
        metric("sim.setup.shards_s", median(&shard_setups), "s"),
        metric(
            "sim.events.ns_per_query",
            per(Layer::Events, issued, 1.0),
            "ns",
        ),
        metric(
            "sim.route.ns_per_query",
            per(Layer::Route, issued, 1.0),
            "ns",
        ),
        metric(
            "sim.glue.ns_per_query",
            per(Layer::Arrival, issued, 1.0),
            "ns",
        ),
        metric("sim.sample.ms_per_round", per_round(Layer::Sample), "ms"),
        metric("sim.sync.ms_per_round", per_round(Layer::Sync), "ms"),
        metric("sim.sync.rounds", sync_rounds as f64, "count"),
        metric(
            "sim.rebalance.ms_per_round",
            per_round(Layer::Rebalance),
            "ms",
        ),
        metric("sim.migrations", counts.migrations as f64, "count"),
        metric(
            "agents.consumer_intention.ns_per_candidate",
            per(Layer::ConsumerIntention, candidates, 1.0),
            "ns",
        ),
        metric(
            "agents.provider_intention.ns_per_candidate",
            per(Layer::ProviderIntention, candidates, 1.0),
            "ns",
        ),
        metric(
            "agents.feedback.ns_per_query",
            per(Layer::Feedback, issued, 1.0),
            "ns",
        ),
        metric("agents.assess.ms_per_round", per_round(Layer::Assess), "ms"),
        metric(
            "core.score.ns_per_candidate",
            per(Layer::Score, candidates, 1.0),
            "ns",
        ),
        metric(
            "core.record.ns_per_candidate",
            per(Layer::Record, candidates, 1.0),
            "ns",
        ),
        metric(
            "core.candidates_per_query",
            ratio(candidates as f64, allocated as f64),
            "count",
        ),
        metric(
            "transport.gather.self_us_per_query",
            per(Layer::Gather, issued, 1e3),
            "us",
        ),
        metric(
            "transport.gather_us.p50",
            p50.map_or(0.0, |t| t.value),
            "us",
        ),
        metric(
            "transport.gather_us.p99",
            p99.map_or(0.0, |t| t.value),
            "us",
        ),
        metric(
            "transport.gather_us.samples",
            gather_us.len() as f64,
            "count",
        ),
        metric(
            "transport.bytes_per_query",
            (obs_count(&snapshot, "bytes_in") + obs_count(&snapshot, "bytes_out")) / obs_issued,
            "B",
        ),
        metric(
            "transport.frames_per_query",
            obs_count(&snapshot, "frames_reassembled") / obs_issued,
            "count",
        ),
        metric(
            "transport.queries_per_wave",
            ratio(observed.issued_queries as f64, waves),
            "count",
        ),
        metric(
            "transport.credited_ratio",
            ratio(obs_count(&snapshot, "replies_credited"), delivered),
            "ratio",
        ),
        metric("obs.waves_begun", waves, "count"),
        metric("obs.requests_delivered", delivered, "count"),
        metric(
            "obs.replies_credited",
            obs_count(&snapshot, "replies_credited"),
            "count",
        ),
        metric(
            "obs.replies_discarded",
            obs_count(&snapshot, "replies_discarded"),
            "count",
        ),
        metric(
            "obs.replies_timed_out",
            obs_count(&snapshot, "replies_timed_out"),
            "count",
        ),
        metric(
            "obs.frames_reassembled",
            obs_count(&snapshot, "frames_reassembled"),
            "count",
        ),
        metric("obs.bytes_in", obs_count(&snapshot, "bytes_in"), "B"),
        metric("obs.bytes_out", obs_count(&snapshot, "bytes_out"), "B"),
        metric("obs.wave_gather_us.p50", gather_hist.p50 * 1e6, "us"),
        metric("obs.wave_gather_us.p99", hist_p99 * 1e6, "us"),
        metric(
            "obs.wave_gather_us.samples",
            gather_hist.count as f64,
            "count",
        ),
        metric(
            "obs.digests_exported",
            mediator_sum(&snapshot, "_digests_exported"),
            "count",
        ),
        metric(
            "obs.digests_absorbed",
            mediator_sum(&snapshot, "_digests_absorbed"),
            "count",
        ),
        metric(
            "obs.provider_migrations",
            obs_count(&snapshot, "provider_migrations"),
            "count",
        ),
        metric("trace.layer_coverage", coverage, "ratio"),
        metric("trace.overhead", overhead, "ratio"),
        metric("trace.replay_ratio", replay_ratio, "ratio"),
        metric("failed_ratio", failed_ratio(&outcomes), "ratio"),
    ];

    print_layer_table(args, &totals, traced_wall_ns, issued, traced_walls.len());
    if let Some(t) = p99 {
        println!(
            "transport.gather_us: p50 {:.1} us, p{} {:.1} us over {} waves",
            p50.map_or(0.0, |t| t.value),
            t.percentile,
            t.value,
            t.samples
        );
    }
    if gather_hist.count > 0 {
        println!(
            "obs.wave_gather_us: p50 {:.1} us, p{hist_pct} {:.1} us over {} waves",
            gather_hist.p50 * 1e6,
            hist_p99 * 1e6,
            gather_hist.count
        );
    }
    println!(
        "replay: {} engine runs, {} untraced + {} traced replays; coverage {coverage:.3}, \
         overhead {overhead:.3}, replay/engine {replay_ratio:.3}",
        engine_walls.len(),
        untraced_walls.len(),
        traced_walls.len()
    );
    if let Some(dir) = &args.spans_dir {
        let path = dir.join(format!("spans-{}.tsv", args.workload));
        match span::write_spans(&path, &last_spans) {
            Ok(()) => println!("spans of the last traced replay: {}", path.display()),
            Err(e) => correct &= fail(format!("writing {}: {e}", path.display())),
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn print_layer_table(args: &Args, totals: &LayerTotals, wall_ns: f64, issued: u64, replays: usize) {
    println!(
        "layer replay of {} (seed {}): {replays} traced replays, {issued} queries",
        args.workload, args.seed
    );
    println!(
        "{:<28} {:>12} {:>8} {:>10} {:>12}",
        "layer", "self ms", "share", "spans", "ns/query"
    );
    for layer in Layer::ALL {
        let self_ns = totals.self_ns(layer) as f64;
        if totals.count(layer) == 0 {
            continue;
        }
        println!(
            "{:<28} {:>12.2} {:>7.1}% {:>10} {:>12.1}",
            layer.name(),
            self_ns / 1e6,
            100.0 * self_ns / wall_ns,
            totals.count(layer),
            self_ns / issued.max(1) as f64
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("sqlb-perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let Some(config) = workloads::config(&args.workload, args.seed) else {
        eprintln!(
            "sqlb-perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = match args.mode.as_str() {
        "measure" => measure(&args, config),
        "trace" => trace(&args, config),
        "digest" => run_engine(config).and_then(|report| {
            let inline = reference_digest(config, None)?;
            println!("{:016x}", inline.unwrap_or(report.digest()));
            if inline.is_some_and(|d| d != report.digest()) {
                return Err(format!("socket digest {:016x} differs", report.digest()));
            }
            Ok(true)
        }),
        other => Err(format!("unknown mode {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("sqlb-perfbench: {why}");
            ExitCode::from(1)
        }
    }
}
