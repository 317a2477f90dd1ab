//! The seta benchmark: four end-to-end workloads and a per-layer cost
//! ledger, all timed from outside around calls into the library crates.
//! README.md describes every workload and metric.

mod compare;
mod host;
mod ledger;
mod stats;
mod stopwatch;
mod workloads;

use host::Host;
use serde_json::{json, Map, Value};
use seta_obs::{validate_perfetto, SpanBuffer, SpanClock, SpanTrace};
use stats::median;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use stopwatch::{Stopwatch, Unit};
use workloads::{summarize, Counts, Summary, Workload};

/// The seed runs use unless told otherwise; the committed expected counts
/// are for this seed.
const DEFAULT_SEED: u64 = 0xCACE;
/// Seconds of timed passes per run unless told otherwise.
const DEFAULT_SECONDS: f64 = 15.0;
/// Timed set-up units per run; `setup_s` is their median.
const SETUP_UNITS: usize = 5;
/// Shortest time worth timing against the reference computation.
const SETUP_UNIT_S: f64 = 0.01;
/// Set-ups (trace generation and encoding) slow with the host as the
/// reference computation does.
const SETUP_SLOWDOWN_EXPONENT: i32 = 1;
/// Fewest timed passes per run, however short `--seconds` is, and the
/// number a `--quick` run makes.
const MIN_PASSES: usize = 3;

const USAGE: &str = "\
usage: seta-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                            [--quick] [--out DIR] [--expected FILE]
       seta-benchmark trace [same options as run]
       seta-benchmark compare BASE... --vs NEW...

workloads: table4_sweep din_replay wide_assoc serve_2c (all when --workload is absent)
run prints every end-to-end metric; trace (or run --trace 1, the same thing spelled
as a flag, so one command line can select either) prints the per-layer ledger and
writes a Perfetto trace. --quick makes 3 timed passes at 1/50 scale, whatever
--seconds says. compare takes run files or directories of them.";

/// One named measurement.
pub struct Metric {
    /// Its name in BENCHMARK.json.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// Options of `run` and `trace`.
struct RunOpts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    expected: PathBuf,
}

fn parse_run(args: &[String], trace: bool) -> Result<RunOpts, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut opts = RunOpts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace,
        quick: false,
        out: manifest.join("results"),
        expected: manifest.join("expected.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                opts.seed = parsed.map_err(|e| format!("bad --seed {value:?}: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            "--expected" => opts.expected = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => {
            match parse_run(rest, cmd == "trace") {
                Ok(opts) => match opts.workload {
                    Some(w) => run_one(w, &opts),
                    None => run_all(&opts),
                },
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    2
                }
            }
        }
        Some((cmd, rest)) if cmd == "compare" => compare::cmd(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    ExitCode::from(code)
}

/// Every output check of a run, in the order made.
#[derive(Default)]
struct Checks(Vec<(String, Result<(), String>)>);

impl Checks {
    fn record(&mut self, name: impl Into<String>, result: Result<(), String>) {
        self.0.push((name.into(), result));
    }

    fn failed(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().filter_map(|(name, r)| match r {
            Err(reason) => Some((name.as_str(), reason.as_str())),
            Ok(()) => None,
        })
    }
}

/// Whether a later pass reproduced the first.
fn same_as(first: &Summary, pass: &Summary) -> Result<(), String> {
    match &pass.error {
        Some(e) => Err(e.clone()),
        None if pass.fingerprint != first.fingerprint => {
            Err("the output differs from pass 0".to_owned())
        }
        None => Ok(()),
    }
}

/// Compares `counts` with the committed ones for this workload and scale.
fn expected_counts(
    path: &Path,
    quick: bool,
    workload: Workload,
    counts: &Counts,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let scale = if quick { "quick" } else { "full" };
    let expected: Counts =
        serde_json::from_value(doc[scale][workload.name()].clone()).map_err(|e| {
            format!(
                "{}: no {scale} counts for {}: {e}",
                path.display(),
                workload.name()
            )
        })?;
    let names: BTreeSet<&String> = expected.keys().chain(counts.keys()).collect();
    let diffs: Vec<String> = names
        .into_iter()
        .filter(|k| expected.get(*k) != counts.get(*k))
        .map(|k| {
            format!(
                "{k}: expected {:?}, got {:?}",
                expected.get(k),
                counts.get(k)
            )
        })
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("; "))
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        map.insert(m.name.clone(), json!({ "value": m.value, "unit": m.unit }));
    }
    Value::Object(map)
}

/// Units as `[wall_s, reference_s]` pairs.
fn units_json(units: &[Unit]) -> Value {
    Value::Array(
        units
            .iter()
            .map(|u| json!([u.wall_s, u.reference_s]))
            .collect(),
    )
}

/// Runs one workload in this process and prints its metrics, ending with
/// the one-line JSON result. Returns the exit code: 1 if any check failed.
fn run_one(workload: Workload, opts: &RunOpts) -> u8 {
    let host = Host::collect();
    let scored = host.nproc >= workload.threads();
    let threads = workload.threads().min(host.nproc);
    let mut spans = SpanBuffer::new(0, SpanClock::new());
    let root = spans.open(workload.name(), "workload");
    let mut checks = Checks::default();

    let span = spans.open("setup", "setup");
    let mut prepared = workloads::setup(workload, opts.seed, opts.quick, threads);
    spans.close(span);

    // Pass 0 is untimed: it warms the processor, caches and allocator for
    // the set-ups and passes after it, and every timed pass must reproduce
    // it exactly.
    let mut watch = Stopwatch::new(threads);
    let span = spans.open("pass 0", "pass");
    watch.start();
    let first_outcome = prepared.pass(&mut watch);
    watch.finish();
    spans.close(span);
    let first = summarize(&first_outcome);
    checks.record(
        "pass 0 is consistent",
        first.error.clone().map_or(Ok(()), Err),
    );

    // The timed set-ups run warm, after pass 0. Set-ups repeat within a
    // unit until it lasts SETUP_UNIT_S, so that a microsecond set-up is
    // timed against the reference computation over a long enough span.
    let mut setup_watch = Stopwatch::new(1);
    let mut setups_per_unit = Vec::with_capacity(SETUP_UNITS);
    let span = spans.open("setup", "setup");
    setup_watch.start();
    for unit in 0..SETUP_UNITS {
        if unit > 0 {
            setup_watch.lap();
        }
        let started = Instant::now();
        let mut setups = 0;
        while setups == 0 || started.elapsed().as_secs_f64() < SETUP_UNIT_S {
            drop(prepared);
            prepared = workloads::setup(workload, opts.seed, opts.quick, threads);
            setups += 1;
        }
        setups_per_unit.push(setups);
    }
    let setup_units = setup_watch.finish();
    spans.counter(span, "setups", setups_per_unit.iter().sum::<usize>() as u64);
    spans.close(span);
    let setup_s: Vec<f64> = setup_units
        .iter()
        .zip(&setups_per_unit)
        .map(|(u, &n)| u.adjusted_s(SETUP_SLOWDOWN_EXPONENT) / n as f64)
        .collect();

    // A trace run alternates plain passes with passes through the
    // program's own span-tracing entry point, so both see the same
    // conditions and their medians give the tracing overhead.
    let mut passes: Vec<Vec<Unit>> = Vec::new();
    let mut traced_s = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES
        || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds)
    {
        let n = passes.len() + 1;
        let span = spans.open(format!("pass {n}"), "pass");
        watch.start();
        let outcome = prepared.pass(&mut watch);
        passes.push(watch.finish());
        spans.close(span);
        checks.record(
            format!("pass {n} identical to pass 0"),
            same_as(&first, &summarize(&outcome)),
        );
        if opts.trace {
            let span = spans.open(format!("traced pass {n}"), "pass");
            let pass_start = Instant::now();
            let (outcome, program_trace) = prepared.traced_pass();
            traced_s.push(pass_start.elapsed().as_secs_f64());
            spans.counter(span, "program_spans", program_trace.len() as u64);
            spans.close(span);
            checks.record(
                format!("traced pass {n} identical to pass 0"),
                same_as(&first, &summarize(&outcome)),
            );
        }
    }
    let pass_s: Vec<f64> = passes
        .iter()
        .map(|units| units.iter().map(|u| u.wall_s).sum())
        .collect();
    // A pass on the nominal host: each unit's median adjusted time over
    // the passes, summed.
    let adjusted_pass_s: f64 = (0..passes[0].len())
        .map(|k| {
            let times: Vec<f64> = passes
                .iter()
                .filter_map(|units| units.get(k))
                .map(|u| u.adjusted_s(workload.slowdown_exponent()))
                .collect();
            median(&times)
        })
        .sum();

    let mut counts = first.counts.clone();
    for (name, result) in prepared.reference_checks(&first_outcome, &mut counts) {
        checks.record(name, result);
    }
    if opts.seed == DEFAULT_SEED {
        checks.record(
            "counts equal the committed expected counts",
            expected_counts(&opts.expected, opts.quick, workload, &counts),
        );
    }
    let l1_miss_rel_err = prepared.l1_miss_rel_err(&first_outcome);
    drop(first_outcome);

    let peak_rss = host::peak_rss_mib();
    if peak_rss.is_none() {
        checks.record(
            "peak RSS is readable",
            Err("no VmHWM in /proc/self/status".into()),
        );
    }
    let end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("refs_per_s", first.refs as f64 / adjusted_pass_s, "1/s"),
        Metric::new(
            "requests_per_s",
            first.requests as f64 / adjusted_pass_s,
            "1/s",
        ),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB"),
    ];

    let mut per_layer = Vec::new();
    let mut not_measurable = Vec::new();
    if opts.trace {
        drop(prepared);
        let span = spans.open("ledger", "ledger");
        let ledger = ledger::measure(
            &workload.ledger_input(opts.seed, opts.quick),
            &mut spans,
            host.nproc,
        );
        spans.close(span);
        checks.record(
            "ledger sanity checks",
            if ledger.failures.is_empty() {
                Ok(())
            } else {
                Err(ledger.failures.join("; "))
            },
        );
        per_layer = ledger.metrics;
        per_layer.push(Metric::new(
            "trace_overhead_frac",
            median(&traced_s) / median(&pass_s) - 1.0,
            "ratio",
        ));
        not_measurable = ledger.not_measurable;
    }
    spans.close(root);

    let metrics = if opts.trace { &per_layer } else { &end_to_end };
    for m in metrics {
        if !m.value.is_finite() {
            checks.record(
                format!("{} is finite", m.name),
                Err(format!("it reads {}", m.value)),
            );
        }
    }
    let stem = format!(
        "{}-seed{}-{}-{}-{}",
        workload.name(),
        opts.seed,
        if opts.trace { "trace" } else { "run" },
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let mut files_written = std::fs::create_dir_all(&opts.out);
    let perfetto = opts.out.join(format!("{stem}.perfetto.json"));
    if opts.trace {
        let mut trace = SpanTrace::new();
        trace.name_track(0, "seta-benchmark");
        trace.absorb(spans);
        let text = trace.perfetto_json("seta-benchmark");
        checks.record(
            "Perfetto trace validates",
            validate_perfetto(&text).map(|_| ()),
        );
        files_written = files_written.and_then(|()| std::fs::write(&perfetto, text));
    }

    let failed = checks.failed().count();
    let attempted = checks.0.len();
    let result = json!({
        "schema": 1u64,
        "workload": workload.name(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "quick": opts.quick,
        "threads": threads,
        "scored": scored,
        "not_measurable": not_measurable,
        "host": host.to_json(),
        "cold_start": true,
        "correct": (failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json(metrics),
        "setups_per_unit": setups_per_unit,
        "setup_units": units_json(&setup_units),
        "pass_s": pass_s,
        "pass_units": passes.iter().map(|units| units_json(units)).collect::<Vec<_>>(),
        "counts": counts,
        "l1_miss_rel_err": l1_miss_rel_err,
        "checks": checks
            .0
            .iter()
            .map(|(name, r)| json!({ "name": name.as_str(), "error": r.as_ref().err() }))
            .collect::<Vec<_>>(),
        "perfetto": opts.trace.then(|| perfetto.display().to_string()),
    });
    let result_path = opts.out.join(format!("{stem}.json"));
    files_written = files_written.and_then(|()| {
        std::fs::write(
            &result_path,
            serde_json::to_string_pretty(&result).expect("results serialize") + "\n",
        )
    });

    for m in metrics {
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!(
        "# modelled caches start empty at every trace segment (the paper's cold-start methodology)"
    );
    println!(
        "# host: {} cores, {}",
        host.nproc,
        result["host"]["cpu_model"].as_str().unwrap_or("unknown")
    );
    if !scored {
        println!(
            "# not_measurable: {} threads on {} cores; this run is not scored",
            workload.threads(),
            host.nproc
        );
    }
    for name in &not_measurable {
        println!("# not_measurable: {name} (fewer cores than threads)");
    }
    if let Some(err) = l1_miss_rel_err {
        println!(
            "# l1_miss_rel_err {err} (mean relative error of L1 miss ratios vs paper Table 3)"
        );
    }
    for (name, reason) in checks.failed() {
        println!("# FAILED {name}: {reason}");
    }
    match files_written {
        Ok(()) => println!("# result: {}", result_path.display()),
        Err(e) => eprintln!("cannot write results under {}: {e}", opts.out.display()),
    }
    println!(
        "{}",
        serde_json::to_string(&json!({
            "correct": (failed == 0),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics_json(metrics),
        }))
        .expect("results serialize")
    );
    u8::from(failed > 0)
}

/// Runs every workload, each in its own child process so each has its own
/// peak RSS, and ends with a JSON line holding every workload's metrics.
fn run_all(opts: &RunOpts) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return 2;
        }
    };
    let (mut attempted, mut failed, mut code) = (0u64, 0u64, 0u8);
    let mut metrics = Map::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.arg(if opts.trace { "trace" } else { "run" })
            .args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--out")
            .arg(&opts.out)
            .arg("--expected")
            .arg(&opts.expected);
        if opts.quick {
            cmd.arg("--quick");
        }
        let result = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())
            .and_then(|out| {
                let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
                let mut lines: Vec<&str> = stdout.lines().collect();
                let last = lines.pop().unwrap_or_default();
                for line in lines {
                    println!("{line}");
                }
                let parsed: Value = serde_json::from_str(last).map_err(|e| e.to_string())?;
                Ok((out.status.success(), parsed))
            });
        match result {
            Ok((success, parsed)) => {
                attempted += parsed["attempted"].as_u64().unwrap_or(1);
                failed += parsed["failed"].as_u64().unwrap_or(1);
                if !success {
                    code = 1;
                }
                metrics.insert(workload.name().to_owned(), parsed["metrics"].clone());
            }
            Err(e) => {
                eprintln!("{}: no result: {e}", workload.name());
                attempted += 1;
                failed += 1;
                code = 1;
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(&json!({
            "correct": (failed == 0),
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics),
        }))
        .expect("results serialize")
    );
    code
}
