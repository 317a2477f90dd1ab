//! The benchmark binary end to end, at 1/50 scale (`--quick`) with every
//! output check on.

use serde_json::{Number, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_seta-benchmark");
const WORKLOADS: [&str; 4] = ["table4_sweep", "din_replay", "wide_assoc", "serve_2c"];

/// A fresh directory under the build's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn bench(args: &[&str], out: &Path) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("file is readable");
    serde_json::from_str(&text).expect("file is JSON")
}

/// Metric names BENCHMARK.json declares in `section`.
fn declared(section: &str) -> Vec<String> {
    let doc = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    doc[section]
        .as_array()
        .expect("section is a list")
        .iter()
        .map(|m| m["name"].as_str().expect("named").to_owned())
        .collect()
}

/// Checks every `workload metric value unit` line of `stdout` and returns
/// the final JSON line.
fn check_output(stdout: &str, names: &[String]) -> Value {
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, body) = lines.split_last().expect("the run printed something");
    for line in body.iter().filter(|l| !l.starts_with('#')) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(parts.len(), 4, "metric line {line:?}");
        assert!(WORKLOADS.contains(&parts[0]), "{line:?}");
        let name = parts[1];
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
        assert!(
            names.iter().any(|n| n == name),
            "{name} is not in BENCHMARK.json"
        );
        let value: f64 = parts[2].parse().expect("numeric value");
        assert!(value.is_finite(), "{line:?}");
    }
    serde_json::from_str(last).expect("the last line is JSON")
}

fn metric_names(metrics: &Value) -> Vec<String> {
    let mut names: Vec<String> = metrics
        .as_object()
        .expect("metrics is an object")
        .keys()
        .cloned()
        .collect();
    names.sort();
    names
}

#[test]
fn quick_run_checks_every_workload_and_prints_only_declared_metrics() {
    let out = scratch("quick_run");
    let run = bench(&["run", "--quick"], &out);
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    assert!(run.status.success(), "{stdout}");
    let mut e2e = declared("end_to_end");
    e2e.sort();
    let last = check_output(&stdout, &e2e);
    assert_eq!(last["correct"].as_bool(), Some(true), "{stdout}");
    assert_eq!(last["failed"].as_u64(), Some(0));
    assert!(last["attempted"].as_u64() > Some(0));
    for w in WORKLOADS {
        assert_eq!(metric_names(&last["metrics"][w]), e2e, "{w}");
    }
    let files: Vec<PathBuf> = std::fs::read_dir(&out)
        .expect("results directory")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), WORKLOADS.len(), "one result file per workload");
    for file in files {
        let run = read_json(&file);
        assert!(
            run["host"]["nproc"].as_u64() >= Some(1),
            "{}",
            file.display()
        );
        assert!(run["host"]["rustc"].as_str().is_some());
        assert_eq!(
            run["scored"].as_bool(),
            Some(run["host"]["nproc"].as_u64() >= run["threads"].as_u64())
        );
        assert_eq!(run["cold_start"].as_bool(), Some(true));
    }
}

#[test]
fn quick_trace_reports_every_layer_and_writes_a_valid_perfetto_trace() {
    let mut layers = declared("per_layer");
    layers.sort();
    for w in WORKLOADS {
        let out = scratch(&format!("quick_trace_{w}"));
        let run = bench(&["trace", "--quick", "--workload", w], &out);
        let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
        assert!(run.status.success(), "{w}: {stdout}");
        let last = check_output(&stdout, &layers);
        assert_eq!(last["correct"].as_bool(), Some(true), "{stdout}");
        assert_eq!(metric_names(&last["metrics"]), layers, "{w}");
        let result = std::fs::read_dir(&out)
            .expect("results directory")
            .map(|e| e.expect("entry").path())
            .find(|p| !p.to_string_lossy().ends_with(".perfetto.json"))
            .expect("a result file");
        let perfetto = read_json(&result)["perfetto"]
            .as_str()
            .expect("trace runs name their Perfetto file")
            .to_owned();
        let text = std::fs::read_to_string(perfetto).expect("Perfetto file");
        let spans = seta_obs::validate_perfetto(&text).expect("Perfetto trace validates");
        assert!(text.contains("core.lookup.mru"), "one span per layer call");
        assert!(spans > 20, "{spans} spans");
    }
}

#[test]
fn a_corrupted_expected_count_fails_the_run() {
    let out = scratch("corrupted");
    let mut doc = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json"));
    let Value::Object(scales) = &mut doc else {
        panic!("expected.json is an object")
    };
    let Some(Value::Object(workloads)) = scales.get_mut("quick") else {
        panic!("expected.json has quick counts")
    };
    let Some(Value::Object(counts)) = workloads.get_mut("wide_assoc") else {
        panic!("expected.json has wide_assoc counts")
    };
    let requests = counts["l2_requests"].as_u64().expect("a count");
    counts.insert(
        "l2_requests".into(),
        Value::Number(Number::from_u64(requests + 1)),
    );
    let expected = out.join("expected.json");
    std::fs::write(&expected, serde_json::to_string(&doc).expect("serializes")).expect("written");

    let run = bench(
        &[
            "run",
            "--quick",
            "--workload",
            "wide_assoc",
            "--expected",
            expected.to_str().expect("UTF-8 path"),
        ],
        &out,
    );
    assert!(!run.status.success(), "a failed check exits nonzero");
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    let last = check_output(&stdout, &declared("end_to_end"));
    assert_eq!(last["correct"].as_bool(), Some(false));
    let failed = last["failed"].as_u64().expect("failed count");
    let attempted = last["attempted"].as_u64().expect("attempted count");
    assert!(
        failed > 0 && failed <= attempted,
        "failed_frac = {failed}/{attempted}"
    );
    assert!(stdout.contains("FAILED counts equal the committed expected counts"));
}

/// Writes one full-scale run file of `workload` holding `refs_per_s`.
fn run_file(dir: &Path, name: &str, workload: &str, refs_per_s: f64, correct: bool, quick: bool) {
    let run = serde_json::json!({
        "workload": workload,
        "scored": true,
        "quick": quick,
        "correct": correct,
        "not_measurable": [],
        "metrics": { "refs_per_s": { "value": refs_per_s, "unit": "1/s" } },
    });
    std::fs::create_dir_all(dir).expect("set directory");
    std::fs::write(
        dir.join(format!("{name}.json")),
        serde_json::to_string(&run).expect("serializes"),
    )
    .expect("written");
}

/// Writes a set of four steady runs per workload, scaled by `scale`.
fn steady_set(dir: &Path, workloads: &[&str], scale: f64) {
    for w in workloads {
        for (i, v) in [100.0, 101.0, 99.5, 100.5].into_iter().enumerate() {
            run_file(dir, &format!("{w}{i}"), w, v * 1e6 * scale, true, false);
        }
    }
}

fn compare(base: &Path, new: &Path) -> (Option<i32>, String) {
    let out = Command::new(BIN)
        .arg("compare")
        .arg(base)
        .arg("--vs")
        .arg(new)
        .output()
        .expect("compare runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
    )
}

#[test]
fn compare_passes_a_steady_set_and_fails_a_regression() {
    let root = scratch("compare");
    steady_set(&root.join("base"), &["wide_assoc"], 1.0);
    steady_set(&root.join("same"), &["wide_assoc"], 0.99);
    steady_set(&root.join("slow"), &["wide_assoc"], 0.7);
    let (code, out) = compare(&root.join("base"), &root.join("same"));
    assert_eq!(code, Some(0), "{out}");
    let (code, out) = compare(&root.join("base"), &root.join("slow"));
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("REGRESSION"), "{out}");
}

#[test]
fn compare_rejects_failed_runs_ignores_quick_ones_and_fails_missing_pairs() {
    let root = scratch("compare_sets");
    steady_set(&root.join("base"), &["wide_assoc", "din_replay"], 1.0);

    // A quick run, however slow, is not part of the comparison.
    let quick = root.join("quick");
    steady_set(&quick, &["wide_assoc", "din_replay"], 1.0);
    run_file(&quick, "q", "wide_assoc", 1.0, true, true);
    let (code, out) = compare(&root.join("base"), &quick);
    assert_eq!(code, Some(0), "{out}");

    let failed = root.join("failed");
    steady_set(&failed, &["wide_assoc", "din_replay"], 1.0);
    run_file(&failed, "f", "din_replay", 1e8, false, false);
    let (code, out) = compare(&root.join("base"), &failed);
    assert_eq!(code, Some(2), "{out}");
    assert!(out.contains("output checks failed"), "{out}");

    let partial = root.join("partial");
    steady_set(&partial, &["wide_assoc"], 1.0);
    let (code, out) = compare(&root.join("base"), &partial);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("MISSING"), "{out}");
}
