//! CLI contract tests for the `paper_tables` and `trace_tool` binaries:
//! unknown arguments fail with usage on stderr, `--version` succeeds, and
//! `--metrics` emits parseable JSONL.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paper_tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(args)
        .output()
        .expect("spawn paper_tables")
}

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("spawn trace_tool")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("seta-cli-{}-{name}", std::process::id()));
    p
}

/// The tiny Dinero trace bundled at the workspace root, resolved
/// relative to this crate so the test works from any cwd.
fn tiny_trace() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/tiny.din")
}

#[test]
fn paper_tables_version_succeeds() {
    let out = paper_tables(&["--version"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("paper_tables "));
}

#[test]
fn paper_tables_rejects_unknown_flag_with_usage() {
    let out = paper_tables(&["fig6", "--bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown argument"));
    assert!(err.contains("usage:"));
}

#[test]
fn paper_tables_rejects_unknown_experiment() {
    let out = paper_tables(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}

/// `--threads` is refused, before anything runs, by every experiment
/// that would ignore it, with a message naming the ones that take it.
#[test]
fn paper_tables_refuses_threads_where_it_would_be_ignored() {
    for args in [
        &["table4", "--scale", "400", "--threads", "1"][..],
        &["all", "--threads", "2"],
        &["fig3", "--threads", "2"],
        &["run", "--threads", "1"],
    ] {
        let out = paper_tables(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains("--threads applies only to sweep, report, bench-serve, not"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn paper_tables_run_writes_parseable_jsonl_metrics() {
    let metrics = tmp("run.jsonl");
    let out = paper_tables(&[
        "run",
        "--scale",
        "40",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let mut lines = 0;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
        assert!(v["counters"].as_object().is_some());
        lines += 1;
    }
    assert!(lines >= 1);
    let last: serde_json::Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
    assert_eq!(last["final"].as_bool(), Some(true));
    assert!(last["manifest"]["trace"]["source"]
        .as_str()
        .unwrap()
        .starts_with("synthetic:"));
}

#[test]
fn paper_tables_explain_writes_typed_jsonl_with_passing_identities() {
    let metrics = tmp("explain.jsonl");
    let out = paper_tables(&[
        "explain",
        "--scale",
        "40",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let first: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(first["type"].as_str(), Some("summary"));
    assert_eq!(first["identities_hold"].as_bool(), Some(true));
    let mut strategies = 0;
    let mut checks = 0;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
        match v["type"].as_str().unwrap() {
            "strategy" => strategies += 1,
            "check" => checks += 1,
            _ => {}
        }
    }
    assert_eq!(strategies, 4, "one line per standard strategy");
    assert!(checks > 0);
    // The report proper goes to stdout, not the artifact.
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("probe attribution"), "{report}");
}

#[test]
fn trace_tool_explain_reports_on_the_bundled_trace() {
    let metrics = tmp("trace-explain.jsonl");
    let out = trace_tool(&[
        "explain",
        tiny_trace(),
        "--sample-every",
        "50",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let mut kinds = std::collections::HashMap::new();
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
        *kinds
            .entry(v["type"].as_str().unwrap().to_owned())
            .or_insert(0u32) += 1;
    }
    assert_eq!(kinds["summary"], 1);
    assert_eq!(kinds["mru_distribution"], 1);
    assert!(kinds["check"] > 0);
    assert!(kinds["event"] > 0, "sampling 1-in-50 must retain events");
}

#[test]
fn trace_tool_explain_rejects_non_power_of_two_assoc() {
    let out = trace_tool(&["explain", tiny_trace(), "--assoc", "3"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("power of two"), "{err}");
}

#[test]
fn assoc_wider_than_a_valid_mask_is_rejected() {
    for out in [
        trace_tool(&["explain", tiny_trace(), "--assoc", "64"]),
        paper_tables(&["run", "--scale", "100", "--assoc", "64"]),
        paper_tables(&["bench-serve", "--assoc", "64"]),
    ] {
        assert!(!out.status.success());
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--assoc must be at most 32"), "{err}");
    }
}

#[test]
fn trace_tool_version_succeeds() {
    let out = trace_tool(&["--version"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("trace_tool "));
}

#[test]
fn trace_tool_rejects_unknown_args_in_every_command() {
    for args in [
        vec!["generate", "/tmp/never-written", "--bogus"],
        vec!["convert", "a", "b", "extra"],
        vec!["stats", "a", "--bogus"],
        vec!["mattson", "a", "--frob", "3"],
    ] {
        let out = trace_tool(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown argument"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn trace_tool_generate_and_stats_emit_metrics() {
    let trace = tmp("trace.seta");
    let metrics = tmp("stats.jsonl");
    let out = trace_tool(&[
        "generate",
        trace.to_str().unwrap(),
        "--segments",
        "2",
        "--refs",
        "2000",
        "--seed",
        "9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = trace_tool(&[
        "stats",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
    let v: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(v["counters"]["refs_total"].as_u64(), Some(4000));
    assert_eq!(
        v["manifest"]["labels"][1],
        serde_json::json!(["command", "stats"])
    );
}

#[test]
fn paper_tables_sweep_writes_valid_perfetto_and_prints_report() {
    let trace = tmp("sweep.perfetto.json");
    let flame = tmp("sweep.folded");
    let out = paper_tables(&[
        "sweep",
        "--scale",
        "400",
        "--threads",
        "2",
        "--report",
        "--trace-out",
        trace.to_str().unwrap(),
        "--flame",
        flame.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("busy%"), "utilization report missing: {text}");
    assert!(text.contains("load balance"), "{text}");
    let json = std::fs::read_to_string(&trace).unwrap();
    let events = seta_obs::validate_perfetto(&json).expect("valid Perfetto trace_event JSON");
    assert!(events > 0, "trace holds at least one complete event");
    let folded = std::fs::read_to_string(&flame).unwrap();
    assert!(
        folded.lines().any(|l| l.starts_with("main;sweep")),
        "collapsed stacks start at the sweep root: {folded}"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&flame);
}

#[test]
fn paper_tables_diff_distinguishes_identical_from_divergent_runs() {
    let a = tmp("diff-a.jsonl");
    let b = tmp("diff-b.jsonl");
    for (path, seed) in [(&a, "7"), (&b, "8")] {
        let out = paper_tables(&[
            "run",
            "--scale",
            "400",
            "--seed",
            seed,
            "--metrics",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // An artifact always agrees with itself.
    let out = paper_tables(&["diff", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Different seeds book different probes: exit 1 with a divergence note.
    let out = paper_tables(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("probe accounting diverges"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("PROBE DIVERGENCE"), "{text}");
    // A missing file is a usage error (2), not a divergence.
    let out = paper_tables(&["diff", a.to_str().unwrap(), "/nonexistent-artifact"]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn trace_tool_sim_prints_phase_table_and_writes_window_rows() {
    let windows = tmp("sim-windows.jsonl");
    let perfetto = tmp("sim.perfetto.json");
    let out = trace_tool(&[
        "sim",
        tiny_trace(),
        "--window",
        "2000",
        "--windows",
        windows.to_str().unwrap(),
        "--trace-out",
        perfetto.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("miss-ratio"), "phase table missing: {text}");
    let rows = std::fs::read_to_string(&windows).unwrap();
    let mut refs = 0u64;
    for line in rows.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("window row parses");
        refs += v["refs_end"].as_u64().unwrap() - v["refs_start"].as_u64().unwrap();
    }
    assert_eq!(refs, 8000, "window rows cover the whole trace exactly");
    let json = std::fs::read_to_string(&perfetto).unwrap();
    seta_obs::validate_perfetto(&json).expect("valid Perfetto trace_event JSON");
    let _ = std::fs::remove_file(&windows);
    let _ = std::fs::remove_file(&perfetto);
}

/// Every hostile geometry value `sim` and `explain` used to panic on, or
/// silently truncate, is a clean rejection: exit 1 with a message naming
/// the flag, and no panic.
#[test]
fn hostile_geometry_flags_exit_1_without_panicking() {
    let both = ["sim", "explain"];
    let cases: [(&[&str], &[&str], &str); 6] = [
        (&["sim"], &["--assoc", "64"], "--assoc must be at most 32"),
        (&both, &["--tag-bits", "0"], "--tag-bits must be in 1..=64"),
        (&both, &["--tag-bits", "65"], "--tag-bits must be in 1..=64"),
        (
            &both,
            &["--tag-bits", "200"],
            "--tag-bits must be in 1..=64",
        ),
        (
            &both,
            &["--l1-block", "128"],
            "L1 block size 128 exceeds L2 block size 32",
        ),
        // 2^32 + 4, which an `as u32` cast would read as 4.
        (
            &["explain"],
            &["--assoc", "4294967300"],
            "--assoc must be a power of two",
        ),
    ];
    for (commands, flags, message) in cases {
        for command in commands {
            let mut args = vec![*command, tiny_trace()];
            args.extend_from_slice(flags);
            let out = trace_tool(&args);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
            assert!(err.contains(message), "{args:?}: {err}");
        }
    }
}
