//! Trace utilities: generate synthetic workloads, convert between formats,
//! summarize, and run one-pass Mattson stack analysis.
//!
//! ```text
//! trace_tool generate <out> [--segments N] [--refs N] [--seed S]
//! trace_tool convert  <in> <out>
//! trace_tool stats    <in>
//! trace_tool mattson  <in> [--block N] [--sets N] [--max-assoc N]
//! trace_tool explain  <in> [--assoc A] [--tag-bits T] [--l1-size B]
//!                          [--l1-block B] [--l2-size B] [--l2-block B]
//!                          [--sample-every N]
//! trace_tool sim      <in> [same geometry flags as explain]
//!                          [--window N] [--windows out.jsonl]
//!                          [--trace-out out.perfetto.json]
//!                          [--report-html out.html]
//!                          [--serve addr:port] [--serve-linger secs]
//!
//! Every command also accepts --metrics <out.jsonl> (write a final
//! metrics/manifest snapshot; for explain, the full JSONL report),
//! --progress (heartbeat on stderr) and --progress-interval <secs>.
//! Formats are chosen by extension: .din (Dinero), .seta (binary),
//! anything else is the text format.
//! ```

use seta_cache::hierarchy::HierarchyError;
use seta_cache::{CacheConfig, CacheConfigError, MattsonAnalyzer};
use seta_obs::{labeled, MetricsRegistry, Progress, RunManifest};
use seta_sim::explain::{explain, ExplainConfig};
use seta_sim::metered::{simulate_instrumented, MeterConfig};
use seta_sim::runner::standard_strategies;
use seta_trace::format::{
    BinaryReader, BinaryWriter, DineroReader, DineroWriter, TextReader, TextWriter,
};
use seta_trace::gen::{AtumLike, AtumLikeConfig};
use seta_trace::stats::TraceStats;
use seta_trace::TraceEvent;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Binary,
    Dinero,
}

fn format_of(path: &Path) -> Format {
    match path.extension().and_then(|e| e.to_str()) {
        Some("din") => Format::Dinero,
        Some("seta") => Format::Binary,
        _ => Format::Text,
    }
}

fn usage() -> String {
    "usage:\n  trace_tool generate <out> [--segments N] [--refs N] [--seed S]\n  \
     trace_tool convert <in> <out>\n  \
     trace_tool stats <in>\n  \
     trace_tool mattson <in> [--block N] [--sets N] [--max-assoc N]\n  \
     trace_tool explain <in> [--assoc A] [--tag-bits T] [--l1-size B] [--l1-block B]\n  \
     \x20                    [--l2-size B] [--l2-block B] [--sample-every N]\n  \
     trace_tool sim <in> [geometry flags] [--window N] [--windows out.jsonl]\n  \
     \x20                [--trace-out out.perfetto.json] [--report-html out.html]\n  \
     \x20                [--serve addr:port] [--serve-linger secs]\n  \
     trace_tool --version\n\
     every command also accepts --metrics <out.jsonl>, --progress and\n\
     --progress-interval <secs>; for explain, --metrics writes the JSONL report\n\
     formats by extension: .din (Dinero), .seta (binary), other (text)"
        .into()
}

/// Observability flags shared by every subcommand.
#[derive(Debug, Default)]
struct Obs {
    metrics: Option<String>,
    progress: bool,
    progress_interval: Option<u64>,
}

impl Obs {
    /// Consumes `--metrics`/`--progress` if `arg` is one of them; returns
    /// whether the argument was handled.
    fn consume(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--metrics" => {
                self.metrics = Some(args.next().ok_or("--metrics needs a path")?);
                Ok(true)
            }
            "--progress" => {
                self.progress = true;
                Ok(true)
            }
            "--progress-interval" => {
                let v = args.next().ok_or("--progress-interval needs a value")?;
                self.progress_interval = Some(
                    v.parse()
                        .map_err(|e| format!("bad --progress-interval {v}: {e}"))?,
                );
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn heartbeat(&self, label: &str, total: Option<u64>) -> Option<Progress> {
        self.progress.then(|| match self.progress_interval {
            Some(secs) => Progress::with_interval_secs(label, total, secs),
            None => Progress::new(label, total),
        })
    }

    /// Writes one final JSONL snapshot if `--metrics` was given.
    fn emit(
        &self,
        registry: &MetricsRegistry,
        refs: u64,
        manifest: &RunManifest,
    ) -> Result<(), String> {
        let Some(path) = &self.metrics else {
            return Ok(());
        };
        let line = seta_obs::export::final_snapshot_line(registry, 0, refs, manifest);
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        writeln!(f, "{line}").map_err(|e| format!("write {path}: {e}"))
    }
}

fn manifest_for(command: &str) -> RunManifest {
    let mut m = RunManifest::new(env!("CARGO_PKG_VERSION"));
    m.label("tool", "trace_tool");
    m.label("command", command);
    m
}

/// Reads a whole trace file into memory (these tools are offline).
fn read_events(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let events: Result<Vec<TraceEvent>, _> = match format_of(path) {
        Format::Text => TextReader::new(reader).collect(),
        Format::Dinero => DineroReader::new(reader).collect(),
        Format::Binary => BinaryReader::new(reader)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .collect(),
    };
    events.map_err(|e| format!("decode {}: {e}", path.display()))
}

fn write_events(path: &Path, events: &[TraceEvent]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let writer = BufWriter::new(file);
    let io = match format_of(path) {
        Format::Text => TextWriter::new(writer).write_all(events.iter().copied()),
        Format::Dinero => DineroWriter::new(writer).write_all(events.iter().copied()),
        Format::Binary => {
            let mut w = BinaryWriter::new(writer);
            w.write_all(events.iter().copied())
                .and_then(|()| w.finish().map(drop))
        }
    };
    io.map_err(|e| format!("write {}: {e}", path.display()))
}

fn parse_u64(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("bad {flag} {v}: {e}"))
}

fn generate(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let out = args.next().ok_or_else(usage)?;
    let mut cfg = AtumLikeConfig::paper_like();
    cfg.segments = 2;
    cfg.refs_per_segment = 100_000;
    let mut seed = 42u64;
    let mut obs = Obs::default();
    while let Some(a) = args.next() {
        if obs.consume(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--segments" => cfg.segments = parse_u64(&mut args, "--segments")? as usize,
            "--refs" => cfg.refs_per_segment = parse_u64(&mut args, "--refs")?,
            "--seed" => seed = parse_u64(&mut args, "--seed")?,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    cfg.validate()?;
    let mut manifest = manifest_for("generate");
    manifest.label("segments", cfg.segments);
    manifest.label("refs_per_segment", cfg.refs_per_segment);
    let mut heartbeat = obs.heartbeat("generate", Some(cfg.segments as u64 * cfg.refs_per_segment));
    let events: Vec<TraceEvent> = manifest.time_phase("generate", || {
        AtumLike::new(cfg.clone(), seed)
            .inspect(|_| {
                if let Some(p) = heartbeat.as_mut() {
                    p.tick(1);
                }
            })
            .collect()
    });
    manifest.time_phase("write", || write_events(Path::new(&out), &events))?;
    manifest.set_trace(&out, events.len() as u64, seed);
    if let Some(p) = heartbeat.as_mut() {
        p.finish();
    }
    let mut registry = MetricsRegistry::new();
    let h = registry.counter("events_total");
    registry.set_counter(h, events.len() as u64);
    obs.emit(&registry, events.len() as u64, &manifest)?;
    println!(
        "wrote {} events ({} segments x {} refs, seed {seed}) to {out}",
        events.len(),
        cfg.segments,
        cfg.refs_per_segment
    );
    Ok(())
}

fn convert(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let input = args.next().ok_or_else(usage)?;
    let output = args.next().ok_or_else(usage)?;
    let mut obs = Obs::default();
    while let Some(a) = args.next() {
        if obs.consume(&a, &mut args)? {
            continue;
        }
        return Err(format!("unknown argument {a:?}\n{}", usage()));
    }
    let mut manifest = manifest_for("convert");
    let events = manifest.time_phase("read", || read_events(Path::new(&input)))?;
    manifest.time_phase("write", || write_events(Path::new(&output), &events))?;
    manifest.set_trace(&input, events.len() as u64, 0);
    let mut registry = MetricsRegistry::new();
    let h = registry.counter("events_total");
    registry.set_counter(h, events.len() as u64);
    obs.emit(&registry, events.len() as u64, &manifest)?;
    println!("converted {} events: {input} -> {output}", events.len());
    Ok(())
}

fn stats(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let input = args.next().ok_or_else(usage)?;
    let mut obs = Obs::default();
    while let Some(a) = args.next() {
        if obs.consume(&a, &mut args)? {
            continue;
        }
        return Err(format!("unknown argument {a:?}\n{}", usage()));
    }
    let mut manifest = manifest_for("stats");
    let events = manifest.time_phase("read", || read_events(Path::new(&input)))?;
    let mut heartbeat = obs.heartbeat("stats", Some(events.len() as u64));
    let s = manifest.time_phase("analyze", || {
        TraceStats::from_events(events.iter().copied().inspect(|_| {
            if let Some(p) = heartbeat.as_mut() {
                p.tick(1);
            }
        }))
    });
    manifest.set_trace(&input, events.len() as u64, 0);
    if let Some(p) = heartbeat.as_mut() {
        p.finish();
    }
    let mut registry = MetricsRegistry::new();
    for (name, value) in [
        ("refs_total", s.total_refs()),
        ("reads_total", s.reads),
        ("writes_total", s.writes),
        ("ifetches_total", s.ifetches),
        ("flushes_total", s.flushes),
        ("unique_addrs", s.unique_addrs() as u64),
    ] {
        let h = registry.counter(name);
        registry.set_counter(h, value);
    }
    obs.emit(&registry, s.total_refs(), &manifest)?;
    println!("{input}:");
    println!("  references      {}", s.total_refs());
    println!("  reads           {}", s.reads);
    println!("  writes          {} ({:.3})", s.writes, s.write_fraction());
    println!(
        "  ifetches        {} ({:.3})",
        s.ifetches,
        s.ifetch_fraction()
    );
    println!("  flushes         {}", s.flushes);
    println!("  unique addrs    {}", s.unique_addrs());
    for block in [16u64, 32, 64] {
        println!(
            "  footprint @{block:>2}B  {} KiB",
            s.footprint_bytes(block) / 1024
        );
    }
    Ok(())
}

fn mattson(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let input = args.next().ok_or_else(usage)?;
    let mut block = 32u64;
    let mut sets = 2048u64;
    let mut max_assoc = 16u32;
    let mut obs = Obs::default();
    while let Some(a) = args.next() {
        if obs.consume(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--block" => block = parse_u64(&mut args, "--block")?,
            "--sets" => sets = parse_u64(&mut args, "--sets")?,
            "--max-assoc" => max_assoc = parse_u64(&mut args, "--max-assoc")? as u32,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !block.is_power_of_two() || !sets.is_power_of_two() {
        return Err("--block and --sets must be powers of two".into());
    }
    if max_assoc == 0 {
        return Err("--max-assoc must be positive".into());
    }
    let mut manifest = manifest_for("mattson");
    manifest.label("block", block);
    manifest.label("sets", sets);
    let events = manifest.time_phase("read", || read_events(Path::new(&input)))?;
    let mut heartbeat = obs.heartbeat("mattson", Some(events.len() as u64));
    let mut analyzer = MattsonAnalyzer::new(block, sets);
    manifest.time_phase("analyze", || {
        for e in &events {
            match e {
                TraceEvent::Ref(r) => {
                    analyzer.observe(r.addr);
                }
                TraceEvent::Flush => analyzer.flush(),
            }
            if let Some(p) = heartbeat.as_mut() {
                p.tick(1);
            }
        }
    });
    manifest.set_trace(&input, events.len() as u64, 0);
    if let Some(p) = heartbeat.as_mut() {
        p.finish();
    }
    println!(
        "{input}: one-pass LRU stack analysis ({sets} sets x {block} B blocks, \
         capacity = assoc x {} KiB)",
        sets * block / 1024
    );
    println!(
        "  refs {}   cold misses {}",
        analyzer.refs(),
        analyzer.cold_misses()
    );
    let mut registry = MetricsRegistry::new();
    for (name, value) in [
        ("refs_total", analyzer.refs()),
        ("cold_misses_total", analyzer.cold_misses()),
    ] {
        let h = registry.counter(name);
        registry.set_counter(h, value);
    }
    let mut assoc = 1u32;
    while assoc <= max_assoc {
        let ratio = analyzer.miss_ratio(assoc);
        let g = registry.gauge(&labeled("miss_ratio", "assoc", &assoc.to_string()));
        registry.set_gauge(g, ratio);
        println!("  {assoc:>3}-way: miss ratio {ratio:.4}");
        assoc *= 2;
    }
    obs.emit(&registry, analyzer.refs(), &manifest)?;
    let f = analyzer.f_distribution(4.min(max_assoc));
    if !f.is_empty() {
        let rendered: Vec<String> = f.iter().map(|v| format!("{v:.3}")).collect();
        println!(
            "  f_i at {}-way: [{}]",
            4.min(max_assoc),
            rendered.join(", ")
        );
    }
    Ok(())
}

/// The hierarchy flags `explain` and `sim` share, as given on the command
/// line. [`build`](Self::build) is the one place they are checked.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    assoc: u64,
    tag_bits: u64,
    l1_size: u64,
    l1_block: u64,
    l2_size: u64,
    l2_block: u64,
}

/// Why a set of geometry flags cannot build a hierarchy.
#[derive(Debug)]
enum GeometryError {
    /// A flag's value is missing, not a number, or out of its range.
    Flag { flag: &'static str, message: String },
    /// One level's size and block size do not make a cache.
    Cache {
        level: &'static str,
        error: CacheConfigError,
    },
    /// The L1 block does not fit in one L2 block.
    Hierarchy(HierarchyError),
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::Flag { flag, message } => write!(f, "{flag} {message}"),
            GeometryError::Cache { level, error } => write!(f, "bad {level} cache: {error}"),
            GeometryError::Hierarchy(e) => e.fmt(f),
        }
    }
}

impl From<GeometryError> for String {
    fn from(e: GeometryError) -> String {
        e.to_string()
    }
}

impl Geometry {
    const DEFAULT: Geometry = Geometry {
        assoc: 4,
        tag_bits: 16,
        l1_size: 4 * 1024,
        l1_block: 16,
        l2_size: 16 * 1024,
        l2_block: 32,
    };

    /// Consumes a geometry flag and its value if `arg` is one; returns
    /// whether the argument was handled.
    fn consume(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, GeometryError> {
        let (flag, slot) = match arg {
            "--assoc" => ("--assoc", &mut self.assoc),
            "--tag-bits" => ("--tag-bits", &mut self.tag_bits),
            "--l1-size" => ("--l1-size", &mut self.l1_size),
            "--l1-block" => ("--l1-block", &mut self.l1_block),
            "--l2-size" => ("--l2-size", &mut self.l2_size),
            "--l2-block" => ("--l2-block", &mut self.l2_block),
            _ => return Ok(false),
        };
        let bad = |message| GeometryError::Flag { flag, message };
        let v = args.next().ok_or_else(|| bad("needs a value".into()))?;
        *slot = v.parse().map_err(|e| bad(format!("value {v:?}: {e}")))?;
        Ok(true)
    }

    /// Checks every flag and builds the two caches; returns them with the
    /// stored-tag width.
    fn build(&self) -> Result<(CacheConfig, CacheConfig, u32), GeometryError> {
        let bad = |flag, message: String| Err(GeometryError::Flag { flag, message });
        if !self.assoc.is_power_of_two() {
            return bad("--assoc", "must be a power of two".into());
        }
        if self.assoc > seta_core::MAX_ASSOC as u64 {
            return bad(
                "--assoc",
                format!("must be at most {}", seta_core::MAX_ASSOC),
            );
        }
        if !(1..=64).contains(&self.tag_bits) {
            return bad("--tag-bits", "must be in 1..=64".into());
        }
        let l1 = CacheConfig::direct_mapped(self.l1_size, self.l1_block)
            .map_err(|error| GeometryError::Cache { level: "L1", error })?;
        let l2 = CacheConfig::new(self.l2_size, self.l2_block, self.assoc as u32)
            .map_err(|error| GeometryError::Cache { level: "L2", error })?;
        if l1.block_size() > l2.block_size() {
            return Err(GeometryError::Hierarchy(
                HierarchyError::BlockSizeMismatch {
                    l1: l1.block_size(),
                    l2: l2.block_size(),
                },
            ));
        }
        Ok((l1, l2, self.tag_bits as u32))
    }
}

/// Replays a trace file through a two-level hierarchy with probe-level
/// event tracing, printing the attribution report; `--metrics` writes the
/// typed JSONL report.
fn explain_cmd(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let input = args.next().ok_or_else(usage)?;
    let mut geometry = Geometry::DEFAULT;
    let mut sample_every = 100u64;
    let mut obs = Obs::default();
    while let Some(a) = args.next() {
        if obs.consume(&a, &mut args)? || geometry.consume(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--sample-every" => sample_every = parse_u64(&mut args, "--sample-every")?,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let (l1, l2, tag_bits) = geometry.build()?;
    let assoc = l2.associativity();
    if sample_every == 0 {
        return Err("--sample-every must be positive".into());
    }
    let mut manifest = manifest_for("explain");
    manifest.label("l1", l1.label());
    manifest.label("l2", l2.label());
    manifest.label("assoc", assoc);
    let events = manifest.time_phase("read", || read_events(Path::new(&input)))?;
    let strategies = standard_strategies(assoc, tag_bits);
    let cfg = ExplainConfig {
        sample_every,
        ..ExplainConfig::default()
    };
    let (outcome, report) = manifest.time_phase("explain", || {
        explain(l1, l2, events.iter().copied(), &strategies, &cfg)
    });
    manifest.set_trace(&input, events.len() as u64, 0);
    if let Some(path) = &obs.metrics {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        report
            .write_jsonl(&outcome, &mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    print!("{}", report.render(&outcome));
    if !report.identities_hold() {
        return Err("explain: an exact accounting identity failed (bug)".into());
    }
    Ok(())
}

/// Replays a trace file through the metered simulation loop: prints the
/// per-segment phase table derived from the windowed time series,
/// optionally writes the window rows as typed JSONL (`--windows`) and the
/// run's span trace as Perfetto JSON (`--trace-out`).
fn sim_cmd(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let input = args.next().ok_or_else(usage)?;
    let mut geometry = Geometry::DEFAULT;
    let mut window = seta_obs::DEFAULT_WINDOW_REFS;
    let mut windows_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut report_html: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut serve_linger = 0u64;
    let mut obs = Obs::default();
    while let Some(a) = args.next() {
        if obs.consume(&a, &mut args)? || geometry.consume(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--window" => {
                window = parse_u64(&mut args, "--window")?;
                if window == 0 {
                    return Err("--window must be positive".into());
                }
            }
            "--windows" => {
                windows_out = Some(args.next().ok_or("--windows needs a path")?);
            }
            "--trace-out" => {
                trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--report-html" => {
                report_html = Some(args.next().ok_or("--report-html needs a path")?);
            }
            "--serve" => {
                serve_addr = Some(args.next().ok_or("--serve needs an address")?);
            }
            "--serve-linger" => {
                serve_linger = parse_u64(&mut args, "--serve-linger")?;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let (l1, l2, tag_bits) = geometry.build()?;
    let assoc = l2.associativity();
    if serve_addr.is_none() && serve_linger > 0 {
        return Err("--serve-linger needs --serve".into());
    }
    let events = read_events(Path::new(&input))?;
    let strategies = standard_strategies(assoc, tag_bits);
    let server = match &serve_addr {
        Some(addr) => {
            let server =
                seta_obs::Server::bind(addr.as_str()).map_err(|e| format!("serve {addr}: {e}"))?;
            server
                .handle()
                .set_title(&format!("trace_tool sim {input}"));
            // Port 0 binds an ephemeral port; announce the resolved one.
            eprintln!("live monitor on http://{}/", server.local_addr());
            Some(server)
        }
        None => None,
    };
    // The trace is fully in memory, so the heartbeat (and the live
    // dashboard) can show percentage and ETA: count the processor
    // references up front (flushes are barriers, not refs).
    let expected_refs = events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::Flush))
        .count() as u64;
    let cfg = MeterConfig {
        snapshot_every: 100_000,
        progress: obs.progress,
        progress_interval_secs: obs.progress_interval,
        expected_refs: Some(expected_refs),
        window_refs: window,
        serve: server.as_ref().map(|s| s.handle()),
    };
    let mut writer = match &obs.metrics {
        Some(path) => Some(BufWriter::new(
            File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => None,
    };
    let run = simulate_instrumented(
        l1,
        l2,
        events.iter().copied(),
        &strategies,
        &input,
        0,
        &cfg,
        writer.as_mut(),
    )
    .map_err(|e| format!("write metrics: {e}"))?;
    if let Some(path) = &windows_out {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        seta_obs::timeseries::write_jsonl(&run.windows, &mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &trace_out {
        let mut f = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        run.spans
            .write_perfetto("trace_tool sim", &mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &report_html {
        let mut page = seta_obs::report::HtmlPage::new("seta run report");
        page.subtitle(format!(
            "{input}: {} over {} ({}-way L2)",
            run.outcome.l1_label, run.outcome.l2_label, run.outcome.assoc
        ));
        page.push(seta_obs::report::sections::manifest_section(
            &run.manifest,
            obs.metrics.as_deref(),
        ));
        page.push(seta_obs::report::sections::timeseries_section(
            &run.windows,
            windows_out.as_deref(),
        ));
        page.push(seta_obs::report::sections::spans_section(
            &run.spans,
            trace_out.as_deref(),
        ));
        std::fs::write(path, page.render()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("run report -> {path}");
    }
    let out = &run.outcome;
    println!(
        "{input}: {} over {} ({}-way L2), {} refs, L2 local miss {:.4}",
        out.l1_label,
        out.l2_label,
        out.assoc,
        out.hierarchy.processor_refs,
        out.hierarchy.local_miss_ratio()
    );
    let names: Vec<String> = strategies.iter().map(|s| s.name()).collect();
    print!(
        "{}",
        seta_obs::timeseries::phase_table(&run.windows, &names)
    );
    if let Some(path) = &windows_out {
        eprintln!(
            "{} window rows ({} refs each) -> {path}",
            run.windows.len(),
            window
        );
    }
    if let Some(server) = server {
        if serve_linger > 0 {
            eprintln!(
                "run finished; serving final state for {serve_linger}s at http://{}/",
                server.local_addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(serve_linger));
        }
        server.shutdown();
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) => c,
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => generate(args),
        "convert" => convert(args),
        "stats" => stats(args),
        "mattson" => mattson(args),
        "explain" => explain_cmd(args),
        "sim" => sim_cmd(args),
        "--version" | "-V" => {
            println!("trace_tool {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
