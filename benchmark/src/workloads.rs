//! The four end-to-end workloads: how each builds its inputs from the
//! seed, what one timed pass calls, and the checks on what it returns.
//!
//! Every modelled cache starts empty at every trace segment — the paper's
//! cold-start methodology — because every trace here flushes between
//! segments.

use crate::ledger::LedgerInput;
use crate::stopwatch::Stopwatch;
use seta_cache::CacheConfig;
use seta_core::lookup::{LookupStrategy, Mru};
use seta_core::StrategyKind;
use seta_obs::SpanTrace;
use seta_serve::{LoadOutcome, LoadSpec};
use seta_sim::config::{figures_preset, table3_l1_miss_ratios, table4_presets, TABLE4_ASSOCS};
use seta_sim::runner::{
    simulate, simulate_many_traced_with_threads, simulate_many_with_threads, simulate_traced,
    standard_strategies, RunOutcome, RunSpec,
};
use seta_trace::format::{DineroReader, DineroWriter};
use seta_trace::gen::{AtumLike, AtumLikeConfig};
use seta_trace::TraceEvent;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Deterministic counts of one workload's outputs, by name.
pub type Counts = BTreeMap<String, u64>;

/// Stored-tag width of the standard strategies (the paper's t = 16).
pub const TAG_BITS: u32 = 16;
/// Worker threads of the sharded sweep and clients of the serve replay.
pub const THREADS: usize = 2;
/// `--quick` divides every trace segment's length by this.
const QUICK_DIVISOR: u64 = 50;
/// Segments of the paper trace each Table 4 spec runs. Each segment keeps
/// the paper's full 350K references, so per-segment cache behaviour is the
/// paper's; only the number of segments is cut, so that one measured run
/// holds a dozen passes.
const TABLE4_SEGMENTS: usize = 2;
/// Leading trace segments the per-layer ledger runs over.
const LEDGER_SEGMENTS: usize = 4;
/// Names of [`standard_strategies`] in order.
const STRATEGIES: [&str; 4] = ["traditional", "naive", "mru", "partial"];

/// One end-to-end workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 4 grid through the sharded sweep runner.
    Table4Sweep,
    /// A Dinero text trace decoded and streamed into `simulate`.
    DinReplay,
    /// A write-heavy trace into a small L1 over a 16-way L2.
    WideAssoc,
    /// The concurrent cache service with two closed-loop clients.
    Serve2c,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::Table4Sweep,
        Workload::DinReplay,
        Workload::WideAssoc,
        Workload::Serve2c,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Sweep => "table4_sweep",
            Workload::DinReplay => "din_replay",
            Workload::WideAssoc => "wide_assoc",
            Workload::Serve2c => "serve_2c",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads or clients the workload is defined with; a run on fewer
    /// cores than this measures nothing about the design.
    pub fn threads(self) -> usize {
        match self {
            Workload::Table4Sweep | Workload::Serve2c => THREADS,
            Workload::DinReplay | Workload::WideAssoc => 1,
        }
    }

    /// How a pass slows with the host, as a power of the reference
    /// computation's slowdown (see `stopwatch`). Over two ten-seed sets on
    /// the shared 2-core VM, the exponent here gave each workload's
    /// smallest run-to-run spread (1.9–6.1%; 4.3–18.9% with the other).
    pub fn slowdown_exponent(self) -> i32 {
        match self {
            // Single-threaded `simulate` slows by about the square.
            Workload::DinReplay | Workload::WideAssoc => 2,
            // Trace generation, most of the sweep, and the serve replay
            // slow as the reference does.
            Workload::Table4Sweep | Workload::Serve2c => 1,
        }
    }

    /// The synthetic trace the workload's inputs are generated from.
    fn trace(self, quick: bool) -> AtumLikeConfig {
        let mut trace = AtumLikeConfig::paper_like();
        if quick {
            trace.refs_per_segment /= QUICK_DIVISOR;
        }
        match self {
            Workload::Table4Sweep => trace.segments = TABLE4_SEGMENTS,
            Workload::WideAssoc => {
                trace.multiprogram.processes = 8;
                trace.multiprogram.process.data.write_fraction = 0.5;
            }
            Workload::DinReplay | Workload::Serve2c => {}
        }
        trace
    }

    /// The L1 and L2 the workload simulates; for the Table 4 grid, the
    /// paper's main configuration at a = 8.
    fn geometry(self) -> (CacheConfig, CacheConfig) {
        let valid = "benchmark geometries are valid";
        match self {
            Workload::Table4Sweep => {
                let p = figures_preset();
                (p.l1().expect(valid), p.l2(8).expect(valid))
            }
            Workload::DinReplay => (
                CacheConfig::direct_mapped(16 * 1024, 16).expect(valid),
                CacheConfig::new(256 * 1024, 32, 8).expect(valid),
            ),
            Workload::WideAssoc => (
                CacheConfig::direct_mapped(1024, 16).expect(valid),
                CacheConfig::new(64 * 1024, 32, 16).expect(valid),
            ),
            Workload::Serve2c => (
                CacheConfig::direct_mapped(4 * 1024, 16).expect(valid),
                CacheConfig::new(256 * 1024, 64, 8).expect(valid),
            ),
        }
    }

    /// The inputs the per-layer ledger measures this workload's layers on:
    /// the leading segments of its trace at its geometry.
    pub fn ledger_input(self, seed: u64, quick: bool) -> LedgerInput {
        let mut trace = self.trace(quick);
        trace.segments = LEDGER_SEGMENTS;
        let (l1, l2) = self.geometry();
        LedgerInput {
            trace,
            seed,
            l1,
            l2,
            serve: serve_spec(l1, l2),
        }
    }
}

/// The serve configuration: 16 lock stripes, MRU pricing, a 64-chunk work
/// queue and 1-in-64 latency sampling.
fn serve_spec(l1: CacheConfig, l2: CacheConfig) -> LoadSpec {
    LoadSpec {
        chunks: Some(64),
        sample_every: 64,
        stripes: 16,
        ..LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()))
    }
}

fn strategies(l2: CacheConfig) -> Vec<Box<dyn LookupStrategy>> {
    standard_strategies(l2.associativity(), TAG_BITS)
}

/// What one pass returned.
pub enum Outcome {
    /// Simulation outcomes, in spec order.
    Runs(Vec<RunOutcome>),
    /// A serve replay.
    Load(Box<LoadOutcome>),
    /// The pass could not run to the end.
    Failed(String),
}

/// The checked facts of one pass.
pub struct Summary {
    /// Processor references simulated.
    pub refs: u64,
    /// Requests that reached the L2 or the shared cache.
    pub requests: u64,
    /// Hash of every deterministic output; equal passes hash equally.
    pub fingerprint: u64,
    /// Deterministic counts compared against the committed expected ones.
    pub counts: Counts,
    /// Why the pass's output is wrong, if it is.
    pub error: Option<String>,
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Reads the checked facts out of a pass's outcome. Runs outside the
/// timed region.
pub fn summarize(outcome: &Outcome) -> Summary {
    match outcome {
        Outcome::Runs(runs) => {
            let mut counts = Counts::new();
            let mut add = |name: String, n: u64| *counts.entry(name).or_default() += n;
            let mut error = None;
            for run in runs {
                let h = &run.hierarchy;
                add("l2_requests".into(), h.l2_requests());
                add("read_in_hits".into(), h.read_in_hits);
                add("write_backs".into(), h.write_backs);
                for (name, s) in STRATEGIES.iter().zip(&run.strategies) {
                    add(
                        format!("probes.{name}"),
                        s.probes.hits.probes + s.probes.misses.probes,
                    );
                    add(
                        format!("wb_probes.{name}"),
                        s.probes_no_opt.write_backs.probes,
                    );
                    let p = &s.probes;
                    if (
                        p.hits.count,
                        p.hits.count + p.misses.count,
                        p.write_backs.count,
                    ) != (h.read_in_hits, h.read_ins, h.write_backs)
                    {
                        error = Some(format!(
                            "{} priced a different request mix than the hierarchy issued",
                            s.name
                        ));
                    }
                }
            }
            Summary {
                refs: runs.iter().map(|r| r.hierarchy.processor_refs).sum(),
                requests: runs.iter().map(|r| r.hierarchy.l2_requests()).sum(),
                fingerprint: hash_of(&format!("{runs:?}")),
                counts,
                error,
            }
        }
        Outcome::Load(out) => {
            // Which client replays which chunk varies from pass to pass, so
            // only the request totals are deterministic at two clients.
            let counts: Counts = [
                ("refs", out.refs),
                ("l2_requests", out.requests),
                ("read_ins", out.read_ins),
                ("write_backs", out.write_backs),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
            Summary {
                refs: out.refs,
                requests: out.requests,
                fingerprint: hash_of(&counts),
                counts,
                error: (!out.conserves())
                    .then(|| "client and shared-cache tallies do not conserve".to_owned()),
            }
        }
        Outcome::Failed(reason) => Summary {
            refs: 0,
            requests: 0,
            fingerprint: 0,
            counts: Counts::new(),
            error: Some(reason.clone()),
        },
    }
}

/// A workload with its inputs built.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    quick: bool,
    threads: usize,
    data: Data,
}

enum Data {
    /// The 24 grid specs; the runner generates each spec's trace itself.
    Table4(Vec<RunSpec>),
    /// The trace as Dinero text.
    Din(Vec<u8>),
    /// The write-heavy trace as events.
    Wide(Vec<TraceEvent>),
    /// The paper trace as events, for the replay.
    Serve(Vec<TraceEvent>),
}

/// Builds `workload`'s inputs from `seed`: the set-up `setup_s` times.
/// `threads` is what multi-threaded workloads run with.
pub fn setup(workload: Workload, seed: u64, quick: bool, threads: usize) -> Prepared {
    let trace = workload.trace(quick);
    let data = match workload {
        Workload::Table4Sweep => {
            let mut specs = Vec::new();
            for preset in table4_presets() {
                for &assoc in &TABLE4_ASSOCS {
                    specs.push(RunSpec {
                        l1: preset.l1().expect("preset geometry is valid"),
                        l2: preset.l2(assoc).expect("preset geometry is valid"),
                        trace: trace.clone(),
                        seed,
                        tag_bits: TAG_BITS,
                    });
                }
            }
            Data::Table4(specs)
        }
        Workload::DinReplay => {
            let mut text = Vec::new();
            DineroWriter::new(&mut text)
                .write_all(AtumLike::new(trace, seed))
                .expect("writing to memory cannot fail");
            Data::Din(text)
        }
        Workload::WideAssoc => Data::Wide(AtumLike::new(trace, seed).collect()),
        Workload::Serve2c => Data::Serve(AtumLike::new(trace, seed).collect()),
    };
    Prepared {
        workload,
        seed,
        quick,
        threads,
        data,
    }
}

impl Prepared {
    /// One pass: the calls whose wall time is measured. `watch` has been
    /// started; the pass ends a unit at every trace segment of a streamed
    /// simulation and after each preset of the grid, so each unit lasts tens
    /// to hundreds of milliseconds.
    pub fn pass(&self, watch: &mut Stopwatch) -> Outcome {
        let (l1, l2) = self.workload.geometry();
        let lap_at_segments = |e: &TraceEvent| {
            if e.is_flush() {
                watch.lap();
            }
        };
        match &self.data {
            Data::Table4(specs) => {
                let mut runs = Vec::with_capacity(specs.len());
                for (i, preset) in specs.chunks(TABLE4_ASSOCS.len()).enumerate() {
                    if i > 0 {
                        watch.lap();
                    }
                    runs.extend(simulate_many_with_threads(preset, self.threads));
                }
                Outcome::Runs(runs)
            }
            Data::Din(text) => {
                let mut error = None;
                let events = decode(text, &mut error).inspect(lap_at_segments);
                let out = simulate(l1, l2, events, &strategies(l2));
                decoded_outcome(error, out)
            }
            Data::Wide(events) => Outcome::Runs(vec![simulate(
                l1,
                l2,
                events.iter().copied().inspect(lap_at_segments),
                &strategies(l2),
            )]),
            Data::Serve(events) => Outcome::Load(Box::new(seta_serve::replay(
                events,
                self.threads,
                &serve_spec(l1, l2),
            ))),
        }
    }

    /// [`pass`](Self::pass) through the program's own span-tracing entry
    /// point, whose outputs must be identical.
    pub fn traced_pass(&self) -> (Outcome, SpanTrace) {
        let (l1, l2) = self.workload.geometry();
        match &self.data {
            Data::Table4(specs) => {
                let (runs, trace) = simulate_many_traced_with_threads(specs, self.threads);
                (Outcome::Runs(runs), trace)
            }
            Data::Din(text) => {
                let mut error = None;
                let (out, trace) =
                    simulate_traced(l1, l2, decode(text, &mut error), &strategies(l2));
                (decoded_outcome(error, out), trace)
            }
            Data::Wide(events) => {
                let (out, trace) = simulate_traced(l1, l2, events.iter().copied(), &strategies(l2));
                (Outcome::Runs(vec![out]), trace)
            }
            Data::Serve(events) => {
                let (out, trace) =
                    seta_serve::replay_traced(events, self.threads, &serve_spec(l1, l2));
                (Outcome::Load(Box::new(out)), trace)
            }
        }
    }

    /// Checks `first` (the untimed first pass) against a path that shares
    /// the least code with the timed one, adding any deterministic counts
    /// the check produces to `counts`.
    pub fn reference_checks(
        &self,
        first: &Outcome,
        counts: &mut Counts,
    ) -> Vec<(String, Result<(), String>)> {
        let (l1, l2) = self.workload.geometry();
        let runs = match first {
            Outcome::Runs(runs) => Some(runs.as_slice()),
            _ => None,
        };
        match &self.data {
            Data::Table4(specs) => {
                // Vary the checked spec with the seed to cover the grid.
                let i = (self.seed % specs.len() as u64) as usize;
                let spec = &specs[i];
                let seq = simulate(
                    spec.l1,
                    spec.l2,
                    AtumLike::new(spec.trace.clone(), spec.seed),
                    &standard_strategies(spec.l2.associativity(), spec.tag_bits),
                );
                let same = runs.and_then(|r| r.get(i)).map(|r| format!("{r:?}"))
                    == Some(format!("{seq:?}"));
                vec![(
                    format!("sharded spec {i} equals sequential simulate"),
                    ok_if(same, "the sharded sweep diverged from sequential simulate"),
                )]
            }
            Data::Din(_) => {
                let trace = self.workload.trace(self.quick);
                let seq = simulate(l1, l2, AtumLike::new(trace, self.seed), &strategies(l2));
                let same = runs.map(|r| format!("{r:?}")) == Some(format!("{:?}", [seq]));
                vec![(
                    "decoded replay equals simulate over the generated events".to_owned(),
                    ok_if(same, "decoding the Dinero text changed the simulation"),
                )]
            }
            Data::Serve(events) => {
                let spec = LoadSpec {
                    chunks: None,
                    ..serve_spec(l1, l2)
                };
                let one = seta_serve::replay(events, 1, &spec);
                let seq = simulate(
                    l1,
                    l2,
                    events.iter().copied(),
                    &[Box::new(Mru::full()) as Box<dyn LookupStrategy>],
                );
                counts.insert("single_client.read_in_hits".into(), one.read_in_hits);
                counts.insert("single_client.probes.mru".into(), one.probes);
                let same = one.conserves()
                    && one.l2_stats == seq.l2_stats
                    && one.l2_probes == seq.strategies[0].probes;
                vec![(
                    "one-client replay equals sequential simulate".to_owned(),
                    ok_if(same, "the one-client replay diverged from simulate"),
                )]
            }
            Data::Wide(_) => Vec::new(),
        }
    }

    /// Mean relative error of the simulated L1 miss ratios against the
    /// paper's Table 3, for the grid (which holds all three Table 3 L1s).
    pub fn l1_miss_rel_err(&self, first: &Outcome) -> Option<f64> {
        let (Data::Table4(specs), Outcome::Runs(runs)) = (&self.data, first) else {
            return None;
        };
        let table3 = table3_l1_miss_ratios();
        let mut sum = 0.0;
        for (preset, paper) in &table3 {
            let l1 = preset.l1().ok()?;
            let run = specs.iter().zip(runs).find(|(s, _)| s.l1 == l1)?.1;
            sum += (run.hierarchy.l1_miss_ratio() - paper).abs() / paper;
        }
        Some(sum / table3.len() as f64)
    }
}

/// The events of Dinero `text`; the first decode error ends the stream and
/// is left in `error`.
fn decode<'a>(
    text: &'a [u8],
    error: &'a mut Option<String>,
) -> impl Iterator<Item = TraceEvent> + 'a {
    DineroReader::new(text).map_while(move |r| r.map_err(|e| *error = Some(e.to_string())).ok())
}

/// A decoded replay's outcome: failed if decoding stopped early.
fn decoded_outcome(error: Option<String>, out: RunOutcome) -> Outcome {
    match error {
        Some(e) => Outcome::Failed(format!("Dinero decode failed: {e}")),
        None => Outcome::Runs(vec![out]),
    }
}

fn ok_if(ok: bool, reason: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(reason.to_owned())
    }
}
