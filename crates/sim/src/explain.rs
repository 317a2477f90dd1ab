//! The explain analysis pass: attributes every probe a run charges.
//!
//! [`explain`] produces the exact same [`RunOutcome`] as
//! [`simulate`](crate::runner::simulate) — it wraps the same
//! [`Scorer`](crate::runner) over the same hierarchy — while routing every
//! lookup through [`LookupStrategy::lookup_observed`] with a recorder
//! that attributes the probe count to its micro-events: serial tag
//! probes, wide group probes, MRU-list reads, partial-compare step-one
//! probes, and full-compare candidates (true or false matches). The
//! per-strategy totals feed an [`ExplainReport`] that:
//!
//! * reconciles the event totals against the run's `ProbeStats` — the
//!   books must balance exactly, split by read-in vs write-back;
//! * counts the requests on which a strategy's serial search and its
//!   closed-form [`price`](seta_core::StrategyKind::price) disagree — the
//!   pricer `simulate` books from, checked against its oracle on every
//!   request; the count must be 0;
//! * derives the measured MRU-distance distribution `fᵢ` and checks the
//!   MRU strategy's measured hit cost against the paper's
//!   `1 + Σ i·fᵢ` formula to 1e-9;
//! * reconciles partial-compare probes as
//!   `step-one probes + candidates` and false matches as
//!   `candidates − hits`, both exact integer identities;
//! * compares measured means against the closed-form model of
//!   [`seta_core::model`] and flags divergence (the model assumes
//!   uniformly distributed hit positions; real traces are skewed, which
//!   is exactly what the MRU scheme exploits);
//! * keeps bounded diagnostics: per-set heatmaps and a deterministic
//!   1-in-N sample of raw [`ProbeEvent`]s.
//!
//! The report renders as human-readable text ([`ExplainReport::render`])
//! or as a typed JSONL artifact ([`ExplainReport::write_jsonl`]).

use crate::runner::{assemble_outcome, partial_lane_spec, RunOutcome, Scorer};
use serde::{Deserialize, Serialize};
use seta_cache::{CacheConfig, L2Observer, L2RequestKind, L2RequestView, TwoLevel};
use seta_core::lookup::LookupStrategy;
use seta_core::{model, ProbeObserver};
use seta_obs::{EventRing, PositionHistogram, ProbeEvent, SetHeatmap};
use std::io::{self, Write};

/// Knobs for an explain pass. The defaults keep memory bounded at any
/// trace length.
#[derive(Debug, Clone)]
pub struct ExplainConfig {
    /// Sample one L2 request in this many into the raw-event ring.
    pub sample_every: u64,
    /// Raw events retained (oldest overwritten beyond this).
    pub ring_capacity: usize,
    /// Sets listed in the heatmap sections of the report.
    pub heatmap_top: usize,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig {
            sample_every: 1_000,
            ring_capacity: 256,
            heatmap_top: 8,
        }
    }
}

/// Where one strategy's probes went, for one request kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeBreakdown {
    /// Lookups performed.
    pub lookups: u64,
    /// Total probes those lookups cost.
    pub probes: u64,
    /// Serial single-tag probes.
    pub tag_probes: u64,
    /// Wide probes (whole set, or one bank group).
    pub group_probes: u64,
    /// MRU-list reads.
    pub list_reads: u64,
    /// Partial-compare step-one probes (one per subset examined).
    pub step_one_probes: u64,
    /// Stored tags that passed step one and were full-compared.
    pub candidates: u64,
    /// Candidates whose full compare failed.
    pub false_matches: u64,
}

impl ProbeBreakdown {
    fn absorb(&mut self, e: &LookupEvents) {
        self.lookups += 1;
        self.probes += e.probes() as u64;
        self.tag_probes += e.tag_probes as u64;
        self.group_probes += e.group_probes as u64;
        self.list_reads += e.list_reads as u64;
        self.step_one_probes += e.step_one_probes as u64;
        self.candidates += e.candidates as u64;
        self.false_matches += e.false_matches as u64;
    }
}

/// One strategy's full probe attribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyAttribution {
    /// The strategy's name.
    pub name: String,
    /// Events over read-in lookups (hits and misses).
    pub read_in: ProbeBreakdown,
    /// Events over write-back lookups (priced only on the
    /// no-write-back-optimization books).
    pub write_back: ProbeBreakdown,
}

/// How strictly a [`Check`] binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckClass {
    /// An accounting identity of the implementation; failure is a bug.
    Exact,
    /// A closed-form model prediction; divergence is informative (the
    /// model assumes uniform hit positions, traces are skewed).
    Model,
}

/// One cross-check of a measured quantity against an expected one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    /// What is being compared, e.g. `"mru/hit ≡ 1+Σ i·fᵢ"`.
    pub name: String,
    /// Identity or model prediction.
    pub class: CheckClass,
    /// The measured value.
    pub measured: f64,
    /// The expected value.
    pub expected: f64,
    /// Absolute tolerance for identities; relative for model checks.
    pub tolerance: f64,
    /// Whether measured is within tolerance of expected.
    pub passed: bool,
}

impl Check {
    fn exact(name: impl Into<String>, measured: f64, expected: f64, tolerance: f64) -> Self {
        let passed = (measured - expected).abs() <= tolerance;
        Check {
            name: name.into(),
            class: CheckClass::Exact,
            measured,
            expected,
            tolerance,
            passed,
        }
    }

    fn model(name: impl Into<String>, measured: f64, expected: f64, tolerance: f64) -> Self {
        let passed =
            (measured - expected).abs() <= tolerance * expected.abs().max(f64::MIN_POSITIVE);
        Check {
            name: name.into(),
            class: CheckClass::Model,
            measured,
            expected,
            tolerance,
            passed,
        }
    }
}

/// Sampling bookkeeping for the raw-event ring.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SampleInfo {
    /// Events offered (requests × strategies).
    pub seen: u64,
    /// Events that passed the 1-in-N filter.
    pub sampled: u64,
    /// Sampled events later evicted by newer ones.
    pub overwritten: u64,
    /// The sampling period N (by request sequence number).
    pub every: u64,
}

/// Everything the explain pass measures beyond the [`RunOutcome`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainReport {
    /// L2 associativity.
    pub assoc: u32,
    /// Per-strategy probe attribution.
    pub strategies: Vec<StrategyAttribution>,
    /// Measured MRU-distance distribution `fᵢ` (indexed from 0).
    pub mru_f: Vec<f64>,
    /// Read-in hits behind the distribution.
    pub mru_hits: u64,
    /// `1 + Σ (i+1)·f(i)` implied by the measured distribution.
    pub mru_expected_hit_probes: f64,
    /// The MRU strategy's measured mean hit probes, when present.
    pub mru_measured_hit_mean: Option<f64>,
    /// Identity and model cross-checks.
    pub checks: Vec<Check>,
    /// Most-accessed sets as `(set, accesses, misses)`.
    pub hottest_sets: Vec<(u64, u64, u64)>,
    /// Most-missed sets as `(set, accesses, misses)`.
    pub most_conflicted_sets: Vec<(u64, u64, u64)>,
    /// Distinct L2 sets touched.
    pub touched_sets: usize,
    /// Sampled raw events, oldest first.
    pub events: Vec<ProbeEvent>,
    /// Sampling bookkeeping.
    pub sampling: SampleInfo,
}

impl ExplainReport {
    /// All identity checks passed (model divergence does not count).
    pub fn identities_hold(&self) -> bool {
        self.checks
            .iter()
            .filter(|c| c.class == CheckClass::Exact)
            .all(|c| c.passed)
    }

    /// Model checks that diverge from measurement.
    pub fn model_divergences(&self) -> Vec<&Check> {
        self.checks
            .iter()
            .filter(|c| c.class == CheckClass::Model && !c.passed)
            .collect()
    }

    /// The attribution for a strategy by name.
    pub fn strategy(&self, name: &str) -> Option<&StrategyAttribution> {
        self.strategies.iter().find(|s| s.name == name)
    }

    /// Renders the report as human-readable text.
    pub fn render(&self, outcome: &RunOutcome) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "explain: {} / {}", outcome.l1_label, outcome.l2_label);
        let _ = writeln!(
            s,
            "  {} refs, {} read-ins ({} hits), {} write-backs",
            outcome.hierarchy.processor_refs,
            outcome.hierarchy.read_ins,
            outcome.hierarchy.read_in_hits,
            outcome.hierarchy.write_backs
        );
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "probe attribution (read-ins; write-backs priced on the no-opt books):"
        );
        let _ = writeln!(
            s,
            "  {:<22} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "strategy", "lookups", "probes", "tag", "group", "list", "step1", "cand", "false"
        );
        for a in &self.strategies {
            let r = &a.read_in;
            let _ = writeln!(
                s,
                "  {:<22} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
                a.name,
                r.lookups,
                r.probes,
                r.tag_probes,
                r.group_probes,
                r.list_reads,
                r.step_one_probes,
                r.candidates,
                r.false_matches
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "measured MRU-distance distribution ({} hits):",
            self.mru_hits
        );
        for (i, f) in self.mru_f.iter().enumerate() {
            let bar = "#".repeat((f * 40.0).round() as usize);
            let _ = writeln!(s, "  f[{i}] = {f:.4} {bar}");
        }
        let _ = writeln!(
            s,
            "  1 + Σ (i+1)·fᵢ = {:.6}{}",
            self.mru_expected_hit_probes,
            match self.mru_measured_hit_mean {
                Some(m) => format!("; measured mru hit mean = {m:.6}"),
                None => String::new(),
            }
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "checks:");
        for c in &self.checks {
            let mark = if c.passed { "ok " } else { "FAIL" };
            let class = match c.class {
                CheckClass::Exact => "exact",
                CheckClass::Model => "model",
            };
            let _ = writeln!(
                s,
                "  [{mark}] {class:<5} {:<42} measured {:.6} vs expected {:.6}",
                c.name, c.measured, c.expected
            );
        }
        let diverged = self.model_divergences().len();
        if diverged > 0 {
            let _ = writeln!(
                s,
                "  note: {diverged} model check(s) diverge — the closed-form model assumes"
            );
            let _ = writeln!(
                s,
                "  uniform hit positions; skew toward the MRU end is the paper's point."
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "hottest sets ({} touched):", self.touched_sets);
        for (set, acc, miss) in &self.hottest_sets {
            let _ = writeln!(s, "  set {set:>6}: {acc} accesses, {miss} misses");
        }
        let _ = writeln!(s, "most conflicted sets:");
        for (set, acc, miss) in &self.most_conflicted_sets {
            let _ = writeln!(s, "  set {set:>6}: {miss} misses of {acc} accesses");
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "raw events: {} kept of {} sampled (1 request in {}; {} offered)",
            self.events.len(),
            self.sampling.sampled,
            self.sampling.every,
            self.sampling.seen
        );
        s
    }

    /// Writes the report as typed JSON lines: one `summary` line, one
    /// `strategy` line per strategy, one `mru_distribution` line, one
    /// `check` line per check, `heatmap_set` lines, and one `event` line
    /// per sampled raw event.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_jsonl<W: Write>(&self, outcome: &RunOutcome, out: &mut W) -> io::Result<()> {
        let line = serde_json::json!({
            "type": "summary",
            "l1": outcome.l1_label,
            "l2": outcome.l2_label,
            "assoc": self.assoc,
            "refs": outcome.hierarchy.processor_refs,
            "read_ins": outcome.hierarchy.read_ins,
            "read_in_hits": outcome.hierarchy.read_in_hits,
            "write_backs": outcome.hierarchy.write_backs,
            "touched_sets": self.touched_sets,
            "identities_hold": self.identities_hold(),
            "model_divergences": self.model_divergences().len(),
            "sampling": self.sampling,
        });
        writeln!(
            out,
            "{}",
            serde_json::to_string(&line).expect("report serializes")
        )?;
        for (a, r) in self.strategies.iter().zip(&outcome.strategies) {
            let line = serde_json::json!({
                "type": "strategy",
                "name": a.name,
                "read_in": a.read_in,
                "write_back": a.write_back,
                "hit_mean": r.probes.hit_mean(),
                "miss_mean": r.probes.miss_mean(),
                "total_mean": r.probes.total_mean(),
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("report serializes")
            )?;
        }
        let line = serde_json::json!({
            "type": "mru_distribution",
            "hits": self.mru_hits,
            "f": self.mru_f,
            "expected_hit_probes": self.mru_expected_hit_probes,
            "measured_hit_mean": self.mru_measured_hit_mean,
        });
        writeln!(
            out,
            "{}",
            serde_json::to_string(&line).expect("report serializes")
        )?;
        for c in &self.checks {
            let line = serde_json::json!({"type": "check", "check": c});
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("report serializes")
            )?;
        }
        for (rank, (set, accesses, misses)) in self.hottest_sets.iter().enumerate() {
            let line = serde_json::json!({
                "type": "heatmap_set",
                "rank_by": "accesses",
                "rank": rank,
                "set": set,
                "accesses": accesses,
                "misses": misses,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("report serializes")
            )?;
        }
        for (rank, (set, accesses, misses)) in self.most_conflicted_sets.iter().enumerate() {
            let line = serde_json::json!({
                "type": "heatmap_set",
                "rank_by": "misses",
                "rank": rank,
                "set": set,
                "accesses": accesses,
                "misses": misses,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("report serializes")
            )?;
        }
        for e in &self.events {
            let line = serde_json::json!({"type": "event", "event": e});
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("report serializes")
            )?;
        }
        Ok(())
    }
}

/// Per-lookup event counts, reset before each search.
#[derive(Debug, Clone, Copy, Default)]
struct LookupEvents {
    tag_probes: u32,
    group_probes: u32,
    list_reads: u32,
    step_one_probes: u32,
    candidates: u32,
    false_matches: u32,
}

impl LookupEvents {
    /// Probes implied by the events; must equal the lookup's probe count.
    fn probes(&self) -> u32 {
        self.tag_probes
            + self.group_probes
            + self.list_reads
            + self.step_one_probes
            + self.candidates
    }
}

/// The [`ProbeObserver`] behind the explain pass: one per strategy.
#[derive(Debug, Default)]
struct ProbeRecorder {
    current: LookupEvents,
}

impl ProbeObserver for ProbeRecorder {
    fn tag_probe(&mut self, _way: u8) {
        self.current.tag_probes += 1;
    }
    fn group_probe(&mut self, _group: u32, _ways: u8) {
        self.current.group_probes += 1;
    }
    fn mru_list_read(&mut self) {
        self.current.list_reads += 1;
    }
    fn partial_probe(&mut self, _subset: u32) {
        self.current.step_one_probes += 1;
    }
    fn partial_candidate(&mut self, _way: u8, matched: bool) {
        self.current.candidates += 1;
        if !matched {
            self.current.false_matches += 1;
        }
    }
}

/// The instrumented observer: the plain [`Scorer`] plus event recording.
struct Explainer<'a> {
    scorer: Scorer<'a>,
    recorders: Vec<ProbeRecorder>,
    /// Per-strategy (read-in, write-back) event totals.
    totals: Vec<(ProbeBreakdown, ProbeBreakdown)>,
    /// Per-strategy requests on which the serial lookup and
    /// [`StrategyKind::price`](seta_core::StrategyKind::price) disagree
    /// on the probe count. Always 0 for a strategy outside `seta-core`,
    /// which has no closed form.
    price_mismatches: Vec<u64>,
    ring: EventRing,
    heatmap: SetHeatmap,
    positions: PositionHistogram,
    seq: u64,
}

impl<'a> Explainer<'a> {
    fn new(strategies: &'a [Box<dyn LookupStrategy>], assoc: u32, cfg: &ExplainConfig) -> Self {
        Explainer {
            scorer: Scorer::new(strategies, assoc),
            recorders: strategies
                .iter()
                .map(|_| ProbeRecorder::default())
                .collect(),
            totals: vec![Default::default(); strategies.len()],
            price_mismatches: vec![0; strategies.len()],
            ring: EventRing::new(cfg.ring_capacity, cfg.sample_every),
            heatmap: SetHeatmap::new(),
            positions: PositionHistogram::new(),
            seq: 0,
        }
    }
}

impl L2Observer for Explainer<'_> {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        // Destructure so the scoring closure borrows the recorders, totals
        // and ring disjointly from the scorer.
        let Explainer {
            scorer,
            recorders,
            totals,
            price_mismatches,
            ring,
            heatmap,
            positions,
            seq,
        } = self;
        heatmap.record(req.set, req.hit);
        if req.kind == L2RequestKind::ReadIn && req.hit {
            if let Some(d) = req.mru_distance {
                positions.record(d);
            }
        }
        let request_seq = *seq;
        *seq += 1;
        let set = req.priced();
        let view = set.view();
        scorer.score_with(req, |i, kind, strategy| {
            let rec = &mut recorders[i];
            rec.current = LookupEvents::default();
            let lookup = match kind {
                Some(k) => k.lookup_observed(&view, req.tag, rec),
                None => strategy.lookup_observed(&view, req.tag, rec),
            };
            debug_assert_eq!(
                lookup.hit_way,
                req.hit_way,
                "{} disagrees with the cache on {:?}",
                strategy.name(),
                req.addr
            );
            debug_assert_eq!(
                rec.current.probes(),
                lookup.probes,
                "{} events do not account for its probes",
                strategy.name()
            );
            // The serial search is the pricer's differential oracle.
            if kind.is_some_and(|k| k.price(&set) != lookup.probes) {
                price_mismatches[i] += 1;
            }
            let (read_in, write_back) = &mut totals[i];
            match req.kind {
                L2RequestKind::ReadIn => read_in.absorb(&rec.current),
                L2RequestKind::WriteBack => write_back.absorb(&rec.current),
            }
            // Sampling is by request: a sampled request keeps every
            // strategy's event, so samples stay comparable across
            // strategies.
            ring.offer(request_seq, || ProbeEvent {
                seq: request_seq,
                strategy: i as u32,
                set: req.set,
                write_back: req.kind == L2RequestKind::WriteBack,
                hit: lookup.is_hit(),
                probes: lookup.probes,
                mru_distance: req.mru_distance.map(|d| d as u32),
                candidates: rec.current.candidates,
                false_matches: rec.current.false_matches,
            });
            lookup.probes
        });
    }
}

/// `t` and `s` from a `partial[t=…,s=…,…]` strategy name.
fn parse_partial(name: &str) -> Option<(u32, u32)> {
    let inner = name.strip_prefix("partial[")?.strip_suffix(']')?;
    let mut t = None;
    let mut s = None;
    for part in inner.split(',') {
        if let Some(v) = part.strip_prefix("t=") {
            t = v.parse().ok();
        } else if let Some(v) = part.strip_prefix("s=") {
            s = v.parse().ok();
        }
    }
    Some((t?, s?))
}

/// Relative tolerance for model checks: the closed-form model assumes
/// uniformly distributed hit positions, so measured means routinely land
/// well away from it — that divergence is the signal, not an error.
const MODEL_TOLERANCE: f64 = 0.05;

/// `price_mismatches[i]` is `None` for a strategy with no closed form (one
/// defined outside `seta-core`).
fn build_checks(
    outcome: &RunOutcome,
    report_strategies: &[StrategyAttribution],
    price_mismatches: &[Option<u64>],
    positions: &PositionHistogram,
) -> Vec<Check> {
    let a = outcome.assoc;
    let mut checks = Vec::new();

    let rows = report_strategies
        .iter()
        .zip(&outcome.strategies)
        .zip(price_mismatches);
    for ((attr, result), &mismatches) in rows {
        let name = &attr.name;
        if let Some(mismatches) = mismatches {
            checks.push(Check::exact(
                format!("{name}/price ≡ serial lookup: mismatched requests"),
                mismatches as f64,
                0.0,
                0.0,
            ));
        }
        let p = &result.probes;
        let read_in_lookups = p.hits.count + p.misses.count;
        let read_in_probes = p.hits.probes + p.misses.probes;
        checks.push(Check::exact(
            format!("{name}/events: read-in lookups"),
            attr.read_in.lookups as f64,
            read_in_lookups as f64,
            0.0,
        ));
        checks.push(Check::exact(
            format!("{name}/events: read-in probes"),
            attr.read_in.probes as f64,
            read_in_probes as f64,
            0.0,
        ));
        checks.push(Check::exact(
            format!("{name}/events: write-back lookups"),
            attr.write_back.lookups as f64,
            result.probes_no_opt.write_backs.count as f64,
            0.0,
        ));
        checks.push(Check::exact(
            format!("{name}/events: write-back probes"),
            attr.write_back.probes as f64,
            result.probes_no_opt.write_backs.probes as f64,
            0.0,
        ));

        if name == "traditional" {
            checks.push(Check::exact(
                "traditional/one probe per lookup",
                attr.read_in.probes as f64,
                attr.read_in.lookups as f64,
                0.0,
            ));
        }
        if a > 1 && name == "naive" {
            if p.misses.count > 0 {
                checks.push(Check::exact(
                    "naive/miss = a",
                    p.miss_mean(),
                    model::naive_miss(a),
                    1e-9,
                ));
            }
            if p.hits.count > 0 {
                checks.push(Check::model(
                    "naive/hit vs (a−1)/2+1",
                    p.hit_mean(),
                    model::naive_hit(a),
                    MODEL_TOLERANCE,
                ));
            }
        }
        if a > 1 && name == "mru" {
            if positions.total() > 0 {
                checks.push(Check::exact(
                    "mru/hit ≡ 1+Σ i·fᵢ",
                    p.hit_mean(),
                    positions.expected_scan_probes(),
                    1e-9,
                ));
            }
            if p.misses.count > 0 {
                checks.push(Check::exact(
                    "mru/miss = a+1",
                    p.miss_mean(),
                    model::mru_miss(a),
                    1e-9,
                ));
            }
            checks.push(Check::exact(
                "mru/one list read per lookup",
                attr.read_in.list_reads as f64,
                attr.read_in.lookups as f64,
                0.0,
            ));
        }
        if a > 1 {
            if let Some((t, s)) = parse_partial(name) {
                checks.push(Check::exact(
                    format!("{name}/probes = step-one + candidates"),
                    attr.read_in.probes as f64,
                    (attr.read_in.step_one_probes + attr.read_in.candidates) as f64,
                    0.0,
                ));
                checks.push(Check::exact(
                    format!("{name}/false matches = candidates − hits"),
                    attr.read_in.false_matches as f64,
                    (attr.read_in.candidates - p.hits.count) as f64,
                    0.0,
                ));
                if a % s == 0 && t / (a / s) >= 1 {
                    let k = model::partial_k(t, a, s);
                    if p.hits.count > 0 {
                        checks.push(Check::model(
                            format!("{name}/hit vs model(k={k})"),
                            p.hit_mean(),
                            model::partial_hit(a, k, s),
                            MODEL_TOLERANCE,
                        ));
                    }
                    if p.misses.count > 0 {
                        checks.push(Check::model(
                            format!("{name}/miss vs s+a/2^k"),
                            p.miss_mean(),
                            model::partial_miss(a, k, s),
                            MODEL_TOLERANCE,
                        ));
                    }
                }
            }
        }
    }

    // The obs-side position histogram and the core-side MRU histogram are
    // fed from the same requests; their implied scan costs must agree.
    if positions.total() > 0 {
        checks.push(Check::exact(
            "positions ≡ core mru histogram",
            positions.expected_scan_probes(),
            outcome.mru_hist.expected_hit_probes(),
            1e-9,
        ));
    }
    checks.push(Check::exact(
        "positions/total = read-in hits",
        positions.total() as f64,
        outcome.hierarchy.read_in_hits as f64,
        0.0,
    ));
    checks
}

/// Runs one fully-instrumented simulation: drives `events` through a
/// fresh two-level hierarchy exactly like
/// [`simulate`](crate::runner::simulate) — the returned [`RunOutcome`] is
/// bit-identical — and attributes every probe to its micro-events.
pub fn explain<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    events: I,
    strategies: &[Box<dyn LookupStrategy>],
    cfg: &ExplainConfig,
) -> (RunOutcome, ExplainReport)
where
    I: IntoIterator<Item = TraceEvent>,
{
    let mut hierarchy = TwoLevel::new(l1, l2).expect("L1 blocks must fit in L2 blocks");
    // The same lanes `simulate` keeps, so the pricer's lane path is the one
    // reconciled against the serial searches.
    if let Some(spec) = partial_lane_spec(strategies, l2.associativity()) {
        hierarchy.enable_partial_lanes(spec);
    }
    let mut explainer = Explainer::new(strategies, l2.associativity(), cfg);
    hierarchy.run(events, &mut explainer);
    let Explainer {
        scorer,
        totals,
        price_mismatches,
        ring,
        heatmap,
        positions,
        ..
    } = explainer;
    let outcome = assemble_outcome(&hierarchy, scorer, strategies);

    let attributions: Vec<StrategyAttribution> = strategies
        .iter()
        .zip(totals)
        .map(|(s, (read_in, write_back))| StrategyAttribution {
            name: s.name(),
            read_in,
            write_back,
        })
        .collect();
    let price_mismatches: Vec<Option<u64>> = strategies
        .iter()
        .zip(price_mismatches)
        .map(|(s, n)| s.kind().map(|_| n))
        .collect();
    let checks = build_checks(&outcome, &attributions, &price_mismatches, &positions);
    let report = ExplainReport {
        assoc: outcome.assoc,
        mru_f: positions.distribution(),
        mru_hits: positions.total(),
        mru_expected_hit_probes: positions.expected_scan_probes(),
        mru_measured_hit_mean: outcome
            .strategy("mru")
            .filter(|s| s.probes.hits.count > 0)
            .map(|s| s.probes.hit_mean()),
        strategies: attributions,
        checks,
        hottest_sets: heatmap.hottest(cfg.heatmap_top),
        most_conflicted_sets: heatmap.most_conflicted(cfg.heatmap_top),
        touched_sets: heatmap.touched_sets(),
        events: ring.events().copied().collect(),
        sampling: SampleInfo {
            seen: ring.seen(),
            sampled: ring.sampled(),
            overwritten: ring.overwritten(),
            every: ring.sample_every(),
        },
    };
    (outcome, report)
}

use seta_trace::TraceEvent;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate, standard_strategies};
    use seta_trace::gen::{AtumLike, AtumLikeConfig};

    fn small_trace(refs: u64, seed: u64) -> AtumLike {
        let mut cfg = AtumLikeConfig::paper_like();
        cfg.segments = 2;
        cfg.refs_per_segment = refs;
        AtumLike::new(cfg, seed)
    }

    fn geometries() -> (CacheConfig, CacheConfig) {
        (
            CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
            CacheConfig::new(32 * 1024, 32, 4).unwrap(),
        )
    }

    fn run_explain(assoc: u32, refs: u64, seed: u64) -> (RunOutcome, ExplainReport) {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, assoc).unwrap();
        explain(
            l1,
            l2,
            small_trace(refs, seed),
            &standard_strategies(assoc, 16),
            &ExplainConfig::default(),
        )
    }

    #[test]
    fn outcome_is_bit_identical_to_plain_simulate() {
        let (l1, l2) = geometries();
        let strategies = standard_strategies(4, 16);
        let plain = simulate(l1, l2, small_trace(10_000, 21), &strategies);
        let (explained, _) = explain(
            l1,
            l2,
            small_trace(10_000, 21),
            &strategies,
            &ExplainConfig::default(),
        );
        assert_eq!(explained.hierarchy, plain.hierarchy);
        assert_eq!(explained.mru_hist, plain.mru_hist);
        assert_eq!(explained.mru_update_fraction, plain.mru_update_fraction);
        for (a, b) in explained.strategies.iter().zip(&plain.strategies) {
            assert_eq!(a.probes, b.probes, "{}", a.name);
            assert_eq!(a.probes_no_opt, b.probes_no_opt, "{}", a.name);
        }
    }

    #[test]
    fn all_identities_hold_across_associativities() {
        for assoc in [1u32, 2, 4, 8] {
            let (_, report) = run_explain(assoc, 8_000, 5);
            for c in report
                .checks
                .iter()
                .filter(|c| c.class == CheckClass::Exact)
            {
                assert!(
                    c.passed,
                    "a={assoc}: {} measured {} expected {}",
                    c.name, c.measured, c.expected
                );
            }
        }
    }

    /// A strategy defined outside `seta-core`: naive's search, without a
    /// closed-enum form.
    struct External;

    impl LookupStrategy for External {
        fn lookup(&self, view: &seta_core::SetView, tag: u64) -> seta_core::Lookup {
            seta_core::lookup::Naive.lookup(view, tag)
        }

        fn lookup_observed(
            &self,
            view: &seta_core::SetView,
            tag: u64,
            obs: &mut dyn ProbeObserver,
        ) -> seta_core::Lookup {
            seta_core::lookup::Naive.lookup_observed(view, tag, obs)
        }

        fn name(&self) -> String {
            "external".into()
        }
    }

    #[test]
    fn every_built_in_price_is_reconciled_with_its_serial_lookup() {
        use seta_core::lookup::{Banked, Mru, ScanOrder};
        let (l1, _) = geometries();
        let l2 = CacheConfig::new(32 * 1024, 32, 8).unwrap();
        let mut strategies = standard_strategies(8, 16);
        strategies.push(Box::new(Mru::truncated(3)));
        strategies.push(Box::new(Banked::new(2, ScanOrder::Mru)));
        strategies.push(Box::new(External));
        let (outcome, report) = explain(
            l1,
            l2,
            small_trace(8_000, 29),
            &strategies,
            &ExplainConfig::default(),
        );
        for s in &strategies {
            let check = report.checks.iter().find(|c| {
                c.name == format!("{}/price ≡ serial lookup: mismatched requests", s.name())
            });
            match s.kind() {
                Some(_) => {
                    let check = check.expect("a built-in is reconciled");
                    assert!(check.passed && check.measured == 0.0, "{check:?}");
                }
                None => assert!(check.is_none(), "{} has no closed form", s.name()),
            }
        }
        // The external strategy is priced by its own lookup, naive's.
        assert_eq!(
            outcome.strategy("external").unwrap().probes,
            outcome.strategy("naive").unwrap().probes
        );
        assert!(report.identities_hold());
    }

    #[test]
    fn mru_identity_is_tight() {
        let (outcome, report) = run_explain(4, 12_000, 9);
        let mru = outcome.strategy("mru").unwrap();
        assert!(
            (mru.probes.hit_mean() - report.mru_expected_hit_probes).abs() < 1e-9,
            "measured {} vs 1+Σ i·fᵢ {}",
            mru.probes.hit_mean(),
            report.mru_expected_hit_probes
        );
        let f_sum: f64 = report.mru_f.iter().sum();
        assert!((f_sum - 1.0).abs() < 1e-9, "fᵢ sum to {f_sum}");
    }

    #[test]
    fn partial_books_balance_exactly() {
        let (outcome, report) = run_explain(8, 8_000, 13);
        let (attr, result) = report
            .strategies
            .iter()
            .zip(&outcome.strategies)
            .find(|(a, _)| a.name.starts_with("partial["))
            .unwrap();
        assert_eq!(
            attr.read_in.probes,
            attr.read_in.step_one_probes + attr.read_in.candidates
        );
        assert_eq!(
            attr.read_in.false_matches,
            attr.read_in.candidates - result.probes.hits.count
        );
        assert_eq!(
            attr.read_in.probes,
            result.probes.hits.probes + result.probes.misses.probes
        );
    }

    #[test]
    fn event_totals_reconcile_with_probe_stats() {
        let (outcome, report) = run_explain(4, 8_000, 3);
        for (attr, result) in report.strategies.iter().zip(&outcome.strategies) {
            assert_eq!(
                attr.read_in.lookups,
                result.probes.hits.count + result.probes.misses.count,
                "{}",
                attr.name
            );
            assert_eq!(
                attr.read_in.probes,
                result.probes.hits.probes + result.probes.misses.probes,
                "{}",
                attr.name
            );
            assert_eq!(
                attr.write_back.probes, result.probes_no_opt.write_backs.probes,
                "{}",
                attr.name
            );
        }
    }

    #[test]
    fn sampled_events_are_deterministic_and_bounded() {
        let (_, a) = run_explain(4, 6_000, 17);
        let (_, b) = run_explain(4, 6_000, 17);
        assert_eq!(a.events, b.events);
        assert!(a.events.len() <= ExplainConfig::default().ring_capacity);
        assert!(a.sampling.seen > 0);
        // A sampled request keeps one event per strategy.
        for e in &a.events {
            assert_eq!(e.seq % a.sampling.every, 0);
        }
    }

    #[test]
    fn heatmap_covers_every_l2_request() {
        let (outcome, report) = run_explain(4, 8_000, 7);
        let total: u64 = report.hottest_sets.iter().map(|(_, a, _)| a).sum();
        let requests = outcome.hierarchy.read_ins + outcome.hierarchy.write_backs;
        assert!(total <= requests);
        assert!(report.touched_sets > 0);
        assert!(!report.hottest_sets.is_empty());
    }

    #[test]
    fn render_mentions_checks_and_distribution() {
        let (outcome, report) = run_explain(4, 6_000, 1);
        let text = report.render(&outcome);
        assert!(text.contains("probe attribution"));
        assert!(text.contains("1 + Σ (i+1)·fᵢ"));
        assert!(text.contains("checks:"));
        assert!(text.contains("mru/hit"));
    }

    #[test]
    fn jsonl_lines_are_typed_and_parseable() {
        let (outcome, report) = run_explain(4, 6_000, 1);
        let mut buf = Vec::new();
        report.write_jsonl(&outcome, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut kinds = std::collections::BTreeMap::new();
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            *kinds
                .entry(v["type"].as_str().unwrap().to_owned())
                .or_insert(0u32) += 1;
        }
        assert_eq!(kinds["summary"], 1);
        assert_eq!(kinds["mru_distribution"], 1);
        assert_eq!(kinds["strategy"], outcome.strategies.len() as u32);
        assert!(kinds["check"] > 0);
        assert!(kinds.contains_key("event"));
    }

    #[test]
    fn partial_name_parses() {
        assert_eq!(parse_partial("partial[t=16,s=2,xor]"), Some((16, 2)));
        assert_eq!(parse_partial("mru"), None);
        assert_eq!(parse_partial("partial[t=x,s=2,xor]"), None);
    }
}
