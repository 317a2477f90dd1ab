//! HTML report sections for the simulator's typed artifacts: the explain
//! attribution report, the sweep utilization report, and sweep outcome
//! summaries.
//!
//! These are the `seta-sim` counterparts of
//! [`seta_obs::report::sections`]: each builder turns one artifact into a
//! [`Section`] for a self-contained report page. The plain-text renderers
//! ([`ExplainReport::render`], [`SweepReport::render`]) stay the CLI
//! default; these builders exist for `--report-html`-style flags.
//! (`crate::report` is the existing plain-text table module — this one is
//! named `report_html` to keep the two formats apart.)

use crate::explain::{CheckClass, ExplainReport};
use crate::runner::RunOutcome;
use crate::sweep_report::SweepReport;
use seta_obs::report::svg::{
    log2_histogram_chart, BarChart, HeatCell, HeatGrid, LineChart, Series,
};
use seta_obs::report::{Cell, HtmlTable, Section};

/// The explain section: outcome summary, per-strategy probe attribution,
/// the MRU stack-distance distribution, model cross-checks with
/// pass/fail coloring, and set heatmap grids.
pub fn explain_section(
    outcome: &RunOutcome,
    report: &ExplainReport,
    artifact: Option<&str>,
) -> Section {
    let mut s = Section::new("explain", "Explain: probe attribution");
    s.kv(&[
        (
            "hierarchy",
            format!("{} over {}", outcome.l1_label, outcome.l2_label),
        ),
        ("L2 associativity", report.assoc.to_string()),
        (
            "processor refs",
            outcome.hierarchy.processor_refs.to_string(),
        ),
        ("read-ins", outcome.hierarchy.read_ins.to_string()),
        (
            "L2 local miss ratio",
            format!("{:.4}", outcome.hierarchy.local_miss_ratio()),
        ),
        ("touched sets", report.touched_sets.to_string()),
        (
            "exact identities",
            if report.identities_hold() {
                "all hold".to_owned()
            } else {
                "VIOLATED".to_owned()
            },
        ),
    ]);

    // Per-strategy attribution: where every probe goes.
    let mut table = HtmlTable::new(&[
        "strategy",
        "read-in lookups",
        "read-in probes",
        "probes/lookup",
        "tag probes",
        "false matches",
        "write-back probes",
    ]);
    let mut probes_chart = BarChart::new("Read-in probes per lookup, by strategy", "");
    for a in &report.strategies {
        let per_lookup = if a.read_in.lookups == 0 {
            0.0
        } else {
            a.read_in.probes as f64 / a.read_in.lookups as f64
        };
        table.row(vec![
            Cell::text(a.name.clone()),
            Cell::int(a.read_in.lookups),
            Cell::int(a.read_in.probes),
            Cell::num(per_lookup),
            Cell::int(a.read_in.tag_probes),
            Cell::int(a.read_in.false_matches),
            Cell::int(a.write_back.probes),
        ]);
        probes_chart.bar(a.name.clone(), per_lookup);
    }
    s.table(&table);
    s.push_html(&probes_chart.svg());

    // Figure 5's f_i: the MRU stack-distance distribution.
    if !report.mru_f.is_empty() {
        let mut f_chart = BarChart::new("MRU stack-distance distribution f(i)", "");
        for (i, &f) in report.mru_f.iter().enumerate() {
            f_chart.bar(format!("position {i}"), f);
        }
        s.push_html(&f_chart.svg());
        s.para(&format!(
            "expected MRU hit probes {:.4}, measured {}",
            report.mru_expected_hit_probes,
            report
                .mru_measured_hit_mean
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".to_owned())
        ));
    }

    // Cross-checks: exact identities and closed-form model comparisons.
    let mut checks = HtmlTable::new(&[
        "check",
        "class",
        "measured",
        "expected",
        "tolerance",
        "result",
    ]);
    for c in &report.checks {
        let class = match c.class {
            CheckClass::Exact => "exact",
            CheckClass::Model => "model",
        };
        checks.row(vec![
            Cell::text(c.name.clone()),
            Cell::text(class),
            Cell::num(c.measured),
            Cell::num(c.expected),
            Cell::num(c.tolerance),
            if c.passed {
                Cell::classed("pass", "good")
            } else {
                Cell::classed("FAIL", "bad")
            },
        ]);
    }
    if !checks.is_empty() {
        s.heading("Cross-checks");
        s.table(&checks);
    }

    // Set heatmaps: the hottest and most conflicted sets.
    for (title, sets) in [
        ("Hottest sets (by accesses)", &report.hottest_sets),
        (
            "Most conflicted sets (by misses)",
            &report.most_conflicted_sets,
        ),
    ] {
        if sets.is_empty() {
            continue;
        }
        let mut grid = HeatGrid::new(title);
        for &(set, accesses, misses) in sets {
            grid.cells.push(HeatCell {
                label: format!("set {set}"),
                value: if title.contains("conflicted") {
                    misses as f64
                } else {
                    accesses as f64
                },
                detail: format!("set {set}: {accesses} accesses, {misses} misses"),
            });
        }
        s.push_html(&grid.svg());
    }
    s.para(&format!(
        "sampling: {} events seen, {} sampled (1 in {})",
        report.sampling.seen, report.sampling.sampled, report.sampling.every
    ));
    if let Some(path) = artifact {
        s.artifact("explain JSONL report", path);
    }
    s
}

/// The sweep utilization section: per-worker busy fractions, shard size
/// and wall-time histograms, and the critical-path shard.
pub fn sweep_section(report: &SweepReport, artifact: Option<&str>) -> Section {
    let mut s = Section::new("sweep", "Sweep worker utilization");
    let mut rows: Vec<(&str, String)> = vec![
        ("wall time", format!("{} us", report.wall_micros)),
        ("merge time", format!("{} us", report.merge_micros)),
        (
            "queue wait (total)",
            format!("{} us", report.queue_wait_micros),
        ),
        ("load balance", format!("{:.3}", report.load_balance)),
    ];
    let critical = report
        .critical_shard
        .as_ref()
        .map(|(name, us)| format!("{name} ({us} us)"));
    if let Some(c) = &critical {
        rows.push(("critical shard", c.clone()));
    }
    s.kv(&rows);

    if !report.workers.is_empty() {
        let mut busy = BarChart::new("Busy fraction per worker", "");
        let mut table = HtmlTable::new(&[
            "worker",
            "shards",
            "busy us",
            "queue wait us",
            "wall us",
            "busy fraction",
        ]);
        for w in &report.workers {
            busy.bar(format!("worker {}", w.track), w.busy_fraction);
            table.row(vec![
                Cell::int(u64::from(w.track)),
                Cell::int(w.shards),
                Cell::int(w.busy_micros),
                Cell::int(w.queue_wait_micros),
                Cell::int(w.wall_micros),
                Cell::num(w.busy_fraction),
            ]);
        }
        s.push_html(&busy.svg());
        s.table(&table);
    }
    if report.shard_refs.count > 0 {
        s.push_html(&log2_histogram_chart(
            "Shard sizes",
            "refs",
            &report.shard_refs,
        ));
    }
    if report.shard_wall_micros.count > 0 {
        s.push_html(&log2_histogram_chart(
            "Shard wall times",
            "us",
            &report.shard_wall_micros,
        ));
    }
    if let Some(path) = artifact {
        s.artifact("span trace", path);
    }
    s
}

/// The sweep outcomes section: L2 local miss ratio and per-strategy
/// probe cost as the associativity sweeps (the report-page form of the
/// paper's Figure 3 axes).
pub fn sweep_outcomes_section(outcomes: &[RunOutcome]) -> Section {
    let mut s = Section::new("outcomes", "Sweep outcomes");
    if outcomes.is_empty() {
        s.note("no outcomes");
        return s;
    }
    s.para(&format!(
        "{} configurations of {} over {}",
        outcomes.len(),
        outcomes[0].l1_label,
        outcomes[0].l2_label
    ));
    let mut miss = LineChart::new(
        "L2 local miss ratio vs associativity",
        "associativity",
        "local miss ratio",
    );
    miss.y_zero = true;
    miss.series.push(Series::new(
        "local miss ratio",
        outcomes
            .iter()
            .map(|o| (f64::from(o.assoc), o.hierarchy.local_miss_ratio()))
            .collect(),
    ));
    s.push_html(&miss.svg());

    // One probe-cost series per strategy across the sweep. Strategy sets
    // can differ between configs, so collect the union (sorted for
    // determinism) and let missing points drop out.
    let mut names: Vec<&str> = outcomes
        .iter()
        .flat_map(|o| o.strategies.iter().map(|st| st.name.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut probes = LineChart::new(
        "Mean probes per read-in vs associativity",
        "associativity",
        "probes/read-in",
    );
    probes.y_zero = true;
    for name in names {
        probes.series.push(Series::new(
            name,
            outcomes
                .iter()
                .filter_map(|o| {
                    o.strategy(name)
                        .map(|st| (f64::from(o.assoc), st.probes.read_in_mean()))
                })
                .collect(),
        ));
    }
    s.push_html(&probes.svg());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{explain, ExplainConfig};
    use crate::runner::{simulate_many_traced_with_threads, standard_strategies, RunSpec};
    use crate::sweep_report::SweepReport;
    use seta_cache::CacheConfig;
    use seta_obs::report::{validate_self_contained, HtmlPage};
    use seta_trace::gen::{AtumLike, AtumLikeConfig};

    fn tiny_cfg() -> AtumLikeConfig {
        let mut cfg = AtumLikeConfig::paper_like();
        cfg.segments = 2;
        cfg.refs_per_segment = 2_000;
        cfg
    }

    fn page_with(section: Section) -> String {
        let mut page = HtmlPage::new("t");
        page.push(section);
        page.render()
    }

    #[test]
    fn explain_section_is_self_contained_and_complete() {
        let l1 = CacheConfig::direct_mapped(1024, 16).expect("l1");
        let l2 = CacheConfig::new(4 * 1024, 32, 4).expect("l2");
        let (outcome, report) = explain(
            l1,
            l2,
            AtumLike::new(tiny_cfg(), 7),
            &standard_strategies(4, 16),
            &ExplainConfig::default(),
        );
        let html = page_with(explain_section(&outcome, &report, Some("explain.jsonl")));
        assert!(html.contains("probe attribution"));
        assert!(html.contains("mru"), "strategy rows present");
        assert!(html.contains("Cross-checks"));
        assert!(html.contains("explain.jsonl"), "artifact deep link");
        validate_self_contained(&html).expect("well-formed");
    }

    #[test]
    fn sweep_sections_are_self_contained() {
        let l1 = CacheConfig::direct_mapped(1024, 16).expect("l1");
        let specs: Vec<RunSpec> = [1u32, 2, 4]
            .iter()
            .map(|&assoc| RunSpec {
                l1,
                l2: CacheConfig::new(4 * 1024, 32, assoc).expect("l2"),
                trace: tiny_cfg(),
                seed: 7,
                tag_bits: 16,
            })
            .collect();
        let (outcomes, trace) = simulate_many_traced_with_threads(&specs, 2);
        let report = SweepReport::from_trace(&trace);
        let html = page_with(sweep_section(&report, Some("sweep.perfetto.json")));
        assert!(html.contains("Busy fraction"), "worker chart present");
        validate_self_contained(&html).expect("well-formed");

        let html = page_with(sweep_outcomes_section(&outcomes));
        assert!(html.contains("miss ratio"), "miss chart present");
        validate_self_contained(&html).expect("well-formed");
    }
}
