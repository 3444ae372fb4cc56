//! The two runs and the correctness checks every run makes.
//!
//! The untraced run makes one round per [`ROUND_S`] of `--seconds`
//! (at least one); workloads are sized so that a round takes about that
//! long on a 2-core machine. The round count is a function of
//! `--seconds` alone, never of how fast the host happens to run, so
//! every run of a seed computes the same statistic over the same
//! samples. Each measured tick's sample is its smallest wall over the
//! rounds: the program is deterministic, so every round does the same
//! work (its records must match the first round's), and the minimum
//! drops stalls the host imposed on one round only (CPU contention on a
//! shared machine) without hiding any of the program's own work.
//! Repeats of a tick sit a whole round apart, so a stall that lasts
//! seconds still misses most of them. Every tick of the round counts
//! exactly once in the percentiles. Drifts slower than a run are taken
//! out by scaling every reported time by the host reference (see
//! [`crate::reference`]). The deterministic metrics come from the first
//! round.
//!
//! The traced run walks the round one neighbourhood at a time, running
//! each untraced and then traced, while another neighbourhood still fits
//! in `--seconds` (at least one). The traced records must equal the
//! untraced ones.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use enki_agents::oracle;
use enki_agents::prelude::DayRecord;
use enki_core::pricing::Pricing;
use enki_telemetry::{Clock, MonotonicClock};

use crate::metrics::{median, peak_rss_mb, quantile, ratio, Metrics};
use crate::reference::{self, Reference};
use crate::spans::Spans;
use crate::traced::{Counts, Replica};
use crate::untraced::{prepare, NeighbourhoodRun, Prepared, Walls};
use crate::workload::{enki, Neighbourhood, Spec};

/// Seconds of `--seconds` per untraced round.
const ROUND_S: f64 = 15.0;

/// Reference walls taken per untraced round, spread evenly between its
/// neighbourhood runs.
const REFERENCE_PER_ROUND: usize = 64;

/// Set-ups timed before the first round; `setup_s` is their median
/// (with one more sample per later round).
const SETUP_REPS: usize = 21;

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness failures, empty when every check passed.
    pub failures: Vec<String>,
    /// Roster household-days run.
    pub attempted: u64,
    /// Roster household-days left without a bill.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
}

/// Billing and schedule-quality totals over measured days.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Billing {
    roster_days: u64,
    billed: u64,
    /// Realized neighbourhood cost κ(ω).
    cost: f64,
    /// κ of the same participants' as-reported schedule.
    reported_cost: f64,
    /// Σ over settled days of realized PAR ÷ as-reported PAR.
    par_ratio_sum: f64,
    settled_days: u64,
}

impl Billing {
    /// Totals over the measured records of one neighbourhood run.
    fn of(spec: &Spec, hood: &Neighbourhood, records: &[DayRecord]) -> Self {
        let pricing = enki().config().pricing();
        let mut b = Self::default();
        for r in records.iter().filter(|r| r.day >= spec.warmup_days) {
            b.roster_days += u64::from(spec.households);
            if let Some(s) = &r.settlement {
                let reported = hood.as_reported_load(&r.participants);
                b.billed += s.entries.len() as u64;
                b.cost += s.total_cost;
                b.reported_cost += pricing.cost(&reported);
                b.par_ratio_sum += ratio(s.load.peak_to_average(), reported.peak_to_average());
                b.settled_days += 1;
            }
        }
        b
    }

    fn add(&mut self, other: Self) {
        self.roster_days += other.roster_days;
        self.billed += other.billed;
        self.cost += other.cost;
        self.reported_cost += other.reported_cost;
        self.par_ratio_sum += other.par_ratio_sum;
        self.settled_days += other.settled_days;
    }
}

/// Checks one neighbourhood's first run: the oracle finds no broken
/// invariant, recovery logged no error, every measured day closed, and
/// each day's billed plus unbilled households make up the roster.
fn check_neighbourhood(
    spec: &Spec,
    hood: &Neighbourhood,
    run: &NeighbourhoodRun,
    failures: &mut Vec<String>,
) {
    let roster = hood.roster();
    let rt = &run.runtime;
    for v in oracle::check_parts(rt.records(), &roster, enki().config(), rt.trace()) {
        failures.push(format!("oracle: {v:?}"));
    }
    for e in rt.recovery_errors() {
        failures.push(format!("recovery error: {e}"));
    }
    let measured: Vec<&DayRecord> = rt
        .records()
        .iter()
        .filter(|r| r.day >= spec.warmup_days)
        .collect();
    if measured.len() as u64 != spec.days {
        failures.push(format!(
            "{} of {} measured days closed",
            measured.len(),
            spec.days
        ));
    }
    for r in measured {
        let billed = r.settlement.as_ref().map_or(0, |s| s.entries.len());
        let unbilled =
            r.missing_reports.len() + (r.participants.len() - billed.min(r.participants.len()));
        let one_bill_each = r.settlement.as_ref().is_none_or(|s| {
            s.entries
                .iter()
                .map(|e| e.household)
                .eq(r.participants.iter().copied())
        });
        if billed + unbilled != roster.len() || !one_bill_each {
            failures.push(format!(
                "day {}: bills do not account for the roster",
                r.day
            ));
        }
    }
}

/// The round's inputs and first-run records, plus the checks' verdicts.
struct Round {
    spec: Spec,
    hoods: Vec<Neighbourhood>,
    /// Records of each neighbourhood's first untraced run.
    first: Vec<Option<Vec<DayRecord>>>,
    failures: Vec<String>,
}

impl Round {
    fn new(spec: &Spec, seed: u64) -> Self {
        let hoods = generate(spec, seed);
        Self {
            spec: *spec,
            first: vec![None; hoods.len()],
            hoods,
            failures: Vec::new(),
        }
    }

    /// Runs neighbourhood `k` untraced: checks it in full the first
    /// time, and against the first run after that.
    fn run_untraced(&mut self, k: usize, prepared: Prepared) -> NeighbourhoodRun {
        let run = prepared.run();
        match &self.first[k] {
            None => {
                check_neighbourhood(&self.spec, &self.hoods[k], &run, &mut self.failures);
                self.first[k] = Some(run.runtime.records().to_vec());
            }
            Some(first) if first != run.runtime.records() => self.failures.push(format!(
                "neighbourhood {k}: a repeated run changed its records"
            )),
            Some(_) => {}
        }
        run
    }
}

/// A run's time budget, read through the repository's monotonic clock.
struct Budget {
    clock: MonotonicClock,
    seconds: Duration,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Self {
            clock: MonotonicClock::new(),
            seconds: Duration::from_secs_f64(seconds),
        }
    }

    fn elapsed(&self) -> Duration {
        self.clock.now()
    }

    /// Whether another unit of work as long as `unit` still ends within
    /// the budget.
    fn room_for(&self, unit: Duration) -> bool {
        self.clock.now() + unit <= self.seconds
    }
}

/// The round's neighbourhoods for `seed`.
fn generate(spec: &Spec, seed: u64) -> Vec<Neighbourhood> {
    (0..spec.neighbourhoods)
        .map(|k| Neighbourhood::generate(spec, seed, k))
        .collect()
}

/// Set-up of one round — profile generation, runtimes, journal opens —
/// and its wall time in seconds.
fn set_up(spec: &Spec, seed: u64) -> (Vec<Prepared>, f64) {
    let clock = MonotonicClock::new();
    let prepared = generate(spec, seed)
        .iter()
        .map(|h| prepare(spec, h))
        .collect();
    (prepared, clock.now().as_secs_f64())
}

/// Lowers each of `best`'s tick walls to the same tick's wall in
/// `tick_s`, taking `tick_s` whole when `best` is still empty.
fn keep_min(best: &mut Vec<f64>, tick_s: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(tick_s);
    } else {
        for (b, &t) in best.iter_mut().zip(tick_s) {
            *b = b.min(t);
        }
    }
}

/// The untraced run: end-to-end metrics.
#[must_use]
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        let (p, s) = set_up(spec, seed);
        setup_s.push(s);
        prepared = p;
    }
    let mut round = Round::new(spec, seed);
    // Per neighbourhood, each measured tick's smallest wall so far.
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); round.hoods.len()];
    let mut all_runs = Billing::default();
    let rounds = ((seconds / ROUND_S) as usize).max(1);
    let n = round.hoods.len();
    let mut host = Reference::new();
    let mut reference_s = Vec::new();
    for r in 0..rounds {
        if r > 0 {
            let (p, s) = set_up(spec, seed);
            setup_s.push(s);
            prepared = p;
        }
        for (k, p) in prepared.drain(..).enumerate() {
            let run = round.run_untraced(k, p);
            keep_min(&mut best[k], &run.tick_s);
            all_runs.add(Billing::of(spec, &round.hoods[k], run.runtime.records()));
            // Between neighbourhood runs, never inside a timed tick.
            for _ in k * REFERENCE_PER_ROUND / n..(k + 1) * REFERENCE_PER_ROUND / n {
                reference_s.push(host.wall_s());
            }
        }
    }

    let mut samples = Walls::default();
    // Billed household-days ÷ wall of the measured days, per
    // neighbourhood.
    let mut throughput = Vec::new();
    for ((tick_s, hood), records) in best.iter().zip(&round.hoods).zip(&round.first) {
        let walls = Walls::of(spec, tick_s);
        if let Some(records) = records {
            let billed = Billing::of(spec, hood, records).billed;
            throughput.push(ratio(billed as f64, walls.day_s.iter().sum()));
        }
        samples.day_s.extend(walls.day_s);
        samples.alloc_s.extend(walls.alloc_s);
        samples.bill_s.extend(walls.bill_s);
        samples.restart_s.extend(walls.restart_s);
    }

    // Deterministic metrics from the first round.
    let mut first = Billing::default();
    for (hood, records) in round.hoods.iter().zip(&round.first) {
        if let Some(records) = records {
            first.add(Billing::of(spec, hood, records));
        }
    }
    // Every time is reported as it would read on a host that runs the
    // reference in `NOMINAL_S`.
    let scale = reference::NOMINAL_S / median(&reference_s);
    let ms = |v: f64| v * 1e3 * scale;
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup_s) * scale, "s");
    m.add("household_days_per_s", median(&throughput) / scale, "1/s");
    m.add("day_ms_p50", ms(quantile(&samples.day_s, 0.5)), "ms");
    m.add("day_ms_p90", ms(quantile(&samples.day_s, 0.9)), "ms");
    m.add("alloc_ms_p50", ms(quantile(&samples.alloc_s, 0.5)), "ms");
    m.add("alloc_ms_p90", ms(quantile(&samples.alloc_s, 0.9)), "ms");
    m.add("bill_ms_p50", ms(quantile(&samples.bill_s, 0.5)), "ms");
    m.add("bill_ms_p90", ms(quantile(&samples.bill_s, 0.9)), "ms");
    m.add(
        "restart_ms_p50",
        ms(quantile(&samples.restart_s, 0.5)),
        "ms",
    );
    m.add(
        "billed_share",
        ratio(first.billed as f64, first.roster_days as f64),
        "ratio",
    );
    m.add(
        "cost_vs_reported",
        ratio(first.cost, first.reported_cost),
        "ratio",
    );
    m.add(
        "par_vs_reported",
        ratio(first.par_ratio_sum, first.settled_days as f64),
        "ratio",
    );
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "{}: reference wall {:.4} ms (median of {}), times scaled by {:.4}",
        spec.name,
        median(&reference_s) * 1e3,
        reference_s.len(),
        scale
    );
    eprintln!(
        "{}: {} set-ups, {} rounds; samples: {} days, {} allocations, {} bills, {} restarts",
        spec.name,
        setup_s.len(),
        rounds,
        samples.day_s.len(),
        samples.alloc_s.len(),
        samples.bill_s.len(),
        samples.restart_s.len()
    );
    Outcome {
        failures: round.failures,
        attempted: all_runs.roster_days,
        failed: all_runs.roster_days - all_runs.billed.min(all_runs.roster_days),
        metrics: m,
    }
}

/// Totals of the traced run, summed over neighbourhood runs.
#[derive(Debug, Default)]
struct TracedTotals {
    self_ns: BTreeMap<&'static str, i128>,
    counts: Counts,
    frames: u64,
    deferred: u64,
    shed: u64,
    admitted: u64,
    runs: u64,
    days: u64,
    billing: Billing,
    traced_day_ns: u64,
    untraced_day_s: f64,
}

impl TracedTotals {
    fn add_counts(&mut self, c: Counts) {
        let t = &mut self.counts;
        t.queue_wait_ticks.extend(c.queue_wait_ticks);
        t.solves += c.solves;
        t.proven += c.proven;
        t.refined += c.refined;
        t.nodes += c.nodes;
        t.journal_bytes += c.journal_bytes;
        t.appends += c.appends;
        t.compactions += c.compactions;
        t.restarts += c.restarts;
        t.replayed += c.replayed;
        t.split_mismatches += c.split_mismatches;
    }

    fn us(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3
    }

    fn us_per_day(&self, name: &str) -> f64 {
        ratio(self.us(name), self.days as f64)
    }
}

/// The traced run: per-layer metrics. Writes the first traced
/// neighbourhood's spans to `spans_out`.
#[must_use]
pub fn traced(spec: &Spec, seed: u64, seconds: f64, spans_out: Option<&Path>) -> Outcome {
    let budget = Budget::new(seconds);
    let mut round = Round::new(spec, seed);
    let mut t = TracedTotals::default();
    let mut last = Duration::ZERO;
    'round: loop {
        for k in 0..round.hoods.len() {
            if t.runs > 0 && !budget.room_for(last) {
                break 'round;
            }
            let started = budget.elapsed();
            let untraced = round.run_untraced(k, prepare(spec, &round.hoods[k]));
            t.untraced_day_s += untraced.tick_s.iter().sum::<f64>();

            let mut spans = Spans::new();
            let run = Replica::new(spec, &round.hoods[k]).run(&mut spans);
            if Some(&run.records) != round.first[k].as_ref() {
                round.failures.push(format!(
                    "neighbourhood {k}: traced records differ from untraced records"
                ));
            }
            for e in &run.recovery_errors {
                round.failures.push(format!("traced recovery error: {e}"));
            }
            if run.counts.split_mismatches > 0 {
                round.failures.push(format!(
                    "neighbourhood {k}: {} replayed calls disagreed with the center",
                    run.counts.split_mismatches
                ));
            }
            for (name, ns) in spans.self_time_ns(spec.warmup_days) {
                *t.self_ns.entry(name).or_default() += ns;
            }
            if t.runs == 0 {
                if let Some(path) = spans_out {
                    write_spans(path, &spans);
                }
            }
            t.runs += 1;
            t.traced_day_ns += run.day_ns.iter().sum::<u64>();
            t.days += run.day_ns.len() as u64;
            t.billing
                .add(Billing::of(spec, &round.hoods[k], &run.records));
            t.frames += run.ingest.frames;
            t.deferred += run.ingest.deferred;
            t.shed += run.ingest.shed.total();
            t.admitted += run.ingest.admitted;
            t.add_counts(run.counts);
            last = budget.elapsed() - started;
        }
    }
    let m = layer_metrics(&t);
    print_layer_split(spec, &t);
    let b = t.billing;
    Outcome {
        failures: round.failures,
        attempted: b.roster_days,
        failed: b.roster_days - b.billed.min(b.roster_days),
        metrics: m,
    }
}

fn write_spans(path: &Path, spans: &Spans) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, spans.to_jsonl()) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(t: &TracedTotals) -> Metrics {
    let days = t.days as f64;
    let per_day = |v: u64| ratio(v as f64, days);
    let restarts = t.counts.restarts as f64;
    let waits: Vec<f64> = t
        .counts
        .queue_wait_ticks
        .iter()
        .map(|&w| w as f64)
        .collect();
    let unattributed_ns = t.self_ns.get("tick").copied().unwrap_or(0) as f64;
    let traced_wall_ns = t.traced_day_ns as f64;
    let mut m = Metrics::default();
    m.add(
        "serve.encode_us_per_day",
        t.us_per_day("serve.encode"),
        "us",
    );
    m.add("serve.offer_us_per_day", t.us_per_day("serve.offer"), "us");
    m.add("serve.drain_us_per_day", t.us_per_day("serve.drain"), "us");
    m.add(
        "serve.snapshot_us_per_day",
        t.us_per_day("serve.snapshot"),
        "us",
    );
    m.add("serve.frames_per_day", per_day(t.frames), "count");
    m.add("serve.deferred_per_day", per_day(t.deferred), "count");
    m.add("serve.shed_per_day", per_day(t.shed), "count");
    m.add(
        "serve.admit_ratio",
        ratio(t.admitted as f64, t.frames as f64),
        "ratio",
    );
    m.add("serve.queue_wait_ticks_p50", quantile(&waits, 0.5), "ticks");
    m.add("serve.queue_wait_ticks_p90", quantile(&waits, 0.9), "ticks");
    m.add("core.admit_us_per_day", t.us_per_day("core.admit"), "us");
    m.add("core.greedy_us_per_day", t.us_per_day("core.greedy"), "us");
    m.add("core.settle_us_per_day", t.us_per_day("core.settle"), "us");
    m.add(
        "solver.build_us_per_day",
        t.us_per_day("solver.build"),
        "us",
    );
    m.add(
        "solver.solve_us_per_day",
        t.us_per_day("solver.solve"),
        "us",
    );
    m.add("solver.nodes_per_day", per_day(t.counts.nodes), "count");
    m.add(
        "solver.proven_share",
        ratio(t.counts.proven as f64, t.counts.solves as f64),
        "ratio",
    );
    m.add(
        "solver.refined_share",
        ratio(t.counts.refined as f64, t.counts.solves as f64),
        "ratio",
    );
    m.add(
        "agents.on_message_us_per_day",
        t.us_per_day("agents.on_message"),
        "us",
    );
    m.add(
        "agents.center_self_us_per_day",
        t.us_per_day("agents.on_tick"),
        "us",
    );
    m.add(
        "agents.runtime_us_per_day",
        t.us_per_day("agents.runtime"),
        "us",
    );
    m.add(
        "agents.snapshot_us_per_day",
        t.us_per_day("agents.snapshot"),
        "us",
    );
    m.add(
        "agents.restore_us",
        ratio(t.us("agents.restore"), restarts),
        "us",
    );
    m.add(
        "durable.log_center_us_per_day",
        t.us_per_day("durable.log_center"),
        "us",
    );
    m.add(
        "durable.log_ingest_us_per_day",
        t.us_per_day("durable.log_ingest"),
        "us",
    );
    m.add(
        "durable.encode_us_per_day",
        t.us_per_day("durable.encode"),
        "us",
    );
    m.add(
        "durable.bytes_per_household_day",
        ratio(t.counts.journal_bytes as f64, t.billing.roster_days as f64),
        "bytes",
    );
    m.add(
        "durable.appends_per_day",
        per_day(t.counts.appends),
        "count",
    );
    m.add(
        "durable.compactions",
        ratio(t.counts.compactions as f64, t.runs as f64),
        "count",
    );
    m.add(
        "durable.recover_us",
        ratio(t.us("durable.recover"), restarts),
        "us",
    );
    m.add(
        "durable.audit_us",
        ratio(t.us("durable.audit"), restarts),
        "us",
    );
    m.add(
        "durable.replayed_records",
        ratio(t.counts.replayed as f64, restarts),
        "count",
    );
    m.add(
        "trace.unattributed_share",
        ratio(unattributed_ns, traced_wall_ns),
        "ratio",
    );
    m.add(
        "trace.overhead_share",
        ratio(traced_wall_ns / 1e9, t.untraced_day_s) - 1.0,
        "ratio",
    );
    m
}

/// Prints each layer's share of the traced day wall to stderr.
fn print_layer_split(spec: &Spec, t: &TracedTotals) {
    let mut by_layer: BTreeMap<&str, i128> = BTreeMap::new();
    for (name, ns) in &t.self_ns {
        let layer = match *name {
            "tick" => "unattributed",
            _ => name.split('.').next().unwrap_or(name),
        };
        *by_layer.entry(layer).or_default() += ns;
    }
    let wall = t.traced_day_ns as f64;
    let mut line = format!(
        "{}: {} traced neighbourhood runs, {} days; share of traced day wall:",
        spec.name, t.runs, t.days
    );
    for (layer, ns) in &by_layer {
        line.push_str(&format!(" {layer} {:.1}%", 100.0 * ratio(*ns as f64, wall)));
    }
    eprintln!("{line}");
}
