//! The traced run: the same day loop, driven from the bench's own code.
//!
//! [`ServeRuntime`](enki_agents::prelude::ServeRuntime) is one opaque
//! `run_ticks` call, so the traced run re-drives its tick through the
//! public entry points it is built from — `encode_frame`,
//! `IngestFrontEnd::{offer_bytes, drain, snapshot_if_dirty, restore}`,
//! `CenterAgent::{on_message, submit_standing, on_tick, snapshot,
//! recover_from}` and `Journal::{log_center, log_ingest, recover}` — and
//! puts a span around each call. Its day records must equal the
//! untraced run's, or it measured a different program.
//!
//! `CenterAgent::on_tick` is one call. To split it, the bench replays
//! the same day's inputs through `Enki::admit_with_history`,
//! `Enki::allocate`, `AllocationProblem::from_config` +
//! `AnytimePipeline::solve` and `Enki::settle` right after the tick,
//! checks that the replay reproduces the center's allocation and bill
//! exactly, and records those calls as child spans of the `on_tick`
//! span whose work they repeat. The encode inside `Journal::log_center`
//! is split the same way. Replays run outside the timed ticks, so they
//! add nothing to the traced day wall.

use std::collections::BTreeMap;
use std::time::Duration;

use enki_agents::prelude::{
    CenterAgent, CrashSchedule, Envelope, Journal, JournalConfig, Message, NodeId, PipelineConfig,
    Tick,
};
use enki_core::household::{HouseholdId, Preference, Report};
use enki_core::mechanism::{AllocationOutcome, Enki};
use enki_core::time::Interval;
use enki_core::validation::{RawPreference, RawReport};
use enki_durable::prelude::MemStorage;
use enki_serve::prelude::{
    encode_frame, Batch, IngestCheckpoint, IngestConfig, IngestFrontEnd, IngestStats,
    ProducerSignal, ShedCost,
};
use enki_solver::prelude::{AllocationProblem, AnytimePipeline};
use enki_telemetry::VirtualClock;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize, Value};

use crate::spans::{SpanId, Spans};
use crate::workload::{Neighbourhood, Spec, DAY};

/// Ticks between a producer receiving its allocation and its meter
/// reading reaching the center (as in `ServeRuntime`).
const READING_DELAY: Tick = 2;

/// Counts the traced run gathers besides spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Admitted reports' queue wait, drain tick − `enqueued_at`.
    pub queue_wait_ticks: Vec<u64>,
    /// Solves replayed.
    pub solves: u64,
    /// Solves proven optimal.
    pub proven: u64,
    /// Solves whose schedule beat greedy (and replaced it).
    pub refined: u64,
    /// Search nodes over all solves.
    pub nodes: u64,
    /// Encoded checkpoint payload bytes logged to the journal.
    pub journal_bytes: u64,
    /// Journal appends made by the loop.
    pub appends: u64,
    /// Journal compactions.
    pub compactions: u64,
    /// Completed restarts.
    pub restarts: u64,
    /// Records replayed over all restarts.
    pub replayed: u64,
    /// Replays that disagreed with what the center did.
    pub split_mismatches: u64,
}

/// What a traced neighbourhood run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Settled day records, in day order.
    pub records: Vec<enki_agents::prelude::DayRecord>,
    /// Recovery-path failures.
    pub recovery_errors: Vec<String>,
    /// Traced wall of each measured day (sum of its ticks), nanoseconds.
    pub day_ns: Vec<u64>,
    /// The front end's running totals.
    pub ingest: IngestStats,
    /// The loop's counts.
    pub counts: Counts,
}

/// A producer's reporting day.
#[derive(Debug, Clone, Copy)]
struct ProducerDay {
    day: u64,
    report_deadline: Tick,
}

/// The bench's copy of `ServeProducer`'s retry state machine.
#[derive(Debug, Clone)]
struct Producer {
    household: HouseholdId,
    raw: RawPreference,
    burst: u32,
    day: Option<ProducerDay>,
    next_send_at: Tick,
    done: bool,
}

/// The center's state before the report deadline, read from its last
/// committed checkpoint.
struct PreAllocation {
    rng_state: [u64; 4],
    last_raw: BTreeMap<HouseholdId, RawPreference>,
    profiles: BTreeMap<HouseholdId, Preference>,
}

/// The day in progress, as the loop sees it.
#[derive(Default)]
struct DayState {
    day: u64,
    alloc_at: Tick,
    bill_at: Tick,
    /// Reports the center holds for the day (last write wins).
    reports: BTreeMap<HouseholdId, RawPreference>,
    /// Meter readings delivered for the day.
    readings: BTreeMap<HouseholdId, Interval>,
    /// The allocation the center committed for the day.
    allocation: Option<(Vec<Report>, AllocationOutcome)>,
}

/// One neighbourhood's traced day loop.
pub struct Replica {
    spec: Spec,
    enki: Enki,
    center: CenterAgent,
    front: IngestFrontEnd,
    ingest_config: IngestConfig,
    producers: Vec<Producer>,
    pending: Vec<(Tick, Envelope)>,
    crashes: Vec<CrashSchedule>,
    now: Tick,
    down: bool,
    ingest_durable: IngestCheckpoint,
    /// Whether `ingest_durable` was logged this tick (for the byte count).
    ingest_logged: bool,
    journal: Journal,
    logged_commit_seq: u64,
    recovery_errors: Vec<String>,
    day: Option<DayState>,
    counts: Counts,
}

impl Replica {
    /// Builds the loop for one neighbourhood, configured exactly like
    /// [`crate::untraced::prepare`].
    ///
    /// # Panics
    ///
    /// Panics if the in-memory journal cannot be opened.
    #[must_use]
    pub fn new(spec: &Spec, hood: &Neighbourhood) -> Self {
        let (journal, _) = Journal::open(MemStorage::new(), JournalConfig::default())
            .expect("an empty in-memory journal opens");
        let front = IngestFrontEnd::new(spec.ingest, hood.seed);
        let center = hood.center();
        Self {
            spec: *spec,
            enki: crate::workload::enki(),
            logged_commit_seq: center.commit_seq(),
            center,
            ingest_durable: front.checkpoint(),
            ingest_logged: false,
            front,
            ingest_config: spec.ingest,
            producers: hood
                .roster()
                .into_iter()
                .zip(&hood.reports)
                .map(|(household, &raw)| Producer {
                    household,
                    raw,
                    burst: spec.burst.max(1),
                    day: None,
                    next_send_at: 0,
                    done: false,
                })
                .collect(),
            pending: Vec::new(),
            crashes: spec.crashes(),
            now: 0,
            down: false,
            journal,
            recovery_errors: Vec::new(),
            day: None,
            counts: Counts::default(),
        }
    }

    /// Runs every day of the neighbourhood, recording spans into
    /// `spans`. Days before `spec.warmup_days` run but are not measured.
    #[must_use]
    pub fn run(mut self, spans: &mut Spans) -> TracedRun {
        let total_days = self.spec.warmup_days + self.spec.days;
        let mut day_ns = Vec::with_capacity(self.spec.days as usize);
        let mut baseline = self.front.stats();
        let mut compactions = 0;
        for d in 0..total_days {
            if d == self.spec.warmup_days {
                // Warm-up days run but are not measured.
                self.counts = Counts::default();
                baseline = self.front.stats();
                compactions = self.journal.stats().compactions;
            }
            let mut wall = 0;
            for _ in 0..DAY {
                wall += self.step(spans, d);
            }
            if d >= self.spec.warmup_days {
                day_ns.push(wall);
            }
        }
        self.counts.compactions = self.journal.stats().compactions - compactions;
        TracedRun {
            records: self.center.records().to_vec(),
            recovery_errors: self.recovery_errors,
            day_ns,
            ingest: stats_since(self.front.stats(), baseline),
            counts: self.counts,
        }
    }

    /// One tick. Returns its traced wall in nanoseconds (the replays
    /// that split `on_tick` run after the tick is timed).
    fn step(&mut self, spans: &mut Spans, day: u64) -> u64 {
        let now = self.now;
        let alloc_tick = !self.down && self.day.as_ref().is_some_and(|d| d.alloc_at == now);
        let bill_tick = !self.down && self.day.as_ref().is_some_and(|d| d.bill_at == now);
        let pre = alloc_tick.then(|| pre_allocation(&self.center.checkpoint().serialize_value()));

        let tick_start = spans.now_ns();
        let tick = spans.push("tick", tick_start, 0, None, day);

        for i in 0..self.crashes.len() {
            let c = self.crashes[i];
            if c.crash_at == now {
                self.crash_now();
            }
            if c.recover_at == now {
                self.recover_now(spans, tick, day);
            }
        }

        let mut outbox: Vec<Envelope> = Vec::new();
        let (due, _) = spans.time("agents.runtime", Some(tick), day, || {
            let mut due = Vec::new();
            self.pending.retain(|&(at, envelope)| {
                if at <= now {
                    due.push(envelope);
                    false
                } else {
                    true
                }
            });
            due
        });
        for envelope in due {
            if self.down {
                continue;
            }
            if let (Message::MeterReading { day: d, window }, NodeId::Household(h)) =
                (envelope.message, envelope.from)
            {
                if let Some(state) = self.day.as_mut().filter(|s| s.day == d) {
                    state.readings.insert(h, window);
                }
            }
            let center = &mut self.center;
            spans.time("agents.on_message", Some(tick), day, || {
                center.on_message(now, envelope.from, envelope.message, &mut outbox);
            });
        }

        let mut logged_center = None;
        let mut on_tick_span = None;
        if !self.down {
            self.offer_producer_frames(spans, tick, day, now);
            let front = &mut self.front;
            let (drained, _) = spans.time("serve.drain", Some(tick), day, || front.drain(now));
            for (d, household) in drained.fallbacks {
                let center = &mut self.center;
                let (submitted, _) = spans.time("agents.on_message", Some(tick), day, || {
                    center.submit_standing(d, household)
                });
                if submitted {
                    if let (Some(state), Some(p)) = (
                        self.day.as_mut().filter(|s| s.day == d),
                        self.center.standing_profile(household),
                    ) {
                        state.reports.entry(household).or_insert(p.into());
                    }
                }
            }
            for q in drained.admitted {
                self.counts
                    .queue_wait_ticks
                    .push(now.saturating_sub(q.enqueued_at));
                if let Some(state) = self.day.as_mut().filter(|s| s.day == q.day) {
                    state
                        .reports
                        .insert(q.report.household, q.report.preference);
                }
                let center = &mut self.center;
                spans.time("agents.on_message", Some(tick), day, || {
                    center.on_message(
                        now,
                        NodeId::Household(q.report.household),
                        Message::SubmitReport {
                            day: q.day,
                            preference: q.report.preference,
                        },
                        &mut outbox,
                    );
                });
            }

            let center = &mut self.center;
            let ((), on_tick) = spans.time("agents.on_tick", Some(tick), day, || {
                center.on_tick(now, &mut outbox)
            });
            match self.journal_commits(spans, tick, day) {
                Ok(logged) => logged_center = logged,
                Err(()) => outbox.clear(),
            }
            on_tick_span = Some(on_tick);
        }

        spans.time("agents.runtime", Some(tick), day, || {
            for envelope in outbox {
                self.route_to_producer(now, envelope);
            }
        });
        self.now += 1;

        let tick_end = spans.now_ns();
        close(spans, tick, tick_end);

        // Apparatus after the tick: the replays that split `on_tick` and
        // `log_center`, and the journal byte count.
        if let (Some(pre), Some(on_tick)) = (pre, on_tick_span) {
            self.replay_allocation(spans, on_tick, day, &pre);
        }
        if let (true, Some(on_tick)) = (bill_tick, on_tick_span) {
            self.replay_settlement(spans, on_tick, day);
        }
        if let Some((checkpoint, log_span)) = logged_center {
            let (bytes, _) = spans.time("durable.encode", Some(log_span), day, || {
                enki_serve::snapshot::encode(&checkpoint).len()
            });
            self.counts.journal_bytes += bytes as u64;
        }
        if std::mem::take(&mut self.ingest_logged) {
            self.counts.journal_bytes +=
                enki_serve::snapshot::encode(&self.ingest_durable).len() as u64;
        }
        tick_end.saturating_sub(tick_start)
    }

    fn crash_now(&mut self) {
        self.down = true;
        self.center.crash();
        if let Some(state) = self.day.as_mut() {
            state.reports.clear();
        }
    }

    /// Journal-backed recovery, as `ServeRuntime` does it: replay,
    /// audit, adopt, rebuild the front end.
    fn recover_now(&mut self, spans: &mut Spans, tick: SpanId, day: u64) {
        self.down = false;
        let journal = &mut self.journal;
        let (recovered, _) = spans.time("durable.recover", Some(tick), day, || journal.recover());
        match recovered {
            Err(e) => {
                self.recovery_errors
                    .push(format!("journal recovery failed: {e}"));
                self.center.recover();
            }
            Ok(state) => {
                self.counts.restarts += 1;
                self.counts.replayed += state.replayed;
                let roster = self.center.roster();
                let config = self.enki.config();
                let (audit, _) = spans.time("durable.audit", Some(tick), day, || {
                    state.audit(roster, config)
                });
                let center = &mut self.center;
                let ingest_durable = &mut self.ingest_durable;
                if let Err(e) = audit {
                    self.recovery_errors
                        .push(format!("recovered state refused: {e}"));
                    spans.time("agents.restore", Some(tick), day, || center.recover());
                } else {
                    spans.time("agents.restore", Some(tick), day, || {
                        match state.center {
                            Some(checkpoint) => center.recover_from(checkpoint),
                            None => center.recover(),
                        }
                        if let Some(ingest) = state.ingest {
                            *ingest_durable = ingest;
                        }
                    });
                }
            }
        }
        let (config, durable) = (self.ingest_config, self.ingest_durable.clone());
        let (front, _) = spans.time("agents.restore", Some(tick), day, || {
            IngestFrontEnd::restore(config, durable)
        });
        self.front = front;
        self.logged_commit_seq = self.center.commit_seq();
    }

    /// Log → flush of the tick's commits. Returns the logged center
    /// checkpoint and its span, for the encode split.
    #[allow(clippy::type_complexity)]
    fn journal_commits(
        &mut self,
        spans: &mut Spans,
        tick: SpanId,
        day: u64,
    ) -> Result<Option<(enki_agents::prelude::CenterCheckpoint, SpanId)>, ()> {
        let mut logged = None;
        if self.center.commit_seq() != self.logged_commit_seq {
            let center = &self.center;
            let (snapshot, _) =
                spans.time("agents.snapshot", Some(tick), day, || center.snapshot());
            let journal = &mut self.journal;
            let (result, span) = spans.time("durable.log_center", Some(tick), day, || {
                journal.log_center(&snapshot)
            });
            self.counts.appends += 1;
            if let Err(e) = result {
                self.recovery_errors
                    .push(format!("journal center commit failed: {e}"));
                self.crash_now();
                return Err(());
            }
            self.logged_commit_seq = self.center.commit_seq();
            logged = Some((snapshot, span));
        }
        let front = &mut self.front;
        let (snapshot, _) = spans.time("serve.snapshot", Some(tick), day, || {
            front.snapshot_if_dirty()
        });
        if let Some(snapshot) = snapshot {
            let journal = &mut self.journal;
            let (result, _) = spans.time("durable.log_ingest", Some(tick), day, || {
                journal.log_ingest(&snapshot)
            });
            self.counts.appends += 1;
            if let Err(e) = result {
                self.recovery_errors
                    .push(format!("journal ingest commit failed: {e}"));
                self.crash_now();
                return Err(());
            }
            self.ingest_durable = snapshot;
            self.ingest_logged = true;
        }
        Ok(logged)
    }

    /// Sends each due producer's frame(s) into the front end.
    fn offer_producer_frames(&mut self, spans: &mut Spans, tick: SpanId, day: u64, now: Tick) {
        let runtime = spans.push("agents.runtime", spans.now_ns(), 0, Some(tick), day);
        for i in 0..self.producers.len() {
            let p = &self.producers[i];
            let Some(pday) = p.day else { continue };
            if p.done || now < p.next_send_at || now > pday.report_deadline {
                continue;
            }
            let batch = Batch {
                day: pday.day,
                deadline: pday.report_deadline,
                reports: vec![RawReport::new(p.household, p.raw)],
            };
            let (frame, _) =
                spans.time("serve.encode", Some(runtime), day, || encode_frame(&batch));
            let Ok(frame) = frame else { continue };
            let burst = p.burst;
            let mut accepted = false;
            let mut retry_after = None;
            let mut shed = false;
            for _ in 0..burst {
                let center = &self.center;
                let front = &mut self.front;
                let (signals, _) = spans.time("serve.offer", Some(runtime), day, || {
                    front.offer_bytes(now, &frame, &mut |h| {
                        if center.standing_profile(h).is_some() {
                            ShedCost::Replaceable
                        } else {
                            ShedCost::Fresh
                        }
                    })
                });
                for signal in signals {
                    match signal {
                        ProducerSignal::Accepted { .. } => accepted = true,
                        ProducerSignal::Backpressure { retry_after: t } => retry_after = Some(t),
                        ProducerSignal::Shed { .. } => shed = true,
                    }
                }
            }
            let p = &mut self.producers[i];
            if accepted {
                p.done = true;
            } else if let Some(t) = retry_after {
                p.next_send_at = now.saturating_add(t.max(1));
            } else if shed {
                p.done = true;
            }
        }
        close(spans, runtime, spans.now_ns());
    }

    fn route_to_producer(&mut self, now: Tick, envelope: Envelope) {
        let NodeId::Household(household) = envelope.to else {
            return;
        };
        if let Message::DayStart {
            day,
            report_deadline,
            meter_deadline,
        } = envelope.message
        {
            if self.day.as_ref().map(|d| d.day) != Some(day) {
                self.day = Some(DayState {
                    day,
                    alloc_at: report_deadline,
                    bill_at: meter_deadline,
                    ..DayState::default()
                });
            }
        }
        let Some(p) = self.producers.iter_mut().find(|p| p.household == household) else {
            return;
        };
        match envelope.message {
            Message::DayStart {
                day,
                report_deadline,
                ..
            } if p.day.map(|d| d.day) != Some(day) => {
                p.day = Some(ProducerDay {
                    day,
                    report_deadline,
                });
                p.done = false;
                p.next_send_at = now.saturating_add(1);
            }
            Message::Allocation { day, window } => {
                self.pending.push((
                    now + READING_DELAY,
                    Envelope {
                        from: NodeId::Household(household),
                        to: NodeId::Center,
                        message: Message::MeterReading { day, window },
                        trace: None,
                    },
                ));
            }
            _ => {}
        }
    }

    /// Replays the report-deadline work of `on_tick` — admission,
    /// greedy, problem build, pipeline solve — as child spans of it,
    /// and checks the replay chose the center's allocation.
    fn replay_allocation(
        &mut self,
        spans: &mut Spans,
        on_tick: SpanId,
        day: u64,
        pre: &PreAllocation,
    ) {
        let Some((center_reports, center_outcome)) = committed_allocation(&self.center) else {
            return;
        };
        let Some(state) = self.day.as_mut() else {
            return;
        };
        state.allocation = Some((center_reports.clone(), center_outcome.clone()));
        let raw: Vec<RawReport> = state
            .reports
            .iter()
            .map(|(&h, &p)| RawReport::new(h, p))
            .collect();
        let enki = &self.enki;
        let (admission, _) = spans.time("core.admit", Some(on_tick), day, || {
            enki.admit_with_history(&raw, |h| pre.last_raw.get(&h).copied())
        });
        let mut profiles = pre.profiles.clone();
        for entry in &admission.entries {
            if let Some(p) = entry.admitted {
                profiles.insert(entry.household, p);
            }
        }
        let reports = admission.admitted_with_fallback(|h| profiles.get(&h).copied());
        let mut rng = StdRng::from_state(pre.rng_state);
        let (greedy, _) = spans.time("core.greedy", Some(on_tick), day, || {
            enki.allocate(&reports, &mut rng)
        });
        let Ok(greedy) = greedy else {
            self.counts.split_mismatches += 1;
            return;
        };
        let config = PipelineConfig::default();
        let seed: u64 = rng.random();
        let preferences: Vec<Preference> = reports.iter().map(|r| r.preference).collect();
        let (problem, _) = spans.time("solver.build", Some(on_tick), day, || {
            AllocationProblem::from_config(preferences, enki.config())
        });
        let Ok(problem) = problem else {
            self.counts.split_mismatches += 1;
            return;
        };
        let pipeline = AnytimePipeline::new()
            .with_threads(config.threads)
            .with_exact_node_limit(config.exact_node_limit)
            .with_exact_time_limit(Duration::MAX)
            .with_restarts(config.restarts)
            .with_seed(seed)
            .with_clock(VirtualClock::new());
        let (solved, _) = spans.time("solver.solve", Some(on_tick), day, || {
            pipeline.solve(&problem)
        });
        let windows: Vec<Interval> = match solved {
            Ok(outcome) => {
                self.counts.solves += 1;
                self.counts.proven += u64::from(outcome.proven_optimal);
                self.counts.nodes += outcome.stages.iter().map(|s| s.nodes).sum::<u64>();
                if outcome.solution.objective < greedy.planned_cost - 1e-12 {
                    self.counts.refined += 1;
                    outcome.solution.windows.clone()
                } else {
                    greedy.assignments.iter().map(|a| a.window).collect()
                }
            }
            Err(_) => greedy.assignments.iter().map(|a| a.window).collect(),
        };
        let same = reports == center_reports
            && windows.len() == center_outcome.assignments.len()
            && windows
                .iter()
                .zip(&center_outcome.assignments)
                .all(|(w, a)| *w == a.window);
        if !same {
            self.counts.split_mismatches += 1;
        }
    }

    /// Replays `Enki::settle` for the day just billed and checks it
    /// reproduces the center's settlement.
    fn replay_settlement(&mut self, spans: &mut Spans, on_tick: SpanId, day: u64) {
        let Some(state) = self.day.as_ref() else {
            return;
        };
        let Some(record) = self.center.records().last().filter(|r| r.day == state.day) else {
            return;
        };
        let Some(settled) = record.settlement.clone() else {
            return;
        };
        let Some((reports, outcome)) = state.allocation.as_ref() else {
            self.counts.split_mismatches += 1;
            return;
        };
        let consumption: Vec<Interval> = reports
            .iter()
            .zip(&outcome.assignments)
            .map(|(r, a)| {
                state
                    .readings
                    .get(&r.household)
                    .copied()
                    .unwrap_or(a.window)
            })
            .collect();
        let enki = &self.enki;
        let (replayed, _) = spans.time("core.settle", Some(on_tick), day, || {
            enki.settle(reports, outcome, &consumption)
        });
        if replayed.ok().as_ref() != Some(&settled) {
            self.counts.split_mismatches += 1;
        }
    }
}

/// The front end's totals accumulated since `baseline`.
#[must_use]
pub fn stats_since(now: IngestStats, baseline: IngestStats) -> IngestStats {
    let mut shed = now.shed;
    shed.malformed -= baseline.shed.malformed;
    shed.stale -= baseline.shed.stale;
    shed.deadline_risk -= baseline.shed.deadline_risk;
    shed.evicted -= baseline.shed.evicted;
    shed.overflow -= baseline.shed.overflow;
    shed.poisoned -= baseline.shed.poisoned;
    IngestStats {
        enqueued: now.enqueued - baseline.enqueued,
        admitted: now.admitted - baseline.admitted,
        deferred: now.deferred - baseline.deferred,
        frames: now.frames - baseline.frames,
        shed,
    }
}

/// Closes a span opened with an end of 0.
fn close(spans: &mut Spans, id: SpanId, end_ns: u64) {
    spans.set_end(id, end_ns);
}

/// Reads the pre-allocation state out of a committed checkpoint.
fn pre_allocation(checkpoint: &Value) -> PreAllocation {
    let field = |name: &str| {
        checkpoint
            .as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    };
    PreAllocation {
        rng_state: <[u64; 4]>::deserialize_value(&field("rng_state")).unwrap_or_default(),
        last_raw: BTreeMap::deserialize_value(&field("last_raw")).unwrap_or_default(),
        profiles: BTreeMap::deserialize_value(&field("profiles")).unwrap_or_default(),
    }
}

/// The `(reports, outcome)` the center committed at its last
/// allocation, read from its checkpoint.
fn committed_allocation(center: &CenterAgent) -> Option<(Vec<Report>, AllocationOutcome)> {
    let value = center.checkpoint().serialize_value();
    let current = value
        .as_object()?
        .iter()
        .find(|(k, _)| k == "current")
        .map(|(_, v)| v)?;
    let allocation = current
        .as_object()?
        .iter()
        .find(|(k, _)| k == "allocation")
        .map(|(_, v)| v)?;
    <(Vec<Report>, AllocationOutcome)>::deserialize_value(allocation).ok()
}
