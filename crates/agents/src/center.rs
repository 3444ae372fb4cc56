//! The neighborhood-center agent.
//!
//! Drives the daily protocol: broadcasts `DayStart`, collects reports
//! until the report deadline (late or duplicate reports are handled
//! idempotently), allocates with the greedy mechanism, pushes allocations,
//! collects meter readings until the meter deadline, settles, and bills.
//!
//! **Failure handling.** A household whose report never arrives is simply
//! excluded from the day — the paper's mechanism has no basis to allocate
//! or bill it. A household that was allocated but whose meter reading was
//! lost is settled *as if it followed its allocation*: real smart meters
//! are read eventually, so the cooperative window is the neutral
//! assumption (and the one that cannot create a phantom defection score).
//!
//! **Admission control.** Reports arrive raw off the wire and are never
//! trusted: at the report deadline the whole batch runs through the
//! admission layer ([`enki_core::validation`]). Accepted and clamped
//! reports enter the allocation; quarantined households fall back to the
//! center's standing profile of their demand (the last preference it
//! admitted from them — its model of their ECC's reporting), or are
//! excluded if the center has never admitted one. Per-day quarantine and
//! clamp decisions are recorded in the [`DayRecord`], so a settled day
//! can always answer why a household was billed for a given window. A
//! failed allocation or settlement closes the day without a settlement
//! instead of taking the center down.
//!
//! **Crash and recovery.** The center writes a durable
//! [`CenterCheckpoint`] at every phase boundary — day start, allocation
//! computed, day settled. [`CenterAgent::crash`] wipes all in-memory
//! protocol state (as a process crash would); [`CenterAgent::recover`]
//! restores from the last checkpoint, including the allocation RNG state,
//! so the post-recovery allocation stream is identical to an uncrashed
//! run. Reports and readings received *between* phase boundaries are
//! volatile and lost on crash — household retry loops re-deliver them.
//! Because a settled day's record and RNG state are committed atomically
//! with its bills, recovery can never re-settle a day or double-bill.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use enki_core::household::{HouseholdId, Preference, Report};
use enki_core::load::LoadProfile;
use enki_core::mechanism::{AllocationOutcome, Assignment, Enki, Settlement};
use enki_core::time::Interval;
use enki_core::validation::{RawPreference, RawReport};
use enki_serve::snapshot;
use enki_solver::prelude::{AllocationProblem, AnytimePipeline};
use enki_telemetry::trace::{stage, TraceContext};
use enki_telemetry::{Recorder, VirtualClock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::message::{Envelope, Message, NodeId, Tick};

/// Timing of one protocol day, in ticks relative to the day's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DayPlan {
    /// Total ticks per day.
    pub day_length: Tick,
    /// Reports must arrive within this many ticks of the day start.
    pub report_offset: Tick,
    /// Meter readings are collected until this offset, then the day
    /// settles.
    pub meter_offset: Tick,
}

impl Default for DayPlan {
    fn default() -> Self {
        Self {
            day_length: 100,
            report_offset: 30,
            meter_offset: 70,
        }
    }
}

impl DayPlan {
    /// Validates the ordering `0 < report < meter < day_length`.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        0 < self.report_offset
            && self.report_offset < self.meter_offset
            && self.meter_offset < self.day_length
    }
}

/// Configuration for refining the greedy allocation through the
/// [`enki_solver`] anytime pipeline.
///
/// The center's protocol obligation is met by the greedy mechanism alone;
/// the pipeline is a *refinement*. At the report deadline the admitted
/// preferences become an [`AllocationProblem`] and the racing portfolio
/// (speculative branch-and-bound against seeded local search, for a
/// thread budget ≥ 2) gets `exact_node_limit` search nodes to beat the
/// greedy windows; the refined schedule is adopted only when its planned
/// cost is strictly lower. The solve is budgeted in **nodes only**: the
/// pipeline runs on a virtual clock that never advances, so the deadline
/// never fires and the result is a pure function of the admitted reports
/// and the day's seed, independent of host load, thread count, or
/// scheduling. That keeps the center's checkpoints replayable — a
/// crash-recovered center re-derives the same refined windows — and its
/// telemetry traces byte-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Thread budget handed to [`AnytimePipeline::with_threads`]. `1`
    /// runs the sequential degradation ladder; `≥ 2` races the exact and
    /// local-search rungs on the solver's work-stealing pool. Results
    /// are bit-identical at every thread count.
    pub threads: usize,
    /// Node budget for the exact rung — its only budget (see above).
    pub exact_node_limit: u64,
    /// Random restarts for the local-search rung.
    pub restarts: usize,
}

impl Default for PipelineConfig {
    /// Two threads (the racing portfolio), a 50 000-node exact budget —
    /// ample to prove day-sized neighborhoods optimal — and 8 restarts.
    fn default() -> Self {
        Self {
            threads: 2,
            exact_node_limit: 50_000,
            restarts: 8,
        }
    }
}

impl PipelineConfig {
    /// Splits the machine's thread budget with a deployment that already
    /// runs `occupied` OS threads (e.g. one per household ECC plus the
    /// center in [`crate::threaded`]): the solver keeps at most the
    /// spare parallelism, but never drops below 2 threads — the racing
    /// portfolio — unless it was configured sequential to begin with.
    /// Because results are bit-identical at every thread count, the
    /// split is purely a scheduling decision and never changes outcomes.
    #[must_use]
    pub fn split_for(self, occupied: usize) -> Self {
        let available =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let spare = available.saturating_sub(occupied).max(2);
        Self {
            threads: self.threads.min(spare),
            ..self
        }
    }

    /// Tries to improve `greedy` for the admitted `reports`, returning
    /// the refined outcome when the pipeline's best certified schedule is
    /// strictly cheaper and the greedy outcome untouched otherwise —
    /// including on any solver error or contained rung panic. Refinement
    /// must never cost the neighborhood its day.
    pub(crate) fn refine(
        self,
        enki: &Enki,
        reports: &[Report],
        greedy: AllocationOutcome,
        seed: u64,
        recorder: Option<&Recorder>,
    ) -> AllocationOutcome {
        let solved = (|| {
            let preferences: Vec<Preference> =
                reports.iter().map(|r| r.preference).collect();
            let problem = AllocationProblem::from_config(preferences, enki.config())?;
            // Node-budget only: the virtual clock never advances, so the
            // exact deadline never fires and every stage timing the
            // pipeline records is exact arithmetic, not wall time.
            AnytimePipeline::new()
                .with_threads(self.threads)
                .with_exact_node_limit(self.exact_node_limit)
                .with_exact_time_limit(Duration::MAX)
                .with_restarts(self.restarts)
                .with_seed(seed)
                .with_clock(VirtualClock::new())
                .solve_traced(&problem, recorder)
        })();
        match solved {
            Ok(outcome) if outcome.solution.objective < greedy.planned_cost - 1e-12 => {
                if let Some(r) = recorder {
                    r.incr("center.pipeline.refined", 1);
                }
                let windows = &outcome.solution.windows;
                let assignments = reports
                    .iter()
                    .zip(windows)
                    .map(|(r, &window)| Assignment {
                        household: r.household,
                        window,
                    })
                    .collect();
                AllocationOutcome {
                    assignments,
                    planned_load: LoadProfile::from_windows(windows, enki.config().rate()),
                    planned_cost: outcome.solution.objective,
                    // Flexibility scores and placement order are derived
                    // from the reports (Eq. 4), not from the windows, so
                    // the greedy mechanism's values remain the truth.
                    predicted_flexibility: greedy.predicted_flexibility,
                    placement_order: greedy.placement_order,
                }
            }
            Ok(_) => {
                if let Some(r) = recorder {
                    r.incr("center.pipeline.kept_greedy", 1);
                }
                greedy
            }
            Err(_) => {
                if let Some(r) = recorder {
                    r.incr("center.pipeline.failed", 1);
                }
                greedy
            }
        }
    }
}

/// Everything the center recorded about one settled day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayRecord {
    /// Day number.
    pub day: u64,
    /// Households that reported in time and were allocated.
    pub participants: Vec<HouseholdId>,
    /// Roster members whose reports never arrived.
    pub missing_reports: Vec<HouseholdId>,
    /// Participants whose meter readings never arrived (settled as
    /// cooperative).
    pub missing_readings: Vec<HouseholdId>,
    /// Households whose reports were quarantined by admission control.
    /// Those with a standing profile participated through it; the rest
    /// were excluded (and so also appear in `missing_reports`).
    pub quarantined: Vec<HouseholdId>,
    /// Participants whose reports were admitted only after clamping.
    pub clamped: Vec<HouseholdId>,
    /// The settlement, when at least one household participated.
    pub settlement: Option<Settlement>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DayInProgress {
    day: u64,
    report_deadline: Tick,
    meter_deadline: Tick,
    /// Raw reports as received; validated only at the report deadline,
    /// then cleared (so checkpoints never persist unvalidated floats).
    /// Retransmissions overwrite idempotently (last write wins), so the
    /// duplicate-household quarantine applies to *batches*, not retries.
    reports: BTreeMap<HouseholdId, RawPreference>,
    /// Admitted reports and the allocation computed from them.
    allocation: Option<(Vec<Report>, AllocationOutcome)>,
    readings: BTreeMap<HouseholdId, Interval>,
    last_day_start: Tick,
    /// Admission decisions for this day, fixed at the report deadline.
    quarantined: Vec<HouseholdId>,
    clamped: Vec<HouseholdId>,
}

/// A durable snapshot of the center's protocol state, written at phase
/// boundaries and restored by [`CenterAgent::recover`].
///
/// Serializable, so a deployment can persist it across process restarts;
/// [`CenterAgent::restore`] rebuilds an agent from a deserialized
/// checkpoint plus the static configuration (mechanism, roster, plan).
///
/// # Commit contract
///
/// The center mutates protocol state freely between phase boundaries,
/// but a checkpoint is only ever taken at one of four commit points:
/// day start, allocation (report deadline), settlement (meter
/// deadline), and empty-day close. Each commit is a complete,
/// self-consistent snapshot — never a delta — and bumps
/// [`CenterAgent::commit_seq`], so a persistence layer can detect
/// "a phase boundary passed" and write the new snapshot *behind* a
/// write-ahead barrier before acknowledging the phase (log → flush →
/// apply). States between commits are volatile by design: a crash
/// rolls back to the previous boundary, and the protocol's idempotent
/// message handling absorbs the replay. Checkpoints never contain
/// unvalidated floats in `current` (raw reports are cleared at the
/// report deadline), but `last_raw` intentionally preserves each
/// household's last submission verbatim — NaN and all — which is why
/// durable serialization uses the bit-exact snapshot codec rather
/// than JSON.
///
/// A checkpoint is cheap to take and to clone: the settled-day
/// history is shared, not copied, and only ever grows by appending.
///
/// The journal relies on that (see [`crate::durable`] for the record
/// kinds and layouts). It logs a commit as a `REC_CENTER` record: the
/// live state plus the records settled since the record's *base*, the
/// latest compaction (`REC_COMPACT`, which holds the whole history and
/// is written twice, so one rotted copy never orphans the records
/// relative to it). So a commit writes at most the days settled
/// within the last `compact_every` appends, never the whole season.
/// A checkpoint continues the logged history when its record at the
/// last logged index encodes to the bytes the journal logged there;
/// any other checkpoint is logged *full* — with no base, carrying its
/// whole history — as is every center record before the first
/// compaction and, until the next one, after a failed write. On
/// replay, a record whose base is gone (removed by a compaction a
/// crash interrupted, or both copies rotted) is *superseded* and
/// skipped, not corrupt; only a checksummed record that does not
/// decode is corrupt and fails the recovery audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CenterCheckpoint {
    next_day: u64,
    rng_state: [u64; 4],
    records: History,
    current: Option<DayInProgress>,
    /// The center's standing model of each household's demand: the last
    /// preference admission accepted (or clamped) from it. Used as the
    /// fallback when a household's report is quarantined.
    profiles: BTreeMap<HouseholdId, Preference>,
    /// The last *raw* preference each household ever submitted, kept
    /// across days so admission can flag bit-exact cross-day replays
    /// (a stuck or replaying reporter) without affecting verdicts.
    last_raw: BTreeMap<HouseholdId, RawPreference>,
}

impl CenterCheckpoint {
    /// The settled day records this checkpoint carries — what a
    /// post-recovery audit verifies against the mechanism invariants.
    #[must_use]
    pub fn records(&self) -> &[DayRecord] {
        &self.records.0
    }

    /// The day the restored center will run next.
    #[must_use]
    pub fn next_day(&self) -> u64 {
        self.next_day
    }

    /// The checkpoint minus its settled records — everything a commit
    /// changes — in the bit-exact snapshot encoding.
    pub(crate) fn encode_live(&self) -> Vec<u8> {
        snapshot::encode(&LiveView(self))
    }

    /// Reassembles a checkpoint from a decoded live state and its
    /// settled records.
    pub(crate) fn from_parts(live: LiveState, records: Vec<DayRecord>) -> Self {
        Self {
            next_day: live.next_day,
            rng_state: live.rng_state,
            records: History(Arc::new(records)),
            current: live.current,
            profiles: live.profiles,
            last_raw: live.last_raw,
        }
    }
}

/// A checkpoint's settled-day records, shared copy-on-write between
/// the center and the checkpoints it hands out. The center appends in
/// place as long as no handed-out checkpoint still holds the records.
/// Serializes as the plain record list.
#[derive(Debug, Clone, Default, PartialEq)]
struct History(Arc<Vec<DayRecord>>);

impl History {
    fn push(&mut self, record: DayRecord) {
        Arc::make_mut(&mut self.0).push(record);
    }
}

impl Serialize for History {
    fn serialize_value(&self) -> Value {
        self.0.serialize_value()
    }
}

impl Deserialize for History {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Self(Arc::new(Vec::deserialize_value(value)?)))
    }
}

/// Borrowed view of a checkpoint's live state, serialized with the same
/// field names as the checkpoint itself (minus `records`).
struct LiveView<'a>(&'a CenterCheckpoint);

impl Serialize for LiveView<'_> {
    fn serialize_value(&self) -> Value {
        let c = self.0;
        Value::Object(vec![
            ("next_day".to_string(), c.next_day.serialize_value()),
            ("rng_state".to_string(), c.rng_state.serialize_value()),
            ("current".to_string(), c.current.serialize_value()),
            ("profiles".to_string(), c.profiles.serialize_value()),
            ("last_raw".to_string(), c.last_raw.serialize_value()),
        ])
    }
}

/// A checkpoint's live state, decoded from a
/// [`CenterCheckpoint::encode_live`] image.
#[derive(Deserialize)]
pub(crate) struct LiveState {
    next_day: u64,
    rng_state: [u64; 4],
    current: Option<DayInProgress>,
    profiles: BTreeMap<HouseholdId, Preference>,
    last_raw: BTreeMap<HouseholdId, RawPreference>,
}

impl LiveState {
    /// Decodes a live-state image; `None` when it is malformed.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        snapshot::decode(bytes)
    }
}

/// Ticks between repeated `DayStart` broadcasts to households that have
/// not reported yet.
const REBROADCAST_INTERVAL: Tick = 5;

/// The center agent.
#[derive(Debug)]
pub struct CenterAgent {
    enki: Enki,
    roster: Vec<HouseholdId>,
    plan: DayPlan,
    rng: StdRng,
    next_day: u64,
    current: Option<DayInProgress>,
    profiles: BTreeMap<HouseholdId, Preference>,
    last_raw: BTreeMap<HouseholdId, RawPreference>,
    /// The last commit. Its history doubles as the live record list:
    /// records are only ever appended right before a commit.
    durable: CenterCheckpoint,
    /// Monotone count of phase-boundary commits over the agent's
    /// lifetime (not protocol state: survives crashes, not persisted).
    commit_seq: u64,
    down: bool,
    /// Optional telemetry: admission counters, phase timings, day
    /// outcomes. `None` records nothing and costs nothing.
    recorder: Option<Recorder>,
    /// Seed for deriving deterministic [`TraceContext`]s. Static
    /// configuration (like `plan`): not checkpointed, defaults to 0.
    trace_seed: u64,
    /// Optional allocation refinement through the solver pipeline.
    /// Static configuration (like `plan`), not protocol state: it is not
    /// checkpointed and must be re-supplied on [`CenterAgent::restore`].
    pipeline: Option<PipelineConfig>,
}

impl CenterAgent {
    /// Creates a center driving the given roster.
    ///
    /// # Panics
    ///
    /// Panics if the plan's deadlines are not strictly ordered.
    #[must_use]
    pub fn new(enki: Enki, roster: Vec<HouseholdId>, plan: DayPlan, seed: u64) -> Self {
        assert!(plan.is_valid(), "day plan deadlines must be ordered");
        let rng = StdRng::seed_from_u64(seed);
        let durable = CenterCheckpoint {
            next_day: 0,
            rng_state: rng.state(),
            records: History::default(),
            current: None,
            profiles: BTreeMap::new(),
            last_raw: BTreeMap::new(),
        };
        Self {
            enki,
            roster,
            plan,
            rng,
            next_day: 0,
            current: None,
            profiles: BTreeMap::new(),
            last_raw: BTreeMap::new(),
            durable,
            commit_seq: 0,
            down: false,
            recorder: None,
            trace_seed: 0,
            pipeline: None,
        }
    }

    /// Enables allocation refinement: at each report deadline the greedy
    /// outcome is handed to the anytime solver pipeline and replaced when
    /// the pipeline finds a strictly cheaper schedule. See
    /// [`PipelineConfig`] for the determinism contract.
    #[must_use]
    pub fn with_pipeline(mut self, config: PipelineConfig) -> Self {
        self.pipeline = Some(config);
        self
    }

    /// The configured refinement pipeline, if any.
    #[must_use]
    pub fn pipeline(&self) -> Option<PipelineConfig> {
        self.pipeline
    }

    /// Rebuilds a center from a previously persisted checkpoint plus the
    /// static configuration. The result is up and resumes exactly where
    /// the checkpoint left off.
    ///
    /// # Panics
    ///
    /// Panics if the plan's deadlines are not strictly ordered.
    #[must_use]
    pub fn restore(
        enki: Enki,
        roster: Vec<HouseholdId>,
        plan: DayPlan,
        checkpoint: CenterCheckpoint,
    ) -> Self {
        assert!(plan.is_valid(), "day plan deadlines must be ordered");
        Self {
            enki,
            roster,
            plan,
            rng: StdRng::from_state(checkpoint.rng_state),
            next_day: checkpoint.next_day,
            current: checkpoint.current.clone(),
            profiles: checkpoint.profiles.clone(),
            last_raw: checkpoint.last_raw.clone(),
            durable: checkpoint,
            commit_seq: 0,
            down: false,
            recorder: None,
            trace_seed: 0,
            pipeline: None,
        }
    }

    /// Attaches a telemetry recorder. The center emits admission
    /// counters (`center.admission.*`), day-outcome counters
    /// (`center.day.*`), and allocate/settle latency histograms.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Sets the seed from which the center derives deterministic
    /// [`TraceContext`]s — the same run seed the households use, so
    /// both ends of the wire derive identical causal ids.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// The mechanism this center runs (e.g. so an oracle can verify
    /// settlements against its configuration).
    #[must_use]
    pub fn enki(&self) -> &Enki {
        &self.enki
    }

    /// The center's network address.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        NodeId::Center
    }

    /// The households this center drives.
    #[must_use]
    pub fn roster(&self) -> &[HouseholdId] {
        &self.roster
    }

    /// Settled day records so far (none while crashed).
    #[must_use]
    pub fn records(&self) -> &[DayRecord] {
        if self.down {
            &[]
        } else {
            self.durable.records()
        }
    }

    /// The last committed checkpoint, by reference — for inspection.
    /// Use [`CenterAgent::snapshot`] when the checkpoint must outlive
    /// the borrow (e.g. to hand it to a durability layer).
    #[must_use]
    pub fn checkpoint(&self) -> &CenterCheckpoint {
        &self.durable
    }

    /// An owned copy of the last committed checkpoint: the one
    /// snapshot API both persistence ([`crate::durable::Journal`])
    /// and recovery paths share, so "what gets written" and "what
    /// gets restored" can never drift apart. The settled records are
    /// shared, not copied; drop the snapshot before the next
    /// settlement, or that settlement copies the history once.
    #[must_use]
    pub fn snapshot(&self) -> CenterCheckpoint {
        self.durable.clone()
    }

    /// How many phase-boundary commits have happened over this
    /// agent's lifetime. A persistence layer polls this after each
    /// tick: a change means the durable checkpoint is new and must be
    /// logged (see the [`CenterCheckpoint`] commit contract).
    #[must_use]
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Whether the center is currently crashed.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Commits the current in-memory state as the durable checkpoint.
    /// Called at phase boundaries only.
    fn commit(&mut self) {
        let durable = &mut self.durable;
        durable.next_day = self.next_day;
        durable.rng_state = self.rng.state();
        durable.current.clone_from(&self.current);
        durable.profiles.clone_from(&self.profiles);
        durable.last_raw.clone_from(&self.last_raw);
        self.commit_seq += 1;
    }

    /// Appends a closed day's record to the history. Always followed
    /// by [`CenterAgent::commit`] in the same tick.
    fn record_day(&mut self, record: DayRecord) {
        self.durable.records.push(record);
    }

    /// Simulates a process crash: all in-memory protocol state is wiped.
    /// The agent ignores messages and ticks until [`CenterAgent::recover`].
    pub fn crash(&mut self) {
        self.down = true;
        self.current = None;
        self.profiles = BTreeMap::new();
        self.last_raw = BTreeMap::new();
        self.next_day = 0;
        self.rng = StdRng::seed_from_u64(0);
    }

    /// Restarts after a crash, restoring protocol state — including the
    /// allocation RNG — from the last durable checkpoint.
    pub fn recover(&mut self) {
        let checkpoint = self.snapshot();
        self.recover_from(checkpoint);
    }

    /// Restarts from an externally recovered checkpoint (e.g. one
    /// replayed out of a write-ahead log), adopting it as the durable
    /// state. [`CenterAgent::recover`] is exactly this applied to the
    /// agent's own [`CenterAgent::snapshot`] — one restore path, two
    /// sources.
    pub fn recover_from(&mut self, checkpoint: CenterCheckpoint) {
        self.down = false;
        self.next_day = checkpoint.next_day;
        self.rng = StdRng::from_state(checkpoint.rng_state);
        self.current = checkpoint.current.clone();
        self.profiles = checkpoint.profiles.clone();
        self.last_raw = checkpoint.last_raw.clone();
        self.durable = checkpoint;
    }

    /// The center's standing model of a household's demand: the last
    /// preference admission accepted (or clamped) from it, if any.
    #[must_use]
    pub fn standing_profile(&self, household: HouseholdId) -> Option<Preference> {
        self.profiles.get(&household).copied()
    }

    /// Substitutes the center's standing profile for a household whose
    /// fresh report was shed upstream (e.g. by an overloaded ingestion
    /// front end that classified it replaceable). The profile enters the
    /// day exactly as a submitted report would — idempotently, and only
    /// while reports for `day` are still open. A later real report from
    /// the household overwrites it (last write wins).
    ///
    /// Returns whether a profile was submitted: `false` when the center
    /// is down, the day does not match or already allocated, the
    /// household is unknown, or no standing profile exists.
    pub fn submit_standing(&mut self, day: u64, household: HouseholdId) -> bool {
        if self.down || !self.roster.contains(&household) {
            return false;
        }
        let Some(profile) = self.profiles.get(&household).copied() else {
            return false;
        };
        let Some(current) = self.current.as_mut() else {
            return false;
        };
        if day != current.day || current.allocation.is_some() {
            return false;
        }
        current.reports.entry(household).or_insert(profile.into());
        if let Some(r) = self.recorder.as_ref() {
            r.incr("center.admission.standing_submitted", 1);
        }
        true
    }

    /// Handles a delivered message.
    ///
    /// Handling is idempotent per day and phase: duplicate reports and
    /// readings overwrite identically, messages for a day other than the
    /// one in progress are ignored, and messages for a phase that already
    /// closed (reports after allocation, readings before it) are ignored.
    pub fn on_message(
        &mut self,
        _now: Tick,
        from: NodeId,
        message: Message,
        _outbox: &mut Vec<Envelope>,
    ) {
        if self.down {
            return;
        }
        let NodeId::Household(household) = from else {
            return;
        };
        if !self.roster.contains(&household) {
            return; // unknown sender: never let it into an allocation
        }
        let Some(current) = self.current.as_mut() else {
            return;
        };
        match message {
            Message::SubmitReport { day, preference }
                if day == current.day && current.allocation.is_none() => {
                    current.reports.insert(household, preference);
                }
            Message::MeterReading { day, window }
                if day == current.day && current.allocation.is_some() => {
                    current.readings.insert(household, window);
                }
            _ => {}
        }
    }

    /// Advances the protocol: starts days, allocates at the report
    /// deadline, settles at the meter deadline. Each transition commits
    /// a durable checkpoint before its messages leave the outbox queue.
    pub fn on_tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        if self.down {
            return;
        }
        // Start a new day once its boundary has been reached. The
        // common case hits the boundary tick exactly; the `>=` form
        // also catches a center that comes back from crash recovery
        // just after a boundary — the missed day then starts late,
        // with its deadlines re-anchored to the present tick, instead
        // of being silently skipped.
        if self.current.is_none() && now / self.plan.day_length.max(1) >= self.next_day {
            let day = self.next_day;
            debug_assert!(
                self.durable.records().iter().all(|r| r.day != day),
                "a recorded day must never restart"
            );
            self.next_day += 1;
            let report_deadline = now + self.plan.report_offset;
            let meter_deadline = now + self.plan.meter_offset;
            self.current = Some(DayInProgress {
                day,
                report_deadline,
                meter_deadline,
                reports: BTreeMap::new(),
                allocation: None,
                readings: BTreeMap::new(),
                last_day_start: now,
                quarantined: Vec::new(),
                clamped: Vec::new(),
            });
            self.commit();
            if let Some(r) = self.recorder.as_ref() {
                r.incr("center.day.started", 1);
            }
            let day_start_ctx = TraceContext::day_root(self.trace_seed, day).child("day_start");
            for &h in &self.roster {
                outbox.push(Envelope {
                    from: NodeId::Center,
                    to: NodeId::Household(h),
                    message: Message::DayStart {
                        day,
                        report_deadline,
                        meter_deadline,
                    },
                    trace: Some(day_start_ctx),
                });
            }
            return;
        }

        let Some(current) = self.current.as_mut() else {
            return;
        };

        // Re-broadcast DayStart to silent households while reports are
        // still open — the original broadcast may have been lost.
        if current.allocation.is_none()
            && now < current.report_deadline
            && now >= current.last_day_start + REBROADCAST_INTERVAL
        {
            current.last_day_start = now;
            let day_start_ctx =
                TraceContext::day_root(self.trace_seed, current.day).child("day_start");
            for &h in &self.roster {
                if !current.reports.contains_key(&h) {
                    outbox.push(Envelope {
                        from: NodeId::Center,
                        to: NodeId::Household(h),
                        message: Message::DayStart {
                            day: current.day,
                            report_deadline: current.report_deadline,
                            meter_deadline: current.meter_deadline,
                        },
                        trace: Some(day_start_ctx),
                    });
                }
            }
        }

        // Allocate once the report deadline passes. The raw batch runs
        // through admission control exactly once, here; the decisions are
        // fixed for the day and the raw floats never outlive this tick.
        if current.allocation.is_none() && now >= current.report_deadline {
            let allocate_started = self.recorder.as_ref().map(enki_telemetry::Recorder::now);
            let day = current.day;
            let raw: Vec<RawReport> = current
                .reports
                .iter()
                .map(|(&h, &p)| RawReport::new(h, p))
                .collect();
            current.reports.clear();
            // Admission sees each household's previous-day raw so exact
            // cross-day replays are flagged (counted below; verdicts are
            // unaffected — stable routines legitimately resend).
            let last_raw = &self.last_raw;
            let admission = self
                .enki
                .admit_with_history(&raw, |h| last_raw.get(&h).copied());
            for r in &raw {
                self.last_raw.insert(r.household, r.preference);
            }
            // Every admitted preference refreshes the center's standing
            // model of that household's demand — the quarantine fallback.
            for entry in &admission.entries {
                if let Some(p) = entry.admitted {
                    self.profiles.insert(entry.household, p);
                }
            }
            let profiles = &self.profiles;
            let reports = admission.admitted_with_fallback(|h| profiles.get(&h).copied());
            current.quarantined = admission.quarantined().map(|e| e.household).collect();
            current.clamped = admission.clamped().map(|e| e.household).collect();
            if let Some(r) = self.recorder.as_ref() {
                let quarantined = current.quarantined.len() as u64;
                let clamped = current.clamped.len() as u64;
                let accepted = (raw.len() as u64).saturating_sub(quarantined + clamped);
                r.incr("center.admission.accepted", accepted);
                r.incr("center.admission.clamped", clamped);
                r.incr("center.admission.quarantined", quarantined);
                r.incr(
                    "center.admission.cross_day_replay",
                    admission.cross_day_replays() as u64,
                );
                r.gauge("center.day.participants", reports.len() as f64);
                // One point span per admitted household at the `admit`
                // stage of its report's causal chain.
                for report in &reports {
                    let ctx = TraceContext::report_stage(
                        self.trace_seed,
                        day,
                        u64::from(report.household.index()),
                        stage::ADMIT,
                    );
                    drop(r.span_with_trace("center.admit", ctx));
                }
            }
            if reports.is_empty() {
                // Nobody reported, or nothing survived admission with a
                // usable fallback: close the day with an empty record.
                let record = DayRecord {
                    day,
                    participants: Vec::new(),
                    missing_reports: self.roster.clone(),
                    missing_readings: Vec::new(),
                    quarantined: std::mem::take(&mut current.quarantined),
                    clamped: std::mem::take(&mut current.clamped),
                    settlement: None,
                };
                self.record_day(record);
                self.current = None;
                self.commit();
                if let Some(r) = self.recorder.as_ref() {
                    r.incr("center.day.empty", 1);
                }
                return;
            }
            match self.enki.allocate(&reports, &mut self.rng) {
                Ok(outcome) => {
                    // Refinement draws its seed from the checkpointed RNG
                    // stream inside the same tick that commits the
                    // allocation, so a crash-recovered center replays the
                    // draw and re-derives the same refined windows.
                    let outcome = match self.pipeline {
                        Some(cfg) => {
                            let seed = self.rng.random();
                            // The solve hangs off the day root (shared by
                            // every household): push it as the ambient
                            // context so the pipeline's spans parent on it.
                            let solve_ctx =
                                TraceContext::day_root(self.trace_seed, day).child("solve");
                            if let Some(r) = self.recorder.as_ref() {
                                r.push_trace(solve_ctx);
                            }
                            let refined = cfg.refine(
                                &self.enki,
                                &reports,
                                outcome,
                                seed,
                                self.recorder.as_ref(),
                            );
                            if let Some(r) = self.recorder.as_ref() {
                                let _ = r.pop_trace();
                            }
                            refined
                        }
                        None => outcome,
                    };
                    let assignments = outcome.assignments.clone();
                    current.allocation = Some((reports, outcome));
                    self.commit();
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("center.day.allocated", 1);
                        if let Some(started) = allocate_started {
                            r.observe_duration(
                                "center.allocate_ns",
                                r.now().saturating_sub(started),
                            );
                        }
                    }
                    for assignment in &assignments {
                        outbox.push(Envelope {
                            from: NodeId::Center,
                            to: NodeId::Household(assignment.household),
                            message: Message::Allocation {
                                day,
                                window: assignment.window,
                            },
                            trace: Some(
                                TraceContext::day_root(self.trace_seed, day).child_salted(
                                    "allocation",
                                    u64::from(assignment.household.index()),
                                ),
                            ),
                        });
                    }
                }
                Err(_) => {
                    // Unreachable with admitted reports (non-empty and
                    // duplicate-free), but a solver failure must close
                    // the day, not take the center down.
                    let record = DayRecord {
                        day,
                        participants: Vec::new(),
                        missing_reports: self.roster.clone(),
                        missing_readings: Vec::new(),
                        quarantined: std::mem::take(&mut current.quarantined),
                        clamped: std::mem::take(&mut current.clamped),
                        settlement: None,
                    };
                    self.record_day(record);
                    self.current = None;
                    self.commit();
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("center.day.allocation_failed", 1);
                    }
                }
            }
            return;
        }

        // Settle once the meter deadline passes.
        if now >= current.meter_deadline {
            let settle_started = self.recorder.as_ref().map(enki_telemetry::Recorder::now);
            if let Some((reports, outcome)) = current.allocation.take() {
                let mut missing_readings = Vec::new();
                let consumption: Vec<Interval> = reports
                    .iter()
                    .zip(&outcome.assignments)
                    .map(|(r, a)| match current.readings.get(&r.household) {
                        Some(&w) => w,
                        None => {
                            missing_readings.push(r.household);
                            a.window // smart-meter fallback: cooperative
                        }
                    })
                    .collect();
                let day = current.day;
                let quarantined = std::mem::take(&mut current.quarantined);
                let clamped = std::mem::take(&mut current.clamped);
                let participants: Vec<HouseholdId> =
                    reports.iter().map(|r| r.household).collect();
                let missing_reports: Vec<HouseholdId> = self
                    .roster
                    .iter()
                    .copied()
                    .filter(|h| !participants.contains(h))
                    .collect();
                // A settlement failure (unreachable with inputs aligned
                // by construction) closes the day unbilled rather than
                // taking the center down.
                let settlement = self.enki.settle(&reports, &outcome, &consumption).ok();
                self.record_day(DayRecord {
                    day,
                    participants,
                    missing_reports,
                    missing_readings,
                    quarantined,
                    clamped,
                    settlement: settlement.clone(),
                });
                self.current = None;
                // The record and advanced state commit atomically with
                // billing: a crash after this point can never re-settle
                // the day or bill anyone twice.
                self.commit();
                if let Some(r) = self.recorder.as_ref() {
                    r.incr("center.day.settled", 1);
                    r.incr(
                        "center.readings.missing",
                        self.durable
                            .records()
                            .last()
                            .map_or(0, |rec| rec.missing_readings.len() as u64),
                    );
                    if let Some(started) = settle_started {
                        r.observe_duration("center.settle_ns", r.now().saturating_sub(started));
                    }
                    // One point span per settled household at the
                    // `settle` stage of its report's causal chain.
                    if let Some(rec) = self.durable.records().last() {
                        for &h in &rec.participants {
                            let ctx = TraceContext::report_stage(
                                self.trace_seed,
                                day,
                                u64::from(h.index()),
                                stage::SETTLE,
                            );
                            drop(r.span_with_trace("center.settle", ctx));
                        }
                    }
                }
                if let Some(settlement) = settlement {
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("center.bills.sent", settlement.entries.len() as u64);
                    }
                    for entry in &settlement.entries {
                        let ctx = TraceContext::report_stage(
                            self.trace_seed,
                            day,
                            u64::from(entry.household.index()),
                            stage::BILL,
                        );
                        if let Some(r) = self.recorder.as_ref() {
                            drop(r.span_with_trace("center.bill", ctx));
                        }
                        outbox.push(Envelope {
                            from: NodeId::Center,
                            to: NodeId::Household(entry.household),
                            message: Message::Bill {
                                day,
                                amount: entry.payment,
                            },
                            trace: Some(ctx),
                        });
                    }
                }
            } else {
                self.current = None;
                self.commit();
                if let Some(r) = self.recorder.as_ref() {
                    r.incr("center.day.unsettled", 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enki_core::config::EnkiConfig;

    fn center(n: u32) -> CenterAgent {
        CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..n).map(HouseholdId::new).collect(),
            DayPlan::default(),
            1,
        )
    }

    fn pref(b: f64, e: f64, v: f64) -> RawPreference {
        RawPreference::new(b, e, v)
    }

    #[test]
    fn day_plan_validation() {
        assert!(DayPlan::default().is_valid());
        assert!(!DayPlan {
            day_length: 10,
            report_offset: 8,
            meter_offset: 5,
        }
        .is_valid());
    }

    #[test]
    fn day_start_broadcasts_to_roster() {
        let mut c = center(3);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        assert_eq!(outbox.len(), 3);
        assert!(outbox
            .iter()
            .all(|e| matches!(e.message, Message::DayStart { day: 0, .. })));
    }

    #[test]
    fn reports_allocate_at_deadline() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        outbox.clear();
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox);
        let allocations: Vec<_> = outbox
            .iter()
            .filter(|e| matches!(e.message, Message::Allocation { .. }))
            .collect();
        assert_eq!(allocations.len(), 2);
    }

    #[test]
    fn pipeline_refinement_reaches_the_optimal_packing() {
        // Three 2-hour jobs sharing an 18–24 window pack disjointly; the
        // refined planned cost must hit that optimum and can never
        // exceed whatever the greedy mechanism planned.
        let drive = |pipeline: Option<PipelineConfig>| {
            let mut c = center(3);
            if let Some(cfg) = pipeline {
                c = c.with_pipeline(cfg);
            }
            let mut outbox = Vec::new();
            c.on_tick(0, &mut outbox);
            for i in 0..3u32 {
                c.on_message(
                    5,
                    NodeId::Household(HouseholdId::new(i)),
                    Message::SubmitReport {
                        day: 0,
                        preference: pref(18.0, 24.0, 2.0),
                    },
                    &mut outbox,
                );
            }
            c.on_tick(30, &mut outbox);
            let (_, outcome) = c.current.as_ref().unwrap().allocation.clone().unwrap();
            (outcome, c.enki.config().rate(), c.enki.config().sigma())
        };
        let (greedy, rate, sigma) = drive(None);
        let (refined, _, _) = drive(Some(PipelineConfig::default()));
        assert!(refined.planned_cost <= greedy.planned_cost + 1e-12);
        // Disjoint packing: 6 loaded hours at `rate` ⇒ κ = σ·6·rate².
        assert!(
            enki_core::float::approx_eq(refined.planned_cost, sigma * 6.0 * rate * rate),
            "refined cost {} is not the disjoint optimum",
            refined.planned_cost
        );
        assert_eq!(refined.assignments.len(), 3);
    }

    #[test]
    fn pipeline_refinement_replays_identically_after_crash_recovery() {
        // The refinement seed is drawn from the checkpointed RNG stream
        // inside the allocation tick, so a crash after allocation and a
        // recovery must settle the exact same records as an uncrashed run.
        let drive = |crash: bool| {
            let mut c = center(4).with_pipeline(PipelineConfig::default());
            let mut outbox = Vec::new();
            c.on_tick(0, &mut outbox);
            for i in 0..4u32 {
                c.on_message(
                    5,
                    NodeId::Household(HouseholdId::new(i)),
                    Message::SubmitReport {
                        day: 0,
                        preference: pref(17.0, 23.0, 2.0),
                    },
                    &mut outbox,
                );
            }
            c.on_tick(30, &mut outbox);
            if crash {
                c.crash();
                c.recover();
            }
            c.on_tick(70, &mut outbox);
            c.records().to_vec()
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn duplicate_reports_are_idempotent() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for _ in 0..5 {
            c.on_message(
                3,
                NodeId::Household(HouseholdId::new(0)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        outbox.clear();
        c.on_tick(30, &mut outbox);
        assert_eq!(
            outbox
                .iter()
                .filter(|e| matches!(e.message, Message::Allocation { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn off_roster_senders_are_ignored() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            3,
            NodeId::Household(HouseholdId::new(99)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        outbox.clear();
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert!(record.settlement.is_none(), "no roster member reported");
    }

    #[test]
    fn missing_reading_settles_as_cooperative() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox);
        // Only household 0 sends its reading.
        let alloc0 = outbox
            .iter()
            .find_map(|e| match (e.to, e.message) {
                (NodeId::Household(h), Message::Allocation { window, .. })
                    if h == HouseholdId::new(0) =>
                {
                    Some(window)
                }
                _ => None,
            })
            .unwrap();
        c.on_message(
            40,
            NodeId::Household(HouseholdId::new(0)),
            Message::MeterReading {
                day: 0,
                window: alloc0,
            },
            &mut outbox,
        );
        outbox.clear();
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.missing_readings, vec![HouseholdId::new(1)]);
        let st = record.settlement.as_ref().unwrap();
        assert!(st.entries.iter().all(|e| !e.defected));
        assert!(st.center_utility >= 0.0);
    }

    #[test]
    fn silent_household_is_excluded() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.missing_reports, vec![HouseholdId::new(1)]);
    }

    #[test]
    fn empty_day_closes_cleanly() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_tick(30, &mut outbox);
        let record = c.records().last().unwrap();
        assert!(record.settlement.is_none());
        assert_eq!(record.missing_reports.len(), 2);
        // The next day still starts.
        outbox.clear();
        c.on_tick(100, &mut outbox);
        assert!(outbox
            .iter()
            .all(|e| matches!(e.message, Message::DayStart { day: 1, .. })));
    }

    #[test]
    fn late_reports_are_ignored_after_allocation() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox); // allocates with household 0 only
        c.on_message(
            31,
            NodeId::Household(HouseholdId::new(1)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
    }

    #[test]
    fn crash_wipes_and_recovery_restores_phase_state() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox); // allocation phase boundary: committed
        c.crash();
        assert!(c.is_down());
        // Down: messages and ticks are inert.
        c.on_message(
            35,
            NodeId::Household(HouseholdId::new(0)),
            Message::MeterReading {
                day: 0,
                window: Interval::new(18, 20).unwrap(),
            },
            &mut outbox,
        );
        c.on_tick(40, &mut outbox);
        c.recover();
        assert!(!c.is_down());
        outbox.clear();
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.day, 0);
        assert_eq!(record.participants.len(), 2, "allocation survived the crash");
        // The reading sent while down was lost; both settle cooperative.
        assert_eq!(record.missing_readings.len(), 2);
        assert_eq!(
            outbox
                .iter()
                .filter(|e| matches!(e.message, Message::Bill { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn recovery_after_settlement_never_duplicates_records_or_bills() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox); // settles and commits atomically
        assert_eq!(c.records().len(), 1);
        c.crash();
        c.recover();
        outbox.clear();
        for t in 71..100 {
            c.on_tick(t, &mut outbox);
        }
        assert_eq!(c.records().len(), 1, "no duplicate record after recovery");
        assert!(
            !outbox.iter().any(|e| matches!(e.message, Message::Bill { .. })),
            "no re-billing after recovery"
        );
        // The next day starts normally.
        c.on_tick(100, &mut outbox);
        assert!(outbox
            .iter()
            .any(|e| matches!(e.message, Message::DayStart { day: 1, .. })));
    }

    #[test]
    fn malformed_report_is_quarantined_and_recorded() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(1)),
            Message::SubmitReport {
                day: 0,
                preference: pref(f64::NAN, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        // No standing profile yet, so the quarantined household sits out.
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.quarantined, vec![HouseholdId::new(1)]);
        assert!(record.missing_reports.contains(&HouseholdId::new(1)));
        let st = record.settlement.as_ref().unwrap();
        assert!(st.entries.iter().all(|e| e.household == HouseholdId::new(0)));
    }

    #[test]
    fn quarantined_household_falls_back_to_its_standing_profile() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        // Day 0: both report cleanly, establishing standing profiles.
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        // Day 1: household 1's ECC goes haywire.
        c.on_tick(100, &mut outbox);
        c.on_message(
            105,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 1,
                preference: pref(16.0, 20.0, 2.0),
            },
            &mut outbox,
        );
        c.on_message(
            105,
            NodeId::Household(HouseholdId::new(1)),
            Message::SubmitReport {
                day: 1,
                preference: pref(22.0, 18.0, f64::INFINITY),
            },
            &mut outbox,
        );
        c.on_tick(130, &mut outbox);
        c.on_tick(170, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.day, 1);
        // Household 1 still participates, through its day-0 profile.
        assert_eq!(
            record.participants,
            vec![HouseholdId::new(0), HouseholdId::new(1)]
        );
        assert_eq!(record.quarantined, vec![HouseholdId::new(1)]);
        assert!(record.missing_reports.is_empty());
        let st = record.settlement.as_ref().unwrap();
        assert_eq!(st.entries.len(), 2);
        assert!(st.center_utility >= -1e-9);
    }

    #[test]
    fn clamped_report_participates_and_is_recorded() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                // Out of horizon and fractional: admissible after clamping.
                preference: pref(17.5, 30.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.clamped, vec![HouseholdId::new(0)]);
        assert!(record.quarantined.is_empty());
        assert!(record.settlement.is_some());
    }

    #[test]
    fn all_quarantined_day_closes_without_settlement() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(f64::NAN, f64::NAN, f64::NAN),
                },
                &mut outbox,
            );
        }
        outbox.clear();
        c.on_tick(30, &mut outbox);
        let record = c.records().last().unwrap();
        assert!(record.settlement.is_none());
        assert_eq!(record.quarantined.len(), 2);
        assert_eq!(record.missing_reports.len(), 2);
        assert!(outbox.is_empty(), "nothing to allocate");
        // The next day starts normally.
        c.on_tick(100, &mut outbox);
        assert!(outbox
            .iter()
            .any(|e| matches!(e.message, Message::DayStart { day: 1, .. })));
    }

    #[test]
    fn standing_profiles_survive_crash_and_recovery() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        c.crash();
        c.recover();
        // Day 1: garbage report; the recovered profile must cover it.
        c.on_tick(100, &mut outbox);
        c.on_message(
            105,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 1,
                preference: pref(-3.0, 2.0, -1.0),
            },
            &mut outbox,
        );
        c.on_tick(130, &mut outbox);
        c.on_tick(170, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.quarantined, vec![HouseholdId::new(0)]);
        assert!(record.settlement.is_some());
    }

    #[test]
    fn checkpoint_roundtrips_through_serde() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox); // checkpoint now holds the allocation
        let json = serde_json::to_string(c.checkpoint()).unwrap();
        let back: CenterCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, c.checkpoint());

        // A center restored from the serialized checkpoint finishes the
        // day exactly like the original.
        let mut restored = CenterAgent::restore(
            Enki::new(EnkiConfig::default()),
            vec![HouseholdId::new(0), HouseholdId::new(1)],
            DayPlan::default(),
            back,
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        c.on_tick(70, &mut a);
        restored.on_tick(70, &mut b);
        assert_eq!(c.records(), restored.records());
        assert_eq!(a, b);
    }
}
