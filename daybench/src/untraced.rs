//! The untraced run: the production day path, timed from outside.
//!
//! Each neighbourhood is a [`ServeRuntime`] with the refinement
//! pipeline on and a [`Journal`] over [`MemStorage`] attached. The
//! bench advances it one tick at a time with `run_ticks(1)` and times
//! every tick with the repository's `MonotonicClock`; nothing inside
//! the program is instrumented.

use enki_agents::prelude::{Journal, JournalConfig, ServeProducer, ServeRuntime};
use enki_core::household::HouseholdId;
use enki_durable::prelude::MemStorage;
use enki_telemetry::{Clock, MonotonicClock};

use crate::workload::{Neighbourhood, Spec, DAY};

/// Offset of the report-deadline tick within a day.
const ALLOC_OFFSET: u64 = 30;
/// Offset of the meter-deadline tick within a day.
const BILL_OFFSET: u64 = 70;

/// What running one neighbourhood produced.
#[derive(Debug)]
pub struct NeighbourhoodRun {
    /// The runtime after its last tick: records, protocol trace and
    /// recovery errors.
    pub runtime: ServeRuntime,
    /// Wall time of each measured tick, seconds.
    pub tick_s: Vec<f64>,
}

/// A neighbourhood's runtime, assembled and ready for its first tick.
pub struct Prepared {
    spec: Spec,
    runtime: ServeRuntime,
}

/// Builds the runtime for a neighbourhood: center, front end,
/// producers, crash schedule and journal.
///
/// # Panics
///
/// Panics if the in-memory journal cannot be opened, which would be a
/// bug in the storage layer.
#[must_use]
pub fn prepare(spec: &Spec, hood: &Neighbourhood) -> Prepared {
    let (journal, _) = Journal::open(MemStorage::new(), JournalConfig::default())
        .expect("an empty in-memory journal opens");
    let mut runtime = ServeRuntime::new(hood.center(), spec.ingest, hood.seed)
        .with_crashes(spec.crashes())
        .with_journal(journal);
    for (i, raw) in hood.reports.iter().enumerate() {
        let household = HouseholdId::new(u32::try_from(i).expect("roster fits u32"));
        runtime.add_producer(ServeProducer::new(household, *raw).with_burst(spec.burst));
    }
    Prepared {
        spec: *spec,
        runtime,
    }
}

impl Prepared {
    /// Runs every day, timing each measured tick.
    #[must_use]
    pub fn run(self) -> NeighbourhoodRun {
        let Self { spec, mut runtime } = self;
        let clock = MonotonicClock::new();
        runtime.run_ticks(spec.warmup_days * DAY);
        let tick_s = (0..spec.days * DAY)
            .map(|_| {
                let started = clock.now();
                runtime.run_ticks(1);
                (clock.now() - started).as_secs_f64()
            })
            .collect();
        NeighbourhoodRun { runtime, tick_s }
    }
}

/// The walls of one neighbourhood's measured days, split the way the
/// end-to-end metrics read them.
#[derive(Debug, Default)]
pub struct Walls {
    /// Wall time of each measured protocol day (sum of its ticks),
    /// seconds.
    pub day_s: Vec<f64>,
    /// Wall time of each report-deadline tick, seconds.
    pub alloc_s: Vec<f64>,
    /// Wall time of each meter-deadline tick, seconds.
    pub bill_s: Vec<f64>,
    /// Wall time of each recovery tick, seconds.
    pub restart_s: Vec<f64>,
}

impl Walls {
    /// Splits the measured tick walls `tick_s` of a run of `spec`.
    #[must_use]
    pub fn of(spec: &Spec, tick_s: &[f64]) -> Self {
        let recover_ticks: Vec<u64> = spec.crashes().iter().map(|c| c.recover_at).collect();
        let mut walls = Self {
            day_s: tick_s
                .chunks(DAY as usize)
                .map(|day| day.iter().sum())
                .collect(),
            ..Self::default()
        };
        for (tick, &wall) in (spec.warmup_days * DAY..).zip(tick_s) {
            match tick % DAY {
                ALLOC_OFFSET => walls.alloc_s.push(wall),
                BILL_OFFSET => walls.bill_s.push(wall),
                _ if recover_ticks.contains(&tick) => walls.restart_s.push(wall),
                _ => {}
            }
        }
        walls
    }
}
