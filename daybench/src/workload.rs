//! Workload definitions: neighbourhoods × days, generated from a seed.
//!
//! A workload's *round* is a fixed list of neighbourhoods, each run for
//! a fixed number of protocol days. The round is a pure function of the
//! `--seed` argument, so the same seed always replays the same inputs;
//! a run repeats the round until its time budget is spent.

use enki_agents::prelude::{CenterAgent, CrashSchedule, DayPlan, PipelineConfig, Tick};
use enki_core::config::EnkiConfig;
use enki_core::household::{HouseholdId, Preference};
use enki_core::load::LoadProfile;
use enki_core::mechanism::Enki;
use enki_core::time::Interval;
use enki_core::validation::RawPreference;
use enki_serve::prelude::{Backoff, IngestConfig};
use enki_sim::profile::{ProfileConfig, UsageProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ticks per protocol day ([`DayPlan::default`]).
pub const DAY: Tick = 100;

/// Offset within a day of a scheduled crash: after the meter deadline
/// (70), so the day's bills are already committed and nothing is in
/// flight.
const CRASH_OFFSET: Tick = 80;
/// Offset within a day at which a crashed center comes back.
const RECOVER_OFFSET: Tick = 85;

/// Profiles drawn per household of a representative neighbourhood.
const POOL: usize = 32;

/// The sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Households per neighbourhood.
    pub households: u32,
    /// Protocol days each neighbourhood runs before measuring starts.
    /// Its reports establish the center's standing profiles.
    pub warmup_days: u64,
    /// Measured protocol days each neighbourhood runs.
    pub days: u64,
    /// Neighbourhoods per round.
    pub neighbourhoods: u64,
    /// Identical frames each producer sends per attempt.
    pub burst: u32,
    /// The ingest front end's queue and drain sizes.
    pub ingest: IngestConfig,
    /// A crash and recovery after every this many days.
    pub crash_every: u64,
    /// Draw each neighbourhood as a systematic sample of a larger pool
    /// of profiles, so that one neighbourhood represents the profile
    /// distribution rather than one random draw from it.
    pub representative: bool,
}

impl Spec {
    /// The workload called `name`, at full size.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        let spec = match name {
            "solve_mix" => Self {
                name: "solve_mix",
                households: 64,
                warmup_days: 0,
                days: 1,
                neighbourhoods: 650,
                burst: 1,
                ingest: IngestConfig::default(),
                crash_every: 1,
                representative: false,
            },
            "season" => Self {
                name: "season",
                households: 16,
                warmup_days: 0,
                days: 100,
                neighbourhoods: 4,
                burst: 1,
                ingest: IngestConfig::default(),
                crash_every: 4,
                representative: true,
            },
            "flood" => Self {
                name: "flood",
                households: 32,
                warmup_days: 1,
                days: 1,
                neighbourhoods: 700,
                burst: 2,
                ingest: IngestConfig {
                    queue_capacity: 16,
                    drain_per_tick: 2,
                    backoff: Backoff::default(),
                },
                crash_every: 2,
                representative: true,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same workload shrunk for the benchmark's own tests. The queue
    /// and drain scale with the roster, so `flood` still overloads its
    /// front end.
    #[cfg(test)]
    #[must_use]
    pub fn smoke(self) -> Self {
        let households = self.households.min(24);
        let scale = |v: usize| (v * households as usize / self.households as usize).max(1);
        Self {
            households,
            days: self.days.min(4),
            neighbourhoods: self.neighbourhoods.min(2),
            crash_every: self.crash_every.min(2),
            ingest: IngestConfig {
                queue_capacity: scale(self.ingest.queue_capacity),
                drain_per_tick: scale(self.ingest.drain_per_tick),
                ..self.ingest
            },
            ..self
        }
    }

    /// The crash schedule of one neighbourhood.
    #[must_use]
    pub fn crashes(&self) -> Vec<CrashSchedule> {
        (0..self.warmup_days + self.days)
            .filter(|d| (d + 1) % self.crash_every == 0)
            .map(|d| CrashSchedule {
                crash_at: d * DAY + CRASH_OFFSET,
                recover_at: d * DAY + RECOVER_OFFSET,
            })
            .collect()
    }
}

/// The generated inputs of one neighbourhood.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbourhood {
    /// Seed of the center's allocation RNG and the front end's jitter.
    pub seed: u64,
    /// The preference each household reports every day: the wide
    /// interval of a §VI-A usage profile.
    pub preferences: Vec<Preference>,
    /// The same preferences as they go on the wire.
    pub reports: Vec<RawPreference>,
}

impl Neighbourhood {
    /// Neighbourhood `index` of the round for `seed`.
    #[must_use]
    pub fn generate(spec: &Spec, seed: u64, index: u64) -> Self {
        let seed = splitmix(seed ^ splitmix(index.wrapping_add(0x5eed)));
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ProfileConfig::default();
        let preferences: Vec<Preference> = if spec.representative {
            // Every POOL-th profile of a sorted pool of POOL × n draws,
            // starting at a seed-chosen offset.
            let mut pool: Vec<Preference> = (0..spec.households as usize * POOL)
                .map(|_| UsageProfile::generate(&mut rng, &config).wide())
                .collect();
            pool.sort_by_key(|p| (p.begin(), p.end(), p.duration()));
            let offset = usize::try_from(seed % POOL as u64).expect("offset below POOL");
            pool.into_iter().skip(offset).step_by(POOL).collect()
        } else {
            (0..spec.households)
                .map(|_| UsageProfile::generate(&mut rng, &config).wide())
                .collect()
        };
        let reports = preferences.iter().map(|&p| p.into()).collect();
        Self {
            seed,
            preferences,
            reports,
        }
    }

    /// The load of the as-reported schedule of `participants`: each
    /// household consuming from the begin of its reported window, as if
    /// no one coordinated. The baseline the mechanism's realized load is
    /// measured against.
    #[must_use]
    pub fn as_reported_load(&self, participants: &[HouseholdId]) -> LoadProfile {
        let windows: Vec<Interval> = participants
            .iter()
            .filter_map(|h| {
                let p = self.preferences.get(usize::try_from(h.index()).ok()?)?;
                p.window_at_deferment(0).ok()
            })
            .collect();
        LoadProfile::from_windows(&windows, enki().config().rate())
    }

    /// The roster: households `0..n`.
    #[must_use]
    pub fn roster(&self) -> Vec<HouseholdId> {
        (0..self.reports.len())
            .map(|i| HouseholdId::new(u32::try_from(i).expect("roster fits u32")))
            .collect()
    }

    /// A fresh center for this neighbourhood, with the production
    /// refinement pipeline on.
    #[must_use]
    pub fn center(&self) -> CenterAgent {
        CenterAgent::new(enki(), self.roster(), DayPlan::default(), self.seed)
            .with_pipeline(PipelineConfig::default())
    }
}

/// The mechanism every neighbourhood runs.
#[must_use]
pub fn enki() -> Enki {
    Enki::new(EnkiConfig::default())
}

/// SplitMix64 finaliser: spreads nearby seeds across the state space.
#[must_use]
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
