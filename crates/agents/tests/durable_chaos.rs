//! Crash-point chaos for the durability layer: the serve runtime
//! journaling through a fault-injected [`FaultStorage`], crashed at
//! every storage operation — plus torn writes, dropped flush barriers,
//! and bit rot — and recovered through the mandatory oracle audit.
//!
//! The schedule discipline mirrors `serve_chaos.rs`: every run is
//! deterministic, every recovery must leave zero oracle violations,
//! and the whole harness serializes to byte-identical JSONL traces.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use enki_agents::durable::{REC_CENTER, REC_COMPACT};
use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_durable::prelude::{
    BitRot, FaultPlan, FaultStorage, MemStorage, OpKind, Storage, StorageError, TornWrite,
    WalConfig,
};
use enki_serve::prelude::IngestConfig;
use enki_serve::snapshot;

const DAY: Tick = 100;
const DAYS: u64 = 2;
const HOUSEHOLDS: u32 = 3;
const SEED: u64 = 31;

fn journal_config() -> JournalConfig {
    // Small enough that compaction happens inside the run, so the
    // crash matrix covers mid-compaction operations too.
    JournalConfig {
        compact_every: 6,
        ..JournalConfig::default()
    }
}

fn runtime_with_journal(plan: FaultPlan) -> ServeRuntime {
    let (journal, state) = match Journal::open(FaultStorage::new(plan.clone()), journal_config()) {
        Ok(pair) => pair,
        Err(_) => {
            // The crash fired during boot, before the process held any
            // state. The reboot sees an empty disk with the crash
            // already spent — so reopen with it cleared.
            let rebooted = FaultPlan {
                crash_at_op: None,
                ..plan
            };
            Journal::open(FaultStorage::new(rebooted), journal_config()).expect("reboot opens")
        }
    };
    assert!(state.center.is_none(), "fresh journal holds nothing");
    runtime_over(journal)
}

/// The shared roster and producers, journaling through `journal`.
fn runtime_over(journal: Journal) -> ServeRuntime {
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..HOUSEHOLDS).map(HouseholdId::new).collect(),
        DayPlan::default(),
        SEED,
    );
    let mut rt =
        ServeRuntime::new(center, IngestConfig::default(), SEED).with_journal(journal);
    for i in 0..HOUSEHOLDS {
        rt.add_producer(ServeProducer::new(
            HouseholdId::new(i),
            RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
        ));
    }
    rt
}

/// Runs the full schedule, restarting the process one tick after any
/// storage-crash-induced outage (the "operator reboots promptly"
/// model). Returns the finished runtime.
fn run_to_completion(plan: FaultPlan) -> ServeRuntime {
    let mut rt = runtime_with_journal(plan);
    for _ in 0..DAYS * DAY {
        rt.run_ticks(1);
        if rt.is_down() {
            rt.recover();
        }
    }
    rt
}

fn assert_oracle_clean(rt: &ServeRuntime, label: &str) {
    let violations = check_invariant_parts(
        rt.records(),
        rt.center().roster(),
        &EnkiConfig::default(),
        rt.trace(),
    );
    assert!(violations.is_empty(), "{label}: violations {violations:?}");
}

fn assert_days_closed(rt: &ServeRuntime, label: &str) {
    let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
    assert_eq!(
        recorded,
        (0..DAYS).collect::<Vec<u64>>(),
        "{label}: days did not all close"
    );
}

/// The rehearsal run: no faults, journal attached. Establishes the
/// operation log the crash matrix iterates over, and that journaling
/// itself perturbs nothing.
#[test]
fn faultless_journaled_run_matches_oracle_and_compacts() {
    let rt = run_to_completion(FaultPlan::none());
    assert_days_closed(&rt, "faultless");
    assert_oracle_clean(&rt, "faultless");
    assert!(rt.recovery_errors().is_empty(), "{:?}", rt.recovery_errors());
    let journal = rt.journal().expect("journal attached");
    let stats = journal.stats();
    assert!(stats.appended > 0, "commits were journaled: {stats:?}");
    assert_eq!(stats.appended, stats.flushed, "every append was barriered");
    assert!(stats.compactions > 0, "compaction threshold was reached");
}

/// The full crash-point matrix. Every storage operation of the
/// rehearsal run becomes a crash site; appends additionally get torn
/// writes, flushes get dropped barriers, and every third op gets bit
/// rot ahead of the crash. Every single variant must recover into a
/// state with zero oracle violations and all days closed.
#[test]
fn every_crash_point_recovers_with_zero_oracle_violations() {
    let rehearsal = run_to_completion(FaultPlan::none());
    let ops: Vec<(u64, OpKind)> = rehearsal
        .journal()
        .expect("journal attached")
        .fault_storage()
        .expect("fault storage backend")
        .op_log()
        .iter()
        .map(|r| (r.op, r.kind.clone()))
        .collect();
    assert!(ops.len() >= 15, "rehearsal produced a real op log: {ops:?}");

    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    for (op, kind) in &ops {
        let op = *op;
        plans.push((
            format!("crash at op {op} ({kind:?})"),
            FaultPlan {
                crash_at_op: Some(op),
                ..FaultPlan::none()
            },
        ));
        if matches!(kind, OpKind::Append(_)) {
            plans.push((
                format!("torn write at op {op}"),
                FaultPlan {
                    torn_write: Some(TornWrite { op, keep: 3 }),
                    ..FaultPlan::none()
                },
            ));
        }
        if matches!(kind, OpKind::Flush) {
            plans.push((
                format!("dropped flush at op {op}, crash at {}", op + 1),
                FaultPlan {
                    dropped_flushes: vec![op],
                    crash_at_op: Some(op + 1),
                    ..FaultPlan::none()
                },
            ));
        }
        if op % 3 == 0 {
            plans.push((
                format!("bit rot at op {op}, crash at {}", op + 2),
                FaultPlan {
                    bit_rot: vec![BitRot {
                        op,
                        byte: op.wrapping_mul(7919),
                        bit: (op % 8) as u8,
                    }],
                    crash_at_op: Some(op + 2),
                    ..FaultPlan::none()
                },
            ));
        }
    }

    for (label, plan) in plans {
        let rt = run_to_completion(plan);
        assert_oracle_clean(&rt, &label);
        assert_days_closed(&rt, &label);
        // Recovery refusals (audit failures) are forbidden: corruption
        // may roll state back, never poison it.
        for err in rt.recovery_errors() {
            assert!(
                !err.contains("refused"),
                "{label}: audit refused recovered state: {err}"
            );
        }
    }
}

/// Crash ON the flush barrier: the append happened, the barrier did
/// not. The commit must roll back cleanly — write-ahead means the
/// phase's outputs were never released, so the rerun settles the day
/// exactly once.
#[test]
fn crash_between_append_and_flush_rolls_the_commit_back() {
    let rehearsal = run_to_completion(FaultPlan::none());
    let flush_ops: Vec<u64> = rehearsal
        .journal()
        .unwrap()
        .fault_storage()
        .unwrap()
        .op_log()
        .iter()
        .filter(|r| matches!(r.kind, OpKind::Flush))
        .map(|r| r.op)
        .collect();
    assert!(!flush_ops.is_empty());
    for &op in &flush_ops {
        let label = format!("crash on flush op {op}");
        let rt = run_to_completion(FaultPlan {
            crash_at_op: Some(op),
            ..FaultPlan::none()
        });
        assert_oracle_clean(&rt, &label);
        assert_days_closed(&rt, &label);
    }
}

/// Crash placed *after* a settlement commit's flush barrier (between
/// flush and the in-memory apply being acknowledged): nothing may be
/// lost — the recovered center resumes from the very commit that was
/// just flushed.
#[test]
fn crash_after_flush_preserves_the_committed_settlement() {
    let mut rt = runtime_with_journal(FaultPlan::none());
    // Run day 0 to settlement (the serve runtime settles around tick
    // 70 with the default plan), so a settled record is in the log.
    rt.run_ticks(85);
    assert_eq!(rt.records().len(), 1, "day 0 settled and committed");
    let settled_day0 = format!("{:?}", rt.records()[0]);
    rt.journal_mut()
        .unwrap()
        .fault_storage_mut()
        .unwrap()
        .enter_crash();
    // The next journal write fails, taking the process down; recovery
    // replays the log.
    rt.run_ticks(DAY);
    rt.recover();
    rt.run_ticks(DAYS * DAY);
    assert_eq!(
        format!("{:?}", rt.records()[0]),
        settled_day0,
        "the flushed settlement survived bit-exactly"
    );
    assert_oracle_clean(&rt, "crash after flush");
    assert!(rt.records().len() as u64 >= DAYS);
}

/// Crash in the middle of compaction — after the checkpoint segment is
/// durable but while old segments are being removed. The checkpoint
/// must win on replay and no history may be lost.
#[test]
fn mid_compaction_crash_keeps_the_checkpoint() {
    let rehearsal = run_to_completion(FaultPlan::none());
    let remove_ops: Vec<u64> = rehearsal
        .journal()
        .unwrap()
        .fault_storage()
        .unwrap()
        .op_log()
        .iter()
        .filter(|r| matches!(r.kind, OpKind::Remove))
        .map(|r| r.op)
        .collect();
    assert!(!remove_ops.is_empty(), "rehearsal compacted at least once");
    for &op in &remove_ops {
        let label = format!("crash on remove op {op}");
        let rt = run_to_completion(FaultPlan {
            crash_at_op: Some(op),
            ..FaultPlan::none()
        });
        assert_oracle_clean(&rt, &label);
        assert_days_closed(&rt, &label);
    }
}

/// Determinism under injected faults: the same fault plan produces
/// byte-identical JSONL traces, records, stats, and recovery logs.
#[test]
fn faulted_runs_are_byte_reproducible_jsonl() {
    let plans = [
        FaultPlan::none(),
        FaultPlan {
            crash_at_op: Some(9),
            ..FaultPlan::none()
        },
        FaultPlan::seeded(SEED, 200),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        let run = || {
            let rt = run_to_completion(plan.clone());
            let mut jsonl = String::new();
            for event in rt.trace() {
                jsonl.push_str(&serde_json::to_string(event).expect("trace serializes"));
                jsonl.push('\n');
            }
            (
                jsonl,
                format!("{:?}", rt.records()),
                format!("{:?}", rt.ingest_stats()),
                rt.recovery_errors().join("\n"),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "plan #{i}: JSONL traces must match byte-for-byte");
        assert_eq!(a.1, b.1, "plan #{i}: records diverged");
        assert_eq!(a.2, b.2, "plan #{i}: stats diverged");
        assert_eq!(a.3, b.3, "plan #{i}: recovery logs diverged");
        assert!(!a.0.is_empty());
    }
}

/// A seeded storm of every fault class at once — the "everything goes
/// wrong" soak. Whatever happens, the oracle stays green and the
/// runtime keeps closing days after recoveries.
#[test]
fn seeded_fault_storms_never_violate_the_oracle() {
    for seed in [3, 17, 91] {
        let plan = FaultPlan::seeded(seed, 300);
        let label = format!("storm seed {seed}");
        let rt = run_to_completion(plan);
        assert_oracle_clean(&rt, &label);
        for err in rt.recovery_errors() {
            assert!(
                !err.contains("refused"),
                "{label}: audit refused recovered state: {err}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Base-relative center records: interior rot, mid-compaction stale
// records, and the per-commit bound.
// ---------------------------------------------------------------------

/// A journaled runtime over fresh `storage`, for the longer runs below.
fn long_runtime(storage: impl Storage + 'static, config: JournalConfig) -> ServeRuntime {
    let (journal, _) = Journal::open(storage, config).expect("fresh storage opens");
    runtime_over(journal)
}

/// One WAL frame of a durable image.
#[derive(Debug)]
struct Frame {
    segment: String,
    /// Byte offset of the frame header within its segment.
    offset: usize,
    kind: u8,
    /// Payload length.
    len: usize,
}

const FRAME_HEADER: usize = 9;

/// Splits a durable image into its frames, segments in log order.
fn frames(image: &BTreeMap<String, Vec<u8>>) -> Vec<Frame> {
    let mut out = Vec::new();
    for (segment, bytes) in image {
        let mut offset = 0;
        while offset + FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            out.push(Frame {
                segment: segment.clone(),
                offset,
                kind: bytes[offset + 4],
                len,
            });
            offset += FRAME_HEADER + len;
        }
    }
    out
}

/// Opens a journal over a copy of `image` and returns what it recovered.
fn recover_image(image: &BTreeMap<String, Vec<u8>>) -> RecoveredState {
    let mut storage = MemStorage::new();
    for (name, bytes) in image {
        storage.put(name, bytes.clone());
    }
    let (_, state) = Journal::open(storage, JournalConfig::default()).expect("image opens");
    state
}

/// Bit-rot each center record of a long log in turn, and each copy of
/// the compaction they are relative to. The rotted record is
/// quarantined and recovery adopts the latest intact center record —
/// through the other copy of its base when a copy rotted — so no day
/// that record carries is lost and nothing is refused.
#[test]
fn interior_rot_of_any_center_record_recovers_the_latest_intact_one() {
    const LONG_DAYS: u64 = 22;
    let config = JournalConfig {
        wal: WalConfig {
            segment_max_bytes: 16 * 1024,
        },
        compact_every: 48,
    };
    let mut rt = long_runtime(FaultStorage::new(FaultPlan::none()), config);
    // The checkpoint behind every center record, in log order: the
    // runtime logs the center's snapshot on each tick its commit
    // sequence moves.
    let mut logged: Vec<CenterCheckpoint> = Vec::new();
    let mut seq = rt.center().commit_seq();
    for _ in 0..LONG_DAYS * DAY {
        rt.run_ticks(1);
        if rt.center().commit_seq() != seq {
            seq = rt.center().commit_seq();
            logged.push(rt.center().snapshot());
        }
    }
    assert_eq!(rt.records().len() as u64, LONG_DAYS);
    let image = rt
        .journal()
        .unwrap()
        .fault_storage()
        .unwrap()
        .durable_image();
    let all = frames(&image);
    assert_eq!(
        (all[0].kind, all[1].kind),
        (REC_COMPACT, REC_COMPACT),
        "the log starts at its base and the base's mirror"
    );
    let centers: Vec<&Frame> = all.iter().filter(|f| f.kind == REC_CENTER).collect();
    assert!(image.len() >= 3, "log spans {} segments", image.len());
    assert!(centers.len() >= 8, "{} center records on the base", centers.len());
    let expected = &logged[logged.len() - centers.len()..];

    let full = recover_image(&image);
    assert_eq!(full.superseded, 0);
    assert_eq!(
        snapshot::encode(full.center.as_ref().unwrap()),
        snapshot::encode(expected.last().unwrap()),
        "the intact log recovers the last commit"
    );

    for (i, frame) in centers.iter().enumerate() {
        let label = format!("rot center record {i} of {}", centers.len());
        let mut rotted = image.clone();
        let bytes = rotted.get_mut(&frame.segment).unwrap();
        bytes[frame.offset + FRAME_HEADER + frame.len / 2] ^= 0x10;
        let state = recover_image(&rotted);
        assert_eq!(state.quarantined, 1, "{label}");
        assert_eq!(state.undecodable, 0, "{label}");
        state
            .audit(rt.center().roster(), &EnkiConfig::default())
            .unwrap_or_else(|e| panic!("{label}: audit refused recovered state: {e}"));
        let latest_intact = if i + 1 == centers.len() {
            &expected[i - 1]
        } else {
            expected.last().unwrap()
        };
        let got = state.center.as_ref().unwrap();
        assert_eq!(
            snapshot::encode(got),
            snapshot::encode(latest_intact),
            "{label}: adopted state is not the latest intact record's"
        );
        let kept: Vec<u64> = got.records().iter().map(|r| r.day).collect();
        for later in &expected[i + 1..] {
            let days: Vec<u64> = later.records().iter().map(|r| r.day).collect();
            assert!(
                kept.starts_with(&days),
                "{label}: lost days of a later intact record: kept {kept:?}, later {days:?}"
            );
        }
    }

    // A rotted copy of the base: the other copy resolves every record
    // relative to it, so the last commit survives a cold reopen.
    for (i, frame) in all.iter().take(2).enumerate() {
        let label = format!("rot compaction copy {i}");
        let mut rotted = image.clone();
        let bytes = rotted.get_mut(&frame.segment).unwrap();
        bytes[frame.offset + FRAME_HEADER + frame.len / 2] ^= 0x10;
        let state = recover_image(&rotted);
        assert_eq!(state.quarantined, 1, "{label}");
        assert_eq!((state.undecodable, state.superseded), (0, 0), "{label}");
        state
            .audit(rt.center().roster(), &EnkiConfig::default())
            .unwrap_or_else(|e| panic!("{label}: audit refused recovered state: {e}"));
        let got = state
            .center
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: no center recovered"));
        assert_eq!(
            snapshot::encode(got),
            snapshot::encode(expected.last().unwrap()),
            "{label}: adopted state is not the last commit"
        );
    }
}

/// Crash at every segment removal of compactions that each remove
/// several segments. Records ahead of the new base whose own base is
/// already gone are stale: they count as superseded — never as
/// undecodable — the new base wins, and every day still closes.
#[test]
fn mid_compaction_crash_counts_stale_records_as_superseded() {
    const LONG_DAYS: u64 = 24;
    let config = JournalConfig {
        compact_every: 40,
        ..JournalConfig::default()
    };
    let run = |plan: FaultPlan| {
        let mut rt = long_runtime(FaultStorage::new(plan), config);
        let mut at_crash = None;
        for _ in 0..LONG_DAYS * DAY {
            rt.run_ticks(1);
            if rt.is_down() {
                let journal = rt.journal().unwrap();
                at_crash.get_or_insert_with(|| journal.fault_storage().unwrap().durable_image());
                rt.recover();
            }
        }
        (rt, at_crash)
    };
    let (rehearsal, _) = run(FaultPlan::none());
    let ops = rehearsal.journal().unwrap().fault_storage().unwrap().op_log();
    let remove_ops: Vec<u64> = ops
        .iter()
        .filter(|r| matches!(r.kind, OpKind::Remove))
        .map(|r| r.op)
        .collect();
    // Longest run of consecutive removals: one compaction's sweep.
    let widest = remove_ops
        .chunk_by(|a, b| b == &(a + 1))
        .map(<[u64]>::len)
        .max()
        .unwrap_or(0);
    assert!(
        rehearsal.journal().unwrap().stats().compactions >= 2 && widest >= 3,
        "rehearsal needs repeated compactions removing >= 3 segments (widest {widest})"
    );

    let mut superseded = 0;
    for &op in &remove_ops {
        let label = format!("crash on remove op {op}");
        let (rt, at_crash) = run(FaultPlan {
            crash_at_op: Some(op),
            ..FaultPlan::none()
        });
        let state = recover_image(&at_crash.expect("the crash fired"));
        assert_eq!(state.undecodable, 0, "{label}: {state:?}");
        state
            .audit(rt.center().roster(), &EnkiConfig::default())
            .unwrap_or_else(|e| panic!("{label}: audit refused recovered state: {e}"));
        superseded += state.superseded;
        for err in rt.recovery_errors() {
            assert!(!err.contains("refused"), "{label}: {err}");
        }
        assert_oracle_clean(&rt, &label);
        let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
        assert_eq!(recorded, (0..LONG_DAYS).collect::<Vec<u64>>(), "{label}");
    }
    assert!(superseded > 0, "some crash left stale records ahead of the new base");
}

/// Storage that records the kind and payload length of every frame
/// appended through it.
#[derive(Debug, Default)]
struct Tap {
    inner: MemStorage,
    appended: Rc<RefCell<Vec<(u8, usize)>>>,
}

impl Storage for Tap {
    fn segments(&mut self) -> Result<Vec<String>, StorageError> {
        self.inner.segments()
    }
    fn read(&mut self, segment: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(segment)
    }
    fn append(&mut self, segment: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.appended
            .borrow_mut()
            .push((bytes[4], bytes.len() - FRAME_HEADER));
        self.inner.append(segment, bytes)
    }
    fn flush(&mut self, segment: &str) -> Result<(), StorageError> {
        self.inner.flush(segment)
    }
    fn truncate(&mut self, segment: &str, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(segment, len)
    }
    fn remove(&mut self, segment: &str) -> Result<(), StorageError> {
        self.inner.remove(segment)
    }
}

/// What a center commit writes does not grow with the season: over a
/// 100-day run, the largest center record late in the season is no
/// larger than early on (compactions aside, which are the one place
/// the whole history is written).
#[test]
fn center_commit_size_does_not_grow_with_history() {
    const SEASON: u64 = 100;
    let tap = Tap::default();
    let appended = Rc::clone(&tap.appended);
    let mut rt = long_runtime(tap, JournalConfig::default());
    let mut largest = vec![0usize; SEASON as usize];
    for tick in 0..SEASON * DAY {
        rt.run_ticks(1);
        let day = (tick / DAY) as usize;
        for (kind, len) in appended.borrow_mut().drain(..) {
            if kind == REC_CENTER {
                largest[day] = largest[day].max(len);
            }
        }
    }
    assert_eq!(rt.records().len() as u64, SEASON);
    assert!(rt.journal().unwrap().stats().compactions >= 5);
    let early = largest[16..36].iter().copied().max().unwrap();
    let late = largest[80..100].iter().copied().max().unwrap();
    assert!(
        late * 4 <= early * 5,
        "center records grew with history: {late} bytes late vs {early} early"
    );
}
