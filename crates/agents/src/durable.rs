//! The durability layer: routing the runtime's checkpoints through a
//! checksummed write-ahead log ([`enki_durable`]) and auditing what
//! comes back out.
//!
//! A [`Journal`] owns a [`Wal`] over an injectable
//! [`Storage`] backend — real files in deployment
//! ([`enki_durable::file::FileStorage`]), the deterministic
//! fault-injecting [`FaultStorage`] in chaos tests. Two record streams
//! share the log:
//!
//! * **center** records — the [`CenterCheckpoint`] taken at each
//!   protocol phase boundary (see the commit contract on that type);
//! * **ingest** records — the [`IngestCheckpoint`] the serve front
//!   end snapshots whenever its durable state changed this tick.
//!
//! Every log call is **append → flush → apply**: the record is durable
//! before the caller treats the state transition as committed.
//! Payloads travel through the bit-exact [`snapshot`] codec, because
//! center checkpoints legitimately carry NaN (`last_raw` preserves
//! household submissions verbatim) and JSON would reject them.
//!
//! ## Record format: center records are relative to a base
//!
//! The center's settled-day history grows by one record a day and is
//! never rewritten, so the journal does not re-log it on every commit.
//! Three record kinds share the log:
//!
//! * [`REC_COMPACT`] — a compaction: the full center checkpoint (live
//!   state plus every settled record) and the latest ingest
//!   checkpoint. [`Wal::compact`] writes it as the head of a fresh
//!   segment and removes every older one; the journal then appends a
//!   second copy, the *mirror*, which names the first by LSN.
//! * [`REC_CENTER`] — one center commit: the live state (`next_day`,
//!   RNG, `current`, `profiles`, `last_raw`) plus the settled records
//!   since the record's **base**, which it names by LSN together with
//!   the number of records the base holds. A center record that names
//!   no base carries the whole history and is itself a *full* record.
//! * [`REC_INGEST`] — an ingest checkpoint, always complete.
//!
//! **The base rule.** A center record's base is the latest compaction,
//! named by the LSN of its first copy; either copy serves. The journal
//! writes relative records only while it knows both copies are in the
//! log, and only for a checkpoint that continues the history it
//! logged: one whose record at the last logged index encodes to the
//! bytes logged there (one record encode per commit). Otherwise
//! center records are full: before the first compaction, and until
//! the next one after a failed write, after a recovery that found only
//! one copy of its base, or after a checkpoint of another history. So
//! a commit writes at most the days settled within the last
//! `compact_every` appends, however long the season; the full records
//! above follow only a fault or a change of history, and stop at the
//! next compaction.
//!
//! Layouts (integers little-endian; a *blob* is a `u32` length and
//! that many bytes; snapshot blobs use the [`snapshot`] codec):
//!
//! ```text
//! image   = live:blob  count:u32  record:blob × count
//! center  = 0u8 image                           (full)
//!         | 1u8 base:lsn base_len:u64 image     (relative: records from base_len on)
//! compact = 0u8 body                            (first copy)
//!         | 1u8 first:lsn body                  (mirror)
//! body    = (0u8 | 1u8 image)  (0u8 | 1u8 ingest:blob)
//! lsn     = segment:u64 offset:u64
//! ```
//!
//! Each settled record is encoded once, when it is first logged; the
//! journal keeps the encoded history and splices those bytes into
//! later records and compactions instead of re-encoding.
//!
//! ## Recovery is replay plus a mandatory audit
//!
//! [`Journal::open`] / [`Journal::recover`] replay the log under the
//! WAL's deterministic rules — torn tails truncated, corrupt records
//! quarantined — and reduce the surviving records to a
//! [`RecoveredState`]: the last ingest record wins, and the center is
//! the last center-bearing record that *resolves*: either copy of a
//! compaction, a full record, or a relative record with a copy of its
//! base in the log. A bit-rotted center record is quarantined and a
//! later record covers it; a rotted compaction copy is covered by the
//! other copy. A record whose base is gone is counted as
//! [`RecoveredState::superseded`], not as corrupt: a crash
//! mid-compaction can leave stale records ahead of the new base after
//! their old base was removed, and the new base, later in the log,
//! resolves. Only when both copies of a base rot are the records
//! relative to it lost too. Replay alone is not trusted:
//! [`RecoveredState::audit`] re-runs the chaos oracle's mechanism
//! invariants over the recovered settlement history and refuses —
//! [`enki_core::Error::RecoveryAudit`] — any state the mechanism
//! itself would reject. A CRC-valid record that no longer decodes is
//! [`enki_core::Error::CorruptCheckpoint`]: that is a codec/version
//! problem, not bit rot, and recovery must not guess around it.

use std::fmt;

use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_durable::prelude::{
    FaultStorage, Lsn, Recovery, Storage, Wal, WalConfig, WalError, WalStats,
};
use enki_serve::prelude::IngestCheckpoint;
use enki_serve::snapshot;
use enki_telemetry::Recorder;

use crate::center::{CenterCheckpoint, DayRecord, LiveState};
use crate::oracle;

/// WAL record kind: a center phase-boundary checkpoint, relative to
/// a base or full (see the module docs for the layout).
pub const REC_CENTER: u8 = 1;
/// WAL record kind: a serve front-end ingest checkpoint.
pub const REC_INGEST: u8 = 2;
/// WAL record kind: a compaction carrying both streams in full.
pub const REC_COMPACT: u8 = 3;

/// Journal sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Passed through to the WAL (segment rotation size).
    pub wal: WalConfig,
    /// Compact the log into a single checkpoint record after this many
    /// appends (`0` disables compaction). It also bounds what a center
    /// commit writes: the records settled since the last compaction.
    pub compact_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            wal: WalConfig::default(),
            compact_every: 64,
        }
    }
}

/// What a log replay reduced to: the latest durable checkpoint of each
/// stream, plus everything the recovery had to discard to get there.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// Latest center checkpoint, when the log holds one.
    pub center: Option<CenterCheckpoint>,
    /// Latest ingest checkpoint, when the log holds one.
    pub ingest: Option<IngestCheckpoint>,
    /// Whether a torn tail was truncated during the replay.
    pub torn_tail_truncated: bool,
    /// Corrupt WAL records (bad CRC, truncated interior) quarantined
    /// by the storage-level replay.
    pub quarantined: u64,
    /// CRC-valid records whose payload no longer decoded into the
    /// expected checkpoint shape. Always `0` in a healthy deployment;
    /// non-zero fails [`RecoveredState::audit`].
    pub undecodable: u64,
    /// Which stream first failed to decode (`"center"`, `"ingest"`,
    /// `"compaction"`, or `"unknown"` for an unrecognized kind tag).
    pub first_undecodable: Option<&'static str>,
    /// Valid records replayed (the recovered streams' combined length),
    /// superseded ones included.
    pub replayed: u64,
    /// Center records that decoded but whose base is no longer in the
    /// log (removed by a later compaction, or quarantined), so they
    /// could not be adopted. Not corruption: the audit accepts them.
    pub superseded: u64,
}

impl RecoveredState {
    /// The mandatory post-recovery audit. Recovered state is adopted
    /// only if (a) every surviving record decoded, and (b) the chaos
    /// oracle finds the recovered settlement history consistent with
    /// the mechanism invariants (budget balance, at-most-one bill,
    /// record ordering, ...).
    ///
    /// # Errors
    ///
    /// [`enki_core::Error::CorruptCheckpoint`] when a CRC-valid record
    /// failed to decode; [`enki_core::Error::RecoveryAudit`] when the
    /// recovered records violate a mechanism invariant.
    #[must_use = "an unchecked audit adopts possibly-corrupt recovered state"]
    pub fn audit(
        &self,
        roster: &[HouseholdId],
        config: &EnkiConfig,
    ) -> Result<(), enki_core::Error> {
        if self.undecodable > 0 {
            return Err(enki_core::Error::CorruptCheckpoint {
                kind: self.first_undecodable.unwrap_or("unknown"),
            });
        }
        let records = self.center.as_ref().map_or(&[][..], |c| c.records());
        let violations = oracle::check_parts(records, roster, config, &[]);
        if let Some(first) = violations.first() {
            return Err(enki_core::Error::RecoveryAudit {
                invariant: first.key().to_string(),
                violations: violations.len(),
            });
        }
        Ok(())
    }
}

/// The checkpoint journal: two record streams over one checksummed,
/// fault-injectable WAL. See the module docs for the protocol.
pub struct Journal {
    wal: Wal<Box<dyn Storage>>,
    config: JournalConfig,
    recorder: Option<Recorder>,
    /// Appends since the last compaction.
    appends_since_compact: u64,
    /// The center stream as last logged, for relative records and
    /// compaction payloads.
    center: Option<CenterLog>,
    /// The latest ingest checkpoint, encoded, for compaction payloads.
    last_ingest: Option<Vec<u8>>,
}

/// The journal's copy of the center stream: the encoded history and
/// the base the next center record is relative to.
struct CenterLog {
    /// Every settled record since genesis, each as a snapshot blob,
    /// back to back.
    history: Vec<u8>,
    /// Records in `history`.
    count: usize,
    /// Where the last record's bytes start in `history`.
    last: usize,
    /// The latest live state, encoded.
    live: Vec<u8>,
    /// The latest compaction of this history, when both its copies are
    /// in the log and it holds at least one settled record; `None`
    /// makes the next record full.
    base: Option<Base>,
}

/// A compaction still in the log that center records extend.
#[derive(Debug, Clone, Copy)]
struct Base {
    /// The LSN of its first copy.
    lsn: Lsn,
    /// Settled records the base holds.
    len: usize,
    /// Where records after the base start in [`CenterLog::history`].
    offset: usize,
}

impl CenterLog {
    /// A log of `checkpoint`'s whole history, with no base yet.
    fn new(checkpoint: &CenterCheckpoint) -> Self {
        let mut log = Self::empty(Vec::new());
        log.extend(checkpoint);
        log
    }

    fn empty(live: Vec<u8>) -> Self {
        Self {
            history: Vec::new(),
            count: 0,
            last: 0,
            live,
            base: None,
        }
    }

    /// Whether `checkpoint` continues the logged history: its record at
    /// the last logged index encodes to the bytes logged there.
    fn continued_by(&self, checkpoint: &CenterCheckpoint) -> bool {
        let Some(last) = self.count.checked_sub(1) else {
            return true;
        };
        checkpoint.records().get(last).is_some_and(|record| {
            self.history.get(self.last..) == Some(&snapshot::encode(record)[..])
        })
    }

    /// Appends one encoded record to the history.
    fn push(&mut self, blob: &[u8]) {
        put_u32(&mut self.history, blob.len());
        self.last = self.history.len();
        self.history.extend_from_slice(blob);
        self.count += 1;
    }

    /// Encodes the records settled since the last call, and the live
    /// state.
    fn extend(&mut self, checkpoint: &CenterCheckpoint) {
        for record in checkpoint.records().get(self.count..).unwrap_or_default() {
            self.push(&snapshot::encode(record));
        }
        self.live = checkpoint.encode_live();
    }

    /// The next [`REC_CENTER`] payload: relative to the base, or full.
    fn record(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self.base {
            Some(base) => {
                out.push(1);
                put_lsn(&mut out, base.lsn);
                put_u64(&mut out, base.len as u64);
                self.put_image(&mut out, base.len, base.offset);
            }
            None => {
                out.push(0);
                self.put_image(&mut out, 0, 0);
            }
        }
        out
    }

    /// Writes an image of the live state and the records from index
    /// `from` (starting at byte `offset` of the history) onward.
    fn put_image(&self, out: &mut Vec<u8>, from: usize, offset: usize) {
        let records = self.history.get(offset..).unwrap_or_default();
        out.reserve(self.live.len() + records.len() + 8);
        put_blob(out, &self.live);
        put_u32(out, self.count.saturating_sub(from));
        out.extend_from_slice(records);
    }

    /// Makes the compaction whose first copy is at `lsn` the base,
    /// unless the history is empty.
    fn rebase(&mut self, lsn: Lsn) {
        self.base = (self.count > 0).then_some(Base {
            lsn,
            len: self.count,
            offset: self.history.len(),
        });
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("config", &self.config)
            .field("stats", self.wal.stats())
            .field("appends_since_compact", &self.appends_since_compact)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens a journal over `storage`, replaying whatever it holds.
    /// The returned [`RecoveredState`] is **not yet audited** — call
    /// [`RecoveredState::audit`] before adopting it.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the backend fails during the replay.
    #[must_use = "dropping the recovered state loses the replayed checkpoints"]
    pub fn open(
        storage: impl Storage + 'static,
        config: JournalConfig,
    ) -> Result<(Self, RecoveredState), WalError> {
        let boxed: Box<dyn Storage> = Box::new(storage);
        let (wal, recovery) = Wal::open(boxed, config.wal)?;
        let replay = reduce(&recovery);
        let mut journal = Self {
            wal,
            config,
            recorder: None,
            appends_since_compact: 0,
            center: None,
            last_ingest: None,
        };
        let state = journal.adopt(replay);
        Ok((journal, state))
    }

    /// Attaches telemetry: `durable.*` counters and the recovery
    /// latency histogram.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Logs a center phase-boundary checkpoint: append → flush; the
    /// caller applies (acknowledges the phase) only after `Ok`. The
    /// record carries the live state and the records settled since
    /// the latest compaction (see the module docs); only records that
    /// were not logged before are encoded.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the record could not be made durable;
    /// the phase must then be treated as uncommitted.
    #[must_use = "an unlogged commit is not durable; check the error"]
    pub fn log_center(&mut self, checkpoint: &CenterCheckpoint) -> Result<Lsn, WalError> {
        let center = match self.center.take() {
            Some(mut log) if log.continued_by(checkpoint) => {
                log.extend(checkpoint);
                log
            }
            _ => CenterLog::new(checkpoint),
        };
        let payload = self.center.insert(center).record();
        let lsn = self.log(REC_CENTER, &payload)?;
        self.maybe_compact()?;
        Ok(lsn)
    }

    /// Logs a serve front-end ingest checkpoint: append → flush.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the record could not be made durable.
    #[must_use = "an unlogged commit is not durable; check the error"]
    pub fn log_ingest(&mut self, checkpoint: &IngestCheckpoint) -> Result<Lsn, WalError> {
        let payload = snapshot::encode(checkpoint);
        let lsn = self.log(REC_INGEST, &payload)?;
        self.last_ingest = Some(payload);
        self.maybe_compact()?;
        Ok(lsn)
    }

    /// Restart-and-replay: recovers the backend from any simulated
    /// crash, replays the log, and returns the (unaudited) recovered
    /// state. Observes the recovery latency histogram
    /// (`durable.recovery_ns`) when telemetry is attached.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the backend fails during the replay
    /// itself.
    #[must_use = "dropping the recovered state loses the replayed checkpoints"]
    pub fn recover(&mut self) -> Result<RecoveredState, WalError> {
        let started = self.recorder.as_ref().map(Recorder::now);
        let recovery = self.wal.reopen()?;
        let state = self.adopt(reduce(&recovery));
        if let (Some(r), Some(t0)) = (self.recorder.as_ref(), started) {
            r.incr("durable.recoveries", 1);
            r.observe_duration("durable.recovery_ns", r.now().saturating_sub(t0));
        }
        Ok(state)
    }

    /// WAL lifetime counters (appends, flush barriers, rotations,
    /// compactions).
    #[must_use]
    pub fn stats(&self) -> &WalStats {
        self.wal.stats()
    }

    /// Live segment count in the underlying WAL.
    #[must_use]
    pub fn live_segments(&self) -> u64 {
        self.wal.live_segments()
    }

    /// The fault-injecting backend, when this journal runs over one
    /// (chaos tests read injected-fault stats and place crashes
    /// through this).
    #[must_use]
    pub fn fault_storage(&self) -> Option<&FaultStorage> {
        self.wal.storage().as_any().and_then(|a| a.downcast_ref())
    }

    /// Mutable variant of [`Journal::fault_storage`].
    #[must_use]
    pub fn fault_storage_mut(&mut self) -> Option<&mut FaultStorage> {
        self.wal
            .storage_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut())
    }

    /// Continues from a replay: the next records extend what it
    /// recovered.
    fn adopt(&mut self, replay: Replay) -> RecoveredState {
        self.appends_since_compact = replay.state.replayed;
        self.center = replay.center;
        self.last_ingest = replay.ingest;
        self.note_recovery(&replay.state);
        replay.state
    }

    fn log(&mut self, kind: u8, payload: &[u8]) -> Result<Lsn, WalError> {
        let written = self.wal.append(kind, payload).and_then(|lsn| {
            self.wal.flush()?;
            Ok(lsn)
        });
        let lsn = self.unless_failed(written)?;
        self.appends_since_compact += 1;
        if let Some(r) = self.recorder.as_ref() {
            r.incr("durable.records_written", 1);
            r.incr("durable.records_flushed", 1);
            r.gauge("durable.segment_bytes", self.wal.segment_len() as f64);
        }
        Ok(lsn)
    }

    fn maybe_compact(&mut self) -> Result<(), WalError> {
        if self.config.compact_every == 0
            || self.appends_since_compact < self.config.compact_every
        {
            return Ok(());
        }
        let mut body = Vec::new();
        match self.center.as_ref() {
            Some(center) => {
                body.push(1);
                center.put_image(&mut body, 0, 0);
            }
            None => body.push(0),
        }
        match self.last_ingest.as_ref() {
            Some(ingest) => {
                body.push(1);
                put_blob(&mut body, ingest);
            }
            None => body.push(0),
        }
        let mut payload = Vec::with_capacity(body.len() + 17);
        payload.push(0);
        payload.extend_from_slice(&body);
        let compacted = self.wal.compact(REC_COMPACT, &payload);
        let lsn = self.unless_failed(compacted)?;
        if let Some(r) = self.recorder.as_ref() {
            r.incr("durable.compactions", 1);
        }
        // The mirror: a second copy, so that records relative to this
        // base outlive either copy rotting.
        payload.clear();
        payload.push(1);
        put_lsn(&mut payload, lsn);
        payload.extend_from_slice(&body);
        self.log(REC_COMPACT, &payload)?;
        self.appends_since_compact = 0;
        if let Some(center) = self.center.as_mut() {
            center.rebase(lsn);
        }
        Ok(())
    }

    /// After a failed write the log may hold anything up to and
    /// including the record (or have lost the base to a half-finished
    /// compaction), so the next center record is written full.
    fn unless_failed<T>(&mut self, result: Result<T, WalError>) -> Result<T, WalError> {
        if result.is_err() {
            if let Some(center) = self.center.as_mut() {
                center.base = None;
            }
        }
        result
    }

    fn note_recovery(&self, state: &RecoveredState) {
        if let Some(r) = self.recorder.as_ref() {
            r.incr("durable.replayed", state.replayed);
            r.incr("durable.quarantined", state.quarantined);
            r.incr("durable.undecodable", state.undecodable);
            r.incr("durable.superseded", state.superseded);
            r.incr("durable.torn_truncated", u64::from(state.torn_tail_truncated));
        }
    }
}

fn put_u32(out: &mut Vec<u8>, value: usize) {
    out.extend_from_slice(&u32::try_from(value).unwrap_or(u32::MAX).to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_lsn(out: &mut Vec<u8>, lsn: Lsn) {
    put_u64(out, lsn.segment);
    put_u64(out, lsn.offset);
}

fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Total (panic-free) reader over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u32(&mut self) -> Option<usize> {
        let bytes: [u8; 4] = self.take(4)?.try_into().ok()?;
        usize::try_from(u32::from_le_bytes(bytes)).ok()
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }

    fn lsn(&mut self) -> Option<Lsn> {
        Some(Lsn {
            segment: self.u64()?,
            offset: self.u64()?,
        })
    }

    fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        self.take(len)
    }

    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn image(&mut self) -> Option<Image<'a>> {
        let live = self.blob()?;
        let count = self.u32()?;
        let mut records = Vec::new();
        for _ in 0..count {
            records.push(self.blob()?);
        }
        Some(Image { live, records })
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// A center image parsed out of a payload, its blobs borrowed.
struct Image<'a> {
    live: &'a [u8],
    records: Vec<&'a [u8]>,
}

/// A parsed [`REC_CENTER`] payload: the base it names (LSN and record
/// count), if any, and its image.
fn parse_center(payload: &[u8]) -> Option<(Option<(Lsn, usize)>, Image<'_>)> {
    let mut r = Reader::new(payload);
    let base = if r.flag()? {
        let lsn = r.lsn()?;
        Some((lsn, usize::try_from(r.u64()?).ok()?))
    } else {
        None
    };
    let image = r.image()?;
    r.finished().then_some((base, image))
}

/// A parsed [`REC_COMPACT`] payload.
struct Compaction<'a> {
    /// The first copy's LSN, when this is the mirror.
    first: Option<Lsn>,
    /// Everything after the copy header: the same in both copies.
    body: &'a [u8],
    center: Option<Image<'a>>,
    ingest: Option<&'a [u8]>,
}

fn parse_compact(payload: &[u8]) -> Option<Compaction<'_>> {
    let mut r = Reader::new(payload);
    let first = if r.flag()? { Some(r.lsn()?) } else { None };
    let body = payload.get(r.pos..)?;
    let center = if r.flag()? { Some(r.image()?) } else { None };
    let ingest = if r.flag()? { Some(r.blob()?) } else { None };
    r.finished().then_some(Compaction {
        first,
        body,
        center,
        ingest,
    })
}

fn decode_records(blobs: &[&[u8]]) -> Option<Vec<DayRecord>> {
    blobs.iter().map(|blob| snapshot::decode(blob)).collect()
}

/// A replay, reduced: the recovered state plus what the journal needs
/// to continue the log.
struct Replay {
    state: RecoveredState,
    center: Option<CenterLog>,
    ingest: Option<Vec<u8>>,
}

/// A compaction found in the log: the base of the center records that
/// name it.
struct Compacted<'a> {
    /// The LSN of its first copy, by which records name it.
    lsn: Lsn,
    /// The payload after the copy header.
    body: &'a [u8],
    blobs: Vec<&'a [u8]>,
    records: Vec<DayRecord>,
    /// Intact copies of it in the log.
    copies: u32,
}

/// The newest center state a replay found that resolves: the records
/// of its base, if any, then its own.
struct Resolved<'a> {
    /// Index of the base in the replay's compactions. A compaction
    /// resolves as its own base with no records on top.
    base: Option<usize>,
    live: LiveState,
    live_blob: &'a [u8],
    blobs: Vec<&'a [u8]>,
    records: Vec<DayRecord>,
}

/// Reduces a raw WAL replay to the latest checkpoint of each stream.
fn reduce(recovery: &Recovery) -> Replay {
    let mut state = RecoveredState {
        torn_tail_truncated: recovery.torn_tail.is_some(),
        quarantined: recovery.quarantined.len() as u64,
        ..RecoveredState::default()
    };
    let fail = |state: &mut RecoveredState, kind: &'static str| {
        state.undecodable += 1;
        state.first_undecodable.get_or_insert(kind);
    };
    let mut bases: Vec<Compacted<'_>> = Vec::new();
    let mut latest: Option<Resolved<'_>> = None;
    let mut ingest: Option<(&[u8], IngestCheckpoint)> = None;
    for record in &recovery.records {
        match record.kind {
            REC_CENTER => {
                let decoded = parse_center(&record.payload).and_then(|(base, image)| {
                    let live = LiveState::decode(image.live)?;
                    let records = decode_records(&image.records)?;
                    Some((base, image, live, records))
                });
                let Some((base, image, live, records)) = decoded else {
                    fail(&mut state, "center");
                    continue;
                };
                state.replayed += 1;
                let base = match base {
                    None => None,
                    Some((lsn, len)) => {
                        let found = bases
                            .iter()
                            .rposition(|b| b.lsn == lsn && b.blobs.len() == len);
                        if found.is_none() {
                            state.superseded += 1;
                            continue;
                        }
                        found
                    }
                };
                latest = Some(Resolved {
                    base,
                    live,
                    live_blob: image.live,
                    blobs: image.records,
                    records,
                });
            }
            REC_INGEST => match snapshot::decode::<IngestCheckpoint>(&record.payload) {
                Some(i) => {
                    ingest = Some((&record.payload, i));
                    state.replayed += 1;
                }
                None => fail(&mut state, "ingest"),
            },
            REC_COMPACT => {
                let Some(compaction) = parse_compact(&record.payload) else {
                    fail(&mut state, "compaction");
                    continue;
                };
                let lsn = compaction.first.unwrap_or(record.lsn);
                // A copy of a compaction already replayed reuses its
                // decoded records.
                let copy_of = bases
                    .iter()
                    .rposition(|b| b.lsn == lsn && b.body == compaction.body);
                let center = compaction.center.map(|image| {
                    let live = LiveState::decode(image.live);
                    let records = match copy_of {
                        Some(_) => Some(Vec::new()),
                        None => decode_records(&image.records),
                    };
                    (image, live, records)
                });
                let ingest_decoded = compaction
                    .ingest
                    .map(|b| (b, snapshot::decode::<IngestCheckpoint>(b)));
                if matches!(center, Some((_, None, _) | (_, _, None)))
                    || matches!(ingest_decoded, Some((_, None)))
                {
                    fail(&mut state, "compaction");
                    continue;
                }
                state.replayed += 1;
                if let Some((image, Some(live), Some(records))) = center {
                    let at = copy_of.unwrap_or_else(|| {
                        bases.push(Compacted {
                            lsn,
                            body: compaction.body,
                            blobs: image.records,
                            records,
                            copies: 0,
                        });
                        bases.len() - 1
                    });
                    if let Some(base) = bases.get_mut(at) {
                        base.copies += 1;
                    }
                    latest = Some(Resolved {
                        base: Some(at),
                        live,
                        live_blob: image.live,
                        blobs: Vec::new(),
                        records: Vec::new(),
                    });
                }
                if let Some((blob, Some(i))) = ingest_decoded {
                    ingest = Some((blob, i));
                }
            }
            _ => fail(&mut state, "unknown"),
        }
    }
    let center = latest.map(|resolved| {
        let (checkpoint, log) = resume(resolved, &mut bases);
        state.center = Some(checkpoint);
        log
    });
    let ingest = ingest.map(|(blob, checkpoint)| {
        state.ingest = Some(checkpoint);
        blob.to_vec()
    });
    Replay {
        state,
        center,
        ingest,
    }
}

/// Rebuilds the resolved center checkpoint (base records plus its
/// own) and the journal's log of it. The next record extends the same
/// base while both its copies are in the log, and is full otherwise.
fn resume(resolved: Resolved<'_>, bases: &mut [Compacted<'_>]) -> (CenterCheckpoint, CenterLog) {
    let mut log = CenterLog::empty(resolved.live_blob.to_vec());
    let mut records = Vec::new();
    if let Some(base) = resolved.base.and_then(|at| bases.get_mut(at)) {
        for blob in &base.blobs {
            log.push(blob);
        }
        records = std::mem::take(&mut base.records);
        if base.copies >= 2 {
            log.rebase(base.lsn);
        }
    }
    for blob in &resolved.blobs {
        log.push(blob);
    }
    records.extend(resolved.records);
    (CenterCheckpoint::from_parts(resolved.live, records), log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::{CenterAgent, DayPlan};
    use crate::serve_runtime::{ServeProducer, ServeRuntime};
    use enki_core::mechanism::Enki;
    use enki_core::validation::RawPreference;
    use enki_durable::prelude::{FaultPlan, MemStorage};
    use enki_serve::prelude::IngestConfig;

    /// Runs a serve runtime to quiescence and hands back its center,
    /// whose snapshot then carries `days` settled records.
    fn settled(days: u64) -> ServeRuntime {
        settled_with(days, None)
    }

    /// [`settled`], journaling through `journal` when one is given.
    fn settled_with(days: u64, journal: Option<Journal>) -> ServeRuntime {
        let mut rt = runtime(journal);
        rt.run_days(days, 100);
        assert_eq!(rt.records().len() as u64, days);
        rt
    }

    fn roster() -> Vec<HouseholdId> {
        (0..4).map(HouseholdId::new).collect()
    }

    /// A serve runtime over four households, journaling through
    /// `journal` when one is given.
    fn runtime(journal: Option<Journal>) -> ServeRuntime {
        let center = CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            roster(),
            DayPlan::default(),
            7,
        );
        let mut rt = ServeRuntime::new(center, IngestConfig::default(), 7);
        if let Some(journal) = journal {
            rt = rt.with_journal(journal);
        }
        for i in 0..4 {
            rt.add_producer(ServeProducer::new(
                HouseholdId::new(i),
                RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
            ));
        }
        rt
    }

    #[test]
    fn empty_journal_opens_to_nothing() {
        let (journal, state) =
            Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
        assert!(state.center.is_none());
        assert!(state.ingest.is_none());
        assert_eq!(state.replayed, 0);
        assert!(state.audit(&[], &EnkiConfig::default()).is_ok());
        assert_eq!(journal.stats().appended, 0);
    }

    #[test]
    fn last_center_record_wins_and_passes_audit() {
        let early_rt = settled(1);
        let rt = settled(2);
        let center = rt.center();
        let (mut journal, _) =
            Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
        journal.log_center(&early_rt.center().snapshot()).unwrap();
        journal.log_center(&center.snapshot()).unwrap();
        let state = journal.recover().unwrap();
        let got = state.center.as_ref().unwrap();
        assert_eq!(got.records().len(), 2, "later checkpoint won");
        state
            .audit(center.roster(), center.enki().config())
            .unwrap();
    }

    #[test]
    fn compaction_folds_both_streams_into_one_record() {
        let rt = settled(1);
        let center = rt.center();
        let config = JournalConfig {
            compact_every: 2,
            ..JournalConfig::default()
        };
        let (mut journal, _) = Journal::open(MemStorage::new(), config).unwrap();
        let ingest =
            enki_serve::ingest::IngestFrontEnd::new(IngestConfig::default(), 3).checkpoint();
        journal.log_center(&center.snapshot()).unwrap();
        journal.log_ingest(&ingest).unwrap();
        assert_eq!(journal.stats().compactions, 1);
        assert_eq!(journal.live_segments(), 1);
        let state = journal.recover().unwrap();
        assert_eq!(state.replayed, 2, "the compaction and its mirror replay");
        assert!(state.center.is_some());
        assert!(state.ingest.is_some());
        state
            .audit(center.roster(), center.enki().config())
            .unwrap();
    }

    #[test]
    fn center_records_after_a_compaction_carry_only_the_days_since_it() {
        let config = JournalConfig {
            compact_every: 8,
            ..JournalConfig::default()
        };
        let (journal, _) = Journal::open(MemStorage::new(), config).unwrap();
        let mut rt = settled_with(6, Some(journal));
        let journal = rt.journal().unwrap();
        assert!(journal.stats().compactions >= 2);
        let log = journal.center.as_ref().unwrap();
        let base = log.base.expect("the latest compaction holds settled days");
        assert!(0 < base.len && base.len <= 6, "{base:?}");
        let payload = log.record();
        let (named, image) = parse_center(&payload).unwrap();
        assert_eq!(named, Some((base.lsn, base.len)));
        assert_eq!(image.records.len(), 6 - base.len, "only the days since the base");

        let records = rt.records().to_vec();
        let state = rt.journal_mut().unwrap().recover().unwrap();
        assert_eq!(state.center.as_ref().unwrap().records(), &records[..]);
        assert_eq!(state.superseded, 0);
        let log = rt.journal().unwrap().center.as_ref().unwrap();
        assert_eq!(log.base.map(|b| (b.lsn, b.len)), Some((base.lsn, base.len)));
        assert_eq!(log.record(), payload, "replay continues the same log");
    }

    #[test]
    fn a_checkpoint_rebuilt_from_bytes_continues_the_log() {
        let config = JournalConfig {
            compact_every: 3,
            ..JournalConfig::default()
        };
        let rt = settled(2);
        let ours = rt.center().snapshot();
        let (mut journal, _) = Journal::open(MemStorage::new(), config).unwrap();
        for _ in 0..3 {
            journal.log_center(&ours).unwrap();
        }
        let base = journal.center.as_ref().unwrap().base.expect("compacted");
        // Equal content is the same history, however it was built.
        let rebuilt: CenterCheckpoint = snapshot::decode(&snapshot::encode(&ours)).unwrap();
        journal.log_center(&rebuilt).unwrap();
        let payload = journal.center.as_ref().unwrap().record();
        let (named, image) = parse_center(&payload).unwrap();
        assert_eq!((named, image.records.len()), (Some((base.lsn, 2)), 0));
        let state = journal.recover().unwrap();
        assert_eq!(state.center.as_ref(), Some(&ours));
    }

    #[test]
    fn a_center_restored_from_an_older_checkpoint_is_logged_in_full() {
        let config = JournalConfig {
            compact_every: 8,
            ..JournalConfig::default()
        };
        let (journal, _) = Journal::open(MemStorage::new(), config).unwrap();
        let mut rt = runtime(Some(journal));
        rt.run_days(1, 100);
        let older = rt.checkpoint();
        rt.run_days(2, 100);
        assert!(rt.journal().unwrap().center.as_ref().unwrap().base.is_some());

        // Restore from the older clone and settle past the logged count
        // under another payment scale, so the days diverge.
        let config = EnkiConfig::builder().xi(1.5).build().unwrap();
        let mut fork = ServeRuntime::restore(
            Enki::new(config),
            roster(),
            DayPlan::default(),
            IngestConfig::default(),
            older,
        );
        fork.run_days(3, 100);
        assert_eq!(fork.records()[0], rt.records()[0]);
        assert_ne!(fork.records()[2], rt.records()[2]);

        let journal = rt.journal_mut().unwrap();
        journal.log_center(fork.center().checkpoint()).unwrap();
        let payload = journal.center.as_ref().unwrap().record();
        let (named, image) = parse_center(&payload).unwrap();
        assert_eq!((named, image.records.len()), (None, 4), "a full record");
        let state = journal.recover().unwrap();
        assert_eq!(state.center.as_ref(), Some(fork.center().checkpoint()));
    }

    #[test]
    fn a_base_with_one_copy_left_is_not_extended() {
        let config = JournalConfig {
            compact_every: 8,
            ..JournalConfig::default()
        };
        let (journal, _) = Journal::open(FaultStorage::new(FaultPlan::none()), config).unwrap();
        let rt = settled_with(6, Some(journal));
        let journal = rt.journal().unwrap();
        let base = journal.center.as_ref().unwrap().base.expect("a base");
        // Rot the base's first copy, the head of the first segment.
        let mut storage = MemStorage::new();
        for (name, mut bytes) in journal.fault_storage().unwrap().durable_image() {
            if base.lsn.offset == 0 && name == enki_durable::wal::segment_name(base.lsn.segment) {
                bytes[20] ^= 0x10;
            }
            storage.put(&name, bytes);
        }
        let (reopened, state) = Journal::open(storage, config).unwrap();
        assert_eq!(state.quarantined, 1, "the first copy rotted");
        assert_eq!(state.superseded, 0, "the mirror stands in for it");
        assert_eq!(state.center.as_ref(), Some(rt.center().checkpoint()));
        let log = reopened.center.as_ref().unwrap();
        assert!(log.base.is_none(), "one copy left: the next record is full");
        assert_eq!(log.count, 6);
    }

    #[test]
    fn a_failed_write_makes_the_next_center_record_full() {
        let config = JournalConfig {
            compact_every: 2,
            ..JournalConfig::default()
        };
        let rt = settled(1);
        let checkpoint = rt.center().snapshot();
        let storage = FaultStorage::new(FaultPlan::none());
        let (mut journal, _) = Journal::open(storage, config).unwrap();
        journal.log_center(&checkpoint).unwrap();
        journal.log_center(&checkpoint).unwrap();
        assert!(journal.center.as_ref().unwrap().base.is_some());
        journal.fault_storage_mut().unwrap().enter_crash();
        assert!(journal.log_center(&checkpoint).is_err());
        assert!(journal.center.as_ref().unwrap().base.is_none());
        let state = journal.recover().unwrap();
        assert_eq!(state.center.as_ref(), Some(&checkpoint));
        assert!(journal.center.as_ref().unwrap().base.is_some(), "the compaction survived");
    }

    #[test]
    fn unflushed_center_commit_is_lost_on_crash_and_audit_still_passes() {
        let rt = settled(2);
        let center = rt.center();
        let storage = FaultStorage::new(FaultPlan::none());
        let (mut journal, _) = Journal::open(storage, JournalConfig::default()).unwrap();
        journal.log_center(&center.snapshot()).unwrap();
        journal.fault_storage_mut().unwrap().enter_crash();
        let state = journal.recover().unwrap();
        assert_eq!(
            state.center.as_ref().unwrap().records().len(),
            2,
            "flushed commit survives the crash"
        );
        state
            .audit(center.roster(), center.enki().config())
            .unwrap();
    }

    #[test]
    fn tampered_settlement_fails_the_audit() {
        // A checkpoint whose recorded history the oracle rejects must
        // be refused, even though every checksum is intact.
        let rt = settled(1);
        let center = rt.center();
        let mut checkpoint = center.snapshot();
        // Bit-exact tampering below the CRC: duplicate the settled
        // day's record, which breaks record ordering/uniqueness.
        let cloned = checkpoint.records()[0].clone();
        checkpoint_records_push(&mut checkpoint, cloned);
        let (mut journal, _) =
            Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
        journal.log_center(&checkpoint).unwrap();
        let state = journal.recover().unwrap();
        let err = state
            .audit(center.roster(), center.enki().config())
            .unwrap_err();
        assert!(matches!(err, enki_core::Error::RecoveryAudit { .. }), "{err}");
    }

    #[test]
    fn undecodable_record_maps_to_corrupt_checkpoint() {
        // A payload that passes the CRC but is not a checkpoint: the
        // journal quarantines it and the audit refuses the state.
        let (mut wal, _) = Wal::open(
            Box::new(MemStorage::new()) as Box<dyn Storage>,
            WalConfig::default(),
        )
        .unwrap();
        wal.append(REC_CENTER, b"not a checkpoint").unwrap();
        wal.flush().unwrap();
        let storage = wal.into_storage();
        let (_, state) = Journal::open(storage, JournalConfig::default()).unwrap();
        assert_eq!(state.undecodable, 1);
        let err = state.audit(&[], &EnkiConfig::default()).unwrap_err();
        assert_eq!(
            err,
            enki_core::Error::CorruptCheckpoint { kind: "center" }
        );
    }

    /// Test-only back door: `CenterCheckpoint` fields are private, so
    /// tampering goes through the serialized tree.
    fn checkpoint_records_push(
        checkpoint: &mut CenterCheckpoint,
        record: crate::center::DayRecord,
    ) {
        use serde::{Deserialize, Serialize, Value};
        let mut tree = checkpoint.serialize_value();
        let Value::Object(fields) = &mut tree else {
            panic!("checkpoint serializes to an object")
        };
        for (name, value) in fields.iter_mut() {
            if name == "records" {
                let Value::Array(items) = value else {
                    panic!("records serialize to an array")
                };
                items.push(record.serialize_value());
            }
        }
        *checkpoint = CenterCheckpoint::deserialize_value(&tree).unwrap();
    }
}
