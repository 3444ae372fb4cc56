//! The central registry of metric names.
//!
//! Every counter, gauge, and histogram name emitted anywhere in the
//! workspace is declared here as a constant (or covered by a declared
//! dynamic family like `serve.shed.*`). A cross-crate test runs a fully
//! traced schedule and asserts that every name in the sink satisfies
//! [`is_registered`], so a typo'd metric name fails CI instead of
//! silently forking a time series.
//!
//! When adding a metric: declare the constant here, add it to
//! [`REGISTERED`] (or its prefix to [`REGISTERED_PREFIXES`] if the tail
//! is data-dependent), then emit it.

/// Network fault-injection gauges published per run.
pub mod net {
    /// Messages handed to the network.
    pub const SENT: &str = "net.sent";
    /// Messages delivered to their destination.
    pub const DELIVERED: &str = "net.delivered";
    /// Messages dropped by loss injection.
    pub const DROPPED: &str = "net.dropped";
    /// Messages duplicated in flight.
    pub const DUPLICATED: &str = "net.duplicated";
    /// Messages blackholed by an active partition.
    pub const PARTITIONED: &str = "net.partitioned";
    /// Messages dropped because the destination was down.
    pub const OUTAGE_DROPPED: &str = "net.outage_dropped";
    /// Partitions the schedule requested.
    pub const PARTITIONS_SCHEDULED: &str = "net.partitions_scheduled";
    /// Partitions actually applied.
    pub const PARTITIONS_APPLIED: &str = "net.partitions_applied";
    /// Outages the schedule requested.
    pub const OUTAGES_SCHEDULED: &str = "net.outages_scheduled";
    /// Outages actually applied.
    pub const OUTAGES_APPLIED: &str = "net.outages_applied";
    /// Messages still queued at the end of the run.
    pub const IN_FLIGHT: &str = "net.in_flight";
}

/// Tick-driven runtime counters.
pub mod runtime {
    /// Ticks executed.
    pub const TICKS: &str = "runtime.ticks";
    /// Deliveries lost because the center was crashed.
    pub const LOST_CENTER_DOWN: &str = "runtime.lost_center_down";
}

/// Center admission, day-lifecycle, and settlement metrics.
pub mod center {
    /// Reports admitted into the open day.
    pub const ADMISSION_ACCEPTED: &str = "center.admission.accepted";
    /// Reports clamped to the feasible preference box.
    pub const ADMISSION_CLAMPED: &str = "center.admission.clamped";
    /// Reports quarantined as malformed.
    pub const ADMISSION_QUARANTINED: &str = "center.admission.quarantined";
    /// Reports rejected as replays of an earlier day.
    pub const ADMISSION_CROSS_DAY_REPLAY: &str = "center.admission.cross_day_replay";
    /// Standing preferences submitted as fallback reports.
    pub const ADMISSION_STANDING_SUBMITTED: &str = "center.admission.standing_submitted";
    /// Days opened.
    pub const DAY_STARTED: &str = "center.day.started";
    /// Days with no admitted reports.
    pub const DAY_EMPTY: &str = "center.day.empty";
    /// Days that produced an allocation.
    pub const DAY_ALLOCATED: &str = "center.day.allocated";
    /// Days settled.
    pub const DAY_SETTLED: &str = "center.day.settled";
    /// Days that failed to settle.
    pub const DAY_UNSETTLED: &str = "center.day.unsettled";
    /// Days where allocation failed outright.
    pub const DAY_ALLOCATION_FAILED: &str = "center.day.allocation_failed";
    /// Participants in the most recent day (gauge).
    pub const DAY_PARTICIPANTS: &str = "center.day.participants";
    /// Meter readings missing at settlement.
    pub const READINGS_MISSING: &str = "center.readings.missing";
    /// Bills sent.
    pub const BILLS_SENT: &str = "center.bills.sent";
    /// Allocation wall time (histogram, ns).
    pub const ALLOCATE_NS: &str = "center.allocate_ns";
    /// Settlement wall time (histogram, ns).
    pub const SETTLE_NS: &str = "center.settle_ns";
    /// Pipeline refinements adopted.
    pub const PIPELINE_REFINED: &str = "center.pipeline.refined";
    /// Pipeline refinements discarded for the greedy incumbent.
    pub const PIPELINE_KEPT_GREEDY: &str = "center.pipeline.kept_greedy";
    /// Pipeline refinements that failed.
    pub const PIPELINE_FAILED: &str = "center.pipeline.failed";
}

/// Ingestion front-end metrics.
pub mod serve {
    /// Reports enqueued.
    pub const ENQUEUED: &str = "serve.enqueued";
    /// Reports admitted to the center.
    pub const ADMITTED: &str = "serve.admitted";
    /// Frames deferred by backpressure.
    pub const DEFER: &str = "serve.defer";
    /// Queue depth after the last offer (gauge).
    pub const QUEUE_DEPTH: &str = "serve.queue.depth";
    /// Ticks a report waited from enqueue to admission (histogram).
    pub const ADMISSION_LATENCY_TICKS: &str = "serve.admission_latency.ticks";
    /// Dynamic shed-class family: `serve.shed.<class>`.
    pub const SHED_PREFIX: &str = "serve.shed.";
    /// Reports shed as stale.
    pub const SHED_STALE: &str = "serve.shed.stale";
    /// Reports shed as unlikely to meet the deadline.
    pub const SHED_DEADLINE_RISK: &str = "serve.shed.deadline_risk";
    /// Reports evicted under overload.
    pub const SHED_EVICTED: &str = "serve.shed.evicted";
    /// Reports shed as malformed.
    pub const SHED_MALFORMED: &str = "serve.shed.malformed";
    /// Reports shed after a decoder panic was contained.
    pub const SHED_POISONED: &str = "serve.shed.poisoned";
}

/// Write-ahead journal metrics.
pub mod durable {
    /// Records appended.
    pub const RECORDS_WRITTEN: &str = "durable.records_written";
    /// Records flushed to stable storage.
    pub const RECORDS_FLUSHED: &str = "durable.records_flushed";
    /// Live log size in bytes (gauge).
    pub const SEGMENT_BYTES: &str = "durable.segment_bytes";
    /// Compactions performed.
    pub const COMPACTIONS: &str = "durable.compactions";
    /// Recoveries performed.
    pub const RECOVERIES: &str = "durable.recoveries";
    /// Recovery wall time (histogram, ns).
    pub const RECOVERY_NS: &str = "durable.recovery_ns";
    /// Records replayed during recovery.
    pub const REPLAYED: &str = "durable.replayed";
    /// Records quarantined during recovery.
    pub const QUARANTINED: &str = "durable.quarantined";
    /// Records that failed to decode.
    pub const UNDECODABLE: &str = "durable.undecodable";
    /// Center records whose base was no longer in the log.
    pub const SUPERSEDED: &str = "durable.superseded";
    /// Torn tails truncated.
    pub const TORN_TRUNCATED: &str = "durable.torn_truncated";
}

/// Anytime-solver metrics.
pub mod solve {
    /// Solves that finished on the exact rung.
    pub const RUNG_EXACT: &str = "solve.rung.exact";
    /// Solves that finished on the local-search rung.
    pub const RUNG_LOCAL_SEARCH: &str = "solve.rung.local_search";
    /// Solves that finished on the greedy rung.
    pub const RUNG_GREEDY: &str = "solve.rung.greedy";
    /// Solves that fell through to as-reported allocation.
    pub const RUNG_AS_REPORTED: &str = "solve.rung.as_reported";
    /// Solves that degraded below the exact rung.
    pub const DEGRADED: &str = "solve.degraded";
    /// Per-stage wall time (histogram, ns).
    pub const STAGE_NS: &str = "solve.stage_ns";
    /// Branch-and-bound nodes expanded.
    pub const NODES_EXPANDED: &str = "solve.nodes_expanded";
}

/// Invariant-oracle metrics.
pub mod oracle {
    /// Oracle sweeps executed.
    pub const CHECKS: &str = "oracle.checks";
    /// Dynamic violation family: `oracle.violation.<kind>`.
    pub const VIOLATION_PREFIX: &str = "oracle.violation.";
}

/// Observability-layer metrics (flight recorder, SLO monitor).
pub mod obs {
    /// Flight-recorder postmortems captured.
    pub const FLIGHT_DUMPS: &str = "flight.dumps";
    /// Dynamic burn-rate family: `slo.<name>.burn` (gauge).
    pub const SLO_PREFIX: &str = "slo.";
}

/// Every exact registered name.
pub const REGISTERED: &[&str] = &[
    net::SENT,
    net::DELIVERED,
    net::DROPPED,
    net::DUPLICATED,
    net::PARTITIONED,
    net::OUTAGE_DROPPED,
    net::PARTITIONS_SCHEDULED,
    net::PARTITIONS_APPLIED,
    net::OUTAGES_SCHEDULED,
    net::OUTAGES_APPLIED,
    net::IN_FLIGHT,
    runtime::TICKS,
    runtime::LOST_CENTER_DOWN,
    center::ADMISSION_ACCEPTED,
    center::ADMISSION_CLAMPED,
    center::ADMISSION_QUARANTINED,
    center::ADMISSION_CROSS_DAY_REPLAY,
    center::ADMISSION_STANDING_SUBMITTED,
    center::DAY_STARTED,
    center::DAY_EMPTY,
    center::DAY_ALLOCATED,
    center::DAY_SETTLED,
    center::DAY_UNSETTLED,
    center::DAY_ALLOCATION_FAILED,
    center::DAY_PARTICIPANTS,
    center::READINGS_MISSING,
    center::BILLS_SENT,
    center::ALLOCATE_NS,
    center::SETTLE_NS,
    center::PIPELINE_REFINED,
    center::PIPELINE_KEPT_GREEDY,
    center::PIPELINE_FAILED,
    serve::ENQUEUED,
    serve::ADMITTED,
    serve::DEFER,
    serve::QUEUE_DEPTH,
    serve::ADMISSION_LATENCY_TICKS,
    serve::SHED_STALE,
    serve::SHED_DEADLINE_RISK,
    serve::SHED_EVICTED,
    serve::SHED_MALFORMED,
    serve::SHED_POISONED,
    durable::RECORDS_WRITTEN,
    durable::RECORDS_FLUSHED,
    durable::SEGMENT_BYTES,
    durable::COMPACTIONS,
    durable::RECOVERIES,
    durable::RECOVERY_NS,
    durable::REPLAYED,
    durable::QUARANTINED,
    durable::UNDECODABLE,
    durable::SUPERSEDED,
    durable::TORN_TRUNCATED,
    solve::RUNG_EXACT,
    solve::RUNG_LOCAL_SEARCH,
    solve::RUNG_GREEDY,
    solve::RUNG_AS_REPORTED,
    solve::DEGRADED,
    solve::STAGE_NS,
    solve::NODES_EXPANDED,
    oracle::CHECKS,
    obs::FLIGHT_DUMPS,
];

/// Registered dynamic families, matched by prefix.
pub const REGISTERED_PREFIXES: &[&str] = &[
    serve::SHED_PREFIX,
    oracle::VIOLATION_PREFIX,
    obs::SLO_PREFIX,
];

/// True when a metric name is declared here, exactly or by family.
#[must_use]
pub fn is_registered(name: &str) -> bool {
    REGISTERED.contains(&name)
        || REGISTERED_PREFIXES
            .iter()
            .any(|prefix| name.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_and_families_are_registered() {
        assert!(is_registered("center.bills.sent"));
        assert!(is_registered("serve.shed.stale"));
        assert!(is_registered("serve.shed.poisoned"));
        assert!(is_registered("oracle.violation.duplicate_bill"));
        assert!(is_registered("slo.deadline_compliance.burn"));
        assert!(!is_registered("center.bils.sent"), "typos are caught");
        assert!(!is_registered("made.up.metric"));
    }

    #[test]
    fn registry_has_no_duplicates() {
        let mut names: Vec<&str> = REGISTERED.to_vec();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate registry entry");
    }
}
