//! Documentation drift checks: the enums that documentation tabulates are
//! matched *exhaustively* here, so adding a variant without updating the
//! docs fails the suite (and forgetting to extend the `ALL` constants
//! fails these tests' completeness assertions).
//!
//! * Every [`StageKind`] variant must appear (backticked) in
//!   `docs/PAPER_MAP.md`'s stage table.
//! * Every [`DiagnosticCode`] must appear in `docs/DIAGNOSTICS.md` with
//!   its code string, kebab-case name and variant name.
//! * Every [`MetricName`] must have a row (backticked snake_case name) in
//!   `docs/OBSERVABILITY.md`'s metric catalog, and every row there must
//!   name a live metric.

use drtopk::core::{DiagnosticCode, StageKind};
use drtopk::obs::MetricName;

const PAPER_MAP: &str = include_str!("../docs/PAPER_MAP.md");
const DIAGNOSTICS: &str = include_str!("../docs/DIAGNOSTICS.md");
const OBSERVABILITY: &str = include_str!("../docs/OBSERVABILITY.md");

/// Compile-time exhaustiveness: the `match` must name every variant, so a
/// new `StageKind` cannot ship without this function (and therefore the
/// docs check below) knowing about it.
fn stage_kind_index(kind: StageKind) -> usize {
    match kind {
        StageKind::DelegateConstruction => 0,
        StageKind::FirstTopK => 1,
        StageKind::Concatenate => 2,
        StageKind::SecondTopK => 3,
        StageKind::BucketTopKPrime => 4,
        StageKind::ChunkLoad => 5,
        StageKind::LocalTopK => 6,
        StageKind::LocalMerge => 7,
        StageKind::Gather => 8,
        StageKind::FinalTopK => 9,
        StageKind::RadixHistogram => 10,
        StageKind::RadixRefine => 11,
        StageKind::CandidateGather => 12,
        StageKind::RadixSelect => 13,
    }
}

/// Same mechanism for diagnostic codes.
fn diagnostic_code_index(code: DiagnosticCode) -> usize {
    match code {
        DiagnosticCode::DanglingDep => 0,
        DiagnosticCode::DepCycle => 1,
        DiagnosticCode::OrphanStage => 2,
        DiagnosticCode::ResourceKindMismatch => 3,
        DiagnosticCode::WrongLane => 4,
        DiagnosticCode::CrossDeviceChunk => 5,
        DiagnosticCode::GatherWithoutSource => 6,
        DiagnosticCode::GatherSourceMismatch => 7,
        DiagnosticCode::QueueDeadlock => 8,
        DiagnosticCode::DoubleBufferHazard => 9,
        DiagnosticCode::PhaseOrder => 10,
        DiagnosticCode::RadixChainBroken => 11,
    }
}

/// And for the metric catalog: `MetricsRegistry::snapshot()` matches the
/// enum exhaustively on the export side; this is the documentation side.
fn metric_name_index(name: MetricName) -> usize {
    match name {
        MetricName::PlanCacheHits => 0,
        MetricName::PlanCacheMisses => 1,
        MetricName::DelegateCacheHits => 2,
        MetricName::DelegateCacheMisses => 3,
        MetricName::DelegatePassesRun => 4,
        MetricName::DelegatePassesSaved => 5,
        MetricName::QueriesServed => 6,
        MetricName::BatchesServed => 7,
        MetricName::ShardedQueries => 8,
        MetricName::EngineBusyMs => 9,
        MetricName::QueryLatencyMs => 10,
        MetricName::BatchMakespanMs => 11,
        MetricName::WorkerBusyMs => 12,
        MetricName::WorkerOccupancy => 13,
        MetricName::WorkerQueueDepth => 14,
    }
}

#[test]
fn all_constants_are_complete_and_ordered() {
    // `ALL` must cover every variant exactly once, in declaration order —
    // the exhaustive index functions above prove nothing is missing.
    for (i, kind) in StageKind::ALL.into_iter().enumerate() {
        assert_eq!(
            stage_kind_index(kind),
            i,
            "StageKind::ALL out of order at {i}"
        );
    }
    for (i, code) in DiagnosticCode::ALL.into_iter().enumerate() {
        assert_eq!(
            diagnostic_code_index(code),
            i,
            "DiagnosticCode::ALL out of order at {i}"
        );
    }
    for (i, name) in MetricName::ALL.into_iter().enumerate() {
        assert_eq!(
            metric_name_index(name),
            i,
            "MetricName::ALL out of order at {i}"
        );
    }
}

#[test]
fn every_stage_kind_is_documented_in_the_paper_map() {
    for kind in StageKind::ALL {
        let needle = format!("`{kind:?}`");
        assert!(
            PAPER_MAP.contains(&needle),
            "docs/PAPER_MAP.md does not mention stage kind {needle}; \
             extend its execution-stage table"
        );
    }
}

#[test]
fn every_diagnostic_code_is_documented() {
    for code in DiagnosticCode::ALL {
        for needle in [
            format!("`{}`", code.code()),
            format!("`{}`", code.name()),
            format!("`{code:?}`"),
        ] {
            assert!(
                DIAGNOSTICS.contains(&needle),
                "docs/DIAGNOSTICS.md does not mention {needle} for {code}; \
                 extend its table"
            );
        }
    }
}

#[test]
fn every_metric_is_documented_in_the_catalog() {
    for name in MetricName::ALL {
        let needle = format!("| `{}` |", name.name());
        assert!(
            OBSERVABILITY.contains(&needle),
            "docs/OBSERVABILITY.md has no metric-catalog row for {needle}; \
             extend the table"
        );
    }
}

#[test]
fn diagnostics_doc_has_no_stale_codes() {
    // The reverse direction: a documented V0xx code must exist in the
    // source. Scan the table's code column for backticked V-codes.
    let known: Vec<String> = DiagnosticCode::ALL
        .iter()
        .map(|c| format!("`{}`", c.code()))
        .collect();
    for line in DIAGNOSTICS.lines() {
        let Some(rest) = line.strip_prefix("| `V") else {
            continue;
        };
        let code = format!("`V{}`", &rest[..rest.find('`').unwrap_or(0)]);
        assert!(
            known.contains(&code),
            "docs/DIAGNOSTICS.md documents {code}, which no DiagnosticCode produces"
        );
    }
}

#[test]
fn observability_doc_has_no_stale_metrics() {
    // Reverse direction for the metric catalog: every backticked table row
    // in docs/OBSERVABILITY.md must name a metric the registry exports.
    let known: Vec<String> = MetricName::ALL.iter().map(|m| format!("`{m}`")).collect();
    for line in OBSERVABILITY.lines() {
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let name = format!("`{}`", &rest[..rest.find('`').unwrap_or(0)]);
        assert!(
            known.contains(&name),
            "docs/OBSERVABILITY.md documents {name}, which no MetricName produces"
        );
    }
}
