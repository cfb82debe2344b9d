//! Schedule-invariance tests of the distributed runner. Each device runs
//! its chunk chain on its own host thread, so the host interleaving differs
//! from run to run; the winners, the modeled schedule and the
//! deterministic trace must not. (That every device order of the chains,
//! run one after another, gives the parallel run bit for bit is checked
//! next to the chains themselves, in `distributed.rs`.)

use drtopk::core::{distributed_dr_topk, DistributedResult, DrTopKConfig, ReloadSchedule};
use drtopk::obs::TraceRecorder;
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

fn bits<K: TopKKey>(values: &[K]) -> Vec<K::Bits> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn cluster(capacity: usize) -> GpuCluster {
    let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(capacity);
    }
    cluster
}

/// Run `data` `runs` times under `schedule` with a deterministic recorder
/// and require every run to agree with the first on the winners, the
/// makespan, the deterministic summary and the exported trace.
fn assert_runs_agree(
    cluster: &GpuCluster,
    data: &[u32],
    k: usize,
    schedule: ReloadSchedule,
    runs: usize,
) -> DistributedResult {
    let run = || {
        let rec = TraceRecorder::deterministic();
        let got = distributed_dr_topk(
            cluster,
            data,
            k,
            &DrTopKConfig::default(),
            schedule,
            Some(&rec),
        );
        (got, rec.chrome_trace_json())
    };
    let (first, trace) = run();
    for i in 1..runs {
        let (again, again_trace) = run();
        assert_eq!(bits(&again.values), bits(&first.values), "run {i}");
        assert_eq!(again.total_ms.to_bits(), first.total_ms.to_bits());
        assert_eq!(
            again.stages.deterministic_summary(),
            first.stages.deterministic_summary(),
            "run {i}"
        );
        assert_eq!(again_trace, trace, "run {i}");
    }
    first
}

/// A real distributed out-of-core run: 2 devices × 2 chunks each under
/// both reload schedules. Repeated runs, whatever their host
/// interleaving, give bit-identical winners (the reference top-k) and a
/// byte-identical schedule and trace; the two schedules differ only in
/// modeled time.
#[test]
fn distributed_out_of_core_run_model_checks_exhaustively() {
    let cluster = cluster(1 << 8);
    let data = topk_datagen::uniform(1 << 10, 0xBEEF);
    let serial = assert_runs_agree(&cluster, &data, 16, ReloadSchedule::Serial, 8);
    let db = assert_runs_agree(&cluster, &data, 16, ReloadSchedule::DoubleBuffered, 8);
    assert_eq!(
        bits(&db.values),
        bits(&topk_baselines::reference_topk(&data, 16))
    );
    assert_eq!(bits(&serial.values), bits(&db.values));
    assert_eq!(serial.stats, db.stats);
    assert!(db.total_ms < serial.total_ms);
}

/// A longer out-of-core run on normal data, repeated sixteen times: every
/// run matches the reference and the first run, bit for bit and modeled
/// field for modeled field.
#[test]
fn sampled_schedules_match_threaded_on_a_distributed_run() {
    let cluster = cluster(1 << 9);
    let data = topk_datagen::normal(1 << 11, 17);
    let first = assert_runs_agree(&cluster, &data, 64, ReloadSchedule::DoubleBuffered, 16);
    assert_eq!(
        bits(&first.values),
        bits(&topk_baselines::reference_topk(&data, 64))
    );
    assert!(first.reload_overhead_ms > 0.0);
}
