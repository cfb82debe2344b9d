//! Out-of-core streaming: double-buffered vs serial-reload modeled makespan
//! on corpora at 2× and 8× the **aggregate** capacity of the 2-device
//! cluster (`capacity_multiple` in the CSV/JSON is that aggregate multiple;
//! in single-device terms the corpora are 4× and 16× one device's memory).
//!
//! The distributed stage graph pays one host→device `ChunkLoad` per
//! non-resident sub-vector. Under the serial schedule each load waits for the
//! previous chunk's compute; under the double-buffered schedule chunk *i + 1*
//! transfers while chunk *i* computes, so the makespan drops by (up to) the
//! smaller of the two sides. Every cell self-verifies: both schedules must be
//! bit-identical to the CPU reference.
//!
//! Beyond the CSV every harness writes, this target records
//! `bench_results/streamed_oversize.json` under the shared `drtopk-obs`
//! snapshot schema; the committed `streamed_oversize_baseline.json` is the
//! trajectory-tracking reference.

use std::io::Write as _;

use drtopk_bench_harness::*;
use drtopk_core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule};
use drtopk_obs::{Json, Snapshot};
use gpu_sim::{DeviceSpec, GpuCluster};
use topk_baselines::reference_topk;

const DEVICES: usize = 2;
const K: usize = 256;

struct Cell {
    multiple: usize,
    n: usize,
    chunks: usize,
    serial_ms: f64,
    double_buffered_ms: f64,
    win_pct: f64,
    overlap_efficiency: f64,
    reload_ms: f64,
}

fn main() {
    // Scale the per-device capacity with the harness size so the trends
    // survive DRTOPK_V_EXP overrides; the corpus is `multiple ×` that.
    let capacity = (default_n() >> 5).max(1 << 14);
    let cluster = GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(capacity);
    }

    let mut cells = Vec::new();
    for multiple in [2usize, 8] {
        let n = capacity * multiple * DEVICES;
        let data = topk_datagen::uniform(n, seed());
        let expected = reference_topk(&data, K);
        let serial = distributed_dr_topk(
            &cluster,
            &data,
            K,
            &DrTopKConfig::default(),
            ReloadSchedule::Serial,
            None,
        );
        let db = distributed_dr_topk(
            &cluster,
            &data,
            K,
            &DrTopKConfig::default(),
            ReloadSchedule::DoubleBuffered,
            None,
        );
        assert_eq!(serial.values, expected, "serial schedule must be exact");
        assert_eq!(
            db.values, expected,
            "double-buffered schedule must be exact"
        );
        cells.push(Cell {
            multiple,
            n,
            chunks: multiple * DEVICES,
            serial_ms: serial.total_ms,
            double_buffered_ms: db.total_ms,
            win_pct: (1.0 - db.total_ms / serial.total_ms) * 100.0,
            overlap_efficiency: db.stages.overlap_efficiency(),
            reload_ms: db.reload_overhead_ms,
        });
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.multiple.to_string(),
                c.n.to_string(),
                c.chunks.to_string(),
                fmt(c.serial_ms),
                fmt(c.double_buffered_ms),
                fmt(c.win_pct),
                fmt(c.overlap_efficiency),
                fmt(c.reload_ms),
            ]
        })
        .collect();
    emit(
        "streamed_oversize",
        &[
            "capacity_multiple",
            "n",
            "chunks",
            "serial_ms",
            "double_buffered_ms",
            "win_pct",
            "overlap_efficiency",
            "reload_ms",
        ],
        &rows,
    );

    // Baseline JSON for trajectory tracking, under the shared obs snapshot
    // schema (versioned `schema` + `kind` header).
    let cell_objs: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("capacity_multiple", Json::Int(c.multiple as i64)),
                ("n", Json::Int(c.n as i64)),
                ("chunks", Json::Int(c.chunks as i64)),
                ("serial_ms", Json::Num(c.serial_ms)),
                ("double_buffered_ms", Json::Num(c.double_buffered_ms)),
                ("win_pct", Json::Num(c.win_pct)),
                ("overlap_efficiency", Json::Num(c.overlap_efficiency)),
            ])
        })
        .collect();
    let json = Snapshot::new("streamed_oversize")
        .field("capacity", Json::Int(capacity as i64))
        .field("devices", Json::Int(DEVICES as i64))
        .field("k", Json::Int(K as i64))
        .field("seed", Json::Int(seed() as i64))
        .field("cells", Json::Arr(cell_objs))
        .to_pretty_string();
    let path = results_dir().join("streamed_oversize.json");
    let mut file = std::fs::File::create(&path).expect("cannot create JSON file");
    file.write_all(json.as_bytes()).unwrap();
    println!("[written to {}]", path.display());
}
