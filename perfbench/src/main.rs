//! perfbench — the measured benchmark of the Dr. Top-k workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The load generator is one process and one thread, closed-loop: it waits
//! for each call before issuing the next. Every input comes from `--seed`.
//! Each call's output is checked bit for bit against the CPU reference
//! outside the timed region, and the kernel logs are reset after every
//! call.
//!
//! Each call is timed by wall-clock and by the CPU time of the whole
//! process. On a shared host both drift with the host's speed: the same
//! code's wall-clock moved by half between two sets of runs. So the
//! end-to-end times are CPU times scaled by a fixed reference computation
//! timed between the calls of the same run (see [`reference`]). Raw CPU
//! time and wall-clock are per-layer metrics.
//!
//! * `--trace 0` sets the workload up at least five times and for at
//!   least a CPU-second (the median raw CPU time is `setup_s`), then times
//!   calls for `--seconds` and reports the end-to-end metrics.
//! * `--trace 1` sets up once, then alternates untraced and traced calls
//!   for `--seconds`. It reports the per-layer metrics of the traced calls
//!   and the wall-clock of the untraced ones; the gap between their CPU
//!   medians is `obs.trace_overhead_pct`.
//! * `--smoke` runs a tiny input for a handful of calls.
//!
//! Stdout ends with a host-fingerprint line and then the result line
//! `{"correct", "attempted", "failed", "metrics"}`; a readable table goes
//! to stderr. The exit code is 0 when every call checked out, 1 when any
//! failed, 2 on a usage error.

mod cpu;
mod host;
mod layers;
mod reference;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drtopk::obs::Json;

use cpu::Stopwatch;
use layers::{per_layer, KernelLog, Metric, Traced};
use reference::Reference;
use stats::{mean, median, quantile, ratio};
use workloads::{Call, Scale, Workload, NAMES};

/// Set-ups per untraced run, at least; `setup_s` is the median of their
/// CPU time.
const SETUP_REPS: usize = 5;
/// Set-up CPU seconds an untraced run spends at least, so that a quick
/// set-up is repeated more often than `SETUP_REPS` times...
const SETUP_MIN_S: f64 = 1.0;
/// ...but not more often than this.
const SETUP_MAX_REPS: usize = 50;
/// Wall-clock between two reference samples while calls are timed.
const REFERENCE_EVERY: Duration = Duration::from_millis(100);
/// Calls every run makes at least, whatever `--seconds` says: p90 needs ten
/// samples beyond it.
const MIN_CALLS: usize = 100;
/// `MIN_CALLS` under `--smoke`.
const SMOKE_CALLS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("bad value for --seconds: {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

struct Sample {
    call: Call,
    log: Option<KernelLog>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (scale, min_calls) = if args.smoke {
        (Scale::SMOKE, SMOKE_CALLS)
    } else {
        (Scale::FULL, MIN_CALLS)
    };
    let outcome = if args.trace {
        traced_run(&args, scale, min_calls)
    } else {
        untraced_run(&args, scale, min_calls)
    };

    eprintln!(
        "perfbench {} seed={} trace={}: {} calls, {} failed, error_rate {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", fingerprint_line(&args));
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn build(args: &Args, scale: Scale) -> Box<dyn Workload> {
    workloads::build(&args.workload, scale, args.seed).expect("workload name was validated")
}

/// Time calls until `seconds` have passed and at least `min_calls` ran,
/// sampling the reference between calls every `REFERENCE_EVERY`. With
/// `alternate`, odd calls are traced and their kernel logs read.
fn measure(
    w: &mut dyn Workload,
    reference: &mut Reference,
    seconds: f64,
    min_calls: usize,
    alternate: bool,
) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut next_reference = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || Instant::now() < deadline {
        if Instant::now() >= next_reference {
            reference.sample();
            next_reference = Instant::now() + REFERENCE_EVERY;
        }
        let traced = alternate && samples.len() % 2 == 1;
        let call = w.call(samples.len(), traced);
        let devices = w.devices();
        let log = traced.then(|| KernelLog::read(&devices));
        for d in devices {
            d.reset_stats();
        }
        samples.push(Sample { call, log });
    }
    samples
}

fn untraced_run(args: &Args, scale: Scale, min_calls: usize) -> Outcome {
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(workload.take());
        let watch = Stopwatch::start();
        workload = Some(build(args, scale));
        let (_, cpu_ms) = watch.stop();
        setup_s.push(cpu_ms / 1e3);
    }
    let mut w = workload.expect("at least one set-up");
    w.prepare_checks();
    let mut reference = Reference::new(w.resident_bytes());
    let samples = measure(w.as_mut(), &mut reference, args.seconds, min_calls, false);

    let host_scale = reference.scale();
    eprintln!(
        "reference: median {:.4} ms CPU over {} samples; times are scaled by {:.4}",
        reference.median_ms(),
        reference.count(),
        host_scale
    );
    let cpus: Vec<f64> = samples.iter().map(|s| s.call.cpu_ms * host_scale).collect();
    // Every run makes the first `min_calls` calls, so their modeled mean is
    // the same on every run of a seed.
    let modeled: Vec<f64> = samples.iter().map(|s| s.call.modeled_ms).collect();
    let selections = (samples.len() * w.selections_per_call()) as f64;
    let metrics = vec![
        Metric::new("norm_cpu_p50_ms", "ms", median(cpus.clone())),
        Metric::new("norm_cpu_p90_ms", "ms", quantile(cpus.clone(), 0.9)),
        Metric::new(
            "norm_throughput_sel_s",
            "1/s",
            ratio(selections, cpus.iter().sum::<f64>() / 1e3),
        ),
        Metric::new(
            "modeled_ms",
            "ms",
            mean(&modeled[..min_calls.min(modeled.len())]),
        ),
        Metric::new("setup_s", "s", median(setup_s)),
    ];
    Outcome {
        attempted: samples.len(),
        failed: samples.iter().filter(|s| s.call.failed).count(),
        metrics,
    }
}

fn traced_run(args: &Args, scale: Scale, min_calls: usize) -> Outcome {
    let mut w = build(args, scale);
    w.prepare_checks();
    let mut reference = Reference::new(w.resident_bytes());
    let ticks = host::CpuTicks::read();
    let samples = measure(
        w.as_mut(),
        &mut reference,
        args.seconds,
        2 * min_calls,
        true,
    );
    let steal_pct = host::CpuTicks::read().steal_pct_since(&ticks);

    let attempted = samples.len();
    let failed = samples.iter().filter(|s| s.call.failed).count();
    let (untraced, traced): (Vec<Sample>, Vec<Sample>) =
        samples.into_iter().partition(|s| s.log.is_none());
    let traced: Vec<Traced> = traced
        .into_iter()
        .filter_map(|s| {
            Some(Traced {
                log: s.log?,
                call: s.call,
            })
        })
        .collect();
    let untraced_cpu: Vec<f64> = untraced.iter().map(|s| s.call.cpu_ms).collect();
    let walls: Vec<f64> = untraced.iter().map(|s| s.call.wall_ms).collect();
    let traced_cpu_p50 = median(traced.iter().map(|t| t.call.cpu_ms).collect());
    let overhead_pct = (ratio(traced_cpu_p50, median(untraced_cpu.clone())) - 1.0) * 100.0;
    let mut metrics = per_layer(&traced, w.devices().len(), overhead_pct);
    metrics.extend([
        Metric::new("host.cpu_p50_ms", "ms", median(untraced_cpu.clone())),
        Metric::new("host.reference_ms", "ms", reference.median_ms()),
        Metric::new("host.wall_p50_ms", "ms", median(walls.clone())),
        Metric::new("host.wall_p90_ms", "ms", quantile(walls.clone(), 0.9)),
        Metric::new(
            "host.cpu_over_wall",
            "ratio",
            ratio(untraced_cpu.iter().sum(), walls.iter().sum()),
        ),
        Metric::new("host.steal_pct", "%", steal_pct),
        Metric::new("host.peak_rss_mb", "MB", host::peak_rss_mb()),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The host fingerprint and the run's parameters, one JSON object.
fn fingerprint_line(args: &Args) -> String {
    let fp = host::Fingerprint::capture();
    let host = Json::obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::str(args.seed.to_string())),
        ("trace", Json::Bool(args.trace)),
        (
            "scale",
            Json::str(if args.smoke { "smoke" } else { "full" }),
        ),
        ("nproc", Json::Int(fp.nproc as i64)),
        ("rustc", Json::str(fp.rustc)),
        ("profile", Json::str(fp.profile)),
        ("commit", Json::str(fp.commit)),
        ("source_digest", Json::str(fp.source_digest)),
    ]);
    Json::obj(vec![("host", host)]).to_compact_string()
}

fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact_string()
}
