//! Process CPU time: the user and system time of every thread of the
//! process, threads that have already exited included, as
//! `CLOCK_PROCESS_CPUTIME_ID` reads it. Time a thread spends waiting for a
//! core, while another process or the hypervisor holds it, is not in it.

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time through the 64-bit Linux clock_gettime ABI");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's clock id for the CPU time of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the process has used so far.
pub fn process_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout of
    // 64-bit Linux (the only target this file compiles for), and the clock
    // id is one Linux defines, so the call writes only inside `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds are below 10^9"),
    )
}

/// A wall-clock and a process-CPU-time stopwatch started together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_time(),
            wall: Instant::now(),
        }
    }

    /// Wall-clock since the start, in ms.
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() * 1e3
    }

    /// Wall-clock and process CPU time since the start, in ms.
    pub fn stop(&self) -> (f64, f64) {
        let wall_ms = self.wall_ms();
        let cpu_ms = process_time().saturating_sub(self.cpu).as_secs_f64() * 1e3;
        (wall_ms, cpu_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.stop().1 < 5.0 {
            assert!(
                watch.wall_ms() < 10_000.0,
                "10 s of busy loop used < 5 ms CPU"
            );
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
