//! Host-side clocks and the per-run noise record.
//!
//! The benchmark's CPU figures come from `clock_gettime` on the process
//! and per-thread CPU clocks. The noise record (steal ticks, load
//! average and the rate of a fixed reference loop, sampled before and
//! after a run) is printed beside the metrics so that an outlier run can
//! be traced to the host rather than to the program.

use std::hint::black_box;
use std::time::Instant;

const CLOCK_PROCESS_CPUTIME_ID: usize = 2;
const CLOCK_THREAD_CPUTIME_ID: usize = 3;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn cpu_clock_ns(clock: usize) -> u64 {
    const SYS_CLOCK_GETTIME: isize = 228;
    let mut ts = [0i64; 2]; // { tv_sec, tv_nsec }
    let ret: isize;
    // SAFETY: clock_gettime writes one `struct timespec` (two i64 on
    // x86-64 Linux) through the pointer in rsi, which points at `ts`, a
    // live, writable, correctly sized local. The syscall clobbers only
    // rax, rcx and r11, all declared here.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") clock,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert!(ret == 0, "clock_gettime({clock}) failed: {ret}");
    (ts[0] as u64) * 1_000_000_000 + ts[1] as u64
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn cpu_clock_ns(_clock: usize) -> u64 {
    panic!("the benchmark needs x86-64 Linux for its CPU clocks");
}

/// CPU time consumed by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Host state sampled around a run.
#[derive(Debug, Clone, Copy)]
pub struct HostState {
    steal_ticks: u64,
    loadavg_1m: f64,
    ref_loop_mops: f64,
}

fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu user nice system idle iowait irq softirq steal ..."
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Iterations of the reference loop (about 20 ms on an idle core).
const REF_LOOP_ITERS: u64 = 2_000_000;
/// The reference loop's table: 256 KiB, larger than L1, inside L2.
const REF_TABLE_WORDS: usize = 1 << 15;

/// Millions of iterations per second of a fixed loop in the benchmark's
/// own code: four independent xorshift chains, each reading and writing a
/// 256 KiB table. It is throughput-bound like the system's code, so it
/// slows down when a neighbour contends for the core's execution units or
/// caches — a single dependent chain would not.
fn ref_loop_mops() -> f64 {
    let mut table = vec![0u64; REF_TABLE_WORDS];
    let mask = REF_TABLE_WORDS as u64 - 1;
    let mut x = black_box([1u64, 2, 3, 4]);
    let start = Instant::now();
    for _ in 0..REF_LOOP_ITERS {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            let slot = &mut table[(*v & mask) as usize];
            *slot = slot.wrapping_add(*v);
        }
    }
    black_box((x, &table));
    REF_LOOP_ITERS as f64 / start.elapsed().as_secs_f64() / 1e6
}

impl HostState {
    /// Sample the host now.
    pub fn sample() -> Self {
        Self {
            steal_ticks: steal_ticks(),
            loadavg_1m: loadavg_1m(),
            ref_loop_mops: ref_loop_mops(),
        }
    }

    /// One line describing the host across a run (`self` before, `after`
    /// after).
    pub fn noise_line(&self, after: &HostState) -> String {
        format!(
            "host: nproc={} steal_ticks={} loadavg_1m={:.2}->{:.2} ref_loop_mops={:.1}->{:.1}",
            nproc(),
            after.steal_ticks.saturating_sub(self.steal_ticks),
            self.loadavg_1m,
            after.loadavg_1m,
            self.ref_loop_mops,
            after.ref_loop_mops,
        )
    }
}
