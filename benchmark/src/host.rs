//! What the benchmark reads from the machine: CPU clocks, peak memory, the
//! host description recorded with every run, the `SNN_*` refusal and the
//! noise yardstick.

use crate::stats;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_MAX: i32 = -4;

/// Makes the C allocator keep freed memory instead of returning it to the
/// kernel.  On this virtualised host the first touch of a page the guest
/// has handed back costs tens of microseconds (the same 0.5 s VGG-11
/// conversion takes 3–9 s when its 350 MiB are fresh), and which pages are
/// fresh is the hypervisor's business, not the program's.  With memory
/// retained, everything after the first set-up runs on pages the process
/// already owns.  Applied at start-up on every run, parent and change alike.
pub fn retain_freed_memory() {
    // SAFETY: `mallopt` only sets two integer tunables of the C allocator;
    // it is called once, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and every thread it spawns later) to one
/// CPU.  Returns whether the kernel accepted it.
fn bind_current_thread(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The CPUs this run uses: the program under test is confined to one, the
/// load generator (if any) runs on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuPlan {
    /// CPUs the process was allowed before confinement.
    pub allowed: usize,
    /// Where the program under test runs (`None`: not confined).
    pub program: Option<usize>,
    /// Where the generator thread runs (`None`: with the program).
    pub generator: Option<usize>,
}

/// Confines the process to the highest-numbered CPU it may use, before any
/// other thread exists (device interrupts land on CPU 0 on this host).
pub fn confine_to_one_cpu() -> CpuPlan {
    let cpus = allowed_cpus();
    let mut plan = CpuPlan {
        allowed: cpus.len(),
        program: None,
        generator: None,
    };
    if let Some(&last) = cpus.last() {
        if bind_current_thread(last) {
            plan.program = Some(last);
            if cpus.len() > 1 {
                plan.generator = Some(cpus[0]);
            }
        }
    }
    plan
}

/// Moves the calling (generator) thread to its own CPU, if the plan has one.
pub fn move_generator(plan: CpuPlan) {
    if let Some(cpu) = plan.generator {
        bind_current_thread(cpu);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86_64/aarch64 Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Names of the `SNN_*` environment overrides that are set.  A run under
/// any of them measures a different program (fewer threads, scalar
/// kernels, another reactor), so the benchmark refuses to start.
pub fn snn_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SNN_"))
        .collect();
    names.sort();
    names
}

/// The machine and toolchain a run was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// CPUs the process was allowed when it started.
    pub nproc: usize,
    /// The CPU the program under test is confined to (-1: not confined).
    pub program_cpu: i64,
    /// The CPU the load generator runs on (-1: with the program).
    pub generator_cpu: i64,
    pub cpu_model: String,
    pub simd: String,
    pub thread_budget: usize,
    pub rustc: String,
    pub git_revision: String,
}

impl HostInfo {
    pub fn collect(plan: CpuPlan) -> HostInfo {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        HostInfo {
            nproc: plan.allowed,
            program_cpu: plan.program.map_or(-1, |cpu| cpu as i64),
            generator_cpu: plan.generator.map_or(-1, |cpu| cpu as i64),
            cpu_model,
            simd: snn_tensor::simd::active_level().name().to_string(),
            thread_budget: snn_parallel::budget().total(),
            rustc,
            git_revision: git_revision(),
        }
    }
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository: `unknown` there).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.clone(), |r| r.trim().to_string()),
        None => head,
    }
}

/// A fixed integer kernel (xorshift steps): its time depends on the
/// machine's state, never on the program under test.
pub fn yardstick_kernel() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Yardstick samples taken at block boundaries of a run.
#[derive(Debug, Default)]
pub struct Yardstick {
    samples_us: Vec<f64>,
}

impl Yardstick {
    pub fn with_capacity(blocks: usize) -> Yardstick {
        Yardstick {
            samples_us: Vec::with_capacity(blocks),
        }
    }

    /// Times one pass of the kernel (never reallocates below capacity, so
    /// it is safe inside an allocation-counted span).
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(yardstick_kernel());
        let us = t.elapsed().as_secs_f64() * 1e6;
        if self.samples_us.len() < self.samples_us.capacity() {
            self.samples_us.push(us);
        }
    }

    /// Median kernel time in microseconds.
    pub fn median_us(&self) -> f64 {
        stats::median(&self.samples_us)
    }

    /// (p90 − p10) / p50 of the kernel times: how unevenly the machine ran
    /// during the span.  Above [`NOISY_SPREAD`] the run is flagged.
    pub fn spread(&self) -> f64 {
        let s = stats::sorted(self.samples_us.clone());
        let p50 = stats::percentile(&s, 0.5);
        (stats::percentile(&s, 0.9) - stats::percentile(&s, 0.1)) / p50
    }

    pub fn noisy(&self) -> bool {
        self.spread() > NOISY_SPREAD
    }
}

/// Yardstick spread above which a run carries the `noisy` note.
pub const NOISY_SPREAD: f64 = 0.15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for _ in 0..200 {
            x = x.wrapping_add(std::hint::black_box(yardstick_kernel()));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() - p0 >= thread_cpu_ns() - t0 - 1_000_000);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn yardstick_is_deterministic_and_sampled() {
        assert_eq!(yardstick_kernel(), yardstick_kernel());
        let mut y = Yardstick::with_capacity(8);
        for _ in 0..20 {
            y.sample();
        }
        assert_eq!(y.samples_us.len(), 8);
        assert!(y.median_us() > 0.0);
        assert!(y.spread() >= 0.0);
    }
}
