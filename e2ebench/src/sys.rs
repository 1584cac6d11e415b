//! Process counters read from outside the training code: `getrusage`
//! for CPU time, faults, context switches and peak RSS.

/// `struct rusage` of Linux x86-64 / aarch64: two `timeval`s then
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const MAXRSS: usize = 0;
const MINFLT: usize = 4;
const NVCSW: usize = 12;

/// A snapshot of this process's resource usage (all threads, live and
/// exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub vol_ctx_switches: u64,
    pub peak_rss_kib: u64,
}

pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` for
    // this target, and `RUSAGE_SELF` is a valid `who`; the call writes
    // only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        user_s: secs(ru.utime),
        sys_s: secs(ru.stime),
        minor_faults: ru.counters[MINFLT] as u64,
        vol_ctx_switches: ru.counters[NVCSW] as u64,
        peak_rss_kib: ru.counters[MAXRSS] as u64,
    }
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
