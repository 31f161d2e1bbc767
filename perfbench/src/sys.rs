//! Process memory readings and the machine/build fingerprint.

use std::process::Command;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: hand free heap pages back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

/// glibc's `M_MMAP_THRESHOLD` parameter.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

/// Allocations of at least this many bytes get their own mapping. At
/// 128 KiB or 1 MiB every mid-sized block was mapped and faulted in
/// afresh, which slowed `eth-adhoc-query` by a quarter; at 8 MiB it ran
/// as fast as with glibc's default.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const MMAP_THRESHOLD: i32 = 8 << 20;

/// Make RSS follow live memory, not the allocator's history. Serve every
/// thread from one allocator arena: with one arena per thread, how much
/// freed memory each arena keeps depends on thread timing, and peak RSS
/// moved by a fifth between runs of one seed. Pin the mmap threshold:
/// glibc otherwise raises it each time a large block is freed, so later
/// large blocks land in the heap, where fragmentation decides how far it
/// grows, and `eth-adhoc-query`'s peak RSS moved by a third between runs
/// of one seed. Call before any thread starts.
pub fn steady_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` takes no pointers; these parameters only bound how
    // many arenas later threads may create and where large blocks go.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
    }
}

/// Return the allocator's free pages to the kernel, so that memory the
/// timed phase allocates shows up as RSS growth instead of silently
/// reusing pages that set-up freed.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds as free; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak-RSS growth over a phase: reset the high-water mark at the start
/// (`/proc/self/clear_refs` ← `5`) and read `VmHWM` at the end.
pub struct PeakRss {
    start_kb: Option<u64>,
}

impl PeakRss {
    /// Reset the high-water mark to the current RSS. Where the reset is
    /// unavailable the growth is reported as missing, never as a number.
    pub fn start() -> PeakRss {
        release_free_heap();
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        PeakRss {
            start_kb: if reset { status_kb("VmRSS:") } else { None },
        }
    }

    /// Growth of the peak RSS since [`PeakRss::start`], in MB.
    pub fn growth_mb(&self) -> Option<f64> {
        let start = self.start_kb?;
        let peak = status_kb("VmHWM:")?;
        Some(peak.saturating_sub(start) as f64 / 1024.0)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Machine and build fingerprint as one JSON object: CPU count and
/// model, kernel, compiler, source commit and the scan thread count the
/// store resolves by default.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"scan_threads\":{nproc}}}",
        escape(&cpu),
        escape(&kernel),
        escape(&rustc),
        escape(&commit)
    )
}
