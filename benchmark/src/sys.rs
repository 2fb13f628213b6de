//! What the benchmark asks the operating system: memory high-water marks,
//! child CPU time and the description of the host.

use crate::json::Value;
use std::process::Command;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Over every child this process has waited for: the largest resident set
/// in bytes, and user + system CPU seconds.
pub fn children_usage() -> (u64, f64) {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux C library documents, and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (u.maxrss_kb as u64 * 1024, secs(&u.utime) + secs(&u.stime))
}

/// This process's resident-set high-water mark (`VmHWM`) in bytes.
pub fn own_peak_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// What a reader needs to interpret the numbers: the host and the build.
pub fn environment() -> Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".into(), |s| s.trim().to_owned());
    let caches = (0..8).map_while(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let field = |f: &str| read(&format!("{dir}/{f}")).trim().to_owned();
        let size = field("size");
        (!size.is_empty())
            .then(|| Value::str(format!("L{} {} {size}", field("level"), field("type"))))
    });
    Value::obj([
        ("git_commit", Value::str(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("rustc", Value::str(first_line_of("rustc", &["-V"]))),
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model)),
        ("caches", Value::Arr(caches.collect())),
        ("load_average_at_start", Value::str(read("/proc/loadavg").trim())),
    ])
}
