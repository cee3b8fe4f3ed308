//! Host facts printed next to every run, CPU pinning, and the
//! `/proc/self/{stat,status}` readers behind `cpu_us_per_op` and
//! `peak_rss_mb`.

use std::process::Command;

/// Clock ticks per second of `/proc/self/stat` times: `USER_HZ`, which
/// Linux fixes at 100 on every architecture this builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `cpu_set_t`: 1 024 CPUs as a bit set.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // std already links libc; these two are all the harness needs of it.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this process may run on.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and its
    // exact size is passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to `cpu`.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> Result<(), String> {
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} is beyond cpu_set_t"));
    }
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer that the call only
    // reads, and its exact size is passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    Err("CPU affinity is read on Linux only".into())
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> Result<(), String> {
    Err("CPU pinning is done on Linux only".into())
}

/// Pin the process to the last CPU it is allowed on (the first one takes
/// most interrupts). Returns the `pinned CPU` host fact.
pub fn pin_to_one_cpu() -> String {
    let pinned = allowed_cpus().and_then(|cpus| {
        let cpu = *cpus.last().ok_or("empty affinity mask")?;
        pin_to(cpu).map(|()| cpu)
    });
    match pinned {
        Ok(cpu) => cpu.to_string(),
        Err(reason) => format!("unpinned: {reason}"),
    }
}

/// `[0, 1, 2, 5]` → `"0-2,5"`.
pub fn cpu_list(cpus: &[usize]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < cpus.len() {
        let mut j = i;
        while j + 1 < cpus.len() && cpus[j + 1] == cpus[j] + 1 {
            j += 1;
        }
        out.push(if j > i {
            format!("{}-{}", cpus[i], cpus[j])
        } else {
            cpus[i].to_string()
        });
        i = j + 1;
    }
    out.join(",")
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line of `/proc/<pid>/status`, e.g. `VmHWM`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_ticks(&stat).unwrap_or(0) as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The commit checked out in the working directory, if it is a git one.
fn git_rev() -> String {
    first_line_of(Command::new("git").args(["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into())
}

/// Facts about the machine and toolchain, as `(name, value)` pairs.
pub fn facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let allowed = allowed_cpus().map_or_else(|e| format!("unknown: {e}"), |c| cpu_list(&c));
    vec![
        ("nproc", nproc.to_string()),
        ("allowed_cpus", allowed),
        (
            "rel_parallel_max_workers",
            sqlgraph_rel::parallel::max_workers().to_string(),
        ),
        ("git_rev", git_rev()),
        ("rustc", rustc_version()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_odd_command_names() {
        // Field 2 with a space and a ')' inside; utime=731 stime=52.
        let stat = "4242 (perf (v2) x) R 1 4242 4242 34816 4242 4194304 9001 0 3 0 \
                    731 52 0 0 20 0 5 0 123456 987654321 55555 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_ticks(stat), Some(783));
        assert_eq!(parse_stat_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_ticks(""), None);
    }

    #[test]
    fn status_parser_reads_kb_lines() {
        let status = "Name:\tperf\nVmPeak:\t  700000 kB\nVmHWM:\t  608804 kB\n\
                      VmRSS:\t  561796 kB\nThreads:\t5\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(608_804));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(561_796));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // `Vm` alone is a prefix of several keys, not a key.
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn cpu_lists_collapse_runs() {
        assert_eq!(cpu_list(&[0, 1, 2, 5]), "0-2,5");
        assert_eq!(cpu_list(&[3]), "3");
        assert_eq!(cpu_list(&[]), "");
        assert_eq!(cpu_list(&[0, 2, 3]), "0,2-3");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_proc_files_parse() {
        assert!(!allowed_cpus().expect("affinity").is_empty());
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_seconds();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        assert!(process_cpu_seconds() >= before);
    }
}
