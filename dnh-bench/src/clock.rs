//! CPU-time clocks read from procfs (no libc in the tree, so no
//! `getrusage`/`clock_gettime`).

/// Kernel clock ticks per second as exported to user space. `USER_HZ` is
/// 100 on every Linux ABI; `sysconf(_SC_CLK_TCK)` is not reachable without
/// libc. The tick bounds the resolution of a CPU time to 10 ms, which is
/// why one rep lasts seconds.
const USER_HZ: f64 = 100.0;

/// utime + stime, in seconds, out of a `/proc/.../stat` line.
fn cpu_secs_of(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numbered fields resume after the last ')'. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

fn read_cpu(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| cpu_secs_of(&s))
        .unwrap_or_else(|| {
            panic!("{path}: no utime/stime fields (the benchmark needs Linux procfs)")
        })
}

/// CPU seconds of the whole process so far, exited threads included.
pub fn process_cpu_secs() -> f64 {
    read_cpu("/proc/self/stat")
}

/// CPU seconds of the calling thread so far.
pub fn thread_cpu_secs() -> f64 {
    read_cpu("/proc/thread-self/stat")
}

/// 1-minute load average, for the host note.
pub fn load_average_1m() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    s.split_ascii_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_line_with_hostile_command_name() {
        let line = "42 (a b) c)) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(cpu_secs_of(line), Some(3.0));
        assert_eq!(cpu_secs_of("garbage"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_secs(), thread_cpu_secs());
        let mut x = 0u64;
        while thread_cpu_secs() - t0 < 0.03 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(process_cpu_secs() - p0 >= 0.03);
    }
}
