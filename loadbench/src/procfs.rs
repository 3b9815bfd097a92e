//! Per-process and per-thread counters read from Linux `/proc`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (Linux `USER_HZ`,
/// 100 on every mainstream architecture).
pub const TICKS_PER_SEC: f64 = 100.0;

/// Resource counters of a process or a set of its threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// User CPU, in clock ticks.
    pub utime: u64,
    /// System CPU, in clock ticks.
    pub stime: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Voluntary plus involuntary context switches.
    pub ctxsw: u64,
    /// Threads counted.
    pub threads: u64,
}

impl Usage {
    /// User plus system CPU in microseconds.
    pub fn cpu_us(&self) -> f64 {
        (self.utime + self.stime) as f64 * 1e6 / TICKS_PER_SEC
    }

    /// The sum of two disjoint stretches; `threads` is the larger count.
    pub fn plus(&self, o: &Usage) -> Usage {
        Usage {
            utime: self.utime + o.utime,
            stime: self.stime + o.stime,
            minflt: self.minflt + o.minflt,
            ctxsw: self.ctxsw + o.ctxsw,
            threads: self.threads.max(o.threads),
        }
    }

    /// The growth from `earlier` to `self`; `threads` is the later count.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
            threads: self.threads,
        }
    }
}

/// The fields of a `stat` line the benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// The command name (thread name for a task).
    pub comm: String,
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU, in clock ticks.
    pub utime: u64,
    /// System CPU, in clock ticks.
    pub stime: u64,
    /// Threads in the process.
    pub num_threads: u64,
}

/// Parses `/proc/<pid>/stat` (or a task's `stat`). The command name sits
/// in parentheses and may itself hold spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Result<Stat, String> {
    let open = text
        .find('(')
        .ok_or("stat: no '(' before the command name")?;
    let close = text
        .rfind(')')
        .ok_or("stat: no ')' after the command name")?;
    if close < open {
        return Err("stat: ')' before '('".to_string());
    }
    let comm = text[open + 1..close].to_string();
    // Field 3 (state) is index 0 here.
    let rest: Vec<&str> = text[close + 1..].split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        rest.get(n - 3)
            .ok_or_else(|| format!("stat: missing field {n}"))?
            .parse()
            .map_err(|e| format!("stat: field {n}: {e}"))
    };
    Ok(Stat {
        comm,
        minflt: field(10)?,
        utime: field(14)?,
        stime: field(15)?,
        num_threads: field(20)?,
    })
}

/// A numeric field of a `status` file (`VmHWM`, `Threads`, ...), with any
/// `kB` unit dropped.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The whole process: CPU and faults of every thread, including exited
/// ones, from `/proc/<pid>/stat`; context switches summed over the live
/// threads.
pub fn process_usage(pid: u32) -> Result<Usage, String> {
    let stat = parse_stat(&read(&format!("/proc/{pid}/stat"))?)?;
    let tasks = tasks_usage(pid, |_, _| true)?;
    Ok(Usage {
        utime: stat.utime,
        stime: stat.stime,
        minflt: stat.minflt,
        ctxsw: tasks.ctxsw,
        threads: stat.num_threads,
    })
}

/// The live threads of `pid` that `keep(tid, comm)` selects, summed.
pub fn tasks_usage(pid: u32, keep: impl Fn(u32, &str) -> bool) -> Result<Usage, String> {
    let dir = format!("/proc/{pid}/task");
    let entries = fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut total = Usage::default();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        // A thread may exit between listing and reading; skip it.
        let Ok(text) = fs::read_to_string(format!("{dir}/{tid}/stat")) else {
            continue;
        };
        let stat = parse_stat(&text)?;
        if !keep(tid, &stat.comm) {
            continue;
        }
        let Ok(status) = fs::read_to_string(format!("{dir}/{tid}/status")) else {
            continue;
        };
        total.utime += stat.utime;
        total.stime += stat.stime;
        total.minflt += stat.minflt;
        total.ctxsw += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        total.threads += 1;
    }
    Ok(total)
}

/// Host-wide CPU time from the `cpu` line of `/proc/stat`, in ticks:
/// `(total, idle, steal)`.
pub fn parse_cpu_line(text: &str) -> Result<(u64, u64, u64), String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("/proc/stat: no cpu line")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    if v.len() < 8 {
        return Err("/proc/stat: short cpu line".to_string());
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Ok((v[..8].iter().sum(), v[3], v[7]))
}

/// Host-wide CPU ticks `(total, idle, steal)` so far.
pub fn host_cpu() -> Result<(u64, u64, u64), String> {
    parse_cpu_line(&read("/proc/stat")?)
}

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    status_field(&read(&format!("/proc/{pid}/status"))?, "VmHWM")
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (loadpart (mux) 1) S 1 4242 4242 0 -1 4194560 \
        731 0 2 0 157 42 0 0 20 0 7 0 123456 98765432 2048 18446744073709551615 \
        1 1 0 0 0 0 0 4096 17987 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(s.comm, "loadpart (mux) 1");
        assert_eq!(s.minflt, 731);
        assert_eq!(s.utime, 157);
        assert_eq!(s.stime, 42);
        assert_eq!(s.num_threads, 7);
    }

    #[test]
    fn truncated_stat_is_an_error() {
        assert!(parse_stat("12 (x) S 1 2 3").is_err());
        assert!(parse_stat("no parens at all").is_err());
    }

    #[test]
    fn status_fields_drop_units() {
        let status = "Name:\tloadpart\nVmHWM:\t   10240 kB\nThreads:\t5\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(10240));
        assert_eq!(status_field(status, "Threads"), Some(5));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn host_cpu_line_sums_the_first_eight_fields() {
        let text = "cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n";
        assert_eq!(parse_cpu_line(text), Ok((1000, 800, 30)));
        assert!(parse_cpu_line("cpu0 1 2 3\n").is_err());
        assert!(host_cpu().is_ok());
    }

    #[test]
    fn usage_delta_and_cpu() {
        let a = Usage {
            utime: 10,
            stime: 5,
            minflt: 100,
            ctxsw: 7,
            threads: 3,
        };
        let b = Usage {
            utime: 30,
            stime: 15,
            minflt: 150,
            ctxsw: 17,
            threads: 4,
        };
        let d = b.since(&a);
        assert_eq!(
            d,
            Usage {
                utime: 20,
                stime: 10,
                minflt: 50,
                ctxsw: 10,
                threads: 4
            }
        );
        assert_eq!(d.cpu_us(), 300_000.0);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        let u = process_usage(pid).expect("own /proc entry");
        assert!(u.threads >= 1);
        assert!(peak_rss_kib(pid).expect("VmHWM") > 0);
        let all = tasks_usage(pid, |_, _| true).expect("own tasks");
        assert!(all.threads >= 1);
    }
}
