//! The host a result was measured on, and process memory.

/// Core count, worker-pool size and SIMD dispatch level: every result
/// records these, because throughput depends on all three.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Threads in the tensor worker pool (`IST_THREADS`, else the cores).
    pub pool_threads: usize,
    /// The SIMD level the kernels dispatch to.
    pub dispatch: &'static str,
}

impl Host {
    /// Reads the running host.
    pub fn detect() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: ist_tensor::pool::global().threads(),
            dispatch: ist_tensor::simd::level().name(),
        }
    }

    /// Refuses a run whose client or pool thread count exceeds the cores:
    /// such a run measures oversubscription, not the system.
    pub fn check(&self, clients: usize) -> Result<(), String> {
        if clients > self.cores {
            return Err(format!(
                "{clients} client threads exceed the host's {} cores; refusing to measure \
                 oversubscription",
                self.cores
            ));
        }
        if self.pool_threads > self.cores {
            return Err(format!(
                "{} pool threads (IST_THREADS) exceed the host's {} cores; refusing to \
                 measure oversubscription",
                self.pool_threads, self.cores
            ));
        }
        Ok(())
    }

    /// One report line.
    pub fn describe(&self) -> String {
        format!(
            "host: cores {} / pool_threads {} / dispatch {}",
            self.cores, self.pool_threads, self.dispatch
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// Minor page faults this process has taken so far (`/proc/self/stat`
/// field 10), when readable.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    rest.split_whitespace().nth(7)?.parse().ok()
}
