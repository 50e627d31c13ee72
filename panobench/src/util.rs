//! Small helpers: order statistics, process accounting from `/proc`,
//! and the JSON string escaping of request lines.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. `values` need not be sorted. Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time (user + system) consumed so far by process `pid`, in
/// clock ticks, from `/proc/<pid>/stat`. Covers every thread of the
/// process, including threads that already exited.
pub fn cpu_ticks(pid: &str) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    field(11) + field(12)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_string())).expect("strings always serialize")
}

/// Fewest latency samples a run takes, whatever `--seconds` says, so
/// that its p99 has at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Pause between the set-up launches of one run. Set-up takes a few
/// milliseconds, while this host's speed shifts every second or so; a
/// run's launches, spread over a few seconds, sample several of those
/// phases instead of one, and their median moves less from run to run.
pub const SETUP_GAP: Duration = Duration::from_millis(200);

/// Shortest slice of a measured window (see [`Slicer`]).
const SLICE: Duration = Duration::from_secs(1);

/// Throughput and CPU cost of a measured window, taken per slice: the
/// window is cut into slices of at least [`SLICE`], always at the end of
/// a whole round of operations, and the run reports the median slice.
/// A burst of load from elsewhere on the host that hits one slice then
/// moves the result little. A short final slice (the drain of the last
/// requests in flight) is merged into the one before it.
pub struct Slicer {
    pid: String,
    clk_tck: f64,
    start: std::time::Instant,
    cpu0: u64,
    ops: u64,
    /// `(operations, seconds, CPU ticks)` per closed slice.
    slices: Vec<(u64, f64, u64)>,
}

impl Slicer {
    /// Starts measuring process `pid` ("self" for this process).
    pub fn new(pid: &str, clk_tck: f64) -> Slicer {
        Slicer {
            pid: pid.to_string(),
            clk_tck,
            cpu0: cpu_ticks(pid),
            start: std::time::Instant::now(),
            ops: 0,
            slices: Vec::new(),
        }
    }

    /// Counts one completed operation.
    pub fn op(&mut self) {
        self.ops += 1;
    }

    /// Marks the end of a round; closes the slice once it is long enough.
    pub fn round_end(&mut self) {
        if self.start.elapsed() >= SLICE {
            self.close();
        }
    }

    fn close(&mut self) {
        let cpu = cpu_ticks(&self.pid);
        self.slices.push((
            self.ops,
            self.start.elapsed().as_secs_f64(),
            cpu.saturating_sub(self.cpu0),
        ));
        self.cpu0 = cpu;
        self.start = std::time::Instant::now();
        self.ops = 0;
    }

    /// Operations per second and CPU milliseconds per operation, each
    /// the median over slices.
    pub fn finish(mut self) -> (f64, f64) {
        let short = self.start.elapsed() < SLICE / 2;
        self.close();
        if short && self.slices.len() > 1 {
            let (o, s, c) = self.slices.pop().expect("two slices");
            let last = self.slices.last_mut().expect("one slice");
            *last = (last.0 + o, last.1 + s, last.2 + c);
        }
        let rates: Vec<f64> = self.slices.iter().map(|&(o, s, _)| o as f64 / s).collect();
        let cpu: Vec<f64> = self
            .slices
            .iter()
            .map(|&(o, _, c)| c as f64 * 1e3 / self.clk_tck / o.max(1) as f64)
            .collect();
        (median(&rates), median(&cpu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn strings_escape() {
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
