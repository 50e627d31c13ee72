//! The service workload: `panoramad` as a separate process speaking
//! NDJSON on stdin/stdout, driven by a closed loop that keeps at most
//! [`DEPTH`] requests in flight.

use crate::gen::{self, Prog};
use crate::util::{self, json_string, ms, Slicer};
use crate::{checks, Ctx, RunResult};
use panorama::driver::{self, Outcome, Request};
use serde::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests in flight (and `--jobs`): the host's two cores.
pub const DEPTH: usize = 2;
/// Daemon spawns whose set-up time is measured before the window, and
/// again after it; the median of both sets and of the serving daemon's
/// spawn is reported.
const SETUP_SPAWNS: usize = 10;
/// A running `panoramad`. Dropping it closes its input and waits for it
/// (killing it first if it has not exited), so no run leaves a daemon
/// behind.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Process id, as `/proc` spells it.
    pub pid: String,
}

impl Daemon {
    /// Spawns the daemon and waits for the answer to its first health
    /// probe. Returns the daemon and the seconds that took.
    pub fn spawn<S: AsRef<std::ffi::OsStr>>(ctx: &Ctx, args: &[S]) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(&ctx.panoramad)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.panoramad.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let pid = child.id().to_string();
        let mut d = Daemon {
            child,
            stdin,
            stdout,
            pid,
        };
        d.send(r#"{"id":"health","cmd":"health"}"#)?;
        let line = d.recv()?;
        let setup = t0.elapsed().as_secs_f64();
        let health = serde_json::from_str(&line).map_err(|e| format!("bad health line: {e}"))?;
        if health.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("health probe failed: {line}"));
        }
        Ok((d, setup))
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let w = self.stdin.as_mut().ok_or("daemon input closed")?;
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .map_err(|e| format!("cannot write to daemon: {e}"))
    }

    /// Reads one response line.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon closed its output".to_string()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("cannot read from daemon: {e}")),
        }
    }

    /// Sends `{"cmd":"stats"}` and returns the parsed stats object.
    pub fn stats(&mut self) -> Result<Value, String> {
        self.send(r#"{"id":"stats","cmd":"stats"}"#)?;
        let line = self.recv()?;
        let v = serde_json::from_str(&line).map_err(|e| format!("bad stats line: {e}"))?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats failed: {line}"))
    }

    /// Closes the daemon's input and waits for a clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            // Give a daemon draining its queue a moment before killing.
            for _ in 0..50 {
                std::thread::sleep(Duration::from_millis(10));
                if !matches!(self.child.try_wait(), Ok(None)) {
                    return;
                }
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns [`SETUP_SPAWNS`] daemons one after another, [`util::SETUP_GAP`]
/// apart, with the same arguments, and closes each again; returns each
/// one's time from spawn to its first health answer.
fn setup_times<S: AsRef<std::ffi::OsStr>>(ctx: &Ctx, args: &[S]) -> Result<Vec<f64>, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        std::thread::sleep(util::SETUP_GAP);
        let (d, s) = Daemon::spawn(ctx, args)?;
        setups.push(s);
        d.finish()?;
    }
    Ok(setups)
}

/// A completed request: its sequence number, response line and latency.
pub struct Done {
    /// Sequence number given at submission.
    pub seq: usize,
    /// The response line.
    pub line: String,
    /// Send-to-response time.
    pub latency: Duration,
}

/// The closed loop: a new request goes out only when fewer than
/// [`DEPTH`] are outstanding. Responses arrive in request order.
pub struct Pipeline<'a> {
    d: &'a mut Daemon,
    inflight: VecDeque<(usize, Instant)>,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over a running daemon.
    pub fn new(d: &'a mut Daemon) -> Pipeline<'a> {
        Pipeline {
            d,
            inflight: VecDeque::new(),
        }
    }

    /// Sends a request once there is room, returning the request that
    /// completed to make room, if any.
    pub fn submit(&mut self, seq: usize, line: &str) -> Result<Option<Done>, String> {
        let done = if self.inflight.len() >= DEPTH {
            self.next_done()?
        } else {
            None
        };
        self.d.send(line)?;
        self.inflight.push_back((seq, Instant::now()));
        Ok(done)
    }

    /// Waits for the oldest outstanding request; `None` when idle.
    pub fn next_done(&mut self) -> Result<Option<Done>, String> {
        let Some((seq, sent)) = self.inflight.pop_front() else {
            return Ok(None);
        };
        let line = self.d.recv()?;
        Ok(Some(Done {
            seq,
            line,
            latency: sent.elapsed(),
        }))
    }
}

/// The request line for analyzing `source` under id `seq`, default
/// options (value ranges on, content off, no emission).
fn analyze_line(seq: usize, escaped_source: &str) -> String {
    format!("{{\"id\":{seq},\"source\":{escaped_source}}}")
}

/// The cache-less in-process analysis of a service request, with the
/// daemon's default deadline. Its response line is what the daemon
/// must answer, byte for byte, whatever its cache holds.
pub fn reference(source: &str) -> Result<(Outcome, String), String> {
    let req = Request {
        limits: panorama::FuelLimits {
            deadline_ms: Some(60_000),
            ..panorama::FuelLimits::unlimited()
        },
        ..Request::new(source)
    };
    let out = driver::run(&req).map_err(|e| e.to_string())?;
    let line = panoramad::protocol::ok_response(&Value::Int(0), out.json());
    Ok((out, line))
}

/// The part of a response line after `{"id":<n>`.
fn suffix(line: &str) -> String {
    line.strip_prefix("{\"id\":0").unwrap_or(line).to_string()
}

/// Does `line` answer request `seq` with exactly `suffix`?
fn matches(line: &str, seq: usize, suffix: &str) -> bool {
    let Some(rest) = line.strip_prefix("{\"id\":") else {
        return false;
    };
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse() == Ok(seq) && &rest[digits..] == suffix
}

/// Fills in the end-to-end metrics shared by every workload.
pub fn e2e_metrics(
    r: &mut RunResult,
    setup_s: f64,
    (programs_per_s, cpu_ms_per_program): (f64, f64),
    latencies_ms: &[f64],
    rss_mb: f64,
    loops_parallel: usize,
) {
    r.metric("setup_s", setup_s, "s");
    r.metric("programs_per_s", programs_per_s, "1/s");
    r.metric("latency_p50_ms", util::quantile(latencies_ms, 0.5), "ms");
    // The latencies are cut into as many consecutive blocks of at least
    // MIN_SAMPLES as fit; the p99 of each, median over blocks. A burst of
    // host steal time lifts one block's p99, not the run's.
    let blocks = (latencies_ms.len() / util::MIN_SAMPLES).max(1);
    let size = latencies_ms.len() / blocks;
    let p99s: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { latencies_ms.len() } else { (b + 1) * size };
            util::quantile(&latencies_ms[b * size..end], 0.99)
        })
        .collect();
    r.metric("latency_p99_ms", util::median(&p99s), "ms");
    r.metric("cpu_ms_per_program", cpu_ms_per_program, "ms");
    r.metric("peak_rss_mb", rss_mb, "MiB");
    r.metric("loops_parallel", loops_parallel as f64, "count");
}

/// Checks (a)–(c) on a service program, through its reference outcome.
fn program_failures(p: &Prog, out: &Outcome) -> usize {
    let failures = checks::program_checks(p, out, false);
    for f in &failures {
        eprintln!("panobench: check failed: {f}");
    }
    failures.len()
}

/// The daemon arguments of `service_warm` over store directory `dir`.
pub fn warm_args(jobs: usize, dir: &str) -> Vec<String> {
    ["--jobs", &jobs.to_string(), "--cache-dir", dir]
        .map(String::from)
        .to_vec()
}

/// Creates (or empties) a cache store and writes the summaries of
/// `sources` into it through a daemon of its own.
pub fn populate_store(ctx: &Ctx, store: &Path, sources: &[String]) -> Result<(), String> {
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| format!("cannot clear the store: {e}"))?;
    }
    let dir = store.to_string_lossy().into_owned();
    let (mut d, _) = Daemon::spawn(ctx, &warm_args(1, &dir))?;
    for (i, source) in sources.iter().enumerate() {
        d.send(&analyze_line(i, source))?;
        let line = d.recv()?;
        if !line.contains("\"ok\":true") {
            return Err(format!("populating the store failed: {line}"));
        }
    }
    d.finish()
}

/// `service_warm`: a fixed program set against a daemon that starts over
/// a store populated beforehand (disk-warm), is warmed into memory by one
/// pass, and is then measured memory-warm.
pub fn run_warm(ctx: &Ctx) -> Result<RunResult, String> {
    let programs = gen::warm_programs(ctx.seed);
    let escaped: Vec<String> = programs.iter().map(|p| json_string(&p.source)).collect();
    // References and program checks first: the daemon is not running
    // yet, so none of this competes with it.
    let mut suffixes = Vec::new();
    let mut bad = vec![false; programs.len()];
    let mut loops_parallel = 0;
    for (i, p) in programs.iter().enumerate() {
        let (out, line) = reference(&p.source)?;
        bad[i] = program_failures(p, &out) > 0;
        loops_parallel += checks::parallel_loops(&out);
        suffixes.push(suffix(&line));
    }
    let store = ctx.work.join("store");
    populate_store(ctx, &store, &escaped)?;
    let dir = store.to_string_lossy().into_owned();
    let args = warm_args(DEPTH, &dir);
    let mut setups = setup_times(ctx, &args)?;
    std::thread::sleep(util::SETUP_GAP);
    let (mut daemon, setup_s) = Daemon::spawn(ctx, &args)?;
    setups.push(setup_s);
    let n = programs.len();
    let mut failed = 0u64;
    let check = |done: &Done, failed: &mut u64| {
        let prog = done.seq % n;
        if bad[prog] || !matches(&done.line, done.seq, &suffixes[prog]) {
            if !bad[prog] {
                eprintln!("panobench: response {} differs from the cache-less report", done.seq);
            }
            *failed += 1;
        }
    };
    // Warm-up: one pass promotes every summary from disk into memory.
    let mut warmup_failed = 0;
    let mut pipe = Pipeline::new(&mut daemon);
    for (i, e) in escaped.iter().enumerate() {
        if let Some(done) = pipe.submit(i, &analyze_line(i, e))? {
            check(&done, &mut warmup_failed);
        }
    }
    while let Some(done) = pipe.next_done()? {
        check(&done, &mut warmup_failed);
    }
    let pid = daemon.pid.clone();
    let start = Instant::now();
    let mut slicer = Slicer::new(&pid, ctx.clk_tck);
    let mut pipe = Pipeline::new(&mut daemon);
    let mut latencies = Vec::new();
    let mut seq = n;
    loop {
        for e in &escaped {
            if let Some(done) = pipe.submit(seq, &analyze_line(seq, e))? {
                latencies.push(ms(done.latency));
                check(&done, &mut failed);
                slicer.op();
            }
            seq += 1;
        }
        slicer.round_end();
        if start.elapsed().as_secs_f64() >= ctx.seconds && latencies.len() >= util::MIN_SAMPLES {
            break;
        }
    }
    while let Some(done) = pipe.next_done()? {
        latencies.push(ms(done.latency));
        check(&done, &mut failed);
        slicer.op();
    }
    let throughput = slicer.finish();
    let rss = util::peak_rss_mb(&pid);
    let stats = daemon.stats()?;
    daemon.finish()?;

    // (f) the store took every write and reopens clean. A warm-up
    // response that failed its check fails the whole run.
    let write_errors = stats
        .get("cache")
        .and_then(|c| c.get("write_errors"))
        .and_then(Value::as_u64);
    let reopened = dataflow::DiskCache::open(&store, None).snapshot();
    if write_errors != Some(0) || reopened.quarantined != 0 || reopened.disabled.is_some() {
        eprintln!(
            "panobench: check failed: (f) write errors {write_errors:?}, {} quarantined, disabled {:?}",
            reopened.quarantined, reopened.disabled
        );
        failed = latencies.len() as u64;
    }
    if warmup_failed > 0 {
        eprintln!("panobench: {warmup_failed} warm-up response(s) failed their checks");
        failed = latencies.len() as u64;
    }
    setups.extend(setup_times(ctx, &args)?);
    let _ = std::fs::remove_dir_all(&store);
    let mut r = RunResult {
        attempted: latencies.len() as u64,
        failed,
        ..RunResult::default()
    };
    e2e_metrics(&mut r, util::median(&setups), throughput, &latencies, rss, loops_parallel);
    Ok(r)
}
