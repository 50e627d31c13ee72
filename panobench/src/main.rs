//! panobench: measures the panorama analyzer end to end and layer by
//! layer on two workloads.
//!
//! ```text
//! panobench --workload batch_cold|service_warm --seed N
//!           --seconds S --trace 0|1 --panoramad PATH --panorama PATH
//!           --work-dir DIR [--clk-tck N]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Diagnostics go to standard error. `run.py` next to this crate builds
//! the binaries and supplies the paths; see the README.

mod batch;
mod checks;
mod gen;
mod layers;
mod service;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's command line.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The `panoramad` binary.
    pub panoramad: PathBuf,
    /// The `panorama` binary.
    pub panorama: PathBuf,
    /// Scratch directory for this run (cache store, tiny input file).
    pub work: PathBuf,
    /// Kernel clock ticks per second, for `/proc` CPU times.
    pub clk_tck: f64,
}

/// One run's outcome: the operation counts and the metrics, in print
/// order.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        panoramad: PathBuf::new(),
        panorama: PathBuf::new(),
        work: PathBuf::new(),
        clk_tck: 100.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(bad)?,
            "--seconds" => ctx.seconds = value.parse().map_err(|_| format!("bad --seconds"))?,
            "--trace" => ctx.trace = value == "1",
            "--panoramad" => ctx.panoramad = value.into(),
            "--panorama" => ctx.panorama = value.into(),
            "--work-dir" => ctx.work = value.into(),
            "--clk-tck" => ctx.clk_tck = value.parse().map_err(|_| format!("bad --clk-tck"))?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if ctx.work.as_os_str().is_empty() {
        return Err("--work-dir is required".to_string());
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("panobench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("panobench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let result = match (ctx.workload.as_str(), ctx.trace) {
        ("batch_cold", false) => batch::run(&ctx),
        ("service_warm", false) => service::run_warm(&ctx),
        ("batch_cold" | "service_warm", true) => layers::run(&ctx),
        (other, _) => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(r) => {
            println!("{}", r.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("panobench: {e}");
            ExitCode::FAILURE
        }
    }
}
