//! `batch_cold`: one process analyzes the corpus through the library
//! path the CLI takes (`panorama --content --emit-openmp --json`), with
//! no summary cache.

use crate::gen::{self, Prog};
use crate::util::{self, ms, Slicer};
use crate::{checks, service, Ctx, RunResult};
use panorama::driver::{self, Outcome, Request};
use panorama::Options;
use std::process::{Command, Stdio};
use std::time::Instant;

/// CLI launches whose set-up time is measured before the window, and
/// again after it; the median of both sets is reported.
const SETUP_LAUNCHES: usize = 8;

/// The options of the batch path: value ranges and the content pass on.
pub fn options() -> Options {
    Options {
        content: true,
        ..Options::default()
    }
}

/// Analyzes one program with emission on and encodes its report, as
/// `panorama --content --json` with `--emit-openmp` does.
pub fn analyze(source: &str) -> Result<(Outcome, String), String> {
    let req = Request {
        opts: options(),
        emit: true,
        ..Request::new(source)
    };
    let out = driver::run(&req).map_err(|e| e.to_string())?;
    let line = serde_json::to_string(&out.json()).map_err(|e| e.to_string())?;
    Ok((out, line))
}

/// Set-up time of the batch path: the `panorama` CLI, launched on a
/// one-loop program, from spawn to exit.
fn cli_setup(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let path = ctx.work.join("setup.f");
    let src = "      PROGRAM setup\n      REAL a(10)\n      INTEGER i\n      DO i = 1, 10\n        a(i) = 1.0\n      ENDDO\n      END\n";
    std::fs::write(&path, src).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut times = Vec::new();
    for _ in 0..SETUP_LAUNCHES {
        std::thread::sleep(util::SETUP_GAP);
        let t0 = Instant::now();
        let status = Command::new(&ctx.panorama)
            .args(["--content", "--json"])
            .arg(&path)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start {}: {e}", ctx.panorama.display()))?;
        times.push(t0.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("panorama exited with {status}"));
        }
    }
    Ok(times)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let corpus = gen::batch_corpus(ctx.seed);
    let mut setups = cli_setup(ctx)?;
    // The reference pass: one report per program, kept to compare the
    // timed passes against (determinism), outcomes dropped.
    let reference: Vec<Option<String>> = corpus
        .iter()
        .map(|p| analyze(&p.source).map(|(_, line)| line).ok())
        .collect();

    let start = Instant::now();
    let mut slicer = Slicer::new("self", ctx.clk_tck);
    let mut latencies = Vec::new();
    let mut differing = vec![0u64; corpus.len()];
    let mut passes = 0u64;
    loop {
        for (i, p) in corpus.iter().enumerate() {
            let t0 = Instant::now();
            let line = analyze(&p.source).map(|(_, line)| line).ok();
            latencies.push(ms(t0.elapsed()));
            slicer.op();
            if line.is_none() || line != reference[i] {
                differing[i] += 1;
            }
        }
        passes += 1;
        slicer.round_end();
        if start.elapsed().as_secs_f64() >= ctx.seconds && latencies.len() >= util::MIN_SAMPLES {
            break;
        }
    }
    let throughput = slicer.finish();
    let rss = util::peak_rss_mb("self");
    setups.extend(cli_setup(ctx)?);

    // Checks (a)-(d) after the window, on a fresh analysis per program.
    let mut failed = 0u64;
    let mut loops_parallel = 0;
    for (i, p) in corpus.iter().enumerate() {
        let bad = match analyze(&p.source) {
            Ok((out, line)) => {
                loops_parallel += checks::parallel_loops(&out);
                failing(p, &out) || Some(line) != reference[i]
            }
            Err(e) => {
                eprintln!("panobench: {}: {e}", p.name);
                true
            }
        };
        if differing[i] > 0 {
            eprintln!("panobench: {}: {} report(s) differ", p.name, differing[i]);
        }
        failed += if bad { passes } else { differing[i] };
    }
    let mut r = RunResult {
        attempted: latencies.len() as u64,
        failed,
        ..RunResult::default()
    };
    service::e2e_metrics(&mut r, util::median(&setups), throughput, &latencies, rss, loops_parallel);
    Ok(r)
}

fn failing(p: &Prog, out: &Outcome) -> bool {
    let failures = checks::program_checks(p, out, true);
    for f in &failures {
        eprintln!("panobench: check failed: {f}");
    }
    !failures.is_empty()
}
