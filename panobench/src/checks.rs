//! Output checks. Every expectation comes from somewhere other than the
//! analyzer's current output: the paper's Table 2 (written by hand into
//! `benchsuite`), properties that hold by construction of the generated
//! programs, the interpreter-backed race oracle, the parser, and the
//! cache-less in-process path. None of them compares against a stored
//! copy of an earlier run.

use crate::gen::{Kind, Prog};
use panorama::driver::{self, Outcome};

/// Runs checks (a)–(d) on one analyzed program and returns a message per
/// failed check:
///
/// * (a) every `Kernel::privatizable` array (Table 2) is privatized in
///   the kernel's target loop, and every range kernel (and, with the
///   content pass on, every flipping content kernel) privatizes its
///   hand-listed arrays;
/// * (b) the main `DO i` loop of a call-tree program is parallel after
///   privatizing `w`;
/// * (c) the race oracle refutes no parallel verdict;
/// * (d) emitted OpenMP source, when there is any, reparses to the same
///   program.
pub fn program_checks(p: &Prog, out: &Outcome, content: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let a = &out.analysis;
    let parallel_with = |routine: &str, var: &str, arrays: &[&str]| {
        a.verdict(routine, var).is_some_and(|v| {
            v.parallel_after_privatization
                && arrays.iter().all(|w| v.privatized.iter().any(|p| p == w))
        })
    };
    match &p.kind {
        Kind::Kernel(k) => {
            for arr in k.privatizable {
                if !driver::array_privatizable(a, k.routine, k.var, arr) {
                    failures.push(format!("(a) {}: {arr} not privatized", p.name));
                }
            }
        }
        Kind::Range(k) => {
            if !parallel_with(k.routine, k.var, k.privatized) {
                failures.push(format!("(a) {}: range flip missing", p.name));
            }
        }
        Kind::Content(k) if content && k.flips => {
            if !parallel_with(k.routine, k.var, k.privatized) {
                failures.push(format!("(a) {}: content flip missing", p.name));
            }
        }
        Kind::Synthetic => {
            if !parallel_with("synth", "i", &["w"]) {
                failures.push(format!("(b) {}: DO i not parallel after privatizing w", p.name));
            }
        }
        _ => {}
    }
    let report = raceoracle::validate(&a.program, &a.sema, &a.verdicts);
    if !report.sound() {
        failures.push(format!(
            "(c) {}: oracle refuted {} parallel verdict(s)",
            p.name, report.soundness_violations
        ));
    }
    if let Some(t) = &out.transform {
        match fortran::parse_program(&t.source) {
            Ok(reparsed) if fortran::strip_lines(&reparsed) == fortran::strip_lines(&a.program) => {}
            Ok(_) => failures.push(format!("(d) {}: emitted source is another program", p.name)),
            Err(e) => failures.push(format!("(d) {}: emitted source does not parse: {e}", p.name)),
        }
    }
    failures
}

/// Loops proved parallel, as they are or after privatization.
pub fn parallel_loops(out: &Outcome) -> usize {
    out.analysis
        .verdicts
        .iter()
        .filter(|v| v.parallel_as_is || v.parallel_after_privatization)
        .count()
}
