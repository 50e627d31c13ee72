//! Seeded input generation. Everything the analyzer sees is built here
//! from the `--seed` the benchmark was given; the same seed always gives
//! the same programs in the same order.
//!
//! The seed varies names, constants, trip counts and the random
//! statements of the guarded programs, but never a program's *size
//! class*: every seed yields the same number of programs of each shape,
//! so the work per pass, and with it the timings, stay comparable across
//! seeds.

use benchsuite::{ContentKernel, Kernel, RangeKernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Fill/take pair counts of the call-tree programs of the batch corpus.
pub const SYNTH_PAIRS: [usize; 5] = [8, 16, 32, 64, 128];
/// Guarded nested-loop programs in the batch corpus.
pub const BATCH_GUARDED: usize = 48;
/// Call-tree programs in the service program set; program `i` has
/// `16 + 3i` fill/take pairs. Replaying a summary is cheap, so the set
/// is made of large programs: a request then costs the daemon several
/// milliseconds of parsing, judging, linting and encoding, which keeps
/// wake-up latency between client, reader, worker and emitter threads
/// (which swings widely on a shared virtual machine) a small share of
/// every latency.
pub const WARM_SYNTH: usize = 16;
/// Multi-root programs (several call-DAG roots) in the service set.
pub const WARM_MULTIROOT: usize = 4;

/// What a generated program is, and so which checks apply to it.
#[derive(Clone, Debug)]
pub enum Kind {
    /// One of the twelve Table 1/2 kernels, unchanged.
    Kernel(Kernel),
    /// A value-range flip kernel, unchanged.
    Range(RangeKernel),
    /// An array-content kernel, unchanged.
    Content(ContentKernel),
    /// A call-tree program whose main `DO i` loop is parallel after
    /// privatizing `w`, by construction.
    Synthetic,
    /// A random guarded nested-loop program.
    Guarded,
    /// A program with several call-DAG roots.
    MultiRoot,
}

/// One generated program.
#[derive(Clone, Debug)]
pub struct Prog {
    /// Short label for diagnostics.
    pub name: String,
    /// Fortran source text.
    pub source: String,
    /// Shape, for the checks.
    pub kind: Kind,
}

fn rng(seed: u64, stream: u64) -> StdRng {
    // Independent streams per purpose, so adding a program of one kind
    // never shifts the programs of another.
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

fn fixed_kernels() -> Vec<Prog> {
    let mut out = Vec::new();
    for k in benchsuite::kernels() {
        out.push(Prog {
            name: format!("kernel:{}", k.loop_label),
            source: k.source.to_string(),
            kind: Kind::Kernel(k),
        });
    }
    for k in benchsuite::range_kernels() {
        out.push(Prog {
            name: format!("range:{}", k.tag),
            source: k.source.to_string(),
            kind: Kind::Range(k),
        });
    }
    for k in benchsuite::content_kernels() {
        out.push(Prog {
            name: format!("content:{}", k.tag),
            source: k.source.to_string(),
            kind: Kind::Content(k),
        });
    }
    out
}

/// Per-routine constants of a call-tree program. `consts[2k]` belongs to
/// `fill{k}`, `consts[2k+1]` to `take{k}`.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Fill/take pairs.
    pub pairs: usize,
    /// Trip count of the main `DO i` loop (at most 64, the extent of
    /// `r`). Kept small: the analysis is symbolic and does not depend
    /// on it, but the interpreter behind the race-oracle check executes
    /// every iteration once per loop.
    pub outer: usize,
    /// Inner trip count `m` (at most 512, the extent of `w`); a runtime
    /// value the analysis treats symbolically.
    pub inner: usize,
    /// One constant per routine.
    pub consts: Vec<u32>,
}

impl SynthSpec {
    /// A spec with seeded trip count and constants.
    pub fn random(r: &mut StdRng, pairs: usize) -> SynthSpec {
        SynthSpec {
            pairs,
            outer: r.random_range(3..=5),
            inner: r.random_range(4..=8),
            consts: (0..2 * pairs).map(|_| r.random_range(0..1000)).collect(),
        }
    }

    /// The program text: `PROGRAM synth` calls `fill{k}` (writes
    /// `w(1:m)`) then `take{k}` (reads `w(1:m)`) inside `DO i`, the
    /// access structure of `benchsuite::synthetic_program`.
    pub fn source(&self) -> String {
        let mut src = String::new();
        let _ = writeln!(src, "      PROGRAM synth");
        let _ = writeln!(src, "      REAL w(512), r(64)");
        let _ = writeln!(src, "      INTEGER i, m");
        let _ = writeln!(src, "      m = int(float({}))", self.inner);
        let _ = writeln!(src, "      DO i = 1, {}", self.outer);
        for k in 0..self.pairs {
            let _ = writeln!(src, "        call fill{k}(w, m, i)");
            let _ = writeln!(src, "        call take{k}(r, w, m, i)");
        }
        let _ = writeln!(src, "      ENDDO");
        let _ = writeln!(src, "      END");
        for k in 0..self.pairs {
            let (cf, ct) = (self.consts[2 * k], self.consts[2 * k + 1]);
            let _ = writeln!(
                src,
                "
      SUBROUTINE fill{k}(w, m, i)
      REAL w(*)
      INTEGER m, i, j
      DO j = 1, m
        w(j) = float(i + j + {cf})
      ENDDO
      END

      SUBROUTINE take{k}(r, w, m, i)
      REAL r(*), w(*)
      REAL s
      INTEGER m, i, j
      s = 0.0
      DO j = 1, m
        s = s + w(j)
      ENDDO
      r(i) = s + float({ct})
      END"
            );
        }
        src
    }
}

/// Random guarded nested-loop programs in the shape of the soundness
/// fuzzer's generator: bounds-safe by construction (subscripts drawn
/// from {k, k+1, k+2, i, i+c, const} with i in 1..8, k in 1..6 and
/// arrays of 40), so the interpreter runs every one of them.
///
/// Unlike the fuzzer's, the statement count and nesting are fixed (three
/// random statements around one inner loop of two), and the random
/// choices come from two generators: `shape` (statement kinds, arrays,
/// subscript and guard forms) is seeded by the program's index, `vals`
/// (subscript offsets and constants, guard thresholds) by the benchmark
/// seed. The content pass costs ten times more on some shapes than on
/// others, so drawing shapes per seed would make the corpus's cost, and
/// every timing, swing from seed to seed by far more than the host's
/// own noise.
struct Guarded {
    shape: StdRng,
    vals: StdRng,
    src: String,
    tmps: usize,
}

const OUTER: i64 = 8;
const INNER: i64 = 6;
const ASIZE: i64 = 40;

impl Guarded {
    fn subscript(&mut self, inner: bool) -> String {
        match self.shape.random_range(0..6) {
            0 if inner => "k".to_string(),
            1 if inner => "k + 1".to_string(),
            2 if inner => "k + 2".to_string(),
            3 => "i".to_string(),
            4 => format!("i + {}", self.vals.random_range(0..20)),
            _ => format!("{}", self.vals.random_range(1..=30)),
        }
    }

    fn rhs(&mut self, arrays: &[&str], inner: bool) -> String {
        let mut out = String::new();
        for t in 0..self.shape.random_range(1..=2) {
            if t > 0 {
                out.push_str(" + ");
            }
            match self.shape.random_range(0..4) {
                0 => {
                    let a = arrays[self.shape.random_range(0..arrays.len())];
                    let s = self.subscript(inner);
                    let _ = write!(out, "{a}({s})");
                }
                1 => out.push_str("float(i)"),
                2 if inner => out.push_str("float(k)"),
                _ => {
                    let _ = write!(out, "{}.5", self.vals.random_range(0..9));
                }
            }
        }
        out
    }

    fn stmt(&mut self, arrays: &[&str], inner: bool) {
        let pad = if inner { "          " } else { "        " };
        match self.shape.random_range(0..6) {
            0..=2 => {
                let a = arrays[self.shape.random_range(0..arrays.len())];
                let s = self.subscript(inner);
                let r = self.rhs(arrays, inner);
                let _ = writeln!(self.src, "{pad}{a}({s}) = {r}");
            }
            3 => {
                self.tmps += 1;
                let t = format!("t{}", self.tmps % 3);
                let r = self.rhs(arrays, inner);
                let _ = writeln!(self.src, "{pad}{t} = {r}");
                let a = arrays[self.shape.random_range(0..arrays.len())];
                let s = self.subscript(inner);
                let _ = writeln!(self.src, "{pad}{a}({s}) = {t} + 1.0");
            }
            4 => {
                let cond = match self.shape.random_range(0..3) {
                    0 => "i .GT. 3".to_string(),
                    1 => format!("x .GT. {}.0", self.vals.random_range(0..8)),
                    _ if inner => "k .LE. 4".to_string(),
                    _ => "i .LE. 6".to_string(),
                };
                let a = arrays[self.shape.random_range(0..arrays.len())];
                let s = self.subscript(inner);
                let r = self.rhs(arrays, inner);
                let _ = writeln!(self.src, "{pad}IF ({cond}) THEN");
                let _ = writeln!(self.src, "{pad}  {a}({s}) = {r}");
                if self.shape.random_bool(0.4) {
                    let s2 = self.subscript(inner);
                    let r2 = self.rhs(arrays, inner);
                    let _ = writeln!(self.src, "{pad}ELSE");
                    let _ = writeln!(self.src, "{pad}  {a}({s2}) = {r2}");
                }
                let _ = writeln!(self.src, "{pad}ENDIF");
            }
            _ => {
                let r = self.rhs(arrays, inner);
                let _ = writeln!(self.src, "{pad}x = {r}");
            }
        }
    }

    /// One program. Every other program also carries a guarded work
    /// array `q`, written in full by an inner loop before it is read,
    /// so a share of the outer loops is parallel only after
    /// privatizing it.
    fn program(mut self, name: &str, work_array: bool) -> String {
        let arrays = ["u", "v", "w"];
        let _ = writeln!(self.src, "      PROGRAM {name}");
        let _ = writeln!(
            self.src,
            "      REAL u({ASIZE}), v({ASIZE}), w({ASIZE}), q({INNER})"
        );
        let _ = writeln!(self.src, "      REAL x, t0, t1, t2");
        let _ = writeln!(self.src, "      INTEGER i, k");
        let _ = writeln!(self.src, "      x = 2.5");
        let _ = writeln!(self.src, "      DO i = 1, {OUTER}");
        if work_array {
            let c = self.vals.random_range(1..=9);
            let _ = writeln!(self.src, "        DO k = 1, {INNER}");
            let _ = writeln!(self.src, "          q(k) = float(i + k) * {c}.5");
            let _ = writeln!(self.src, "        ENDDO");
        }
        self.stmt(&arrays, false);
        let _ = writeln!(self.src, "        DO k = 1, {INNER}");
        self.stmt(&arrays, true);
        self.stmt(&arrays, true);
        let _ = writeln!(self.src, "        ENDDO");
        self.stmt(&arrays, false);
        self.stmt(&arrays, false);
        if work_array {
            let at = self.vals.random_range(1..=INNER);
            let _ = writeln!(self.src, "        IF (i .GT. 2) THEN");
            let _ = writeln!(self.src, "          u(i + 30) = q({at}) + x");
            let _ = writeln!(self.src, "        ENDIF");
        }
        let _ = writeln!(self.src, "      ENDDO");
        let _ = writeln!(self.src, "      END");
        self.src
    }
}

fn guarded(r: &mut StdRng, idx: usize) -> Prog {
    let g = Guarded {
        shape: rng(1, idx as u64),
        vals: StdRng::seed_from_u64(r.random_range(0..u64::MAX)),
        src: String::new(),
        tmps: 0,
    };
    let name = format!("g{idx}");
    Prog {
        source: g.program(&name, idx % 2 == 0),
        name: format!("guarded:{name}"),
        kind: Kind::Guarded,
    }
}

/// A program whose call DAG has several roots: the main program calls
/// half of the subroutines, the rest are library entry points nobody
/// calls (the daemon warms each root's subtree on its own thread).
fn multiroot(r: &mut StdRng, idx: usize) -> Prog {
    let routines = 12;
    let mut src = String::new();
    let _ = writeln!(src, "      PROGRAM mr{idx}");
    let _ = writeln!(src, "      REAL a(100), b(100)");
    let _ = writeln!(src, "      INTEGER i");
    let _ = writeln!(src, "      DO i = 1, 100");
    for k in (0..routines).step_by(2) {
        let _ = writeln!(src, "        call lib{k}(a, b, i)");
    }
    let _ = writeln!(src, "      ENDDO");
    let _ = writeln!(src, "      END");
    for k in 0..routines {
        let c = r.random_range(1..50);
        let n = r.random_range(8..=32);
        let _ = writeln!(
            src,
            "
      SUBROUTINE lib{k}(a, b, i)
      REAL a(*), b(*), t(32)
      INTEGER i, j
      DO j = 1, {n}
        t(j) = b(j) + float({c})
      ENDDO
      a(i) = t(1) + t({n})
      END"
        );
    }
    Prog {
        name: format!("multiroot:mr{idx}"),
        source: src,
        kind: Kind::MultiRoot,
    }
}

/// The `batch_cold` corpus: the 12 Table 1/2 kernels, the range and
/// content kernels, call-tree programs of 8 to 128 pairs and guarded
/// nested-loop programs.
pub fn batch_corpus(seed: u64) -> Vec<Prog> {
    let mut out = fixed_kernels();
    let mut r = rng(seed, 1);
    for pairs in SYNTH_PAIRS {
        out.push(Prog {
            name: format!("synth:{pairs}"),
            source: SynthSpec::random(&mut r, pairs).source(),
            kind: Kind::Synthetic,
        });
    }
    let mut r = rng(seed, 2);
    for i in 0..BATCH_GUARDED {
        out.push(guarded(&mut r, i));
    }
    out
}

/// The `service_warm` program set: call-tree programs of 16 to 61 pairs
/// and multi-root programs, in a seeded order.
pub fn warm_programs(seed: u64) -> Vec<Prog> {
    let mut out = Vec::new();
    let mut r = rng(seed, 3);
    for i in 0..WARM_SYNTH {
        let pairs = 16 + 3 * i;
        out.push(Prog {
            name: format!("synth:{pairs}"),
            source: SynthSpec::random(&mut r, pairs).source(),
            kind: Kind::Synthetic,
        });
    }
    let mut r = rng(seed, 5);
    for i in 0..WARM_MULTIROOT {
        out.push(multiroot(&mut r, i));
    }
    let mut r = rng(seed, 6);
    shuffle(&mut out, &mut r);
    out
}

fn shuffle<T>(v: &mut [T], r: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = r.random_range(0..=i);
        v.swap(i, j);
    }
}
