//! `pcg_ilu0`: preconditioned conjugate gradients with an ILU(0)
//! preconditioner applied through the warm engine pair — the paper's
//! §I use, a triangular solve pair inside every Krylov iteration.
//! Closed loop, one caller; one operation is one solve to tolerance on
//! a fresh seeded right-hand side.

use std::cell::Cell;
use std::time::Instant;

use desim::Pcg32;
use sparsemat::factor::ilu0;
use sparsemat::{gen, CscMatrix, LevelSets, Triangle};
use sptrsv::krylov::{pcg, KrylovOptions, Precondition, PreconditionerEngine, SpMv};
use sptrsv::{reference, verify, SolveError, SolveOptions, SolverEngine};

use crate::{bandwidth_anchor, host, machine, ms, solve_options, stats, timed, Outcome, Run};

const GRID: usize = 256;
const REL_TOL: f64 = 1e-8;
/// The recomputed residual may exceed the recurrence's by rounding;
/// anything past this factor of the tolerance is a wrong answer.
const TRUE_RESIDUAL_SLACK: f64 = 10.0;
/// Every this many solves (on average) also checks one preconditioner
/// application against the reference substitution pair.
const APPLY_CHECK_EVERY: u32 = 8;

/// `SpMv` with the benchmark's own timer around each product.
struct TimedSpMv<'a> {
    a: &'a CscMatrix,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl SpMv for TimedSpMv<'_> {
    fn dim(&self) -> usize {
        self.a.n()
    }

    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.a.spmv_into(x, y);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }
}

/// `Precondition` with the benchmark's own timer around each apply.
struct TimedApply<'a, 'm> {
    m: &'a PreconditionerEngine<'m>,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Precondition for TimedApply<'_, '_> {
    fn dim(&self) -> usize {
        self.m.dim()
    }

    fn precondition_into(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveError> {
        let t = Instant::now();
        let res = self.m.precondition_into(r, z);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        res
    }
}

fn rhs(rng: &mut Pcg32, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖b − A x‖₂ / ‖b‖₂`, recomputed outside the solver.
fn true_rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.n()];
    a.matvec_into(x, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
    norm2(&r) / norm2(b)
}

/// Computed bytes of one SpMV over CSC: values and row indices once,
/// column pointers, `x` read and `y` read-modify-written.
fn spmv_bytes(a: &CscMatrix) -> f64 {
    (a.nnz() * 12 + a.n() * (8 + 8 + 16)) as f64
}

pub fn run(run: Run) -> Outcome {
    let mut out = Outcome { checks_ok: true, ..Outcome::default() };
    let mut rng = Pcg32::new(run.seed, 0x9C6);
    let a = gen::grid_laplacian(GRID, GRID);
    let n = a.n();
    let kopts = KrylovOptions { max_iterations: 2000, rel_tol: REL_TOL };

    // set-up: ILU(0), the engine pair, and the first solve to tolerance
    let (mut setups, mut ilu_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut factors = None;
    for _ in 0..crate::SETUP_REPS {
        let b0 = rhs(&mut rng, n);
        let t = Instant::now();
        let (f, d_ilu) = timed(|| ilu0(&a, 1e-8).expect("grid Laplacian factors"));
        let (pre, d_build) = timed(|| {
            PreconditionerEngine::from_ilu0(&f, machine(), &solve_options()).expect("engine pair")
        });
        let first = pcg(&a, &b0, &pre, &kopts);
        setups.push(t.elapsed().as_secs_f64());
        ilu_ms.push(ms(d_ilu));
        build_ms.push(ms(d_build));
        out.attempted += 1;
        out.check(first.is_ok_and(|r| r.converged), "first pcg solve converged");
        drop(pre);
        factors = Some(f);
    }
    out.set("setup_s", stats::median(&setups).expect("reps"));
    let f = factors.expect("set-up ran");
    let pre =
        PreconditionerEngine::from_ilu0(&f, machine(), &solve_options()).expect("engine pair");
    out.set("engine.rss_after_build_mb", host::proc_status_mb("VmRSS").unwrap_or(0.0));

    // measured loop; in a traced run every other solve goes through the
    // timed wrappers, so traced and untraced solves share the machine
    let tspmv = TimedSpMv { a: &a, ns: Cell::new(0), calls: Cell::new(0) };
    let tapply = TimedApply { m: &pre, ns: Cell::new(0), calls: Cell::new(0) };
    let (mut lat, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut iters, mut traced_iters) = (Vec::new(), 0usize);
    let mut worst_residual = 0.0f64;
    let mut z = vec![0.0; n];
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < run.seconds {
        let b = rhs(&mut rng, n);
        let check_apply = k == 0 || rng.next_below(APPLY_CHECK_EVERY) == 0;
        let trace_this = run.trace && k % 2 == 1;
        let (rep, d) = if trace_this {
            timed(|| pcg(&tspmv, &b, &tapply, &kopts))
        } else {
            timed(|| pcg(&a, &b, &pre, &kopts))
        };
        k += 1;
        out.attempted += 1;
        let Ok(rep) = rep else {
            out.check(false, "pcg returned an error");
            continue;
        };
        lat.push(ms(d));
        if trace_this {
            traced.push(ms(d));
            traced_iters += rep.iterations;
        } else {
            untraced.push(ms(d) / rep.iterations.max(1) as f64);
        }
        iters.push(rep.iterations as f64);
        let res = true_rel_residual(&a, &rep.x, &b);
        worst_residual = worst_residual.max(res);
        out.check(
            rep.converged && res <= TRUE_RESIDUAL_SLACK * REL_TOL,
            &format!("pcg converged to {res:e} (recomputed)"),
        );
        if check_apply {
            pre.precondition_into(&b, &mut z).expect("apply");
            let y = reference::solve_lower(&f.l, &b).expect("reference L");
            let want = reference::solve_upper(&f.u, &y).expect("reference U");
            let err = verify::rel_inf_diff(&z, &want);
            out.check(err <= verify::DEFAULT_TOL, &format!("apply vs reference: {err:e}"));
        }
    }
    eprintln!(
        "pcg_ilu0: n={n} solves={} median iterations={} worst recomputed residual={worst_residual:e}",
        lat.len(),
        stats::median(&iters).unwrap_or(0.0)
    );
    crate::closed_loop_metrics(&mut out, &lat, 5);
    out.set("peak_rss_mb", host::proc_status_mb("VmHWM").unwrap_or(0.0));
    if !run.trace {
        return out;
    }

    // per-layer metrics
    out.set("sparsemat.ilu0_ms", stats::median(&ilu_ms).expect("reps"));
    out.set("engine.build_ms", stats::median(&build_ms).expect("reps"));
    let (_, d_levels) = timed(|| {
        (LevelSets::analyze(&f.l, Triangle::Lower), LevelSets::analyze(&f.u, Triangle::Upper))
    });
    out.set("sparsemat.levels_ms", ms(d_levels));
    let (events, d_probe) = timed(|| {
        let lo = SolverEngine::build(&f.l, machine(), &solve_options()).expect("L engine");
        let up_opts = SolveOptions { triangle: Triangle::Upper, ..solve_options() };
        let up = SolverEngine::build(&f.u, machine(), &up_opts).expect("U engine");
        [lo, up].iter().map(|e| e.calibration().map_or(0, |c| c.events)).sum::<u64>()
    });
    out.set("desim.events", events as f64);
    out.set("desim.events_per_s", events as f64 / d_probe.as_secs_f64());
    let iters_med = stats::median(&iters).expect("solves");
    out.set("krylov.iterations", iters_med);
    let per_call = |ns: &Cell<u64>, calls: &Cell<u64>| ns.get() as f64 / calls.get().max(1) as f64;
    let spmv_us = per_call(&tspmv.ns, &tspmv.calls) / 1e3;
    let apply_us = per_call(&tapply.ns, &tapply.calls) / 1e3;
    let traced_total_us = traced.iter().sum::<f64>() * 1e3;
    let vector_us = (traced_total_us - (tspmv.ns.get() + tapply.ns.get()) as f64 / 1e3)
        / traced_iters.max(1) as f64;
    out.set("krylov.spmv_us", spmv_us);
    out.set("krylov.apply_us", apply_us);
    out.set("krylov.vector_us", vector_us);
    let untraced_iter_us = stats::median(&untraced).unwrap_or(f64::NAN) * 1e3;
    let sum_frac = (spmv_us + apply_us + vector_us) / untraced_iter_us;
    out.set("krylov.layer_sum_frac", sum_frac);
    if (sum_frac - 1.0).abs() > 0.10 {
        eprintln!("pcg_ilu0: layer sum misses the untraced iteration time by more than 10%");
    }
    let traced_iter_us = traced_total_us / traced_iters.max(1) as f64;
    out.set("trace.overhead_frac", traced_iter_us / untraced_iter_us - 1.0);
    // the L and U substitutions of one apply are the triangular kernel
    let apply_bytes = crate::steps::solve_bytes(&f.l) + crate::steps::solve_bytes(&f.u);
    out.set("exec.computed_bytes_per_solve", apply_bytes);
    let gbps = bandwidth_anchor(&mut out);
    out.set("exec.achieved_gbps", apply_bytes / (apply_us * 1e3));
    out.set("exec.bw_frac", apply_bytes / (apply_us * 1e3) / gbps);
    out.set("krylov.spmv_bw_frac", spmv_bytes(&a) / (spmv_us * 1e3) / gbps);
    out
}
