//! `timestep`: the closed-loop single-RHS workload on `SolverEngine`.
//! An in-cache factor (100k rows, 200 levels); every step solves with
//! `b` derived from the previous solution, and a fixed share of steps
//! first writes perturbed values with `refresh_values`, so reads and
//! writes share the engine.

use std::time::Instant;

use desim::Pcg32;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, LevelSets, Triangle};
use sptrsv::{reference, verify, SolveWorkspace, SolverEngine};

use crate::{bandwidth_anchor, host, machine, ms, solve_options, stats, timed, Outcome, Run};

/// Computed bytes one warm substitution moves: each stored entry's
/// value and index once, and per row the right-hand side, the
/// diagonal, the solution, an adjacency pointer and a read-modify-
/// write of the running sum. Counted from the layout, not measured:
/// cache misses beyond these compulsory bytes are not included.
pub fn solve_bytes(m: &CscMatrix) -> f64 {
    (m.nnz() * 12 + m.n() * (8 * 4 + 16)) as f64
}

/// A refresh precedes every `REFRESH_PERIOD`-th step: refreshes are a
/// fifth of the steps, so p90 lands inside them and p50 outside.
const REFRESH_PERIOD: u64 = 5;
/// On average one step in this many is checked against the reference
/// substitution, outside the timed interval.
const CHECK_EVERY: u32 = 50;
/// Steps per window of the quietest-window statistics.
const MIN_PER_WINDOW: usize = 100;

/// A copy of `m` with every off-diagonal value scaled by a seeded
/// factor in `[0.98, 1.02]`: same pattern, new values.
pub fn perturbed(m: &CscMatrix, rng: &mut Pcg32) -> CscMatrix {
    let mut m2 = m.clone();
    let col_ptr = m.col_ptr().to_vec();
    let row_idx = m.row_idx().to_vec();
    let vals = m2.values_mut();
    for j in 0..col_ptr.len() - 1 {
        for p in col_ptr[j]..col_ptr[j + 1] {
            if row_idx[p] as usize != j {
                vals[p] *= rng.range_f64(0.98, 1.02);
            }
        }
    }
    m2
}

fn seeded_vec(rng: &mut Pcg32, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

pub fn timestep(run: Run) -> Outcome {
    let mut rng = Pcg32::new(run.seed, 0x75);
    let m = &gen::level_structured(&LevelSpec::new(100_000, 200, 400_000, rng.next_u64()));
    let refreshes: Vec<CscMatrix> = (0..2).map(|_| perturbed(m, &mut rng)).collect();
    let mut out = Outcome { checks_ok: true, ..Outcome::default() };
    let n = m.n();
    let source = &seeded_vec(&mut rng, n);

    // set-up: the engine build and the first solve; the last engine
    // built is the one measured
    let (mut setups, mut build_ms) = (Vec::new(), Vec::new());
    let mut ws = SolveWorkspace::new();
    let mut x = vec![0.0; n];
    let mut kept = None;
    for _ in 0..crate::SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let (engine, d_build) =
            timed(|| SolverEngine::build(m, machine(), &solve_options()).expect("engine build"));
        engine.solve_into(source, &mut x, &mut ws).expect("first solve");
        setups.push(t.elapsed().as_secs_f64());
        build_ms.push(ms(d_build));
        kept = Some(engine);
    }
    out.set("setup_s", stats::median(&setups).expect("reps"));
    let engine = kept.expect("set-up ran");
    out.set("engine.rss_after_build_mb", host::proc_status_mb("VmRSS").unwrap_or(0.0));

    let mut b = source.clone();
    let mut x_next = vec![0.0; n];
    let (mut left_sum, mut x_ref) = (vec![0.0; n], vec![0.0; n]);
    let mut current = m;
    let mut refreshes_done = 0u64;
    let (mut lat, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solve_ms, mut refresh_ms, mut ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < run.seconds {
        let trace_this = run.trace && k % 2 == 1;
        let check = k == 0 || rng.next_below(CHECK_EVERY) == 0;
        let refresh = (k.is_multiple_of(REFRESH_PERIOD) && k > 0)
            .then(|| &refreshes[(k / REFRESH_PERIOD) as usize % refreshes.len()]);
        let t = Instant::now();
        // --- one operation ---
        let refreshed = refresh.map(|m2| (m2, timed(|| engine.refresh_values(m2))));
        let scale = 0.5 / x.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        for ((bi, si), xi) in b.iter_mut().zip(source).zip(&x) {
            *bi = si + scale * xi;
        }
        let (res, d_solve) = timed(|| engine.solve_into(&b, &mut x_next, &mut ws));
        // ---
        let d = t.elapsed();
        k += 1;
        out.attempted += 1;
        if let Some((m2, (r, d_refresh))) = refreshed {
            match r {
                Ok(_) => {
                    current = m2;
                    refreshes_done += 1;
                }
                Err(e) => out.check(false, &format!("refresh_values: {e}")),
            }
            if trace_this {
                refresh_ms.push(ms(d_refresh));
            }
        }
        if let Err(e) = res {
            out.check(false, &format!("solve_into: {e}"));
            continue;
        }
        lat.push(ms(d));
        if trace_this {
            traced.push(ms(d));
            solve_ms.push(ms(d_solve));
        } else {
            untraced.push(ms(d));
        }
        if check {
            let ((), d_ref) = timed(|| {
                reference::solve_lower_into(current, &b, &mut left_sum, &mut x_ref)
                    .expect("reference substitution");
            });
            ref_ms.push(ms(d_ref));
            let err = verify::rel_inf_diff(&x_next, &x_ref);
            out.check(err <= verify::DEFAULT_TOL, &format!("solve vs reference: {err:e}"));
        }
        std::mem::swap(&mut x, &mut x_next);
    }
    eprintln!(
        "timestep: n={n} nnz={} steps={} checked={} refreshes={}",
        m.nnz(),
        lat.len(),
        ref_ms.len(),
        refreshes_done
    );
    crate::closed_loop_metrics(&mut out, &lat, MIN_PER_WINDOW);
    out.set("peak_rss_mb", host::proc_status_mb("VmHWM").unwrap_or(0.0));
    if !run.trace {
        return out;
    }

    // per-layer metrics
    let (_, d_levels) = timed(|| LevelSets::analyze(m, Triangle::Lower));
    out.set("sparsemat.levels_ms", ms(d_levels));
    let build_med = stats::median(&build_ms).expect("builds");
    out.set("engine.build_ms", build_med);
    let events = engine.calibration().map_or(0, |c| c.events) as f64;
    out.set("desim.events", events);
    out.set("desim.events_per_s", events / (build_med / 1e3));
    let solve_p50 = stats::median(&solve_ms).unwrap_or(0.0);
    out.set("engine.solve_ms.p50", solve_p50);
    out.set("engine.over_reference", solve_p50 / stats::median(&ref_ms).expect("checked steps"));
    out.set("engine.refresh_ms.p50", stats::median(&refresh_ms).unwrap_or(0.0));
    let sched = engine.solve(source).expect("solve").schedule.expect("engine schedule");
    out.set("schedule.levels", sched.levels as f64);
    out.set("schedule.chains", sched.chains as f64);
    out.set("schedule.shards", sched.shards as f64);
    out.set("schedule.barriers_per_solve", sched.barriers_per_solve as f64);
    out.set(
        "trace.overhead_frac",
        stats::median(&traced).unwrap_or(0.0) / stats::median(&untraced).unwrap_or(1.0) - 1.0,
    );
    let bytes = solve_bytes(m);
    out.set("exec.computed_bytes_per_solve", bytes);
    drop(engine);
    let gbps = bandwidth_anchor(&mut out);
    out.set("exec.achieved_gbps", bytes / (solve_p50 * 1e6));
    out.set("exec.bw_frac", bytes / (solve_p50 * 1e6) / gbps);
    out
}
