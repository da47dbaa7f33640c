//! `serve_fleet`: open-loop traffic through `EngineFleet` to three
//! tenants with skewed popularity. One generator submits seeded
//! right-hand sides on a fixed schedule; one collector waits on the
//! tickets in submission order and, off the submit thread, refreshes
//! one tenant's values periodically.
//!
//! A run repeats a cycle of three segments: a light rate
//! (`latency_ms.*`), a heavy rate below saturation
//! (`loaded_latency_ms.*`), and bursts offered all at once, whose
//! median completion rate is `throughput_ops_s`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::Pcg32;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, FactorFingerprint, LevelSets, Triangle};
use sptrsv::serve::ServiceReport;
use sptrsv::{reference, verify, EngineFleet, FleetConfig, SolverEngine};

use crate::stats::{self, Schedule};
use crate::{host, machine, ms, solve_options, timed, Outcome, Run};

/// Light offered rate: requests rarely share a panel.
const LIGHT_RPS: f64 = 50.0;
/// Heavy offered rate: about half of what a 2-CPU host sustains.
const HEAVY_RPS: f64 = 100.0;
/// A burst of requests offered at once fills every panel; its
/// completion rate is the fleet's throughput. Sized to the per-tenant
/// queue bound, so the hot tenant takes its share without refusals.
const BURST: u64 = 32;
const BURSTS_PER_CYCLE: usize = 4;
/// Length of each light and heavy segment of a cycle.
const LIGHT_SPAN: Duration = Duration::from_millis(1000);
const HEAVY_SPAN: Duration = Duration::from_millis(750);
/// Share of traffic per tenant: one hot tenant takes most requests.
const MIX_PCT: [u32; 3] = [80, 10, 10];
/// The tenant whose values the collector refreshes, and how often.
const REFRESHED: usize = 1;
const REFRESH_EVERY: Duration = Duration::from_millis(500);
/// On average one request in this many is checked against the
/// reference substitution after its segment.
const CHECK_EVERY: u32 = 32;

struct Inputs {
    tenants: Vec<Arc<CscMatrix>>,
    /// Value sets the refreshed tenant cycles through.
    refreshes: Vec<Arc<CscMatrix>>,
    rhs: Vec<Vec<Vec<f64>>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Pcg32::new(seed, 0xF1);
    let hot = gen::level_structured(&LevelSpec::new(100_000, 200, 400_000, rng.next_u64()));
    let wide = gen::level_structured(&LevelSpec::new(100_000, 24, 400_000, rng.next_u64()));
    let deep = gen::deep_narrow(2000, 6, 3.2, rng.next_u64());
    let refreshes = (0..2).map(|_| Arc::new(crate::steps::perturbed(&wide, &mut rng))).collect();
    let tenants: Vec<Arc<CscMatrix>> = [hot, wide, deep].into_iter().map(Arc::new).collect();
    let rhs = tenants
        .iter()
        .map(|m| (0..4).map(|_| (0..m.n()).map(|_| rng.range_f64(-1.0, 1.0)).collect()).collect())
        .collect();
    Inputs { tenants, refreshes, rhs }
}

/// One checked request: tenant, right-hand side index, solution.
type Sample = (usize, usize, Vec<f64>);

/// What one segment at a fixed offered rate saw.
#[derive(Default)]
struct Segment {
    rate: f64,
    sent: u64,
    refused: u64,
    lateness_ms: Vec<f64>,
    backlog_max: u64,
    /// Filled by the collector thread.
    done: Collected,
}

#[derive(Default)]
struct Collected {
    errors: u64,
    /// Latency from due time of every completed request, ms.
    lat_ms: Vec<f64>,
    /// Latency from the submit call of every completed request, ms.
    ticket_ms: Vec<f64>,
    /// Completion times, from the first due time.
    done_s: Vec<f64>,
    refresh_ms: Vec<f64>,
    refresh_errors: u64,
    samples: Vec<Sample>,
}

impl Collected {
    /// Completions per second from the first due time to the last
    /// completion.
    fn completion_rate(&self) -> f64 {
        let last = self.done_s.iter().copied().fold(0.0, f64::max);
        self.done_s.len() as f64 / last
    }
}

struct Ctx<'a> {
    fleet: &'a EngineFleet,
    fps: &'a [FactorFingerprint],
    inp: &'a Inputs,
}

/// One submitted request on its way to the collector.
struct Msg<T> {
    ticket: T,
    due: Instant,
    sent: Instant,
    tenant: usize,
    idx: usize,
    check: bool,
}

/// A channel for the fleet's tickets, typed from `EngineFleet::submit`
/// itself so the benchmark never names the ticket type.
#[allow(clippy::type_complexity)]
fn ticket_channel<T, E>(
    _submit: fn(&EngineFleet, FactorFingerprint, &[f64]) -> Result<T, E>,
) -> (mpsc::Sender<Msg<T>>, mpsc::Receiver<Msg<T>>) {
    mpsc::channel()
}

/// Offer `rate` for `span`: this thread generates on the schedule; a
/// scoped collector thread waits on the tickets in submission order and
/// refreshes one tenant every `REFRESH_EVERY`.
fn offer(cx: &Ctx, rate: f64, span: Duration, rng: &mut Pcg32) -> Segment {
    let count = ((span.as_secs_f64() * rate).round() as u64).max(1);
    let completed_count = AtomicU64::new(0);
    let completed = &completed_count;
    let (tx, rx) = ticket_channel(EngineFleet::submit);
    let mut seg = Segment { rate, ..Segment::default() };
    let sched = Schedule { start: Instant::now() + Duration::from_millis(2), rate };
    let collector = move |col: &mut Collected| {
        let mut next_refresh = Instant::now() + REFRESH_EVERY;
        let mut epoch = 0usize;
        loop {
            let wait = next_refresh.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(m) => {
                    let res = m.ticket.wait();
                    let done = Instant::now();
                    completed.fetch_add(1, Ordering::Relaxed);
                    col.done_s.push(done.saturating_duration_since(sched.start).as_secs_f64());
                    match res {
                        Ok(x) => {
                            col.lat_ms.push(ms(stats::latency_from_due(m.due, done)));
                            col.ticket_ms.push(ms(done - m.sent));
                            if m.check {
                                col.samples.push((m.tenant, m.idx, x));
                            }
                        }
                        Err(e) => {
                            eprintln!("serve_fleet: request failed: {e}");
                            col.errors += 1;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            if Instant::now() >= next_refresh {
                let m2 = Arc::clone(&cx.inp.refreshes[epoch % cx.inp.refreshes.len()]);
                let (r, d) = timed(|| cx.fleet.refresh_tenant(cx.fps[REFRESHED], m2));
                match r {
                    Ok(_) => col.refresh_ms.push(ms(d)),
                    Err(e) => {
                        eprintln!("serve_fleet: refresh failed: {e}");
                        col.refresh_errors += 1;
                    }
                }
                epoch += 1;
                next_refresh = Instant::now() + REFRESH_EVERY;
            }
        }
    };
    std::thread::scope(|s| {
        let col = &mut seg.done;
        let handle = s.spawn(move || collector(col));
        for k in 0..count {
            let due = sched.due(k);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let roll = rng.next_below(100);
            let tenant = if roll < MIX_PCT[0] {
                0
            } else if roll < MIX_PCT[0] + MIX_PCT[1] {
                1
            } else {
                2
            };
            let idx = rng.next_below(cx.inp.rhs[tenant].len() as u32) as usize;
            let check = k == 0 || rng.next_below(CHECK_EVERY) == 0;
            let sent = Instant::now();
            seg.lateness_ms.push(ms(stats::lateness(due, sent)));
            seg.sent += 1;
            match cx.fleet.submit(cx.fps[tenant], &cx.inp.rhs[tenant][idx]) {
                Ok(ticket) => {
                    let backlog = seg.sent - seg.refused - completed.load(Ordering::Relaxed);
                    seg.backlog_max = seg.backlog_max.max(backlog);
                    let msg = Msg { ticket, due, sent, tenant, idx, check };
                    tx.send(msg).expect("collector alive");
                }
                Err(_) => seg.refused += 1,
            }
        }
        drop(tx);
        handle.join().expect("collector thread");
    });
    seg
}

/// Check sampled solutions against the reference substitution, outside
/// the timed interval. The refreshed tenant's answer may come from any
/// of its value sets, since refreshes race with its requests.
fn check_samples(out: &mut Outcome, inp: &Inputs, samples: &[Sample]) {
    let mut left_sum = Vec::new();
    let mut want = Vec::new();
    for (tenant, idx, x) in samples {
        let b = &inp.rhs[*tenant][*idx];
        let candidates: Vec<&CscMatrix> = if *tenant == REFRESHED {
            std::iter::once(&*inp.tenants[REFRESHED])
                .chain(inp.refreshes.iter().map(|m| &**m))
                .collect()
        } else {
            vec![&*inp.tenants[*tenant]]
        };
        let mut best = f64::INFINITY;
        for m in candidates {
            left_sum.resize(m.n(), 0.0);
            want.resize(m.n(), 0.0);
            reference::solve_lower_into(m, b, &mut left_sum, &mut want).expect("reference");
            best = best.min(verify::rel_inf_diff(x, &want));
        }
        out.check(best <= verify::DEFAULT_TOL, &format!("tenant {tenant} vs reference: {best:e}"));
    }
}

/// Counters of one service summed over tenants, as deltas between two
/// snapshots.
#[derive(Default, Debug)]
struct ServeDelta {
    served: u64,
    panels: u64,
    fill: u64,
    linger: u64,
    wait_ns: u64,
    solve_ns: u64,
    depth_high_water: usize,
}

fn serve_snapshot(fleet: &EngineFleet, fps: &[FactorFingerprint]) -> Vec<ServiceReport> {
    fps.iter().map(|fp| fleet.tenant_report(*fp).unwrap_or_default()).collect()
}

fn serve_delta(before: &[ServiceReport], after: &[ServiceReport]) -> ServeDelta {
    let mut d = ServeDelta::default();
    for (b, a) in before.iter().zip(after) {
        d.served += a.served - b.served;
        d.panels += a.panels - b.panels;
        d.fill += a.fill_sum - b.fill_sum;
        d.linger += a.linger_flushes - b.linger_flushes;
        d.wait_ns += a.wait_ns_total - b.wait_ns_total;
        d.solve_ns += a.solve_ns_total - b.solve_ns_total;
        d.depth_high_water = d.depth_high_water.max(a.queue_depth_high_water);
    }
    d
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Count a segment's requests: a refused or failed one is a failed
/// operation.
fn account(out: &mut Outcome, seg: &Segment) {
    let done = &seg.done;
    out.attempted += seg.sent;
    out.failed += done.errors + seg.refused;
    if done.errors + done.refresh_errors + seg.refused > 0 {
        eprintln!(
            "serve_fleet: {} rps: {} refused, {} failed, {} refreshes failed",
            seg.rate, seg.refused, done.errors, done.refresh_errors
        );
        out.checks_ok &= done.errors + done.refresh_errors == 0;
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        machine: machine(),
        solve: solve_options(),
        // holds all three tenants: no eviction, no rebuild mid-run
        cache_budget_bytes: 4 << 30,
        // bounds what a burst can queue, and so the run's peak memory:
        // 32 requests of one 800 kB right-hand side
        max_tenant_requests: 32,
        ..FleetConfig::default()
    }
}

pub fn run(run: Run) -> Outcome {
    let mut out = Outcome { checks_ok: true, ..Outcome::default() };
    let inp = inputs(run.seed);
    let mut rng = Pcg32::new(run.seed, 0x5E);

    // set-up: a fleet, its tenants, and the first answer from each
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..crate::SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let fleet = EngineFleet::new(fleet_config()).expect("fleet config");
        let fps: Vec<FactorFingerprint> =
            inp.tenants.iter().map(|m| fleet.register(Arc::clone(m))).collect();
        let tickets: Vec<_> =
            fps.iter().zip(&inp.rhs).map(|(fp, rhs)| fleet.submit(*fp, &rhs[0])).collect();
        let answers: Vec<_> = tickets.into_iter().map(|t| t.and_then(|t| t.wait())).collect();
        setups.push(t.elapsed().as_secs_f64());
        let samples: Vec<Sample> = answers
            .into_iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Ok(x) => Some((i, 0, x)),
                Err(e) => {
                    out.check(false, &format!("set-up request to tenant {i}: {e}"));
                    None
                }
            })
            .collect();
        out.attempted += fps.len() as u64;
        check_samples(&mut out, &inp, &samples);
        kept = Some((fleet, fps));
    }
    out.set("setup_s", stats::median(&setups).expect("reps"));
    out.set("engine.rss_after_build_mb", host::proc_status_mb("VmRSS").unwrap_or(0.0));
    let (fleet, fps) = kept.expect("set-up ran");
    let cx = Ctx { fleet: &fleet, fps: &fps, inp: &inp };
    let secs = run.seconds.as_secs_f64();

    if !run.trace {
        // cycles of a light segment, a heavy segment and bursts, so all
        // three sample the same stretches of host noise; each latency
        // is read from the quietest cycle, as `stats::windowed` does for
        // the closed-loop workloads. A burst's completion rate swings
        // with how its requests happen to share panels, so the fastest
        // burst of a run is an outlier: throughput is the median burst.
        let cycle = LIGHT_SPAN + HEAVY_SPAN + Duration::from_millis(400);
        let cycles = ((run.seconds.as_secs_f64() / cycle.as_secs_f64()).floor() as usize).max(2);
        let (mut light, mut loaded) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        let mut bursts = Vec::new();
        for _ in 0..cycles {
            for (span, rate, into) in
                [(LIGHT_SPAN, LIGHT_RPS, &mut light), (HEAVY_SPAN, HEAVY_RPS, &mut loaded)]
            {
                let r = offer(&cx, rate, span, &mut rng);
                account(&mut out, &r);
                check_samples(&mut out, &inp, &r.done.samples);
                into[0].push(stats::median(&r.done.lat_ms).unwrap_or(f64::INFINITY));
                into[1].push(stats::percentile(&r.done.lat_ms, 0.9).unwrap_or(f64::INFINITY));
            }
            for _ in 0..BURSTS_PER_CYCLE {
                let burst_rate = 1e6;
                let span = Duration::from_secs_f64(BURST as f64 / burst_rate);
                let r = offer(&cx, burst_rate, span, &mut rng);
                account(&mut out, &r);
                check_samples(&mut out, &inp, &r.done.samples);
                bursts.push(r.done.completion_rate());
            }
        }
        out.set("peak_rss_mb", host::proc_status_mb("VmHWM").unwrap_or(0.0));
        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("latency_ms.p50", best(&light[0]));
        out.set("latency_ms.p90", best(&light[1]));
        out.set("loaded_latency_ms.p50", best(&loaded[0]));
        out.set("loaded_latency_ms.p90", best(&loaded[1]));
        out.set("throughput_ops_s", stats::median(&bursts).expect("bursts"));
        return out;
    }

    // traced run: the light rate untraced, then traced with service
    // snapshots around it, then the heavy rate traced
    let half = Duration::from_secs_f64(0.25 * secs);
    let untraced = offer(&cx, LIGHT_RPS, half, &mut rng);
    account(&mut out, &untraced);
    let before = serve_snapshot(&fleet, &fps);
    let traced = offer(&cx, LIGHT_RPS, half, &mut rng);
    std::thread::sleep(Duration::from_millis(20));
    let light = serve_delta(&before, &serve_snapshot(&fleet, &fps));
    account(&mut out, &traced);
    let shed_before = fleet.report().tenant_shed;
    let before = serve_snapshot(&fleet, &fps);
    let loaded = offer(&cx, HEAVY_RPS, Duration::from_secs_f64(0.5 * secs), &mut rng);
    std::thread::sleep(Duration::from_millis(20));
    let heavy = serve_delta(&before, &serve_snapshot(&fleet, &fps));
    account(&mut out, &loaded);
    let report = fleet.report();
    for r in [&untraced, &traced, &loaded] {
        check_samples(&mut out, &inp, &r.done.samples);
    }
    out.set(
        "bench.latency_samples",
        (traced.done.lat_ms.len() + untraced.done.lat_ms.len()) as f64,
    );
    out.set("bench.supported_tail_pct", crate::supported_tail_pct(traced.done.lat_ms.len()));
    out.set("peak_rss_mb", host::proc_status_mb("VmHWM").unwrap_or(0.0));

    // light rate: where a request's time goes
    let wait_us = light.wait_ns as f64 / light.served.max(1) as f64 / 1e3;
    let panel_us = light.solve_ns as f64 / light.panels.max(1) as f64 / 1e3;
    let hop_us = mean(&traced.done.ticket_ms) * 1e3 - wait_us - panel_us;
    out.set("fleet.hop_us", hop_us);
    let untraced_us = mean(&untraced.done.lat_ms) * 1e3;
    let sum_frac = (hop_us + wait_us + panel_us) / untraced_us;
    out.set("fleet.layer_sum_frac", sum_frac);
    if (sum_frac - 1.0).abs() > 0.10 {
        eprintln!("serve_fleet: layer sum misses the untraced request time by more than 10%");
    }
    out.set("trace.overhead_frac", mean(&traced.done.lat_ms) / mean(&untraced.done.lat_ms) - 1.0);

    // heavy rate: the serving layer under load
    out.set("serve.queue_wait_us", heavy.wait_ns as f64 / heavy.served.max(1) as f64 / 1e3);
    out.set("serve.panel_solve_us", heavy.solve_ns as f64 / heavy.panels.max(1) as f64 / 1e3);
    out.set("serve.mean_fill", heavy.fill as f64 / heavy.panels.max(1) as f64);
    out.set("serve.panels", heavy.panels as f64);
    out.set("serve.linger_flush_frac", heavy.linger as f64 / heavy.panels.max(1) as f64);
    out.set("serve.queue_depth_high_water", heavy.depth_high_water as f64);
    out.set("gen.lateness_ms.p99", stats::percentile(&loaded.lateness_ms, 0.99).unwrap_or(0.0));
    out.set("gen.backlog_max", loaded.backlog_max as f64);
    let refresh: Vec<f64> = [&untraced, &traced, &loaded]
        .iter()
        .flat_map(|r| r.done.refresh_ms.iter().copied())
        .collect();
    out.set("fleet.refresh_ms", stats::median(&refresh).unwrap_or(0.0));
    out.set("fleet.tenant_shed", (report.tenant_shed - shed_before) as f64);
    out.set("fleet.cache_high_water_mb", report.cache_bytes_high_water as f64 / (1 << 20) as f64);
    drop(fleet);

    // the tenants' build and analysis, probed directly
    let (_, d_levels) = timed(|| {
        inp.tenants.iter().map(|m| LevelSets::analyze(m, Triangle::Lower).n_levels()).sum::<usize>()
    });
    out.set("sparsemat.levels_ms", ms(d_levels));
    let (events, d_build) = timed(|| {
        inp.tenants
            .iter()
            .map(|m| {
                let e = SolverEngine::build(m, machine(), &solve_options()).expect("tenant engine");
                e.calibration().map_or(0, |c| c.events)
            })
            .sum::<u64>()
    });
    out.set("engine.build_ms", ms(d_build));
    out.set("desim.events", events as f64);
    out.set("desim.events_per_s", events as f64 / d_build.as_secs_f64());
    crate::bandwidth_anchor(&mut out);
    out
}
