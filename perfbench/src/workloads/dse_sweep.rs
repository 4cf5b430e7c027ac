//! `dse_sweep`: `repro dse`-style design-space sweeps, each in a fresh
//! process.
//!
//! One sweep covers one seed-ordered suite kernel over a reduced axis
//! grid through `bench::dse::run_dse_with_many`: analytic estimation of
//! every point (compiling it), pruning, then survivor simulation through
//! the `run_kernel_batch` hook on the compiled backend, as `repro dse`
//! does by default. Every sweep runs in a new child process, because a
//! user's `repro dse` always starts with an empty compile cache. A job
//! is one design point; the latency samples are whole sweeps.

use std::cell::RefCell;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use dyser_bench::dse::{
    anchor_point, dse_kernels, estimate_point, point_sim, run_dse_with_many, DseOutcome, DsePlan,
    DseRequest, PointSim,
};
use dyser_core::{
    compile_cached, default_workers, run_kernel_batch, Backend, KernelCase, KernelJob, KernelResult,
};
use dyser_workloads::Kernel;

use crate::gen;
use crate::replay::{self, CacheProbe};
use crate::report::{peak_rss_mb, Digest, SimCounts};
use crate::run::{run_rounds, Measured, Opts};
use crate::stats::ratio;
use crate::trace::{elapsed_ns, SpanStat, Tracer};

/// What one sweep's hook calls simulated, in call order.
#[derive(Default)]
struct Simulated {
    digest: Digest,
    counts: SimCounts,
    log_speedup: f64,
    runs: u64,
}

impl Simulated {
    fn add(&mut self, r: &KernelResult) {
        self.digest.stats(&r.baseline);
        self.digest.stats(&r.dyser);
        self.counts.add(&r.baseline);
        self.counts.add(&r.dyser);
        self.log_speedup += r.speedup.ln();
        self.runs += 1;
    }
}

/// The sweep's plan and the one case its hook simulates at every point.
///
/// # Panics
///
/// Panics on an index outside the seed's plans.
#[must_use]
pub fn setup(seed: u64, index: usize, t: &Tracer) -> (DsePlan, KernelCase) {
    let plan = gen::dse_sweep(seed).swap_remove(index);
    let kernels = dse_kernels();
    let k = gen::kernel(&kernels, &plan.kernels[0]);
    let case = t.span("workloads.case", || k.case(plan.n, seed));
    (plan, case)
}

fn jobs(case: &KernelCase, requests: &[DseRequest<'_>]) -> Vec<KernelJob> {
    requests
        .iter()
        .map(|(_, _, rc)| (case.clone(), rc.clone()))
        .collect()
}

fn sims(
    sim: &RefCell<Simulated>,
    requests: &[DseRequest<'_>],
    results: Vec<Result<KernelResult, dyser_core::HarnessError>>,
) -> Vec<Result<PointSim, String>> {
    results
        .into_iter()
        .zip(requests)
        .map(|(result, (_, point, rc))| {
            let result = result.map_err(|e| format!("{point}: {e}"))?;
            sim.borrow_mut().add(&result);
            Ok(point_sim(&result, rc.system.geometry.fu_count()))
        })
        .collect()
}

/// One sweep through the public entry points.
fn sweep(
    plan: &DsePlan,
    case: &KernelCase,
    sim: &RefCell<Simulated>,
) -> Result<DseOutcome, String> {
    run_dse_with_many(plan, |requests| {
        sims(
            sim,
            requests,
            run_kernel_batch(&jobs(case, requests), default_workers()),
        )
    })
    .map_err(|e| e.to_string())
}

/// The same sweep as a traced replay, in three traced sections.
///
/// First every program the sweep compiles (each point, its unroll-1
/// reference and the calibration anchor) is compiled cold through the
/// traced `compile()` replay, checked against `compile_cached`, which
/// fills the process-wide cache outside the sections. Then every
/// point's `estimate_point` runs on that warm cache, so `dse.estimate`
/// times only the model. Last the sweep runs with the batch hook
/// replayed layer by layer; the self time of `dse.run_dse` is the search
/// around the estimator and the hook: calibration, the sweep's own
/// (warm) estimates, pruning and the Pareto step.
fn sweep_traced(
    t: &Tracer,
    kernel: &Kernel,
    plan: &DsePlan,
    case: &KernelCase,
    sim: &RefCell<Simulated>,
) -> Result<DseOutcome, String> {
    let points = plan.points();
    let cache = RefCell::new(CacheProbe::default());
    let mut compiled_keys = HashSet::new();
    for p in points.iter().chain([&anchor_point(kernel.name)]) {
        let rc = p.run_config(kernel, None).map_err(|e| e.to_string())?;
        let mut reference = rc.compiler.clone();
        reference.unroll_factor = 1;
        for options in [rc.compiler, reference] {
            if !compiled_keys.insert(format!("{options:?}")) {
                continue;
            }
            let fresh = t
                .section(|| replay::compile(t, &case.function, &options))
                .map_err(|e| format!("{p}: {e}"))?;
            let cached = compile_cached(&case.function, &options).map_err(|e| e.to_string())?;
            if !replay::same_program(&fresh, &cached) {
                return Err(format!("{p}: traced compile differs from compile()"));
            }
            cache.borrow_mut().remember(cached);
        }
    }
    t.section(|| {
        for p in &points {
            t.span("dse.estimate", || estimate_point(kernel, p, plan.n))
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;
    t.section(|| {
        t.span("dse.run_dse", || {
            run_dse_with_many(plan, |requests| {
                t.span("dse.survivor_sim", || {
                    let results =
                        replay::run_kernel_batch(t, &mut cache.borrow_mut(), &jobs(case, requests));
                    sims(sim, requests, results)
                })
            })
        })
    })
    .map_err(|e| e.to_string())
}

/// The child process of one sweep: set up, print `ready`, sweep, and
/// report on standard output. Returns the exit code.
#[must_use]
pub fn child(seed: u64, index: usize, trace: bool) -> i32 {
    let setup_trace = Tracer::new();
    let (plan, case) = setup(seed, index, &setup_trace);
    let kernels = dse_kernels();
    let kernel = gen::kernel(&kernels, &plan.kernels[0]);
    println!("ready");
    let _ = std::io::stdout().flush();

    let sim = RefCell::new(Simulated::default());
    let t = Tracer::new();
    let start = Instant::now();
    let outcome = if trace {
        sweep_traced(&t, kernel, &plan, &case, &sim)
    } else {
        sweep(&plan, &case, &sim)
    };
    let sweep_ns = elapsed_ns(start);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            println!("error {}", e.replace('\n', " "));
            return 1;
        }
    };
    let sim = sim.into_inner();
    let mut digest = sim.digest;
    digest.bytes(format!("{} {}", outcome.points_total, outcome.points_pruned).as_bytes());
    println!(
        "result {} {} {} {:016x} {} {}",
        outcome.points_total,
        sim.runs,
        sim.log_speedup,
        digest.value(),
        (peak_rss_mb() * 1024.0) as u64,
        sweep_ns
    );
    println!("counts {}", sim.counts.encode());
    if trace {
        t.count("dse.points", outcome.points_total as u64);
        t.count("dse.pruned", outcome.points_pruned as u64);
        for (name, s) in setup_trace.spans() {
            println!("setup-span {name} {} {} {}", s.calls, s.self_ns, s.total_ns);
        }
        for (name, s) in t.spans() {
            println!("span {name} {} {} {}", s.calls, s.self_ns, s.total_ns);
        }
        for (name, n) in t.counts() {
            println!("count {name} {n}");
        }
        println!("wall {}", t.wall_ns());
    }
    0
}

/// What the parent read back from one child.
#[derive(Default)]
struct Report {
    ready_to_done_ns: u64,
    points: u64,
    runs: u64,
    log_speedup: f64,
    digest: String,
    rss_mb: f64,
    sweep_ns: u64,
    counts: SimCounts,
    setup_trace: Tracer,
    trace: Tracer,
}

fn spawn(seed: u64, index: usize, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--dse-child",
            &index.to_string(),
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn sweep: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let parsed = read_report(BufReader::new(stdout));
    let status = child.wait().map_err(|e| format!("wait for sweep: {e}"))?;
    let report = parsed?;
    if !status.success() {
        return Err(format!("sweep {index} exited with {status}"));
    }
    Ok(report)
}

fn read_report(out: impl BufRead) -> Result<Report, String> {
    let mut r = Report::default();
    let mut ready: Option<Instant> = None;
    let mut done = false;
    for line in out.lines() {
        let line = line.map_err(|e| format!("read sweep output: {e}"))?;
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| {
            f.get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("bad line {line:?}"))
        };
        let span = || -> Result<SpanStat, String> {
            Ok(SpanStat {
                calls: num(2)?,
                self_ns: num(3)?,
                total_ns: num(4)?,
            })
        };
        match f.first().copied() {
            Some("ready") => ready = Some(Instant::now()),
            Some("result") => {
                r.ready_to_done_ns = ready.map_or(0, elapsed_ns);
                r.points = num(1)?;
                r.runs = num(2)?;
                r.log_speedup = f
                    .get(3)
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad log speedup")?;
                r.digest = f.get(4).ok_or("missing digest")?.to_string();
                r.rss_mb = num(5)? as f64 / 1024.0;
                r.sweep_ns = num(6)?;
                done = true;
            }
            Some("counts") => {
                r.counts =
                    SimCounts::parse(line.trim_start_matches("counts")).ok_or("bad counts")?;
            }
            Some("setup-span") => r
                .setup_trace
                .add_span(f.get(1).ok_or("span name")?, span()?),
            Some("span") => r.trace.add_span(f.get(1).ok_or("span name")?, span()?),
            Some("count") => r.trace.add_count(f.get(1).ok_or("count name")?, num(2)?),
            Some("wall") => r.trace.add_wall(num(1)?),
            Some("error") => return Err(line),
            _ => {}
        }
    }
    if done {
        Ok(r)
    } else {
        Err("sweep ended without a result".to_owned())
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured {
        backend: Backend::Compiled.label().to_owned(),
        ..Measured::default()
    };
    let plans = gen::dse_sweep(opts.seed);
    let points_per_round: usize = plans.iter().map(|p| p.points().len()).sum();
    m.jobs_per_round = points_per_round;
    let mut first: Vec<String> = Vec::new();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    // Latency samples are sweeps, so a round contributes one per plan.
    let rounds = run_rounds(opts, plans.len(), 1, |round| {
        let round_start = Instant::now();
        let mut cycles = 0u64;
        let mut verified = 0u64;
        for (i, plan) in plans.iter().enumerate() {
            let points = plan.points().len() as u64;
            m.attempted += points;
            let mut kept = match spawn(opts.seed, i, false) {
                Ok(r) if r.points == points => r,
                Ok(r) => {
                    m.failed += points;
                    m.error(format!(
                        "{}: swept {} of {points} points",
                        plan.kernels[0], r.points
                    ));
                    continue;
                }
                Err(e) => {
                    m.failed += points;
                    m.error(format!("{}: {e}", plan.kernels[0]));
                    continue;
                }
            };
            if opts.trace {
                untraced_ns += kept.sweep_ns;
                m.traced_jobs += 1;
                match spawn(opts.seed, i, true) {
                    Ok(mut traced) if traced.digest == kept.digest => {
                        traced_ns += traced.trace.wall_ns();
                        m.trace.merge(std::mem::take(&mut traced.trace));
                        m.setup_trace.merge(std::mem::take(&mut traced.setup_trace));
                        kept = traced;
                    }
                    Ok(_) => m.error(format!(
                        "{}: traced replay differs from the harness",
                        plan.kernels[0]
                    )),
                    Err(e) => m.error(format!("{}: traced sweep: {e}", plan.kernels[0])),
                }
            } else {
                m.latencies_ms.push(kept.ready_to_done_ns as f64 / 1e6);
            }
            m.rss_mb = m.rss_mb.max(kept.rss_mb);
            if round == 0 {
                first.push(kept.digest.clone());
                m.digest.bytes(kept.digest.as_bytes());
                m.counts.merge(&kept.counts);
                // One geometric-mean term per simulated point.
                let mean = kept.log_speedup / kept.runs.max(1) as f64;
                m.speedups
                    .extend(std::iter::repeat_n(mean.exp(), kept.runs as usize));
            } else if first.get(i) != Some(&kept.digest) {
                m.failed += points;
                m.error(format!(
                    "{}: simulated behaviour changed between rounds",
                    plan.kernels[0]
                ));
                continue;
            }
            cycles += kept.counts.cycles;
            verified += points;
        }
        let secs = round_start.elapsed().as_secs_f64();
        m.round_jobs_per_s.push(verified as f64 / secs);
        m.round_mcycles_per_s.push(cycles as f64 / secs / 1e6);
    });
    m.record_rounds(rounds);
    m.overhead_ratio = ratio(traced_ns as f64, untraced_ns as f64);
    m.rss_mb = m.rss_mb.max(peak_rss_mb());
    m
}
