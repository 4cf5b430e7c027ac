//! `compile_sweep`: cold compiles of seeded design points.
//!
//! Every job compiles one (kernel, geometry, FU mix, unroll) point from
//! scratch with `dyser_compiler::compile` — never the process-wide
//! cache — then simulates both binaries at a small n and verifies their
//! memory images. Closed loop, one point at a time.

use std::time::Instant;

use dyser_bench::dse::DsePoint;
use dyser_compiler::{compile, CompiledProgram};
use dyser_core::{run_program_traced, HarnessError, KernelCase, RunConfig, RunStats};
use dyser_workloads::suite;

use crate::gen;
use crate::replay;
use crate::report::{peak_rss_mb, Digest};
use crate::run::{run_rounds, Measured, Opts};
use crate::stats::ratio;
use crate::trace::{elapsed_ns, Tracer};

/// One prepared design point.
pub struct Point {
    /// The point.
    pub point: DsePoint,
    /// Its kernel case at the compile-sweep size.
    pub case: KernelCase,
    /// Its harness configuration.
    pub config: RunConfig,
}

/// Builds every point of the seed's sweep; case construction runs in
/// `workloads.case` spans on `t`.
#[must_use]
pub fn setup(seed: u64, t: &Tracer) -> Vec<Point> {
    let kernels = suite();
    gen::compile_sweep(seed)
        .into_iter()
        .map(|point| {
            let k = gen::kernel(&kernels, &point.kernel);
            let config = point
                .run_config(k, None)
                .expect("generated points are valid hardware");
            let case = t.span("workloads.case", || k.case(gen::compile_n(k), seed));
            Point {
                point,
                case,
                config,
            }
        })
        .collect()
}

/// The job through the public entry points: `compile`, then each leg
/// through `run_program_traced` (which verifies the memory image).
fn job(p: &Point) -> Result<(CompiledProgram, RunStats, RunStats), HarnessError> {
    let compiled = compile(&p.case.function, &p.config.compiler)?;
    let leg = |which, program| {
        run_program_traced(
            which,
            program,
            &p.case.args,
            &p.case.init,
            &p.case.expected,
            &p.config,
            0,
        )
        .map(|a| a.stats)
    };
    let base = leg("baseline", &compiled.baseline)?;
    let dyser = leg("dyser", &compiled.accelerated)?;
    Ok((compiled, base, dyser))
}

/// The same job as a traced replay of public layer calls.
fn job_traced(
    t: &Tracer,
    p: &Point,
) -> Result<(CompiledProgram, RunStats, RunStats), HarnessError> {
    let compiled = replay::compile(t, &p.case.function, &p.config.compiler)?;
    let base = replay::run_leg(t, "baseline", &compiled.baseline, &p.case, &p.config)?;
    let dyser = replay::run_leg(t, "dyser", &compiled.accelerated, &p.case, &p.config)?;
    Ok((compiled, base, dyser))
}

fn job_digest(compiled: &CompiledProgram, base: &RunStats, dyser: &RunStats) -> Digest {
    let mut d = Digest::default();
    d.words(&compiled.baseline.code);
    d.words(&compiled.accelerated.code);
    d.stats(base);
    d.stats(dyser);
    d
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured {
        backend: RunConfig::default().backend.label().to_owned(),
        ..Measured::default()
    };
    let points = setup(opts.seed, &m.setup_trace);
    m.jobs_per_round = points.len();
    let mut first: Vec<Digest> = Vec::new();
    let mut untraced_ns = 0u64;
    let rounds = run_rounds(opts, points.len(), 1, |round| {
        let round_start = Instant::now();
        let mut cycles = 0u64;
        let mut verified = 0usize;
        for (i, p) in points.iter().enumerate() {
            m.attempted += 1;
            let start = Instant::now();
            let outcome = job(p);
            let ns = elapsed_ns(start);
            let (compiled, base, dyser) = match outcome {
                Ok(out) => out,
                Err(e) => {
                    m.fail(format!("{}: {e}", p.point));
                    continue;
                }
            };
            let mut digest = job_digest(&compiled, &base, &dyser);
            if opts.trace {
                untraced_ns += ns;
                m.traced_jobs += 1;
                match m.trace.section(|| job_traced(&m.trace, p)) {
                    Ok((rc, rb, rd)) => {
                        if !replay::same_program(&rc, &compiled) || rb != base || rd != dyser {
                            m.fail(format!("{}: traced replay differs from compile()", p.point));
                        }
                        digest = job_digest(&rc, &rb, &rd);
                    }
                    Err(e) => m.fail(format!("{}: traced replay: {e}", p.point)),
                }
            } else {
                m.latencies_ms.push(ns as f64 / 1e6);
            }
            if round == 0 {
                first.push(digest);
                m.digest.digest(digest);
                m.counts.add(&base);
                m.counts.add(&dyser);
                m.speedups
                    .push(base.cycles as f64 / dyser.cycles.max(1) as f64);
            } else if first.get(i) != Some(&digest) {
                m.fail(format!(
                    "{}: simulated behaviour changed between rounds",
                    p.point
                ));
                continue;
            }
            cycles += base.cycles + dyser.cycles;
            verified += 1;
        }
        let secs = round_start.elapsed().as_secs_f64();
        m.round_jobs_per_s.push(verified as f64 / secs);
        m.round_mcycles_per_s.push(cycles as f64 / secs / 1e6);
    });
    m.record_rounds(rounds);
    m.overhead_ratio = ratio(m.trace.wall_ns() as f64, untraced_ns as f64);
    m.rss_mb = peak_rss_mb();
    m
}
