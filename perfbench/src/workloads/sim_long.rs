//! `sim_long`: long verified simulations with compilation done in
//! set-up.
//!
//! Every suite kernel and every whole program runs as a both-leg job
//! sized (`gen::LONG_N`) to take about the same tens of milliseconds, on
//! the default `RunConfig` backend. Set-up fills the compile cache, so jobs hit it. Closed loop,
//! jobs back to back.
//!
//! A timed job makes the public calls `run_kernel` (`compile_cached`,
//! then `run_program` per leg) and `run_program_case`
//! (`run_whole_program` per leg) make, but runs the two legs one after
//! the other on this thread. The harness overlaps them on two threads,
//! and on a shared two-CPU host whether the second CPU was free swung
//! this workload's throughput by up to 1.5x between runs of the same
//! code; overlapped, a job also costs only its slower leg, so engine
//! work on the faster one would not show. Before the timed rounds every
//! job runs once through `run_kernel` or `run_program_case` itself, and
//! each timed result must equal that reference bit for bit.

use std::sync::Arc;
use std::time::Instant;

use dyser_compiler::CompiledProgram;
use dyser_core::{
    compile_cached, run_kernel, run_program, run_program_case, run_whole_program, HarnessError,
    KernelCase, KernelResult, ProgramCase, RunConfig,
};
use dyser_fabric::FabricGeometry;
use dyser_workloads::{programs, suite};

use crate::gen::{self, SimJob};
use crate::replay::{self, CacheProbe};
use crate::report::{peak_rss_mb, Digest};
use crate::run::{run_rounds, Measured, Opts};
use crate::stats::ratio;
use crate::trace::{elapsed_ns, Tracer};

/// One prepared job.
pub enum Prepared {
    /// A kernel, its configuration and its (cached) compiled program.
    Kernel(KernelCase, RunConfig, Arc<CompiledProgram>),
    /// A whole program and its configuration.
    Program(ProgramCase, RunConfig),
}

impl Prepared {
    fn name(&self) -> &str {
        match self {
            Prepared::Kernel(case, ..) => &case.name,
            Prepared::Program(case, _) => &case.name,
        }
    }
}

/// Builds every job of the seed's round and compiles every kernel into
/// the process-wide cache.
///
/// # Panics
///
/// Panics if a suite kernel fails to compile or a program does not fit
/// the default 8x8 fabric — both are bugs in the measured code.
#[must_use]
pub fn setup(seed: u64, t: &Tracer) -> Vec<Prepared> {
    let kernels = suite();
    gen::sim_long(seed)
        .into_iter()
        .map(|job| match job {
            SimJob::Kernel { name, n } => {
                let k = gen::kernel(&kernels, name);
                let case = t.span("workloads.case", || k.case(n, seed));
                let mut config = RunConfig::default();
                config.compiler = k.compiler_options(config.system.geometry);
                let compiled = compile_cached(&case.function, &config.compiler)
                    .expect("suite kernels compile");
                Prepared::Kernel(case, config, compiled)
            }
            SimJob::Program { name, n } => {
                let build = programs::by_name(name).expect("generated program names exist");
                let case = t
                    .span("workloads.case", || {
                        build(FabricGeometry::new(8, 8), n, seed)
                    })
                    .expect("programs fit the 8x8 fabric");
                Prepared::Program(case, RunConfig::default())
            }
        })
        .collect()
}

/// The job through the harness's own entry point.
fn reference(p: &Prepared) -> Result<KernelResult, String> {
    match p {
        Prepared::Kernel(case, config, _) => run_kernel(case, config),
        Prepared::Program(case, config) => run_program_case(case, config),
    }
    .map_err(|e| e.to_string())
}

/// The timed job: the entry point's calls, legs one after the other.
fn job(p: &Prepared) -> Result<KernelResult, String> {
    serial(p).map_err(|e| e.to_string())
}

fn serial(p: &Prepared) -> Result<KernelResult, HarnessError> {
    match p {
        Prepared::Kernel(case, config, _) => {
            let compiled = compile_cached(&case.function, &config.compiler)?;
            let leg = |which, program| {
                run_program(which, program, &case.args, &case.init, &case.expected, config)
            };
            let base = leg("baseline", &compiled.baseline);
            let dyser = leg("dyser", &compiled.accelerated);
            Ok(replay::kernel_result(&case.name, &compiled, base?, dyser?))
        }
        Prepared::Program(case, config) => {
            let base = run_whole_program("baseline", &case.baseline, case, config);
            let dyser = run_whole_program("dyser", &case.accelerated, case, config);
            Ok(replay::program_result(case, base?.stats, dyser?.stats))
        }
    }
}

fn job_traced(t: &Tracer, cache: &mut CacheProbe, p: &Prepared) -> Result<KernelResult, String> {
    match p {
        Prepared::Kernel(case, config, _) => replay::run_kernel(t, cache, case, config),
        Prepared::Program(case, config) => replay::run_program_case(t, case, config),
    }
    .map_err(|e| e.to_string())
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured {
        backend: RunConfig::default().backend.label().to_owned(),
        ..Measured::default()
    };
    let jobs = setup(opts.seed, &m.setup_trace);
    let mut cache = CacheProbe::default();
    for p in &jobs {
        if let Prepared::Kernel(_, _, compiled) = p {
            cache.remember(Arc::clone(compiled));
        }
    }
    m.jobs_per_round = jobs.len();
    let references: Vec<Option<KernelResult>> = jobs
        .iter()
        .map(|p| match reference(p) {
            Ok(r) => Some(r),
            Err(e) => {
                m.error(format!("{}: reference run: {e}", p.name()));
                None
            }
        })
        .collect();
    let mut untraced_ns = 0u64;
    let rounds = run_rounds(opts, jobs.len(), 1, |round| {
        let round_start = Instant::now();
        let mut cycles = 0u64;
        let mut verified = 0usize;
        for (i, p) in jobs.iter().enumerate() {
            m.attempted += 1;
            let start = Instant::now();
            let outcome = job(p);
            let ns = elapsed_ns(start);
            let result = match outcome {
                Ok(r) => r,
                Err(e) => {
                    m.fail(format!("{}: {e}", p.name()));
                    continue;
                }
            };
            if opts.trace {
                untraced_ns += ns;
                m.traced_jobs += 1;
                match m.trace.section(|| job_traced(&m.trace, &mut cache, p)) {
                    Ok(r) if replay::same_result(&r, &result) => {}
                    Ok(_) => m.fail(format!(
                        "{}: traced replay differs from the harness",
                        p.name()
                    )),
                    Err(e) => m.fail(format!("{}: traced replay: {e}", p.name())),
                }
            } else {
                m.latencies_ms.push(ns as f64 / 1e6);
            }
            if !matches!(&references[i], Some(r) if replay::same_result(r, &result)) {
                m.fail(format!(
                    "{}: differs from its run through the harness entry point",
                    p.name()
                ));
                continue;
            }
            if round == 0 {
                let mut digest = Digest::default();
                digest.stats(&result.baseline);
                digest.stats(&result.dyser);
                m.digest.digest(digest);
                m.counts.add(&result.baseline);
                m.counts.add(&result.dyser);
                m.speedups.push(result.speedup);
            }
            cycles += result.baseline.cycles + result.dyser.cycles;
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
