//! Traced replays of the harness entry points, built only from the
//! layers' public functions.
//!
//! Each replay performs the same sequence of calls as the entry point
//! it mirrors — [`dyser_compiler::compile`], [`dyser_core::run_kernel`],
//! [`dyser_core::run_program_case`] and [`dyser_core::run_kernel_batch`]
//! — with a span around every call into a layer. The workloads check
//! every replay against the real entry point, bit for bit, so the
//! per-layer split cannot drift from the code path users run.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use dyser_compiler::codegen::{codegen_accel, codegen_baseline};
use dyser_compiler::dyser::{select_regions, Region};
use dyser_compiler::opt::{cleanup, if_convert, licm, unroll_innermost, Pass, UnrollOutcome};
use dyser_compiler::{
    classify_loops, schedule_region, CompileError, CompiledProgram, CompilerOptions, Function,
    PassSpec, Program, RegionFate, RegionReport, Schedule,
};
use dyser_core::{
    backend_override, compile_cached, run_batch, Backend, BatchEngine, BatchItem, HarnessError,
    KernelCase, KernelJob, KernelResult, ProgramCase, RunConfig, RunStats, SpeedStats, SysError,
    System,
};
use dyser_fabric::FuKind;

use crate::trace::{elapsed_ns, Tracer};

/// Jobs per lockstep batch, as in `run_kernel_batch`.
const BATCH_JOBS: usize = 16;

/// `compile()`, stage by stage: the middle end, region selection, one
/// `schedule_region` call per region, and code generation each run in
/// their own span; unroll fallbacks are counted.
///
/// # Errors
///
/// Exactly the errors `compile()` returns.
pub fn compile(
    t: &Tracer,
    f: &Function,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let start = Instant::now();
    let out = compile_stages(t, f, options);
    t.count("compiler.wall_ns", elapsed_ns(start));
    out
}

fn compile_stages(
    t: &Tracer,
    f: &Function,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let shapes = t.span("compiler.middle_end", || classify_loops(f));
    let kinds: Vec<FuKind> = options.kinds.clone().unwrap_or_else(|| {
        options
            .geometry
            .fus()
            .map(|fu| FuKind::default_pattern(fu.row, fu.col))
            .collect()
    });
    let requested_factor = match &options.middle_end {
        Some(spec) => spec
            .passes()
            .iter()
            .filter_map(|p| match p {
                Pass::Unroll(n) => Some(*n),
                _ => None,
            })
            .max()
            .unwrap_or(1),
        None => options.unroll_factor,
    };
    let mut factor = requested_factor.max(1);
    loop {
        let (opt, region_opts) = t.span("compiler.middle_end", || {
            let mut opt = f.clone();
            let mut region_opts = options.region;
            match &options.middle_end {
                Some(spec) => {
                    let scaled: Vec<Pass> = spec
                        .passes()
                        .iter()
                        .map(|p| match p {
                            Pass::Unroll(n) => Pass::Unroll((*n).min(factor).max(2)),
                            other => other.clone(),
                        })
                        .collect();
                    for pass in &scaled {
                        if let Pass::Unroll(n) = pass {
                            if factor > 1 {
                                if let UnrollOutcome::Unrolled { body, .. } =
                                    unroll_innermost(&mut opt, *n)
                                {
                                    region_opts.only_block = Some(body);
                                }
                            }
                        } else {
                            PassSpec::from_passes(vec![pass.clone()]).apply(&mut opt);
                        }
                    }
                }
                None => {
                    if options.if_convert {
                        if_convert(&mut opt);
                    }
                    licm(&mut opt);
                    cleanup(&mut opt);
                    if factor > 1 {
                        if let UnrollOutcome::Unrolled { body, .. } =
                            unroll_innermost(&mut opt, factor)
                        {
                            region_opts.only_block = Some(body);
                        }
                        cleanup(&mut opt);
                    }
                }
            }
            (opt, region_opts)
        });

        let regions = t.span("compiler.select_regions", || {
            select_regions(&opt, &region_opts)
        });
        let mut reports = Vec::new();
        let mut scheduled: Vec<(Region, Schedule)> = Vec::new();
        let mut any_unmapped = false;
        for region in regions {
            let report_base = RegionReport {
                name: region.name.clone(),
                compute_ops: region.compute.len(),
                inputs: region.inputs.len(),
                outputs: region.outputs.len(),
                exit_condition_offloaded: region.exit_condition_offloaded,
                fate: RegionFate::Accelerated,
            };
            t.count("compiler.schedule_region_calls", 1);
            let outcome = t.span("compiler.schedule_region", || {
                schedule_region(&opt, &region, options.geometry, &kinds, &options.schedule)
            });
            match outcome {
                Ok(schedule) => {
                    scheduled.push((region, schedule));
                    reports.push(report_base);
                }
                Err(e) => {
                    t.count("compiler.schedule_region_fails", 1);
                    any_unmapped = true;
                    reports.push(RegionReport {
                        fate: RegionFate::Unmapped(e),
                        ..report_base
                    });
                }
            }
        }

        if any_unmapped && factor > 1 {
            t.count("compiler.unroll_retries", 1);
            factor /= 2;
            continue;
        }

        return t.span("compiler.codegen", || {
            let baseline = codegen_baseline(&opt)?;
            let accelerated_any = !scheduled.is_empty();
            let accelerated = if accelerated_any {
                codegen_accel(&opt, scheduled, options.codegen)?
            } else {
                baseline.clone()
            };
            Ok(CompiledProgram {
                baseline,
                accelerated,
                regions: reports,
                shapes,
                accelerated_any,
            })
        });
    }
}

/// `compile_cached`, with hits detected by `Arc::ptr_eq` against every
/// program an earlier call returned.
#[derive(Debug, Default)]
pub struct CacheProbe {
    seen: Vec<Arc<CompiledProgram>>,
}

impl CacheProbe {
    /// Remembers a program obtained outside the traced section, so a
    /// later traced lookup of the same key counts as a hit.
    pub fn remember(&mut self, program: Arc<CompiledProgram>) {
        if !self.seen.iter().any(|p| Arc::ptr_eq(p, &program)) {
            self.seen.push(program);
        }
    }

    /// One traced `compile_cached` call.
    ///
    /// # Errors
    ///
    /// Propagates the compile error.
    pub fn lookup(
        &mut self,
        t: &Tracer,
        function: &Function,
        options: &CompilerOptions,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let program = t.span("harness.compile_cached", || {
            compile_cached(function, options)
        })?;
        t.count("harness.compile_cached_calls", 1);
        if self.seen.iter().any(|p| Arc::ptr_eq(p, &program)) {
            t.count("harness.compile_cached_hits", 1);
        } else {
            self.seen.push(Arc::clone(&program));
        }
        Ok(program)
    }
}

/// The engine a harness run uses under `config`, as the harness picks
/// it.
fn engine(config: &RunConfig) -> BatchEngine {
    if config.stepped {
        BatchEngine::Stepped
    } else {
        match backend_override().unwrap_or(config.backend) {
            Backend::Interpreted => BatchEngine::Interpreted,
            Backend::Compiled => BatchEngine::Compiled,
        }
    }
}

/// Runs a built system on `engine`, charging the run to the engine's
/// per-cycle counters.
fn run_system(
    t: &Tracer,
    sys: &mut System,
    engine: BatchEngine,
    max_cycles: u64,
) -> Result<RunStats, SysError> {
    let start = Instant::now();
    let run = t.span("system.run", || match engine {
        BatchEngine::Stepped => sys.run_stepped(max_cycles),
        BatchEngine::Interpreted => sys.run(max_cycles),
        BatchEngine::Compiled => sys.run_compiled(max_cycles),
    });
    let ns = elapsed_ns(start);
    if let Ok(stats) = &run {
        let (ns_key, cycles_key) = match engine {
            BatchEngine::Stepped => ("system.run_ns.stepped", "system.cycles.stepped"),
            BatchEngine::Interpreted => ("system.run_ns.interpreted", "system.cycles.interpreted"),
            BatchEngine::Compiled => ("system.run_ns.compiled", "system.cycles.compiled"),
        };
        t.count(ns_key, ns);
        t.count(cycles_key, stats.cycles);
    }
    run
}

/// Counts one finished system's issue-path cache statistics.
fn count_speed(t: &Tracer, speed: &SpeedStats) {
    t.count("sparc.decode_hits", speed.decode_hits);
    t.count("sparc.decode_misses", speed.decode_misses);
    t.count("compiled.block_hits", speed.blocks.hits);
    t.count("compiled.block_misses", speed.blocks.misses);
}

/// The harness's output check: every expected word against memory.
fn verify_memory(
    sys: &System,
    expected: &[(u64, Vec<u64>)],
    which: &'static str,
) -> Result<(), HarnessError> {
    for (addr, words) in expected {
        for (i, want) in words.iter().enumerate() {
            let a = addr + 8 * i as u64;
            let got = sys.memory().read_u64(a);
            if got != *want {
                return Err(HarnessError::Mismatch {
                    which,
                    addr: a,
                    expected: *want,
                    got,
                });
            }
        }
    }
    Ok(())
}

/// One leg of `run_kernel` (`run_program_traced` without tracing):
/// build, run, verify.
///
/// # Errors
///
/// Build and run faults, then output mismatches, as the harness orders
/// them.
pub fn run_leg(
    t: &Tracer,
    which: &'static str,
    program: &Program,
    case: &KernelCase,
    config: &RunConfig,
) -> Result<RunStats, HarnessError> {
    let as_run = |source| HarnessError::Run { which, source };
    let mut sys = t
        .span("system.build", || -> Result<System, SysError> {
            let mut sys = System::try_new(config.system.clone())?;
            sys.load_program(program)?;
            for (addr, words) in &case.init {
                sys.memory_mut().write_u64_slice(*addr, words);
            }
            sys.set_args(&case.args);
            Ok(sys)
        })
        .map_err(as_run)?;
    let stats = run_system(t, &mut sys, engine(config), config.max_cycles).map_err(as_run)?;
    count_speed(t, &sys.speed_stats());
    t.span("harness.verify", || {
        verify_memory(&sys, &case.expected, which)
    })?;
    Ok(stats)
}

/// The `KernelResult` `run_kernel` builds from a compile and both legs.
#[must_use]
pub fn kernel_result(
    name: &str,
    compiled: &CompiledProgram,
    baseline: RunStats,
    dyser: RunStats,
) -> KernelResult {
    KernelResult {
        name: name.to_owned(),
        speedup: baseline.cycles as f64 / dyser.cycles.max(1) as f64,
        accelerated_any: compiled.accelerated_any,
        regions: compiled.regions.clone(),
        code_sizes: (compiled.baseline.len(), compiled.accelerated.len()),
        baseline,
        dyser,
    }
}

/// `run_kernel`: a cached compile, then both legs (one after the other;
/// the harness overlaps them on two threads, which changes no result).
///
/// # Errors
///
/// Compile errors, then baseline errors, then accelerated-leg errors.
pub fn run_kernel(
    t: &Tracer,
    cache: &mut CacheProbe,
    case: &KernelCase,
    config: &RunConfig,
) -> Result<KernelResult, HarnessError> {
    let compiled = cache.lookup(t, &case.function, &config.compiler)?;
    let base = run_leg(t, "baseline", &compiled.baseline, case, config);
    let dyser = run_leg(t, "dyser", &compiled.accelerated, case, config);
    Ok(kernel_result(&case.name, &compiled, base?, dyser?))
}

/// One leg of `run_program_case` (`run_whole_program`).
fn run_process(
    t: &Tracer,
    which: &'static str,
    program: &Program,
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<RunStats, HarnessError> {
    let as_run = |source| HarnessError::Run { which, source };
    let mut sys = t
        .span("system.build", || -> Result<System, SysError> {
            let mut sys = System::try_new(config.system.clone())?;
            sys.load_program(program)?;
            for (addr, words) in &case.init {
                sys.memory_mut().write_u64_slice(*addr, words);
            }
            let argv: Vec<&str> = case.argv.iter().map(String::as_str).collect();
            let envp: Vec<&str> = case.envp.iter().map(String::as_str).collect();
            sys.setup_process(&argv, &envp, &case.stdin);
            Ok(sys)
        })
        .map_err(as_run)?;
    let stats = run_system(t, &mut sys, engine(config), config.max_cycles).map_err(as_run)?;
    count_speed(t, &sys.speed_stats());
    t.span("harness.verify", || {
        verify_memory(&sys, &case.expected, which)?;
        let got = sys.kernel().exit_code().unwrap_or(0);
        if got != case.expected_exit {
            return Err(HarnessError::ExitMismatch {
                which,
                expected: case.expected_exit,
                got,
            });
        }
        if sys.kernel().stdout() != case.expected_stdout.as_slice() {
            return Err(HarnessError::StdoutMismatch {
                which,
                expected: case.expected_stdout.clone(),
                got: sys.kernel().stdout().to_vec(),
            });
        }
        Ok(())
    })?;
    Ok(stats)
}

/// `run_program_case`: both legs of a whole program.
///
/// # Errors
///
/// Baseline errors first, then accelerated-leg errors.
pub fn run_program_case(
    t: &Tracer,
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<KernelResult, HarnessError> {
    let base = run_process(t, "baseline", &case.baseline, case, config);
    let dyser = run_process(t, "dyser", &case.accelerated, case, config);
    Ok(program_result(case, base?, dyser?))
}

/// The `KernelResult` `run_program_case` builds from both legs.
#[must_use]
pub fn program_result(case: &ProgramCase, baseline: RunStats, dyser: RunStats) -> KernelResult {
    KernelResult {
        name: case.name.clone(),
        speedup: baseline.cycles as f64 / dyser.cycles.max(1) as f64,
        accelerated_any: true,
        regions: Vec::new(),
        code_sizes: (case.baseline.len(), case.accelerated.len()),
        baseline,
        dyser,
    }
}

/// `run_kernel_batch`: chunks of 16 jobs, each chunk's legs stepped
/// together by `run_batch` (chunks one after the other instead of on
/// worker threads, which changes no result).
pub fn run_kernel_batch(
    t: &Tracer,
    cache: &mut CacheProbe,
    jobs: &[KernelJob],
) -> Vec<Result<KernelResult, HarnessError>> {
    jobs.chunks(BATCH_JOBS)
        .flat_map(|chunk| run_batch_chunk(t, cache, chunk))
        .collect()
}

fn run_batch_chunk(
    t: &Tracer,
    cache: &mut CacheProbe,
    jobs: &[KernelJob],
) -> Vec<Result<KernelResult, HarnessError>> {
    const LEGS: [&str; 2] = ["baseline", "dyser"];
    let compiled: Vec<Result<Arc<CompiledProgram>, HarnessError>> = jobs
        .iter()
        .map(|(case, config)| {
            cache
                .lookup(t, &case.function, &config.compiler)
                .map_err(Into::into)
        })
        .collect();
    let mut items: Vec<BatchItem> = Vec::new();
    let mut lanes: Vec<(usize, usize)> = Vec::new();
    let mut legs: Vec<[Option<Result<RunStats, HarnessError>>; 2]> =
        jobs.iter().map(|_| [None, None]).collect();
    for (j, ((case, config), compiled)) in jobs.iter().zip(&compiled).enumerate() {
        let Ok(compiled) = compiled else { continue };
        let engine = engine(config);
        for (leg, program) in [&compiled.baseline, &compiled.accelerated]
            .into_iter()
            .enumerate()
        {
            let built = t.span("system.build", || -> Result<System, SysError> {
                let mut sys = System::try_new(config.system.clone())?;
                sys.load_program(program)?;
                for (addr, words) in &case.init {
                    sys.memory_mut().write_u64_slice(*addr, words);
                }
                sys.set_args(&case.args);
                Ok(sys)
            });
            match built {
                Err(source) => {
                    legs[j][leg] = Some(Err(HarnessError::Run {
                        which: LEGS[leg],
                        source,
                    }))
                }
                Ok(system) => {
                    let mut h = DefaultHasher::new();
                    (
                        Arc::as_ptr(compiled) as usize,
                        leg,
                        config.system.mem.l1i.line_bytes,
                    )
                        .hash(&mut h);
                    items.push(BatchItem {
                        system,
                        max_cycles: config.max_cycles,
                        engine,
                        share_code: Some(h.finish()),
                    });
                    lanes.push((j, leg));
                }
            }
        }
    }

    t.count("batch.instances", items.len() as u64);
    let start = Instant::now();
    let report = t.span("batch.run_batch", || run_batch(items));
    t.count("batch.run_ns", elapsed_ns(start));
    t.count("compiled.shared_block_hits", report.shared_blocks.hits);
    t.count("compiled.shared_block_misses", report.shared_blocks.misses);
    for (outcome, &(j, leg)) in report.outcomes.iter().zip(&lanes) {
        let which = LEGS[leg];
        let (case, _) = &jobs[j];
        legs[j][leg] = Some(match &outcome.result {
            Err(source) => Err(HarnessError::Run {
                which,
                source: source.clone(),
            }),
            Ok(stats) => {
                t.count("batch.cycles", stats.cycles);
                count_speed(t, &outcome.system.speed_stats());
                t.span("harness.verify", || {
                    verify_memory(&outcome.system, &case.expected, which)
                })
                .map(|()| stats.clone())
            }
        });
    }

    jobs.iter()
        .zip(compiled)
        .zip(legs)
        .map(|(((case, _), compiled), [base, dyser])| {
            let compiled = compiled?;
            let base = base.expect("baseline leg resolved")?;
            let dyser = dyser.expect("dyser leg resolved")?;
            Ok(kernel_result(&case.name, &compiled, base, dyser))
        })
        .collect()
}

/// Whether two compile results are identical in every field: both
/// binaries (code words, listing, pool, fabric configurations), region
/// reports and shapes.
#[must_use]
pub fn same_program(a: &CompiledProgram, b: &CompiledProgram) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Whether two kernel results are identical in every field, both legs'
/// `RunStats` included.
#[must_use]
pub fn same_result(a: &KernelResult, b: &KernelResult) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
