//! The experiment harness: compile a kernel both ways, run both systems,
//! verify both outputs, and report the measurements.
//!
//! This is the software equivalent of the paper's evaluation flow: the
//! same source is compiled for OpenSPARC (baseline) and SPARC-DySER
//! (accelerated), both run the same inputs on identically configured
//! machines, and correctness is established by comparing every output
//! buffer against a reference computed independently.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use dyser_compiler::{
    compile, CompileError, CompiledProgram, CompilerOptions, Function, Program, RegionReport,
};
use dyser_trace::TraceRun;

use crate::batch::{run_batch, BatchEngine, BatchItem};
use crate::system::{RunStats, SpeedStats, SysError, System, SystemConfig};

/// A runnable kernel instance: IR, arguments, input memory, and the
/// reference outputs.
#[derive(Debug, Clone)]
pub struct KernelCase {
    /// Display name.
    pub name: String,
    /// The kernel function.
    pub function: Function,
    /// Arguments passed in `%o0..%o5` (buffer addresses, sizes, scalars).
    pub args: Vec<u64>,
    /// Initial memory contents: `(address, words)`.
    pub init: Vec<(u64, Vec<u64>)>,
    /// Expected memory after the run: `(address, words)`.
    pub expected: Vec<(u64, Vec<u64>)>,
}

/// Which execution engine drives a simulation run.
///
/// All backends produce bit-identical [`RunStats`]; they differ only in
/// how much simulator work they spend per simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Fetch, decode, and execute every issue, fast-forwarding counted
    /// stalls (`System::run`).
    #[default]
    Interpreted,
    /// Translate straight-line spans once and dispatch pre-decoded block
    /// thunks (`System::run_compiled`).
    Compiled,
}

impl Backend {
    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "interpreted" | "interp" => Ok(Backend::Interpreted),
            "compiled" => Ok(Backend::Compiled),
            other => Err(format!("unknown backend {other:?} (interpreted|compiled)")),
        }
    }

    /// The canonical CLI spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Interpreted => "interpreted",
            Backend::Compiled => "compiled",
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// System parameters (shared by both runs).
    pub system: SystemConfig,
    /// Compiler parameters.
    pub compiler: CompilerOptions,
    /// Cycle budget per run.
    pub max_cycles: u64,
    /// Use the per-cycle reference path (`System::run_stepped`) instead
    /// of the stall fast-forwarding default. The two paths produce
    /// bit-identical `RunStats` — this switch exists so the equivalence
    /// tests can prove it through the full harness. Takes precedence
    /// over `backend`.
    pub stepped: bool,
    /// Execution engine for non-stepped runs (overridable process-wide
    /// with [`set_backend_override`]).
    pub backend: Backend,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            system: SystemConfig::default(),
            compiler: CompilerOptions::default(),
            max_cycles: 50_000_000,
            stepped: false,
            backend: Backend::Interpreted,
        }
    }
}

impl RunConfig {
    /// Sets the fabric geometry on both the system and the compiler.
    ///
    /// The two copies must agree or the scheduler targets hardware that
    /// does not exist; every sweep that varies geometry should go through
    /// here rather than assigning the fields separately.
    pub fn set_geometry(&mut self, geometry: dyser_fabric::FabricGeometry) {
        self.system.geometry = geometry;
        self.compiler.geometry = geometry;
    }

    /// Sets explicit per-site FU kinds on both the system and the
    /// compiler (`None` restores the default heterogeneous pattern).
    pub fn set_kinds(&mut self, kinds: Option<Vec<dyser_fabric::FuKind>>) {
        self.system.kinds = kinds.clone();
        self.compiler.kinds = kinds;
    }

    /// Makes every FU site a [`dyser_fabric::FuKind::Universal`] unit on
    /// the current geometry (used by idealised sweeps).
    pub fn set_universal_fus(&mut self) {
        let kinds = vec![dyser_fabric::FuKind::Universal; self.system.geometry.fu_count()];
        self.set_kinds(Some(kinds));
    }
}

/// The outcome of one kernel experiment.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Baseline run statistics.
    pub baseline: RunStats,
    /// Accelerated run statistics.
    pub dyser: RunStats,
    /// Baseline cycles / accelerated cycles.
    pub speedup: f64,
    /// Whether any region was actually accelerated.
    pub accelerated_any: bool,
    /// Compiler region reports.
    pub regions: Vec<RegionReport>,
    /// Static code sizes (baseline, accelerated).
    pub code_sizes: (usize, usize),
}

impl KernelResult {
    /// Dynamic instruction reduction: `1 - dyser/baseline`.
    pub fn instr_reduction(&self) -> f64 {
        if self.baseline.core.instructions == 0 {
            0.0
        } else {
            1.0 - self.dyser.core.instructions as f64 / self.baseline.core.instructions as f64
        }
    }
}

/// Harness failures.
#[derive(Debug)]
pub enum HarnessError {
    /// Compilation failed.
    Compile(CompileError),
    /// A run faulted or timed out.
    Run {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// The underlying error.
        source: SysError,
    },
    /// An output buffer mismatched the reference.
    Mismatch {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// Address of the first mismatching word.
        addr: u64,
        /// Expected bits.
        expected: u64,
        /// Observed bits.
        got: u64,
    },
    /// A whole-program run's captured stdout differed from the reference.
    StdoutMismatch {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// Expected bytes.
        expected: Vec<u8>,
        /// Observed bytes.
        got: Vec<u8>,
    },
    /// A whole-program run exited with the wrong code.
    ExitMismatch {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// Expected exit code.
        expected: u64,
        /// Observed exit code.
        got: u64,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Compile(e) => write!(f, "compile: {e}"),
            HarnessError::Run { which, source } => write!(f, "{which} run: {source}"),
            HarnessError::Mismatch { which, addr, expected, got } => write!(
                f,
                "{which} output mismatch at {addr:#x}: expected {expected:#018x}, got {got:#018x}"
            ),
            HarnessError::StdoutMismatch { which, expected, got } => write!(
                f,
                "{which} stdout mismatch: expected {:?}, got {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(got)
            ),
            HarnessError::ExitMismatch { which, expected, got } => {
                write!(f, "{which} exit code mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<CompileError> for HarnessError {
    fn from(e: CompileError) -> Self {
        HarnessError::Compile(e)
    }
}

/// Process-wide backend override: 0 = none (use each job's `RunConfig`),
/// 1 = interpreted, 2 = compiled. The workspace's own drivers carry the
/// backend in each `RunConfig` instead; the override remains for
/// external callers that mirror the harness's engine choice.
static BACKEND_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Forces every subsequent [`run_program`] call in this process onto the
/// given backend (`None` restores per-job configuration).
pub fn set_backend_override(backend: Option<Backend>) {
    let v = match backend {
        None => 0,
        Some(Backend::Interpreted) => 1,
        Some(Backend::Compiled) => 2,
    };
    BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The backend override currently in force (see [`set_backend_override`]).
#[must_use]
pub fn backend_override() -> Option<Backend> {
    match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(Backend::Interpreted),
        2 => Some(Backend::Compiled),
        _ => None,
    }
}

/// A system configured by `config` with `program` loaded and `init`
/// written to memory.
fn load(
    config: &RunConfig,
    program: &Program,
    init: &[(u64, Vec<u64>)],
) -> Result<System, SysError> {
    let mut sys = System::try_new(config.system.clone())?;
    sys.load_program(program)?;
    for (addr, words) in init {
        sys.memory_mut().write_u64_slice(*addr, words);
    }
    Ok(sys)
}

/// The engine a run under `config` uses: the stepped reference path
/// when asked for, otherwise the backend (the override, if set, wins).
fn engine(config: &RunConfig) -> BatchEngine {
    match (config.stepped, backend_override().unwrap_or(config.backend)) {
        (true, _) => BatchEngine::Stepped,
        (false, Backend::Interpreted) => BatchEngine::Interpreted,
        (false, Backend::Compiled) => BatchEngine::Compiled,
    }
}

/// Runs a loaded system to completion on `config`'s engine.
fn run_system(sys: &mut System, config: &RunConfig) -> Result<RunStats, SysError> {
    match engine(config) {
        BatchEngine::Stepped => sys.run_stepped(config.max_cycles),
        BatchEngine::Interpreted => sys.run(config.max_cycles),
        BatchEngine::Compiled => sys.run_compiled(config.max_cycles),
    }
}

/// Everything one simulated run produces beyond its verdict: the run
/// statistics, the per-run issue-path cache counters, and (when the
/// caller asked for one) the run's own trace — all owned by the caller,
/// so concurrent callers never interleave their counters or events.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The run's statistics (bit-identical across backends).
    pub stats: RunStats,
    /// This run's issue-path cache counters (decode and block caches).
    pub speed: SpeedStats,
    /// The run's trace, if `trace_capacity > 0` was requested.
    pub trace: Option<TraceRun>,
}

/// Runs one already-compiled program and verifies its outputs, returning
/// every artifact to the caller ([`RunArtifacts`]).
///
/// `trace_capacity > 0` enables event tracing into per-component ring
/// buffers of that many events; the merged trace comes back in the
/// artifacts.
///
/// # Errors
///
/// Fails on core faults, timeouts, invalid configurations, or output
/// mismatches.
pub fn run_program_traced(
    which: &'static str,
    program: &Program,
    args: &[u64],
    init: &[(u64, Vec<u64>)],
    expected: &[(u64, Vec<u64>)],
    config: &RunConfig,
    trace_capacity: usize,
) -> Result<RunArtifacts, HarnessError> {
    let as_run = |source| HarnessError::Run { which, source };
    let mut sys = load(config, program, init).map_err(as_run)?;
    sys.set_args(args);
    if trace_capacity > 0 {
        sys.enable_trace(trace_capacity);
    }
    let stats = run_system(&mut sys, config).map_err(as_run)?;
    let speed = sys.speed_stats();
    let trace = sys
        .take_trace()
        .map(|(events, dropped)| TraceRun { label: which.to_string(), events, dropped });
    verify_expected(&sys, expected, which)?;
    Ok(RunArtifacts { stats, speed, trace })
}

/// Runs one already-compiled program (IR not required — manual DySER
/// implementations use this too) and verifies its outputs.
///
/// [`run_program_traced`] without tracing, keeping only the statistics.
///
/// # Errors
///
/// Fails on core faults, timeouts, or output mismatches.
pub fn run_program(
    which: &'static str,
    program: &Program,
    args: &[u64],
    init: &[(u64, Vec<u64>)],
    expected: &[(u64, Vec<u64>)],
    config: &RunConfig,
) -> Result<RunStats, HarnessError> {
    run_program_traced(which, program, args, init, expected, config, 0).map(|a| a.stats)
}

/// Process-global cache of compiled programs.
///
/// Experiment sweeps compile the same `(kernel, options)` pair dozens of
/// times — every experiment rebuilds the suite from scratch. Compilation
/// is deterministic, so the result can be shared: the cache key is the
/// exhaustive `Debug` rendering of both inputs (structural equality by
/// construction, no `Hash`/`Eq` impls required on compiler types).
static COMPILE_CACHE: OnceLock<Mutex<HashMap<String, Arc<CompiledProgram>>>> = OnceLock::new();

/// Compiles `function` under `options`, memoising the result for the
/// lifetime of the process.
///
/// Compilation runs outside the cache lock, so parallel workers can
/// compile *different* kernels concurrently; two workers racing on the
/// same key both compile, and the first insertion wins (the results are
/// identical — compilation is deterministic).
///
/// # Errors
///
/// Propagates [`CompileError`]; failures are not cached.
pub fn compile_cached(
    function: &Function,
    options: &CompilerOptions,
) -> Result<Arc<CompiledProgram>, CompileError> {
    let key = format!("{function:?}\u{1f}{options:?}");
    let cache = COMPILE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("compile cache lock").get(&key) {
        return Ok(Arc::clone(hit));
    }
    let compiled = Arc::new(compile(function, options)?);
    let mut map = cache.lock().expect("compile cache lock");
    Ok(Arc::clone(map.entry(key).or_insert(compiled)))
}

/// Runs the baseline leg on a scoped thread and the accelerated leg on
/// this one, so a multi-core host overlaps the two independent
/// simulations. Results and error priority (baseline first) are
/// identical to running them back to back; a panic in either leg
/// propagates with its original payload.
fn both_legs<T: Send>(
    programs: [&Program; 2],
    leg: impl Fn(&'static str, &Program) -> Result<T, HarnessError> + Sync,
) -> Result<[T; 2], HarnessError> {
    let (base, dyser) = thread::scope(|s| {
        let base = s.spawn(|| leg("baseline", programs[0]));
        let dyser = leg("dyser", programs[1]);
        (base.join().unwrap_or_else(|p| std::panic::resume_unwind(p)), dyser)
    });
    Ok([base?, dyser?])
}

/// Assembles a [`KernelResult`] from a compiled kernel's two verified
/// legs.
fn compiled_result(
    name: &str,
    compiled: &CompiledProgram,
    [baseline, dyser]: [RunStats; 2],
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

/// Compiles and runs `case` both ways; verifies both runs.
///
/// # Errors
///
/// Fails on compile errors, run faults, or verification mismatches —
/// a mismatch is a simulator or compiler bug, never tolerated.
pub fn run_kernel(case: &KernelCase, config: &RunConfig) -> Result<KernelResult, HarnessError> {
    run_kernel_traced(case, config, 0).map(|(result, _)| result)
}

/// [`run_kernel`], also returning each leg's [`RunArtifacts`] (baseline
/// first). `trace_capacity` goes to [`run_program_traced`] for both legs.
///
/// # Errors
///
/// As [`run_kernel`].
pub fn run_kernel_traced(
    case: &KernelCase,
    config: &RunConfig,
    trace_capacity: usize,
) -> Result<(KernelResult, [RunArtifacts; 2]), HarnessError> {
    let compiled = compile_cached(&case.function, &config.compiler)?;
    let legs = both_legs([&compiled.baseline, &compiled.accelerated], |which, program| {
        run_program_traced(
            which,
            program,
            &case.args,
            &case.init,
            &case.expected,
            config,
            trace_capacity,
        )
    })?;
    let result = compiled_result(&case.name, &compiled, legs.each_ref().map(|a| a.stats.clone()));
    Ok((result, legs))
}

/// One queued kernel experiment: the case plus the configuration to run
/// it under.
pub type KernelJob = (KernelCase, RunConfig);

/// Worker count for [`run_kernels`]: the host's available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on `threads` scoped worker threads.
///
/// Workers claim items from a shared atomic index and write each outcome
/// into the slot matching its input position, so the returned vector is
/// in item order — bit-identical to mapping serially — no matter which
/// worker finished first. `threads` is clamped to `1..=items.len()`;
/// a single worker maps on the calling thread. This is the
/// work-stealing pool behind [`run_kernels`] and the fuzz campaign
/// driver.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot lock").expect("worker filled the slot"))
        .collect()
}

/// Runs every job, fanning them across `threads` scoped worker threads
/// via [`parallel_map`]; results are in job order.
pub fn run_kernels(jobs: &[KernelJob], threads: usize) -> Vec<Result<KernelResult, HarnessError>> {
    parallel_map(jobs, threads, |(case, config)| run_kernel(case, config))
}

/// Jobs per lockstep batch in [`run_kernel_batch`]: each job contributes
/// two instances (baseline and accelerated leg), so a full chunk steps
/// 32 systems together — enough to amortize scheduling and share
/// translations, small enough to keep the parallel workers loaded.
const BATCH_JOBS: usize = 16;

/// Runs every job through the lockstep batch scheduler
/// ([`crate::batch::run_batch`]): jobs are grouped into chunks, each
/// chunk's baseline and accelerated legs become one batch of systems
/// advanced together, and chunks fan out across `threads` workers.
///
/// Results — values, statistics, and error priority (compile, then
/// baseline, then dyser; run errors before mismatches per leg) — are
/// identical to [`run_kernels`]. Compiled-backend legs running the same
/// program text share one translated-block cache per chunk.
pub fn run_kernel_batch(
    jobs: &[KernelJob],
    threads: usize,
) -> Vec<Result<KernelResult, HarnessError>> {
    let chunks: Vec<&[KernelJob]> = jobs.chunks(BATCH_JOBS).collect();
    parallel_map(&chunks, threads, |chunk| run_kernel_batch_chunk(chunk))
        .into_iter()
        .flatten()
        .collect()
}

/// Simulates one chunk of jobs as a single lockstep batch.
fn run_kernel_batch_chunk(jobs: &[KernelJob]) -> Vec<Result<KernelResult, HarnessError>> {
    use std::hash::{Hash, Hasher};

    let compiled: Vec<Result<Arc<CompiledProgram>, HarnessError>> = jobs
        .iter()
        .map(|(case, config)| compile_cached(&case.function, &config.compiler).map_err(Into::into))
        .collect();

    const LEGS: [&str; 2] = ["baseline", "dyser"];
    let mut items: Vec<BatchItem> = Vec::new();
    let mut lanes: Vec<(usize, usize)> = Vec::new(); // (job index, leg index)
    let mut leg_results: Vec<[Option<Result<RunStats, HarnessError>>; 2]> =
        jobs.iter().map(|_| [None, None]).collect();

    for (j, ((case, config), compiled)) in jobs.iter().zip(&compiled).enumerate() {
        let Ok(compiled) = compiled else { continue };
        let engine = engine(config);
        for (leg, program) in [&compiled.baseline, &compiled.accelerated].into_iter().enumerate() {
            match load(config, program, &case.init) {
                Err(source) => {
                    leg_results[j][leg] =
                        Some(Err(HarnessError::Run { which: LEGS[leg], source }));
                }
                Ok(mut system) => {
                    system.set_args(&case.args);
                    // Legs with identical program text and L1I line size
                    // (same compiled Arc — alive for this whole chunk —
                    // plus the leg selecting baseline vs accelerated)
                    // share one translated-block cache.
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    (Arc::as_ptr(compiled) as usize, leg, config.system.mem.l1i.line_bytes)
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

    let report = run_batch(items);
    for (outcome, &(j, leg)) in report.outcomes.iter().zip(&lanes) {
        let which = LEGS[leg];
        let (case, _) = &jobs[j];
        leg_results[j][leg] = Some(match &outcome.result {
            Err(source) => Err(HarnessError::Run { which, source: source.clone() }),
            Ok(stats) => {
                verify_expected(&outcome.system, &case.expected, which).map(|()| stats.clone())
            }
        });
    }

    jobs.iter()
        .zip(compiled)
        .zip(leg_results)
        .map(|(((case, _), compiled), [base, dyser])| {
            let compiled = compiled?;
            let base = base.expect("baseline leg resolved")?;
            let dyser = dyser.expect("dyser leg resolved")?;
            Ok(compiled_result(&case.name, &compiled, [base, dyser]))
        })
        .collect()
}

/// A whole emulated process: program text for both legs (hand-assembled,
/// DySER-accelerated inner regions in the `accelerated` leg), the process
/// inputs (argv, envp, stdin, initial memory), and the reference outputs
/// — captured stdout bytes and the exit code, plus optional memory
/// expectations.
#[derive(Debug, Clone)]
pub struct ProgramCase {
    /// Display name (`p1`..`p3` in the experiment suite).
    pub name: String,
    /// Scalar-baseline program.
    pub baseline: Program,
    /// DySER-accelerated program.
    pub accelerated: Program,
    /// Process arguments (argv\[0\] included).
    pub argv: Vec<String>,
    /// Process environment strings (`KEY=value`).
    pub envp: Vec<String>,
    /// Bytes served to `read` on fd 0.
    pub stdin: Vec<u8>,
    /// Initial memory contents: `(address, words)`.
    pub init: Vec<(u64, Vec<u64>)>,
    /// Expected memory after the run: `(address, words)`.
    pub expected: Vec<(u64, Vec<u64>)>,
    /// Reference stdout, compared byte-for-byte.
    pub expected_stdout: Vec<u8>,
    /// Reference exit code.
    pub expected_exit: u64,
}

/// Everything one whole-program run produces: the (backend-bit-identical)
/// run statistics, the issue-path cache counters, and the process
/// outputs.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// The run's statistics.
    pub stats: RunStats,
    /// This run's issue-path cache counters (decode and block caches).
    pub speed: SpeedStats,
    /// Captured stdout bytes.
    pub stdout: Vec<u8>,
    /// Captured stderr bytes.
    pub stderr: Vec<u8>,
    /// The `exit` syscall's code (0 if the program halted without one).
    pub exit_code: u64,
}

/// Runs one leg of a [`ProgramCase`] as an emulated process — startup
/// stack, proxy kernel, trap-and-emulate syscalls — and verifies its
/// memory, stdout, and exit code against the references.
///
/// The backend follows `config` exactly like [`run_program`].
///
/// # Errors
///
/// Fails on core faults, timeouts, unknown syscalls, or any output
/// mismatch (memory, stdout, or exit code).
pub fn run_whole_program(
    which: &'static str,
    program: &Program,
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<ProgramRun, HarnessError> {
    let as_run = |source| HarnessError::Run { which, source };
    let mut sys = load(config, program, &case.init).map_err(as_run)?;
    let argv: Vec<&str> = case.argv.iter().map(String::as_str).collect();
    let envp: Vec<&str> = case.envp.iter().map(String::as_str).collect();
    sys.setup_process(&argv, &envp, &case.stdin);
    let stats = run_system(&mut sys, config).map_err(as_run)?;
    verify_expected(&sys, &case.expected, which)?;
    let got_exit = sys.kernel().exit_code().unwrap_or(0);
    if got_exit != case.expected_exit {
        return Err(HarnessError::ExitMismatch {
            which,
            expected: case.expected_exit,
            got: got_exit,
        });
    }
    if sys.kernel().stdout() != case.expected_stdout.as_slice() {
        return Err(HarnessError::StdoutMismatch {
            which,
            expected: case.expected_stdout.clone(),
            got: sys.kernel().stdout().to_vec(),
        });
    }
    Ok(ProgramRun {
        stats,
        speed: sys.speed_stats(),
        stdout: sys.kernel().stdout().to_vec(),
        stderr: sys.kernel().stderr().to_vec(),
        exit_code: got_exit,
    })
}

/// Runs both legs of a [`ProgramCase`] (scoped threads, like
/// [`run_kernel`]) and reports the comparison in the same
/// [`KernelResult`] shape the experiment tables consume.
///
/// # Errors
///
/// Baseline errors take priority over accelerated-leg errors.
pub fn run_program_case(
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<KernelResult, HarnessError> {
    run_program_case_legs(case, config).map(|(result, _)| result)
}

/// [`run_program_case`], also returning each leg's [`ProgramRun`]
/// (baseline first).
///
/// # Errors
///
/// As [`run_program_case`].
pub fn run_program_case_legs(
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<(KernelResult, [ProgramRun; 2]), HarnessError> {
    let legs = both_legs([&case.baseline, &case.accelerated], |which, program| {
        run_whole_program(which, program, case, config)
    })?;
    let [baseline, dyser] = legs.each_ref().map(|run| run.stats.clone());
    let result = KernelResult {
        name: case.name.clone(),
        speedup: baseline.cycles as f64 / dyser.cycles.max(1) as f64,
        accelerated_any: true,
        regions: Vec::new(),
        code_sizes: (case.baseline.len(), case.accelerated.len()),
        baseline,
        dyser,
    };
    Ok((result, legs))
}

/// Checks every expected output buffer against the system's memory,
/// mirroring the verification in [`run_program_traced`].
fn verify_expected(
    sys: &System,
    expected: &[(u64, Vec<u64>)],
    which: &'static str,
) -> Result<(), HarnessError> {
    for (addr, words) in expected {
        for (i, want) in words.iter().enumerate() {
            let a = addr + 8 * i as u64;
            let got = sys.memory().read_u64(a);
            if got != *want {
                return Err(HarnessError::Mismatch { which, addr: a, expected: *want, got });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyser_compiler::{BinOp, CmpOp, FunctionBuilder, Type};

    /// c[i] = (a[i] + b[i]) * a[i] over f64, n elements.
    fn case(n: usize) -> KernelCase {
        let mut b = FunctionBuilder::new(
            "fma_ish",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
        );
        let (a, bb, c, nn) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let pa = b.gep(a, i, 8);
        let pb = b.gep(bb, i, 8);
        let va = b.load(pa, Type::F64);
        let vb = b.load(pb, Type::F64);
        let sum = b.bin(BinOp::Fadd, va, vb);
        let prod = b.bin(BinOp::Fmul, sum, va);
        let pc = b.gep(c, i, 8);
        b.store(prod, pc);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let cond = b.cmp(CmpOp::Slt, i2, nn);
        b.cond_br(cond, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.build().unwrap();

        let (pa, pb, pc) = (0x20_0000u64, 0x30_0000u64, 0x40_0000u64);
        let av: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let bv: Vec<f64> = (0..n).map(|i| (i as f64) * -0.25 + 2.0).collect();
        let cv: Vec<u64> =
            av.iter().zip(&bv).map(|(x, y)| ((x + y) * x).to_bits()).collect();
        KernelCase {
            name: "fma_ish".into(),
            function: f,
            args: vec![pa, pb, pc, n as u64],
            init: vec![
                (pa, av.iter().map(|x| x.to_bits()).collect()),
                (pb, bv.iter().map(|x| x.to_bits()).collect()),
            ],
            expected: vec![(pc, cv)],
        }
    }

    #[test]
    fn baseline_and_dyser_both_verify() {
        let result = run_kernel(&case(37), &RunConfig::default()).expect("kernel verifies");
        assert!(result.accelerated_any, "{:?}", result.regions);
        assert!(result.baseline.cycles > 0);
        assert!(result.dyser.cycles > 0);
        assert!(
            result.speedup > 1.0,
            "fp kernel should speed up, got {:.2} (base {} vs dyser {})",
            result.speedup,
            result.baseline.cycles,
            result.dyser.cycles
        );
        // A 2-op kernel trades its compute instructions for interface
        // instructions roughly one-for-one; large reductions show up on
        // compute-heavy kernels (experiment E5).
        assert!(
            result.instr_reduction() > -0.5,
            "interface overhead out of bounds: {:.2}",
            result.instr_reduction()
        );
        assert!(result.dyser.fabric.fu_fires() > 0);
        assert_eq!(result.baseline.fabric.fu_fires(), 0);
    }

    #[test]
    fn odd_and_even_trip_counts_verify() {
        // Exercises the unroll epilogue paths end to end.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
            let r = run_kernel(&case(n), &RunConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert!(r.baseline.halted && r.dyser.halted);
        }
    }

    #[test]
    fn no_unroll_still_verifies() {
        let mut rc = RunConfig::default();
        rc.compiler.unroll_factor = 1;
        let r = run_kernel(&case(23), &rc).unwrap();
        assert!(r.accelerated_any);
    }

    #[test]
    fn lag_disabled_still_verifies() {
        let mut rc = RunConfig::default();
        rc.compiler.codegen.lag_stores = false;
        let r = run_kernel(&case(23), &rc).unwrap();
        assert!(r.accelerated_any);
    }
}
