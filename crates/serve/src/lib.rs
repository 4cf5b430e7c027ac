//! # dyser-serve
//!
//! Simulation-as-a-service: a daemon that accepts compile+simulate jobs
//! over a socket JSON API and multiplexes them across a pool of worker
//! shards, all sharing the process-wide compile cache — the software
//! analogue of time-sharing one FPGA prototype board among many users.
//!
//! The wire protocol (requests, results, typed errors, the blocking
//! client) lives in `dyser_bench::serve`; this crate is the server side:
//!
//! * [`Server`] — a TCP listener, a bounded admission queue, and
//!   `shards` worker threads draining it. A full queue turns into a
//!   structured `overloaded` reply, not a hung connection. The running
//!   server owns what its shards share besides the compile cache: the
//!   completed-job count and one result memo for experiment jobs.
//! * [`execute_job`] — runs one [`JobRequest`] to completion. Every
//!   failure mode (unknown kernel, impossible hardware description,
//!   compile error, mid-run cycle-budget timeout, output mismatch, even
//!   a worker panic) comes back as a typed [`JobError`]; a job can never
//!   take its shard down.
//!
//! Jobs are bit-identical to in-process runs: a kernel job produces the
//! same `RunStats` (compared by exhaustive `Debug` rendering) as
//! `run_kernel` under the same configuration, and an experiment job
//! returns the exact table text `repro` prints. The integration tests
//! prove both under concurrency.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

use dyser_bench::dse::{point_sim, DsePoint, FuMix, MemPreset};
use dyser_bench::experiments::{PROGRAM_N, SEED};
use dyser_bench::serve::{
    envelope_json, read_http_request, write_http_response, HttpRequest, JobError, JobRequest,
    JobResult, RunSpec, SystemSpec, DEFAULT_JOB_CYCLES,
};
use dyser_bench::{ResultMemo, Scale, Session, EXPERIMENT_IDS};
use dyser_compiler::ir::parser::parse_module;
use dyser_compiler::CompilerOptions;
use dyser_core::{run_kernel_traced, HarnessError, KernelCase, RunConfig};
use dyser_fabric::FabricGeometry;
use dyser_sparc::CycleBucket;
use dyser_trace::{chrome_trace_json, TraceRun};
use dyser_workloads::programs::MAX_STDIN_WORDS;
use dyser_workloads::suite;

/// Per-component ring-buffer capacity for jobs that request a trace —
/// the same capacity `repro --trace` uses.
const TRACE_EVENTS: usize = 65_536;

// ------------------------------------------------------- configuration

/// Daemon parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker-shard count: jobs executing concurrently.
    pub shards: usize,
    /// Admission-queue depth: accepted connections waiting for a shard.
    /// Beyond this the daemon replies `overloaded` immediately.
    pub queue_depth: usize,
    /// Upper bound on any job's cycle budget. Requests asking for more
    /// are clamped, so one job cannot monopolize a shard indefinitely —
    /// the budget is enforced mid-run by the system's own `Timeout`
    /// plumbing.
    pub max_cycles_cap: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            shards: 4,
            queue_depth: 64,
            max_cycles_cap: DEFAULT_JOB_CYCLES,
        }
    }
}

// ---------------------------------------------------- job execution

/// Renders a caught panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_owned()
    }
}

/// Runs `f`, turning a panic inside it into [`JobError::Internal`].
fn caught<R>(f: impl FnOnce() -> R) -> Result<R, JobError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| JobError::Internal(panic_message(&*p)))
}

/// Builds the `RunConfig` for a kernel or IR job, validating the
/// hardware description up front so impossible configurations (a
/// zero-depth FIFO, a 0×0 or 17×17 fabric) come back as typed
/// `invalid-config` errors instead of construction panics.
fn build_run_config(
    run: &RunSpec,
    system: &SystemSpec,
    max_cycles_cap: u64,
) -> Result<RunConfig, JobError> {
    let mut rc = RunConfig::default();
    let rows = system.rows.unwrap_or(rc.system.geometry.rows());
    let cols = system.cols.unwrap_or(rc.system.geometry.cols());
    rc.system.geometry = FabricGeometry::try_new(rows, cols)
        .map_err(|e| JobError::InvalidConfig(e.to_string()))?;
    if let Some(depth) = system.fifo_depth {
        rc.system.fifo_depth = depth;
    }
    if let Some(has_fabric) = system.has_fabric {
        rc.system.has_fabric = has_fabric;
    }
    rc.system.validate().map_err(|e| JobError::InvalidConfig(e.to_string()))?;
    rc.max_cycles = run.max_cycles.unwrap_or(DEFAULT_JOB_CYCLES).clamp(1, max_cycles_cap);
    rc.stepped = run.stepped;
    if let Some(b) = run.backend {
        rc.backend = b;
    }
    Ok(rc)
}

/// Runs a kernel or IR job through [`run_kernel_traced`] and shapes the
/// wire result, with the chrome trace of both legs when asked for.
fn kernel_job(case: &KernelCase, config: &RunConfig, trace: bool) -> Result<JobResult, JobError> {
    let capacity = if trace { TRACE_EVENTS } else { 0 };
    let (result, [base, dyser]) =
        run_kernel_traced(case, config, capacity).map_err(|e| JobError::from_harness(&e))?;

    let account = result.dyser.core.cycle_account();
    let mut buckets: Vec<(String, u64)> = CycleBucket::ALL
        .iter()
        .map(|b| (b.label().to_owned(), account.get(*b)))
        .collect();
    buckets.push(("total".to_owned(), account.total_cycles));

    let trace_json = trace.then(|| {
        let runs: Vec<TraceRun> = [base.trace, dyser.trace].into_iter().flatten().collect();
        chrome_trace_json(&runs)
    });

    Ok(JobResult::Run {
        name: result.name,
        baseline_cycles: result.baseline.cycles,
        dyser_cycles: result.dyser.cycles,
        speedup: result.speedup,
        baseline_stats: format!("{:?}", result.baseline),
        dyser_stats: format!("{:?}", result.dyser),
        buckets,
        trace_json,
    })
}

/// Executes one job to completion; an experiment job runs in a
/// [`Session`] of its own with an empty result memo.
///
/// # Errors
///
/// Every failure mode maps to a [`JobError`]; this function never
/// panics on malformed or impossible jobs (panics from simulator bugs
/// are caught and surfaced as [`JobError::Internal`]).
pub fn execute_job(job: &JobRequest, max_cycles_cap: u64) -> Result<JobResult, JobError> {
    execute(job, max_cycles_cap, &Arc::default())
}

/// [`execute_job`], with experiment jobs reading and filling `memo`.
fn execute(
    job: &JobRequest,
    max_cycles_cap: u64,
    memo: &Arc<ResultMemo>,
) -> Result<JobResult, JobError> {
    match job {
        JobRequest::Experiment { id, csv, scale, backend } => {
            if id != "stats" && !EXPERIMENT_IDS.contains(&id.as_str()) {
                return Err(JobError::UnknownExperiment(id.clone()));
            }
            if !(*scale > 0.0 && *scale <= 1.0) {
                return Err(JobError::InvalidRequest(format!(
                    "scale {scale} is outside (0, 1]"
                )));
            }
            let session = Session::sharing(backend.unwrap_or_default(), Arc::clone(memo));
            caught(|| {
                let table = session.run(id, Scale(*scale));
                if *csv {
                    table.to_csv()
                } else {
                    table.to_string()
                }
            })
            .map(|text| JobResult::Experiment { text })
        }
        JobRequest::Kernel { name, n, run, system } => {
            let Some(kernel) = suite().into_iter().find(|k| k.name == name) else {
                return Err(JobError::UnknownKernel(name.clone()));
            };
            let mut rc = build_run_config(run, system, max_cycles_cap)?;
            rc.compiler = kernel.compiler_options(rc.system.geometry);
            let case = kernel.case(n.unwrap_or(kernel.default_n), SEED);
            caught(|| kernel_job(&case, &rc, run.trace))?
        }
        JobRequest::Ir { text, function, args, init, expected, run, system } => {
            let module = parse_module(text)
                .map_err(|e| JobError::Compile(format!("line {}: {}", e.line, e.message)))?;
            let func = match function {
                Some(name) => module.function(name).ok_or_else(|| {
                    JobError::Compile(format!("module has no function `{name}`"))
                })?,
                None => module
                    .functions
                    .first()
                    .ok_or_else(|| JobError::Compile("module has no functions".into()))?,
            };
            let mut rc = build_run_config(run, system, max_cycles_cap)?;
            rc.compiler = CompilerOptions::for_geometry(rc.system.geometry);
            let case = KernelCase {
                name: func.name().to_owned(),
                function: func.clone(),
                args: args.clone(),
                init: init.clone(),
                expected: expected.clone(),
            };
            caught(|| kernel_job(&case, &rc, run.trace))?
        }
        JobRequest::Program { name, n, run } => {
            let Some(build) = dyser_workloads::programs::by_name(name) else {
                return Err(JobError::UnknownKernel(name.clone()));
            };
            let n = n.unwrap_or(PROGRAM_N);
            if n < 8 || n % 4 != 0 || n > MAX_STDIN_WORDS {
                return Err(JobError::InvalidRequest(format!(
                    "program `n` must be a multiple of 4 in 8..={MAX_STDIN_WORDS}, got {n}"
                )));
            }
            let mut rc = build_run_config(run, &SystemSpec::default(), max_cycles_cap)?;
            rc.system.geometry = FabricGeometry::new(8, 8);
            let case = build(rc.system.geometry, n, SEED)
                .ok_or_else(|| {
                    JobError::InvalidConfig(format!("fabric too small for program `{name}`"))
                })?;
            let outcome = caught(|| {
                let base = dyser_core::run_whole_program("baseline", &case.baseline, &case, &rc)?;
                let dyser = dyser_core::run_whole_program("dyser", &case.accelerated, &case, &rc)?;
                Ok::<_, HarnessError>((base, dyser))
            })?;
            let (base, dyser) = outcome.map_err(|e| JobError::from_harness(&e))?;
            Ok(JobResult::Program {
                name: name.clone(),
                baseline_cycles: base.stats.cycles,
                dyser_cycles: dyser.stats.cycles,
                speedup: base.stats.cycles as f64 / dyser.stats.cycles.max(1) as f64,
                stdout: String::from_utf8_lossy(&dyser.stdout).into_owned(),
                exit_code: dyser.exit_code,
            })
        }
        JobRequest::DsePoint { .. } => {
            let (case, rc, fu_sites, kernel) = dse_point_inputs(job, max_cycles_cap)?;
            let result = caught(|| dyser_core::run_kernel(&case, &rc))?
                .map_err(|e| JobError::from_harness(&e))?;
            Ok(dse_point_result(kernel, &point_sim(&result, fu_sites)))
        }
    }
}

/// Resolves a `DsePoint` job into its harness inputs: the kernel case,
/// the run configuration, the FU-site count the energy model scales to,
/// and the kernel name echoed in the result.
fn dse_point_inputs(
    job: &JobRequest,
    max_cycles_cap: u64,
) -> Result<(KernelCase, RunConfig, usize, String), JobError> {
    let JobRequest::DsePoint { kernel, n, rows, cols, universal, fifo_depth, mem, unroll, run } =
        job
    else {
        return Err(JobError::InvalidRequest("not a dse-point job".into()));
    };
    let Some(k) = suite().into_iter().find(|s| s.name == kernel) else {
        return Err(JobError::UnknownKernel(kernel.clone()));
    };
    let mem = MemPreset::parse(mem).map_err(JobError::InvalidRequest)?;
    let point = DsePoint {
        kernel: kernel.clone(),
        rows: *rows,
        cols: *cols,
        mix: if *universal { FuMix::Universal } else { FuMix::Default },
        fifo_depth: *fifo_depth,
        mem,
        unroll: *unroll,
    };
    let mut rc =
        point.run_config(&k, run.backend).map_err(|e| JobError::InvalidConfig(e.to_string()))?;
    rc.max_cycles = run.max_cycles.unwrap_or(DEFAULT_JOB_CYCLES).clamp(1, max_cycles_cap);
    let case = k.case(*n, SEED);
    let fu_sites = rc.system.geometry.fu_count();
    Ok((case, rc, fu_sites, kernel.clone()))
}

/// Shapes one simulated point into the wire result.
fn dse_point_result(kernel: String, sim: &dyser_bench::dse::PointSim) -> JobResult {
    JobResult::DsePoint {
        kernel,
        baseline_cycles: sim.baseline_cycles,
        cycles: sim.cycles,
        energy_nj: sim.energy_nj,
        config_cycles: sim.config_cycles,
    }
}

/// Executes a worker's drained slice of `DsePoint` jobs as one lockstep
/// batch ([`dyser_core::run_kernel_batch`]), bit-identical to running
/// [`execute_job`] on each. Jobs with invalid configurations fail
/// individually without joining the batch; a panic anywhere inside the
/// batch falls the whole slice back to serial execution so the panic is
/// attributed to the job that caused it.
fn execute_dse_batch(
    jobs: &[JobRequest],
    max_cycles_cap: u64,
) -> Vec<Result<JobResult, JobError>> {
    let inputs: Vec<Result<(KernelCase, RunConfig, usize, String), JobError>> =
        jobs.iter().map(|j| dse_point_inputs(j, max_cycles_cap)).collect();
    let runnable: Vec<(KernelCase, RunConfig)> = inputs
        .iter()
        .flatten()
        .map(|(case, rc, _, _)| (case.clone(), rc.clone()))
        .collect();
    match caught(|| dyser_core::run_kernel_batch(&runnable, 1)) {
        Ok(results) => {
            let mut results = results.into_iter();
            inputs
                .into_iter()
                .map(|input| {
                    let (_, _, fu_sites, kernel) = input?;
                    let result = results
                        .next()
                        .expect("one batch result per runnable job")
                        .map_err(|e| JobError::from_harness(&e))?;
                    Ok(dse_point_result(kernel, &point_sim(&result, fu_sites)))
                })
                .collect()
        }
        Err(_) => jobs.iter().map(|j| execute_job(j, max_cycles_cap)).collect(),
    }
}

// -------------------------------------------------------------- server

/// The bounded hand-off between the acceptor and the worker shards.
struct AdmissionQueue {
    slots: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl AdmissionQueue {
    fn new(depth: usize) -> AdmissionQueue {
        AdmissionQueue {
            slots: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues a connection, or hands it back if the queue is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() >= self.depth {
            return Err(stream);
        }
        slots.push_back(stream);
        drop(slots);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection is available.
    fn pop(&self) -> TcpStream {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = slots.pop_front() {
                return stream;
            }
            slots = self.ready.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes up to `max` already-queued connections without blocking —
    /// the worker-side drain that lets one shard pack compatible queued
    /// jobs into a lockstep batch.
    fn try_drain(&self, max: usize) -> Vec<TcpStream> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let take = slots.len().min(max);
        slots.drain(..take).collect()
    }
}

/// What a running server's shards share.
struct Shared<'a> {
    config: &'a ServeConfig,
    queue: AdmissionQueue,
    /// Jobs completed (successes and typed failures alike); reported by
    /// `GET /health`.
    jobs_done: AtomicU64,
    /// Kernel results reused across experiment jobs.
    memo: Arc<ResultMemo>,
}

impl Shared<'_> {
    /// The daemon's health document.
    fn health_json(&self) -> String {
        format!(
            "{{\"ok\": true, \"shards\": {}, \"queue_depth\": {}, \"max_cycles_cap\": {}, \
             \"jobs_done\": {}}}\n",
            self.config.shards,
            self.config.queue_depth,
            self.config.max_cycles_cap,
            self.jobs_done.load(Ordering::Relaxed)
        )
    }

    /// Writes one finished job's outcome envelope, counting the job.
    fn finish(&self, stream: &mut TcpStream, outcome: &Result<JobResult, JobError>) {
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
        respond(stream, outcome);
    }
}

/// Writes the outcome envelope; a failed write is ignored (the peer is
/// gone and the shard moves on).
fn respond(stream: &mut TcpStream, outcome: &Result<JobResult, JobError>) {
    let status = outcome.as_ref().map_or_else(JobError::http_status, |_| 200);
    let _ = write_http_response(stream, status, &envelope_json(outcome));
}

/// Extra queued connections one worker inspects for batchable
/// companions after it picks up a `DsePoint` job — with the job it
/// already holds, a full drain fills one [`dyser_core::run_kernel_batch`]
/// chunk.
const BATCH_DRAIN: usize = 15;

/// Services one accepted connection end to end. With `drain` set, a
/// worker that picks up a `DsePoint` job first drains compatible queued
/// jobs and steps the whole slice in lockstep; drained connections that
/// turn out to be anything else are serviced individually (`drain`
/// unset, so a drained batchable job never re-drains).
fn handle_connection(mut stream: TcpStream, shared: &Shared, drain: bool) {
    let request = match read_http_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            respond(&mut stream, &Err(e));
            return;
        }
    };
    handle_request(stream, &request, shared, drain);
}

/// Dispatches one parsed HTTP request.
fn handle_request(mut stream: TcpStream, request: &HttpRequest, shared: &Shared, drain: bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let _ = write_http_response(&mut stream, 200, &shared.health_json());
        }
        ("POST", "/job") => match JobRequest::parse(&request.body) {
            Ok(job @ JobRequest::DsePoint { .. }) if drain => batch_dse(stream, job, shared),
            outcome => {
                let cap = shared.config.max_cycles_cap;
                let outcome = outcome.and_then(|job| execute(&job, cap, &shared.memo));
                shared.finish(&mut stream, &outcome);
            }
        },
        (_, "/job") => {
            respond(&mut stream, &Err(JobError::Protocol("use POST for /job".into())));
        }
        (_, path) => {
            respond(&mut stream, &Err(JobError::Protocol(format!("no such endpoint `{path}`"))));
        }
    }
}

/// Drains compatible queued jobs behind `job` and executes the slice as
/// one lockstep batch, replying to every member.
fn batch_dse(stream: TcpStream, job: JobRequest, shared: &Shared) {
    let mut members: Vec<(TcpStream, JobRequest)> = vec![(stream, job)];
    for mut extra in shared.queue.try_drain(BATCH_DRAIN) {
        match read_http_request(&mut extra) {
            Ok(req) if req.method == "POST" && req.path == "/job" => {
                match JobRequest::parse(&req.body) {
                    Ok(j @ JobRequest::DsePoint { .. }) => members.push((extra, j)),
                    _ => handle_request(extra, &req, shared, false),
                }
            }
            Ok(req) => handle_request(extra, &req, shared, false),
            Err(e) => respond(&mut extra, &Err(e)),
        }
    }
    let jobs: Vec<JobRequest> = members.iter().map(|(_, j)| j.clone()).collect();
    let outcomes = execute_dse_batch(&jobs, shared.config.max_cycles_cap);
    for ((mut member, _), outcome) in members.into_iter().zip(outcomes) {
        shared.finish(&mut member, &outcome);
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Binds the listen socket (use port 0 in `config.addr` to let the
    /// OS pick — [`Server::url`] reports the resolved address).
    ///
    /// # Errors
    ///
    /// [`JobError::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, JobError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| JobError::Io(format!("bind {}: {e}", config.addr)))?;
        Ok(Server { listener, config })
    }

    /// The resolved listen address.
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen for a
    /// successfully bound listener).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has a local address")
    }

    /// The service URL clients pass to `submit` / `repro --serve`.
    #[must_use]
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr())
    }

    /// The daemon's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Runs the accept loop and worker shards forever (until the
    /// process exits).
    pub fn run(self) {
        let config = &self.config;
        let shared = Shared {
            config,
            queue: AdmissionQueue::new(config.queue_depth),
            jobs_done: AtomicU64::new(0),
            memo: Arc::default(),
        };
        thread::scope(|s| {
            for _ in 0..config.shards.max(1) {
                s.spawn(|| loop {
                    handle_connection(shared.queue.pop(), &shared, true);
                });
            }
            for conn in self.listener.incoming() {
                let Ok(stream) = conn else { continue };
                if let Err(mut rejected) = shared.queue.push(stream) {
                    let err = JobError::Overloaded(format!(
                        "admission queue of depth {} is full",
                        config.queue_depth
                    ));
                    let _ = write_http_response(
                        &mut rejected,
                        err.http_status(),
                        &envelope_json(&Err(err)),
                    );
                }
            }
        });
    }

    /// Starts the daemon on a detached thread and returns its URL —
    /// the in-process form the integration tests (and embedders) use.
    #[must_use]
    pub fn spawn(self) -> String {
        let url = self.url();
        thread::Builder::new()
            .name("dyser-serve".into())
            .spawn(move || self.run())
            .expect("spawn server thread");
        url
    }
}
