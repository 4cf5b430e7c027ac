//! `serve_mix`: an in-process `dyser_serve::Server` with 2 shards and 2
//! closed-loop clients.
//!
//! Each round sends a seeded mix: default-backend kernel jobs, kernel
//! jobs naming an explicit backend, and whole-program jobs. A client
//! opens a new connection for every request. Every reply is checked
//! against an in-process reference run of the same job.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use dyser_bench::experiments::{PROGRAM_N, SEED};
use dyser_bench::serve::{
    health, parse_envelope, submit, JobError, JobRequest, JobResult, DEFAULT_JOB_CYCLES, IO_TIMEOUT,
};
use dyser_core::{run_kernel, run_program_case, RunConfig, RunStats};
use dyser_fabric::FabricGeometry;
use dyser_serve::{execute_job, ServeConfig, Server};
use dyser_workloads::{programs, suite};

use crate::gen;
use crate::report::peak_rss_mb;
use crate::run::{run_rounds, Measured, Opts};
use crate::stats::ratio;
use crate::trace::{elapsed_ns, Tracer};

/// Worker shards of the daemon.
pub const SHARDS: usize = 2;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Pause between `/health` probes during traced rounds.
const PROBE_INTERVAL: Duration = Duration::from_millis(25);

/// The in-process reference of one job.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Baseline-leg statistics.
    pub baseline: RunStats,
    /// Accelerated-leg statistics.
    pub dyser: RunStats,
    /// Reference stdout (program jobs).
    pub stdout: String,
    /// Reference exit code (program jobs).
    pub exit_code: u64,
}

impl Reference {
    /// Whether a served reply matches the reference exactly.
    #[must_use]
    pub fn matches(&self, reply: &JobResult) -> bool {
        match reply {
            JobResult::Run {
                baseline_stats,
                dyser_stats,
                ..
            } => {
                *baseline_stats == format!("{:?}", self.baseline)
                    && *dyser_stats == format!("{:?}", self.dyser)
            }
            JobResult::Program {
                baseline_cycles,
                dyser_cycles,
                stdout,
                exit_code,
                ..
            } => {
                *baseline_cycles == self.baseline.cycles
                    && *dyser_cycles == self.dyser.cycles
                    && *stdout == self.stdout
                    && *exit_code == self.exit_code
            }
            _ => false,
        }
    }
}

/// The daemon's URL, the seed's jobs and each job's reference.
pub struct Setup {
    /// Service URL.
    pub url: String,
    /// `host:port` of the service.
    pub addr: String,
    /// Jobs of one round.
    pub jobs: Vec<JobRequest>,
    /// Reference per job.
    pub refs: Vec<Reference>,
}

/// Starts the daemon and computes every job's reference in process
/// (which also fills the compile cache the daemon shares).
///
/// # Panics
///
/// Panics if the daemon cannot bind a local port or a reference run
/// fails — both make the workload meaningless.
#[must_use]
pub fn setup(seed: u64, t: &Tracer) -> Setup {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: SHARDS,
        queue_depth: 64,
        max_cycles_cap: DEFAULT_JOB_CYCLES,
    })
    .expect("bind a local port");
    let addr = server.local_addr().to_string();
    let url = server.spawn();
    let jobs = gen::serve_mix(seed);
    let kernels = suite();
    let mut cache: Vec<(String, Reference)> = Vec::new();
    let refs = jobs
        .iter()
        .map(|job| {
            let name = match job {
                JobRequest::Kernel { name, .. } | JobRequest::Program { name, .. } => name.clone(),
                other => panic!("the generator makes no {other:?} jobs"),
            };
            if let Some((_, r)) = cache.iter().find(|(n, _)| *n == name) {
                return r.clone();
            }
            let r = reference(job, &kernels, t);
            cache.push((name, r.clone()));
            r
        })
        .collect();
    Setup {
        url,
        addr,
        jobs,
        refs,
    }
}

/// Runs `job` in process, configured as the daemon configures it.
fn reference(job: &JobRequest, kernels: &[dyser_workloads::Kernel], t: &Tracer) -> Reference {
    let mut config = RunConfig {
        max_cycles: DEFAULT_JOB_CYCLES,
        ..RunConfig::default()
    };
    match job {
        JobRequest::Kernel { name, .. } => {
            let k = gen::kernel(kernels, name);
            config.compiler = k.compiler_options(config.system.geometry);
            let case = t.span("workloads.case", || k.case(k.default_n, SEED));
            let r = run_kernel(&case, &config).expect("reference kernel run verifies");
            Reference {
                baseline: r.baseline,
                dyser: r.dyser,
                stdout: String::new(),
                exit_code: 0,
            }
        }
        JobRequest::Program { name, .. } => {
            let build = programs::by_name(name).expect("generated program names exist");
            let case = t
                .span("workloads.case", || {
                    build(FabricGeometry::new(8, 8), PROGRAM_N, SEED)
                })
                .expect("programs fit the 8x8 fabric");
            let r = run_program_case(&case, &config).expect("reference program run verifies");
            Reference {
                baseline: r.baseline,
                dyser: r.dyser,
                stdout: String::from_utf8_lossy(&case.expected_stdout).into_owned(),
                exit_code: case.expected_exit,
            }
        }
        other => panic!("the generator makes no {other:?} jobs"),
    }
}

/// One request over a fresh connection, with spans around connecting,
/// waiting for the first reply byte, and reading and parsing the rest.
fn exchange_traced(t: &Tracer, addr: &str, job: &JobRequest) -> Result<JobResult, JobError> {
    let body = job.to_json();
    let mut stream = t.span("serve.connect", || TcpStream::connect(addr))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "POST /job HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut reply = vec![0u8; 1];
    t.span("serve.ttfb", || -> std::io::Result<()> {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        stream.read_exact(&mut reply)
    })?;
    t.span("serve.read_reply", || {
        stream.read_to_end(&mut reply)?;
        let text = String::from_utf8(reply)
            .map_err(|_| JobError::Protocol("reply is not UTF-8".into()))?;
        let (_, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| JobError::Protocol("reply has no header end".into()))?;
        parse_envelope(body)
    })
}

/// One request's latency (ns) and outcome.
type Served = (u64, Result<JobResult, JobError>);

/// One round: both clients pull jobs from a shared index until the list
/// is done. Returns each job's latency and outcome, in job order.
fn round(s: &Setup, traced: Option<&Mutex<Tracer>>) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Served>>> = s.jobs.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let t = Tracer::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = s.jobs.get(i) else { break };
                    let start = Instant::now();
                    let outcome = match traced {
                        Some(_) => t.section(|| exchange_traced(&t, &s.addr, job)),
                        None => submit(&s.url, job),
                    };
                    let ns = elapsed_ns(start);
                    *slots[i].lock().expect("result slot") = Some((ns, outcome));
                }
                if let Some(sink) = traced {
                    sink.lock().expect("tracer sink").merge(t);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every job ran")
        })
        .collect()
}

/// Probes `/health` until `stop` is set, each probe in its own section.
fn probe_health(url: &str, stop: &AtomicBool, sink: &Mutex<Tracer>) {
    let t = Tracer::new();
    while !stop.load(Ordering::Relaxed) {
        if t.section(|| t.span("serve.health", || health(url)))
            .is_err()
        {
            t.count("serve.health_failures", 1);
        }
        thread::sleep(PROBE_INTERVAL);
    }
    sink.lock().expect("tracer sink").merge(t);
}

fn job_name(job: &JobRequest) -> &str {
    match job {
        JobRequest::Kernel { name, .. } | JobRequest::Program { name, .. } => name,
        _ => "job",
    }
}

/// Runs the workload. Traced runs alternate untraced and traced rounds
/// (the ratio of their mean request times is the tracing overhead) and
/// finally replay every job of one round through `execute_job`.
#[must_use]
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured {
        backend: "interpreted+compiled".to_owned(),
        ..Measured::default()
    };
    let s = setup(opts.seed, &m.setup_trace);
    m.jobs_per_round = s.jobs.len();
    let mut digest_done = false;
    let sink = Mutex::new(Tracer::new());
    let (mut traced_ns, mut traced_n, mut plain_ns, mut plain_n) = (0u64, 0u64, 0u64, 0u64);
    let rounds = run_rounds(
        opts,
        s.jobs.len(),
        if opts.trace { 2 } else { 1 },
        |round_index| {
            let traced = opts.trace && round_index % 2 == 1;
            let stop = AtomicBool::new(false);
            let round_start = Instant::now();
            let outcomes = thread::scope(|scope| {
                if traced {
                    scope.spawn(|| probe_health(&s.url, &stop, &sink));
                }
                let out = round(&s, traced.then_some(&sink));
                stop.store(true, Ordering::Relaxed);
                out
            });
            let secs = round_start.elapsed().as_secs_f64();
            let mut cycles = 0u64;
            let mut verified = 0usize;
            for ((job, reference), (ns, outcome)) in s.jobs.iter().zip(&s.refs).zip(outcomes) {
                m.attempted += 1;
                let reply = match outcome {
                    Ok(r) if reference.matches(&r) => r,
                    Ok(_) => {
                        m.fail(format!(
                            "{}: served result differs from the in-process run",
                            job_name(job)
                        ));
                        continue;
                    }
                    Err(e) => {
                        m.fail(format!("{}: {e}", job_name(job)));
                        continue;
                    }
                };
                if traced {
                    traced_ns += ns;
                    traced_n += 1;
                } else {
                    plain_ns += ns;
                    plain_n += 1;
                    if !opts.trace {
                        m.latencies_ms.push(ns as f64 / 1e6);
                    }
                }
                let (b, d) = match reply {
                    JobResult::Run {
                        baseline_cycles,
                        dyser_cycles,
                        ..
                    }
                    | JobResult::Program {
                        baseline_cycles,
                        dyser_cycles,
                        ..
                    } => (baseline_cycles, dyser_cycles),
                    _ => (0, 0),
                };
                if !digest_done {
                    m.digest.stats(&reference.baseline);
                    m.digest.stats(&reference.dyser);
                    m.counts.add(&reference.baseline);
                    m.counts.add(&reference.dyser);
                    m.speedups.push(b as f64 / d.max(1) as f64);
                }
                cycles += b + d;
                verified += 1;
            }
            digest_done = true;
            m.round_jobs_per_s.push(verified as f64 / secs);
            m.round_mcycles_per_s.push(cycles as f64 / secs / 1e6);
        },
    );
    m.record_rounds(rounds);
    m.trace = sink.into_inner().expect("tracer sink");
    if opts.trace {
        for (job, reference) in s.jobs.iter().zip(&s.refs) {
            let t = &m.trace;
            let outcome =
                t.section(|| t.span("serve.execute_job", || execute_job(job, DEFAULT_JOB_CYCLES)));
            match outcome {
                Ok(r) if reference.matches(&r) => {}
                Ok(_) => m.fail(format!(
                    "{}: execute_job differs from the in-process run",
                    job_name(job)
                )),
                Err(e) => m.fail(format!("{}: execute_job: {e}", job_name(job))),
            }
        }
        m.traced_jobs = traced_n;
        m.overhead_ratio = ratio(
            ratio(traced_ns as f64, traced_n as f64),
            ratio(plain_ns as f64, plain_n as f64),
        );
        if m.trace.get("serve.health_failures") > 0 {
            m.error("a /health probe failed under load".to_owned());
        }
    }
    m.rss_mb = peak_rss_mb();
    m
}
