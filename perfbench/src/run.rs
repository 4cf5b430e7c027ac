//! What every workload shares: options, the round loop, set-up probes
//! and the assembly of the reported metrics.

use std::process::{Command, Stdio};
use std::time::Instant;

use dyser_sparc::CycleBucket;

use crate::report::{Digest, Metric, SimCounts};
use crate::stats::{geomean, median, percentile, ratio, supports};
use crate::trace::Tracer;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Workload name, one of `workloads::NAMES`.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// Jobs an untraced run must complete, so p90 has ten samples beyond it.
pub const MIN_JOBS: usize = 100;

/// The measured phase stops starting new rounds after this long, so a
/// slow host still ends well inside the 180-second limit.
pub const MAX_MEASURE_S: f64 = 120.0;

/// Fresh-process set-ups timed per untraced run; `setup_s` is their
/// median.
pub const SETUP_PROBES: usize = 15;

/// Everything a workload's run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Backend(s) the jobs ran on.
    pub backend: String,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, mismatched or were refused.
    pub failed: u64,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
    /// Per-job latencies of the untraced rounds, in ms.
    pub latencies_ms: Vec<f64>,
    /// Verified jobs per second, one value per round.
    pub round_jobs_per_s: Vec<f64>,
    /// Simulated Mcycles (both legs) per host second, one per round.
    pub round_mcycles_per_s: Vec<f64>,
    /// Baseline/DySER cycle ratio of every job of one round.
    pub speedups: Vec<f64>,
    /// Digest of one round's simulated behaviour.
    pub digest: Digest,
    /// Simulated-work counts of one round.
    pub counts: SimCounts,
    /// Rounds run.
    pub rounds: usize,
    /// Jobs per round.
    pub jobs_per_round: usize,
    /// Peak resident set, in MiB.
    pub rss_mb: f64,
    /// Fresh-process set-up times, in seconds.
    pub setup_s: Vec<f64>,
    /// Spans around set-up calls (traced runs).
    pub setup_trace: Tracer,
    /// Spans of the traced sections (traced runs).
    pub trace: Tracer,
    /// Traced over untraced wall time of the same work.
    pub overhead_ratio: f64,
    /// Jobs replayed under tracing.
    pub traced_jobs: u64,
}

impl Measured {
    /// Records a failed job.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.error(what);
    }

    /// Records a failed check (kept to the first few for the report).
    pub fn error(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records what [`run_rounds`] ran.
    pub fn record_rounds(&mut self, rounds: Rounds) {
        self.rounds = rounds.count;
        match rounds.setup_s {
            Ok(times) => self.setup_s = times,
            Err(e) => self.error(e),
        }
    }

    /// Whether every job verified and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// What [`run_rounds`] ran.
#[derive(Debug)]
pub struct Rounds {
    /// Rounds run.
    pub count: usize,
    /// Set-up probe times in seconds (none on traced runs), or why a
    /// probe failed.
    pub setup_s: Result<Vec<f64>, String>,
}

/// Runs whole rounds (`round(index)`) until `opts.seconds` have passed,
/// at least `min_rounds` ran and, untraced, at least [`MIN_JOBS`] jobs
/// completed.
///
/// An untraced run also times [`SETUP_PROBES`] set-up probes between
/// rounds, one due every `opts.seconds / SETUP_PROBES`, so `setup_s`
/// samples the host over the same window as the throughput metrics
/// instead of over one instant.
pub fn run_rounds(
    opts: &Opts,
    jobs_per_round: usize,
    min_rounds: usize,
    mut round: impl FnMut(usize),
) -> Rounds {
    let probes = if opts.trace { 0 } else { SETUP_PROBES };
    let mut setup_s = Ok(Vec::with_capacity(probes));
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        round(rounds);
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let enough_jobs = opts.trace || rounds * jobs_per_round >= MIN_JOBS;
        let done = (elapsed >= opts.seconds && rounds >= min_rounds && enough_jobs)
            || elapsed >= MAX_MEASURE_S;
        let due = if done {
            probes
        } else {
            ((elapsed / opts.seconds * probes as f64) as usize + 1).min(probes)
        };
        while matches!(&setup_s, Ok(times) if times.len() < due) {
            match probe_setup(opts) {
                Ok(secs) => {
                    if let Ok(times) = &mut setup_s {
                        times.push(secs);
                    }
                }
                Err(e) => setup_s = Err(e),
            }
        }
        if done {
            return Rounds {
                count: rounds,
                setup_s,
            };
        }
    }
}

/// Times one fresh process that performs only the workload's set-up
/// (`--setup-probe`), from spawn to exit.
fn probe_setup(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let status = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("set-up probe: {e}"))?;
    if !status.success() {
        return Err(format!("set-up probe exited with {status}"));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The end-to-end metrics of an untraced run.
///
/// # Errors
///
/// Fails when the run has too few jobs for its reported percentiles or
/// no set-up probe finished.
pub fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    if m.setup_s.is_empty() {
        return Err("no set-up probe finished".to_owned());
    }
    let mut lat = m.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    if !supports(lat.len(), 90.0) {
        return Err(format!("{} latency samples cannot support p90", lat.len()));
    }
    Ok(vec![
        Metric::new("setup_s", "s", median(&m.setup_s)),
        Metric::new("jobs_per_s", "1/s", median(&m.round_jobs_per_s)),
        Metric::new("job_ms_p50", "ms", percentile(&lat, 50.0)),
        Metric::new("job_ms_p90", "ms", percentile(&lat, 90.0)),
        Metric::new(
            "sim_mcycles_per_s",
            "Mcycles/s",
            median(&m.round_mcycles_per_s),
        ),
        Metric::new("speedup_geomean", "x", geomean(&m.speedups)),
        Metric::new(
            "verified_ratio",
            "ratio",
            ratio((m.attempted - m.failed) as f64, m.attempted as f64),
        ),
        Metric::new("peak_rss_mb", "MiB", m.rss_mb),
    ])
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// exercise report 0.
#[must_use]
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let t = &m.trace;
    let jobs = m.traced_jobs.max(1) as f64;
    let rounds = m.rounds.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_job = |span: &str| ms(t.stat(span).self_ns) / jobs;
    let per_call = |span: &str| {
        let s = t.stat(span);
        ratio(ms(s.self_ns), s.calls as f64)
    };
    let per_round = |count: &str| t.get(count) as f64 / rounds;
    let c = &m.counts;

    let stages = [
        "compiler.middle_end",
        "compiler.select_regions",
        "compiler.schedule_region",
        "compiler.codegen",
    ];
    let stage_ns: u64 = stages.iter().map(|s| t.stat(s).self_ns).sum();
    let case = m.setup_trace.stat("workloads.case");
    let block_hits = t.get("compiled.block_hits") + t.get("compiled.shared_block_hits");
    let block_misses = t.get("compiled.block_misses") + t.get("compiled.shared_block_misses");
    let shared = t.get("compiled.shared_block_hits") + t.get("compiled.shared_block_misses");
    let ttfb = per_call("serve.ttfb");
    let execute = per_call("serve.execute_job");

    let mut out = vec![
        Metric::new(
            "compiler.middle_end_ms",
            "ms",
            per_job("compiler.middle_end"),
        ),
        Metric::new(
            "compiler.select_regions_ms",
            "ms",
            per_job("compiler.select_regions"),
        ),
        Metric::new(
            "compiler.schedule_region_ms",
            "ms",
            per_job("compiler.schedule_region"),
        ),
        Metric::new(
            "compiler.schedule_region_calls",
            "count",
            per_round("compiler.schedule_region_calls"),
        ),
        Metric::new(
            "compiler.schedule_region_fail_ratio",
            "ratio",
            ratio(
                t.get("compiler.schedule_region_fails") as f64,
                t.get("compiler.schedule_region_calls") as f64,
            ),
        ),
        Metric::new(
            "compiler.unroll_retries",
            "count",
            per_round("compiler.unroll_retries"),
        ),
        Metric::new("compiler.codegen_ms", "ms", per_job("compiler.codegen")),
        Metric::new(
            "compiler.stage_coverage",
            "ratio",
            ratio(stage_ns as f64, t.get("compiler.wall_ns") as f64),
        ),
        Metric::new(
            "workloads.case_ms",
            "ms",
            ratio(ms(case.self_ns), case.calls as f64),
        ),
        Metric::new(
            "harness.compile_cached_ms",
            "ms",
            per_call("harness.compile_cached"),
        ),
        Metric::new(
            "harness.compile_cached_hit_ratio",
            "ratio",
            ratio(
                t.get("harness.compile_cached_hits") as f64,
                t.get("harness.compile_cached_calls") as f64,
            ),
        ),
        Metric::new("harness.verify_ms", "ms", per_job("harness.verify")),
        Metric::new("system.build_ms", "ms", per_job("system.build")),
        Metric::new("system.run_ms", "ms", per_job("system.run")),
        Metric::new(
            "system.ns_per_cycle.interpreted",
            "ns/cycle",
            ratio(
                t.get("system.run_ns.interpreted") as f64,
                t.get("system.cycles.interpreted") as f64,
            ),
        ),
        Metric::new(
            "system.ns_per_cycle.compiled",
            "ns/cycle",
            ratio(
                t.get("system.run_ns.compiled") as f64,
                t.get("system.cycles.compiled") as f64,
            ),
        ),
        Metric::new("batch.run_batch_ms", "ms", per_job("batch.run_batch")),
        Metric::new("batch.instances", "count", per_round("batch.instances")),
        Metric::new(
            "batch.ns_per_cycle",
            "ns/cycle",
            ratio(t.get("batch.run_ns") as f64, t.get("batch.cycles") as f64),
        ),
        Metric::new(
            "compiled.block_hit_ratio",
            "ratio",
            ratio(block_hits as f64, (block_hits + block_misses) as f64),
        ),
        Metric::new(
            "compiled.block_misses",
            "count",
            block_misses as f64 / rounds,
        ),
        Metric::new(
            "compiled.shared_block_hit_ratio",
            "ratio",
            ratio(t.get("compiled.shared_block_hits") as f64, shared as f64),
        ),
        Metric::new(
            "sparc.decode_hit_ratio",
            "ratio",
            ratio(
                t.get("sparc.decode_hits") as f64,
                (t.get("sparc.decode_hits") + t.get("sparc.decode_misses")) as f64,
            ),
        ),
        Metric::new("sparc.instructions", "count", c.instructions as f64),
    ];
    for (bucket, cycles) in CycleBucket::ALL.iter().zip(c.buckets) {
        out.push(Metric::new(
            format!("sparc.cycles.{}", bucket.label()),
            "cycles",
            cycles as f64,
        ));
    }
    out.extend([
        Metric::new("fabric.fu_fires", "count", c.fu_fires as f64),
        Metric::new("fabric.switch_hops", "count", c.switch_hops as f64),
        Metric::new("fabric.port_transfers", "count", c.port_transfers as f64),
        Metric::new("fabric.config_bits", "bits", c.config_bits as f64),
        Metric::new(
            "mem.l1d_miss_ratio",
            "ratio",
            ratio(c.l1d_misses as f64, c.l1d_accesses as f64),
        ),
        Metric::new(
            "mem.l2_miss_ratio",
            "ratio",
            ratio(c.l2_misses as f64, c.l2_accesses as f64),
        ),
        Metric::new("mem.dram_accesses", "count", c.dram_accesses as f64),
        Metric::new("dse.estimate_ms", "ms", per_call("dse.estimate")),
        Metric::new("dse.run_dse_self_ms", "ms", per_job("dse.run_dse")),
        Metric::new(
            "dse.survivor_sim_ms",
            "ms",
            ms(t.stat("dse.survivor_sim").total_ns) / jobs,
        ),
        Metric::new(
            "dse.pruned_ratio",
            "ratio",
            ratio(t.get("dse.pruned") as f64, t.get("dse.points") as f64),
        ),
        Metric::new("serve.connect_ms", "ms", per_call("serve.connect")),
        Metric::new("serve.ttfb_ms", "ms", ttfb),
        Metric::new("serve.execute_job_ms", "ms", execute),
        Metric::new(
            "serve.queue_protocol_ms",
            "ms",
            if execute > 0.0 { ttfb - execute } else { 0.0 },
        ),
        Metric::new("serve.health_ms", "ms", per_call("serve.health")),
        Metric::new(
            "trace.coverage",
            "ratio",
            ratio(t.self_ns() as f64, t.wall_ns() as f64),
        ),
        Metric::new("trace.overhead_ratio", "ratio", m.overhead_ratio),
    ]);
    out
}
