//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics. The
//! line before it carries provenance and the simulated-behaviour digest.

use std::process::ExitCode;

use dyser_perfbench::gen::{DEFAULT_SEED, HELD_OUT_SEED};
use dyser_perfbench::report::{git_revision, object, result_line, string};
use dyser_perfbench::run::{end_to_end, per_layer, Measured, Opts};
use dyser_perfbench::trace::Tracer;
use dyser_perfbench::workloads::{compile_sweep, dse_sweep, serve_mix, sim_long, NAMES};

const USAGE: &str = "usage: perfbench --workload <compile_sweep|sim_long|dse_sweep|serve_mix> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// What the command line asks for.
enum Mode {
    /// A measured run.
    Run,
    /// Only the workload's set-up, timed by the parent run.
    SetupProbe,
    /// One design-space sweep in a fresh process.
    DseChild(usize),
}

struct Args {
    mode: Mode,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut mode = Mode::Run;
    let mut workload = None;
    let mut opts = Opts {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-probe" => mode = Mode::SetupProbe,
            "--dse-child" => {
                mode = Mode::DseChild(value()?.parse().map_err(|e| format!("--dse-child: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = match (&mode, workload) {
        (Mode::DseChild(_), _) => "dse_sweep",
        (_, Some(w)) => NAMES
            .iter()
            .find(|name| **name == w.as_str())
            .ok_or_else(|| format!("unknown workload {w:?}"))?,
        (_, None) => return Err("--workload is required".to_owned()),
    };
    Ok(Args { mode, opts })
}

fn measure(opts: &Opts) -> Measured {
    match opts.workload {
        "compile_sweep" => compile_sweep::run(opts),
        "sim_long" => sim_long::run(opts),
        "dse_sweep" => dse_sweep::run(opts),
        _ => serve_mix::run(opts),
    }
}

fn setup_only(workload: &str, seed: u64) {
    let t = Tracer::new();
    match workload {
        "compile_sweep" => drop(compile_sweep::setup(seed, &t)),
        "sim_long" => drop(sim_long::setup(seed, &t)),
        "dse_sweep" => drop(dse_sweep::setup(seed, 0, &t)),
        _ => drop(serve_mix::setup(seed, &t)),
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let workload = opts.workload;
    let m = measure(opts);
    for e in &m.errors {
        eprintln!("perfbench: {workload}: {e}");
    }
    let metrics = if opts.trace {
        per_layer(&m)
    } else {
        end_to_end(&m)?
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let errors: Vec<String> = m.errors.iter().map(|e| string(e)).collect();
    let info = object(&[
        ("workload", string(workload)),
        ("backend", string(&m.backend)),
        ("seed", opts.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("trace", opts.trace.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("git_revision", string(&git_revision())),
        ("rounds", m.rounds.to_string()),
        ("jobs_per_round", m.jobs_per_round.to_string()),
        ("latency_samples", m.latencies_ms.len().to_string()),
        (
            "round_jobs_per_s",
            format!(
                "[{}]",
                m.round_jobs_per_s
                    .iter()
                    .map(|v| format!("{v:.1}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("setup_probes", m.setup_s.len().to_string()),
        (
            "failed_ratio",
            (m.failed as f64 / m.attempted.max(1) as f64).to_string(),
        ),
        ("digest", string(&format!("{:016x}", m.digest.value()))),
        ("errors", format!("[{}]", errors.join(", "))),
    ]);
    println!("perfbench-info {info}");
    println!(
        "{}",
        result_line(m.correct(), m.attempted, m.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::SetupProbe => {
            setup_only(args.opts.workload, args.opts.seed);
            ExitCode::SUCCESS
        }
        Mode::DseChild(index) => {
            if dse_sweep::child(args.opts.seed, index, args.opts.trace) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::Run => match run(&args.opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
