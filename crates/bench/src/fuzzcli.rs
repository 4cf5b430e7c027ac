//! The `repro fuzz` subcommand: drives a [`dyser_fuzz`] campaign from
//! the command line, prints findings (shrunken, with ready-to-paste
//! repros), and in `--time` mode reports fuzz throughput alongside the
//! kernel-throughput numbers in `BENCH_repro.json`.

use std::time::Instant;

use dyser_fuzz::corpus::{recipe_json, rust_repro};
use dyser_fuzz::sysprog::{run_sys_campaign, sys_recipe_json};
use dyser_fuzz::{run_campaign, CampaignConfig, CampaignReport};
use dyser_sparc::CycleAccount;

use crate::timing::Timing;

/// Directory (under the working directory) where shrunken failure
/// entries are written, ready to be moved into `crates/fuzz/corpus/`.
pub const FAILURE_DIR: &str = "fuzz-failures";

/// Runs a campaign and prints the human report. Returns the process exit
/// code: zero only for a clean campaign. `batch` routes the oracle's
/// simulation legs through the lockstep batch scheduler (the default);
/// `repro fuzz --no-batch` recovers the one-case-at-a-time path.
#[must_use]
pub fn run_fuzz_cli(cases: u64, seed: u64, shrink: bool, batch: bool) -> i32 {
    let t0 = Instant::now();
    let report =
        run_campaign(&CampaignConfig { cases, seed, shrink, batch, ..CampaignConfig::default() });
    let secs = t0.elapsed().as_secs_f64();
    print_report(&report, seed, secs);

    // The syscall leg: trap-sequence programs checked for identical
    // stdout/stderr bytes, exit codes, and cycle buckets on every
    // engine. Scaled down — each case already runs six engine legs.
    let sys_cases = (cases / 4).max(25);
    let t1 = Instant::now();
    let sys_report = run_sys_campaign(sys_cases, seed);
    println!(
        "fuzz-sys: {} trap programs, seed {seed:#x}: {} ok, {} failures \
         ({:.1} Mcycles in {:.2} s)",
        sys_report.cases,
        sys_report.cases - sys_report.failures.len() as u64,
        sys_report.failures.len(),
        sys_report.sim_cycles as f64 / 1e6,
        t1.elapsed().as_secs_f64()
    );
    for f in &sys_report.failures {
        println!();
        println!("FAIL sys case {} ({}): {}", f.index, f.failure.kind, f.failure);
        let name = format!("sys-case-{}-{}.json", f.index, f.failure.kind);
        let json = sys_recipe_json(&f.shrunk, Some(f.failure.kind));
        if std::fs::create_dir_all(FAILURE_DIR)
            .and_then(|()| std::fs::write(format!("{FAILURE_DIR}/{name}"), &json))
            .is_ok()
        {
            println!("  shrunk corpus entry written to {FAILURE_DIR}/{name}");
        } else {
            println!("  shrunk recipe JSON:\n{json}");
        }
    }

    if report.clean() && sys_report.clean() {
        return 0;
    }
    if report.clean() {
        return 1;
    }
    for f in &report.failures {
        println!();
        println!(
            "FAIL case {} ({}): {}",
            f.index,
            f.failure.kind(),
            f.failure
        );
        println!("  recipe: {} IR nodes, form {:?}", f.recipe.ir_nodes(), f.recipe.form);
        if let Some(small) = &f.shrunk {
            println!("  shrunk: {} IR nodes", small.ir_nodes());
            let name = format!("case-{}-{}.json", f.index, f.failure.kind());
            let json = recipe_json(small, Some(f.failure.kind()));
            if std::fs::create_dir_all(FAILURE_DIR)
                .and_then(|()| std::fs::write(format!("{FAILURE_DIR}/{name}"), &json))
                .is_ok()
            {
                println!("  corpus entry written to {FAILURE_DIR}/{name}");
            }
            println!("  ready-to-paste test:\n{}", rust_repro(small, &format!("case_{}", f.index)));
        } else {
            println!("  (not shrunk; rerun with --shrink)");
            println!("  recipe JSON:\n{}", recipe_json(&f.recipe, Some(f.failure.kind())));
        }
    }
    1
}

fn print_report(report: &CampaignReport, seed: u64, secs: f64) {
    let ok = report.cases - report.failures.len() as u64;
    println!(
        "fuzz: {} cases, seed {seed:#x}: {ok} ok ({} accelerated, {} invalid-config rejected), \
         {} failures",
        report.cases,
        report.accelerated,
        report.invalid_config,
        report.failures.len()
    );
    println!(
        "      {:.1} cases/s, {:.1} Mcycles simulated in {:.2} s",
        report.cases as f64 / secs.max(1e-9),
        report.sim_cycles as f64 / 1e6,
        secs
    );
}

/// Times a fuzz campaign for `--time` mode: one untimed warmup (fills
/// the compile cache), then `reps` measured repetitions of the same
/// campaign. Returns the [`Timing`] row plus the cases-per-second figure
/// for the JSON report.
///
/// # Panics
///
/// Panics if the campaign is not clean — throughput of a failing fuzz
/// run is not a meaningful benchmark.
#[must_use]
pub fn time_fuzz(cases: u64, seed: u64, reps: usize) -> (Timing, f64) {
    let reps = reps.max(1);
    let cfg = CampaignConfig { cases, seed, shrink: false, ..CampaignConfig::default() };
    let warmup = run_campaign(&cfg);
    assert!(
        warmup.clean(),
        "fuzz campaign has failures; fix them before timing (run `repro fuzz`)"
    );
    let mut walls = Vec::with_capacity(reps);
    let mut cycles = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = run_campaign(&cfg);
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        cycles = report.sim_cycles;
    }
    walls.sort_by(f64::total_cmp);
    let mid = walls.len() / 2;
    let median =
        if walls.len() % 2 == 0 { (walls[mid - 1] + walls[mid]) / 2.0 } else { walls[mid] };
    let throughput = if median > 0.0 { cycles as f64 / 1e6 / (median / 1e3) } else { 0.0 };
    let cases_per_sec = if median > 0.0 { cases as f64 / (median / 1e3) } else { 0.0 };
    (
        Timing {
            id: "fuzz".into(),
            wall_ms_median: median,
            wall_ms_min: walls[0],
            sim_cycles: cycles,
            buckets: CycleAccount::default(),
            mcycles_per_sec: throughput,
            config_only: false,
        },
        cases_per_sec,
    )
}
