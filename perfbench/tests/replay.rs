//! The traced replays must reproduce the public entry points bit for
//! bit, on every suite kernel; otherwise the per-layer split would
//! describe a different code path from the one users run.

use dyser_bench::dse::FuMix;
use dyser_compiler::compile;
use dyser_core::{run_kernel, run_kernel_batch, run_program_case, Backend, KernelJob, RunConfig};
use dyser_fabric::FabricGeometry;
use dyser_perfbench::gen;
use dyser_perfbench::replay::{self, same_program, same_result, CacheProbe};
use dyser_perfbench::trace::Tracer;
use dyser_workloads::{programs, suite};

#[test]
fn compile_replay_matches_compile_on_every_kernel_and_point() {
    let kernels = suite();
    let t = Tracer::new();
    let mut points = 0;
    for point in gen::compile_sweep(gen::DEFAULT_SEED) {
        let k = gen::kernel(&kernels, &point.kernel);
        let config = point.run_config(k, None).expect("valid point");
        let f = k.function();
        let public = compile(&f, &config.compiler).expect("compiles");
        let traced = replay::compile(&t, &f, &config.compiler).expect("replay compiles");
        assert!(
            same_program(&public, &traced),
            "{point}: replay differs from compile()"
        );
        points += 1;
    }
    assert_eq!(points, gen::compile_sweep(gen::DEFAULT_SEED).len());
    // Both the fallback path and the universal mix were exercised.
    assert!(t.get("compiler.unroll_retries") > 0);
    assert!(t.get("compiler.schedule_region_calls") > t.get("compiler.schedule_region_fails"));
    assert!(gen::compile_sweep(gen::DEFAULT_SEED)
        .iter()
        .any(|p| p.mix == FuMix::Universal));
}

#[test]
fn run_kernel_replay_matches_run_kernel_on_every_kernel() {
    let t = Tracer::new();
    let mut cache = CacheProbe::default();
    for k in suite() {
        let case = k.case(gen::compile_n(&k), 3);
        for backend in [Backend::Interpreted, Backend::Compiled] {
            let mut config = RunConfig::default();
            config.compiler = k.compiler_options(config.system.geometry);
            config.backend = backend;
            let public = run_kernel(&case, &config).expect("kernel verifies");
            let traced =
                replay::run_kernel(&t, &mut cache, &case, &config).expect("replay verifies");
            assert!(
                same_result(&public, &traced),
                "{} on {backend:?}: replay differs",
                k.name
            );
        }
    }
    // The second backend's lookups hit the programs the first compiled.
    assert_eq!(
        t.get("harness.compile_cached_hits") * 2,
        t.get("harness.compile_cached_calls")
    );
}

#[test]
fn program_replay_matches_run_program_case() {
    let t = Tracer::new();
    for name in gen::PROGRAMS {
        let build = programs::by_name(name).expect("program exists");
        let case = build(FabricGeometry::new(8, 8), 64, 5).expect("fits 8x8");
        let config = RunConfig::default();
        let public = run_program_case(&case, &config).expect("program verifies");
        let traced = replay::run_program_case(&t, &case, &config).expect("replay verifies");
        assert!(same_result(&public, &traced), "{name}: replay differs");
    }
}

#[test]
fn batch_replay_matches_run_kernel_batch() {
    let kernels = suite();
    let plan = gen::dse_plan(gen::kernel(&kernels, "saxpy"));
    let k = gen::kernel(&kernels, "saxpy");
    let case = k.case(plan.n, 9);
    let jobs: Vec<KernelJob> = plan
        .points()
        .iter()
        .take(20)
        .map(|p| {
            (
                case.clone(),
                p.run_config(k, plan.backend).expect("valid point"),
            )
        })
        .collect();
    let public = run_kernel_batch(&jobs, 2);
    let t = Tracer::new();
    let traced = replay::run_kernel_batch(&t, &mut CacheProbe::default(), &jobs);
    assert_eq!(public.len(), traced.len());
    for (a, b) in public.iter().zip(&traced) {
        let (a, b) = (
            a.as_ref().expect("verifies"),
            b.as_ref().expect("replay verifies"),
        );
        assert!(same_result(a, b), "{}: batch replay differs", a.name);
    }
    assert_eq!(t.get("batch.instances"), 2 * jobs.len() as u64);
}
