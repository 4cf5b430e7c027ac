//! Seeded input generators, one per workload.
//!
//! Each generator owns every choice its workload makes — which design
//! points, problem sizes, job mix and order — and takes the seed as its
//! only argument. The same seed always yields the same inputs. Every
//! generator is *stratified*: the set of kernels, geometries and job
//! kinds in one round is fixed, and the seed chooses the order and the
//! assignment of the remaining knobs. That keeps a round's cost and its
//! `speedup_geomean` nearly independent of the seed, so runs with
//! different seeds are comparable.

use dyser_bench::dse::{DsePlan, DsePoint, FuMix, MemPreset};
use dyser_bench::serve::{JobRequest, RunSpec, SystemSpec};
use dyser_core::{Backend, SystemConfig};
use dyser_rng::Rng64;
use dyser_workloads::{suite, Kernel};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed held out for confirming a claimed gain: do not use it while a
/// change is being written or tuned.
pub const HELD_OUT_SEED: u64 = 0x0B5E_55ED;

/// Fabric geometries (rows, cols) of the compile sweep.
pub const COMPILE_GEOMETRIES: [(usize, usize); 4] = [(4, 4), (6, 6), (8, 4), (8, 8)];

/// Unroll factors of the compile sweep.
pub const COMPILE_UNROLLS: [usize; 4] = [1, 2, 4, 8];

/// Whole programs of the long-simulation workload.
pub const PROGRAMS: [&str; 3] = ["p1", "p2", "p3"];

/// Kernel jobs per suite kernel in one serve round.
pub const SERVE_KERNEL_REPEATS: usize = 6;

/// Kernel jobs per serve round that name an explicit backend.
pub const SERVE_EXPLICIT_BACKEND: usize = 18;

/// Program jobs per whole program in one serve round.
pub const SERVE_PROGRAM_REPEATS: usize = 3;

/// Problem size of a compile-sweep point: small, so compilation is
/// nearly all of the job.
#[must_use]
pub fn compile_n(k: &Kernel) -> usize {
    if k.name == "mm" {
        6
    } else {
        k.default_n / 8
    }
}

/// Problem size (kernels) or stdin words (programs) of each
/// long-simulation job, chosen so that every job costs about the same
/// host time: about 24 ms, legs one after the other, interpreted, on a
/// shared 2-vCPU 2.1 GHz Xeon host (`mm` is cubic in n). At a uniform 8x
/// `default_n` the jobs ranged from 3 to 39 ms, and the nearest-rank p90
/// fell at the lower edge of the two largest, where the host's speed
/// swings within a run moved it by a third between runs. `p1` takes its
/// stdin in one 64 KiB `read`, so it stays at 8192 words (about 12 ms):
/// beyond that it counts only the first 64 KiB and fails verification.
pub const LONG_N: [(&str, usize); 18] = [
    ("poly6", 3840),
    ("dist", 6656),
    ("hashmix", 6144),
    ("vecadd", 8192),
    ("saxpy", 7680),
    ("dot", 10240),
    ("mm", 20),
    ("stencil3", 5376),
    ("fir4", 3840),
    ("gather", 6656),
    ("relu_clamp", 5120),
    ("absmax", 9728),
    ("find_first", 27648),
    ("cond_store", 12288),
    ("scan_poly", 8192),
    ("p1", 8192),
    ("p2", 2560),
    ("p3", 5632),
];

/// The [`LONG_N`] size of the kernel or program called `name`.
///
/// # Panics
///
/// Panics if `name` has no entry; every suite kernel and every program
/// of [`PROGRAMS`] has one.
#[must_use]
pub fn long_n(name: &str) -> usize {
    LONG_N
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, size)| size)
        .expect("every long-simulation job has a size")
}

/// Problem size of a design-space sweep over kernel `k`.
#[must_use]
pub fn dse_n(k: &Kernel) -> usize {
    if k.name == "mm" {
        8
    } else {
        k.default_n / 4
    }
}

/// An independent stream per workload, so two workloads with one seed
/// do not make correlated choices.
fn stream(seed: u64, workload: u64) -> Rng64 {
    Rng64::seed_from_u64(seed ^ workload.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `compile_sweep`: every point of the grid suite kernel x geometry x
/// FU mix x unroll, in a seeded order. (A seeded subset of the grid made
/// a round's compile cost depend on the seed by tens of percent, so the
/// seed draws the order and the kernels' input data instead.)
#[must_use]
pub fn compile_sweep(seed: u64) -> Vec<DsePoint> {
    let mut rng = stream(seed, 1);
    let fifo_depth = SystemConfig::default().fifo_depth;
    let mut points = Vec::new();
    for k in suite() {
        for &(rows, cols) in &COMPILE_GEOMETRIES {
            for mix in FuMix::ALL {
                for &unroll in &COMPILE_UNROLLS {
                    points.push(DsePoint {
                        kernel: k.name.to_owned(),
                        rows,
                        cols,
                        mix,
                        fifo_depth,
                        mem: MemPreset::Default,
                        unroll,
                    });
                }
            }
        }
    }
    rng.shuffle(&mut points);
    points
}

/// One long-simulation job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimJob {
    /// A suite kernel through `run_kernel`.
    Kernel {
        /// Suite kernel name.
        name: &'static str,
        /// Problem size.
        n: usize,
    },
    /// A whole program through `run_program_case`.
    Program {
        /// Program name.
        name: &'static str,
        /// Stdin words.
        n: usize,
    },
}

/// `sim_long`: every suite kernel and every whole program once, in a
/// seeded order.
#[must_use]
pub fn sim_long(seed: u64) -> Vec<SimJob> {
    let mut rng = stream(seed, 2);
    let mut jobs: Vec<SimJob> = suite()
        .iter()
        .map(|k| SimJob::Kernel {
            name: k.name,
            n: long_n(k.name),
        })
        .collect();
    jobs.extend(PROGRAMS.iter().map(|&name| SimJob::Program {
        name,
        n: long_n(name),
    }));
    rng.shuffle(&mut jobs);
    jobs
}

/// The reduced axis grid every design-space sweep uses: 4 geometries
/// x 2 FU mixes x 2 memory presets x 2 unroll factors = 32 points.
#[must_use]
pub fn dse_plan(k: &Kernel) -> DsePlan {
    DsePlan {
        kernels: vec![k.name.to_owned()],
        dims: vec![4, 8],
        mixes: FuMix::ALL.to_vec(),
        fifos: vec![2],
        mems: vec![MemPreset::Default, MemPreset::Tiny],
        unrolls: vec![1, 4],
        n: dse_n(k),
        prune: true,
        backend: Some(Backend::Compiled),
    }
}

/// `dse_sweep`: one single-kernel sweep per suite kernel, in a seeded
/// order.
#[must_use]
pub fn dse_sweep(seed: u64) -> Vec<DsePlan> {
    let mut rng = stream(seed, 3);
    let mut plans: Vec<DsePlan> = suite().iter().map(dse_plan).collect();
    rng.shuffle(&mut plans);
    plans
}

/// `serve_mix`: six default-size kernel jobs per suite kernel (18 of
/// the 90 chosen by the seed name an explicit backend) and three jobs
/// per whole program, in a seeded order — 70 % default-backend kernel
/// jobs, 20 % explicit-backend kernel jobs and 10 % program jobs.
#[must_use]
pub fn serve_mix(seed: u64) -> Vec<JobRequest> {
    let mut rng = stream(seed, 4);
    let mut kernel_jobs: Vec<JobRequest> = suite()
        .iter()
        .flat_map(|k| {
            (0..SERVE_KERNEL_REPEATS).map(move |_| JobRequest::Kernel {
                name: k.name.to_owned(),
                n: None,
                run: RunSpec::default(),
                system: SystemSpec::default(),
            })
        })
        .collect();
    let mut order: Vec<usize> = (0..kernel_jobs.len()).collect();
    rng.shuffle(&mut order);
    for &i in &order[..SERVE_EXPLICIT_BACKEND] {
        if let JobRequest::Kernel { run, .. } = &mut kernel_jobs[i] {
            run.backend = Some(Backend::Compiled);
        }
    }
    let mut jobs = kernel_jobs;
    for name in PROGRAMS {
        for _ in 0..SERVE_PROGRAM_REPEATS {
            jobs.push(JobRequest::Program {
                name: name.to_owned(),
                n: None,
                run: RunSpec::default(),
            });
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// The suite kernel called `name`.
///
/// # Panics
///
/// Panics if no suite kernel has that name; generators only produce
/// suite names.
#[must_use]
pub fn kernel<'a>(kernels: &'a [Kernel], name: &str) -> &'a Kernel {
    kernels
        .iter()
        .find(|k| k.name == name)
        .expect("generated names come from the suite")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 3] = [DEFAULT_SEED, HELD_OUT_SEED, 7];

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in SEEDS {
            assert_eq!(compile_sweep(seed), compile_sweep(seed));
            assert_eq!(sim_long(seed), sim_long(seed));
            assert_eq!(dse_sweep(seed), dse_sweep(seed));
            assert_eq!(serve_mix(seed), serve_mix(seed));
        }
    }

    #[test]
    fn seeds_change_the_draw() {
        assert_ne!(compile_sweep(DEFAULT_SEED), compile_sweep(HELD_OUT_SEED));
        assert_ne!(sim_long(DEFAULT_SEED), sim_long(HELD_OUT_SEED));
        assert_ne!(dse_sweep(DEFAULT_SEED), dse_sweep(HELD_OUT_SEED));
        assert_ne!(serve_mix(DEFAULT_SEED), serve_mix(HELD_OUT_SEED));
    }

    #[test]
    fn rounds_are_stratified() {
        let kernels = suite().len();
        for seed in SEEDS {
            let mut points = compile_sweep(seed);
            let mut grid = compile_sweep(DEFAULT_SEED);
            assert_eq!(
                points.len(),
                kernels * COMPILE_GEOMETRIES.len() * 2 * COMPILE_UNROLLS.len()
            );
            let key = |p: &DsePoint| format!("{p}");
            points.sort_by_key(key);
            grid.sort_by_key(key);
            assert_eq!(points, grid, "every seed covers the same grid");
            assert_eq!(sim_long(seed).len(), kernels + PROGRAMS.len());
            assert_eq!(dse_sweep(seed).len(), kernels);
            let jobs = serve_mix(seed);
            let explicit = jobs
                .iter()
                .filter(|j| matches!(j, JobRequest::Kernel { run, .. } if run.backend.is_some()))
                .count();
            let programs = jobs
                .iter()
                .filter(|j| matches!(j, JobRequest::Program { .. }))
                .count();
            assert_eq!(explicit, SERVE_EXPLICIT_BACKEND);
            assert_eq!(programs, PROGRAMS.len() * SERVE_PROGRAM_REPEATS);
            assert_eq!(jobs.len(), kernels * SERVE_KERNEL_REPEATS + programs);
        }
    }
}
