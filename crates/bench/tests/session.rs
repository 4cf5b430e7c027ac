//! Sessions own their runs: every run of an experiment uses the
//! session's backend, and a traced session traces every run and
//! replays nothing from a memo.

use dyser_bench::experiments::e2_micro_speedup;
use dyser_bench::{Scale, Session, EXPERIMENT_IDS};
use dyser_core::Backend;

const TINY: Scale = Scale(0.08);

#[test]
fn every_run_uses_its_session_backend() {
    // The interpreted engine never looks up the block cache, and every
    // compiled run dispatches at least one block.
    for backend in [Backend::Interpreted, Backend::Compiled] {
        for id in EXPERIMENT_IDS.into_iter().chain(["stats"]) {
            let s = Session::new(backend);
            s.run(id, TINY);
            let tally = s.into_tally();
            assert_eq!(tally.runs.is_empty(), id == "e1", "{id} on {backend:?}");
            for run in &tally.runs {
                let lookups = run.speed.blocks.hits + run.speed.blocks.misses;
                assert_eq!(
                    lookups > 0,
                    backend == Backend::Compiled,
                    "{id}: a run on a {backend:?} session made {lookups} block lookups"
                );
            }
        }
    }
}

#[test]
fn traced_sessions_trace_every_run_and_use_no_memo() {
    let s = Session::traced(Backend::Interpreted, 1024);
    let cold = e2_micro_speedup(&s, TINY);
    let warm = e2_micro_speedup(&s, TINY);
    assert_eq!(cold.to_csv(), warm.to_csv());
    let tally = s.into_tally();
    assert_eq!((tally.memo_hits, tally.memo_misses), (0, 0));
    assert!(tally.runs.iter().all(|r| r.trace.is_some()));
    assert_eq!(tally.runs.len(), 2 * 2 * 3, "two sweeps of three kernels, two legs each");
}
