//! Batched lockstep execution: many independent [`System`] instances
//! advanced together by one scheduler.
//!
//! The evaluation workloads — design-space sweeps, fuzz campaigns,
//! concurrent serve jobs — run thousands of *independent* simulations
//! whose per-instance dispatch cost (thread spawns, cold caches, one
//! run-loop per point) dominates short runs. [`run_batch`] amortizes
//! that cost by driving N instances in lockstep:
//!
//! * **Structure-of-arrays hot state.** The scheduler's per-instance
//!   scalars — remaining budget, skip horizon, accrued (owed) stall
//!   cycles, deferred fabric ticks — live in contiguous arrays indexed
//!   by instance. A lockstep round scans only these arrays; an instance
//!   whose horizon covers the round is advanced by pure arithmetic on
//!   its hot slots without touching its cold [`System`] state at all.
//! * **Batch-wide skip horizons.** Each round advances every live
//!   instance by the same `delta` cycles, chosen as the minimum live
//!   skip horizon but never below [`QUANTUM`] — so quiescent instances
//!   fast-forward in bulk while busy ones consume their slice through
//!   their engine. Cycles accrued against a horizon are *paid lazily*
//!   ([`MachineState::fast_forward`]) just before the instance next
//!   needs its cold state.
//! * **Shared translated-block caches.** Instances executing the same
//!   program text (equal [`BatchItem::share_code`] keys) on the compiled
//!   backend share one [`BlockCache`], so the batch translates each hot
//!   block once instead of once per instance. Block-cache counters are
//!   [`SpeedStats`](crate::system::SpeedStats) — deliberately outside
//!   [`RunStats`] — so sharing affects hit rates only, never results.
//!
//! **Bit-identity contract.** For every instance the outcome — result,
//! [`RunStats`], memory image, register file — is byte-identical to
//! running that instance alone through [`System::run`],
//! [`System::run_stepped`], or [`System::run_compiled`]. This holds
//! because every engine's bulk advance is additive (`advance(a);
//! advance(b)` ≡ `advance(a + b)`; see [`MachineState`]), so slicing an
//! instance's budget at the scheduler's round boundaries is
//! unobservable. Timeouts are exact even when a lockstep round
//! overshoots an individual budget: each instance's slice is clamped to
//! its own remaining cycles, so `SysError::Timeout` reports precisely
//! `start_cycles + max_cycles`, as the serial engines do.
//!
//! **Retirement.** An instance leaves the lockstep the moment it halts,
//! faults, or exhausts its budget; later rounds never touch it. Retired
//! compiled instances settle their deferred fabric ticks first, so the
//! fabric statistics match the serial path on every exit.

use dyser_compiled::{BlockCache, BlockCacheStats};

use crate::system::{RunStats, SysError, System};

/// Minimum cycles a lockstep round advances every live instance.
///
/// Rounds cost one scan of the hot arrays plus one engine slice per
/// busy instance; a floor keeps that overhead amortized when some
/// instance is active (horizon 0) while others are deep in counted
/// stalls. Slices compose bit-identically at any boundary, so the value
/// trades scheduling granularity against loop overhead only.
pub const QUANTUM: u64 = 1024;

/// Which engine advances an instance (mirrors the three `System::run*`
/// entry points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchEngine {
    /// The fast-forwarding interpreted path of [`System::run`].
    Interpreted,
    /// The per-cycle reference path of [`System::run_stepped`].
    Stepped,
    /// The translated-block path of [`System::run_compiled`].
    Compiled,
}

/// One instance submitted to [`run_batch`].
#[derive(Debug)]
pub struct BatchItem {
    /// The machine to advance (program loaded, arguments set).
    pub system: System,
    /// Cycle budget, as passed to the serial `run*` entry points.
    pub max_cycles: u64,
    /// Engine selection for this instance.
    pub engine: BatchEngine,
    /// Compiled-backend instances with equal keys share one translated-
    /// block cache. Callers must key on the program text *and* the L1I
    /// line size (block translation bakes `line_bytes` into its fetch
    /// plan); `None` keeps the instance on its private cache.
    pub share_code: Option<u64>,
}

impl BatchItem {
    /// A batch item with a private block cache.
    pub fn new(system: System, max_cycles: u64, engine: BatchEngine) -> Self {
        BatchItem { system, max_cycles, engine, share_code: None }
    }
}

/// One instance's outcome: the system (for memory/register inspection)
/// and the result the serial entry point would have returned.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The machine, in exactly the state the serial run would leave it.
    pub system: System,
    /// `Ok(stats)` on halt; `SysError::Timeout` / core faults otherwise.
    pub result: Result<RunStats, SysError>,
}

/// Everything [`run_batch`] produces.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-instance outcomes, in submission order.
    pub outcomes: Vec<BatchOutcome>,
    /// Combined counters of the *shared* block caches (per-instance
    /// caches keep reporting through `System::speed_stats`).
    pub shared_blocks: BlockCacheStats,
}

/// Per-instance scheduler state, hot fields split into arrays by the
/// driver (see [`run_batch`]).
struct Lane {
    /// Engine after resolving tracing (a traced compiled instance runs
    /// interpreted, exactly as `System::run_compiled` would).
    engine: BatchEngine,
    tracing: bool,
    /// Index into the shared-cache table, `usize::MAX` for private.
    group: usize,
    /// Fabric ticks already paid (compiled deferral; see
    /// [`MachineState::advance_compiled`]).
    fabric_ticks: u64,
}

/// Advances every instance to completion in lockstep rounds.
///
/// Results are bit-identical to running each instance serially through
/// its engine (see the module docs for why). Instances never share
/// architectural state — only scheduler bookkeeping and, when
/// [`BatchItem::share_code`] allows, translated program text.
pub fn run_batch(items: Vec<BatchItem>) -> BatchReport {
    let n = items.len();
    let mut systems = Vec::with_capacity(n);
    let mut lanes = Vec::with_capacity(n);
    // Hot per-instance scalars, contiguous and index-aligned: the round
    // scan reads only these until an instance needs its cold state.
    let mut remaining = Vec::with_capacity(n);
    let mut horizon = vec![0u64; n];
    let mut owed = vec![0u64; n];
    let mut results: Vec<Option<Result<RunStats, SysError>>> = Vec::with_capacity(n);

    // Resolve shared-cache groups: equal keys map to one cache.
    let mut shared: Vec<BlockCache> = Vec::new();
    let mut group_keys: Vec<u64> = Vec::new();

    for mut item in items {
        let (state, _, _, tracing) = item.system.batch_parts();
        let engine = match item.engine {
            // A traced instance needs per-event timestamps: the compiled
            // entry point falls back to the interpreted engine, and both
            // interpreted engines force the per-cycle path via `tracing`.
            BatchEngine::Compiled if tracing => BatchEngine::Interpreted,
            e => e,
        };
        let group = match (engine, item.share_code) {
            (BatchEngine::Compiled, Some(key)) => {
                match group_keys.iter().position(|&k| k == key) {
                    Some(g) => g,
                    None => {
                        group_keys.push(key);
                        shared.push(BlockCache::new());
                        shared.len() - 1
                    }
                }
            }
            _ => usize::MAX,
        };
        let fabric_ticks = state.cpu.stats().cycles;
        lanes.push(Lane { engine, tracing, group, fabric_ticks });
        remaining.push(item.max_cycles);
        results.push(None);
        systems.push(item.system);
    }

    let mut live: Vec<usize> = (0..n).collect();
    for &i in &live {
        horizon[i] = refresh_horizon(&mut systems[i], &lanes[i]);
    }
    // An instance submitted already-halted, or with a zero budget on an
    // unhalted program, retires before the first round — same check the
    // serial entry points make on entry.
    retire_initial(&mut systems, &lanes, &remaining, &mut results, &mut live);

    while !live.is_empty() {
        // The lockstep quantum: every live instance advances `delta`
        // cycles this round (clamped to its own remaining budget).
        // Taking the minimum live horizon lets fully-stalled rounds
        // fast-forward arbitrarily far; the QUANTUM floor keeps rounds
        // coarse when some instance is actively executing.
        let min_h = live.iter().map(|&i| horizon[i]).min().unwrap_or(0);
        let delta = min_h.max(QUANTUM);

        live.retain(|&i| {
            let step = delta.min(remaining[i]);
            if horizon[i] >= step {
                // Hot-array-only fast-forward: the cycles are pure
                // counted-stall drain, accrued now and paid lazily.
                owed[i] += step;
                horizon[i] -= step;
                remaining[i] -= step;
                if remaining[i] > 0 {
                    return true;
                }
                // Budget exhausted mid-stall: pay the accrual and time
                // out at exactly the serial cycle count.
                settle_owed(&mut systems[i], &lanes[i], &mut owed[i]);
                retire(&mut systems[i], &lanes[i], &mut results[i]);
                return false;
            }
            settle_owed(&mut systems[i], &lanes[i], &mut owed[i]);
            let lane = &mut lanes[i];
            let (state, own_blocks, line_bytes, tracing) = systems[i].batch_parts();
            let before = state.cpu.stats().cycles;
            let sliced = match lane.engine {
                BatchEngine::Interpreted => state.advance_fast(step, tracing),
                BatchEngine::Stepped => state.advance_stepped(step, tracing),
                BatchEngine::Compiled => {
                    let blocks =
                        if lane.group == usize::MAX { own_blocks } else { &mut shared[lane.group] };
                    state.advance_compiled(step, blocks, line_bytes, &mut lane.fabric_ticks)
                }
            };
            remaining[i] -= state.cpu.stats().cycles - before;
            match sliced {
                Err(e) => {
                    let faulted = matches!(&e, SysError::Core(_));
                    if lane.engine == BatchEngine::Compiled {
                        state.settle_fabric(lane.fabric_ticks, faulted);
                    }
                    results[i] = Some(Err(e));
                    false
                }
                Ok(()) if state.cpu.halted() || remaining[i] == 0 => {
                    // A pending trap with an exhausted budget is *not*
                    // serviced — same timeout decision the serial
                    // drivers make, at the identical cycle.
                    retire(&mut systems[i], &lanes[i], &mut results[i]);
                    false
                }
                Ok(()) => {
                    // Every engine's slice stops at a trap on the exact
                    // retire cycle; service it at the round boundary
                    // (zero cycles) so the lane resumes into the same
                    // machine the serial driver would. The syscall stall
                    // then shows up in the refreshed horizon.
                    if state.cpu.pending_syscall().is_some() {
                        match state.service_syscall() {
                            Err(e) => {
                                if lane.engine == BatchEngine::Compiled {
                                    state.settle_fabric(lane.fabric_ticks, false);
                                }
                                results[i] = Some(Err(e));
                                return false;
                            }
                            Ok(_) => {
                                if state.cpu.halted() {
                                    retire(&mut systems[i], &lanes[i], &mut results[i]);
                                    return false;
                                }
                            }
                        }
                    }
                    horizon[i] = refresh_horizon(&mut systems[i], &lanes[i]);
                    true
                }
            }
        });
    }

    let mut shared_blocks = BlockCacheStats::default();
    for cache in &shared {
        shared_blocks.merge(&cache.stats());
    }
    let outcomes = systems
        .into_iter()
        .zip(results)
        .map(|(system, result)| BatchOutcome {
            system,
            result: result.expect("every lane retires with a result"),
        })
        .collect();
    BatchReport { outcomes, shared_blocks }
}

/// The instance's current skip horizon under its engine's rules: the
/// interpreted fast path skips whenever the core is draining a counted
/// stall; the compiled path additionally requires pending micro-state
/// (mirroring its driver loop); tracing and the stepped engine never
/// skip.
fn refresh_horizon(system: &mut System, lane: &Lane) -> u64 {
    let (state, _, _, _) = system.batch_parts();
    match lane.engine {
        _ if lane.tracing => 0,
        BatchEngine::Stepped => 0,
        BatchEngine::Interpreted => state.cpu.skip_horizon(),
        BatchEngine::Compiled => {
            if state.cpu.has_pending() {
                state.cpu.skip_horizon()
            } else {
                0
            }
        }
    }
}

/// Pays the accrued stall-drain cycles: core always; fabric immediately
/// on the interpreted path (its skip advances both together), deferred
/// on the compiled path (owed fabric ticks are tracked by
/// `lane.fabric_ticks` and settled at retirement or the next
/// coprocessor poll).
fn settle_owed(system: &mut System, lane: &Lane, owed: &mut u64) {
    if *owed == 0 {
        return;
    }
    let (state, _, _, _) = system.batch_parts();
    state.fast_forward(*owed, lane.engine != BatchEngine::Compiled);
    *owed = 0;
}

/// Finishes an instance exactly as its serial entry point would: settle
/// deferred fabric ticks (compiled), then report halt stats or a
/// `Timeout` carrying the precise cycle count.
fn retire(system: &mut System, lane: &Lane, result: &mut Option<Result<RunStats, SysError>>) {
    let (state, _, _, _) = system.batch_parts();
    if lane.engine == BatchEngine::Compiled {
        state.settle_fabric(lane.fabric_ticks, false);
    }
    *result = Some(if state.cpu.halted() {
        Ok(state.run_stats())
    } else {
        Err(SysError::Timeout { cycles: state.cpu.stats().cycles })
    });
}

/// Retires instances that are already finished on entry: halted before
/// the first round, or submitted with a zero budget.
fn retire_initial(
    systems: &mut [System],
    lanes: &[Lane],
    remaining: &[u64],
    results: &mut [Option<Result<RunStats, SysError>>],
    live: &mut Vec<usize>,
) {
    live.retain(|&i| {
        let (state, _, _, _) = systems[i].batch_parts();
        if state.cpu.halted() || remaining[i] == 0 {
            retire(&mut systems[i], &lanes[i], &mut results[i]);
            false
        } else {
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use dyser_isa::{regs, AluOp, Assembler, ICond, Instr, Op2};

    fn spin_then_halt(iters: u16) -> Vec<u32> {
        let mut asm = Assembler::new();
        asm.push(Instr::mov_imm(regs::O0, iters as i16));
        asm.label("loop");
        asm.push(Instr::alu(AluOp::SubCc, regs::O0, regs::O0, Op2::Imm(1)));
        asm.branch(ICond::Ne, "loop");
        asm.push(Instr::Nop);
        asm.push(Instr::Halt);
        asm.assemble().unwrap()
    }

    fn fresh(words: &[u32]) -> System {
        let mut sys = System::new(SystemConfig::default());
        sys.load_raw(0x10000, words);
        sys
    }

    #[test]
    fn batch_matches_serial_for_every_engine() {
        let words = spin_then_halt(50);
        for engine in [BatchEngine::Interpreted, BatchEngine::Stepped, BatchEngine::Compiled] {
            let mut serial = fresh(&words);
            let expected = match engine {
                BatchEngine::Interpreted => serial.run(100_000),
                BatchEngine::Stepped => serial.run_stepped(100_000),
                BatchEngine::Compiled => serial.run_compiled(100_000),
            }
            .unwrap();
            let report =
                run_batch(vec![BatchItem::new(fresh(&words), 100_000, engine)]);
            let got = report.outcomes.into_iter().next().unwrap();
            assert_eq!(got.result.unwrap(), expected, "{engine:?} diverged");
        }
    }

    #[test]
    fn ragged_budgets_time_out_exactly() {
        let words = spin_then_halt(4000);
        let budgets = [37u64, 100, 64, 1];
        let items = budgets
            .iter()
            .map(|&b| BatchItem::new(fresh(&words), b, BatchEngine::Interpreted))
            .collect();
        let report = run_batch(items);
        for (outcome, &budget) in report.outcomes.iter().zip(&budgets) {
            match &outcome.result {
                Err(SysError::Timeout { cycles }) => {
                    assert_eq!(*cycles, budget, "timeout must charge the exact budget")
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn shared_cache_translates_once() {
        let words = spin_then_halt(50);
        let items = (0..4)
            .map(|_| BatchItem {
                system: fresh(&words),
                max_cycles: 100_000,
                engine: BatchEngine::Compiled,
                share_code: Some(1),
            })
            .collect();
        let report = run_batch(items);
        assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
        let s = report.shared_blocks;
        assert!(s.hits > 0, "later instances must reuse translations: {s:?}");
        // All four instances ran identical text: only the first pays the
        // translation misses (plus conflict/loop-entry re-dispatches).
        let solo = run_batch(vec![BatchItem {
            system: fresh(&words),
            max_cycles: 100_000,
            engine: BatchEngine::Compiled,
            share_code: Some(1),
        }]);
        assert_eq!(s.misses, solo.shared_blocks.misses, "misses must not scale with batch size");
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = run_batch(Vec::new());
        assert!(report.outcomes.is_empty());
    }

    /// Interleaves compute with `write` and `exit` traps so every engine
    /// crosses syscall service points mid-batch.
    fn trap_program() -> Vec<u32> {
        use dyser_sparc::syscall::{SYS_EXIT, SYS_WRITE};
        let mut asm = Assembler::new();
        // Spin a little so slices and traps interleave.
        asm.push(Instr::mov_imm(regs::O3, 30));
        asm.label("loop");
        asm.push(Instr::alu(AluOp::SubCc, regs::O3, regs::O3, Op2::Imm(1)));
        asm.branch(ICond::Ne, "loop");
        asm.push(Instr::Nop);
        // write(1, 0xF00, 3)
        asm.push(Instr::mov_imm(regs::O0, 1));
        asm.push(Instr::mov_imm(regs::O1, 0xF00));
        asm.push(Instr::mov_imm(regs::O2, 3));
        asm.push(Instr::Trap { code: SYS_WRITE });
        // exit(7)
        asm.push(Instr::mov_imm(regs::O0, 7));
        asm.push(Instr::Trap { code: SYS_EXIT });
        asm.push(Instr::Halt);
        asm.assemble().unwrap()
    }

    fn fresh_trap() -> System {
        let mut sys = fresh(&trap_program());
        sys.memory_mut().write_bytes(0xF00, b"ok\n");
        sys
    }

    #[test]
    fn batch_services_syscalls_identically_to_serial() {
        let mut serial = fresh_trap();
        let expected = serial.run(100_000).unwrap();
        assert_eq!(serial.kernel().stdout(), b"ok\n");
        assert_eq!(serial.kernel().exit_code(), Some(7));
        for engine in [BatchEngine::Interpreted, BatchEngine::Stepped, BatchEngine::Compiled] {
            let report = run_batch(vec![BatchItem::new(fresh_trap(), 100_000, engine)]);
            let got = report.outcomes.into_iter().next().unwrap();
            assert_eq!(got.result.unwrap(), expected, "{engine:?} diverged");
            assert_eq!(got.system.kernel().stdout(), b"ok\n", "{engine:?} stdout");
            assert_eq!(got.system.kernel().exit_code(), Some(7), "{engine:?} exit");
        }
    }

    #[test]
    fn batch_trap_timeout_matches_serial() {
        // Budgets chosen to land before, on, and after the trap cycle:
        // every one must report the exact same outcome as the serial run.
        let mut probe = fresh_trap();
        let full = probe.run(100_000).unwrap().cycles;
        for budget in 1..=full {
            let mut serial = fresh_trap();
            let expected = serial.run(budget);
            let report =
                run_batch(vec![BatchItem::new(fresh_trap(), budget, BatchEngine::Compiled)]);
            let got = report.outcomes.into_iter().next().unwrap().result;
            match (expected, got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "budget {budget}"),
                (Err(SysError::Timeout { cycles: a }), Err(SysError::Timeout { cycles: b })) => {
                    assert_eq!(a, b, "budget {budget}")
                }
                (e, g) => panic!("budget {budget}: serial {e:?} vs batch {g:?}"),
            }
        }
    }
}
