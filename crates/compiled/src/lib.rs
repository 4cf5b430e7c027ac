//! # dyser-compiled
//!
//! The compiled-simulation backend: instead of fetching and decoding one
//! instruction per simulated cycle, straight-line spans of the program are
//! *translated once* into pre-decoded [`Block`]s and then executed as
//! specialized thunks dispatched through a PC-keyed [`BlockCache`].
//!
//! The contract is strict bit-equivalence with the interpreted path:
//! every architectural register, every [`CoreStats`] counter, every cache
//! statistic, and every fabric statistic must match the interpreter
//! cycle-for-cycle. The backend therefore never *models* anything — it
//! only removes redundant simulator work that provably cannot be
//! observed:
//!
//! * **Decode** happens once per block at translation time (via the
//!   untimed [`Bus::peek_instr`] view) instead of once per issue. Blocks
//!   snapshot the write generation of their code page and are
//!   re-translated when it moves, so self-modifying code still executes
//!   its freshly written words.
//! * **Fetch** still touches the instruction cache every issue (latency
//!   and LRU state are architectural here), but instructions that share
//!   an L1I line with their predecessor use [`Bus::fetch_repeat`], which
//!   skips the miss machinery: within a block no other agent can evict
//!   the line between the first fetch and the repeats.
//! * **Stall cycles** queued by an instruction are charged in bulk with
//!   [`Pipeline::tick_n`] rather than one tick at a time.
//!
//! Anything the thunk cannot handle without risking divergence — port
//! retries that poll the coprocessor, fences, control leaving the
//! straight line, a store that hits the block's own code page — exits
//! the block (see [`BlockExit`]) and lets the driver fall back to the
//! per-cycle path until the situation clears.
//!
//! [`CoreStats`]: dyser_sparc::CoreStats

#![warn(missing_docs)]

use dyser_isa::{decode, DyserInstr, Instr, InstrClass};
use dyser_sparc::{Bus, Coproc, CoreError, Pipeline};

/// Code-page granularity of translation validity, in bytes. Matches the
/// functional memory's page size: one [`Bus::code_page_generation`] value
/// covers every word a block may contain, so a single snapshot suffices.
pub const CODE_PAGE_BYTES: u64 = 4096;

/// Upper bound on instructions per block: long enough to cover the hot
/// loop bodies of the repro kernels, short enough that translating past
/// an always-taken branch wastes little work.
pub const MAX_BLOCK_INSTRS: usize = 64;

/// Direct-mapped block-cache slots (a power of two). Program text in the
/// repro suite is a few KiB, so collisions are rare; a collision only
/// costs a re-translation, never correctness.
const BLOCK_SLOTS: usize = 2048;

/// One pre-decoded instruction of a block, with the facts the executor
/// needs to dispatch it without re-inspecting the word.
#[derive(Debug, Clone)]
pub struct BlockInstr {
    /// The instruction's address.
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instr,
    /// Whether this issue must take the full [`Bus::fetch_instr`] path:
    /// true for the block's first instruction (the entry word may not be
    /// resident) and for the first word of each instruction-cache line.
    /// All others provably hit the line their predecessor just touched
    /// and may use [`Bus::fetch_repeat`].
    pub must_fetch: bool,
    /// Whether this instruction can write memory in-block (stores and
    /// `dstore` with an immediately available value); after it executes,
    /// the executor re-checks the block's code-page generation.
    pub is_store: bool,
    /// Whether this instruction talks to the coprocessor; the executor
    /// settles deferred fabric ticks before issuing it.
    pub is_coproc: bool,
}

/// A translated straight-line span of the program: up to
/// [`MAX_BLOCK_INSTRS`] consecutively addressed instructions within one
/// code page, pre-decoded.
#[derive(Debug, Clone)]
pub struct Block {
    /// Address of the first instruction; blocks are keyed by exact entry.
    pub entry: u64,
    /// [`Bus::code_page_generation`] of the entry's page at translation
    /// time; the block is stale once the page is written again.
    pub gen: u64,
    /// The pre-decoded instructions. Empty when the entry word itself
    /// does not decode — the driver falls back to the interpreted path,
    /// which raises the identical fault.
    pub instrs: Vec<BlockInstr>,
}

/// Decodes the straight-line span starting at `entry` into a [`Block`].
///
/// Translation reads through the untimed [`Bus::peek_instr`] view, so it
/// perturbs no cache or latency state. It stops at the first word that
/// does not decode, at a `halt`, at the code-page boundary, or at
/// [`MAX_BLOCK_INSTRS`]. `line_bytes` is the instruction-cache line size
/// used to mark which issues need a real fetch.
pub fn translate<B: Bus>(bus: &B, entry: u64, line_bytes: u64) -> Block {
    let gen = bus.code_page_generation(entry);
    let page = entry / CODE_PAGE_BYTES;
    let mut instrs = Vec::new();
    let mut pc = entry;
    while instrs.len() < MAX_BLOCK_INSTRS && pc / CODE_PAGE_BYTES == page {
        let Ok(instr) = decode(bus.peek_instr(pc)) else { break };
        instrs.push(BlockInstr {
            pc,
            instr,
            must_fetch: pc == entry || pc.is_multiple_of(line_bytes),
            is_store: matches!(
                instr,
                Instr::Store { .. } | Instr::StoreF { .. } | Instr::Dyser(DyserInstr::Store { .. })
            ),
            is_coproc: instr.class() == InstrClass::Dyser,
        });
        if matches!(instr, Instr::Halt | Instr::Trap { .. }) {
            break;
        }
        pc += 4;
    }
    Block { entry, gen, instrs }
}

/// Why [`run_block`] stopped executing its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Every instruction of the block retired and control fell through
    /// its end; dispatch again at the core's current PC.
    Completed,
    /// Control left the straight line (taken branch, call, return);
    /// dispatch again at the core's current PC.
    Jumped,
    /// The core executed `halt`.
    Halted,
    /// The core retired a `ta` trap and froze awaiting syscall service;
    /// the driver must service it before dispatching another block.
    Trapped,
    /// A non-counted micro-state (port retry, fence) reached the front
    /// of the pending queue; the caller must tick per-cycle until it
    /// drains, because each such cycle polls the coprocessor.
    Pending,
    /// The cycle budget ran out mid-block.
    Budget,
    /// A store moved the write generation of the block's own code page;
    /// the block is stale and must be re-translated.
    PageWritten,
}

/// The outcome of one [`run_block`] call: why it stopped and how many
/// cycles it consumed.
#[derive(Debug, Clone, Copy)]
pub struct BlockRun {
    /// Why the block stopped.
    pub exit: BlockExit,
    /// Cycles charged to the core during this call.
    pub cycles: u64,
}

/// Executes `block` on `cpu` until it exits, spending at most `budget`
/// cycles.
///
/// The caller must dispatch the block whose `entry` equals the core's
/// current PC, with no pending micro-state and the core not halted.
/// `fabric_ticks` is the running count of coprocessor ticks already paid
/// (see [`Coproc::cp_catch_up`]); the executor settles it to the core's
/// cycle count immediately before any coprocessor-touching instruction,
/// so the fabric observes exactly the interpreter's interleaving.
///
/// # Errors
///
/// Propagates [`CoreError`]s exactly as the interpreted path would; the
/// core is left halted on the faulting cycle.
pub fn run_block<B: Bus, C: Coproc>(
    cpu: &mut Pipeline,
    bus: &mut B,
    coproc: &mut C,
    block: &Block,
    budget: u64,
    fabric_ticks: &mut u64,
) -> Result<BlockRun, CoreError> {
    debug_assert!(
        !cpu.halted() && !cpu.has_pending() && cpu.pending_syscall().is_none(),
        "run_block needs a clean issue state"
    );
    let mut used = 0u64;
    let done = |exit, used| Ok(BlockRun { exit, cycles: used });
    for bi in &block.instrs {
        if used == budget {
            return done(BlockExit::Budget, used);
        }
        // The continuity check: delay slots, taken branches, and returns
        // all show up as the core's PC leaving the block's straight line.
        if cpu.pc() != bi.pc {
            return done(BlockExit::Jumped, used);
        }
        if bi.is_coproc {
            let owed = cpu.stats().cycles - *fabric_ticks;
            coproc.cp_catch_up(owed);
            *fabric_ticks += owed;
        }
        let fetch_lat =
            if bi.must_fetch { bus.fetch_instr(bi.pc).1 } else { bus.fetch_repeat(bi.pc) };
        cpu.step_decoded(bi.instr, fetch_lat, bus, coproc)?;
        used += 1;
        if cpu.halted() {
            return done(BlockExit::Halted, used);
        }
        if cpu.pending_syscall().is_some() {
            return done(BlockExit::Trapped, used);
        }
        if bi.is_store && bus.code_page_generation(block.entry) != block.gen {
            return done(BlockExit::PageWritten, used);
        }
        // Charge the instruction's counted stalls in bulk.
        loop {
            let horizon = cpu.skip_horizon();
            if horizon == 0 {
                break;
            }
            let n = horizon.min(budget - used);
            cpu.tick_n(n);
            used += n;
            if n < horizon {
                return done(BlockExit::Budget, used);
            }
        }
        if cpu.has_pending() {
            return done(BlockExit::Pending, used);
        }
    }
    done(BlockExit::Completed, used)
}

/// Counters describing how well block translation is amortizing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Dispatches served by an already-translated, still-valid block.
    pub hits: u64,
    /// Dispatches that had to translate (cold slot or conflict).
    pub misses: u64,
    /// Misses caused by a stale code-page generation — the price of
    /// self-modifying code, counted separately from cold misses.
    pub invalidations: u64,
}

impl BlockCacheStats {
    /// Adds another cache's counters into these.
    pub fn merge(&mut self, other: &BlockCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// A direct-mapped cache of translated [`Block`]s keyed by exact entry
/// PC, validated against the code page's write generation on every
/// lookup.
#[derive(Debug)]
pub struct BlockCache {
    slots: Vec<Option<Block>>,
    stats: BlockCacheStats,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache { slots: vec![None; BLOCK_SLOTS], stats: BlockCacheStats::default() }
    }

    /// Hit/miss/invalidation counters.
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
    }

    /// Drops every translated block (used when a new program is loaded).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.stats = BlockCacheStats::default();
    }

    /// Returns the valid block entered at `pc`, translating it if the
    /// slot is cold, holds a different entry, or went stale.
    pub fn lookup<B: Bus>(&mut self, bus: &B, pc: u64, line_bytes: u64) -> &Block {
        let slot = ((pc >> 2) as usize) & (BLOCK_SLOTS - 1);
        let gen = bus.code_page_generation(pc);
        match &self.slots[slot] {
            Some(b) if b.entry == pc && b.gen == gen => self.stats.hits += 1,
            cached => {
                if matches!(cached, Some(b) if b.entry == pc) {
                    self.stats.invalidations += 1;
                }
                self.stats.misses += 1;
                self.slots[slot] = Some(translate(bus, pc, line_bytes));
            }
        }
        self.slots[slot].as_ref().expect("slot was just filled")
    }
}

impl Default for BlockCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyser_isa::{regs, AluOp, Assembler, ICond, Op2};
    use dyser_sparc::{NullCoproc, SimpleBus};

    const ENTRY: u64 = 0x1000;

    fn program(build: impl FnOnce(&mut Assembler)) -> SimpleBus {
        let mut asm = Assembler::new();
        build(&mut asm);
        let words = asm.assemble().expect("test programs assemble");
        let mut bus = SimpleBus::new();
        bus.memory_mut().write_code(ENTRY, &words);
        bus
    }

    #[test]
    fn translate_stops_at_halt_and_marks_lines() {
        let bus = program(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 1));
            asm.push(Instr::Nop);
            asm.push(Instr::Halt);
            asm.push(Instr::Nop); // unreachable: must not be translated
        });
        let block = translate(&bus, ENTRY, 16);
        assert_eq!(block.instrs.len(), 3);
        assert!(block.instrs[0].must_fetch, "entry always fetches");
        assert!(!block.instrs[1].must_fetch, "same 16-byte line as entry");
        assert!(!block.instrs[2].must_fetch);
        let block = translate(&bus, ENTRY + 4, 16);
        assert!(block.instrs[0].must_fetch, "mid-line entries still fetch");
    }

    #[test]
    fn translate_stops_at_undecodable_word() {
        let mut bus = program(|asm| {
            asm.push(Instr::Nop);
        });
        bus.memory_mut().write_u32(ENTRY + 4, 0); // illegal word
        let block = translate(&bus, ENTRY, 32);
        assert_eq!(block.instrs.len(), 1);
        let empty = translate(&bus, ENTRY + 4, 32);
        assert!(empty.instrs.is_empty(), "entry on the illegal word yields an empty block");
    }

    #[test]
    fn translate_respects_page_boundary() {
        let mut bus = SimpleBus::new();
        let entry = CODE_PAGE_BYTES - 8; // two words below the boundary
        let words = vec![dyser_isa::encode(&Instr::Nop); 3];
        bus.memory_mut().write_code(entry, &words);
        let block = translate(&bus, entry, 32);
        assert_eq!(block.instrs.len(), 2, "block must not cross its code page");
    }

    /// Runs the same program interpreted and compiled; states must match.
    fn assert_backends_agree(build: impl Fn(&mut Assembler)) {
        let mut ibus = program(&build);
        let mut icpu = Pipeline::new(ENTRY);
        icpu.run(&mut ibus, &mut NullCoproc, 100_000).expect("interpreted run");

        let mut cbus = program(&build);
        let mut ccpu = Pipeline::new(ENTRY);
        let mut cache = BlockCache::new();
        let mut fabric_ticks = 0u64;
        let mut remaining = 100_000u64;
        while remaining > 0 && !ccpu.halted() {
            if ccpu.has_pending() {
                let skip = ccpu.skip_horizon().min(remaining);
                if skip > 0 {
                    ccpu.tick_n(skip);
                    remaining -= skip;
                } else {
                    ccpu.tick(&mut cbus, &mut NullCoproc).expect("tick");
                    remaining -= 1;
                }
                continue;
            }
            let block = cache.lookup(&cbus, ccpu.pc(), 16);
            assert!(!block.instrs.is_empty(), "test programs decode");
            let run = run_block(
                &mut ccpu,
                &mut cbus,
                &mut NullCoproc,
                block,
                remaining,
                &mut fabric_ticks,
            )
            .expect("compiled run");
            remaining -= run.cycles;
        }

        assert!(ccpu.halted(), "compiled run must finish");
        assert_eq!(icpu.stats(), ccpu.stats(), "core statistics diverged");
        assert_eq!(
            format!("{:?}", icpu.regs()),
            format!("{:?}", ccpu.regs()),
            "register files diverged"
        );
        assert_eq!(
            ibus.memory().read_bytes(0x200, 32),
            cbus.memory().read_bytes(0x200, 32),
            "memory diverged"
        );
        let (_, misses) = ccpu.decode_cache_stats();
        assert_eq!(misses, 0, "compiled path must never touch the interpreter's decoder");
    }

    #[test]
    fn straightline_matches_interpreter() {
        assert_backends_agree(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 40));
            asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(2)));
            asm.push(Instr::alu(AluOp::Mulx, regs::O1, regs::O0, Op2::Imm(3)));
            asm.push(Instr::Halt);
        });
    }

    #[test]
    fn loops_and_delay_slots_match_interpreter() {
        assert_backends_agree(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 25));
            asm.push(Instr::mov_imm(regs::O1, 0));
            asm.label("loop");
            asm.push(Instr::alu(AluOp::Add, regs::O1, regs::O1, Op2::Imm(3)));
            asm.push(Instr::alu(AluOp::SubCc, regs::O0, regs::O0, Op2::Imm(1)));
            asm.branch(ICond::Ne, "loop");
            asm.push(Instr::Nop); // delay slot
            asm.push(Instr::Halt);
        });
    }

    #[test]
    fn memory_traffic_matches_interpreter() {
        assert_backends_agree(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 0x200));
            asm.push(Instr::mov_imm(regs::O1, 7));
            asm.push(Instr::Store {
                kind: dyser_isa::StoreKind::Stx,
                rs: regs::O1,
                rs1: regs::O0,
                op2: Op2::Imm(0),
            });
            asm.push(Instr::Load {
                kind: dyser_isa::LoadKind::Ldx,
                rd: regs::O2,
                rs1: regs::O0,
                op2: Op2::Imm(0),
            });
            asm.push(Instr::alu(AluOp::Add, regs::O3, regs::O2, Op2::Imm(1))); // load-use
            asm.push(Instr::Halt);
        });
    }

    #[test]
    fn self_modifying_code_invalidates_block() {
        // The program overwrites the instruction AFTER the store with a
        // different constant move, then runs it: the executor must notice
        // the generation bump and re-translate instead of running the
        // stale thunk.
        let mut asm = Assembler::new();
        asm.push(Instr::mov_imm(regs::O1, 0)); // O1 = 0
        // Build the word for `mov 7, %o1` in O0 and store it over the
        // placeholder `mov 5, %o1` below.
        let patched = dyser_isa::encode(&Instr::mov_imm(regs::O1, 7));
        asm.push(Instr::Sethi { rd: regs::O0, imm22: patched >> 10 });
        asm.push(Instr::alu(AluOp::Or, regs::O0, regs::O0, Op2::Imm((patched & 0x3FF) as i16)));
        let target = ENTRY + 7 * 4; // the placeholder's address
        asm.push(Instr::Sethi { rd: regs::O2, imm22: (target >> 10) as u32 });
        asm.push(Instr::alu(AluOp::Or, regs::O2, regs::O2, Op2::Imm((target & 0x3FF) as i16)));
        asm.push(Instr::Store {
            kind: dyser_isa::StoreKind::Stw,
            rs: regs::O0,
            rs1: regs::O2,
            op2: Op2::Imm(0),
        });
        asm.push(Instr::Nop);
        asm.push(Instr::mov_imm(regs::O1, 5)); // placeholder, patched to 7
        asm.push(Instr::Halt);
        let words = asm.assemble().expect("assembles");

        let mut bus = SimpleBus::new();
        bus.memory_mut().write_code(ENTRY, &words);
        let mut cpu = Pipeline::new(ENTRY);
        let mut cache = BlockCache::new();
        let mut fabric_ticks = 0u64;
        let mut remaining = 10_000u64;
        while remaining > 0 && !cpu.halted() {
            if cpu.has_pending() {
                let skip = cpu.skip_horizon().min(remaining);
                if skip > 0 {
                    cpu.tick_n(skip);
                    remaining -= skip;
                } else {
                    cpu.tick(&mut bus, &mut NullCoproc).expect("tick");
                    remaining -= 1;
                }
                continue;
            }
            let block = cache.lookup(&bus, cpu.pc(), 16);
            let run =
                run_block(&mut cpu, &mut bus, &mut NullCoproc, block, remaining, &mut fabric_ticks)
                    .expect("run");
            remaining -= run.cycles;
            if run.exit == BlockExit::PageWritten {
                assert!(cache.stats().misses >= 1);
            }
        }
        assert!(cpu.halted());
        assert_eq!(cpu.regs().read(regs::O1), 7, "the patched instruction must execute");
        assert!(cache.stats().misses >= 2, "the patch must force a re-translation");
        // Re-entering the original block after the patch detects staleness.
        let invalidations = cache.stats().invalidations;
        cache.lookup(&bus, ENTRY, 16);
        assert_eq!(cache.stats().invalidations, invalidations + 1);
    }

    #[test]
    fn budget_exhaustion_is_exact() {
        let bus = program(|asm| {
            for _ in 0..20 {
                asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(1)));
            }
            asm.push(Instr::Halt);
        });
        for budget in [0u64, 1, 5, 19] {
            let mut bus = bus.clone();
            let mut cpu = Pipeline::new(ENTRY);
            let block = translate(&bus, ENTRY, 16);
            let mut ticks = 0u64;
            let run = run_block(&mut cpu, &mut bus, &mut NullCoproc, &block, budget, &mut ticks)
                .expect("run");
            assert_eq!(run.exit, BlockExit::Budget);
            assert_eq!(run.cycles, budget);
            assert_eq!(cpu.stats().cycles, budget, "not a cycle more than the budget");
        }
    }

    #[test]
    fn block_cache_hits_on_reuse() {
        let bus = program(|asm| {
            asm.push(Instr::Nop);
            asm.push(Instr::Halt);
        });
        let mut cache = BlockCache::new();
        cache.lookup(&bus, ENTRY, 16);
        cache.lookup(&bus, ENTRY, 16);
        cache.lookup(&bus, ENTRY + 4, 16);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 2, 0));
    }
}
