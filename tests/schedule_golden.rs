//! Golden snapshot of the spatial scheduler's output.
//!
//! Every suite kernel is compiled on a grid of geometries, FU mixes and
//! unroll factors (plus two extra refinement budgets on the 8x8 default
//! fabric, the other values fuzz recipes draw), and each point is reduced
//! to one line: a hash of the accelerated binary's code words and fabric
//! configurations, and the fate of every selected region. An unmapped
//! region's fate carries the scheduler's error text, so the exact
//! `BuildError` the placer reports is pinned as well.
//!
//! Any change to placement, routing or refinement that alters a single
//! configuration bit shows up here. Regenerate with `BLESS=1 cargo test
//! --test schedule_golden` only after an intentional change, and review
//! the diff like any other code change.

use sparc_dyser::compiler::{compile, CompilerOptions, RegionFate};
use sparc_dyser::fabric::{FabricGeometry, FuKind};
use sparc_dyser::workloads::{suite, Kernel};

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/schedule_golden.txt");

const GEOMETRIES: [(usize, usize); 4] = [(4, 4), (6, 6), (8, 4), (8, 8)];
const UNROLLS: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a, 64-bit: a stable hash with no dependency.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One snapshot line for `kernel` compiled with `options`.
fn point_line(kernel: &Kernel, options: &CompilerOptions, label: &str) -> String {
    let compiled = match compile(&kernel.function(), options) {
        Ok(c) => c,
        Err(e) => return format!("{} {label} compile-error: {e}", kernel.name),
    };
    let mut h = Fnv::new();
    for word in &compiled.accelerated.code {
        h.bytes(&word.to_le_bytes());
    }
    for config in &compiled.accelerated.configs {
        h.bytes(format!("{config:?}").as_bytes());
    }
    let fates: Vec<String> = compiled
        .regions
        .iter()
        .map(|r| match &r.fate {
            RegionFate::Accelerated => format!("{}: accelerated", r.name),
            RegionFate::Unmapped(e) => format!("{}: {e}", r.name),
        })
        .collect();
    format!("{} {label} hash={:016x} [{}]", kernel.name, h.0, fates.join("; "))
}

fn render() -> String {
    let mut out = String::new();
    for k in suite() {
        for (rows, cols) in GEOMETRIES {
            let geometry = FabricGeometry::new(rows, cols);
            for universal in [false, true] {
                for unroll in UNROLLS {
                    let mut o = k.compiler_options(geometry);
                    if universal {
                        o.kinds = Some(vec![FuKind::Universal; geometry.fu_count()]);
                    }
                    o.unroll_factor = unroll;
                    let mix = if universal { "universal" } else { "default" };
                    let label = format!("{rows}x{cols} {mix} u={unroll}");
                    out.push_str(&point_line(&k, &o, &label));
                    out.push('\n');
                }
            }
        }
        let geometry = FabricGeometry::new(8, 8);
        for rounds in [0, 4] {
            for unroll in UNROLLS {
                let mut o = k.compiler_options(geometry);
                o.unroll_factor = unroll;
                o.schedule.refinement_rounds = rounds;
                let label = format!("8x8 default u={unroll} rounds={rounds}");
                out.push_str(&point_line(&k, &o, &label));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn schedules_match_the_golden_snapshot() {
    let got = render();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(SNAPSHOT, &got).expect("write snapshot");
        return;
    }
    let want =
        std::fs::read_to_string(SNAPSHOT).expect("snapshot missing; regenerate with BLESS=1");
    let mut pairs = got.lines().zip(want.lines()).enumerate();
    if let Some((i, (g, w))) = pairs.find(|(_, (g, w))| g != w) {
        panic!(
            "schedule drifted from the golden snapshot at line {}:\n  got:  {g}\n  want: {w}\n\
             bless with BLESS=1 if the change is intentional",
            i + 1
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "snapshot line count");
}
