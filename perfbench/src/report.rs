//! Digests, simulated-work counts, provenance and the result line.

use std::fmt::Write as _;
use std::process::Command;

use dyser_core::RunStats;
use dyser_sparc::CycleBucket;

/// A 64-bit FNV-1a digest of simulated behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in a run's statistics (their exhaustive `Debug` rendering).
    pub fn stats(&mut self, stats: &RunStats) {
        self.bytes(format!("{stats:?}").as_bytes());
    }

    /// Mixes in instruction words.
    pub fn words(&mut self, words: &[u32]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// Mixes in another digest.
    pub fn digest(&mut self, other: Digest) {
        self.bytes(&other.0.to_le_bytes());
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Simulated-work counts summed over runs: exact, host-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Cycle attribution, indexed like `CycleBucket::ALL`.
    pub buckets: [u64; 9],
    /// FU firings.
    pub fu_fires: u64,
    /// Switch hops.
    pub switch_hops: u64,
    /// Port transfers in and out.
    pub port_transfers: u64,
    /// Configuration bits streamed.
    pub config_bits: u64,
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
}

impl SimCounts {
    /// Adds one run.
    pub fn add(&mut self, s: &RunStats) {
        self.cycles += s.cycles;
        self.instructions += s.core.instructions;
        let account = s.cycle_account();
        for (slot, bucket) in self.buckets.iter_mut().zip(CycleBucket::ALL) {
            *slot += account.get(bucket);
        }
        self.fu_fires += s.fabric.fu_fires();
        self.switch_hops += s.fabric.switch_hops;
        self.port_transfers += s.fabric.port_in + s.fabric.port_out;
        self.config_bits += s.fabric.config_bits;
        self.l1d_accesses += s.mem.l1d.accesses;
        self.l1d_misses += s.mem.l1d.misses;
        self.l2_accesses += s.mem.l2.accesses;
        self.l2_misses += s.mem.l2.misses;
        self.dram_accesses += s.mem.dram_accesses;
    }

    /// Adds another sum.
    pub fn merge(&mut self, o: &SimCounts) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        for (a, b) in self.buckets.iter_mut().zip(o.buckets) {
            *a += b;
        }
        self.fu_fires += o.fu_fires;
        self.switch_hops += o.switch_hops;
        self.port_transfers += o.port_transfers;
        self.config_bits += o.config_bits;
        self.l1d_accesses += o.l1d_accesses;
        self.l1d_misses += o.l1d_misses;
        self.l2_accesses += o.l2_accesses;
        self.l2_misses += o.l2_misses;
        self.dram_accesses += o.dram_accesses;
    }

    /// The counts as whitespace-separated integers (for child-process
    /// reports); [`SimCounts::parse`] reads them back.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut fields = vec![self.cycles, self.instructions];
        fields.extend(self.buckets);
        fields.extend([
            self.fu_fires,
            self.switch_hops,
            self.port_transfers,
            self.config_bits,
            self.l1d_accesses,
            self.l1d_misses,
            self.l2_accesses,
            self.l2_misses,
            self.dram_accesses,
        ]);
        fields
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses [`SimCounts::encode`] output.
    #[must_use]
    pub fn parse(s: &str) -> Option<SimCounts> {
        let v: Vec<u64> = s
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        if v.len() != 20 {
            return None;
        }
        let mut buckets = [0; 9];
        buckets.copy_from_slice(&v[2..11]);
        Some(SimCounts {
            cycles: v[0],
            instructions: v[1],
            buckets,
            fu_fires: v[11],
            switch_hops: v[12],
            port_transfers: v[13],
            config_bits: v[14],
            l1d_accesses: v[15],
            l1d_misses: v[16],
            l2_accesses: v[17],
            l2_misses: v[18],
            dram_accesses: v[19],
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal (the inputs here are plain ASCII).
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: the last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of already-rendered values.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The source revision: `git rev-parse HEAD` where the tree is a git
/// checkout, else `"unknown"`.
#[must_use]
pub fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("a_ms", "ms", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(
            result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]).contains("\"value\": 0,")
        );
    }

    #[test]
    fn counts_round_trip() {
        let c = SimCounts {
            cycles: 5,
            buckets: [1, 2, 3, 4, 5, 6, 7, 8, 9],
            dram_accesses: 11,
            ..SimCounts::default()
        };
        assert_eq!(SimCounts::parse(&c.encode()), Some(c));
        assert_eq!(SimCounts::parse("1 2"), None);
    }
}
