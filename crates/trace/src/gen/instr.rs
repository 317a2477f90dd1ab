//! Instruction-fetch stream generator.

use crate::record::TraceRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`InstructionStream`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InstrConfig {
    /// Instruction size in bytes (fetch granularity). Must be a power of two.
    pub instr_size: u64,
    /// Probability per fetch of a taken control transfer.
    pub p_branch: f64,
    /// Given a transfer, probability it targets a recently executed address
    /// (a loop back-edge) rather than a fresh location.
    pub p_loop: f64,
    /// Number of recent branch targets remembered for loop back-edges.
    pub loop_targets: usize,
    /// Size in bytes of the code segment.
    pub code_segment: u64,
}

impl InstrConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.instr_size.is_power_of_two() {
            return Err(format!(
                "instr_size {} is not a power of two",
                self.instr_size
            ));
        }
        for (name, p) in [("p_branch", self.p_branch), ("p_loop", self.p_loop)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is not a probability"));
            }
        }
        if self.loop_targets == 0 {
            return Err("loop_targets must be positive".into());
        }
        if self.code_segment < self.instr_size {
            return Err("code_segment smaller than one instruction".into());
        }
        Ok(())
    }
}

impl Default for InstrConfig {
    fn default() -> Self {
        InstrConfig {
            instr_size: 4,
            p_branch: 0.12,
            p_loop: 0.92,
            loop_targets: 12,
            code_segment: 1 << 18,
        }
    }
}

/// Generates instruction fetches: sequential runs punctuated by branches,
/// most of which loop back to recently executed code.
///
/// # Example
///
/// ```
/// use seta_trace::gen::{InstrConfig, InstructionStream};
/// use seta_trace::AccessKind;
///
/// let mut s = InstructionStream::new(InstrConfig::default(), 0, 3).unwrap();
/// assert_eq!(s.next_record().kind, AccessKind::InstrFetch);
/// ```
#[derive(Debug)]
pub struct InstructionStream {
    config: InstrConfig,
    base: u64,
    rng: StdRng,
    /// Current program counter, relative to `base`.
    pc: u64,
    /// Recently taken branch targets (relative addresses), newest last.
    targets: Vec<u64>,
}

impl InstructionStream {
    /// Creates a stream starting at the bottom of the code segment.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: InstrConfig, base: u64, seed: u64) -> Result<Self, String> {
        config.validate()?;
        Ok(InstructionStream {
            config,
            base,
            rng: StdRng::seed_from_u64(seed),
            pc: 0,
            targets: Vec::new(),
        })
    }

    /// The configuration this stream runs with.
    pub fn config(&self) -> &InstrConfig {
        &self.config
    }

    /// Produces the next instruction fetch.
    pub fn next_record(&mut self) -> TraceRecord {
        let addr = self.base + self.pc;
        if self.rng.gen_bool(self.config.p_branch) {
            let target = if !self.targets.is_empty() && self.rng.gen_bool(self.config.p_loop) {
                let i = self.rng.gen_range(0..self.targets.len());
                self.targets[i]
            } else {
                // `instr_size` is a validated power of two.
                let instrs = self.config.code_segment >> self.config.instr_size.trailing_zeros();
                let t = self.rng.gen_range(0..instrs) * self.config.instr_size;
                self.targets.push(t);
                if self.targets.len() > self.config.loop_targets {
                    self.targets.remove(0);
                }
                t
            };
            self.pc = target;
        } else {
            // `pc < code_segment` and `instr_size <= code_segment`, so one
            // conditional subtract is the `%`.
            let next = self.pc + self.config.instr_size;
            self.pc = if next >= self.config.code_segment {
                next - self.config.code_segment
            } else {
                next
            };
        }
        TraceRecord::ifetch(addr)
    }
}

impl Iterator for InstructionStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessKind;
    use std::collections::HashSet;

    fn stream(seed: u64) -> InstructionStream {
        InstructionStream::new(InstrConfig::default(), 0x10_0000, seed).unwrap()
    }

    #[test]
    fn all_fetches_are_ifetches_in_segment() {
        let mut s = stream(1);
        for _ in 0..5_000 {
            let r = s.next_record();
            assert_eq!(r.kind, AccessKind::InstrFetch);
            assert!(r.addr >= 0x10_0000);
            assert!(r.addr < 0x10_0000 + s.config().code_segment);
            assert_eq!(r.addr % 4, 0);
        }
    }

    #[test]
    fn mostly_sequential() {
        let mut s = stream(2);
        let mut prev = s.next_record().addr;
        let mut seq = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let a = s.next_record().addr;
            if a == prev + 4 {
                seq += 1;
            }
            prev = a;
        }
        let frac = seq as f64 / n as f64;
        assert!(frac > 0.75, "sequential fraction {frac}");
    }

    #[test]
    fn loops_create_reuse() {
        let mut s = stream(3);
        let addrs: Vec<u64> = (0..20_000).map(|_| s.next_record().addr).collect();
        let unique: HashSet<_> = addrs.iter().collect();
        assert!(
            unique.len() < addrs.len() / 2,
            "{} unique of {}",
            unique.len(),
            addrs.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = stream(7).take(300).collect();
        let b: Vec<_> = stream(7).take(300).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = InstrConfig {
            instr_size: 3,
            ..InstrConfig::default()
        };
        assert!(c.validate().is_err());

        let c = InstrConfig {
            p_branch: -0.1,
            ..InstrConfig::default()
        };
        assert!(c.validate().is_err());

        let c = InstrConfig {
            loop_targets: 0,
            ..InstrConfig::default()
        };
        assert!(c.validate().is_err());

        let c = InstrConfig {
            code_segment: 2,
            ..InstrConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
