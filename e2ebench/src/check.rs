//! Correctness oracle made apart from the pipeline.
//!
//! For every distinct operator a workload can send, [`Expected::compute`]
//! runs the reference engine (`ReferenceSimulator`, the seed engine the
//! golden tests pin), derives the profile from its trace with
//! `Profile::collect`, analyzes it, and counts the kernel's static
//! operations and bytes with `KernelStats::of`. None of this goes
//! through `AnalysisPipeline`, its cache, its codec or its wire. Every
//! result a workload receives must match it field for field.

use ascend_arch::ChipSpec;
use ascend_isa::KernelStats;
use ascend_ops::Operator;
use ascend_pipeline::{Fidelity, PipelineResult};
use ascend_profile::Profile;
use ascend_roofline::{analyze, RooflineAnalysis, Thresholds};
use ascend_sim::reference::ReferenceSimulator;

/// What the reference computation says one operator's result must be.
#[derive(Debug, Clone)]
pub struct Expected {
    pub kernel_name: String,
    pub kernel_len: usize,
    pub profile: Profile,
    pub analysis: RooflineAnalysis,
    pub total_cycles: f64,
    pub stats: KernelStats,
}

impl Expected {
    /// Builds `op`'s kernel and runs the reference engine on it.
    ///
    /// # Errors
    ///
    /// Describes a build or reference-simulation failure, or a reference
    /// profile whose operation or byte counts disagree with the kernel's
    /// static counts.
    pub fn compute(op: &dyn Operator, chip: &ChipSpec) -> Result<Expected, String> {
        let kernel = op.build(chip).map_err(|err| format!("{op:?}: build failed: {err}"))?;
        let trace = ReferenceSimulator::new(chip.clone())
            .simulate(&kernel)
            .map_err(|err| format!("{op:?}: reference engine failed: {err}"))?;
        let profile = Profile::collect(&kernel, &trace);
        let stats = KernelStats::of(&kernel);
        if profile.ops != stats.ops || profile.bytes != stats.bytes {
            return Err(format!("{op:?}: reference profile disagrees with static counts"));
        }
        let analysis = analyze(&profile, chip, &Thresholds::default());
        Ok(Expected {
            kernel_name: kernel.name().to_owned(),
            kernel_len: kernel.len(),
            total_cycles: trace.total_cycles(),
            profile,
            analysis,
            stats,
        })
    }

    /// Compares a received result with the reference.
    ///
    /// # Errors
    ///
    /// Names the first field that differs.
    pub fn check(&self, result: &PipelineResult) -> Result<(), String> {
        let name = &self.kernel_name;
        if result.fidelity != Fidelity::Simulated {
            return Err(format!("{name}: served {:?}, not a simulated result", result.fidelity));
        }
        if result.kernel_name != self.kernel_name || result.kernel_len != self.kernel_len {
            return Err(format!(
                "{name}: kernel {}/{} instructions, expected {}",
                result.kernel_name, result.kernel_len, self.kernel_len
            ));
        }
        if result.cycles() != self.total_cycles || result.profile.total_cycles != self.total_cycles
        {
            return Err(format!(
                "{name}: total cycles {} (profile {}), expected {}",
                result.cycles(),
                result.profile.total_cycles,
                self.total_cycles
            ));
        }
        if result.profile.ops != self.stats.ops {
            return Err(format!("{name}: operation counts differ from the static counts"));
        }
        if result.profile.bytes != self.stats.bytes {
            return Err(format!("{name}: byte counts differ from the static counts"));
        }
        if result.profile != self.profile {
            return Err(format!("{name}: profile differs from the reference profile"));
        }
        if result.analysis != self.analysis {
            return Err(format!("{name}: analysis differs from the reference analysis"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::AddRelu;
    use ascend_pipeline::AnalysisPipeline;
    use ascend_sim::Trace;

    fn pair() -> (Expected, PipelineResult) {
        let chip = ChipSpec::training();
        let op = AddRelu::new(1 << 12);
        let expected = Expected::compute(&op, &chip).expect("reference runs");
        let result = AnalysisPipeline::new(chip).run(&op).expect("pipeline runs");
        (expected, (*result).clone())
    }

    #[test]
    fn the_pipeline_result_matches_the_reference() {
        let (expected, result) = pair();
        assert_eq!(expected.check(&result), Ok(()));
    }

    #[test]
    fn an_altered_cycle_count_is_rejected() {
        let (expected, mut result) = pair();
        result.profile.total_cycles += 1.0;
        assert!(expected.check(&result).is_err());

        let (expected, mut result) = pair();
        let records = result.trace.records().to_vec();
        let cycles = result.trace.total_cycles();
        result.trace = Trace::from_parts(&result.kernel_name, records, cycles + 1.0);
        assert!(expected.check(&result).is_err());

        let (expected, mut result) = pair();
        let active = result.profile.active_cycles.values_mut().next().expect("a component");
        *active += 1.0;
        assert!(expected.check(&result).is_err());
    }

    #[test]
    fn an_altered_byte_count_is_rejected() {
        let (expected, mut result) = pair();
        let bytes = result.profile.bytes.values_mut().next().expect("a transfer path");
        *bytes += 1;
        assert!(expected.check(&result).is_err());

        let (expected, mut result) = pair();
        let ops = result.profile.ops.values_mut().next().expect("a compute unit");
        *ops -= 1;
        assert!(expected.check(&result).is_err());
    }
}
