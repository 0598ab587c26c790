//! Ahead-of-time circuit compilation: the [`CompiledPlan`] artifact.
//!
//! Historically every executor call re-lowered its op slice on the spot —
//! [`crate::exec::build_steps`] inside `run_single`/`run_scaleup`/
//! `run_scaleout`, plus a fresh communication-avoiding
//! [`crate::remap::plan_remap`] pass per scale-out segment. That couples
//! circuit elaboration (op → step lowering), kernel specialization
//! (gate → [`CompiledGate`] resolution), and remap planning to execution,
//! so a serving layer cannot overlap "compile job B" with "execute job A",
//! and repeated submissions of one circuit pay the compile cost each time.
//!
//! [`CompiledPlan`] splits that work out: it precompiles a circuit — one
//! [`PlanSegment`] per checkpoint-grid segment, each holding the lowered
//! step stream, the flat compiled-kernel queue, the measurement random
//! budget, and (for remapped scale-out) the relabeling schedule — into a
//! standalone value that [`crate::Simulator::run_from`] executes without
//! recompiling.
//! Execution from a plan is **bit-identical** to [`crate::Simulator::run`]:
//! the plan stores exactly the data the executor would have rebuilt.

use crate::compile::CompiledGate;
use crate::exec::{build_steps, Step};
use crate::remap::{plan_remap_fused, RemapPlan};
use crate::sim::{BackendKind, SimConfig};
use svsim_ir::{Circuit, Op};

/// One checkpoint-grid segment lowered to executable form.
#[derive(Debug, Clone)]
pub(crate) struct PlanSegment {
    /// First op of the segment (inclusive, grid-aligned).
    pub(crate) start: usize,
    /// One past the last op of the segment.
    pub(crate) end: usize,
    /// Lowered step stream (built from the remapped op stream when
    /// `remap` is set, the raw slice otherwise).
    pub(crate) steps: Vec<Step>,
    /// Flat compiled-kernel queue the steps index into.
    pub(crate) queue: Vec<CompiledGate>,
    /// Random draws the segment's measurements/resets will consume.
    pub(crate) n_rand: usize,
    /// Communication-avoiding relabeling schedule (scale-out with
    /// remapping armed only).
    pub(crate) remap: Option<RemapPlan>,
}

/// Lower `ops[start..end]` into a segment: remap planning first (when
/// `remap_pes > 1`, fusion-aware via [`plan_remap_fused`]), then
/// step/kernel lowering over the stream the executor will actually walk,
/// then the gate-fusion pass ([`crate::fuse::fuse_segment`], `fuse > 0`
/// only). This is the single compile entry point — executors call it as
/// their fallback when no precompiled segment is supplied, so plan-driven
/// and plan-free execution share one lowering.
pub(crate) fn build_segment(
    ops: &[Op],
    start: usize,
    end: usize,
    n_qubits: u32,
    specialized: bool,
    remap_pes: u64,
    fuse: u8,
) -> PlanSegment {
    let slice = &ops[start..end];
    let remap = (remap_pes > 1).then(|| plan_remap_fused(slice, n_qubits, remap_pes, fuse));
    let (mut steps, mut queue, n_rand) = match &remap {
        Some(p) => build_steps(&p.ops, n_qubits, specialized),
        None => build_steps(slice, n_qubits, specialized),
    };
    let mut remap = remap;
    if fuse > 0 {
        crate::fuse::fuse_segment(&mut steps, &mut queue, &mut remap, n_qubits, fuse);
    }
    PlanSegment {
        start,
        end,
        steps,
        queue,
        n_rand,
        remap,
    }
}

/// A circuit compiled ahead of execution for a specific simulator shape
/// (width, specialization, checkpoint cadence, and remap partitioning).
///
/// Build one with [`CompiledPlan::compile`], hand it around freely
/// (`Clone` is deep but execution never mutates it), and execute it with
/// [`crate::Simulator::run_from`]. A plan is only valid for the
/// circuit/config shape it was compiled against; [`CompiledPlan::matches`]
/// is the compatibility check callers gate on before reusing a cached
/// plan.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    n_qubits: u32,
    specialized: bool,
    checkpoint_every: u32,
    remap_pes: u64,
    n_ops: usize,
    /// Fusion window the plan was compiled with (0 = unfused).
    fuse: u8,
    /// Source kernels before fusion, across all segments — the numerator
    /// of the gates-per-amplitude-pass metric (`n_kernels()` is the
    /// denominator).
    n_source_kernels: usize,
    segments: Vec<PlanSegment>,
}

impl CompiledPlan {
    /// Compile `circuit` for a simulator of `n_qubits` qubits running
    /// under `config`. Segmentation follows the same fixed checkpoint grid
    /// as [`crate::Simulator::run`] (multiples of `checkpoint_every` from
    /// op 0), so resumed executions reuse the same segments.
    #[must_use]
    pub fn compile(circuit: &Circuit, n_qubits: u32, config: &SimConfig) -> Self {
        let ops = circuit.ops();
        let remap_pes = match config.backend {
            BackendKind::ScaleOut { n_pes } if config.remap && n_pes > 1 => n_pes as u64,
            _ => 0,
        };
        let k = config.checkpoint_every as usize;
        let mut segments = Vec::new();
        if k == 0 {
            segments.push(build_segment(
                ops,
                0,
                ops.len(),
                n_qubits,
                config.specialized,
                remap_pes,
                config.fuse,
            ));
        } else {
            let mut pos = 0usize;
            while pos < ops.len() {
                // The smallest checkpoint-grid multiple strictly past `pos`.
                let end = usize::min(ops.len(), (pos + 1).next_multiple_of(k));
                segments.push(build_segment(
                    ops,
                    pos,
                    end,
                    n_qubits,
                    config.specialized,
                    remap_pes,
                    config.fuse,
                ));
                pos = end;
            }
        }
        let n_source_kernels = segments
            .iter()
            .map(|s| crate::fuse::source_kernels(&s.queue))
            .sum();
        Self {
            n_qubits,
            specialized: config.specialized,
            checkpoint_every: config.checkpoint_every,
            remap_pes,
            n_ops: ops.len(),
            fuse: config.fuse,
            n_source_kernels,
            segments,
        }
    }

    /// Whether this plan was compiled for exactly this simulator shape and
    /// an identically-shaped circuit. The op count is a cheap structural
    /// sanity check; supplying a *different* circuit with the same length
    /// is a caller contract violation, same as [`crate::Simulator::resume`]
    /// with the wrong circuit.
    #[must_use]
    pub fn matches(&self, circuit: &Circuit, n_qubits: u32, config: &SimConfig) -> bool {
        let remap_pes = match config.backend {
            BackendKind::ScaleOut { n_pes } if config.remap && n_pes > 1 => n_pes as u64,
            _ => 0,
        };
        self.n_qubits == n_qubits
            && self.specialized == config.specialized
            && self.checkpoint_every == config.checkpoint_every
            && self.remap_pes == remap_pes
            && self.fuse == config.fuse
            && self.n_ops == circuit.ops().len()
    }

    /// Segments in the plan (one when checkpointing is off).
    #[must_use]
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Compiled kernels across all segments — the "device-resident circuit
    /// buffer" footprint of the plan, and the number of amplitude passes
    /// its unitary portion performs.
    #[must_use]
    pub fn n_kernels(&self) -> usize {
        self.segments.iter().map(|s| s.queue.len()).sum()
    }

    /// Source kernels before fusion (equals [`Self::n_kernels`] for an
    /// unfused plan). `n_source_kernels() / n_kernels()` is the plan's
    /// gates-per-amplitude-pass.
    #[must_use]
    pub fn n_source_kernels(&self) -> usize {
        self.n_source_kernels
    }

    /// The fusion window the plan was compiled with (0 = unfused).
    #[must_use]
    pub fn fuse_window(&self) -> u8 {
        self.fuse
    }

    /// The precompiled segment covering exactly `ops[start..end]`, if the
    /// plan holds one (segment lookups that miss fall back to on-the-fly
    /// lowering in the executor).
    pub(crate) fn segment(&self, start: usize, end: usize) -> Option<&PlanSegment> {
        let idx = if self.checkpoint_every == 0 {
            0
        } else {
            start / self.checkpoint_every as usize
        };
        self.segments
            .get(idx)
            .filter(|s| s.start == start && s.end == end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::GateKind;

    fn circuit() -> Circuit {
        let mut c = Circuit::with_cbits(5, 1);
        for q in 0..5 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::T, &[4], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c
    }

    #[test]
    fn segments_follow_the_checkpoint_grid() {
        let c = circuit();
        let cfg = SimConfig::single_device().with_checkpoint_every(3);
        let plan = CompiledPlan::compile(&c, 5, &cfg);
        assert_eq!(plan.n_segments(), c.ops().len().div_ceil(3));
        // Every grid segment resolves; a misaligned range does not.
        assert!(plan.segment(0, 3).is_some());
        assert!(plan.segment(3, 6).is_some());
        assert!(plan.segment(1, 3).is_none());
        assert!(plan.n_kernels() >= c.gates().count());
    }

    #[test]
    fn unsegmented_plan_is_one_segment() {
        let c = circuit();
        let cfg = SimConfig::single_device();
        let plan = CompiledPlan::compile(&c, 5, &cfg);
        assert_eq!(plan.n_segments(), 1);
        assert!(plan.segment(0, c.ops().len()).is_some());
    }

    #[test]
    fn matches_is_shape_exact() {
        let c = circuit();
        let cfg = SimConfig::scale_out(4).with_remap();
        let plan = CompiledPlan::compile(&c, 5, &cfg);
        assert!(plan.matches(&c, 5, &cfg));
        assert!(!plan.matches(&c, 6, &cfg), "width differs");
        assert!(
            !plan.matches(&c, 5, &SimConfig::scale_out(2).with_remap()),
            "remap partitioning differs"
        );
        assert!(
            !plan.matches(&c, 5, &cfg.with_checkpoint_every(2)),
            "checkpoint grid differs"
        );
        let seg = plan.segment(0, c.ops().len()).unwrap();
        assert!(seg.remap.is_some(), "remapped plan carries the schedule");
        assert_eq!(seg.n_rand, 1, "one measurement draw");
    }
}
