//! Gate dispatch: preloaded function pointers vs. runtime parsing.
//!
//! The paper's central software trick (Listing 1) achieves polymorphism on
//! the GPU through device function pointers preloaded at initialization, so
//! the per-gate execution path is a single indirect call with *no* parsing
//! or branching — while dynamically generated (VQA) circuits still run in
//! one kernel with no JIT. The HIP/MI100 fallback must instead parse and
//! branch per gate at runtime (§3.2.1, §4.1 obs. v).
//!
//! Both paths exist and are benchmarked against each other: [`upload`]
//! here resolves every compiled gate to a monomorphized kernel pointer once
//! ("copy the device symbol into the gate object"); under
//! [`crate::DispatchMode::RuntimeParse`] the executors instead re-derive
//! the kernel arguments from the raw gate and [`resolve`] on the kind at
//! every execution.

use crate::compile::{CompiledGate, KernelId};
use crate::kernels::{self, GateArgs};
use crate::view::StateView;
use std::ops::Range;

/// The unified kernel signature (the paper's `func_t`).
pub type KernelFn<V> = fn(&V, &GateArgs, Range<u64>);

/// Resolve a kernel id to the monomorphized function pointer — the analog of
/// the preloaded `cudaMemcpyFromSymbol` table built once per simulation
/// object.
#[must_use]
pub fn resolve<V: StateView>(id: KernelId) -> KernelFn<V> {
    match id {
        KernelId::X => kernels::k_x::<V>,
        KernelId::Y => kernels::k_y::<V>,
        KernelId::Z => kernels::k_z::<V>,
        KernelId::H => kernels::k_h::<V>,
        KernelId::Phase => kernels::k_phase::<V>,
        KernelId::Rz => kernels::k_rz::<V>,
        KernelId::Ry => kernels::k_ry::<V>,
        KernelId::Rx => kernels::k_rx::<V>,
        KernelId::OneQ => kernels::k_oneq::<V>,
        KernelId::Rzz => kernels::k_rzz::<V>,
        KernelId::TwoQ => kernels::k_twoq::<V>,
    }
}

/// A gate bound to its kernel pointer: ready for branch-free execution.
pub struct UploadedGate<V: StateView> {
    /// Resolved kernel pointer.
    pub op: KernelFn<V>,
    /// Argument block.
    pub args: GateArgs,
}

impl<V: StateView> UploadedGate<V> {
    /// Execute this gate over a work-item sub-range (Listing 1's
    /// `exe_op`).
    #[inline]
    pub fn exe_op(&self, view: &V, range: Range<u64>) {
        (self.op)(view, &self.args, range);
    }
}

/// Bind a compiled gate stream to kernel pointers (the "upload").
#[must_use]
pub fn upload<V: StateView>(compiled: &[CompiledGate]) -> Vec<UploadedGate<V>> {
    compiled
        .iter()
        .map(|c| UploadedGate {
            op: resolve::<V>(c.id),
            args: c.args,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::compile_all;
    use crate::view::LocalView;
    use svsim_ir::{Circuit, GateKind};

    #[test]
    fn uploaded_gates_prepare_ghz() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        {
            let v = LocalView::new(&mut re, &mut im);
            let compiled = compile_all(c.gates(), 3, true);
            for ug in upload::<LocalView>(&compiled) {
                ug.exe_op(&v, 0..ug.args.work);
            }
        }
        // GHZ: only |000> and |111> populated.
        assert!((re[0] - svsim_types::S2I).abs() < 1e-12);
        assert!((re[7] - svsim_types::S2I).abs() < 1e-12);
        assert!(re[1..7].iter().chain(&im).all(|&x| x == 0.0));
    }

    #[test]
    fn every_kernel_id_resolves() {
        for id in [
            KernelId::X,
            KernelId::Y,
            KernelId::Z,
            KernelId::H,
            KernelId::Phase,
            KernelId::Rz,
            KernelId::Ry,
            KernelId::Rx,
            KernelId::OneQ,
            KernelId::Rzz,
            KernelId::TwoQ,
        ] {
            // One function per body; a gate's controls are in its footprint.
            let _f = resolve::<LocalView>(id);
        }
    }
}
