//! Compilation of ISA gates into kernel invocations.
//!
//! The "upload" step of the paper (§3.2.1): when a circuit is conveyed from
//! the frontend, each gate is resolved — *once, on the host* — into a kernel
//! identifier plus a fixed-format argument block ([`GateArgs`]). The
//! fn-pointer dispatch mode then binds identifiers to monomorphized kernel
//! pointers ahead of execution (the analog of preloading
//! `cudaMemcpyFromSymbol` results), while the runtime-parse mode re-derives
//! everything per execution (the HIP/MI100 fallback path).

use crate::kernels::GateArgs;
use svsim_ir::{decompose, matrices, Gate, GateKind, Mat};
use svsim_types::bits::mask_of;
use svsim_types::Complex64;

/// Identifies one specialized kernel (the "device function symbol").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Pauli-X pair swap.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (half-touch).
    Z,
    /// Hadamard.
    H,
    /// `diag(1, e^{i l})` (half-touch): S/SDG/T/TDG/U1.
    Phase,
    /// RZ.
    Rz,
    /// Generic dense 2×2.
    OneQ,
    /// CNOT.
    Cx,
    /// Diagonal phase on an all-ones subspace: CZ/CU1.
    CPhase,
    /// Controlled RZ.
    Crz,
    /// (Multi-)controlled dense 2×2.
    ControlledOneQ,
    /// SWAP.
    Swap,
    /// Fredkin.
    CSwap,
    /// Diagonal ZZ rotation.
    Rzz,
    /// Generic dense 4×4.
    TwoQ,
    /// Fused 1-qubit window: a run of gates replayed over one 2-amplitude
    /// window per work item (see [`crate::fuse`]).
    Fused1,
    /// Fused 2-qubit window (4 amplitudes per work item).
    Fused2,
    /// Fused 3-qubit window (8 amplitudes per work item).
    Fused3,
}

/// A gate resolved to a kernel plus its argument block.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledGate {
    /// Which kernel.
    pub id: KernelId,
    /// Uniform argument block.
    pub args: GateArgs,
}

fn base_args(dim: u64) -> GateArgs {
    GateArgs {
        sorted: [0; 5],
        n_sorted: 0,
        target: 0,
        aux: 0,
        ctrl_mask: 0,
        m: [Complex64::ZERO; 16],
        s0: 0.0,
        s1: 0.0,
        work: dim,
        fused: Vec::new(),
    }
}

fn set_sorted(args: &mut GateArgs, qubits: &[u32]) {
    let mut s: Vec<u32> = qubits.to_vec();
    s.sort_unstable();
    args.sorted[..s.len()].copy_from_slice(&s);
    args.n_sorted = s.len() as u8;
}

fn matrix_into(args: &mut GateArgs, m: &Mat) {
    args.m[..m.data().len()].copy_from_slice(m.data());
}

/// Write a gate's payload — the scalars or matrix its kernel applies — into
/// its argument block: the one table from gate kind and angles `p` to
/// payload. [`compile_gate`] calls it on every block it builds and the
/// template patcher ([`crate::batch`]) calls it again per trial on those
/// same blocks, so a patched template and a freshly compiled circuit hold
/// bit-identical payloads. Everything else in a block (kernel, qubits,
/// masks, work) is angle-independent.
pub(crate) fn write_payload(kind: GateKind, p: &[f64], args: &mut GateArgs) {
    use std::f64::consts::{FRAC_PI_4, PI};
    use GateKind::*;
    // The phase kernels carry `e^{i angle}` (the RZ family rotates by half
    // its parameter), the dense kernels the (controlled) matrix.
    let phase = |args: &mut GateArgs, angle: f64| {
        args.s0 = angle.cos();
        args.s1 = angle.sin();
    };
    match kind {
        S => phase(args, PI / 2.0),
        SDG => phase(args, -PI / 2.0),
        T => phase(args, FRAC_PI_4),
        TDG => phase(args, -FRAC_PI_4),
        CZ => phase(args, PI),
        U1 | CU1 => phase(args, p[0]),
        RZ | CRZ | RZZ => phase(args, p[0] / 2.0),
        RX | RY | U2 | U3 => matrix_into(args, &matrices::single_qubit(kind, p)),
        CRX => matrix_into(args, &matrices::rx(p[0])),
        CRY => matrix_into(args, &matrices::ry(p[0])),
        CU3 => matrix_into(args, &matrices::u3(p[0], p[1], p[2])),
        RXX => matrix_into(args, &matrices::rxx(p[0])),
        CY => matrix_into(args, &matrices::single_qubit(Y, &[])),
        CH => matrix_into(args, &matrices::single_qubit(H, &[])),
        C3SQRTX => matrix_into(args, &matrices::sqrt_x()),
        CCX | C3X | C4X => matrix_into(args, &matrices::single_qubit(X, &[])),
        _ => {}
    }
}

/// Compile one gate into kernel invocations, appending to `out`.
///
/// `specialized = true` uses the per-gate kernels (the SV-Sim design);
/// `specialized = false` lowers everything to basic/standard gates and
/// applies them through the generic dense kernels (the "generalized
/// 1-/2-qubit unitary" scheme the paper attributes to Aer/qsim), for the
/// ablation.
pub fn compile_gate(g: &Gate, n_qubits: u32, specialized: bool, out: &mut Vec<CompiledGate>) {
    let dim = 1u64 << n_qubits;
    if !specialized {
        for lg in decompose::lower_gate(g) {
            compile_generic(&lg, dim, out);
        }
        return;
    }
    use GateKind::*;
    let q = g.qubits();
    // The angle-independent part of the argument block.
    let (id, target, aux, ctrl_mask) = match g.kind() {
        ID => return, // identity: the specialized backend skips it entirely
        X => (KernelId::X, q[0], 0, 0),
        Y => (KernelId::Y, q[0], 0, 0),
        Z => (KernelId::Z, q[0], 0, 0),
        H => (KernelId::H, q[0], 0, 0),
        S | SDG | T | TDG | U1 => (KernelId::Phase, q[0], 0, 0),
        RZ => (KernelId::Rz, q[0], 0, 0),
        RX | RY | U2 | U3 => (KernelId::OneQ, q[0], 0, 0),
        CX => (KernelId::Cx, q[1], 0, 1 << q[0]),
        CRZ => (KernelId::Crz, q[1], 0, 1 << q[0]),
        CZ | CU1 => (KernelId::CPhase, 0, 0, mask_of(q)),
        CY | CH | CRX | CRY | CU3 | CCX | C3X | C4X | C3SQRTX => {
            let nc = q.len() - 1;
            (KernelId::ControlledOneQ, q[nc], 0, mask_of(&q[..nc]))
        }
        SWAP => (KernelId::Swap, q[0], q[1], 0),
        RZZ => (KernelId::Rzz, q[0], q[1], 0),
        RXX => (KernelId::TwoQ, q[0], q[1], 0),
        CSWAP => (KernelId::CSwap, q[1], q[2], 1 << q[0]),
        // Relative-phase Toffolis: realized by composing basic/standard
        // gates (the paper's compound-gate strategy).
        RCCX | RC3X => {
            for lg in decompose::lower_gate(g) {
                compile_gate(&lg, n_qubits, true, out);
            }
            return;
        }
    };
    // One work item per setting of the uninvolved qubits.
    let mut args = base_args(dim >> q.len());
    (args.target, args.aux, args.ctrl_mask) = (target, aux, ctrl_mask);
    set_sorted(&mut args, q);
    write_payload(g.kind(), g.params(), &mut args);
    out.push(CompiledGate { id, args });
}

/// Generic-mode compilation: only dense 2×2 / 4×4 applications, like the
/// generalized unitary scheme of Aer/qsim.
fn compile_generic(g: &Gate, dim: u64, out: &mut Vec<CompiledGate>) {
    let q = g.qubits();
    match g.kind().n_qubits() {
        1 => {
            let mut a = base_args(dim / 2);
            set_sorted(&mut a, q);
            a.target = q[0];
            matrix_into(&mut a, &matrices::single_qubit(g.kind(), g.params()));
            out.push(CompiledGate {
                id: KernelId::OneQ,
                args: a,
            });
        }
        2 => {
            debug_assert_eq!(g.kind(), GateKind::CX, "lowering emits only CX among 2q");
            let mut a = base_args(dim / 4);
            set_sorted(&mut a, q);
            a.target = q[0];
            a.aux = q[1];
            matrix_into(&mut a, &matrices::gate_matrix(g));
            out.push(CompiledGate {
                id: KernelId::TwoQ,
                args: a,
            });
        }
        _ => unreachable!("basic/standard gates are 1q or CX"),
    }
}

/// Compile a gate stream.
#[must_use]
pub fn compile_gates<'a>(
    gates: impl IntoIterator<Item = &'a Gate>,
    n_qubits: u32,
    specialized: bool,
) -> Vec<CompiledGate> {
    let mut out = Vec::new();
    for g in gates {
        compile_gate(g, n_qubits, specialized, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(kind: GateKind, q: &[u32], p: &[f64]) -> Gate {
        Gate::new(kind, q, p).unwrap()
    }

    #[test]
    fn specialized_kernel_selection() {
        let cases = [
            (g(GateKind::X, &[0], &[]), KernelId::X),
            (g(GateKind::T, &[1], &[]), KernelId::Phase),
            (g(GateKind::RZ, &[1], &[0.3]), KernelId::Rz),
            (g(GateKind::U3, &[0], &[0.1, 0.2, 0.3]), KernelId::OneQ),
            (g(GateKind::CX, &[0, 1], &[]), KernelId::Cx),
            (g(GateKind::CZ, &[0, 1], &[]), KernelId::CPhase),
            (g(GateKind::CCX, &[0, 1, 2], &[]), KernelId::ControlledOneQ),
            (
                g(GateKind::C4X, &[0, 1, 2, 3, 4], &[]),
                KernelId::ControlledOneQ,
            ),
            (g(GateKind::SWAP, &[0, 1], &[]), KernelId::Swap),
            (g(GateKind::RZZ, &[0, 1], &[0.5]), KernelId::Rzz),
            (g(GateKind::RXX, &[0, 1], &[0.5]), KernelId::TwoQ),
        ];
        for (gate, id) in cases {
            let mut out = Vec::new();
            compile_gate(&gate, 6, true, &mut out);
            assert_eq!(out.len(), 1, "{gate} should compile to one kernel");
            assert_eq!(out[0].id, id, "{gate}");
        }
    }

    #[test]
    fn id_gate_is_free_when_specialized() {
        let mut out = Vec::new();
        compile_gate(&g(GateKind::ID, &[0], &[]), 4, true, &mut out);
        assert!(out.is_empty());
        // In generic mode it still costs a dense 2x2 pass.
        compile_gate(&g(GateKind::ID, &[0], &[]), 4, false, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, KernelId::OneQ);
    }

    #[test]
    fn work_sizes_reflect_specialization() {
        let dim = 1u64 << 10;
        let mut out = Vec::new();
        compile_gate(&g(GateKind::T, &[3], &[]), 10, true, &mut out);
        assert_eq!(out[0].args.work, dim / 2);
        out.clear();
        compile_gate(&g(GateKind::CZ, &[3, 7], &[]), 10, true, &mut out);
        assert_eq!(out[0].args.work, dim / 4);
        out.clear();
        compile_gate(&g(GateKind::C4X, &[0, 1, 2, 3, 4], &[]), 10, true, &mut out);
        assert_eq!(out[0].args.work, dim / 32);
    }

    #[test]
    fn compound_rccx_composes() {
        let mut out = Vec::new();
        compile_gate(&g(GateKind::RCCX, &[0, 1, 2], &[]), 5, true, &mut out);
        assert!(out.len() > 5, "rccx lowers to a sequence");
        assert!(out
            .iter()
            .all(|c| matches!(c.id, KernelId::H | KernelId::Phase | KernelId::Cx)));
    }

    #[test]
    fn generic_mode_uses_only_dense_kernels() {
        let gates = [
            g(GateKind::H, &[0], &[]),
            g(GateKind::CCX, &[0, 1, 2], &[]),
            g(GateKind::SWAP, &[1, 2], &[]),
            g(GateKind::T, &[2], &[]),
        ];
        let compiled = compile_gates(gates.iter(), 4, false);
        assert!(compiled
            .iter()
            .all(|c| matches!(c.id, KernelId::OneQ | KernelId::TwoQ)));
        // CCX lowers to many gates in generic mode.
        assert!(compiled.len() > 10);
    }

    #[test]
    fn sorted_and_masks() {
        let mut out = Vec::new();
        compile_gate(&g(GateKind::CCX, &[5, 2, 4], &[]), 8, true, &mut out);
        let a = &out[0].args;
        assert_eq!(a.sorted(), &[2, 4, 5]);
        assert_eq!(a.target, 4);
        assert_eq!(a.ctrl_mask, (1 << 5) | (1 << 2));
    }
}
