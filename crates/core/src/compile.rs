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

/// Identifies one kernel **body** (the "device function symbol"): the
/// arithmetic on one work item's amplitudes. Which amplitudes those are — a
/// plain target, a target under controls, the two words of a swap — is the
/// footprint in the argument block ([`GateArgs::offs`]), so a gate family and
/// its controlled forms share a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Exchange two amplitudes: Pauli-X, CNOT and the multi-controlled X
    /// (CCX, C3X, C4X), SWAP, Fredkin.
    X,
    /// Pauli-Y, plain or controlled.
    Y,
    /// Pauli-Z (half-touch).
    Z,
    /// Hadamard, plain or controlled.
    H,
    /// Multiply one amplitude by `e^{i l}`: S/SDG/T/TDG/U1 (half-touch) and,
    /// on the all-ones subspace of its qubits, CZ/CU1.
    Phase,
    /// RZ, plain or controlled.
    Rz,
    /// RY, plain or controlled: a real rotation.
    Ry,
    /// RX, plain or controlled.
    Rx,
    /// Dense 2×2, plain or (multi-)controlled.
    OneQ,
    /// Diagonal ZZ rotation.
    Rzz,
    /// Generic dense 4×4.
    TwoQ,
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
        offs: [0; 8],
        n_offs: 0,
        m: [Complex64::ZERO; 16],
        s0: 0.0,
        s1: 0.0,
        work: dim,
    }
}

fn set_sorted(args: &mut GateArgs, qubits: &[u32]) {
    let mut s: Vec<u32> = qubits.to_vec();
    s.sort_unstable();
    args.sorted[..s.len()].copy_from_slice(&s);
    args.n_sorted = s.len() as u8;
}

/// A footprint as the argument block stores it: [`GateArgs::offs`] and its
/// count.
type Footprint = ([u64; 8], u8);

fn footprint<const N: usize>(offs: [u64; N]) -> Footprint {
    let mut all = [0; 8];
    all[..N].copy_from_slice(&offs);
    (all, N as u8)
}

/// Target bit `t` clear and set, every control bit of `c` set.
fn pair(c: u64, t: u64) -> Footprint {
    footprint([c, c | t])
}

/// All four settings of operand bits `p` (local bit 0) and `q` (local bit 1).
fn quad(p: u64, q: u64) -> Footprint {
    footprint([0, p, q, p | q])
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
/// footprint, work) is angle-independent.
pub(crate) fn write_payload(kind: GateKind, p: &[f64], args: &mut GateArgs) {
    use std::f64::consts::{FRAC_PI_4, PI};
    use GateKind::*;
    // The phase kernels carry `e^{i angle}` (the RZ family rotates by half
    // its parameter), the RY and RX bodies `cos` and `sin` of half their
    // angle, the dense kernels the (controlled) matrix.
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
        RZ | CRZ | RZZ | RY | CRY | RX | CRX => phase(args, p[0] / 2.0),
        U2 | U3 => matrix_into(args, &matrices::single_qubit(kind, p)),
        CU3 => matrix_into(args, &matrices::u3(p[0], p[1], p[2])),
        RXX => matrix_into(args, &matrices::rxx(p[0])),
        C3SQRTX => matrix_into(args, &matrices::sqrt_x()),
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
    let bit = |k: usize| 1u64 << q[k];
    // A one-qubit gate's operands are its controls, if any, then its target.
    let nc = q.len() - 1;
    let (c, t) = (mask_of(&q[..nc]), bit(nc));
    // The angle-independent part of the argument block: the body, and the
    // footprint it sweeps. This table is the one place a gate's amplitudes
    // are spelled. Each gate takes the cheapest body that computes it: a
    // controlled X, Y or H is that gate's body under its controls, never a
    // dense matrix.
    let (id, (offs, n_offs)) = match g.kind() {
        ID => return, // identity: the specialized backend skips it entirely
        X | CX | CCX | C3X | C4X => (KernelId::X, pair(c, t)),
        Y | CY => (KernelId::Y, pair(c, t)),
        Z => (KernelId::Z, footprint([t])),
        H | CH => (KernelId::H, pair(c, t)),
        S | SDG | T | TDG | U1 => (KernelId::Phase, footprint([t])),
        CZ | CU1 => (KernelId::Phase, footprint([c | t])),
        RZ | CRZ => (KernelId::Rz, pair(c, t)),
        RY | CRY => (KernelId::Ry, pair(c, t)),
        RX | CRX => (KernelId::Rx, pair(c, t)),
        U2 | U3 | CU3 | C3SQRTX => (KernelId::OneQ, pair(c, t)),
        // The two words a swap exchanges: `|01>` and `|10>` of its operands,
        // under Fredkin's control.
        SWAP => (KernelId::X, footprint([bit(0), bit(1)])),
        CSWAP => (KernelId::X, footprint([bit(0) | bit(1), bit(0) | bit(2)])),
        RZZ => (KernelId::Rzz, quad(bit(0), bit(1))),
        RXX => (KernelId::TwoQ, quad(bit(0), bit(1))),
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
    (args.offs, args.n_offs) = (offs, n_offs);
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
            (a.offs, a.n_offs) = pair(0, 1 << q[0]);
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
            (a.offs, a.n_offs) = quad(1 << q[0], 1 << q[1]);
            matrix_into(&mut a, &matrices::gate_matrix(g));
            out.push(CompiledGate {
                id: KernelId::TwoQ,
                args: a,
            });
        }
        _ => unreachable!("basic/standard gates are 1q or CX"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::compile_all;

    fn g(kind: GateKind, q: &[u32], p: &[f64]) -> Gate {
        Gate::new(kind, q, p).unwrap()
    }

    /// The body each gate selects and the footprint it sweeps: what was a
    /// kernel of its own (CNOT, SWAP, Fredkin, controlled phase, controlled
    /// RZ, controlled 2×2) is now only these offsets.
    #[test]
    fn specialized_kernel_selection() {
        use GateKind::*;
        let cases: Vec<(Gate, KernelId, &[u64])> = vec![
            (g(X, &[0], &[]), KernelId::X, &[0, 1]),
            (g(Z, &[3], &[]), KernelId::Z, &[8]),
            (g(T, &[1], &[]), KernelId::Phase, &[2]),
            (g(RZ, &[1], &[0.3]), KernelId::Rz, &[0, 2]),
            (g(U3, &[0], &[0.1, 0.2, 0.3]), KernelId::OneQ, &[0, 1]),
            // Control below the target, and above it.
            (g(CX, &[0, 4], &[]), KernelId::X, &[0b00001, 0b10001]),
            (g(CX, &[4, 0], &[]), KernelId::X, &[0b10000, 0b10001]),
            (g(CRZ, &[3, 1], &[0.3]), KernelId::Rz, &[0b1000, 0b1010]),
            (g(CZ, &[0, 1], &[]), KernelId::Phase, &[0b11]),
            (g(CU1, &[5, 2], &[0.4]), KernelId::Phase, &[0b100100]),
            // The cheapest body that computes the gate, its controls below
            // the target and above it: never the dense 2×2.
            (g(CCX, &[0, 1, 2], &[]), KernelId::X, &[0b011, 0b111]),
            (g(CCX, &[5, 3, 1], &[]), KernelId::X, &[0b101000, 0b101010]),
            (
                g(C3X, &[0, 4, 5, 2], &[]),
                KernelId::X,
                &[0b110001, 0b110101],
            ),
            (
                g(C4X, &[5, 0, 3, 1, 2], &[]),
                KernelId::X,
                &[0b101011, 0b101111],
            ),
            (g(CH, &[0, 3], &[]), KernelId::H, &[0b0001, 0b1001]),
            (g(CH, &[3, 0], &[]), KernelId::H, &[0b1000, 0b1001]),
            (g(CY, &[1, 2], &[]), KernelId::Y, &[0b010, 0b110]),
            (g(CY, &[4, 1], &[]), KernelId::Y, &[0b10000, 0b10010]),
            (g(RY, &[2], &[0.3]), KernelId::Ry, &[0, 0b100]),
            (g(CRY, &[0, 3], &[0.3]), KernelId::Ry, &[0b0001, 0b1001]),
            (g(CRY, &[5, 1], &[0.3]), KernelId::Ry, &[0b100000, 0b100010]),
            (g(RX, &[1], &[0.3]), KernelId::Rx, &[0, 0b10]),
            (g(CRX, &[2, 0], &[0.3]), KernelId::Rx, &[0b100, 0b101]),
            (
                g(CU3, &[0, 2], &[0.1, 0.2, 0.3]),
                KernelId::OneQ,
                &[0b001, 0b101],
            ),
            (g(SWAP, &[0, 1], &[]), KernelId::X, &[0b01, 0b10]),
            (g(SWAP, &[4, 2], &[]), KernelId::X, &[0b10000, 0b00100]),
            // The control between the operands, and the operands descending.
            (g(CSWAP, &[2, 1, 4], &[]), KernelId::X, &[0b00110, 0b10100]),
            (g(CSWAP, &[2, 4, 1], &[]), KernelId::X, &[0b10100, 0b00110]),
            (g(RZZ, &[0, 1], &[0.5]), KernelId::Rzz, &[0, 1, 2, 3]),
            (g(RZZ, &[3, 1], &[0.5]), KernelId::Rzz, &[0, 8, 2, 10]),
            (g(RXX, &[0, 1], &[0.5]), KernelId::TwoQ, &[0, 1, 2, 3]),
            (g(RXX, &[5, 2], &[0.5]), KernelId::TwoQ, &[0, 32, 4, 36]),
        ];
        for (gate, id, offs) in cases {
            let mut out = Vec::new();
            compile_gate(&gate, 6, true, &mut out);
            assert_eq!(out.len(), 1, "{gate} should compile to one kernel");
            assert_eq!(out[0].id, id, "{gate}");
            assert_eq!(out[0].args.offs(), offs, "{gate}");
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
            .all(|c| matches!(c.id, KernelId::H | KernelId::Phase | KernelId::X)));
    }

    #[test]
    fn generic_mode_uses_only_dense_kernels() {
        let gates = [
            g(GateKind::H, &[0], &[]),
            g(GateKind::CCX, &[0, 1, 2], &[]),
            g(GateKind::SWAP, &[1, 2], &[]),
            g(GateKind::T, &[2], &[]),
        ];
        let compiled = compile_all(gates.iter(), 4, false);
        assert!(compiled
            .iter()
            .all(|c| matches!(c.id, KernelId::OneQ | KernelId::TwoQ)));
        // CCX lowers to many gates in generic mode.
        assert!(compiled.len() > 10);
        // A generic CX is the dense 4×4 over all four settings of its
        // operands, the control as local bit 0.
        let cx = compile_all([&g(GateKind::CX, &[3, 1], &[])], 4, false);
        assert_eq!(cx[0].id, KernelId::TwoQ);
        assert_eq!(cx[0].args.sorted(), &[1, 3]);
        assert_eq!(cx[0].args.offs(), &[0, 8, 2, 10]);
        let h = compile_all([&g(GateKind::H, &[2], &[])], 4, false);
        assert_eq!(h[0].args.offs(), &[0, 4]);
    }

    #[test]
    fn sorted_and_masks() {
        let mut out = Vec::new();
        compile_gate(&g(GateKind::CCX, &[5, 2, 4], &[]), 8, true, &mut out);
        let a = &out[0].args;
        assert_eq!(a.sorted(), &[2, 4, 5]);
        // Target 4 clear and set, controls 5 and 2 set.
        assert_eq!(a.offs(), &[0b100100, 0b110100]);
    }
}
