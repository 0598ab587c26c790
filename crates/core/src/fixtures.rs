//! What the kernel tests and the traffic tests both sweep: one list of
//! compiled gates covering every body and footprint shape, and a view that
//! records each access made through it.

use crate::compile::{compile_gate, CompiledGate};
use crate::view::StateView;
use std::cell::RefCell;
use std::ops::Range;
use svsim_ir::{Gate, GateKind};

/// The one kernel `kind` on `qubits` with angles `params` compiles to over
/// `n` qubits.
pub(crate) fn compiled_one(kind: GateKind, qubits: &[u32], params: &[f64], n: u32) -> CompiledGate {
    let gate = Gate::new(kind, qubits, params).unwrap();
    let mut out = Vec::new();
    compile_gate(&gate, n, true, &mut out);
    assert_eq!(out.len(), 1);
    out.pop().unwrap()
}

/// The kernels `gates` compile to over `n` qubits, in order.
pub(crate) fn compile_all<'a>(
    gates: impl IntoIterator<Item = &'a Gate>,
    n: u32,
    specialized: bool,
) -> Vec<CompiledGate> {
    let mut out = Vec::new();
    for gate in gates {
        compile_gate(gate, n, specialized, &mut out);
    }
    out
}

/// Every kernel, its lowest qubit at `qmin` and the others above it in
/// both operand orders (control below the target and above it, a Fredkin's
/// control below, between and above its operands), plain and
/// multi-controlled. Gates that do not fit below `n` are left out.
pub(crate) fn kernels_anchored_at(qmin: u32, n: u32) -> Vec<CompiledGate> {
    use GateKind::*;
    type Spec = (GateKind, Vec<u32>, &'static [f64]);
    let up = |k: u32| qmin + k;
    let (a, b, c) = (qmin, up(1), up(2));
    let far = n - 1;
    let gates: Vec<Spec> = vec![
        (X, vec![a], &[]),
        (Y, vec![a], &[]),
        (Z, vec![a], &[]),
        (H, vec![a], &[]),
        (T, vec![a], &[]),
        (RZ, vec![a], &[0.3]),
        (RY, vec![a], &[0.3]),
        (RX, vec![a], &[0.8]),
        (U3, vec![a], &[0.1, 0.2, 0.3]),
        (CX, vec![a, far], &[]),
        (CX, vec![far, a], &[]),
        (CU1, vec![a, b], &[0.37]),
        (CZ, vec![far, a], &[]),
        (CRZ, vec![a, far], &[0.7]),
        (CRZ, vec![b, a], &[0.7]),
        (CRY, vec![far, a], &[0.9]),
        (CRY, vec![a, b], &[0.9]),
        (CRX, vec![b, a], &[-1.3]),
        (CCX, vec![a, far, b], &[]),
        (CCX, vec![c, b, a], &[]),
        (C4X, vec![up(4), a, up(3), b, c], &[]),
        (SWAP, vec![a, far], &[]),
        (SWAP, vec![b, a], &[]),
        (CSWAP, vec![b, a, c], &[]),
        (CSWAP, vec![a, c, b], &[]),
        (CSWAP, vec![far, b, a], &[]),
        (RZZ, vec![a, far], &[0.4]),
        (RXX, vec![b, a], &[0.9]),
    ];
    let mut queue = Vec::new();
    for (kind, qubits, params) in gates {
        let distinct = (1..qubits.len()).all(|i| !qubits[..i].contains(&qubits[i]));
        if distinct && qubits.iter().all(|&q| q < n) {
            let gate = Gate::new(kind, &qubits, params).unwrap();
            compile_gate(&gate, n, true, &mut queue);
        }
    }
    queue
}

/// Every gate with two operands on qubits 0-2, in both orders: a control and
/// a target (specialized, and as the dense matrix the generic mode runs,
/// which unlike `RXX` tells its operands apart), a controlled phase, a
/// two-qubit matrix, and Toffoli and Fredkin gates whose third operand is
/// the top qubit (a control, a target, a swapped qubit) — the kernels with
/// two involved qubits inside one chunk of a lent stretch.
pub(crate) fn low_pairs(n: u32) -> Vec<CompiledGate> {
    use GateKind::*;
    let far = n - 1;
    let mut queue = Vec::new();
    for p in 0..3 {
        for q in (0..3).filter(|&q| q != p) {
            let gates: [(GateKind, [u32; 3], &[f64]); 7] = [
                (CX, [p, q, 0], &[]),
                (CU1, [p, q, 0], &[0.37]),
                (RXX, [p, q, 0], &[0.9]),
                (CCX, [p, q, far], &[]),
                (CCX, [p, far, q], &[]),
                (CSWAP, [p, q, far], &[]),
                (CSWAP, [far, p, q], &[]),
            ];
            for (kind, qubits, params) in gates {
                let gate = Gate::new(kind, &qubits[..kind.n_qubits()], params).unwrap();
                compile_gate(&gate, n, true, &mut queue);
                if kind == CX {
                    compile_gate(&gate, n, false, &mut queue);
                }
            }
        }
    }
    queue
}

/// Logs every access a kernel makes, in order: `(is a store, index)`.
pub(crate) struct Recorder {
    dim: u64,
    log: RefCell<Vec<(bool, u64)>>,
}

impl StateView for Recorder {
    fn dim(&self) -> u64 {
        self.dim
    }
    fn get(&self, idx: u64) -> (f64, f64) {
        assert!(idx < self.dim);
        self.log.borrow_mut().push((false, idx));
        (0.0, 0.0)
    }
    fn set(&self, idx: u64, _: f64, _: f64) {
        assert!(idx < self.dim);
        self.log.borrow_mut().push((true, idx));
    }
}

/// The accesses `cg` makes over `items` of a `dim`-amplitude view.
pub(crate) fn accesses(cg: &CompiledGate, dim: u64, items: Range<u64>) -> Vec<(bool, u64)> {
    let rec = Recorder {
        dim,
        log: Vec::new().into(),
    };
    crate::dispatch::resolve::<Recorder>(cg.id)(&rec, &cg.args, items);
    rec.log.into_inner()
}
