//! Elaboration: OpenQASM AST → SV-Sim [`Circuit`].
//!
//! The SV-Sim ISA implements every gate of `qelib1.inc` natively (Table 1),
//! so including it registers builtins rather than parsing library source.
//! User-defined gates are expanded by macro substitution, with parameter
//! expressions evaluated at expansion time — the circuit handed to the
//! backend is always a flat gate stream.

use crate::ast::{Argument, Expr, GateCall, GateDef, Program, Statement};
use crate::parser::parse;
use std::collections::{HashMap, HashSet};
use svsim_ir::{Circuit, Gate, GateKind};
use svsim_types::{SvError, SvResult, MAX_QUBITS};

/// A register: base offset + width in the flat index space.
#[derive(Debug, Clone, Copy)]
struct Reg {
    base: u32,
    size: u32,
}

struct Elaborator {
    qregs: HashMap<String, Reg>,
    cregs: HashMap<String, Reg>,
    gate_defs: HashMap<String, GateDef>,
    opaques: HashSet<String>,
    qelib: bool,
    n_qubits: u32,
    n_cbits: u32,
}

/// Resolve a builtin gate name to its ISA kind.
fn builtin_kind(name: &str, qelib: bool) -> Option<GateKind> {
    // `U` and `CX` are part of the bare language.
    match name {
        "U" => return Some(GateKind::U3),
        "CX" => return Some(GateKind::CX),
        _ => {}
    }
    if !qelib {
        return None;
    }
    // Common aliases used by generators in the wild.
    let canonical = match name {
        "u" => "u3",
        "p" => "u1",
        "cp" => "cu1",
        other => other,
    };
    GateKind::from_mnemonic(canonical)
}

impl Elaborator {
    fn new() -> Self {
        Self {
            qregs: HashMap::new(),
            cregs: HashMap::new(),
            gate_defs: HashMap::new(),
            opaques: HashSet::new(),
            qelib: false,
            n_qubits: 0,
            n_cbits: 0,
        }
    }

    fn qubit_of(&self, arg: &Argument) -> SvResult<Option<(u32, u32)>> {
        // Returns (base, size) of the addressed range: size 1 for indexed.
        let reg = self
            .qregs
            .get(&arg.name)
            .ok_or_else(|| SvError::Undefined(format!("quantum register {}", arg.name)))?;
        match arg.index {
            Some(i) => {
                if i >= u64::from(reg.size) {
                    return Err(SvError::QubitOutOfRange {
                        qubit: i,
                        n_qubits: u64::from(reg.size),
                    });
                }
                Ok(Some((reg.base + i as u32, 1)))
            }
            None => Ok(Some((reg.base, reg.size))),
        }
    }

    fn cbit_of(&self, arg: &Argument) -> SvResult<(u32, u32)> {
        let reg = self
            .cregs
            .get(&arg.name)
            .ok_or_else(|| SvError::Undefined(format!("classical register {}", arg.name)))?;
        match arg.index {
            Some(i) => {
                if i >= u64::from(reg.size) {
                    return Err(SvError::InvalidConfig(format!(
                        "classical index {i} out of range for {}[{}]",
                        arg.name, reg.size
                    )));
                }
                Ok((reg.base + i as u32, 1))
            }
            None => Ok((reg.base, reg.size)),
        }
    }

    /// Apply one gate call with resolved qubit operands.
    fn emit_gate(
        &self,
        circuit: &mut Circuit,
        name: &str,
        params: &[f64],
        qubits: &[u32],
        cond: Option<(u32, u32, u64)>,
        line: usize,
    ) -> SvResult<()> {
        if let Some(kind) = builtin_kind(name, self.qelib) {
            let gate = Gate::new(kind, qubits, params).map_err(|e| SvError::Parse {
                line,
                col: 1,
                msg: e.to_string(),
            })?;
            return match cond {
                Some((lo, len, value)) => circuit.if_eq(lo, len, value, gate),
                None => circuit.push_gate(gate),
            };
        }
        if self.opaques.contains(name) {
            return Err(SvError::Undefined(format!(
                "opaque gate {name} has no simulable definition"
            )));
        }
        let def = self
            .gate_defs
            .get(name)
            .ok_or_else(|| SvError::Undefined(format!("gate {name}")))?;
        if def.params.len() != params.len() {
            return Err(SvError::Arity {
                gate: name.into(),
                expected: def.params.len(),
                got: params.len(),
            });
        }
        if def.qargs.len() != qubits.len() {
            return Err(SvError::Arity {
                gate: name.into(),
                expected: def.qargs.len(),
                got: qubits.len(),
            });
        }
        let pmap: HashMap<&str, f64> = def
            .params
            .iter()
            .map(String::as_str)
            .zip(params.iter().copied())
            .collect();
        let qmap: HashMap<&str, u32> = def
            .qargs
            .iter()
            .map(String::as_str)
            .zip(qubits.iter().copied())
            .collect();
        for call in def.body.clone() {
            let vals = eval_params(&call.params, &|n| pmap.get(n).copied())?;
            let inner_qubits: Vec<u32> = call
                .args
                .iter()
                .map(|a| {
                    if a.index.is_some() {
                        Err(SvError::Parse {
                            line: call.line,
                            col: 1,
                            msg: "indexed arguments are not allowed inside gate bodies".into(),
                        })
                    } else {
                        qmap.get(a.name.as_str())
                            .copied()
                            .ok_or_else(|| SvError::Undefined(format!("gate argument {}", a.name)))
                    }
                })
                .collect::<SvResult<_>>()?;
            self.emit_gate(circuit, &call.name, &vals, &inner_qubits, cond, call.line)?;
        }
        Ok(())
    }

    /// Apply a top-level call with register broadcasting.
    fn apply_call(
        &self,
        circuit: &mut Circuit,
        call: &GateCall,
        cond: Option<(u32, u32, u64)>,
    ) -> SvResult<()> {
        let params = eval_params(&call.params, &|_| None)?;
        // Resolve each argument to (base, size).
        let resolved: Vec<(u32, u32)> = call
            .args
            .iter()
            .map(|a| Ok(self.qubit_of(a)?.expect("quantum arg")))
            .collect::<SvResult<_>>()?;
        let bcast = resolved
            .iter()
            .map(|&(_, s)| s)
            .find(|&s| s > 1)
            .unwrap_or(1);
        for (_, s) in &resolved {
            if *s != 1 && *s != bcast {
                return Err(SvError::Parse {
                    line: call.line,
                    col: 1,
                    msg: format!("mismatched register widths in broadcast ({s} vs {bcast})"),
                });
            }
        }
        for k in 0..bcast {
            let qubits: Vec<u32> = resolved
                .iter()
                .map(|&(b, s)| if s == 1 { b } else { b + k })
                .collect();
            self.emit_gate(circuit, &call.name, &params, &qubits, cond, call.line)?;
        }
        Ok(())
    }

    fn statement(&mut self, circuit: &mut Circuit, stmt: &Statement) -> SvResult<()> {
        match stmt {
            Statement::QReg { .. } | Statement::CReg { .. } | Statement::Include(_) => {
                unreachable!("handled in the first pass")
            }
            // OpenQASM 2 lets a body call only built-ins and gates declared
            // before it, so expansion always ends: no gate reaches itself.
            Statement::GateDef(def) => {
                let name = &def.name;
                if self.gate_defs.contains_key(name) {
                    return Err(SvError::InvalidConfig(format!("gate {name} redeclared")));
                }
                let known = |call: &str| {
                    builtin_kind(call, self.qelib).is_some()
                        || self.gate_defs.contains_key(call)
                        || self.opaques.contains(call)
                };
                if let Some(call) = def.body.iter().find(|call| !known(&call.name)) {
                    return Err(SvError::Undefined(format!(
                        "gate {} called in the body of gate {name} before its declaration",
                        call.name
                    )));
                }
                self.gate_defs.insert(name.clone(), def.clone());
                Ok(())
            }
            Statement::Opaque { name } => {
                self.opaques.insert(name.clone());
                Ok(())
            }
            Statement::Call(call) => self.apply_call(circuit, call, None),
            Statement::Measure { qarg, carg } => {
                let (qb, qs) = self.qubit_of(qarg)?.expect("quantum arg");
                let (cb, cs) = self.cbit_of(carg)?;
                if qs != cs {
                    return Err(SvError::InvalidConfig(format!(
                        "measure width mismatch: {qs} qubits -> {cs} cbits"
                    )));
                }
                for k in 0..qs {
                    circuit.measure(qb + k, cb + k)?;
                }
                Ok(())
            }
            Statement::Reset { qarg } => {
                let (qb, qs) = self.qubit_of(qarg)?.expect("quantum arg");
                for k in 0..qs {
                    circuit.reset(qb + k)?;
                }
                Ok(())
            }
            Statement::Barrier { qargs } => {
                let mut qubits = Vec::new();
                for a in qargs {
                    let (b, s) = self.qubit_of(a)?.expect("quantum arg");
                    qubits.extend(b..b + s);
                }
                circuit.barrier(&qubits);
                Ok(())
            }
            Statement::If { creg, value, body } => {
                let reg = self
                    .cregs
                    .get(creg)
                    .ok_or_else(|| SvError::Undefined(format!("classical register {creg}")))?;
                let cond = Some((reg.base, reg.size, *value));
                match &**body {
                    Statement::Call(call) => self.apply_call(circuit, call, cond),
                    _ => Err(SvError::InvalidConfig(
                        "only gate calls may be conditioned with `if`".into(),
                    )),
                }
            }
        }
    }
}

fn eval_params(exprs: &[Expr], bind: &dyn Fn(&str) -> Option<f64>) -> SvResult<Vec<f64>> {
    exprs.iter().map(|e| e.eval(bind)).collect()
}

/// Elaborate a parsed program into a flat circuit.
///
/// # Errors
/// Undefined symbols, arity mismatches, range violations.
pub fn elaborate(program: &Program) -> SvResult<Circuit> {
    let mut el = Elaborator::new();
    // First pass: registers and includes (sizes must be known up front).
    for stmt in &program.statements {
        let (regs, total, what, name, size) = match stmt {
            Statement::QReg { name, size } => {
                (&mut el.qregs, &mut el.n_qubits, "quantum", name, size)
            }
            Statement::CReg { name, size } => {
                (&mut el.cregs, &mut el.n_cbits, "classical", name, size)
            }
            Statement::Include(path) => {
                if path.contains("qelib1") {
                    el.qelib = true;
                    continue;
                }
                return Err(SvError::Undefined(format!(
                    "include \"{path}\" (only qelib1.inc is built in)"
                )));
            }
            _ => continue,
        };
        // Every bit of every register has a `u32` index, and the quantum
        // ones fit one state vector: refused at the register that crosses
        // either bound, before any statement can act on it.
        let base = *total;
        let fits = |size: &u32| base.checked_add(*size).is_some();
        let Some(size) = u32::try_from(*size).ok().filter(fits) else {
            return Err(SvError::InvalidConfig(format!(
                "{what} register {name}[{size}]: its bits would be numbered past {}",
                u32::MAX
            )));
        };
        if what == "quantum" && base + size > MAX_QUBITS {
            return Err(SvError::InvalidConfig(format!(
                "quantum register {name}[{size}]: {} qubits in all; a state vector holds at most {MAX_QUBITS} (2^{MAX_QUBITS} amplitudes)",
                base + size
            )));
        }
        *total = base + size;
        if regs.insert(name.clone(), Reg { base, size }).is_some() {
            return Err(SvError::InvalidConfig(format!(
                "{what} register {name} redeclared"
            )));
        }
    }
    let mut circuit = Circuit::with_cbits(el.n_qubits, el.n_cbits);
    for stmt in &program.statements {
        match stmt {
            Statement::QReg { .. } | Statement::CReg { .. } | Statement::Include(_) => {}
            other => el.statement(&mut circuit, other)?,
        }
    }
    Ok(circuit)
}

/// Parse and elaborate OpenQASM 2.0 source into a circuit in one call.
///
/// # Errors
/// Lexical, syntactic, or semantic errors with source locations where
/// available.
pub fn parse_circuit(src: &str) -> SvResult<Circuit> {
    elaborate(&parse(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::Op;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    #[test]
    fn bell_circuit() {
        let c = parse_circuit(&format!(
            "{HEADER}qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;"
        ))
        .unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.n_cbits(), 2);
        let s = c.stats();
        assert_eq!(s.gates, 2);
        assert_eq!(s.measures, 2);
    }

    #[test]
    fn multiple_registers_are_packed() {
        let c = parse_circuit(&format!("{HEADER}qreg a[2];\nqreg b[3];\nx b[0];")).unwrap();
        assert_eq!(c.n_qubits(), 5);
        // b[0] is global qubit 2.
        match &c.ops()[0] {
            Op::Gate(g) => assert_eq!(g.qubits(), &[2]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn broadcast_whole_register() {
        let c = parse_circuit(&format!("{HEADER}qreg q[4];\nh q;")).unwrap();
        assert_eq!(c.stats().gates, 4);
    }

    #[test]
    fn broadcast_mixed_args() {
        // cx q, r broadcasts element-wise; cx q[0], r broadcasts the scalar.
        let c = parse_circuit(&format!(
            "{HEADER}qreg q[2];\nqreg r[2];\ncx q, r;\ncx q[0], r;"
        ))
        .unwrap();
        assert_eq!(c.stats().gates, 4);
        let gates: Vec<Vec<u32>> = c.gates().map(|g| g.qubits().to_vec()).collect();
        assert_eq!(gates[0], vec![0, 2]);
        assert_eq!(gates[1], vec![1, 3]);
        assert_eq!(gates[2], vec![0, 2]);
        assert_eq!(gates[3], vec![0, 3]);
    }

    #[test]
    fn broadcast_width_mismatch_rejected() {
        assert!(parse_circuit(&format!("{HEADER}qreg q[2];\nqreg r[3];\ncx q, r;")).is_err());
    }

    #[test]
    fn user_gate_expansion() {
        let src = format!(
            "{HEADER}qreg q[3];\ngate entangle a, b {{ h a; cx a, b; }}\nentangle q[0], q[2];"
        );
        let c = parse_circuit(&src).unwrap();
        let kinds: Vec<GateKind> = c.gates().map(Gate::kind).collect();
        assert_eq!(kinds, vec![GateKind::H, GateKind::CX]);
        let quads: Vec<Vec<u32>> = c.gates().map(|g| g.qubits().to_vec()).collect();
        assert_eq!(quads[1], vec![0, 2]);
    }

    #[test]
    fn parameterized_user_gate() {
        let src = format!(
            "{HEADER}qreg q[1];\ngate tilt(t) a {{ rz(t/2) a; rz(-t/2) a; rz(t) a; }}\ntilt(0.8) q[0];"
        );
        let c = parse_circuit(&src).unwrap();
        let params: Vec<f64> = c.gates().map(|g| g.params()[0]).collect();
        assert_eq!(params, vec![0.4, -0.4, 0.8]);
    }

    #[test]
    fn nested_user_gates() {
        let src = format!(
            "{HEADER}qreg q[2];\n\
             gate inner a {{ h a; }}\n\
             gate outer a, b {{ inner a; cx a, b; inner b; }}\n\
             outer q[0], q[1];"
        );
        let c = parse_circuit(&src).unwrap();
        assert_eq!(c.stats().gates, 3);
    }

    #[test]
    fn a_gate_body_calls_only_what_was_declared_before_it() {
        for (defs, culprit, host) in [
            ("gate g a { g a; }", "g", "g"),
            ("gate a x { b x; }\ngate b x { a x; }", "b", "a"),
            ("gate f a { h a; }\ngate g a { f a; late a; }", "late", "g"),
        ] {
            let src = format!("{HEADER}qreg q[1];\n{defs}\nh q[0];");
            match parse_circuit(&src) {
                Err(SvError::Undefined(msg)) => assert_eq!(
                    msg,
                    format!(
                        "gate {culprit} called in the body of gate {host} before its declaration"
                    )
                ),
                other => panic!("{defs}: {other:?}"),
            }
        }
        // Redeclaring a gate would let an earlier body reach a later one.
        let src = format!(
            "{HEADER}qreg q[1];\ngate f a {{ h a; }}\ngate g a {{ f a; }}\ngate f a {{ g a; }}"
        );
        assert!(matches!(
            parse_circuit(&src),
            Err(SvError::InvalidConfig(msg)) if msg == "gate f redeclared"
        ));
        // Built-ins, opaque gates and earlier gates are fine.
        let src = format!("{HEADER}qreg q[1];\nopaque o a;\ngate f a {{ h a; }}\ngate g a {{ f a; o a; U(0,0,0) a; }}");
        assert!(parse_circuit(&src).is_ok());
    }

    #[test]
    fn register_widths_never_wrap() {
        for (regs, culprit) in [
            ("qreg q[4294967297];", "quantum register q[4294967297]"),
            ("qreg q[4294967296];", "quantum register q[4294967296]"),
            (
                "qreg q[1];\ncreg a[2147483648];\ncreg b[2147483648];",
                "classical register b[2147483648]",
            ),
            (
                "qreg q[1];\ncreg c[18446744073709551615];",
                "classical register c[",
            ),
        ] {
            match parse_circuit(&format!("{HEADER}{regs}\nh q[0];")) {
                Err(SvError::InvalidConfig(msg)) => {
                    assert!(msg.starts_with(culprit), "{regs}: {msg}");
                    assert!(msg.ends_with("numbered past 4294967295"), "{msg}");
                }
                other => panic!("{regs}: {other:?}"),
            }
        }
        // The quantum registers fit one state vector: refused at the
        // declaration that crosses 63 qubits, before a broadcast or a
        // barrier could list every qubit of it.
        for (regs, culprit) in [
            ("qreg q[64];", "quantum register q[64]: 64 qubits"),
            (
                "qreg a[60];\nqreg b[4];",
                "quantum register b[4]: 64 qubits",
            ),
            (
                "qreg a[2147483648];\nqreg b[2147483648];",
                "quantum register a[2147483648]: 2147483648 qubits",
            ),
            (
                "qreg a[4294967294];\nqreg b[1];",
                "quantum register a[4294967294]: 4294967294 qubits",
            ),
        ] {
            for body in ["h a;", "barrier a;", "h q;"] {
                match parse_circuit(&format!("{HEADER}{regs}\n{body}")) {
                    Err(SvError::InvalidConfig(msg)) => {
                        assert!(msg.starts_with(culprit), "{regs}: {msg}");
                        assert!(msg.ends_with("holds at most 63 (2^63 amplitudes)"), "{msg}");
                    }
                    other => panic!("{regs} {body}: {other:?}"),
                }
            }
        }
        let c = parse_circuit(&format!(
            "{HEADER}qreg a[62];\nqreg b[1];\nh a;\nbarrier b;"
        ))
        .unwrap();
        assert_eq!((c.n_qubits(), c.gates().count()), (63, 62));
    }

    #[test]
    fn non_finite_angles_are_refused() {
        for angle in ["1e400", "0/0", "-1e400", "ln(0)"] {
            let src = format!("{HEADER}qreg q[1];\nrz({angle}) q[0];");
            let err = parse_circuit(&src).unwrap_err();
            assert!(
                matches!(&err, SvError::Parse { line: 4, msg, .. } if msg.contains("gate rz: parameter 0 is")),
                "{angle}: {err:?}"
            );
        }
    }

    #[test]
    fn u_and_cx_builtins_without_include() {
        let c = parse_circuit("qreg q[2];\nU(0.1, 0.2, 0.3) q[0];\nCX q[0], q[1];").unwrap();
        let kinds: Vec<GateKind> = c.gates().map(Gate::kind).collect();
        assert_eq!(kinds, vec![GateKind::U3, GateKind::CX]);
        // qelib names are NOT available without the include.
        assert!(parse_circuit("qreg q[1];\nh q[0];").is_err());
    }

    #[test]
    fn conditionals() {
        let src =
            format!("{HEADER}qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nif (c == 1) x q[1];");
        let c = parse_circuit(&src).unwrap();
        match &c.ops()[1] {
            Op::IfEq {
                creg_lo,
                creg_len,
                value,
                gate,
            } => {
                assert_eq!((*creg_lo, *creg_len, *value), (0, 2, 1));
                assert_eq!(gate.kind(), GateKind::X);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn opaque_calls_rejected() {
        let src = format!("{HEADER}qreg q[1];\nopaque magic a;\nmagic q[0];");
        assert!(matches!(
            parse_circuit(&src),
            Err(SvError::Undefined(msg)) if msg.contains("opaque")
        ));
    }

    #[test]
    fn reset_and_barrier() {
        let src = format!("{HEADER}qreg q[2];\nreset q;\nbarrier q[0], q[1];");
        let c = parse_circuit(&src).unwrap();
        assert!(matches!(c.ops()[0], Op::Reset { qubit: 0 }));
        assert!(matches!(c.ops()[1], Op::Reset { qubit: 1 }));
        assert!(matches!(&c.ops()[2], Op::Barrier(qs) if qs == &vec![0, 1]));
    }

    #[test]
    fn out_of_range_index() {
        assert!(parse_circuit(&format!("{HEADER}qreg q[2];\nx q[5];")).is_err());
    }

    #[test]
    fn redeclared_register() {
        assert!(parse_circuit(&format!("{HEADER}qreg q[2];\nqreg q[2];")).is_err());
    }

    #[test]
    fn all_table1_gates_parse() {
        let src = format!(
            "{HEADER}qreg q[5];\n\
             u3(0.1,0.2,0.3) q[0]; u2(0.1,0.2) q[0]; u1(0.1) q[0]; cx q[0],q[1]; id q[0];\n\
             x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\n\
             rx(0.1) q[0]; ry(0.1) q[0]; rz(0.1) q[0]; cz q[0],q[1]; cy q[0],q[1];\n\
             swap q[0],q[1]; ch q[0],q[1]; ccx q[0],q[1],q[2]; cswap q[0],q[1],q[2];\n\
             crx(0.1) q[0],q[1]; cry(0.1) q[0],q[1]; crz(0.1) q[0],q[1];\n\
             cu1(0.1) q[0],q[1]; cu3(0.1,0.2,0.3) q[0],q[1]; rxx(0.1) q[0],q[1];\n\
             rzz(0.1) q[0],q[1]; rccx q[0],q[1],q[2]; rc3x q[0],q[1],q[2],q[3];\n\
             c3x q[0],q[1],q[2],q[3]; c3sqrtx q[0],q[1],q[2],q[3]; c4x q[0],q[1],q[2],q[3],q[4];"
        );
        let c = parse_circuit(&src).unwrap();
        assert_eq!(c.stats().gates, 34);
    }
}
