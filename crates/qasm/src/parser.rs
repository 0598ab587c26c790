//! Recursive-descent parser for OpenQASM 2.0.

use crate::ast::{Argument, BinOp, Expr, GateCall, GateDef, Program, Statement, UnaryFn};
use crate::lexer::{tokenize, Token, TokenKind};
use svsim_types::{SvError, SvResult};

/// How deep an expression may nest. A parenthesis, a function call, a sign,
/// an exponent and each further operand of a `+ - * /` chain is one level.
/// The bound keeps the parser's recursion, and the walks of the tree it
/// builds (`Expr::eval`, its drop), off the end of the stack.
const MAX_EXPR_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression levels open at `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> SvError {
        let t = self.peek();
        SvError::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> SvResult<Token> {
        if &self.peek().kind == kind {
            Ok(self.next())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> SvResult<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.next();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn expect_int(&mut self) -> SvResult<u64> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.next();
                Ok(v)
            }
            ref other => Err(self.error(format!("expected integer, found {}", other.describe()))),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.next();
            true
        } else {
            false
        }
    }

    // ---- expressions ------------------------------------------------

    /// Open one more expression level ([`MAX_EXPR_DEPTH`]).
    fn nest(&mut self) -> SvResult<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// Parse with `f` one expression level down.
    fn nested(&mut self, f: fn(&mut Self) -> SvResult<Expr>) -> SvResult<Expr> {
        self.nest()?;
        let e = f(self);
        self.depth -= 1;
        e
    }

    fn expr(&mut self) -> SvResult<Expr> {
        self.nested(Self::additive)
    }

    /// A left-associative chain of `next` operands joined by `op`'s
    /// operators: each further operand nests the tree one level deeper.
    fn chain(
        &mut self,
        next: fn(&mut Self) -> SvResult<Expr>,
        op: fn(&TokenKind) -> Option<BinOp>,
    ) -> SvResult<Expr> {
        let depth = self.depth;
        let mut lhs = next(self)?;
        while let Some(op) = op(&self.peek().kind) {
            self.next();
            self.nest()?;
            let rhs = next(self)?;
            lhs = Expr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn additive(&mut self) -> SvResult<Expr> {
        self.chain(Self::multiplicative, |kind| match kind {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> SvResult<Expr> {
        self.chain(Self::power, |kind| match kind {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    fn power(&mut self) -> SvResult<Expr> {
        let base = self.unary()?;
        if self.eat(&TokenKind::Caret) {
            // Right-associative.
            let exp = self.nested(Self::power)?;
            Ok(Expr::Bin(Box::new(base), BinOp::Pow, Box::new(exp)))
        } else {
            Ok(base)
        }
    }

    fn unary(&mut self) -> SvResult<Expr> {
        if self.eat(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.nested(Self::unary)?)));
        }
        if self.eat(&TokenKind::Plus) {
            return self.nested(Self::unary);
        }
        self.atom()
    }

    fn atom(&mut self) -> SvResult<Expr> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.next();
                Ok(Expr::Num(v as f64))
            }
            TokenKind::Real(v) => {
                self.next();
                Ok(Expr::Num(v))
            }
            TokenKind::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.next();
                if name == "pi" {
                    return Ok(Expr::Pi);
                }
                if let Some(f) = UnaryFn::from_name(&name) {
                    self.expect(&TokenKind::LParen)?;
                    let e = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Call(f, Box::new(e)));
                }
                Ok(Expr::Ident(name))
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }

    // ---- arguments ---------------------------------------------------

    fn argument(&mut self) -> SvResult<Argument> {
        let name = self.expect_ident()?;
        let index = if self.eat(&TokenKind::LBracket) {
            let i = self.expect_int()?;
            self.expect(&TokenKind::RBracket)?;
            Some(i)
        } else {
            None
        };
        Ok(Argument { name, index })
    }

    fn argument_list(&mut self) -> SvResult<Vec<Argument>> {
        let mut args = vec![self.argument()?];
        while self.eat(&TokenKind::Comma) {
            args.push(self.argument()?);
        }
        Ok(args)
    }

    // ---- statements --------------------------------------------------

    fn gate_call(&mut self, name: String, line: usize) -> SvResult<GateCall> {
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
            params.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                params.push(self.expr()?);
            }
            self.expect(&TokenKind::RParen)?;
        }
        let args = self.argument_list()?;
        self.expect(&TokenKind::Semicolon)?;
        Ok(GateCall {
            name,
            params,
            args,
            line,
        })
    }

    fn quantum_op(&mut self) -> SvResult<Statement> {
        let tok = self.peek().clone();
        let name = self.expect_ident()?;
        match name.as_str() {
            "measure" => {
                let qarg = self.argument()?;
                self.expect(&TokenKind::Arrow)?;
                let carg = self.argument()?;
                self.expect(&TokenKind::Semicolon)?;
                Ok(Statement::Measure { qarg, carg })
            }
            "reset" => {
                let qarg = self.argument()?;
                self.expect(&TokenKind::Semicolon)?;
                Ok(Statement::Reset { qarg })
            }
            _ => Ok(Statement::Call(self.gate_call(name, tok.line)?)),
        }
    }

    fn gate_def(&mut self) -> SvResult<GateDef> {
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
            params.push(self.expect_ident()?);
            while self.eat(&TokenKind::Comma) {
                params.push(self.expect_ident()?);
            }
            self.expect(&TokenKind::RParen)?;
        }
        let mut qargs = vec![self.expect_ident()?];
        while self.eat(&TokenKind::Comma) {
            qargs.push(self.expect_ident()?);
        }
        self.expect(&TokenKind::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let tok = self.peek().clone();
            let gname = self.expect_ident()?;
            if gname == "barrier" {
                // Barriers inside definitions are scheduling hints; skip the
                // argument list.
                let _ = self.argument_list()?;
                self.expect(&TokenKind::Semicolon)?;
                continue;
            }
            body.push(self.gate_call(gname, tok.line)?);
        }
        Ok(GateDef {
            name,
            params,
            qargs,
            body,
        })
    }

    fn statement(&mut self) -> SvResult<Statement> {
        let tok = self.peek().clone();
        match &tok.kind {
            TokenKind::Ident(name) => match name.as_str() {
                "qreg" | "creg" => {
                    let is_q = name == "qreg";
                    self.next();
                    let rname = self.expect_ident()?;
                    self.expect(&TokenKind::LBracket)?;
                    let size = self.expect_int()?;
                    self.expect(&TokenKind::RBracket)?;
                    self.expect(&TokenKind::Semicolon)?;
                    if is_q {
                        Ok(Statement::QReg { name: rname, size })
                    } else {
                        Ok(Statement::CReg { name: rname, size })
                    }
                }
                "include" => {
                    self.next();
                    let path = match self.peek().kind.clone() {
                        TokenKind::Str(s) => {
                            self.next();
                            s
                        }
                        other => {
                            return Err(
                                self.error(format!("expected string, found {}", other.describe()))
                            )
                        }
                    };
                    self.expect(&TokenKind::Semicolon)?;
                    Ok(Statement::Include(path))
                }
                "gate" => {
                    self.next();
                    Ok(Statement::GateDef(self.gate_def()?))
                }
                "opaque" => {
                    self.next();
                    let gname = self.expect_ident()?;
                    // Skip to the semicolon: opaque gates cannot be simulated.
                    while self.peek().kind != TokenKind::Semicolon
                        && self.peek().kind != TokenKind::Eof
                    {
                        self.next();
                    }
                    self.expect(&TokenKind::Semicolon)?;
                    Ok(Statement::Opaque { name: gname })
                }
                "barrier" => {
                    self.next();
                    let qargs = if self.peek().kind == TokenKind::Semicolon {
                        Vec::new()
                    } else {
                        self.argument_list()?
                    };
                    self.expect(&TokenKind::Semicolon)?;
                    Ok(Statement::Barrier { qargs })
                }
                "if" => {
                    self.next();
                    self.expect(&TokenKind::LParen)?;
                    let creg = self.expect_ident()?;
                    self.expect(&TokenKind::EqEq)?;
                    let value = self.expect_int()?;
                    self.expect(&TokenKind::RParen)?;
                    let body = self.quantum_op()?;
                    Ok(Statement::If {
                        creg,
                        value,
                        body: Box::new(body),
                    })
                }
                _ => self.quantum_op(),
            },
            other => Err(self.error(format!("unexpected {}", other.describe()))),
        }
    }

    fn program(&mut self) -> SvResult<Program> {
        let mut prog = Program::default();
        if self.eat(&TokenKind::OpenQasm) {
            match self.peek().kind {
                TokenKind::Real(v) => {
                    prog.version = Some(v);
                    self.next();
                }
                TokenKind::Int(v) => {
                    prog.version = Some(v as f64);
                    self.next();
                }
                _ => return Err(self.error("expected version number after OPENQASM")),
            }
            self.expect(&TokenKind::Semicolon)?;
        }
        while self.peek().kind != TokenKind::Eof {
            prog.statements.push(self.statement()?);
        }
        Ok(prog)
    }
}

/// Parse OpenQASM 2.0 source into an AST.
///
/// # Errors
/// [`SvError::Parse`] with source location on any syntax error.
pub fn parse(src: &str) -> SvResult<Program> {
    let tokens = tokenize(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program() {
        let p = parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];").unwrap();
        assert_eq!(p.version, Some(2.0));
        assert_eq!(p.statements.len(), 6);
        assert!(matches!(
            &p.statements[1],
            Statement::QReg { name, size: 2 } if name == "q"
        ));
        assert!(matches!(&p.statements[5], Statement::Measure { .. }));
    }

    #[test]
    fn parameterized_call() {
        let p = parse("rz(pi/4) q[1];").unwrap();
        match &p.statements[0] {
            Statement::Call(c) => {
                assert_eq!(c.name, "rz");
                assert_eq!(c.params.len(), 1);
                let v = c.params[0].eval(&|_| None).unwrap();
                assert!((v - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
                assert_eq!(c.args[0].index, Some(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn whole_register_call() {
        let p = parse("h q;").unwrap();
        match &p.statements[0] {
            Statement::Call(c) => assert_eq!(c.args[0].index, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gate_definition() {
        let src = "gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }";
        let p = parse(src).unwrap();
        match &p.statements[0] {
            Statement::GateDef(d) => {
                assert_eq!(d.name, "majority");
                assert_eq!(d.qargs, vec!["a", "b", "c"]);
                assert_eq!(d.body.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parameterized_gate_definition() {
        let src = "gate myrot(theta, phi) a { rz(theta) a; ry(phi/2) a; }";
        let p = parse(src).unwrap();
        match &p.statements[0] {
            Statement::GateDef(d) => {
                assert_eq!(d.params, vec!["theta", "phi"]);
                assert_eq!(d.body.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_statement() {
        let p = parse("if (c == 3) x q[0];").unwrap();
        match &p.statements[0] {
            Statement::If { creg, value, body } => {
                assert_eq!(creg, "c");
                assert_eq!(*value, 3);
                assert!(matches!(**body, Statement::Call(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn barrier_forms() {
        let p = parse("barrier;\nbarrier q;\nbarrier q[0], r[1];").unwrap();
        assert_eq!(p.statements.len(), 3);
        match &p.statements[2] {
            Statement::Barrier { qargs } => assert_eq!(qargs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn opaque_is_recorded() {
        let p = parse("opaque magic(a, b) q, r;").unwrap();
        assert!(matches!(&p.statements[0], Statement::Opaque { name } if name == "magic"));
    }

    #[test]
    fn error_has_location() {
        let e = parse("qreg q[;").unwrap_err();
        match e {
            SvError::Parse { line: 1, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let p = parse("rz(1 + 2 * 3 ^ 2) q[0];").unwrap();
        match &p.statements[0] {
            Statement::Call(c) => {
                assert_eq!(c.params[0].eval(&|_| None).unwrap(), 19.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_nesting_is_bounded_with_a_location() {
        let call = |expr: String| format!("qreg q[1];\nrz({expr}) q[0];");
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        // As deep as allowed: the call's expression and 255 parentheses.
        let p = parse(&call(parens(MAX_EXPR_DEPTH - 1))).unwrap();
        let Statement::Call(c) = &p.statements[1] else {
            panic!("{:?}", p.statements[1])
        };
        assert_eq!(c.params[0].eval(&|_| None).unwrap(), 1.0);
        assert!(parse(&call(format!("-{}", "-1+".repeat(100) + "1"))).is_ok());
        for (what, expr) in [
            ("parentheses", parens(MAX_EXPR_DEPTH)),
            ("10 000 parentheses", parens(10_000)),
            ("a sign chain", "-".repeat(100_000) + "1"),
            ("an exponent chain", "1^".repeat(100_000) + "1"),
            ("a sum", "1+".repeat(100_000) + "1"),
            (
                "a function chain",
                "sin(".repeat(10_000) + "1" + &")".repeat(10_000),
            ),
        ] {
            match parse(&call(expr)) {
                Err(SvError::Parse { line: 2, col, msg }) => {
                    assert!(col > 3, "{what}: column {col}");
                    assert!(msg.contains("nested deeper than 256"), "{what}: {msg}");
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn unary_minus_and_functions() {
        let p = parse("rz(-cos(0)) q[0];").unwrap();
        match &p.statements[0] {
            Statement::Call(c) => {
                assert_eq!(c.params[0].eval(&|_| None).unwrap(), -1.0);
            }
            other => panic!("{other:?}"),
        }
    }
}
