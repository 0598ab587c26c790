//! `svsim-lint`: a source scanner enforcing workspace invariants the
//! compiler cannot (`sv-sim lint`, CI's `lint` leg).
//!
//! Five rules:
//!
//! - **R1 `unsafe-confined`** — `unsafe` appears only in the shmem
//!   substrate modules that own raw memory or process state
//!   (`proc.rs`, `shared.rs`, `metrics.rs`), in the benchmark's
//!   counting allocator (`benchmark/src/alloc.rs`), in the one core
//!   file that borrows partition words as plain memory
//!   (`crates/core/src/exec.rs`, the call sites of
//!   `SharedF64Vec::as_cells`), and in the kernel layer
//!   (`crates/core/src/kernels.rs`), whose stamping macro enters a
//!   kernel body compiled under a wider `#[target_feature]` — a call
//!   the language makes `unsafe` because only the `is_x86_feature_detected!`
//!   on the line above it proves the CPU has the feature. Everything
//!   else is safe Rust by construction.
//! - **R2 `safety-comment`** — every `unsafe` site in the allowlisted
//!   files carries a nearby `SAFETY:` justification (or a `# Safety`
//!   doc section for `unsafe fn` contracts).
//! - **R3 `ffi-confined`** — raw FFI (`extern "C"`, `libc::`) appears
//!   only in `proc.rs`, the one module allowed to talk to the OS
//!   directly (the workspace links no libc crate; `proc.rs` declares
//!   the handful of syscalls it needs itself).
//! - **R4 `accessor-manifest`** — every one-sided `ShmemCtx` data-plane
//!   accessor, and the borrow a partitioned walk accounts through, is
//!   instrumented: a fault injection point (`transfer_fault`), the race
//!   hook (`trace_*`), and the traffic counter (`count_*`), checked
//!   against the manifest below. Any function touching partition
//!   buffers (`.bufs`) that is *not* in the manifest is flagged, so an
//!   uninstrumented accessor cannot be added silently.
//! - **R5 `retryable-exhaustive`** — `svsim-engine`'s `retryable()`
//!   names every `SvError` variant and has no wildcard arm, so a new
//!   error variant is a lint (and compile) error, not a silently
//!   non-retryable job.
//!
//! The scanner works on comment- and string-stripped source (a small
//! lexer below), so `unsafe` in a doc comment or a string literal never
//! trips a rule. Rules R4/R5 are skipped when their target files are
//! absent (e.g. when pointing the linter at a fixture directory); the
//! workspace self-test asserts all five ran against the real tree.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Finding severity. Errors always fail the lint; warnings fail it only
/// under `--deny-warnings` (which CI passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Invariant broken.
    Error,
    /// Suspicious but not invariant-breaking.
    Warning,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`unsafe-confined`, ...).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// File, relative to the scanned root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{sev}[{}]: {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// The outcome of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, in file order.
    pub findings: Vec<Finding>,
    /// Rules that actually executed (R4/R5 skip on missing targets).
    pub rules_run: Vec<&'static str>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }
}

/// Files allowed to contain `unsafe` (R1): the raw-memory and
/// raw-process substrate of the shmem crate, the benchmark binary's
/// counting `GlobalAlloc` (a trait that cannot be implemented without
/// `unsafe`; it only forwards to `System`), and the partitioned executor,
/// whose one walk lends every partition as plain memory, and so is where
/// `SharedF64Vec::as_cells` (the `shmem_ptr` analog, an `unsafe fn`) is
/// called, under its SAFETY argument (R2); and the kernel layer,
/// whose one `unsafe` (in the `kernel!` macro) is the call from a function
/// compiled at the build's baseline into the same body compiled under a
/// wider `#[target_feature]`, sound because the feature was detected on the
/// line above. Nothing else.
const ALLOW_UNSAFE: &[&str] = &[
    "crates/shmem/src/proc.rs",
    "crates/shmem/src/shared.rs",
    "crates/shmem/src/metrics.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/kernels.rs",
    "benchmark/src/alloc.rs",
];

/// Files allowed raw FFI (R3).
const ALLOW_FFI: &[&str] = &["crates/shmem/src/proc.rs"];

/// The `ShmemCtx` accessor instrumentation manifest (R4): every
/// one-sided data-plane accessor (and the walk's `borrow`) with the calls
/// its body must contain: the fault point (a transfer can be dropped), the
/// race trace and the traffic counter.
const ACCESSOR_MANIFEST: &[(&str, &[&str])] = &[
    ("get_f64", &["transfer_fault", "trace_read", "count_get"]),
    ("put_f64", &["transfer_fault", "trace_write", "count_put"]),
    (
        "get_slice_f64",
        &["transfer_fault", "trace_read_slow", "count_get"],
    ),
    (
        "put_slice_f64",
        &["transfer_fault", "trace_write_slow", "count_put"],
    ),
    (
        "borrow",
        &[
            "transfer_fault",
            "trace_read_slow",
            "trace_write_slow",
            "count_",
        ],
    ),
];

/// Functions allowed to reach partition words *without* instrumentation
/// (R4): the `shmem_ptr` analogs. `partition` and `partitions` hand out
/// one PE's partition or the whole peer pointer table; `as_cells` (an
/// `unsafe fn` of `SharedF64Vec`, so R1 and R2 confine and justify its call
/// sites) turns a partition's words into plain memory. What is true of
/// them: the partitioned walk — the one walk, plain or under a fault plan
/// or the race detector — lets a kernel's share reach any partition's
/// words as plain memory for one barrier epoch: its own partition whole
/// (the slab), or a contiguous run out of whichever partition owns it. On
/// scale-out each such reach, each kernel or tile run on the slab and each
/// side of an exchange piece is one call of the manifested `borrow`, which
/// fault-checks, traces and counts it as the accessors would; scale-up's
/// `PeerView` is plain memory by design (§3.2.2) and counts for itself.
const LOCAL_ACCESS_ALLOW: &[&str] = &["partition", "partitions", "as_cells"];

/// Run every applicable rule over the `.rs` files under `root`.
///
/// # Errors
/// Propagates I/O failures reading the tree.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let files = collect_rs_files(root)?;
    let mut findings = Vec::new();
    let mut rules_run = vec!["unsafe-confined", "safety-comment", "ffi-confined"];

    for path in &files {
        let rel = rel_path(root, path);
        let src = fs::read_to_string(path)?;
        let code = strip_comments_and_strings(&src);
        let raw_lines: Vec<&str> = src.lines().collect();
        let code_lines: Vec<&str> = code.lines().collect();

        if ALLOW_UNSAFE.contains(&rel.as_str()) {
            check_safety_comments(&rel, &raw_lines, &code_lines, &mut findings);
        } else {
            for (i, cl) in code_lines.iter().enumerate() {
                if has_token(cl, "unsafe") {
                    findings.push(Finding {
                        rule: "unsafe-confined",
                        severity: Severity::Error,
                        file: rel.clone(),
                        line: i + 1,
                        message: format!(
                            "`unsafe` outside the substrate allowlist ({})",
                            ALLOW_UNSAFE.join(", ")
                        ),
                    });
                }
            }
        }

        if !ALLOW_FFI.contains(&rel.as_str()) {
            for (i, cl) in code_lines.iter().enumerate() {
                let is_extern_c = has_token(cl, "extern")
                    && raw_lines.get(i).is_some_and(|r| r.contains("extern \"C\""));
                if is_extern_c || cl.contains("libc::") {
                    findings.push(Finding {
                        rule: "ffi-confined",
                        severity: Severity::Error,
                        file: rel.clone(),
                        line: i + 1,
                        message: "raw FFI (`extern \"C\"`/`libc::`) outside proc.rs".into(),
                    });
                }
            }
        }
    }

    let world = root.join("crates/shmem/src/world.rs");
    if world.is_file() {
        rules_run.push("accessor-manifest");
        let src = fs::read_to_string(&world)?;
        check_accessor_manifest(&rel_path(root, &world), &src, &mut findings);
    }

    let error_rs = root.join("crates/types/src/error.rs");
    let retry_rs = root.join("crates/engine/src/retry.rs");
    if error_rs.is_file() && retry_rs.is_file() {
        rules_run.push("retryable-exhaustive");
        check_retryable(
            &rel_path(root, &retry_rs),
            &fs::read_to_string(&error_rs)?,
            &fs::read_to_string(&retry_rs)?,
            &mut findings,
        );
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport {
        findings,
        rules_run,
        files_scanned: files.len(),
    })
}

/// R2: each `unsafe` site needs a `SAFETY:` comment (or a `# Safety`
/// doc section, the rustdoc convention for `unsafe fn` contracts)
/// within the preceding window of lines.
fn check_safety_comments(
    rel: &str,
    raw_lines: &[&str],
    code_lines: &[&str],
    findings: &mut Vec<Finding>,
) {
    const WINDOW: usize = 10;
    for (i, cl) in code_lines.iter().enumerate() {
        if !has_token(cl, "unsafe") {
            continue;
        }
        let lo = i.saturating_sub(WINDOW);
        let justified = raw_lines[lo..=i.min(raw_lines.len() - 1)]
            .iter()
            .any(|l| l.contains("SAFETY:") || l.contains("# Safety"));
        if !justified {
            findings.push(Finding {
                rule: "safety-comment",
                severity: Severity::Warning,
                file: rel.to_string(),
                line: i + 1,
                message: "`unsafe` without a nearby `SAFETY:` justification".into(),
            });
        }
    }
}

/// R4: manifest cross-check over `ShmemCtx`'s accessor bodies.
fn check_accessor_manifest(rel: &str, src: &str, findings: &mut Vec<Finding>) {
    let code = strip_comments_and_strings(src);
    let fns = extract_fns(&code);
    for (name, markers) in ACCESSOR_MANIFEST {
        match fns.iter().find(|f| f.name == *name) {
            None => findings.push(Finding {
                rule: "accessor-manifest",
                severity: Severity::Error,
                file: rel.to_string(),
                line: 1,
                message: format!("manifest accessor `{name}` not found in ShmemCtx"),
            }),
            Some(f) => {
                for m in *markers {
                    if !f.body.contains(m) {
                        findings.push(Finding {
                            rule: "accessor-manifest",
                            severity: Severity::Error,
                            file: rel.to_string(),
                            line: f.line,
                            message: format!(
                                "accessor `{name}` is missing its `{m}` instrumentation"
                            ),
                        });
                    }
                }
            }
        }
    }
    // Drift guard: anything touching partition buffers directly must be
    // a manifested (and therefore instrumented) accessor.
    for f in &fns {
        if f.body.contains(".bufs")
            && !ACCESSOR_MANIFEST.iter().any(|(n, _)| *n == f.name)
            && !LOCAL_ACCESS_ALLOW.contains(&f.name.as_str())
        {
            findings.push(Finding {
                rule: "accessor-manifest",
                severity: Severity::Error,
                file: rel.to_string(),
                line: f.line,
                message: format!(
                    "`{}` touches partition buffers but is not in the accessor manifest",
                    f.name
                ),
            });
        }
    }
}

/// R5: `retryable()` must name every `SvError` variant and carry no
/// wildcard arm (a `matches!` with its implicit `_ => false` cannot
/// name them all without being degenerate, so variant coverage is the
/// check that matters).
fn check_retryable(rel: &str, error_src: &str, retry_src: &str, findings: &mut Vec<Finding>) {
    let variants = enum_variants(&strip_comments_and_strings(error_src), "SvError");
    if variants.is_empty() {
        findings.push(Finding {
            rule: "retryable-exhaustive",
            severity: Severity::Error,
            file: rel.to_string(),
            line: 1,
            message: "could not parse `SvError` variants from types/error.rs".into(),
        });
        return;
    }
    let code = strip_comments_and_strings(retry_src);
    let Some(f) = extract_fns(&code)
        .into_iter()
        .find(|f| f.name == "retryable")
    else {
        findings.push(Finding {
            rule: "retryable-exhaustive",
            severity: Severity::Error,
            file: rel.to_string(),
            line: 1,
            message: "no `retryable` function found".into(),
        });
        return;
    };
    if f.body.contains("_ =>") || f.body.contains("_=>") {
        findings.push(Finding {
            rule: "retryable-exhaustive",
            severity: Severity::Error,
            file: rel.to_string(),
            line: f.line,
            message: "`retryable()` has a wildcard arm; the match must be exhaustive".into(),
        });
    }
    for v in &variants {
        if !f.body.contains(&format!("SvError::{v}")) {
            findings.push(Finding {
                rule: "retryable-exhaustive",
                severity: Severity::Error,
                file: rel.to_string(),
                line: f.line,
                message: format!("`retryable()` does not classify `SvError::{v}`"),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Source-walking helpers.
// ---------------------------------------------------------------------

fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                // `fixtures` holds deliberately-violating sources for
                // the self-test; they lint only when targeted directly.
                if name != "target" && name != ".git" && name != "fixtures" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// True when `line` contains `word` delimited by non-identifier chars.
fn has_token(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// A function extracted from stripped source.
struct FnItem {
    name: String,
    /// 1-based line of the `fn` keyword.
    line: usize,
    /// Body text between the outermost braces.
    body: String,
}

/// Find every `fn name(...) ... { body }` in stripped source by brace
/// matching. Good enough for lint purposes: the stripped text has no
/// braces hiding in strings or comments.
fn extract_fns(code: &str) -> Vec<FnItem> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if code[i..].starts_with("fn ") && (i == 0 || !is_ident(bytes[i - 1])) {
            let name: String = code[i + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii() && is_ident(*c as u8))
                .collect();
            let line = code[..i].matches('\n').count() + 1;
            // Body = first `{` after the signature, to its match. A `;`
            // first means a bodiless declaration (trait method, FFI).
            let mut j = i;
            while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'{' {
                let mut depth = 0usize;
                let start = j;
                while j < bytes.len() {
                    match bytes[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if !name.is_empty() {
                    out.push(FnItem {
                        name,
                        line,
                        body: code[start..=j.min(bytes.len() - 1)].to_string(),
                    });
                }
                i = j;
            } else {
                i = j;
            }
        }
        i += 1;
    }
    out
}

/// Variant names of `pub enum <name> { ... }` in stripped source.
fn enum_variants(code: &str, name: &str) -> Vec<String> {
    let needle = format!("enum {name}");
    let Some(pos) = code.find(&needle) else {
        return Vec::new();
    };
    let Some(open) = code[pos..].find('{').map(|o| pos + o) else {
        return Vec::new();
    };
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut j = open;
    let mut variants = Vec::new();
    let mut at_variant_start = true;
    while j < bytes.len() {
        match bytes[j] {
            b'{' | b'(' | b'[' => {
                depth += 1;
                // The enum's own `{` begins the first variant; nested
                // delimiters are inside a variant's payload.
                at_variant_start = depth == 1;
            }
            b'}' | b')' | b']' => {
                if depth == 1 && bytes[j] == b'}' {
                    break;
                }
                depth -= 1;
            }
            b',' if depth == 1 => at_variant_start = true,
            b'#' if depth == 1 => {
                // Skip `#[...]` attributes between variants.
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
            }
            c if depth == 1 && at_variant_start && c.is_ascii_uppercase() => {
                let mut k = j;
                while k < bytes.len() && is_ident(bytes[k]) {
                    k += 1;
                }
                variants.push(code[j..k].to_string());
                at_variant_start = false;
                j = k;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    variants
}

/// Blank out comments and string/char-literal contents, preserving line
/// structure (every newline survives) so line numbers stay aligned.
fn strip_comments_and_strings(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            St::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::Line;
                    out.push(b' ');
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(1);
                    out.push(b' ');
                } else if c == b'"' {
                    st = St::Str;
                    out.push(b'"');
                } else if c == b'r' && matches!(b.get(i + 1), Some(&b'"') | Some(&b'#')) {
                    // Raw string: r"..." or r#"..."# (any hash count).
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        st = St::RawStr(hashes);
                        out.resize(out.len() + (j - i) + 1, b' ');
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                } else if c == b'\''
                    && b.get(i + 1).is_some_and(|&n| {
                        // Distinguish a char literal from a lifetime:
                        // 'x' closes within two chars or is an escape.
                        n == b'\\' || b.get(i + 2) == Some(&b'\'')
                    })
                {
                    st = St::Char;
                    out.push(b'\'');
                } else {
                    out.push(c);
                }
            }
            St::Line => {
                if c == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::Block(d) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(d + 1);
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    continue;
                }
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    continue;
                }
                out.push(if c == b'\n' { b'\n' } else { b' ' });
            }
            St::Str => {
                if c == b'\\' {
                    // A backslash-newline continuation must keep its
                    // newline or every later line number drifts.
                    out.push(b' ');
                    if b.get(i + 1) == Some(&b'\n') {
                        out.push(b'\n');
                    } else {
                        out.push(b' ');
                    }
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    st = St::Code;
                    out.push(b'"');
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                }
            }
            St::RawStr(hashes) => {
                if c == b'"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if b.get(i + 1 + k) != Some(&b'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = St::Code;
                        out.resize(out.len() + hashes + 1, b' ');
                        i += 1 + hashes;
                        continue;
                    }
                }
                out.push(if c == b'\n' { b'\n' } else { b' ' });
            }
            St::Char => {
                if c == b'\\' {
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    continue;
                }
                if c == b'\'' {
                    st = St::Code;
                    out.push(b'\'');
                } else {
                    out.push(b' ');
                }
            }
        }
        i += 1;
    }
    String::from_utf8(out).expect("stripper only writes ASCII over ASCII positions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_comments_and_strings() {
        let src =
            "let x = \"unsafe\"; // unsafe here\nlet y = 'u';\n/* unsafe\nblock */ fn f() {}\n";
        let code = strip_comments_and_strings(src);
        assert!(!code.contains("unsafe"));
        assert_eq!(code.matches('\n').count(), src.matches('\n').count());
        assert!(code.contains("fn f()"));
    }

    #[test]
    fn stripper_keeps_string_continuation_newlines() {
        let src = "let s = \"first \\\n    second\";\nunsafe {}\n";
        let code = strip_comments_and_strings(src);
        assert_eq!(code.matches('\n').count(), src.matches('\n').count());
        // The `unsafe` must still be on line 3 after stripping.
        assert!(has_token(code.lines().nth(2).unwrap(), "unsafe"));
    }

    #[test]
    fn token_matching_respects_boundaries() {
        assert!(has_token("unsafe { x }", "unsafe"));
        assert!(!has_token("#[allow(unsafe_code)]", "unsafe"));
        assert!(!has_token("my_unsafe", "unsafe"));
    }

    #[test]
    fn enum_parse_finds_all_variants() {
        let code = "pub enum SvError { A { x: u64 }, B(String), C, #[doc] D { y: u8 } }";
        assert_eq!(enum_variants(code, "SvError"), ["A", "B", "C", "D"]);
    }

    #[test]
    fn fn_extraction_brace_matches() {
        let code = "impl X { pub fn get(&self) -> u64 { self.a.load(1) } fn other() {} }";
        let fns = extract_fns(code);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "get");
        assert!(fns[0].body.contains("load"));
    }
}
