//! `ssync-lint` — the workspace's memory-ordering discipline, enforced.
//!
//! A deliberately small line-level source pass (no `syn`, no regex crate
//! — we are offline) that walks every `*/src/*.rs` file in the workspace
//! and checks the four [`RULES`], distilled from DESIGN.md's ordering
//! arguments:
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | `relaxed-ptr` | all crates | `Ordering::Relaxed` load/store on a pointer-typed atomic must carry a `// chk:` justification within 3 lines |
//! | `atomic-padding` | kv, mp, repl, cluster, core/stats, core/epoch, core/fenced, core/handshake | `Atomic*` struct fields must be `CachePadded` or `// chk:`-annotated |
//! | `safety-comment` | kv, mp, repl, cluster, core/stats, core/epoch, core/fenced, core/handshake | `unsafe` blocks/impls/fns must have a `// SAFETY:` comment within 5 lines above |
//! | `decode-panic` | `wire*.rs` | functions named `*decode*` must not `panic!`/`unwrap()`/`expect(`/`unreachable!`/`todo!` |
//!
//! Terms and cluster-map epochs need no rule: they are
//! `ssync_core::Fence`s, which the compiler keeps from arithmetic. The
//! reclamation epoch needs none either: its word is `EpochDomain`'s
//! private field, which no other crate can name, let alone load.
//!
//! `#[cfg(test)]` regions are exempt from every rule (models and tests
//! construct bare atomics and panic on purpose). `vendor/` and `target/`
//! are never walked. The pass is heuristic by design: it over-approximates
//! (an over-match costs one justification comment, never a missed bug)
//! and the `// chk:` escape hatch keeps it honest — every exception is
//! visible and greppable.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule the pass checks, by the name a [`LintViolation`] carries.
pub const RULES: [&str; 4] = [
    "relaxed-ptr",
    "atomic-padding",
    "safety-comment",
    "decode-panic",
];

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct LintViolation {
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
    /// True if the fix is "add an annotation comment" (the sites
    /// `--fix-safety-stubs` reports).
    pub annotation_fix: bool,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Result of linting a tree.
#[derive(Debug, Default)]
pub struct LintReport {
    pub violations: Vec<LintViolation>,
    pub files_scanned: usize,
}

/// Lints every workspace source file under `root` (skipping `vendor/`,
/// `target/`, and anything outside a `src/` directory).
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.violations.extend(lint_source(&rel_str, &src));
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | ".github") {
                continue;
            }
            collect_sources(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            // Only library/binary sources carry the discipline; tests,
            // benches, and examples are exempt wholesale.
            if rel.components().any(|c| c.as_os_str() == "src") {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Which rule families apply to a file.
struct Scope {
    padding_and_safety: bool,
    decode_panic: bool,
}

fn scope_of(path: &str) -> Scope {
    let hot_crate = path.starts_with("crates/kv/")
        || path.starts_with("crates/mp/")
        || path.starts_with("crates/repl/")
        || path.starts_with("crates/cluster/");
    // The observability hot path: histogram counters sit on the record
    // side of every measured request, so they get the same padding and
    // SAFETY discipline as the serving crates. The epoch module is the
    // read path's reclamation machinery — pin records are the very
    // lines the paper's cache-transfer argument is about — the fenced
    // word is the line both cluster maps' transitions move, and the
    // handshake's lines are what a migration coordinator polls.
    let core_hot = ["stats", "epoch", "fenced", "handshake"]
        .iter()
        .any(|module| path.starts_with(&format!("crates/core/src/{module}")));
    let file_name = path.rsplit('/').next().unwrap_or(path);
    Scope {
        padding_and_safety: hot_crate || core_hot,
        decode_panic: file_name.contains("wire"),
    }
}

/// Lints one file's source text; `path` is workspace-relative (used for
/// scoping and reporting).
pub fn lint_source(path: &str, src: &str) -> Vec<LintViolation> {
    let scope = scope_of(path);
    let raw: Vec<&str> = src.lines().collect();
    let stripped = strip_noise(&raw);
    let in_test = test_regions(&stripped);
    let ptr_names = pointer_atomic_names(&stripped);

    let mut out = Vec::new();
    rule_relaxed_ptr(path, &raw, &stripped, &in_test, &ptr_names, &mut out);
    if scope.padding_and_safety {
        rule_atomic_padding(path, &raw, &stripped, &in_test, &mut out);
        rule_safety_comment(path, &raw, &stripped, &in_test, &mut out);
    }
    if scope.decode_panic {
        rule_decode_panic(path, &stripped, &in_test, &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

// ---------------------------------------------------------------------------
// Source pre-processing.

/// Blanks out string/char literals and comments so structural scans
/// (braces, tokens) see only code. Line count is preserved.
fn strip_noise(raw: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(raw.len());
    let mut in_block_comment = false;
    for line in raw {
        let mut s = String::with_capacity(line.len());
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_str = false;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if in_block_comment {
                if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if in_str {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '"' {
                        in_str = false;
                    }
                    i += 1;
                }
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    s.push(' ');
                    i += 1;
                }
                // A quoted char literal; lifetimes ('a) have no closing
                // quote within 2 chars of a non-ident, so only swallow
                // the `'X'` / `'\X'` shapes.
                '\'' => {
                    if bytes.get(i + 1) == Some(&b'\\') && bytes.get(i + 3) == Some(&b'\'') {
                        i += 4;
                        s.push(' ');
                    } else if bytes.get(i + 2) == Some(&b'\'') {
                        i += 3;
                        s.push(' ');
                    } else {
                        s.push('\'');
                        i += 1;
                    }
                }
                '/' if bytes.get(i + 1) == Some(&b'/') => break,
                '/' if bytes.get(i + 1) == Some(&b'*') => {
                    in_block_comment = true;
                    i += 2;
                }
                _ => {
                    s.push(c);
                    i += 1;
                }
            }
        }
        out.push(s);
    }
    out
}

/// Marks each line that lies inside a `#[cfg(test)]`-gated block.
fn test_regions(stripped: &[String]) -> Vec<bool> {
    let mut flags = vec![false; stripped.len()];
    let mut depth: i32 = 0;
    // (depth at which the gated block closes)
    let mut gated_until: Option<i32> = None;
    let mut pending_attr = false;
    for (i, line) in stripped.iter().enumerate() {
        let trimmed = line.trim();
        if gated_until.is_some() {
            flags[i] = true;
        }
        if trimmed.contains("#[cfg(test)]") && gated_until.is_none() {
            pending_attr = true;
            flags[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_attr && gated_until.is_none() {
                        gated_until = Some(depth);
                        pending_attr = false;
                        flags[i] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if gated_until == Some(depth) {
                        gated_until = None;
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier ending immediately before byte offset `end` (exclusive).
fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(&line[start..end])
    }
}

/// All identifier runs in a line.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident_char(c))
        .filter(|s| !s.is_empty())
}

/// Collects names bound to pointer-typed atomics in this file: every
/// declaration `name: [&][CachePadded<][Box<[]AtomicPtr…`, plus one-level
/// aliases (`let link = head;`, `link = &node.next;`) of those names.
fn pointer_atomic_names(stripped: &[String]) -> HashSet<String> {
    let mut names: HashSet<String> = HashSet::new();
    for line in stripped {
        let mut from = 0;
        while let Some(pos) = line[from..].find("AtomicPtr") {
            let at = from + pos;
            // Walk back to the governing `:`; stop at delimiters that
            // mean this occurrence is not a `name: Type` declaration.
            let mut j = at;
            let bytes = line.as_bytes();
            let mut colon = None;
            while j > 0 {
                let c = bytes[j - 1] as char;
                if c == ':' {
                    // `::` is a path separator, keep walking.
                    if j >= 2 && bytes[j - 2] as char == ':' {
                        j -= 2;
                        continue;
                    }
                    colon = Some(j - 1);
                    break;
                }
                if matches!(c, '(' | ')' | '{' | '}' | ';' | ',' | '=' | '>') && c != ' ' {
                    break;
                }
                j -= 1;
            }
            if let Some(cpos) = colon {
                let before = line[..cpos].trim_end();
                if let Some(name) = ident_ending_at(before, before.len()) {
                    if name != "mut" && name != "pub" {
                        names.insert(name.to_string());
                    }
                }
            }
            from = at + "AtomicPtr".len();
        }
    }
    // Alias propagation: a binding or re-assignment whose RHS mentions a
    // known pointer-atomic name taints the LHS. Over-approximate on
    // purpose; iterate to a (cheap, two-round) fixpoint.
    for _ in 0..2 {
        let mut added = Vec::new();
        for line in stripped {
            let trimmed = line.trim_start();
            let Some(eq) = trimmed.find('=') else {
                continue;
            };
            if trimmed.as_bytes().get(eq + 1) == Some(&b'=') || eq == 0 {
                continue;
            }
            let (lhs, rhs) = trimmed.split_at(eq);
            if !rhs[1..]
                .split(';')
                .next()
                .unwrap_or("")
                .chars()
                .any(|c| c != ' ')
            {
                continue;
            }
            let lhs_name = {
                let l = lhs
                    .trim_start_matches("let ")
                    .trim_start_matches("mut ")
                    .trim();
                // Skip compound targets (`x.field = …`, `arr[i] = …`).
                if l.chars().all(is_ident_char) && !l.is_empty() {
                    Some(l)
                } else {
                    None
                }
            };
            let Some(lhs_name) = lhs_name else { continue };
            if rhs[1..]
                .split("//")
                .next()
                .unwrap_or("")
                .split(';')
                .next()
                .unwrap_or("")
                .split(' ')
                .flat_map(idents)
                .any(|id| names.contains(id))
            {
                added.push(lhs_name.to_string());
            }
        }
        let before = names.len();
        names.extend(added);
        if names.len() == before {
            break;
        }
    }
    names
}

/// True if the `// chk:` justification marker appears on `line` or within
/// `window` lines above it (raw text, comments included).
fn justified(raw: &[&str], line: usize, marker: &str, window: usize) -> bool {
    let lo = line.saturating_sub(window);
    raw[lo..=line].iter().any(|l| l.contains(marker))
}

// ---------------------------------------------------------------------------
// Rules.

fn rule_relaxed_ptr(
    path: &str,
    raw: &[&str],
    stripped: &[String],
    in_test: &[bool],
    ptr_names: &HashSet<String>,
    out: &mut Vec<LintViolation>,
) {
    for (i, line) in stripped.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for call in [".load(", ".store("] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(call) {
                let at = from + pos;
                from = at + call.len();
                let Some(recv) = ident_ending_at(line, at) else {
                    continue;
                };
                if !ptr_names.contains(recv) {
                    continue;
                }
                // The ordering is the first `Ordering::X` after the call
                // opens — look on this line and the next (rustfmt wraps).
                let mut tail = line[at..].to_string();
                if let Some(next) = stripped.get(i + 1) {
                    tail.push(' ');
                    tail.push_str(next);
                }
                let Some(opos) = tail.find("Ordering::") else {
                    continue;
                };
                let ord: String = tail["Ordering::".len() + opos..]
                    .chars()
                    .take_while(|c| is_ident_char(*c))
                    .collect();
                if ord == "Relaxed" && !justified(raw, i, "// chk:", 3) {
                    out.push(LintViolation {
                        file: path.to_string(),
                        line: i + 1,
                        rule: "relaxed-ptr",
                        msg: format!(
                            "Relaxed {} on pointer-typed atomic `{}` needs a `// chk:` justification",
                            call.trim_matches(['.', '(']),
                            recv
                        ),
                        annotation_fix: true,
                    });
                }
            }
        }
    }
}

fn rule_atomic_padding(
    path: &str,
    raw: &[&str],
    stripped: &[String],
    in_test: &[bool],
    out: &mut Vec<LintViolation>,
) {
    // Track which `{` blocks belong to struct declarations.
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_struct = false;
    for (i, line) in stripped.iter().enumerate() {
        let in_struct = stack.last().copied().unwrap_or(false);
        if in_struct && !in_test[i] {
            let trimmed = line.trim();
            if let Some(colon) = trimmed.find(':') {
                let (name_part, ty) = trimmed.split_at(colon);
                let named_field = ident_ending_at(name_part.trim_end(), name_part.trim_end().len())
                    .is_some_and(|n| n != "pub");
                if named_field
                    && ty.contains("Atomic")
                    && !ty.contains("CachePadded")
                    && !justified(raw, i, "// chk:", 3)
                {
                    out.push(LintViolation {
                        file: path.to_string(),
                        line: i + 1,
                        rule: "atomic-padding",
                        msg: format!(
                            "atomic field `{}` is not CachePadded; pad it or justify with `// chk:`",
                            name_part.trim().trim_start_matches("pub ").trim()
                        ),
                        annotation_fix: true,
                    });
                }
            }
        }
        if line.contains("struct ") && !line.contains(';') {
            pending_struct = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    stack.push(pending_struct);
                    pending_struct = false;
                }
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }
}

fn rule_safety_comment(
    path: &str,
    raw: &[&str],
    stripped: &[String],
    in_test: &[bool],
    out: &mut Vec<LintViolation>,
) {
    for (i, line) in stripped.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let mut from = 0;
        while let Some(pos) = line[from..].find("unsafe") {
            let at = from + pos;
            from = at + "unsafe".len();
            // Token boundaries.
            let before_ok = at == 0 || !is_ident_char(line.as_bytes()[at - 1] as char);
            let after = line.as_bytes().get(at + "unsafe".len()).map(|b| *b as char);
            let after_ok = !after.is_some_and(is_ident_char);
            if !(before_ok && after_ok) {
                continue;
            }
            if !justified(raw, i, "SAFETY:", 5) {
                out.push(LintViolation {
                    file: path.to_string(),
                    line: i + 1,
                    rule: "safety-comment",
                    msg: "`unsafe` without a `// SAFETY:` comment within 5 lines above".to_string(),
                    annotation_fix: true,
                });
            }
            break; // one report per line is enough
        }
    }
}

fn rule_decode_panic(
    path: &str,
    stripped: &[String],
    in_test: &[bool],
    out: &mut Vec<LintViolation>,
) {
    let mut depth: i32 = 0;
    // Depth at which the current decode fn's body closes.
    let mut decode_until: Option<i32> = None;
    let mut pending_decode = false;
    for (i, line) in stripped.iter().enumerate() {
        if line.contains("fn ") {
            let fn_name: String = line
                .split("fn ")
                .nth(1)
                .unwrap_or("")
                .chars()
                .take_while(|c| is_ident_char(*c))
                .collect();
            if fn_name.contains("decode") {
                pending_decode = true;
            }
        }
        if decode_until.is_some() && !in_test[i] {
            for bad in ["panic!", ".unwrap()", ".expect(", "unreachable!", "todo!"] {
                if line.contains(bad) {
                    out.push(LintViolation {
                        file: path.to_string(),
                        line: i + 1,
                        rule: "decode-panic",
                        msg: format!(
                            "`{bad}` inside a wire decode path — return a WireError instead"
                        ),
                        annotation_fix: false,
                    });
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_decode && decode_until.is_none() {
                        decode_until = Some(depth);
                        pending_decode = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if decode_until == Some(depth) {
                        decode_until = None;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_ptr_load_without_justification_flagged() {
        let src = "struct N { next: AtomicPtr<N> }\n\
                   fn f(n: &N) {\n\
                       let p = n.next.load(Ordering::Relaxed);\n\
                   }\n";
        let v = lint_source("crates/kv/src/x.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "relaxed-ptr" && v.line == 3),
            "{v:?}"
        );
    }

    #[test]
    fn relaxed_ptr_load_with_chk_comment_passes() {
        let src = "struct N { next: AtomicPtr<N> }\n\
                   fn f(n: &N) {\n\
                       // chk: under the stripe lock, no concurrent writer\n\
                       let p = n.next.load(Ordering::Relaxed);\n\
                   }\n";
        let v = lint_source("crates/kv/src/x.rs", src);
        assert!(!v.iter().any(|v| v.rule == "relaxed-ptr"), "{v:?}");
    }

    #[test]
    fn relaxed_through_alias_flagged() {
        let src = "fn f(head: &AtomicPtr<N>) {\n\
                       let mut link = head;\n\
                       let p = link.load(Ordering::Relaxed);\n\
                   }\n";
        let v = lint_source("crates/kv/src/x.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "relaxed-ptr" && v.line == 3),
            "{v:?}"
        );
    }

    #[test]
    fn acquire_on_ptr_not_flagged() {
        let src = "struct N { next: AtomicPtr<N> }\n\
                   fn f(n: &N) { let p = n.next.load(Ordering::Acquire); }\n";
        assert!(lint_source("crates/kv/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_on_counter_not_flagged() {
        let src = "struct S { hits: AtomicU64 }\n\
                   fn f(s: &S) { s.hits.load(Ordering::Relaxed); }\n";
        let v = lint_source("src/x.rs", src);
        assert!(!v.iter().any(|v| v.rule == "relaxed-ptr"), "{v:?}");
    }

    #[test]
    fn unpadded_atomic_field_flagged_in_hot_crate_only() {
        let src = "struct S {\n    ctr: AtomicU64,\n}\n";
        let hot = lint_source("crates/kv/src/x.rs", src);
        assert!(
            hot.iter()
                .any(|v| v.rule == "atomic-padding" && v.line == 2),
            "{hot:?}"
        );
        let cold = lint_source("crates/srv/src/x.rs", src);
        assert!(!cold.iter().any(|v| v.rule == "atomic-padding"));
        // The stats module is the observability hot path: padded like
        // the serving crates, while the rest of core stays out of scope.
        let stats = lint_source("crates/core/src/stats.rs", src);
        assert!(
            stats.iter().any(|v| v.rule == "atomic-padding"),
            "{stats:?}"
        );
        let core_cold = lint_source("crates/core/src/topology.rs", src);
        assert!(!core_cold.iter().any(|v| v.rule == "atomic-padding"));
    }

    #[test]
    fn padded_or_annotated_atomic_field_passes() {
        let src = "struct S {\n\
                       seq: CachePadded<AtomicU64>,\n\
                       // chk: adjacent to its data by design (one-line transfer)\n\
                       flag: AtomicU64,\n\
                   }\n";
        assert!(lint_source("crates/mp/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let src = "fn f(p: *mut u8) {\n    unsafe { p.write(0) };\n}\n";
        let v = lint_source("crates/kv/src/x.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "safety-comment" && v.line == 2),
            "{v:?}"
        );
        let ok = "fn f(p: *mut u8) {\n    // SAFETY: caller guarantees p is valid\n    unsafe { p.write(0) };\n}\n";
        assert!(lint_source("crates/kv/src/x.rs", ok).is_empty());
    }

    #[test]
    fn decode_panic_flagged_only_inside_decode_fns() {
        let src = "fn decode(b: &[u8]) -> R {\n    let x = b.first().unwrap();\n}\n\
                   fn encode(b: &mut Vec<u8>) {\n    b.first().unwrap();\n}\n";
        let v = lint_source("crates/srv/src/wire.rs", src);
        assert_eq!(
            v.iter().filter(|v| v.rule == "decode-panic").count(),
            1,
            "{v:?}"
        );
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "struct N { next: AtomicPtr<N> }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn f(n: &super::N) { n.next.load(Ordering::Relaxed); }\n\
                       fn g(p: *mut u8) { unsafe { p.read() }; }\n\
                   }\n";
        assert!(lint_source("crates/kv/src/x.rs", src).is_empty());
    }

    #[test]
    fn cluster_atomic_fields_carry_the_padding_rule() {
        let src = "struct M {\n    word: AtomicU64,\n}\n";
        let v = lint_source("crates/cluster/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == "atomic-padding"), "{v:?}");
    }

    #[test]
    fn core_epoch_module_carries_padding_and_safety_rules() {
        let src = "struct D {\n    global: AtomicU64,\n}\n";
        let v = lint_source("crates/core/src/epoch.rs", src);
        assert!(v.iter().any(|v| v.rule == "atomic-padding"), "{v:?}");
        let unsafe_src = "fn f(p: *mut u8) {\n    unsafe { p.write(0) };\n}\n";
        let v = lint_source("crates/core/src/epoch.rs", unsafe_src);
        assert!(v.iter().any(|v| v.rule == "safety-comment"), "{v:?}");
    }

    #[test]
    fn every_rule_a_violation_can_carry_is_listed_once() {
        let named: std::collections::BTreeSet<&str> = include_str!("lint.rs")
            .split("rule: \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let listed: std::collections::BTreeSet<&str> = RULES.into_iter().collect();
        assert_eq!(named, listed);
        assert_eq!(listed.len(), RULES.len(), "a rule listed twice");
    }

    #[test]
    fn the_fenced_word_and_the_handshake_carry_the_padding_rule() {
        let src = "struct W {\n    word: AtomicU64,\n}\n";
        for module in ["fenced", "handshake"] {
            let v = lint_source(&format!("crates/core/src/{module}.rs"), src);
            assert!(v.iter().any(|v| v.rule == "atomic-padding"), "{v:?}");
        }
    }

    #[test]
    fn string_literals_do_not_confuse_the_scanner() {
        let src = "fn decode(b: &[u8]) -> String {\n    format!(\"panic! {{}} unwrap()\", 1)\n}\n";
        let v = lint_source("crates/srv/src/wire.rs", src);
        assert!(!v.iter().any(|v| v.rule == "decode-panic"), "{v:?}");
    }
}
