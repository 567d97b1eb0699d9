//! Unsafe audit: every `unsafe` site must be justified, located where
//! unsafety is expected, and frozen in a reviewed inventory.
//!
//! Three rules, all on the lexed source view (so `unsafe` inside strings
//! or comments never counts):
//!
//! 1. **SAFETY comments** — every `unsafe` token (block, fn, impl) must
//!    carry an adjacent justification: walking upward from the site over
//!    attributes, the contiguous comment block must contain `SAFETY:` or
//!    a `# Safety` doc section (a trailing `// SAFETY:` on the same line
//!    also counts). A blank line or code breaks adjacency.
//! 2. **Scope** — `unsafe` is only accepted under
//!    [`UNSAFE_ALLOWED_DIRS`] (the SIMD kernels) or in the explicitly
//!    justified [`UNSAFE_ALLOWED_FILES`]. The rest of the workspace is
//!    safe Rust by policy: the protocol, scheduler and codec logic get
//!    their performance from layout and algorithms, not from `unsafe`.
//! 3. **Inventory** — per-file site counts are frozen in
//!    `crates/xtask/unsafe-allowlist.txt`; a new `unsafe` block anywhere
//!    fails the build until the inventory is deliberately extended, and a
//!    removed one fails until the budget is lowered, so the inventory
//!    always matches the tree.

use std::collections::BTreeMap;
use std::path::Path;

use crate::scan::{check_budget, load_allowlist, strip_comments_and_strings, Finding};

/// Directories (workspace-relative prefixes) where `unsafe` is expected:
/// the SIMD kernel implementations, whose contract is checked by
/// dispatch-time CPUID tests and scalar-reference equivalence tests.
pub const UNSAFE_ALLOWED_DIRS: &[&str] = &["crates/mpeg2/src/kernels/"];

/// Individual files allowed to use `unsafe` outside the kernel tree,
/// each with a reviewed reason.
pub const UNSAFE_ALLOWED_FILES: &[&str] = &[
    // Counting `GlobalAlloc` shim proving the steady-state decode path
    // allocation-free; the trait itself is unsafe to implement.
    "crates/core/tests/alloc_steady.rs",
];

/// Whether `path` (workspace-relative) may contain `unsafe` at all.
pub fn unsafe_allowed_here(path: &str) -> bool {
    UNSAFE_ALLOWED_DIRS.iter().any(|d| path.starts_with(d)) || UNSAFE_ALLOWED_FILES.contains(&path)
}

/// Finds `unsafe` keyword sites in already-stripped source. Returns
/// 1-based line numbers, one per token occurrence.
pub fn find_unsafe_sites(stripped: &str) -> Vec<usize> {
    let mut sites = Vec::new();
    for (lineno, line) in stripped.lines().enumerate() {
        let b = line.as_bytes();
        let mut from = 0;
        while let Some(p) = line[from..].find("unsafe") {
            let start = from + p;
            let end = start + "unsafe".len();
            let left_ok =
                start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
            let right_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
            if left_ok && right_ok {
                sites.push(lineno + 1);
            }
            from = end;
        }
    }
    sites
}

/// Whether the `unsafe` site at 1-based `line` carries an adjacent
/// SAFETY justification in the original (unstripped) source.
pub fn has_adjacent_safety(original_lines: &[&str], line: usize) -> bool {
    let idx = line - 1;
    if idx >= original_lines.len() {
        return false;
    }
    // Trailing justification on the site's own line.
    if original_lines[idx].contains("SAFETY:") {
        return true;
    }
    // Walk upward: skip attributes, accept within the contiguous comment
    // block; blank lines or code break adjacency.
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = original_lines[j].trim();
        if t.starts_with("#[") || t.starts_with("#!") || (t.starts_with(')') && t.ends_with(']')) {
            continue;
        }
        if t.starts_with("//") {
            if t.contains("SAFETY:") || t.contains("# Safety") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// Runs the unsafe audit over `files` (path → contents) against the
/// frozen inventory.
pub fn check_unsafe(
    files: &[(String, String)],
    allowlist: &BTreeMap<String, usize>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sites = BTreeMap::new();
    for (path, src) in files {
        let stripped = strip_comments_and_strings(src);
        let lines = find_unsafe_sites(&stripped);
        let original: Vec<&str> = src.lines().collect();
        for &line in &lines {
            if !unsafe_allowed_here(path) {
                findings.push(Finding {
                    file: path.clone(),
                    line,
                    message: "`unsafe` outside the SIMD kernel tree: this workspace is \
                              safe Rust by policy — move the code under \
                              crates/mpeg2/src/kernels/ or add the file to \
                              UNSAFE_ALLOWED_FILES in crates/xtask/src/unsafe_audit.rs \
                              with a reviewed justification"
                        .into(),
                });
            }
            if !has_adjacent_safety(&original, line) {
                findings.push(Finding {
                    file: path.clone(),
                    line,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment — state \
                              the invariant that makes this sound (a `# Safety` doc \
                              section on the item also counts; attributes between the \
                              comment and the site are fine)"
                        .into(),
                });
            }
        }
        sites.insert(
            path.clone(),
            lines
                .into_iter()
                .map(|l| (l, "unsafe".to_string()))
                .collect(),
        );
    }
    findings.extend(check_budget(
        &sites,
        allowlist,
        "crates/xtask/unsafe-allowlist.txt",
        |_, n, allowed| {
            format!(
                "`unsafe` site outside the frozen inventory ({n} in this file, \
                 {allowed} inventoried) — new unsafe cannot appear silently; extend \
                 crates/xtask/unsafe-allowlist.txt only alongside the SAFETY review"
            )
        },
    ));
    findings
}

/// Statistics for the analyze summary line.
pub struct UnsafeStats {
    /// Total `unsafe` sites across the workspace.
    pub sites: usize,
    /// Files containing at least one site.
    pub files: usize,
}

/// Counts `unsafe` sites over `files` for reporting.
pub fn unsafe_stats(files: &[(String, String)]) -> UnsafeStats {
    let mut sites = 0;
    let mut with_sites = 0;
    for (_, src) in files {
        let n = find_unsafe_sites(&strip_comments_and_strings(src)).len();
        sites += n;
        with_sites += usize::from(n > 0);
    }
    UnsafeStats {
        sites,
        files: with_sites,
    }
}

/// Runs the audit over a workspace root with its committed inventory.
pub fn run_unsafe_audit(root: &Path, files: &[(String, String)]) -> Result<Vec<Finding>, String> {
    let allowlist = load_allowlist(root, "crates/xtask/unsafe-allowlist.txt")?;
    Ok(check_unsafe(files, &allowlist))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(path: &str, src: &str) -> Vec<String> {
        let files = vec![(path.to_string(), src.to_string())];
        check_unsafe(&files, &BTreeMap::new())
            .into_iter()
            .map(|f| f.to_string())
            .collect()
    }

    #[test]
    fn unannotated_unsafe_in_kernels_is_caught_at_its_line() {
        // The injected violation from the issue: an unsafe block with no
        // SAFETY comment must fail naming file and line.
        let src =
            "fn f() {\n    let x = 1;\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        let msgs = audit("crates/mpeg2/src/kernels/x86.rs", src);
        assert_eq!(msgs.len(), 2, "{msgs:?}"); // missing SAFETY + not inventoried
        assert!(
            msgs.iter()
                .any(|m| m.contains("x86.rs:3") && m.contains("SAFETY")),
            "{msgs:?}"
        );
    }

    #[test]
    fn safety_comment_through_attributes_is_accepted() {
        let src = "// SAFETY: caller checked sse2 via cpuid.\n#[target_feature(enable = \"sse2\")]\nunsafe fn idct() {}\n";
        let files = vec![(
            "crates/mpeg2/src/kernels/x86.rs".to_string(),
            src.to_string(),
        )];
        let mut allow = BTreeMap::new();
        allow.insert("crates/mpeg2/src/kernels/x86.rs".to_string(), 1);
        let findings = check_unsafe(&files, &allow);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn doc_safety_section_is_accepted() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Pointer must be valid.\npub unsafe fn f(p: *const u8) {}\n";
        let files = vec![(
            "crates/mpeg2/src/kernels/x86.rs".to_string(),
            src.to_string(),
        )];
        let mut allow = BTreeMap::new();
        allow.insert("crates/mpeg2/src/kernels/x86.rs".to_string(), 1);
        assert!(check_unsafe(&files, &allow).is_empty());
    }

    #[test]
    fn blank_line_breaks_safety_adjacency() {
        let src = "// SAFETY: stale justification.\n\nunsafe fn f() {}\n";
        let msgs = audit("crates/mpeg2/src/kernels/x86.rs", src);
        assert!(msgs.iter().any(|m| m.contains("SAFETY")), "{msgs:?}");
    }

    #[test]
    fn unsafe_outside_kernels_is_rejected_even_with_safety_comment() {
        let src = "// SAFETY: totally fine, trust me.\nunsafe { transmute(x) }\n";
        let msgs = audit("crates/core/src/protocol.rs", src);
        assert!(
            msgs.iter()
                .any(|m| m.contains("protocol.rs:2") && m.contains("safe Rust by policy")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unsafe_in_strings_and_comments_does_not_count() {
        let src = "// unsafe unsafe unsafe\nfn f() { let s = \"unsafe\"; }\n";
        let files = vec![("crates/core/src/x.rs".to_string(), src.to_string())];
        assert!(check_unsafe(&files, &BTreeMap::new()).is_empty());
    }

    #[test]
    fn removed_unsafe_requires_lowering_the_inventory() {
        let files = vec![(
            "crates/mpeg2/src/kernels/x86.rs".to_string(),
            "fn f() {}\n".to_string(),
        )];
        let mut allow = BTreeMap::new();
        allow.insert("crates/mpeg2/src/kernels/x86.rs".to_string(), 2);
        let findings = check_unsafe(&files, &allow);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("lower the budget"));
    }
}
