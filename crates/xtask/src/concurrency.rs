//! Concurrency lints: lock hygiene for a process whose worker threads
//! must tear down cleanly even when a peer panics.
//!
//! * **No raw poison-unwrapping** — `.lock().unwrap()` / `.lock().expect(`
//!   turn one thread's panic into a cascade of secondary panics during
//!   teardown. All production code must go through
//!   `tiledec_cluster::sync::lock_ignore_poison` (and `wait_ignore_poison`
//!   for condvars), the single audited recovery path. Defining another
//!   `fn lock_ignore_poison` or calling `PoisonError::into_inner` outside
//!   that module is flagged for the same reason: one copy, one review.
//! * **No guard live across a blocking call** — a `MutexGuard` held
//!   across `send`/`recv`/`join`/`spawn` wedges every other thread that
//!   contends the same lock behind an unbounded wait. Both shapes are
//!   caught: a *named* guard binding whose scope contains a blocking
//!   call, and a *temporary* guard chained directly into one
//!   (`lock(..).recv()`). Reviewed exceptions are frozen in
//!   `crates/xtask/concurrency-allowlist.txt` (none today).
//!
//! Scope: production sources only (`src/` trees, test modules masked);
//! test code may use whatever lock style it is asserting about.

use std::collections::BTreeMap;
use std::path::Path;

use crate::scan::{check_budget, mask_test_modules, strip_comments_and_strings, Finding};

/// The one module allowed to touch `PoisonError` directly: the shared
/// helpers every other lock site must go through.
pub const SYNC_HELPER_FILE: &str = "crates/cluster/src/sync.rs";

/// Calls that can block indefinitely while a guard is held.
const BLOCKING_PATTERNS: &[&str] = &[
    ".send(",
    ".recv()",
    ".recv_timeout(",
    ".join()",
    "thread::spawn",
    ".spawn(",
];

/// Whether this path is in scope for the concurrency lints: production
/// sources only (integration tests and benches excluded).
pub fn in_concurrency_scope(path: &str) -> bool {
    !path.contains("/tests/") && !path.contains("/benches/")
}

/// One detected site: `(line, description)`.
type Site = (usize, String);

/// Skips a balanced `(...)` group starting at `open` (which must index a
/// `(`), returning the index just past the matching `)`.
fn skip_parens(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Finds concurrency-lint sites in one file's already-masked source.
pub fn find_concurrency_sites(masked: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    let lines: Vec<&str> = masked.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;

        // Raw poison-unwrapping.
        for pat in [".lock().unwrap()", ".lock().expect("] {
            if line.contains(pat) {
                sites.push((
                    lineno,
                    format!(
                        "`{pat}` panics if another thread panicked while holding this \
                         lock — use tiledec_cluster::sync::lock_ignore_poison, the one \
                         audited poison-recovery path"
                    ),
                ));
            }
        }

        // Duplicated helper / hand-rolled recovery.
        if line.contains("fn lock_ignore_poison") || line.contains("PoisonError") {
            sites.push((
                lineno,
                "poison recovery must live in crates/cluster/src/sync.rs only — \
                 one shared, audited helper instead of per-module copies"
                    .to_string(),
            ));
        }

        // Lock acquisition: temporary chained into a blocking call, or a
        // named guard binding whose scope we then walk.
        let lock_at = ["lock_ignore_poison(", ".lock()"]
            .iter()
            .filter_map(|p| line.find(p).map(|i| (i, *p)))
            .min();
        let Some((pos, pat)) = lock_at else { continue };
        let b = line.as_bytes();
        let after = if pat.ends_with('(') {
            skip_parens(b, pos + pat.len() - 1)
        } else {
            pos + pat.len()
        };
        let rest = &line[after.min(line.len())..];

        if let Some(bp) = BLOCKING_PATTERNS.iter().find(|p| rest.contains(**p)) {
            sites.push((
                lineno,
                format!(
                    "lock guard temporary is held across the blocking `{bp}` in the \
                     same expression — every other thread contending this lock waits \
                     behind the blocked holder; split the lock from the blocking call \
                     (or justify in crates/xtask/concurrency-allowlist.txt)"
                ),
            ));
            continue;
        }

        // Named guard: `let [mut] name = <lock call>;` — anything else
        // (e.g. a method chain that drops the guard) was handled above.
        let trimmed = line.trim_start();
        let is_binding = trimmed.starts_with("let ")
            && line[..pos].contains('=')
            && rest.trim_end().trim_end_matches(';').trim().is_empty();
        if !is_binding {
            continue;
        }
        let name = trimmed["let ".len()..]
            .split('=')
            .next()
            .unwrap_or("")
            .trim()
            .trim_start_matches("mut ")
            .split(':')
            .next()
            .unwrap_or("")
            .trim()
            .to_string();
        if name.is_empty()
            || name == "_"
            || !name.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            continue;
        }

        // Walk the guard's scope: forward until the enclosing block
        // closes (brace depth below zero) or the guard is dropped.
        let mut depth = 0i32;
        'scope: for (fwd, scan_line) in lines.iter().enumerate().skip(idx) {
            let start_col = if fwd == idx { after } else { 0 };
            let text = &scan_line[start_col.min(scan_line.len())..];
            if fwd > idx {
                if text.contains(&format!("drop({name})")) {
                    break 'scope;
                }
                for bp in BLOCKING_PATTERNS {
                    if text.contains(bp) {
                        sites.push((
                            lineno,
                            format!(
                                "MutexGuard `{name}` is still live across the blocking \
                                 `{bp}` on line {} — a blocked holder wedges every \
                                 thread contending this lock; drop the guard first or \
                                 move the blocking call out of the critical section",
                                fwd + 1
                            ),
                        ));
                        break 'scope;
                    }
                }
            }
            for c in text.bytes() {
                match c {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth < 0 {
                            break 'scope;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    sites
}

/// Runs the concurrency lints over `files` against the frozen budget.
pub fn check_concurrency(
    files: &[(String, String)],
    allowlist: &BTreeMap<String, usize>,
) -> Vec<Finding> {
    let mut sites = BTreeMap::new();
    for (path, src) in files {
        if !in_concurrency_scope(path) || path == SYNC_HELPER_FILE {
            continue;
        }
        let masked = mask_test_modules(&strip_comments_and_strings(src));
        sites.insert(path.clone(), find_concurrency_sites(&masked));
    }
    check_budget(
        &sites,
        allowlist,
        "crates/xtask/concurrency-allowlist.txt",
        |what, n, allowed| format!("{what} ({n} sites found, {allowed} allowed)"),
    )
}

/// Runs the concurrency lints over a workspace root with its committed
/// allowlist.
pub fn run_concurrency(root: &Path, files: &[(String, String)]) -> Result<Vec<Finding>, String> {
    let allowlist = crate::scan::load_allowlist(root, "crates/xtask/concurrency-allowlist.txt")?;
    Ok(check_concurrency(files, &allowlist))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<String> {
        let files = vec![(path.to_string(), src.to_string())];
        check_concurrency(&files, &BTreeMap::new())
            .into_iter()
            .map(|f| f.to_string())
            .collect()
    }

    #[test]
    fn raw_lock_unwrap_is_caught_at_its_line() {
        // The injected violation from the issue: a raw `.lock().unwrap()`
        // must fail naming file and line and pointing at the helper.
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap();\n}\n";
        let msgs = lint("crates/core/src/scheduler.rs", src);
        assert!(
            msgs.iter()
                .any(|m| m.contains("scheduler.rs:2") && m.contains("lock_ignore_poison")),
            "{msgs:?}"
        );
    }

    #[test]
    fn named_guard_across_send_is_caught() {
        // Injected violation: guard stays live across a channel send.
        let src = "fn f() {\n    let g = lock_ignore_poison(&m);\n    consume(*g);\n    tx.send(1).unwrap();\n}\n";
        let msgs = lint("crates/core/src/x.rs", src);
        assert!(
            msgs.iter()
                .any(|m| { m.contains("x.rs:2") && m.contains("`g`") && m.contains("line 4") }),
            "{msgs:?}"
        );
    }

    #[test]
    fn guard_dropped_before_send_is_clean() {
        let src = "fn f() {\n    let g = lock_ignore_poison(&m);\n    consume(*g);\n    drop(g);\n    tx.send(1).unwrap();\n}\n";
        let msgs = lint("crates/core/src/x.rs", src);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn guard_scope_ends_at_enclosing_block() {
        // gm::poison shape: guard in a loop body, send after the loop.
        let src = "fn f() {\n    for l in links {\n        let _guard = lock_ignore_poison(&l.state);\n        l.cv.notify_all();\n    }\n    tx.send(1).unwrap();\n}\n";
        let msgs = lint("crates/cluster/src/x.rs", src);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn temporary_guard_chained_into_recv_is_caught() {
        // worker_loop shape: must be flagged (then budgeted where it is
        // the deliberate queue discipline).
        let src = "fn f() {\n    let job = match lock_ignore_poison(rx).recv() {\n        Ok(j) => j,\n        Err(_) => return,\n    };\n}\n";
        let msgs = lint("crates/core/src/x.rs", src);
        assert!(
            msgs.iter()
                .any(|m| m.contains("x.rs:2") && m.contains("temporary")),
            "{msgs:?}"
        );
    }

    #[test]
    fn try_recv_through_lock_is_not_blocking() {
        let src =
            "fn f() {\n    let r = lock_ignore_poison(rx).try_recv().unwrap_or_default();\n}\n";
        let msgs = lint("crates/core/src/x.rs", src);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn duplicate_helper_definition_is_rejected_outside_sync() {
        let src = "fn lock_ignore_poison(m: &M) -> G { m.lock().unwrap_or_else(PoisonError::into_inner) }\n";
        let msgs = lint("crates/core/src/vld_parallel.rs", src);
        assert!(msgs.iter().any(|m| m.contains("one shared")), "{msgs:?}");
        assert!(lint(SYNC_HELPER_FILE, src).is_empty());
    }

    #[test]
    fn test_modules_and_test_files_are_out_of_scope() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let g = m.lock().unwrap(); }\n}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
        let raw = "fn t() { let g = m.lock().unwrap(); }\n";
        assert!(lint("crates/core/tests/integration.rs", raw).is_empty());
    }
}
