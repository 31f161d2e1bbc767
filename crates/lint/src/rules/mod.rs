//! The rule suite. Each rule is a pure function of the [`Workspace`]:
//! it appends [`Finding`]s and never mutates source. Waiver matching
//! happens after all rules run (`crate::run`).

use crate::report::Finding;
use crate::source::{SourceFile, Workspace};

mod determinism;
mod format;
mod layering;
mod obs;
mod panic;

/// One lint rule.
pub trait Rule {
    /// Stable id used in findings, waivers, and `--rule`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(layering::Layering),
        Box::new(determinism::WallClock),
        Box::new(determinism::HashOrder),
        Box::new(panic::PanicPolicy),
        Box::new(format::FormatDrift),
        Box::new(obs::ObsDrift),
    ]
}

/// True when `code[pos]` starts a standalone token: the previous
/// character is neither an identifier character nor a path separator
/// colon (so `SourceFile::` never matches a `File::` ban, and
/// `std::fs::read` is reported once, not once per sub-token).
fn token_boundary(code: &str, pos: usize) -> bool {
    if pos == 0 {
        return true;
    }
    let prev = code.as_bytes()[pos - 1];
    !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b':' || prev == b'.')
}

/// Like [`token_boundary`], but a leading `::` path or `.` method
/// receiver is fine — only a longer identifier disqualifies the match.
fn ident_boundary(code: &str, pos: usize) -> bool {
    if pos == 0 {
        return true;
    }
    let prev = code.as_bytes()[pos - 1];
    !(prev.is_ascii_alphanumeric() || prev == b'_')
}

/// Scan a file's scrubbed code for banned tokens, skipping
/// `#[cfg(test)]` regions, deduplicating per line.
fn scan_banned(
    file: &SourceFile,
    tokens: &[&str],
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    let mut seen_lines = std::collections::BTreeSet::new();
    for token in tokens {
        let needs_boundary = token
            .as_bytes()
            .first()
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        let mut from = 0usize;
        while let Some(p) = file.lex.code[from..].find(token) {
            let pos = from + p;
            from = pos + 1;
            if needs_boundary && !token_boundary(&file.lex.code, pos) {
                continue;
            }
            if file.lex.in_test_region(pos) {
                continue;
            }
            let line = file.lex.line_of(pos);
            if seen_lines.insert(line) {
                out.push(Finding {
                    rule,
                    path: file.path.clone(),
                    line,
                    excerpt: file.excerpt(line),
                    message: format!("`{token}` {message}"),
                });
            }
        }
    }
}

/// Extract the backticked names from the first cell of a markdown table
/// row, keeping only dot-separated lowercase metric-style names.
fn names_in_table_cell(row: &str) -> Vec<String> {
    let Some(rest) = row.trim_start().strip_prefix('|') else {
        return Vec::new();
    };
    let cell = rest.split('|').next().unwrap_or("");
    let mut out = Vec::new();
    let mut parts = cell.split('`');
    // Odd-indexed fragments are inside backticks.
    while let (Some(_), Some(inside)) = (parts.next(), parts.next()) {
        if is_metric_name(inside) {
            out.push(inside.to_string());
        }
    }
    out
}

/// `area.noun[.verb]`: lowercase dot-separated, at least one dot, no
/// `::`, no file-style extensions — the OBSERVABILITY.md convention.
fn is_metric_name(s: &str) -> bool {
    if !s.contains('.') || s.contains("::") {
        return false;
    }
    s.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

/// Lines (1-based) of a doc file between `<!-- blockdec-lint: <anchor>:begin -->`
/// and the matching `:end -->` markers, over every such region.
fn anchored_lines<'a>(doc: &'a str, anchor: &str) -> Vec<(usize, &'a str)> {
    let begin = format!("blockdec-lint: {anchor}:begin");
    let end = format!("blockdec-lint: {anchor}:end");
    let mut out = Vec::new();
    let mut inside = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.contains(&begin) {
            inside = true;
        } else if line.contains(&end) {
            inside = false;
        } else if inside {
            out.push((idx + 1, line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_filter() {
        assert!(is_metric_name("store.backend.hit"));
        assert!(is_metric_name("stage.fsck_repair"));
        assert!(!is_metric_name("manifest"));
        assert!(!is_metric_name("blockdec_store::cache"));
        assert!(!is_metric_name("Store.Cache"));
    }

    #[test]
    fn table_cell_names() {
        let row = "| `store.backend.hit` / `store.backend.miss` | lookups (`blockdec_store::backend::PageCache`) |";
        assert_eq!(
            names_in_table_cell(row),
            vec![
                "store.backend.hit".to_string(),
                "store.backend.miss".to_string()
            ]
        );
        assert!(names_in_table_cell("|---|---|").is_empty());
        assert!(names_in_table_cell("no pipe").is_empty());
    }

    #[test]
    fn anchor_regions() {
        let doc = "x\n<!-- blockdec-lint: obs-names:begin -->\n| `a.b` |\n<!-- blockdec-lint: obs-names:end -->\ny\n";
        let lines = anchored_lines(doc, "obs-names");
        assert_eq!(lines, vec![(3, "| `a.b` |")]);
    }
}
