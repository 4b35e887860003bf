//! `doc-links`: every relative link in the workspace's markdown
//! documentation resolves to an existing file.
//!
//! For each `.md` file the engine finds, extracts inline markdown links
//! and images (`[text](target)`), and reports every relative target
//! that does not exist on disk. Absolute URLs
//! (`http://`, `https://`, `mailto:`) and intra-page anchors (`#...`)
//! are ignored; `path#anchor` targets are checked for the path part
//! only. Fenced code blocks are skipped so format-spec tables and
//! example snippets cannot produce false positives.

use crate::diag::Diagnostic;
use crate::engine::relative;
use std::fs;
use std::path::Path;

/// Reports every broken relative link in the markdown file `file`;
/// rooted targets (`/path`) resolve against `root`.
pub(crate) fn check(root: &Path, file: &Path, out: &mut Vec<Diagnostic>) {
    let Ok(text) = fs::read_to_string(file) else {
        return;
    };
    let base = file.parent().unwrap_or(root);
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for target in extract_targets(line) {
            if is_external(&target) {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue; // pure anchor
            }
            let resolved = if let Some(rooted) = path_part.strip_prefix('/') {
                root.join(rooted)
            } else {
                base.join(path_part)
            };
            if !resolved.exists() {
                out.push(Diagnostic {
                    rule: "doc-links",
                    file: relative(root, file),
                    line: idx + 1,
                    col: 0,
                    message: format!("broken relative link `{target}`"),
                    snippet: line.trim().to_string(),
                });
            }
        }
    }
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with("//")
}

/// Pulls every `](target)` out of one line. Inline code spans are
/// stripped first so `` `[a](b)` `` examples are not treated as links.
fn extract_targets(line: &str) -> Vec<String> {
    let line = strip_code_spans(line);
    let bytes = line.as_bytes();
    let mut targets = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            let start = i + 2;
            let mut depth = 1;
            let mut end = start;
            while end < bytes.len() && depth > 0 {
                match bytes[end] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    end += 1;
                }
            }
            if depth == 0 {
                let target = line[start..end].trim();
                // `[text](target "title")` — drop the optional title.
                let target = target.split_whitespace().next().unwrap_or("");
                if !target.is_empty() {
                    targets.push(target.to_string());
                }
                i = end;
            }
        }
        i += 1;
    }
    targets
}

fn strip_code_spans(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_span = false;
    for c in line.chars() {
        if c == '`' {
            in_span = !in_span;
            out.push(' ');
        } else if in_span {
            out.push(' ');
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_plain_and_titled_links() {
        let t = extract_targets("see [a](x.md) and ![img](img/y.png \"alt\") end");
        assert_eq!(t, vec!["x.md".to_string(), "img/y.png".to_string()]);
    }

    #[test]
    fn skips_code_spans_and_anchors() {
        assert!(extract_targets("use `[a](fake.md)` in markdown").is_empty());
        let t = extract_targets("[sec](#anchor) [doc](guide.md#part)");
        assert_eq!(t, vec!["#anchor".to_string(), "guide.md#part".to_string()]);
    }

    #[test]
    fn external_targets_are_ignored() {
        assert!(is_external("https://example.com/x"));
        assert!(is_external("mailto:a@b.c"));
        assert!(!is_external("docs/x.md"));
    }
}
