//! A relative-link checker for the workspace's markdown documentation.
//!
//! Scans every `.md` file in the repository (skipping `target/`,
//! `.git/` and other hidden directories), extracts inline
//! markdown links and images (`[text](target)`), and reports every
//! relative target that does not exist on disk. Absolute URLs
//! (`http://`, `https://`, `mailto:`) and intra-page anchors (`#...`)
//! are ignored; `path#anchor` targets are checked for the path part
//! only. Fenced code blocks are skipped so format-spec tables and
//! example snippets cannot produce false positives.

use std::fs;
use std::path::{Path, PathBuf};

/// One unresolved markdown link.
#[derive(Clone, Debug)]
pub(crate) struct BrokenLink {
    /// The markdown file containing the link.
    pub(crate) file: PathBuf,
    /// 1-based line number of the link.
    pub(crate) line: usize,
    /// The link target as written.
    pub(crate) target: String,
}

impl BrokenLink {
    /// Renders the finding as a rustc-style diagnostic.
    pub(crate) fn render(&self) -> String {
        format!(
            "error[doc-links]: broken relative link `{}`\n  --> {}:{}\n",
            self.target,
            self.file.display(),
            self.line
        )
    }
}

/// Directories never scanned for markdown.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Checks every markdown file under `root`; returns all broken links.
pub(crate) fn run(root: &Path) -> Vec<BrokenLink> {
    let mut files = Vec::new();
    collect_md(root, &mut files);
    files.sort();
    let mut broken = Vec::new();
    for file in &files {
        check_file(root, file, &mut broken);
    }
    broken
}

fn collect_md(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_md(&path, out);
            }
        } else if name.ends_with(".md") {
            out.push(path);
        }
    }
}

fn check_file(root: &Path, file: &Path, broken: &mut Vec<BrokenLink>) {
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
                broken.push(BrokenLink {
                    file: file.to_path_buf(),
                    line: idx + 1,
                    target,
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

    #[test]
    fn finds_broken_links_and_accepts_good_ones() {
        let dir = std::env::temp_dir().join(format!("nsb-doclinks-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("real.md"), "# real\n").expect("write");
        fs::write(
            dir.join("README.md"),
            "[ok](real.md)\n[anchor](real.md#top)\n[missing](gone.md)\n\
             ```\n[in-fence](also-gone.md)\n```\n[web](https://example.com)\n",
        )
        .expect("write");
        let broken = run(&dir);
        assert_eq!(broken.len(), 1);
        assert_eq!(broken[0].target, "gone.md");
        assert_eq!(broken[0].line, 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
