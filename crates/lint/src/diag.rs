//! Diagnostics: rustc-style rendering and the machine-readable JSON
//! report CI uploads as an artifact.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule identifier (e.g. `lock-order`).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub(crate) file: PathBuf,
    /// 1-based line (0 for file-level findings).
    pub(crate) line: usize,
    /// 1-based column (0 when not meaningful).
    pub(crate) col: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// Renders the finding rustc-style.
    pub fn render(&self) -> String {
        let mut s = format!("error[{}]: {}\n", self.rule, self.message);
        if self.line > 0 {
            s.push_str(&format!(
                "  --> {}:{}{}\n",
                self.file.display(),
                self.line,
                if self.col > 0 {
                    format!(":{}", self.col)
                } else {
                    String::new()
                }
            ));
            if !self.snippet.is_empty() {
                s.push_str(&format!("   | {}\n", self.snippet));
            }
        } else {
            s.push_str(&format!("  --> {}\n", self.file.display()));
        }
        s
    }
}

/// Serializes findings as the lint report JSON document:
///
/// ```json
/// {
///   "version": 1,
///   "findings": [
///     {"rule": "...", "severity": "error", "file": "...",
///      "line": 1, "col": 1, "message": "...", "snippet": "..."}
///   ],
///   "summary": {"total": 0, "per_rule": {"rule-id": 0}}
/// }
/// ```
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for d in diags {
        *per_rule.entry(d.rule).or_insert(0) += 1;
    }
    let mut s = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": {}, \"severity\": \"error\", \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"snippet\": {}}}",
            json_str(d.rule),
            json_str(&d.file.display().to_string()),
            d.line,
            d.col,
            json_str(&d.message),
            json_str(&d.snippet),
        ));
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"summary\": {\"total\": ");
    s.push_str(&diags.len().to_string());
    s.push_str(", \"per_rule\": {");
    for (i, (rule, n)) in per_rule.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{}: {}", json_str(rule), n));
    }
    s.push_str("}}\n}\n");
    s
}

/// Escapes a string for JSON.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "lock-order",
            file: PathBuf::from("crates/x/src/a.rs"),
            line: 3,
            col: 7,
            message: "forbidden `.unwrap()` in library code".into(),
            snippet: "x.unwrap();".into(),
        }
    }

    #[test]
    fn render_is_rustc_style() {
        let r = diag().render();
        assert!(r.starts_with("error[lock-order]:"));
        assert!(r.contains("--> crates/x/src/a.rs:3:7"));
        assert!(r.contains("| x.unwrap();"));
    }

    #[test]
    fn json_roundtrips_special_chars() {
        let mut d = diag();
        d.message = "quote \" backslash \\ newline \n tab \t".into();
        let j = to_json(&[d]);
        assert!(j.contains(r#"quote \" backslash \\ newline \n tab \t"#));
        assert!(j.contains("\"total\": 1"));
        assert!(j.contains("\"lock-order\": 1"));
    }

    #[test]
    fn empty_report() {
        let j = to_json(&[]);
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"total\": 0"));
    }
}
