//! Diagnostics and their rustc-style rendering.

use std::fmt;
use std::path::PathBuf;

/// One finding. Its `Display` form is the rustc-style rendering.
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

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        if self.line == 0 {
            return writeln!(f, "  --> {}", self.file.display());
        }
        write!(f, "  --> {}:{}", self.file.display(), self.line)?;
        if self.col > 0 {
            write!(f, ":{}", self.col)?;
        }
        writeln!(f)?;
        if !self.snippet.is_empty() {
            writeln!(f, "   | {}", self.snippet)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_rustc_style() {
        let d = Diagnostic {
            rule: "lock-order",
            file: PathBuf::from("crates/x/src/a.rs"),
            line: 3,
            col: 7,
            message: "forbidden `.unwrap()` in library code".into(),
            snippet: "x.unwrap();".into(),
        };
        let r = d.to_string();
        assert!(r.starts_with("error[lock-order]:"));
        assert!(r.contains("--> crates/x/src/a.rs:3:7\n"));
        assert!(r.contains("| x.unwrap();"));
        let file_level = Diagnostic { line: 0, ..d }.to_string();
        assert!(file_level.ends_with("  --> crates/x/src/a.rs\n"));
    }
}
