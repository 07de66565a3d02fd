//! The two helpers every hand-rolled JSON writer in the workspace
//! shares (the vendored serde is a no-op stand-in): string escaping
//! and a float format that always reads back as a float.

use std::borrow::Cow;

/// Escapes `s` for use inside a JSON string literal. Quote, backslash,
/// newline and tab get their short escapes; every other control
/// character becomes `\u00XX`. Borrows when nothing needs escaping.
pub fn json_escape(s: &str) -> Cow<'_, str> {
    if !s.chars().any(|c| c == '"' || c == '\\' || (c as u32) < 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Formats a float as a JSON number, keeping a trailing `.0` on
/// integral values so readers see a float, not an integer.
pub fn json_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain.path"), "plain.path");
        assert!(matches!(json_escape("plain"), Cow::Borrowed(_)));
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("l1\nl2\tx\u{1}"), "l1\\nl2\\tx\\u0001");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(json_f64(8.0), "8.0");
        assert_eq!(json_f64(0.125), "0.125");
        assert_eq!(json_f64(-3.0), "-3.0");
    }
}
