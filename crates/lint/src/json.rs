//! Hand-rolled JSON rendering for `omg-lint --json` (the workspace
//! vendors no serialization crate, and the report shape is a few keys).

use crate::rules::Violation;
use crate::Summary;

/// Escapes `s` per RFC 8259 (quotes, backslashes, and control
/// characters; everything else passes through as UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn violation(v: &Violation) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
        escape(&v.file),
        v.line,
        escape(v.rule),
        escape(&v.message)
    )
}

/// Renders the full machine-readable report: scan size, reachable-set
/// size, library `pub` items per crate and in total, cleanliness, and
/// every violation.
pub fn render(s: &Summary) -> String {
    let vs: Vec<String> = s.violations.iter().map(violation).collect();
    let per_crate: Vec<String> = s
        .pub_items
        .iter()
        .map(|(krate, n)| format!("\"{}\": {n}", escape(krate)))
        .collect();
    format!(
        "{{\n  \"tool\": \"omg-lint\",\n  \"files_scanned\": {},\n  \"reachable_fns\": {},\n  \"pub_items\": {{{}}},\n  \"pub_items_total\": {},\n  \"clean\": {},\n  \"violations\": [{}]\n}}",
        s.files_scanned,
        s.reachable_fns,
        per_crate.join(", "),
        s.pub_items.values().sum::<usize>(),
        s.violations.is_empty(),
        if vs.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", vs.join(",\n    "))
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain — utf8 passes"), "plain — utf8 passes");
    }

    #[test]
    fn report_shape_is_stable() {
        let s = Summary {
            files_scanned: 2,
            reachable_fns: 7,
            violations: vec![Violation {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "panic-on-hot-path",
                message: "say \"why\"".into(),
            }],
            files: vec![],
            pub_items: [("crates/a".to_string(), 3), ("crates/b".to_string(), 4)].into(),
        };
        let j = render(&s);
        assert!(j.contains("\"files_scanned\": 2"), "{j}");
        assert!(j.contains("\"reachable_fns\": 7"), "{j}");
        assert!(
            j.contains("\"pub_items\": {\"crates/a\": 3, \"crates/b\": 4}"),
            "{j}"
        );
        assert!(j.contains("\"pub_items_total\": 7"), "{j}");
        assert!(j.contains("\"clean\": false"), "{j}");
        assert!(j.contains("\"line\":3"), "{j}");
        assert!(j.contains("say \\\"why\\\""), "{j}");
        let clean = Summary {
            files_scanned: 0,
            reachable_fns: 0,
            violations: vec![],
            files: vec![],
            pub_items: Default::default(),
        };
        assert!(render(&clean).contains("\"violations\": []"));
    }
}
