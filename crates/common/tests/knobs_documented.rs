//! The `KERA_*` variables the docs name are the ones `knobs::TABLE` reads:
//! README.md carries every row as the table states it, and nothing
//! documents a variable that no longer exists.

use std::collections::BTreeSet;

use kera_common::knobs::TABLE;

/// A file at the repository root.
fn read(doc: &str) -> String {
    let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every `KERA_[A-Z0-9_]+` name in `doc` (the bare prefix, as in
/// "`KERA_*`", is not one).
fn names_in(doc: &str) -> BTreeSet<String> {
    let text = read(doc);
    let name_len = |s: &str| {
        s.find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(s.len())
    };
    text.match_indices("KERA_")
        .map(|(at, _)| text[at..at + name_len(&text[at..])].trim_end_matches('_').to_string())
        .filter(|name| name != "KERA")
        .collect()
}

#[test]
fn docs_and_table_name_the_same_variables() {
    let table: BTreeSet<String> = TABLE.iter().map(|k| k.name.to_string()).collect();
    assert_eq!(table.len(), TABLE.len(), "duplicate row");
    assert_eq!(names_in("README.md"), table, "README.md lists exactly the table's rows");
    let readme = read("README.md");
    for k in TABLE {
        let row = format!("| `{}` | {} | {} |", k.name, k.default, k.doc);
        assert!(readme.contains(&row), "README.md \"Environment variables\" lacks the row\n{row}");
    }
    for doc in ["DESIGN.md", "EXPERIMENTS.md"] {
        let stale: Vec<_> = names_in(doc).difference(&table).cloned().collect();
        assert!(stale.is_empty(), "{doc} names variables nothing reads: {stale:?}");
    }
}
