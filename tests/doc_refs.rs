//! Every repository path the prose docs cite in backticks exists. A doc
//! that still names `crates/…/x.rs` after `x.rs` moved or was deleted
//! fails here instead of misleading a reader.

use std::path::Path;

/// The docs checked, relative to the repository root.
const DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "ledger/README.md",
];

/// An inline code span starting with one of these is a repository path.
const ROOTS: [&str; 5] = ["crates/", "tests/", "ledger/", "examples/", "results/"];

/// The repository paths `markdown` cites in inline code spans outside
/// fenced blocks, each cut at its first `:` (a `::test_name` or `:line`
/// suffix). Spans holding whitespace are commands or prose, not paths.
fn cited_paths(markdown: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = markdown
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect();
    prose
        .join("\n")
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::trim)
        .filter(|span| ROOTS.iter().any(|root| span.starts_with(root)))
        .filter_map(|span| span.split(':').next())
        .filter(|path| !path.contains(char::is_whitespace))
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_cited_repo_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut cited = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for path in cited_paths(&text) {
            cited += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs cite paths that do not exist:\n{}",
        missing.join("\n")
    );
    // A parse that finds nothing would pass vacuously; the docs cite dozens.
    assert!(cited >= 50, "only {cited} cited paths found");
}

#[test]
fn cited_paths_are_cut_at_their_suffix_and_skip_code_blocks() {
    let markdown = "See `tests/a.rs::case` and `crates/x/src/y.rs:10–20`, not `cargo test`.\n\
                    ```\n`tests/fenced.rs`\n```\n\
                    `results/` and `tests/b.rs with words`";
    assert_eq!(
        cited_paths(markdown),
        ["tests/a.rs", "crates/x/src/y.rs", "results/"]
    );
}
