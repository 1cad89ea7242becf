//! Framing for the hand-rolled `BENCH_sim.json` artifact.
//!
//! The workspace is offline and serde is not among the vendored shims,
//! so the artifact is rendered by hand. The [`Doc`] builder owns the
//! framing — brace/newline layout, last-item comma suppression, the
//! schema/unit-note preamble; the per-workload line *bodies* stay
//! `format!` strings in [`crate::perf`], because their key order and
//! float precision are part of the artifact's diffable contract and
//! belong next to the suite that defines them.
//!
//! Byte-layout invariants, pinned by the committed artifact itself
//! (`tests/artifacts.rs` renders the suite and compares bytes):
//!
//! * top-level members are indented two spaces, one per line;
//! * array items are indented four spaces, one per line, with the
//!   comma on every line but the last;
//! * the document opens `{\n`, closes `}\n`, and starts with the
//!   `schema` and `unit_note` members in that order.

/// An in-progress artifact document.
pub struct Doc {
    out: String,
}

impl Doc {
    /// Opens a document with the standard `schema` / `unit_note`
    /// preamble every BENCH artifact leads with.
    pub fn open(schema: &str, unit_note: &str) -> Doc {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
        out.push_str(&format!("  \"unit_note\": \"{unit_note}\",\n"));
        Doc { out }
    }

    /// Appends an array member: one item per line, four-space indent,
    /// comma on every line but the last; `comma` says whether
    /// top-level members follow the array.
    pub fn array(&mut self, key: &str, items: &[String], comma: bool) {
        self.out.push_str(&format!("  \"{key}\": [\n"));
        for (i, item) in items.iter().enumerate() {
            let sep = if i + 1 == items.len() { "" } else { "," };
            self.out.push_str(&format!("    {item}{sep}\n"));
        }
        self.out.push_str(if comma { "  ],\n" } else { "  ]\n" });
    }

    /// Closes the document and returns its bytes.
    pub fn finish(mut self) -> String {
        self.out.push_str("}\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::Doc;

    #[test]
    fn framing_matches_the_artifact_contract() {
        let mut doc = Doc::open("s-v1", "units");
        doc.array("cases", &["{\"a\": 1}".into(), "{\"a\": 2}".into()], false);
        let text = doc.finish();
        assert_eq!(
            text,
            "{\n  \"schema\": \"s-v1\",\n  \"unit_note\": \"units\",\n  \"cases\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_and_single_item_arrays_are_well_formed() {
        let mut doc = Doc::open("s", "u");
        doc.array("none", &[], true);
        doc.array("one", &["1".into()], false);
        assert_eq!(
            doc.finish(),
            "{\n  \"schema\": \"s\",\n  \"unit_note\": \"u\",\n  \"none\": [\n  ],\n  \"one\": [\n    1\n  ]\n}\n"
        );
    }
}
