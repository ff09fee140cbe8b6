//! Cross-validation of the static lint against the litmus corpus.
//!
//! Every litmus test carries a hand-written `properly_labeled`
//! annotation (PR 4): whether its accesses are competing-by-design or
//! fully ordered/protected. The static PL pass, given only the
//! compiled program and its sync declarations, must reproduce all 19
//! verdicts — the `*_pl` variants certify via the common-lock rule, the
//! store-buffer/message-passing family is under-labeled exactly as
//! annotated. This is the corpus-level soundness check the verifier's
//! exhaustive exploration cannot provide (it runs programs; the lint
//! never does).

use dashlat_analyze::lint::{lint_workload, LintOptions};
use dashlat_verify::litmus::corpus;
use dashlat_verify::workload::{compile, layout};

#[test]
fn lint_reproduces_every_labeling_annotation() {
    let tests = corpus();
    assert!(tests.len() >= 19, "corpus shrank to {}", tests.len());
    let mut mismatches = Vec::new();
    for t in &tests {
        let lay = layout(t, t.nprocs());
        let offsets = vec![0; t.nprocs()];
        let w = compile(t, &lay, &offsets);
        let r = lint_workload(t.name, &w, &LintOptions::default()).expect("litmus forks");
        // Litmus programs have no locksmithing bugs or barriers: the
        // only verdict in play is the labeling one.
        assert!(r.deadlock.cycles.is_empty(), "{}: {}", t.name, r.render());
        assert!(r.extraction_notes.is_empty(), "{}: {}", t.name, r.render());
        if r.labeling.properly_labeled() != t.properly_labeled {
            mismatches.push(format!(
                "{}: annotated {}, lint said {}",
                t.name,
                t.properly_labeled,
                r.labeling.properly_labeled()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "static PL verdicts disagree with corpus annotations:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn pl_variants_certify_via_common_lock() {
    for name in ["mp_pl", "sb_pl"] {
        let t = dashlat_verify::litmus::by_name(name).expect("corpus test");
        let lay = layout(&t, t.nprocs());
        let offsets = vec![0; t.nprocs()];
        let w = compile(&t, &lay, &offsets);
        let r = lint_workload(name, &w, &LintOptions::default()).expect("forks");
        assert!(!r.is_critical(), "{}: {}", name, r.render());
        assert!(r.labeling.pairs_checked > 0, "{name} must have conflicts");
    }
}

#[test]
fn under_labeled_verdicts_are_critical() {
    let t = dashlat_verify::litmus::by_name("sb").expect("corpus test");
    let lay = layout(&t, t.nprocs());
    let w = compile(&t, &lay, &vec![0; t.nprocs()]);
    let r = lint_workload("sb", &w, &LintOptions::default()).expect("forks");
    assert!(r.is_critical());
    assert!(!r.labeling.under_labeled_addrs.is_empty());
}
