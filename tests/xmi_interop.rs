//! E7: XMI import/export (Section 3) — fidelity across the whole
//! refinement, including concern marks, plus property-based round-trip
//! coverage over randomly shaped models, golden documents that pin the
//! export format byte for byte, and a differential check of the
//! streaming writer against the tree-building writer it replaced.

mod common;
mod xmi_oracle;

use comet::MdaLifecycle;
use comet_codegen::marks;
use comet_concerns::{distribution, logging, security, transactions};
use comet_model::sample::{banking_pim, synthetic};
use comet_model::{ElementKind, Model, Primitive, TagValue, TypeRef};
use comet_repo::fnv1a64;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use comet_xmi::{export_model, import_model};
use common::{dist_si, executable_banking_pim, tx_si};
use proptest::prelude::*;
use std::path::Path;

#[test]
fn refined_psm_round_trips_with_all_marks() {
    let workflow = WorkflowModel::new("e7").step("distribution", false).step("transactions", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();

    let xmi = export_model(mda.model());
    let back = import_model(&xmi).unwrap();
    assert_eq!(&back, mda.model());
    // The marks specifically survive.
    let bank = back.find_class("Bank").unwrap();
    assert!(back.has_stereotype(bank, "Remote").unwrap());
    let transfer = back.find_operation(bank, "transfer").unwrap();
    assert_eq!(
        back.element(transfer).unwrap().core().tag("comet.tx.isolation").unwrap().as_str(),
        Some("serializable")
    );
    assert_eq!(back.concern_of(back.find_class("BankProxy").unwrap()), Some("distribution"));
}

#[test]
fn import_rejects_tampered_snapshots() {
    let xmi = export_model(&executable_banking_pim());
    // Flip an owner reference to a dangling id.
    let tampered = xmi.replacen("owner=\"#1\"", "owner=\"#4242\"", 1);
    assert_ne!(xmi, tampered);
    assert!(import_model(&tampered).is_err());
}

/// `banking_pim()` refined by distribution → transactions → security.
fn banking_psm() -> Model {
    let workflow = WorkflowModel::new("golden")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(banking_pim(), workflow).unwrap();
    let dist = ParamSet::new()
        .with("server_class", ParamValue::from("Bank"))
        .with("node", ParamValue::from("server"))
        .with("operations", ParamValue::from(vec!["transfer".to_owned()]));
    let tx = ParamSet::new().with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]));
    let sec = ParamSet::new()
        .with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()]));
    mda.apply_concern(&distribution::pair(), dist).unwrap();
    mda.apply_concern(&transactions::pair(), tx).unwrap();
    mda.apply_concern(&security::pair(), sec).unwrap();
    mda.model().clone()
}

/// `synthetic(100, 4, 6)` refined by logging → transactions → security,
/// each concern targeting the same eight operations spread over the
/// model.
fn synthetic_psm() -> Model {
    let workflow = WorkflowModel::new("golden")
        .step("logging", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(synthetic(100, 4, 6), workflow).unwrap();
    let targets = |suffix: &str| -> Vec<String> {
        (0..8).map(|k| format!("C{}.op{}{suffix}", k * 12 + 3, k % 6)).collect()
    };
    let steps = [
        (logging::pair(), ParamSet::new().with("targets", ParamValue::from(targets("")))),
        (transactions::pair(), ParamSet::new().with("methods", ParamValue::from(targets("")))),
        (security::pair(), ParamSet::new().with("protected", ParamValue::from(targets(":teller")))),
    ];
    for (pair, si) in steps {
        mda.apply_concern(&pair, si).unwrap();
    }
    mda.model().clone()
}

/// A golden document: file name, the model it holds, its FNV-1a hash.
type Golden = (&'static str, fn() -> Model, u64);

/// The golden XMI documents under `tests/golden/xmi`: file name, model,
/// and the FNV-1a hash of the file's bytes. The files were written by
/// the tree-building exporter the streaming writer replaced; the
/// hashes are the content addresses the repository stores for these
/// revisions. Regenerate only on a deliberate format change, with
/// `UPDATE_GOLDEN=1 cargo test --test xmi_interop golden`.
const GOLDEN: [Golden; 3] = [
    ("banking_pim.xmi", banking_pim, 0x16c4_9d26_78ad_0c64),
    ("banking_psm.xmi", banking_psm, 0x5e45_75b4_aa2e_7692),
    ("synthetic_100_4_6_psm.xmi", synthetic_psm, 0xa5c5_56f8_8d5e_cd8f),
];

#[test]
fn exports_match_the_golden_documents_and_their_hashes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/xmi");
    for (file, build, pinned) in GOLDEN {
        let xmi = export_model(&build());
        let path = dir.join(file);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &xmi).unwrap();
            eprintln!("{file}: {:#018x}", fnv1a64(xmi.as_bytes()));
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
        if let Some(at) = xmi.bytes().zip(golden.bytes()).position(|(a, b)| a != b) {
            let window = |s: &str| {
                let bytes = &s.as_bytes()[at.saturating_sub(60)..(at + 60).min(s.len())];
                String::from_utf8_lossy(bytes).into_owned()
            };
            panic!(
                "{file} differs from its golden at byte {at}:\n  export: {:?}\n  golden: {:?}",
                window(&xmi),
                window(&golden),
            );
        }
        assert_eq!(xmi.len(), golden.len(), "{file}: length differs from its golden");
        assert_eq!(fnv1a64(golden.as_bytes()), pinned, "{file}: golden bytes drifted");
        assert_eq!(import_model(&golden).unwrap(), build(), "{file}: golden no longer imports");
    }
}

/// Every concern stereotype the standard library can mark a model
/// with, paired with a representative `comet.*` tag from its concern
/// space — including the fault-tolerance triple and its `ft.*` tags.
const ALL_MARKS: [(&str, &str, &str); 9] = [
    (marks::STEREO_REMOTE, marks::TAG_DIST_NODE, "server"),
    (marks::STEREO_TRANSACTIONAL, marks::TAG_TX_ISOLATION, "serializable"),
    (marks::STEREO_SECURED, marks::TAG_SEC_POLICY, "deny"),
    (marks::STEREO_LOGGED, marks::TAG_LOG_LEVEL, "info"),
    (marks::STEREO_SYNCHRONIZED, marks::TAG_SYNC_LOCK, "mutex"),
    (marks::STEREO_PERSISTENT, marks::TAG_PERSIST_STORE, "kv"),
    (marks::STEREO_RETRYABLE, marks::TAG_FT_BACKOFF_US, "250"),
    (marks::STEREO_DEADLINE, marks::TAG_FT_DEADLINE_US, "5000"),
    (marks::STEREO_BREAKER, marks::TAG_FT_BREAKER_THRESHOLD, "3"),
];

/// Strategy: a model carrying every concern stereotype at once, with
/// per-class subsets drawn randomly on top of one fully marked class.
fn arb_fully_marked_model() -> impl Strategy<Value = Model> {
    (2usize..5, prop::collection::vec(0usize..ALL_MARKS.len(), 0..12)).prop_map(
        |(classes, extra)| {
            let mut m = Model::new("marked");
            let root = m.root();
            let mut ids = Vec::new();
            for c in 0..classes {
                let id = m.add_class(root, &format!("C{c}")).expect("unique");
                m.add_operation(id, "op").expect("unique");
                ids.push(id);
            }
            // One class wears every stereotype in the library.
            let full = ids[0];
            for (stereo, tag, value) in ALL_MARKS {
                m.apply_stereotype(full, stereo).expect("class exists");
                m.set_tag(full, tag, TagValue::Str(value.to_owned())).expect("class exists");
            }
            m.set_tag(full, marks::TAG_FT_MAX_ATTEMPTS, TagValue::Int(4)).expect("class exists");
            // Remaining classes get random subsets.
            for (i, pick) in extra.iter().enumerate() {
                let id = ids[1 + i % (ids.len() - 1)];
                let (stereo, tag, value) = ALL_MARKS[*pick];
                let _ = m.apply_stereotype(id, stereo);
                m.set_tag(id, tag, TagValue::Str(value.to_owned())).expect("class exists");
            }
            m
        },
    )
}

/// Characters the text strategies draw from: the five XML
/// metacharacters, whitespace, and non-ASCII in one, two, three and
/// four UTF-8 bytes.
const TEXT_CHARS: [char; 16] =
    ['a', 'Z', '7', '&', '<', '>', '"', '\'', ' ', '.', '-', 'é', 'ß', 'Ω', '中', '🦀'];

/// Strategy: text of `len` characters drawn from [`TEXT_CHARS`].
fn arb_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..TEXT_CHARS.len(), len)
        .prop_map(|picks| picks.into_iter().map(|i| TEXT_CHARS[i]).collect())
}

/// Strategy: any tag value, with string leaves drawn from
/// [`arb_text`], finite reals of assorted magnitudes, and lists that
/// may be empty or nest further lists.
fn arb_tag_value() -> impl Strategy<Value = TagValue> {
    let leaf = prop_oneof![
        arb_text(0..6).prop_map(TagValue::Str),
        any::<i64>().prop_map(TagValue::Int),
        any::<bool>().prop_map(TagValue::Bool),
        (any::<i32>(), 0usize..5).prop_map(|(m, e)| {
            TagValue::Real(f64::from(m) * [1.0, 0.1, 1e-7, 3.5e12, 1e300][e])
        }),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop::collection::vec(inner, 0..3).prop_map(TagValue::List)
    })
}

/// Strategy: a random small model built through the checked API (so it
/// is well-formed by construction). Names, docs, tag strings, attribute
/// defaults, enumeration literals and constraint bodies carry XML
/// metacharacters and non-ASCII text; tags cover every value kind,
/// including empty and nested lists; enumerations may have no literals.
fn arb_model() -> impl Strategy<Value = Model> {
    (
        (
            1usize..6,                                  // classes
            0usize..4,                                  // attributes each
            0usize..3,                                  // operations each
            prop::collection::vec(any::<bool>(), 0..5), // generalization picks
            prop::collection::vec("[a-z]{1,8}", 0..4),  // stereotypes
        ),
        (
            arb_text(0..5),                               // name suffix
            prop::collection::vec(arb_text(0..8), 0..4),  // docs
            prop::collection::vec(arb_tag_value(), 0..4), // tag values
            prop::collection::vec(arb_text(0..5), 0..3),  // enum literals
            prop::collection::vec(arb_text(0..12), 0..3), // constraint bodies
        ),
    )
        .prop_map(
            |((classes, attrs, ops, gens, stereos), (suffix, docs, tags, literals, bodies))| {
                let mut m = Model::new(format!("arb{suffix}"));
                let root = m.root();
                let mut class_ids = Vec::new();
                for c in 0..classes {
                    let id = m.add_class(root, &format!("K{c}{suffix}")).expect("unique");
                    for a in 0..attrs {
                        let attr = m
                            .add_attribute(id, &format!("f{a}"), Primitive::Int.into())
                            .expect("unique");
                        let kind = m.element_mut(attr).expect("just added").kind_mut();
                        if let (Some(default), ElementKind::Attribute(data)) = (docs.get(a), kind) {
                            data.default = Some(default.clone());
                        }
                    }
                    for o in 0..ops {
                        let op = m.add_operation(id, &format!("m{o}")).expect("unique");
                        m.add_parameter(op, "x", Primitive::Str.into()).expect("unique");
                    }
                    if let Some(doc) = docs.get(c) {
                        m.element_mut(id).expect("just added").core_mut().doc = doc.clone();
                    }
                    class_ids.push(id);
                }
                for (i, pick) in gens.iter().enumerate() {
                    if *pick && i + 1 < class_ids.len() {
                        let _ = m.add_generalization(class_ids[i + 1], class_ids[i]);
                    }
                }
                for (i, s) in stereos.iter().enumerate() {
                    if let Some(&id) = class_ids.get(i % class_ids.len().max(1)) {
                        m.apply_stereotype(id, s).expect("class exists");
                        m.set_tag(id, &format!("tag.{s}"), TagValue::Int(i as i64))
                            .expect("class exists");
                    }
                }
                for (i, value) in tags.into_iter().enumerate() {
                    let id = class_ids[i % class_ids.len()];
                    m.set_tag(id, &format!("t{i}{suffix}"), value).expect("class exists");
                }
                let literals: Vec<String> =
                    literals.iter().enumerate().map(|(i, l)| format!("L{i}{l}")).collect();
                m.add_enumeration(root, &format!("E{suffix}"), literals).expect("unique");
                m.add_enumeration(root, "Empty", Vec::new()).expect("unique");
                let money = m.add_data_type(root, "Money").expect("unique");
                m.add_attribute(class_ids[0], "cash", TypeRef::Element(money)).expect("unique");
                for (i, body) in bodies.iter().enumerate() {
                    let target = class_ids[i % class_ids.len()];
                    m.add_constraint(target, &format!("inv{i}{suffix}"), body.clone())
                        .expect("valid name");
                }
                m
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xmi_round_trip_is_identity(model in arb_model()) {
        let xmi = export_model(&model);
        let back = import_model(&xmi).unwrap();
        prop_assert_eq!(back, model);
    }

    #[test]
    fn exported_documents_always_reparse_as_xml(model in arb_model()) {
        let xmi = export_model(&model);
        prop_assert!(comet_xmi::parse_xml(&xmi).is_ok());
    }

    #[test]
    fn double_export_is_stable(model in arb_model()) {
        let once = export_model(&model);
        let twice = export_model(&import_model(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn streaming_export_matches_the_tree_oracle(model in arb_model()) {
        prop_assert_eq!(export_model(&model), xmi_oracle::export_model_tree(&model));
    }

    #[test]
    fn streaming_export_matches_the_tree_oracle_on_marked_models(
        model in arb_fully_marked_model()
    ) {
        prop_assert_eq!(export_model(&model), xmi_oracle::export_model_tree(&model));
    }

    #[test]
    fn fully_marked_models_round_trip_byte_and_model_identically(
        model in arb_fully_marked_model()
    ) {
        let xmi = export_model(&model);
        let back = import_model(&xmi).unwrap();
        // Model-identical: every stereotype and comet.* tag survives.
        prop_assert_eq!(&back, &model);
        let full = back.find_class("C0").unwrap();
        for (stereo, tag, value) in ALL_MARKS {
            prop_assert!(back.has_stereotype(full, stereo).unwrap(), "lost {}", stereo);
            prop_assert_eq!(
                back.element(full).unwrap().core().tag(tag).unwrap().as_str(),
                Some(value),
                "lost {}", tag
            );
        }
        prop_assert_eq!(
            back.element(full).unwrap().core().tag(marks::TAG_FT_MAX_ATTEMPTS),
            Some(&TagValue::Int(4))
        );
        // Byte-identical: re-export reproduces the document exactly.
        prop_assert_eq!(export_model(&back), xmi);
    }
}
