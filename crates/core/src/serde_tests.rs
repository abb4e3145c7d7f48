//! Serde round-trip tests: instances, dependencies and mappings serialize
//! to JSON and back unchanged — the machine-readable experiment-log format
//! used by the bench harness (see DESIGN.md §5).

#![cfg(test)]

use crate::prelude::*;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn instance_roundtrip() {
    let mut syms = SymbolTable::new();
    let r = syms.rel("R");
    let a = Value::Const(syms.constant("a"));
    let inst = Instance::from_facts([
        Fact::new(r, vec![a, Value::Null(NullId(3))]),
        Fact::new(r, vec![a, a]),
    ]);
    assert_eq!(roundtrip(&inst), inst);
}

#[test]
fn nested_tgd_roundtrip() {
    let mut syms = SymbolTable::new();
    let t = parse_nested_tgd(
        &mut syms,
        "forall x1 (S1(x1) -> exists y (forall x2 (S2(x2) -> R(y,x2))))",
    )
    .unwrap();
    assert_eq!(roundtrip(&t), t);
}

#[test]
fn so_tgd_and_egd_roundtrip() {
    let mut syms = SymbolTable::new();
    let so = parse_so_tgd(
        &mut syms,
        "exists f . Emp(e) -> Mgr(e,f(e)) ; Emp(e) & e = f(e) -> SelfMgr(e)",
    )
    .unwrap();
    assert_eq!(roundtrip(&so), so);
    let egd = parse_egd(&mut syms, "S(x,y) & S(x2,y) -> x = x2").unwrap();
    assert_eq!(roundtrip(&egd), egd);
}

#[test]
fn mapping_roundtrip() {
    let mut syms = SymbolTable::new();
    let m = NestedMapping::parse(
        &mut syms,
        &["S(x,y) -> exists z R(x,z)"],
        &["S(x,y) & S(x2,y) -> x = x2"],
    )
    .unwrap();
    let back: NestedMapping = roundtrip(&m);
    assert_eq!(back.tgds, m.tgds);
    assert_eq!(back.source_egds, m.source_egds);
}

#[test]
fn symbol_table_roundtrip_preserves_names() {
    // Enough constants that ids and hashes no longer fit one JSON number
    // together: the table must come back from its names.
    let mut syms = SymbolTable::new();
    let r = syms.rel("Emp");
    let consts: Vec<ConstId> = (0..3000).map(|i| syms.constant(&format!("c{i}"))).collect();
    let fresh = syms.fresh_const("c1");
    let mut back: SymbolTable = roundtrip(&syms);
    assert_eq!(back.rel_name(r), "Emp");
    assert_eq!(back.find_rel("Emp"), Some(r));
    for (i, &c) in consts.iter().enumerate() {
        let name = format!("c{i}");
        assert_eq!(back.const_name(c), name);
        assert_eq!(back.find_const(&name), Some(c));
    }
    assert_eq!(back.const_name(fresh), syms.const_name(fresh));
    // Interning continues where the original left off.
    assert_eq!(back.fresh_const("c1"), syms.fresh_const("c1"));
    assert_eq!(back.constant("new"), syms.constant("new"));
    assert_eq!(back.constant("c7"), consts[7]);
}

#[test]
fn malformed_symbol_tables_are_rejected_not_loaded() {
    // A table whose constants are "a", "é", "b", serialized, then its
    // constant namespace's text and name ends tampered with.
    let mut syms = SymbolTable::new();
    for name in ["a", "é", "b"] {
        syms.constant(name);
    }
    let json = serde_json::to_string(&syms).expect("serializes");
    let tampered = |text: &str, ends: &[f64]| {
        let mut v: serde::Value = serde_json::from_str(&json).expect("parses");
        let serde::Value::Object(table) = &mut v else {
            panic!("a table is an object")
        };
        let (_, serde::Value::Object(consts)) = table
            .iter_mut()
            .find(|(k, _)| k == "consts")
            .expect("a constant namespace")
        else {
            panic!("a namespace is an object")
        };
        for (k, slot) in consts.iter_mut() {
            match k.as_str() {
                "text" => *slot = serde::Value::String(text.to_string()),
                "ends" => {
                    *slot =
                        serde::Value::Array(ends.iter().map(|&e| serde::Value::Number(e)).collect())
                }
                _ => {}
            }
        }
        serde_json::to_string(&v).expect("serializes")
    };
    // "a" is byte 0..1, "é" 1..3, "b" 3..4.
    let ok: SymbolTable = serde_json::from_str(&tampered("aéb", &[1.0, 3.0, 4.0])).unwrap();
    assert_eq!(ok.find_const("é"), Some(ConstId(1)));
    for (what, text, ends) in [
        ("decreasing", "aéb", &[3.0, 1.0, 4.0][..]),
        ("past the text", "aéb", &[1.0, 3.0, 5.0]),
        ("inside a character", "aéb", &[1.0, 2.0, 4.0]),
        ("text left over", "aéb", &[1.0, 3.0]),
        ("duplicate name", "aab", &[1.0, 2.0, 3.0]),
    ] {
        assert!(
            serde_json::from_str::<SymbolTable>(&tampered(text, ends)).is_err(),
            "{what}: {text:?} {ends:?} loaded"
        );
    }
}
