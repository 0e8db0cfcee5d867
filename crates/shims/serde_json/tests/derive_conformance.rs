//! The derive shim must lay data out exactly as real serde does: every
//! expected string below is what real `serde_json` writes (and reads back)
//! for the same type with the same attributes, so swapping the shims for
//! the real crates leaves the wire bytes alone.

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Inner {
    x: u32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum External {
    Unit,
    Newtype(Inner),
    Struct { a: u32, b: String },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "t")]
enum Internal {
    Unit,
    Newtype(Inner),
    Struct {
        a: u32,
        #[serde(default)]
        b: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
enum Renamed {
    ShuttingDown,
    TryOutput { query: usize },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum RenamedExternal {
    MultiWord,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer {
    id: u64,
    #[serde(flatten)]
    body: Renamed,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FlatStruct {
    id: u64,
    #[serde(flatten)]
    inner: Inner,
    tail: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
enum Optional {
    Init {
        id: u64,
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        tags: Vec<u32>,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OptionalStruct {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    id: u64,
}

/// Asserts `value` serializes to `json` and `json` deserializes to `value`.
fn same<T>(value: T, json: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(serde_json::to_string(&value).unwrap(), json);
    assert_eq!(serde_json::from_str::<T>(json).unwrap(), value);
}

fn error<T: Deserialize + std::fmt::Debug>(json: &str) -> String {
    serde_json::from_str::<T>(json).unwrap_err().to_string()
}

#[test]
fn externally_tagged_variants_of_every_kind() {
    same(External::Unit, r#""Unit""#);
    same(External::Newtype(Inner { x: 1 }), r#"{"Newtype":{"x":1}}"#);
    same(
        External::Struct {
            a: 2,
            b: "z".to_string(),
        },
        r#"{"Struct":{"a":2,"b":"z"}}"#,
    );
}

#[test]
fn internally_tagged_variants_of_every_kind() {
    same(Internal::Unit, r#"{"t":"Unit"}"#);
    // A newtype's inner map is merged in after the tag.
    same(
        Internal::Newtype(Inner { x: 1 }),
        r#"{"t":"Newtype","x":1}"#,
    );
    same(
        Internal::Struct { a: 2, b: true },
        r#"{"t":"Struct","a":2,"b":true}"#,
    );
    // The tag need not come first on input.
    assert_eq!(
        serde_json::from_str::<Internal>(r#"{"a":2,"b":true,"t":"Struct"}"#).unwrap(),
        Internal::Struct { a: 2, b: true }
    );
}

#[test]
fn rename_all_snake_cases_multi_word_variants() {
    same(Renamed::ShuttingDown, r#"{"op":"shutting_down"}"#);
    same(
        Renamed::TryOutput { query: 3 },
        r#"{"op":"try_output","query":3}"#,
    );
    same(RenamedExternal::MultiWord, r#""multi_word""#);
}

#[test]
fn flatten_merges_on_write_and_reads_from_the_whole_map() {
    same(
        Outer {
            id: 7,
            body: Renamed::TryOutput { query: 1 },
        },
        r#"{"id":7,"op":"try_output","query":1}"#,
    );
    same(
        Outer {
            id: 8,
            body: Renamed::ShuttingDown,
        },
        r#"{"id":8,"op":"shutting_down"}"#,
    );
    same(
        FlatStruct {
            id: 1,
            inner: Inner { x: 2 },
            tail: false,
        },
        r#"{"id":1,"x":2,"tail":false}"#,
    );
    assert_eq!(
        serde_json::from_str::<Outer>(r#"{"op":"shutting_down","id":9}"#).unwrap(),
        Outer {
            id: 9,
            body: Renamed::ShuttingDown,
        }
    );
}

#[test]
fn default_applies_inside_a_struct_variant() {
    assert_eq!(
        serde_json::from_str::<Internal>(r#"{"t":"Struct","a":5}"#).unwrap(),
        Internal::Struct { a: 5, b: false }
    );
    // A field without the attribute stays required.
    assert_eq!(
        error::<Internal>(r#"{"t":"Struct","b":true}"#),
        "missing field `a`"
    );
}

#[test]
fn skip_serializing_if_leaves_the_field_out_and_default_reads_it_back() {
    same(
        Optional::Init {
            id: 1,
            tags: vec![],
        },
        r#"{"op":"init","id":1}"#,
    );
    same(
        Optional::Init {
            id: 1,
            tags: vec![2],
        },
        r#"{"op":"init","id":1,"tags":[2]}"#,
    );
    same(OptionalStruct { note: None, id: 3 }, r#"{"id":3}"#);
    same(
        OptionalStruct {
            note: Some("n".to_string()),
            id: 3,
        },
        r#"{"note":"n","id":3}"#,
    );
}

#[test]
fn a_unit_struct_is_null() {
    same(Marker, "null");
    assert!(serde_json::from_str::<Marker>("{}").is_err());
}

#[test]
fn unknown_variants_and_missing_tags_are_errors() {
    assert_eq!(
        error::<Internal>(r#"{"t":"Other"}"#),
        "unknown variant `Other`, expected one of `Unit`, `Newtype`, `Struct`"
    );
    assert_eq!(
        error::<Renamed>(r#"{"op":"frobnicate"}"#),
        "unknown variant `frobnicate`, expected `shutting_down` or `try_output`"
    );
    assert_eq!(
        error::<RenamedExternal>(r#""other""#),
        "unknown variant `other`, expected `multi_word`"
    );
    assert_eq!(
        error::<External>(r#"{"Other":{}}"#),
        "unknown variant `Other`, expected one of `Unit`, `Newtype`, `Struct`"
    );
    assert_eq!(error::<Internal>(r#"{"a":1}"#), "missing field `t`");
    assert!(serde_json::from_str::<External>("3").is_err());
    assert!(serde_json::from_str::<Internal>(r#"{"t":3}"#).is_err());
}
