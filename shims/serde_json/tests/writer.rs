//! Writer conformance: the exact text `to_string` and `to_string_pretty`
//! produce for every shape the workspace serializes, and a round-trip
//! property through `from_str`.

use proptest::prelude::*;
use serde::Serialize;
use serde_json::{from_str, to_string, to_string_pretty};

#[derive(Serialize)]
struct Empty {}

#[derive(Clone, Serialize)]
#[allow(dead_code)]
enum Shape {
    Dot,
    Line { from: u64, to: u64 },
    Tag(String),
    Pair(u64, i64),
    Blank {},
}

#[derive(Serialize)]
struct Nested {
    id: u64,
    empty: Vec<u64>,
    rows: Vec<Vec<u64>>,
    shape: Shape,
    none: Option<u64>,
    blank: Empty,
}

/// Compact and pretty text of `v`.
fn both<T: Serialize>(v: &T) -> (String, String) {
    (to_string(v).unwrap(), to_string_pretty(v).unwrap())
}

#[test]
fn empty_containers_and_options() {
    assert_eq!(both(&Empty {}), ("{}".into(), "{}".into()));
    assert_eq!(both(&Vec::<u64>::new()), ("[]".into(), "[]".into()));
    assert_eq!(both(&None::<u64>), ("null".into(), "null".into()));
    assert_eq!(both(&Some(3u64)), ("3".into(), "3".into()));
}

#[test]
fn enum_variants_are_externally_tagged() {
    let cases: [(Shape, &str, &str); 5] = [
        (Shape::Dot, r#""Dot""#, r#""Dot""#),
        (
            Shape::Line { from: 1, to: 2 },
            r#"{"Line":{"from":1,"to":2}}"#,
            "{\n  \"Line\": {\n    \"from\": 1,\n    \"to\": 2\n  }\n}",
        ),
        (
            Shape::Tag("t".into()),
            r#"{"Tag":"t"}"#,
            "{\n  \"Tag\": \"t\"\n}",
        ),
        (
            Shape::Pair(1, -2),
            r#"{"Pair":[1,-2]}"#,
            "{\n  \"Pair\": [\n    1,\n    -2\n  ]\n}",
        ),
        (Shape::Blank {}, r#"{"Blank":{}}"#, "{\n  \"Blank\": {}\n}"),
    ];
    for (shape, compact, pretty) in cases {
        assert_eq!(both(&shape), (compact.to_string(), pretty.to_string()));
    }
}

#[test]
fn nested_containers_pretty_print() {
    let n = Nested {
        id: 7,
        empty: vec![],
        rows: vec![vec![1, 2], vec![]],
        shape: Shape::Dot,
        none: None,
        blank: Empty {},
    };
    let (compact, pretty) = both(&n);
    assert_eq!(
        compact,
        r#"{"id":7,"empty":[],"rows":[[1,2],[]],"shape":"Dot","none":null,"blank":{}}"#
    );
    assert_eq!(
        pretty,
        r#"{
  "id": 7,
  "empty": [],
  "rows": [
    [
      1,
      2
    ],
    []
  ],
  "shape": "Dot",
  "none": null,
  "blank": {}
}"#
    );
}

#[test]
fn integer_extremes() {
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
}

#[test]
fn floats_follow_the_shim_rule() {
    // `{v:.1}` when integral and |v| < 1e16, shortest round-trip text
    // otherwise; NaN and infinities are `null`.
    let cases = [
        (2.0, "2.0"),
        (1e16, "10000000000000000"),
        (1e-7, "0.0000001"),
        (-0.0, "-0.0"),
        (0.1 + 0.2, "0.30000000000000004"),
        (f64::NAN, "null"),
        (f64::NEG_INFINITY, "null"),
    ];
    for (v, text) in cases {
        assert_eq!(to_string(&v).unwrap(), text, "{v:?}");
    }
}

#[test]
fn strings_escape_quotes_backslashes_and_controls() {
    let s = "q\"b\\n\nt\tr\r\u{1}\u{8}\u{1f} é→😀";
    let text = to_string(s).unwrap();
    assert_eq!(text, "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u0008\\u001f é→😀\"");
    assert_eq!(from_str(&text).unwrap(), s);
}

#[derive(Serialize)]
struct Sample {
    floats: Vec<f64>,
    signed: Vec<i64>,
    unsigned: Option<u64>,
    text: Vec<String>,
    shapes: Vec<Shape>,
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Control characters, ASCII, Latin-1 and astral code points.
    prop_vec(
        prop_oneof![
            0u32..0x20,
            0x20u32..0x7f,
            0xa0u32..0x100,
            0x1f600u32..0x1f650
        ],
        0..8,
    )
    .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Dot),
        (any::<u64>(), any::<u64>()).prop_map(|(from, to)| Shape::Line { from, to }),
        text_strategy().prop_map(Shape::Tag),
        (any::<u64>(), any::<i64>()).prop_map(|(a, b)| Shape::Pair(a, b)),
        Just(Shape::Blank {}),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `from_str(&to_string(x))?.to_string() == to_string(x)`, and the same
    /// for the pretty layout; floats are drawn from raw bits, so NaN,
    /// infinities, subnormals and extremes all occur.
    #[test]
    fn text_round_trips_through_the_parser(
        bits in prop_vec(any::<u64>(), 0..6),
        small in prop_vec(-1e6f64..1e6, 0..4),
        signed in prop_vec(any::<i64>(), 0..4),
        unsigned in any::<u64>(),
        text in prop_vec(text_strategy(), 0..4),
        shapes in prop_vec(shape_strategy(), 0..4),
    ) {
        let mut floats: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        floats.extend(small.iter().map(|v| v.trunc()));
        floats.extend(small);
        let x = Sample {
            floats,
            signed,
            unsigned: Some(unsigned).filter(|u| u % 3 != 0),
            text,
            shapes,
        };
        let compact = to_string(&x).unwrap();
        let parsed = from_str(&compact).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(parsed.to_string(), compact.clone());
        let pretty = to_string_pretty(&x).unwrap();
        let parsed = from_str(&pretty).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(to_string_pretty(&parsed).unwrap(), pretty);
        prop_assert_eq!(parsed.to_string(), compact);
    }
}
