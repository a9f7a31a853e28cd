//! Derive-macro behavior: named structs and externally tagged enums, the
//! exact shapes the workspace serializes, checked as JSON text.

use serde::{JsonWriter, Serialize};

#[derive(Serialize)]
struct Point {
    x: u64,
    y: f64,
}

#[derive(Serialize)]
#[allow(dead_code)]
enum Shape {
    Dot,
    Line { from: u64, to: u64 },
    Tag(String),
    Pair(u64, u64),
    Empty {},
    // A field named like the generated code's writer must not shadow it.
    Writer { w: u64 },
}

#[derive(Serialize)]
struct Nested {
    name: &'static str,
    inner: Point,
    maybe: Option<u64>,
    list: Vec<Shape>,
}

#[derive(Serialize)]
struct Unit {}

fn json<T: Serialize>(v: &T, pretty: bool) -> String {
    let mut w = JsonWriter::new(pretty);
    v.write_json(&mut w);
    w.finish()
}

#[test]
fn derive_struct_named_fields() {
    assert_eq!(json(&Point { x: 3, y: 0.5 }, false), r#"{"x":3,"y":0.5}"#);
    assert_eq!(json(&Unit {}, false), "{}");
    assert_eq!(json(&Unit {}, true), "{}");
}

#[test]
fn derive_enum_externally_tagged() {
    let cases = [
        (Shape::Dot, r#""Dot""#),
        (
            Shape::Line { from: 1, to: 2 },
            r#"{"Line":{"from":1,"to":2}}"#,
        ),
        (Shape::Tag("t".into()), r#"{"Tag":"t"}"#),
        (Shape::Pair(1, 2), r#"{"Pair":[1,2]}"#),
        (Shape::Empty {}, r#"{"Empty":{}}"#),
        (Shape::Writer { w: 7 }, r#"{"Writer":{"w":7}}"#),
    ];
    for (shape, text) in cases {
        assert_eq!(json(&shape, false), text);
    }
}

#[test]
fn derive_nested_struct() {
    let n = Nested {
        name: "n",
        inner: Point { x: 1, y: 2.0 },
        maybe: None,
        list: vec![Shape::Dot, Shape::Pair(3, 4)],
    };
    assert_eq!(
        json(&n, false),
        r#"{"name":"n","inner":{"x":1,"y":2.0},"maybe":null,"list":["Dot",{"Pair":[3,4]}]}"#
    );
    assert_eq!(
        json(&n, true),
        r#"{
  "name": "n",
  "inner": {
    "x": 1,
    "y": 2.0
  },
  "maybe": null,
  "list": [
    "Dot",
    {
      "Pair": [
        3,
        4
      ]
    }
  ]
}"#
    );
}
