//! Offline stand-in for `serde_derive`: a `#[derive(Serialize)]` macro
//! implemented directly on `proc_macro` token streams (no syn / quote, which
//! are unavailable offline). The generated `write_json` streams the value
//! into a `serde::JsonWriter`, with each field name emitted as a
//! pre-escaped `"name":` literal.
//!
//! Supported shapes — everything this workspace derives, in serde's
//! externally tagged JSON layout:
//!
//! - structs with named fields → `{"field": value, …}`;
//! - enums with unit variants → `"Variant"`;
//! - enums with named-field variants → `{"Variant": {fields…}}`;
//! - enums with tuple variants → `{"Variant": value}` (newtype) or
//!   `{"Variant": [values…]}`.
//!
//! Generics, tuple structs, and `#[serde(...)]` attributes are not supported
//! and produce a compile error naming the limitation.

// Shim code mirrors upstream API shapes; keep clippy out of it.
#![allow(clippy::all)]
use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (shim): see the crate docs for supported shapes.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    // Skip outer attributes and visibility to find `struct` / `enum`.
    let mut kind = None;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2, // #[...]
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => {
                kind = Some(id.to_string());
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    let kind = kind.expect("derive(Serialize) shim: expected `struct` or `enum`");
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("derive(Serialize) shim: expected type name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("derive(Serialize) shim: generic types are not supported ({name})");
        }
    }
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.clone(),
            Some(_) => i += 1,
            None => panic!(
                "derive(Serialize) shim: {name} has no braced body (tuple structs unsupported)"
            ),
        }
    };

    let impl_body = if kind == "struct" {
        let fields = parse_named_fields(body.stream());
        let members = fields
            .iter()
            .map(|f| member(f, &write(&format!("&self.{f}"))));
        object(members.collect())
    } else {
        let variants = parse_variants(body.stream());
        let arms: String = variants.iter().map(|v| variant_arm(&name, v)).collect();
        format!("match self {{ {arms} }}")
    };

    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn write_json(&self, w: &mut ::serde::JsonWriter) {{ {impl_body} }}\n\
        }}"
    );
    out.parse()
        .expect("derive(Serialize) shim: generated impl parses")
}

/// Statement writing the borrowed `expr` as one JSON value.
fn write(expr: &str) -> String {
    format!("::serde::Serialize::write_json({expr}, w);")
}

/// Statements writing one object member: the pre-escaped `"name":`
/// literal, then `value`'s statements.
fn member(name: &str, value: &str) -> String {
    format!("w.field(\"\\\"{name}\\\":\"); {value}")
}

/// Statements writing an object around `members`.
fn object(members: String) -> String {
    format!("w.begin_object(); {members} w.end_object();")
}

/// One enum variant: name plus field shape.
enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: Fields,
}

fn variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    let (pat, inner) = match &v.fields {
        Fields::Unit => return format!("{enum_name}::{vname} => w.str(\"{vname}\"),"),
        // Bindings get an `f_` prefix so no field can shadow the writer `w`.
        Fields::Named(fields) => {
            let binds: Vec<String> = fields.iter().map(|f| format!("{f}: f_{f}")).collect();
            let members = fields.iter().map(|f| member(f, &write(&format!("f_{f}"))));
            (
                format!("{{ {} }}", binds.join(", ")),
                object(members.collect()),
            )
        }
        Fields::Tuple(1) => ("(f0)".to_string(), write("f0")),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
            let items: String = binds
                .iter()
                .map(|b| format!("w.element(); {}", write(b)))
                .collect();
            (
                format!("({})", binds.join(", ")),
                format!("w.begin_array(); {items} w.end_array();"),
            )
        }
    };
    // Externally tagged: `{"Variant": inner}`.
    let tagged = object(member(vname, &inner));
    format!("{enum_name}::{vname} {pat} => {{ {tagged} }}")
}

/// Parse `name: Type, ...` field lists, skipping attributes and visibility.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => {
                fields.push(id.to_string());
                i += 1;
                // Expect `:`, then skip the type up to a top-level comma.
                match tokens.get(i) {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
                    other => {
                        panic!("derive(Serialize) shim: expected `:` after field, got {other:?}")
                    }
                }
                let mut angle = 0i32;
                while i < tokens.len() {
                    match &tokens[i] {
                        TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            other => panic!("derive(Serialize) shim: unexpected token in fields: {other}"),
        }
    }
    fields
}

/// Parse enum variants: `Name`, `Name { fields }`, `Name(types)`, with
/// optional attributes; discriminants (`= expr`) are skipped.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
            TokenTree::Ident(id) => {
                let name = id.to_string();
                i += 1;
                let fields = match tokens.get(i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        i += 1;
                        Fields::Named(parse_named_fields(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        i += 1;
                        Fields::Tuple(count_tuple_fields(g.stream()))
                    }
                    _ => Fields::Unit,
                };
                // Skip a possible `= discriminant` up to the next comma.
                while i < tokens.len() {
                    match &tokens[i] {
                        TokenTree::Punct(p) if p.as_char() == ',' => break,
                        _ => i += 1,
                    }
                }
                variants.push(Variant { name, fields });
            }
            other => panic!("derive(Serialize) shim: unexpected token in enum: {other}"),
        }
    }
    variants
}

/// Count comma-separated types at the top level of a tuple-variant body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1usize;
    let mut angle = 0i32;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => count += 1,
            _ => {}
        }
    }
    // A trailing comma would overcount; tolerate it.
    if matches!(tokens.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        count -= 1;
    }
    count
}
