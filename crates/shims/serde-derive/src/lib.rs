//! Offline stand-in for `serde_derive`.
//!
//! A hand-rolled (no `syn`/`quote`, the workspace builds offline) derive of
//! the shim `serde::Serialize` trait, the only one there is: JSON goes one
//! way. The parser covers the shapes this workspace actually derives on —
//! generic-free named structs, tuple structs, and enums with unit / tuple /
//! struct variants — and the generated code keeps serde's external enum
//! tagging. No `#[serde(...)]` attribute is accepted.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    NamedStruct {
        name: String,
        fields: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Split a token stream at top-level commas, tracking `<...>` nesting so
/// commas inside generic arguments do not split.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                chunks.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(tt);
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Drop leading attributes (`#[...]`) and visibility (`pub`, `pub(...)`)
/// from a field or variant chunk.
fn strip_attrs_and_vis(chunk: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    while i < chunk.len() {
        match &chunk[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = chunk.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    &chunk[i..]
}

fn named_fields(stream: TokenStream) -> Vec<String> {
    split_top_level(stream)
        .iter()
        .filter_map(|chunk| match strip_attrs_and_vis(chunk).first() {
            Some(TokenTree::Ident(id)) => Some(id.to_string()),
            _ => None,
        })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .iter()
        .filter_map(|chunk| {
            let chunk = strip_attrs_and_vis(chunk);
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return None,
            };
            let kind = match chunk.get(1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    VariantKind::Tuple(split_top_level(g.stream()).len())
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    VariantKind::Named(named_fields(g.stream()))
                }
                _ => VariantKind::Unit,
            };
            Some(Variant { name, kind })
        })
        .collect()
}

fn parse_shape(input: TokenStream) -> Shape {
    let mut iter = input.into_iter().peekable();
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            _ => break,
        }
    }
    let keyword = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive does not support generic types ({name})");
        }
    }
    match keyword.as_str() {
        "struct" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::NamedStruct {
                name,
                fields: named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct {
                    name,
                    arity: split_top_level(g.stream()).len(),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct { name },
            other => panic!("serde shim derive: malformed struct {name}: {other:?}"),
        },
        "enum" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde shim derive: malformed enum {name}: {other:?}"),
        },
        other => panic!("serde shim derive supports only structs and enums, got {other}"),
    }
}

fn gen_serialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f}))")
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(vec![{entries}])\n\
                     }}\n\
                 }}",
                entries = entries.join(", ")
            )
        }
        Shape::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Shape::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Array(vec![{items}])\n\
                     }}\n\
                 }}",
                items = items.join(", ")
            )
        }
        Shape::UnitStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Null }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vn} => ::serde::Value::String(String::from(\"{vn}\"))"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vn}(f0) => ::serde::Value::Object(vec![(String::from(\"{vn}\"), ::serde::Serialize::to_value(f0))])"
                        ),
                        VariantKind::Tuple(arity) => {
                            let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = (0..*arity)
                                .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({binds}) => ::serde::Value::Object(vec![(String::from(\"{vn}\"), ::serde::Value::Array(vec![{items}]))])",
                                binds = binds.join(", "),
                                items = items.join(", ")
                            )
                        }
                        VariantKind::Named(fields) => {
                            let binds = fields.join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| format!(
                                    "(String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"
                                ))
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![(String::from(\"{vn}\"), ::serde::Value::Object(vec![{entries}]))])",
                                entries = entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}",
                arms = arms.join(", ")
            )
        }
    }
}

/// Derive the shim `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = format!(
        "#[automatically_derived]\n{}",
        gen_serialize(&parse_shape(input))
    );
    code.parse()
        .expect("serde shim derive: generated code parses")
}
