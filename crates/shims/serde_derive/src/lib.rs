//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against the
//! shim `serde` crate's `Value` model, without `syn`/`quote` (which are not
//! available offline).  Supported input shapes — which cover every derive in
//! this workspace — with real serde's JSON layout for each:
//!
//! * structs with named fields (a map), honoring the field attributes
//!   `#[serde(skip)]` (never serialized, deserialized via `Default`),
//!   `#[serde(default)]` (deserialized via `Default` when the field is
//!   absent), `#[serde(skip_serializing_if = "path")]` (left out of the map
//!   when `path(&field)` is true) and `#[serde(flatten)]` (the field's own
//!   map entries are merged into the parent map, and the field is
//!   deserialized from the whole map),
//! * unit structs (`null`),
//! * enums whose variants are unit, newtype (`V(T)`) or struct (`V { .. }`,
//!   with the same field attributes as structs).  Externally tagged by
//!   default: a unit variant is `"V"`, the others `{"V": content}`.  With
//!   the container attribute `#[serde(tag = "t")]` the enum is internally
//!   tagged: a map whose first entry is `"t": "V"`, followed by the struct
//!   variant's fields or the newtype's inner map entries.  The container
//!   attribute `#[serde(rename_all = "snake_case")]` renames the variants.
//!   An unknown variant fails with ``unknown variant `x`, expected …``.
//!
//! Generics, tuple structs, tuple variants with more than one field and any
//! other serde attribute are rejected with a compile error naming this file.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field, as needed for code generation.
struct Field {
    /// The field identifier as written (including a `r#` prefix if raw).
    ident: String,
    /// The map key: the identifier with any `r#` prefix stripped.
    key: String,
    /// `#[serde(skip)]`: never serialized, always defaulted.
    skip: bool,
    /// `#[serde(default)]`: defaulted when absent from the input.
    default: bool,
    /// `#[serde(skip_serializing_if = "…")]`: the predicate's path.
    skip_if: Option<String>,
    /// `#[serde(flatten)]`: entries merged into the parent map.
    flatten: bool,
}

/// What one enum variant carries.
enum Shape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    ident: String,
    /// The wire name (after `rename_all`).
    wire: String,
    shape: Shape,
}

/// The parsed shape of the derive input.
enum Body {
    Struct(Vec<Field>),
    Unit,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// `#[serde(tag = "…")]`: internally tagged under this key.
    tag: Option<String>,
    body: Body,
}

/// Derives the shim `serde::Serialize` (conversion into `serde::Value`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Item { name, tag, body } = parse_item(input);
    let expr = match &body {
        Body::Struct(fields) => map_expr(fields, "&self."),
        Body::Unit => "::serde::Value::Null".to_string(),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| serialize_arm(&name, tag.as_deref(), v))
                .collect();
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{expr}\n}}\n\
         }}"
    )
    .parse()
    .expect("serde_derive shim generated invalid Serialize impl")
}

/// An expression building the map of `fields`; each field is read as
/// `{access}{ident}`.
fn map_expr(fields: &[Field], access: &str) -> String {
    let mut out = "{ let mut __e = ::std::vec::Vec::new();\n".to_string();
    for f in fields.iter().filter(|f| !f.skip) {
        let value = format!("::serde::Serialize::to_value({access}{})", f.ident);
        if f.flatten {
            out.push_str(&format!(
                "::serde::__private::flatten(&mut __e, {value});\n"
            ));
        } else {
            let push = format!("__e.push((\"{}\".to_string(), {value}));\n", f.key);
            match &f.skip_if {
                Some(path) => {
                    out.push_str(&format!("if !{path}({access}{}) {{ {push} }}\n", f.ident))
                }
                None => out.push_str(&push),
            }
        }
    }
    out + "::serde::Value::Map(__e) }"
}

/// One `match self` arm of an enum's `to_value`.
fn serialize_arm(name: &str, tag: Option<&str>, v: &Variant) -> String {
    let (ident, wire) = (&v.ident, &v.wire);
    let (pattern, content) = match &v.shape {
        Shape::Unit => (String::new(), None),
        Shape::Newtype => (
            "(__x)".to_string(),
            Some("::serde::Serialize::to_value(__x)".to_string()),
        ),
        Shape::Struct(fields) => {
            let binds: String = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| format!("{}, ", f.ident))
                .collect();
            (format!(" {{ {binds}.. }}"), Some(map_expr(fields, "")))
        }
    };
    let expr = match (tag, content) {
        (Some(t), content) => format!(
            "::serde::__private::tagged(\"{t}\", \"{wire}\", {})",
            content.as_deref().unwrap_or("::serde::Value::Null")
        ),
        (None, None) => format!("::serde::Value::Str(\"{wire}\".to_string())"),
        (None, Some(content)) => {
            format!("::serde::Value::Map(::std::vec![(\"{wire}\".to_string(), {content})])")
        }
    };
    format!("{name}::{ident}{pattern} => {expr},\n")
}

/// Derives the shim `serde::Deserialize` (reconstruction from `serde::Value`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Item { name, tag, body } = parse_item(input);
    let expr = match &body {
        Body::Struct(fields) => format!(
            "::std::result::Result::Ok({name} {{\n{}}})",
            inits(fields, "__v")
        ),
        Body::Unit => format!(
            "match __v {{\n\
                 ::serde::Value::Null => ::std::result::Result::Ok({name}),\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                     \"invalid type: expected unit struct {name}\")),\n\
             }}"
        ),
        Body::Enum(variants) => {
            let split = match &tag {
                Some(t) => format!("(::serde::__private::tag(__v, \"{t}\")?, __v)"),
                None => "::serde::__private::external(__v)?".to_string(),
            };
            let mut arms = String::new();
            for Variant { ident, wire, shape } in variants {
                let expr = match shape {
                    Shape::Unit => format!("{name}::{ident}"),
                    Shape::Newtype => {
                        format!("{name}::{ident}(::serde::Deserialize::from_value(__c)?)")
                    }
                    Shape::Struct(fields) => {
                        format!("{name}::{ident} {{\n{}}}", inits(fields, "__c"))
                    }
                };
                arms.push_str(&format!(
                    "\"{wire}\" => ::std::result::Result::Ok({expr}),\n"
                ));
            }
            let expected: String = variants
                .iter()
                .map(|v| format!("\"{}\", ", v.wire))
                .collect();
            format!(
                "let (__tag, __c) = {split};\n\
                 match __tag {{\n{arms}\
                     __other => ::std::result::Result::Err(\
                         ::serde::Error::unknown_variant(__other, &[{expected}])),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n{expr}\n}}\n\
         }}"
    )
    .parse()
    .expect("serde_derive shim generated invalid Deserialize impl")
}

/// The `ident: expr,` initializers rebuilding `fields` from the map `src`.
fn inits(fields: &[Field], src: &str) -> String {
    let mut out = String::new();
    for f in fields {
        let expr = if f.skip {
            "::std::default::Default::default()".to_string()
        } else if f.flatten {
            format!("::serde::Deserialize::from_value({src})?")
        } else if f.default {
            format!(
                "::serde::__private::field_or_default({src}, \"{}\")?",
                f.key
            )
        } else {
            format!("::serde::__private::field({src}, \"{}\")?", f.key)
        };
        out.push_str(&format!("{}: {expr},\n", f.ident));
    }
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses the derive input into an [`Item`], panicking (→ compile error) on
/// shapes the shim does not support.
fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let mut tag = None;
    let mut snake_case = false;

    // Preamble: attributes and visibility before `struct` / `enum`.
    let kind = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                for (arg, value) in serde_args(tokens.next()) {
                    match (arg.as_str(), value) {
                        ("tag", Some(t)) => tag = Some(t),
                        ("rename_all", Some(r)) if r == "snake_case" => snake_case = true,
                        (other, _) => panic!(
                            "serde_derive shim: unsupported container attribute `{other}` \
                             (only `tag = \"…\"` and `rename_all = \"snake_case\"`)"
                        ),
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // Visibility, possibly `pub(crate)`: consume the paren group.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        let _ = tokens.next();
                    }
                }
            }
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct" || id.to_string() == "enum" =>
            {
                break id.to_string();
            }
            Some(other) => panic!("serde_derive shim: unexpected token `{other}` before item"),
            None => panic!("serde_derive shim: no struct or enum found"),
        }
    };

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, found {other:?}"),
    };
    if kind == "struct" && (tag.is_some() || snake_case) {
        panic!("serde_derive shim: `tag` and `rename_all` are only implemented on enums");
    }

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && kind == "struct" => {
            return Item {
                name,
                tag,
                body: Body::Unit,
            };
        }
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => panic!(
            "serde_derive shim: generic type `{name}` is not supported; \
             write the impls by hand or extend crates/shims/serde_derive"
        ),
        _ => panic!(
            "serde_derive shim: `{name}` must be a braced or unit struct, or an enum \
             (tuple structs are not supported)"
        ),
    };

    let body = if kind == "struct" {
        Body::Struct(parse_fields(body))
    } else {
        Body::Enum(parse_variants(body, snake_case))
    };
    Item { name, tag, body }
}

/// The `name` / `name = "value"` arguments of one attribute's bracket group
/// if it is `serde(...)`; empty for any other attribute (e.g. doc comments).
fn serde_args(group: Option<TokenTree>) -> Vec<(String, Option<String>)> {
    let attr = match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g.stream(),
        other => panic!("serde_derive shim: malformed attribute, found {other:?}"),
    };
    let mut tokens = attr.into_iter();
    match (tokens.next(), tokens.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) if id.to_string() == "serde" => {
            let mut args: Vec<(String, Option<String>)> = Vec::new();
            for tt in g.stream() {
                match tt {
                    TokenTree::Ident(id) => args.push((id.to_string(), None)),
                    TokenTree::Literal(lit) => {
                        let lit = lit.to_string();
                        let last = args.last_mut().expect("serde_derive shim: stray literal");
                        last.1 = Some(lit.trim_matches('"').to_string());
                    }
                    _ => {} // `=` and `,`
                }
            }
            args
        }
        _ => Vec::new(),
    }
}

/// Parses named fields, extracting `#[serde(...)]` flags and skipping field
/// types (tracking `<...>` nesting so type-level commas don't split fields).
fn parse_fields(body: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();

    loop {
        // Attributes.
        let (mut skip, mut default, mut flatten) = (false, false, false);
        let mut skip_if = None;
        while let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() != '#' {
                break;
            }
            let _ = tokens.next();
            for (arg, value) in serde_args(tokens.next()) {
                match (arg.as_str(), value) {
                    ("skip", None) => skip = true,
                    ("default", None) => default = true,
                    ("flatten", None) => flatten = true,
                    ("skip_serializing_if", Some(path)) => skip_if = Some(path),
                    (other, _) => panic!(
                        "serde_derive shim: unsupported serde attribute `{other}` (only \
                         `skip`, `default`, `skip_serializing_if` and `flatten` are implemented)"
                    ),
                }
            }
        }

        // Visibility.
        if let Some(TokenTree::Ident(id)) = tokens.peek() {
            if id.to_string() == "pub" {
                let _ = tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        let _ = tokens.next();
                    }
                }
            }
        }

        // Field name (or end of the field list).
        let ident = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive shim: expected field name, found {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after `{ident}`, found {other:?}"),
        }
        skip_type(&mut tokens);

        let key = ident.strip_prefix("r#").unwrap_or(&ident).to_string();
        fields.push(Field {
            ident,
            key,
            skip,
            default,
            skip_if,
            flatten,
        });
    }
    fields
}

/// Consumes one type up to and including the next top-level comma; whether
/// a comma ended it.  Angle brackets are plain puncts in token streams, so
/// nesting must be tracked by hand.
fn skip_type(tokens: &mut impl Iterator<Item = TokenTree>) -> bool {
    let mut angle_depth = 0i32;
    for tt in tokens {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return true,
            _ => {}
        }
    }
    false
}

/// Parses enum variants, renaming them to snake_case if asked.
fn parse_variants(body: TokenStream, snake_case: bool) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Attributes (doc comments on variants).
        while let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() != '#' {
                break;
            }
            let _ = tokens.next();
            if !serde_args(tokens.next()).is_empty() {
                panic!("serde_derive shim: serde attributes on variants are not implemented");
            }
        }
        let ident = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive shim: expected variant name, found {other:?}"),
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(parse_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let mut inner = g.stream().into_iter().peekable();
                if skip_type(&mut inner) && inner.peek().is_some() {
                    panic!("serde_derive shim: tuple variant `{ident}` has more than one field");
                }
                Shape::Newtype
            }
            _ => Shape::Unit,
        };
        if !matches!(shape, Shape::Unit) {
            let _ = tokens.next();
        }
        match tokens.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            other => panic!("serde_derive shim: unexpected token after `{ident}`: {other:?}"),
        }
        let wire = if snake_case {
            to_snake_case(&ident)
        } else {
            ident.clone()
        };
        variants.push(Variant { ident, wire, shape });
    }
    variants
}

/// `TryOutput` → `try_output`, as serde's `rename_all = "snake_case"`.
fn to_snake_case(ident: &str) -> String {
    let mut out = String::new();
    for (i, c) in ident.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}
