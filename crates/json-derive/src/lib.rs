//! `#[derive(ToJson)]` and `#[derive(FromJson)]` for
//! `dlp_common::json`'s `ToJson` and `FromJson`.
//!
//! `ToJson` supports the item shapes this workspace serializes:
//! **non-generic** structs (unit, tuple, named) and enums (unit,
//! tuple/newtype, struct variants). Parsing walks the raw
//! `proc_macro::TokenStream` (the offline dependency set has no
//! `syn`/`quote`), and the generated impl is plain source text that
//! writes compact JSON with `out.push_str`:
//!
//! * a named struct is an object, a tuple struct an array, a newtype
//!   struct its inner value and a unit struct `null`;
//! * a unit variant is `"Name"`, a newtype variant `{"Name":value}`, a
//!   tuple variant an array, and a struct variant a bare object with no
//!   variant-name wrapper.
//!
//! `FromJson` reads back the shapes persisted records use, and rejects
//! the rest at compile time:
//!
//! * a named struct, every field required (extra members are ignored);
//! * a newtype struct, from its inner value;
//! * an enum whose variants all have named fields. The variant is the
//!   first one whose *first* field is present, so first fields must
//!   differ; once chosen, a variant that does not decode fails the whole
//!   value rather than falling through to the next.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of a struct body or enum variant payload.
enum Shape {
    /// No payload (`struct X;` / `X,`).
    Unit,
    /// Parenthesized fields (`struct X(A, B);` / `X(A)`), by count.
    Tuple(usize),
    /// Braced named fields, by name.
    Named(Vec<String>),
}

/// A parsed `#[derive]` input item.
enum Item {
    Struct { name: String, shape: Shape },
    Enum { name: String, variants: Vec<(String, Shape)> },
}

/// Derive `dlp_common::json::ToJson` for a non-generic struct or enum.
#[proc_macro_derive(ToJson)]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => render_impl(&item).parse().expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Derive `dlp_common::json::FromJson` for a non-generic named struct,
/// newtype struct, or enum of struct variants.
#[proc_macro_derive(FromJson)]
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    match parse_item(input).and_then(|item| render_from_json(&item)) {
        Ok(src) => src.parse().expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("error token parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut toks = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks);

    let kw = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "JSON derive: generic type `{name}` is unsupported; \
             write the impl by hand"
        ));
    }

    match kw.as_str() {
        "struct" => {
            let shape = match toks.next() {
                None | Some(TokenTree::Punct(_)) => Shape::Unit, // `struct X;`
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(count_tuple_fields(g.stream()))
                }
                other => return Err(format!("unexpected struct body: {other:?}")),
            };
            Ok(Item::Struct { name, shape })
        }
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, got {other:?}")),
            };
            Ok(Item::Enum { name, variants: parse_variants(body)? })
        }
        other => Err(format!("JSON derive: `{other}` items are unsupported")),
    }
}

type Toks = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skip leading `#[...]` attributes and a `pub`/`pub(...)` visibility.
fn skip_attrs_and_vis(toks: &mut Toks) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                // Attribute body: `[...]`.
                if matches!(toks.peek(), Some(TokenTree::Group(_))) {
                    toks.next();
                }
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                // `pub(crate)` and friends.
                if matches!(
                    toks.peek(),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    toks.next();
                }
            }
            _ => return,
        }
    }
}

/// Skip tokens of one type (or expression) up to a top-level `,`, which is
/// consumed. Angle brackets are tracked manually: `<`/`>` are plain
/// `Punct`s in a `TokenStream`, so `BTreeMap<K, V>`'s inner comma must not
/// terminate the scan.
fn skip_until_comma(toks: &mut Toks) {
    let mut angle_depth = 0i32;
    while let Some(tok) = toks.peek() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    toks.next();
                    return;
                }
                _ => {}
            }
        }
        toks.next();
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut toks = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        match toks.next() {
            None => return Ok(fields),
            Some(TokenTree::Ident(i)) => fields.push(i.to_string()),
            other => return Err(format!("expected field name, got {other:?}")),
        }
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field name, got {other:?}")),
        }
        skip_until_comma(&mut toks);
    }
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut toks = body.into_iter().peekable();
    let mut count = 0;
    while toks.peek().is_some() {
        count += 1;
        skip_until_comma(&mut toks);
    }
    count
}

fn parse_variants(body: TokenStream) -> Result<Vec<(String, Shape)>, String> {
    let mut toks = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            None => return Ok(variants),
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        let shape = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                toks.next();
                Shape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                toks.next();
                Shape::Named(fields)
            }
            _ => Shape::Unit,
        };
        // Optional `= discriminant`, then the separating comma.
        skip_until_comma(&mut toks);
        variants.push((name, shape));
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// The trait method every field is written through.
const WRITE: &str = "::dlp_common::json::ToJson::write_json";

fn render_impl(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => (name, render_struct_body(shape)),
        Item::Enum { name, variants } => (name, render_enum_body(name, variants)),
    };
    format!(
        "impl ::dlp_common::json::ToJson for {name} {{\n\
             fn write_json(&self, out: &mut ::std::string::String) {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn render_struct_body(shape: &Shape) -> String {
    match shape {
        Shape::Unit => "out.push_str(\"null\");".to_string(),
        Shape::Tuple(1) => format!("{WRITE}(&self.0, out);"),
        Shape::Tuple(n) => array(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>()),
        Shape::Named(fields) => {
            let values: Vec<String> = fields.iter().map(|f| format!("&self.{f}")).collect();
            object(fields, &values)
        }
    }
}

fn render_enum_body(name: &str, variants: &[(String, Shape)]) -> String {
    let mut s = String::from("match self {\n");
    for (vname, shape) in variants {
        let path = format!("{name}::{vname}");
        match shape {
            Shape::Unit => {
                s += &format!("{path} => out.push_str({:?}),\n", format!("\"{vname}\""));
            }
            Shape::Tuple(1) => {
                s += &format!(
                    "{path}(__field0) => {{\nout.push_str({:?});\n{WRITE}(__field0, out);\n\
                     out.push('}}');\n}}\n",
                    format!("{{\"{vname}\":")
                );
            }
            Shape::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("__field{i}")).collect();
                s += &format!("{path}({}) => {{\n{}\n}}\n", binds.join(", "), array(&binds));
            }
            Shape::Named(fields) => {
                // Fresh binding names, so that a field called `out` cannot
                // shadow the output buffer.
                let binds: Vec<String> = (0..fields.len()).map(|i| format!("__field{i}")).collect();
                let pattern: Vec<String> =
                    fields.iter().zip(&binds).map(|(f, b)| format!("{f}: {b}")).collect();
                s += &format!(
                    "{path} {{ {} }} => {{\n{}\n}}\n",
                    pattern.join(", "),
                    object(fields, &binds)
                );
            }
        }
    }
    s + "}"
}

/// Statements writing `values` (expressions of reference type) as a JSON
/// array.
fn array(values: &[String]) -> String {
    let mut s = String::from("out.push('[');\n");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s += "out.push(',');\n";
        }
        s += &format!("{WRITE}({v}, out);\n");
    }
    s + "out.push(']');"
}

/// Statements writing an object whose keys are `fields` and whose values
/// are the matching `values` expressions.
fn object(fields: &[String], values: &[String]) -> String {
    if fields.is_empty() {
        return "out.push_str(\"{}\");".to_string();
    }
    let mut s = String::new();
    for (i, (f, v)) in fields.iter().zip(values).enumerate() {
        let key = format!("{}\"{f}\":", if i == 0 { '{' } else { ',' });
        s += &format!("out.push_str({key:?});\n{WRITE}({v}, out);\n");
    }
    s + "out.push('}');"
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The trait method every field is read through.
const READ: &str = "::dlp_common::json::FromJson::from_json";

fn render_from_json(item: &Item) -> Result<String, String> {
    let (name, body) = match item {
        Item::Struct { name, shape: Shape::Named(fields) } => {
            (name, format!("::std::option::Option::Some({})", construct(name, fields)))
        }
        Item::Struct { name, shape: Shape::Tuple(1) } => {
            (name, format!("::std::option::Option::Some({name}({READ}(v)?))"))
        }
        Item::Struct { name, .. } => {
            return Err(format!("FromJson derive: `{name}` must be a named or newtype struct"))
        }
        Item::Enum { name, variants } => (name, render_variant_dispatch(name, variants)?),
    };
    Ok(format!(
        "impl ::dlp_common::json::FromJson for {name} {{\n\
             fn from_json(v: &::dlp_common::json::JsonValue) -> ::std::option::Option<Self> {{\n\
                 {body}\n\
             }}\n\
         }}"
    ))
}

/// `path { field: read(v.get("field")?)?, .. }`: every field required.
fn construct(path: &str, fields: &[String]) -> String {
    let inits: Vec<String> =
        fields.iter().map(|f| format!("{f}: {READ}(v.get({f:?})?)?")).collect();
    format!("{path} {{ {} }}", inits.join(", "))
}

/// Pick the first variant whose first field is present, and decode it.
fn render_variant_dispatch(name: &str, variants: &[(String, Shape)]) -> Result<String, String> {
    let mut s = String::new();
    let mut firsts: Vec<&String> = Vec::new();
    for (vname, shape) in variants {
        let Shape::Named(fields) = shape else {
            return Err(format!("FromJson derive: `{name}::{vname}` must have named fields"));
        };
        let Some(first) = fields.first() else {
            return Err(format!("FromJson derive: `{name}::{vname}` has no field to select it by"));
        };
        if firsts.contains(&first) {
            return Err(format!(
                "FromJson derive: two variants of `{name}` start with field `{first}`"
            ));
        }
        firsts.push(first);
        s += &format!(
            "if v.get({first:?}).is_some() {{\nreturn ::std::option::Option::Some({});\n}}\n",
            construct(&format!("{name}::{vname}"), fields)
        );
    }
    Ok(s + "::std::option::Option::None")
}
