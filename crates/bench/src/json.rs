//! The harness's one JSON writer. Result types describe their fields once
//! ([`Fields`], usually through `record!`); this module renders them, so
//! the `BENCH_*.json` documents, the `exp_all --json` dump and the markdown
//! tables all read the same description.
//!
//! Layout rule: the document root is multi-line, and so is every array
//! whose elements are all arrays or objects (an empty array included) and
//! every object holding a multi-line value. Everything else goes on one
//! line. Indents are two spaces. Non-finite numbers render as `null`, since
//! JSON has no NaN or infinity.

use std::fmt;
use std::io;
use std::path::Path;

/// A JSON value whose objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count or seed.
    Int(u64),
    /// A measurement (`null` when not finite).
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in output order.
    Obj(Vec<(&'static str, Json)>),
}

/// A record that lists its fields once, in output order: the source of both
/// its JSON object and its table cells.
pub trait Fields {
    /// The `(key, value)` pairs of the record.
    fn fields(&self) -> Vec<(&'static str, Json)>;
}

/// A value with a JSON form. Records ([`Fields`]) become objects.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> Json;
}

impl<T: Fields> ToJson for T {
    fn to_json(&self) -> Json {
        Json::Obj(self.fields())
    }
}

/// Defines a struct whose [`Fields`] are its own fields, under their own
/// names, in declaration order.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $crate::json::Fields for $name {
            fn fields(&self) -> Vec<(&'static str, $crate::json::Json)> {
                use $crate::json::ToJson as _;
                vec![$((stringify!($field), self.$field.to_json())),*]
            }
        }
    };
}
pub(crate) use record;

macro_rules! to_json_as {
    ($variant:ident: $($ty:ty),*) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::$variant((*self).into())
            }
        })*
    };
}
to_json_as!(Bool: bool);
to_json_as!(Int: u32, u64);
to_json_as!(Num: f64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as u64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl Json {
    /// Follows a dotted key path (`"robustness.completed"`) through nested
    /// objects. A `null` on the way reads as `null` (an absent optional
    /// record has absent fields).
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |value, key| match value {
            Json::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            Json::Null => Some(value),
            _ => None,
        })
    }

    /// The value as a table cell: numbers as themselves, `true`/`false` as
    /// 1/0, `null` as NaN; `None` for strings and containers.
    pub fn cell(&self) -> Option<f64> {
        match *self {
            Json::Null => Some(f64::NAN),
            Json::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            Json::Int(n) => Some(n as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    fn is_multiline(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .all(|v| matches!(v, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.is_multiline()),
            _ => false,
        }
    }

    fn write(&self, out: &mut impl fmt::Write, indent: usize, multiline: bool) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(n) => write!(out, "{n}"),
            Json::Num(v) if v.is_finite() => write!(out, "{v}"),
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                let entries = items.iter().map(|v| (None, v));
                write_container(out, ['[', ']'], entries, indent, multiline)
            }
            Json::Obj(fields) => {
                let entries = fields.iter().map(|(k, v)| (Some(*k), v));
                write_container(out, ['{', '}'], entries, indent, multiline)
            }
        }
    }
}

/// Writes an array (entries without keys) or an object (entries with keys).
/// Children of a one-line container are one-line too.
fn write_container<'a>(
    out: &mut impl fmt::Write,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    indent: usize,
    multiline: bool,
) -> fmt::Result {
    out.write_char(open)?;
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.write_str(if multiline { "," } else { ", " })?;
        }
        if multiline {
            write!(out, "\n{:width$}", "", width = indent + 2)?;
        }
        if let Some(key) = key {
            write_string(out, key)?;
            out.write_str(": ")?;
        }
        value.write(out, indent + 2, multiline && value.is_multiline())?;
    }
    if multiline {
        write!(out, "\n{:indent$}", "")?;
    }
    out.write_char(close)
}

fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Renders the value as a document: the root container is multi-line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, true)
    }
}

/// Writes a `BENCH_*.json` document (plus a trailing newline) to `path` and
/// reports it on stdout. A failed write is returned, naming the path, so
/// the experiment binary can fail the run.
pub fn write_bench(path: impl AsRef<Path>, document: &Json) -> io::Result<()> {
    let path = path.as_ref();
    std::fs::write(path, format!("{document}\n")).map_err(|e| {
        io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
    })?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&'static str, Json)>) -> Json {
        Json::Obj(fields)
    }

    /// Renders `value` below the root, where the layout rule applies.
    fn nested(value: Json) -> String {
        let doc = obj(vec![("v", value)]).to_string();
        let inner = doc
            .strip_prefix("{\n  \"v\": ")
            .and_then(|s| s.strip_suffix("\n}"));
        inner.expect("one-field document").to_string()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é".to_json();
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\re\tf\u0001g\u001fh é""#);
        let keyed = obj(vec![("k\"", Json::Null)]);
        assert_eq!(nested(keyed), "{\"k\\\"\": null}");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 250.0];
        assert_eq!(nested(values.to_json()), "[null, null, null, -0.5, 250]");
    }

    #[test]
    fn empty_arrays_are_multiline_and_scalar_arrays_inline() {
        let doc = obj(vec![
            ("empty", Json::Arr(Vec::new())),
            ("scalars", [1u64, 2].to_json()),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"empty\": [\n  ],\n  \"scalars\": [1, 2]\n}"
        );
        assert_eq!(Json::Arr(Vec::new()).to_string(), "[\n]");
        assert_eq!(obj(Vec::new()).to_string(), "{\n}");
    }

    #[test]
    fn nested_arrays_follow_the_multiline_rule() {
        let inline_row = ("label".to_string(), vec![1.0, 2.0]).to_json();
        let doc = obj(vec![
            (
                "outer",
                obj(vec![(
                    "rows",
                    Json::Arr(vec![inline_row, Json::Arr(Vec::new())]),
                )]),
            ),
            (
                "mixed",
                Json::Arr(vec![Json::Int(1), Json::Arr(Vec::new())]),
            ),
            (
                "flat",
                obj(vec![("x", Json::Int(1)), ("y", obj(Vec::new()))]),
            ),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"outer\": {\n    \"rows\": [\n      [\"label\", [1, 2]],\n      [\n      ]\n    ]\n  },\n  \
             \"mixed\": [1, []],\n  \"flat\": {\"x\": 1, \"y\": {}}\n}"
        );
    }

    #[test]
    fn dotted_keys_reach_nested_fields_and_null_parents_read_as_null() {
        let doc = obj(vec![
            ("a", obj(vec![("b", Json::Int(3))])),
            ("none", Json::Null),
            ("s", "text".to_json()),
        ]);
        assert_eq!(doc.get("a.b").and_then(Json::cell), Some(3.0));
        let absent = doc.get("none.p99_ms").and_then(Json::cell);
        assert!(absent.is_some_and(f64::is_nan));
        assert_eq!(doc.get("a.missing"), None);
        assert_eq!(doc.get("s").and_then(Json::cell), None);
        assert_eq!(true.to_json().cell(), Some(1.0));
    }

    #[test]
    fn write_bench_into_a_missing_directory_fails() {
        let path = std::env::temp_dir()
            .join("hidp-bench-no-such-directory")
            .join("BENCH_test.json");
        let err = write_bench(&path, &Json::Null).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("BENCH_test.json"), "{err}");
    }
}
