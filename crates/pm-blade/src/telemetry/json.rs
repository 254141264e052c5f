//! The one JSON writer behind every telemetry document: the metrics
//! snapshot, the flight recorder and its request traces, and the
//! Chrome trace export.
//!
//! It owns the dialect: `"name": value` fields, items separated by
//! `", "` (or one per line, see [`Layout`]), `null` for `None` and for
//! non-finite floats, and values written bare through `Display` —
//! numbers, booleans, and pre-formatted numbers such as Chrome's
//! `123.456` microseconds. Nested objects are always inline. Names and
//! string values are identifiers of this crate (metric names, span
//! kinds, codec names) and are written between quotes without escaping.

use std::fmt::{Display, Write};

/// Where an object or array puts its items.
#[derive(Clone, Copy)]
pub(crate) enum Layout {
    /// `{"a": 1, "b": 2}`.
    Inline,
    /// Items separated by `",\n"`, the brackets hugging them.
    Lines,
    /// One item per line, indented one two-space step deeper than
    /// `depth`; the closing bracket on a line of its own at `depth`.
    Indented(usize),
}

/// An object or array being written: fields go into objects, `push_*`
/// items into arrays.
pub(crate) struct Json<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

/// The object `fill` writes, laid out as `layout`.
pub(crate) fn object(layout: Layout, fill: impl FnOnce(&mut Json)) -> String {
    let mut out = String::new();
    nest(&mut out, ['{', '}'], layout, fill);
    out
}

fn nest(out: &mut String, [open, close]: [char; 2], layout: Layout, fill: impl FnOnce(&mut Json)) {
    out.push(open);
    if let Layout::Indented(_) = layout {
        out.push('\n');
    }
    let json = &mut Json {
        out,
        layout,
        empty: true,
    };
    fill(json);
    if let Layout::Indented(depth) = layout {
        json.out.push('\n');
        json.out.push_str(&"  ".repeat(depth));
    }
    json.out.push(close);
}

impl Json<'_> {
    /// Start the next item: the separator, the indent, and `"name": `
    /// for an object's field.
    fn item(&mut self, name: Option<&str>) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push_str(match self.layout {
                Layout::Inline => ", ",
                Layout::Lines | Layout::Indented(_) => ",\n",
            });
        }
        if let Layout::Indented(depth) = self.layout {
            self.out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(name) = name {
            let _ = write!(self.out, "\"{name}\": ");
        }
        self.out
    }

    /// `"name": value`, the value bare (a number, a boolean).
    pub(crate) fn num(&mut self, name: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.item(Some(name)), "{value}");
        self
    }

    /// `"name": "value"`.
    pub(crate) fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.num(name, format_args!("\"{value}\""))
    }

    pub(crate) fn null(&mut self, name: &str) -> &mut Self {
        self.num(name, "null")
    }

    /// [`Self::num`], or `null` for `None`.
    pub(crate) fn opt(&mut self, name: &str, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(value) => self.num(name, value),
            None => self.null(name),
        }
    }

    /// [`Self::num`], or `null` for an infinite or NaN value.
    pub(crate) fn f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.opt(name, Some(value).filter(|v| v.is_finite()))
    }

    /// `"name": {..}`, the fields `fill` writes.
    pub(crate) fn object(&mut self, name: &str, fill: impl FnOnce(&mut Json)) -> &mut Self {
        nest(self.item(Some(name)), ['{', '}'], Layout::Inline, fill);
        self
    }

    /// `"name": [..]` of bare numbers, inline.
    pub(crate) fn nums(&mut self, name: &str, values: &[impl Display]) -> &mut Self {
        nest(self.item(Some(name)), ['[', ']'], Layout::Inline, |a| {
            for value in values {
                let _ = write!(a.item(None), "{value}");
            }
        });
        self
    }

    /// `"name": [..]`, the items `fill` pushes, laid out as `layout`.
    pub(crate) fn array(&mut self, name: &str, layout: Layout, fill: impl FnOnce(&mut Json)) {
        nest(self.item(Some(name)), ['[', ']'], layout, fill);
    }

    pub(crate) fn push_object(&mut self, fill: impl FnOnce(&mut Json)) {
        nest(self.item(None), ['{', '}'], Layout::Inline, fill);
    }
}
