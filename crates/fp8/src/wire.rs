//! The wire vocabulary of a plain (fieldless) enum, declared once.
//!
//! A recipe enum is written to the engine-spec JSON and to terminals as a
//! label, to the artifact CONFIG chunk as a one-byte discriminant, and
//! read back from both. [`wire_enum!`] states `Variant => "label"` pairs
//! once, next to the enum, in declaration order; the JSON codec, the
//! "want a | b" half of its error messages, the binary `put_enum` /
//! `get_enum` and `Display` all derive from that one list. A variant's
//! discriminant is its position in the list, so appending a variant
//! extends every codec and reordering is a visible wire-format break.
//!
//! The trait lives in this crate because it is the root of the workspace's
//! dependency graph: [`crate::Fp8Format`] here and the recipe enums in
//! `ptq-core` implement it.

/// A fieldless enum with a declared wire vocabulary. Implement it with
/// [`wire_enum!`], which keeps `WIRE` and [`WireEnum::label`] in step and
/// makes a forgotten variant a compile error.
pub trait WireEnum: Copy + PartialEq + 'static {
    /// `(variant, label)` in declaration order; the index is the
    /// variant's discriminant.
    const WIRE: &'static [(Self, &'static str)];

    /// The variant's label (JSON value, flag value, `Display` form).
    fn label(self) -> &'static str;

    /// The variant's one-byte binary discriminant.
    fn discriminant(self) -> u8 {
        // `wire_enum!` lists every variant, so the position always exists.
        Self::WIRE
            .iter()
            .position(|(v, _)| *v == self)
            .map_or(u8::MAX, |i| i as u8)
    }

    /// The variant carrying `label`, if any.
    fn from_label(label: &str) -> Option<Self> {
        Self::WIRE
            .iter()
            .find(|(_, l)| *l == label)
            .map(|(v, _)| *v)
    }

    /// The variant with binary discriminant `d`, if any.
    fn from_discriminant(d: u8) -> Option<Self> {
        Self::WIRE.get(usize::from(d)).map(|(v, _)| *v)
    }

    /// Every label, `a | b | c` — the "want …" half of an error message.
    fn vocabulary() -> String {
        let labels: Vec<&str> = Self::WIRE.iter().map(|(_, l)| *l).collect();
        labels.join(" | ")
    }
}

/// Declare an enum's wire vocabulary as `Variant => "label"` pairs in
/// declaration order.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident => $label:expr),+ $(,)? }) => {
        impl $crate::WireEnum for $ty {
            const WIRE: &'static [(Self, &'static str)] = &[$(($ty::$variant, $label)),+];

            fn label(self) -> &'static str {
                match self {
                    $($ty::$variant => $label),+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Side {
        Left,
        Right,
    }
    wire_enum!(Side { Left => "left", Right => "right" });

    #[test]
    fn every_view_derives_from_the_one_list() {
        assert_eq!(Side::Right.label(), "right");
        assert_eq!(Side::Right.discriminant(), 1);
        assert_eq!(Side::from_label("left"), Some(Side::Left));
        assert_eq!(Side::from_discriminant(1), Some(Side::Right));
        assert_eq!(Side::from_label("up"), None);
        assert_eq!(Side::from_discriminant(2), None);
        assert_eq!(Side::vocabulary(), "left | right");
        for (i, &(v, l)) in Side::WIRE.iter().enumerate() {
            assert_eq!(Side::from_label(l), Some(v));
            assert_eq!(Side::from_discriminant(i as u8), Some(v));
        }
    }
}
