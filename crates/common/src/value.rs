//! The 64-bit datum that flows through the simulated machine.

use std::fmt;

use crate::json::ToJson;

/// A 64-bit bag of bits with typed views.
///
/// Every operand routed through the simulated operand network is a `Value`.
/// The TRIPS-era machine the paper models is a 64-bit architecture whose
/// media/graphics kernels operate on 32-bit floats and whose network/security
/// kernels operate on 32/64-bit integers, so `Value` provides reinterpreting
/// views rather than a tagged union: the ISA opcode, not the datum, decides
/// the interpretation — exactly as in hardware.
///
/// Narrow views read/write the **low** 32 bits; constructors zero-extend.
///
/// # Example
///
/// ```
/// use dlp_common::Value;
///
/// let v = Value::from_u32(0xDEAD_BEEF);
/// assert_eq!(v.as_u32(), 0xDEAD_BEEF);
/// assert_eq!(v.bits(), 0x0000_0000_DEAD_BEEF);
///
/// let f = Value::from_f32(-2.5);
/// assert_eq!(f.as_f32(), -2.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, ToJson)]
pub struct Value(u64);

impl Value {
    /// The all-zero value.
    pub const ZERO: Value = Value(0);

    /// Construct from raw bits.
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        Value(bits)
    }

    /// The raw 64-bit pattern.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Construct from a `u64` (identity on bits).
    #[must_use]
    pub const fn from_u64(x: u64) -> Self {
        Value(x)
    }

    /// View as `u64`.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Construct from an `i64` (two's-complement bits).
    #[must_use]
    pub const fn from_i64(x: i64) -> Self {
        Value(x as u64)
    }

    /// View as `i64` (two's-complement reinterpretation).
    #[must_use]
    pub const fn as_i64(self) -> i64 {
        self.0 as i64
    }

    /// Construct from a `u32`, zero-extending.
    #[must_use]
    pub const fn from_u32(x: u32) -> Self {
        Value(x as u64)
    }

    /// View the low 32 bits as `u32`.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0 as u32
    }

    /// Construct from an `i32` (two's-complement low bits, zero-extended).
    #[must_use]
    pub const fn from_i32(x: i32) -> Self {
        Value(x as u32 as u64)
    }

    /// View the low 32 bits as `i32`.
    #[must_use]
    pub const fn as_i32(self) -> i32 {
        self.0 as u32 as i32
    }

    /// Construct from an `f32` bit pattern in the low 32 bits.
    #[must_use]
    pub fn from_f32(x: f32) -> Self {
        Value(x.to_bits() as u64)
    }

    /// View the low 32 bits as `f32`.
    #[must_use]
    pub fn as_f32(self) -> f32 {
        f32::from_bits(self.0 as u32)
    }

    /// Construct from an `f64` bit pattern.
    #[must_use]
    pub fn from_f64(x: f64) -> Self {
        Value(x.to_bits())
    }

    /// View all 64 bits as `f64`.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// Whether the value is boolean-true under the ISA's test semantics
    /// (nonzero bits).
    #[must_use]
    pub const fn is_true(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({:#018x})", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::from_u64(x)
    }
}

impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::from_u32(x)
    }
}

impl From<i32> for Value {
    fn from(x: i32) -> Self {
        Value::from_i32(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::from_i64(x)
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Self {
        Value::from_f32(x)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::from_f64(x)
    }
}

impl From<Value> for u64 {
    fn from(v: Value) -> u64 {
        v.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn narrow_views_use_low_bits() {
        let v = Value::from_bits(0xFFFF_FFFF_0000_00FF);
        assert_eq!(v.as_u32(), 0xFF);
        assert_eq!(v.as_i32(), 0xFF);
    }

    #[test]
    fn i32_zero_extends() {
        let v = Value::from_i32(-1);
        assert_eq!(v.bits(), 0xFFFF_FFFF);
        assert_eq!(v.as_i32(), -1);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::ZERO.is_true());
        assert!(Value::from_u32(1).is_true());
        // Negative-zero f32 has a nonzero bit pattern and is "true" — the ISA
        // tests bits, comparisons produce canonical 0/1.
        assert!(Value::from_f32(-0.0).is_true());
    }

    #[test]
    fn formatting() {
        let v = Value::from_u32(0b1010);
        assert_eq!(format!("{v:x}"), "a");
        assert_eq!(format!("{v:X}"), "A");
        assert_eq!(format!("{v:b}"), "1010");
        assert_eq!(format!("{v:o}"), "12");
        assert!(!format!("{v:?}").is_empty());
    }

    proptest! {
        #[test]
        fn f32_roundtrip(x in proptest::num::f32::ANY) {
            let v = Value::from_f32(x);
            prop_assert_eq!(v.as_f32().to_bits(), x.to_bits());
        }

        #[test]
        fn f64_roundtrip(x in proptest::num::f64::ANY) {
            let v = Value::from_f64(x);
            prop_assert_eq!(v.as_f64().to_bits(), x.to_bits());
        }

        #[test]
        fn u64_roundtrip(x in any::<u64>()) {
            prop_assert_eq!(Value::from_u64(x).as_u64(), x);
        }

        #[test]
        fn i32_roundtrip(x in any::<i32>()) {
            prop_assert_eq!(Value::from_i32(x).as_i32(), x);
        }
    }
}
