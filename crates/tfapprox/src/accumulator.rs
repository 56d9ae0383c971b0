//! Accumulator models for the emulated MAC datapath.
//!
//! The paper's accelerator uses "a MAC unit consisting of an 8-bit
//! multiplier and 32-bit accumulator"; its GPU kernel accumulates in
//! 32-bit float. A 32-bit integer accumulator never overflows for the
//! layer sizes here (|product| ≤ 2¹⁴, patch lengths ≤ a few thousand), but
//! *narrower* accumulators — a standard further approximation knob in
//! accelerator design — clip or wrap. This module models that choice so
//! the emulator can also explore accumulator-width reduction.

use serde::{Deserialize, Serialize};

/// How partial products are accumulated in the emulated MAC.
///
/// The narrow models take a width of `1..=32` bits — up to the paper's
/// 32-bit accumulator. [`Accumulator::validate`] checks it, and
/// [`crate::SessionBuilder::compile`] rejects any other width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Accumulator {
    /// Exact wide accumulation (`i64`) — the reference, and equivalent to
    /// the paper's 32-bit accumulator for all workloads in this repo.
    #[default]
    Exact,
    /// Saturating two's-complement accumulator of the given bit width:
    /// the running sum clamps to `[−2^(bits−1), 2^(bits−1) − 1]` after
    /// every addend.
    Saturating(u32),
    /// Wrapping two's-complement accumulator of the given bit width.
    Wrapping(u32),
}

impl Accumulator {
    /// Fold one addend into the running sum under this model.
    #[inline]
    #[must_use]
    pub fn add(self, acc: i64, addend: i64) -> i64 {
        match self {
            Accumulator::Exact => acc + addend,
            Accumulator::Saturating(bits) => {
                let hi = (1i64 << (bits - 1)) - 1;
                let lo = -(1i64 << (bits - 1));
                (acc + addend).clamp(lo, hi)
            }
            Accumulator::Wrapping(_) => self.wrap_sum(acc + addend),
        }
    }

    /// The value a [`Accumulator::Wrapping`] accumulator holds after
    /// folding addends whose exact sum is `sum`: reduction mod 2ⁿ is a
    /// ring homomorphism, so one wrap at the end equals a wrap after
    /// every [`Accumulator::add`]. The other models return `sum`
    /// unchanged (a saturating fold must clamp per addend).
    #[inline]
    #[must_use]
    pub fn wrap_sum(self, sum: i64) -> i64 {
        match self {
            Accumulator::Wrapping(bits) => {
                let m = 1i64 << bits;
                let v = sum.rem_euclid(m);
                if v >= m / 2 {
                    v - m
                } else {
                    v
                }
            }
            _ => sum,
        }
    }

    /// Check that a narrow model's width is in `1..=32`.
    ///
    /// # Errors
    ///
    /// A message naming the model when its width is 0 or above 32.
    pub fn validate(self) -> Result<Self, String> {
        match self {
            Accumulator::Saturating(bits) | Accumulator::Wrapping(bits)
                if !(1..=32).contains(&bits) =>
            {
                Err(format!(
                    "accumulator {self:?}: width must be 1..=32 bits (got {bits})"
                ))
            }
            _ => Ok(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_plain_addition() {
        let a = Accumulator::Exact;
        assert_eq!(a.add(10, -3), 7);
        assert_eq!(a.add(i64::from(i32::MAX), 1), i64::from(i32::MAX) + 1);
    }

    #[test]
    fn saturating_clamps_both_ends() {
        let a = Accumulator::Saturating(8); // [-128, 127]
        assert_eq!(a.add(120, 50), 127);
        assert_eq!(a.add(-120, -50), -128);
        assert_eq!(a.add(10, 5), 15);
    }

    #[test]
    fn wrapping_wraps_two_complement() {
        let a = Accumulator::Wrapping(8);
        assert_eq!(a.add(120, 10), -126); // 130 - 256
        assert_eq!(a.add(-120, -10), 126); // -130 + 256
        assert_eq!(a.add(1, 1), 2);
    }

    #[test]
    fn one_final_wrap_equals_a_wrap_per_add() {
        for bits in [1, 8, 12, 32] {
            let a = Accumulator::Wrapping(bits);
            let addends = [65_535i64, -40_000, 12_345, -65_536, 777, 65_535];
            let folded = addends.iter().fold(0, |acc, &v| a.add(acc, v));
            assert_eq!(a.wrap_sum(addends.iter().sum()), folded, "{a:?}");
        }
        assert_eq!(Accumulator::Exact.wrap_sum(1 << 40), 1 << 40);
        assert_eq!(Accumulator::Saturating(8).wrap_sum(100), 100);
    }

    #[test]
    fn widths_outside_1_to_32_are_invalid() {
        for bits in [1, 12, 31, 32] {
            assert!(Accumulator::Saturating(bits).validate().is_ok());
            assert!(Accumulator::Wrapping(bits).validate().is_ok());
        }
        for bits in [0, 33, 64, u32::MAX] {
            for a in [Accumulator::Saturating(bits), Accumulator::Wrapping(bits)] {
                let err = a.validate().unwrap_err();
                assert!(err.contains("1..=32"), "{err}");
            }
        }
        assert_eq!(Accumulator::Exact.validate(), Ok(Accumulator::Exact));
    }

    #[test]
    fn running_saturation_is_order_dependent_but_bounded() {
        let a = Accumulator::Saturating(8);
        let mut acc = 0i64;
        for v in [100, 100, -150] {
            acc = a.add(acc, v);
        }
        // 100 -> 127 (clamp) -> -23: differs from the exact 50, but stays
        // in range — the hardware behaviour.
        assert_eq!(acc, -23);
        assert!((-128..=127).contains(&acc));
    }
}
