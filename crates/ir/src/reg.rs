//! Registers and register classes.

use std::fmt;

/// Architectural register class, mirroring the PowerPC register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General-purpose (integer) registers, `r0..`.
    Gpr,
    /// Floating-point registers, `f0..`.
    Fpr,
    /// Condition register fields, `cr0..`.
    Cr,
    /// Special-purpose registers (LR, CTR, XER, ...), `spr0..`.
    Spr,
}

impl RegClass {
    /// All register classes, in display order.
    pub const ALL: [RegClass; 4] = [RegClass::Gpr, RegClass::Fpr, RegClass::Cr, RegClass::Spr];

    /// One-letter prefix used when printing registers of this class.
    pub fn prefix(self) -> &'static str {
        match self {
            RegClass::Gpr => "r",
            RegClass::Fpr => "f",
            RegClass::Cr => "cr",
            RegClass::Spr => "spr",
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A machine register: a class plus an index within the class.
///
/// The IR is post-register-allocation (as in the paper: scheduling runs on
/// the machine-specific form the JIT emits), so indices name physical
/// registers and reuse of an index creates anti/output dependences.
///
/// # Examples
///
/// ```
/// use wts_ir::{Reg, RegClass};
/// let r3 = Reg::gpr(3);
/// assert_eq!(r3.class(), RegClass::Gpr);
/// assert_eq!(r3.index(), 3);
/// assert_eq!(r3.to_string(), "r3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    class: RegClass,
    index: u16,
}

impl Reg {
    /// The largest register index in any class. Indices are bounded so
    /// that [`Reg::dense_key`] is injective: one more and `r1024` would
    /// share `f0`'s key.
    pub const MAX_INDEX: u16 = 1023;

    /// Creates a register of the given class and index.
    ///
    /// # Panics
    ///
    /// When `index` exceeds [`Reg::MAX_INDEX`].
    pub const fn new(class: RegClass, index: u16) -> Reg {
        assert!(index <= Reg::MAX_INDEX, "register index exceeds Reg::MAX_INDEX");
        Reg { class, index }
    }

    /// General-purpose register `r<index>`.
    pub const fn gpr(index: u16) -> Reg {
        Reg::new(RegClass::Gpr, index)
    }

    /// Floating-point register `f<index>`.
    pub const fn fpr(index: u16) -> Reg {
        Reg::new(RegClass::Fpr, index)
    }

    /// Condition-register field `cr<index>`.
    pub const fn cr(index: u16) -> Reg {
        Reg::new(RegClass::Cr, index)
    }

    /// Special-purpose register `spr<index>` (0 = LR, 1 = CTR by convention).
    pub const fn spr(index: u16) -> Reg {
        Reg::new(RegClass::Spr, index)
    }

    /// The link register (call/return linkage).
    pub const fn lr() -> Reg {
        Reg::spr(0)
    }

    /// The count register (indirect branches).
    pub const fn ctr() -> Reg {
        Reg::spr(1)
    }

    /// This register's class.
    pub fn class(self) -> RegClass {
        self.class
    }

    /// This register's index within its class.
    pub fn index(self) -> u16 {
        self.index
    }

    /// A dense key usable for array-indexed register maps.
    ///
    /// Keys are unique across all registers (indices are bounded by
    /// [`Reg::MAX_INDEX`]) and below [`Reg::dense_limit`].
    pub fn dense_key(self) -> usize {
        const STRIDE: usize = Reg::MAX_INDEX as usize + 1;
        let base = match self.class {
            RegClass::Gpr => 0,
            RegClass::Fpr => STRIDE,
            RegClass::Cr => 2 * STRIDE,
            RegClass::Spr => 3 * STRIDE,
        };
        base + self.index as usize
    }

    /// Exclusive upper bound on [`Reg::dense_key`] values.
    pub fn dense_limit() -> usize {
        RegClass::ALL.len() * (Reg::MAX_INDEX as usize + 1)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class_and_index() {
        assert_eq!(Reg::gpr(5).class(), RegClass::Gpr);
        assert_eq!(Reg::fpr(9).class(), RegClass::Fpr);
        assert_eq!(Reg::cr(1).class(), RegClass::Cr);
        assert_eq!(Reg::spr(2).class(), RegClass::Spr);
        assert_eq!(Reg::gpr(5).index(), 5);
    }

    #[test]
    fn display_uses_class_prefix() {
        assert_eq!(Reg::gpr(31).to_string(), "r31");
        assert_eq!(Reg::fpr(0).to_string(), "f0");
        assert_eq!(Reg::cr(7).to_string(), "cr7");
        assert_eq!(Reg::spr(1).to_string(), "spr1");
    }

    #[test]
    fn lr_and_ctr_are_sprs() {
        assert_eq!(Reg::lr(), Reg::spr(0));
        assert_eq!(Reg::ctr(), Reg::spr(1));
    }

    #[test]
    fn dense_keys_distinct_across_classes() {
        let regs = [Reg::gpr(3), Reg::fpr(3), Reg::cr(3), Reg::spr(3)];
        let mut keys: Vec<usize> = regs.iter().map(|r| r.dense_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
        for r in regs {
            assert!(r.dense_key() < Reg::dense_limit());
        }
    }

    #[test]
    fn dense_keys_are_injective_up_to_max_index() {
        let mut seen = vec![false; Reg::dense_limit()];
        for class in RegClass::ALL {
            for index in 0..=Reg::MAX_INDEX {
                let key = Reg::new(class, index).dense_key();
                assert!(!seen[key], "{} shares key {key}", Reg::new(class, index));
                seen[key] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every key below dense_limit is some register's");
    }

    #[test]
    #[should_panic(expected = "MAX_INDEX")]
    fn index_beyond_max_is_rejected() {
        // r1024 would share f0's dense key.
        let _ = Reg::gpr(1024);
    }

    #[test]
    fn ordering_is_class_major() {
        assert!(Reg::gpr(1000) < Reg::fpr(0));
        assert!(Reg::gpr(3) < Reg::gpr(4));
    }
}
