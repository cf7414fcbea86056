//! 2D integer vectors used for indices, box corners, ghost widths and
//! refinement ratios.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 2D integer vector.
///
/// `IntVector` plays every integer-vector role in the AMR framework: cell
/// indices, box corners, ghost-cell widths, and refinement ratios
/// (`r_l = h_{l-1} / h_l` in the paper's Section II).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IntVector {
    /// Component along the x (column, fastest-varying) axis.
    pub x: i64,
    /// Component along the y (row, slowest-varying) axis.
    pub y: i64,
}

impl IntVector {
    /// Create a vector from its two components.
    pub const fn new(x: i64, y: i64) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub const ZERO: Self = Self::new(0, 0);

    /// The all-ones vector.
    pub const ONE: Self = Self::new(1, 1);

    /// A vector with both components equal to `v`.
    pub const fn uniform(v: i64) -> Self {
        Self::new(v, v)
    }

    /// The unit vector along axis `axis` (0 = x, 1 = y).
    ///
    /// # Panics
    /// Panics if `axis >= 2`.
    pub const fn unit(axis: usize) -> Self {
        match axis {
            0 => Self::new(1, 0),
            1 => Self::new(0, 1),
            _ => panic!("IntVector::unit: axis out of range"),
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Component-wise absolute value.
    pub fn abs(self) -> Self {
        Self::new(self.x.abs(), self.y.abs())
    }

    /// Product of the components. For a box size vector this is the cell
    /// count, hence the return type is `i64` (can be large but never
    /// overflows for realistic meshes).
    #[inline]
    pub fn product(self) -> i64 {
        self.x * self.y
    }

    /// True if every component of `self` is `>=` the matching component
    /// of `other`.
    #[inline]
    pub fn all_ge(self, other: Self) -> bool {
        self.x >= other.x && self.y >= other.y
    }

    /// True if every component of `self` is `>` the matching component of
    /// `other`.
    #[inline]
    pub fn all_gt(self, other: Self) -> bool {
        self.x > other.x && self.y > other.y
    }

    /// Component-wise multiplication.
    #[inline]
    pub fn scale(self, other: Self) -> Self {
        Self::new(self.x * other.x, self.y * other.y)
    }

    /// Component-wise Euclidean (floor) division: the quotient is rounded
    /// toward negative infinity, which is the coarsening rule for cell
    /// indices (`coarse = floor(fine / ratio)`).
    ///
    /// # Panics
    /// Panics if any component of `other` is zero.
    #[inline]
    pub fn div_floor(self, other: Self) -> Self {
        Self::new(self.x.div_euclid(other.x), self.y.div_euclid(other.y))
    }

    /// Component-wise ceiling division (rounds toward positive infinity).
    ///
    /// # Panics
    /// Panics if any component of `other` is not positive.
    #[inline]
    pub fn div_ceil(self, other: Self) -> Self {
        assert!(other.all_gt(IntVector::ZERO), "div_ceil: ratio must be positive");
        let q = |a: i64, b: i64| a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0);
        Self::new(q(self.x, other.x), q(self.y, other.y))
    }

    /// Access a component by axis index (0 = x, 1 = y).
    #[inline]
    pub fn get(self, axis: usize) -> i64 {
        match axis {
            0 => self.x,
            1 => self.y,
            _ => panic!("IntVector::get: axis out of range"),
        }
    }

    /// Set a component by axis index, returning the modified vector.
    #[inline]
    pub fn with(self, axis: usize, v: i64) -> Self {
        match axis {
            0 => Self::new(v, self.y),
            1 => Self::new(self.x, v),
            _ => panic!("IntVector::with: axis out of range"),
        }
    }
}

impl fmt::Debug for IntVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl fmt::Display for IntVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl Add for IntVector {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for IntVector {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl Sub for IntVector {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y)
    }
}

impl SubAssign for IntVector {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl Neg for IntVector {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y)
    }
}

impl Mul<i64> for IntVector {
    type Output = Self;
    #[inline]
    fn mul(self, s: i64) -> Self {
        Self::new(self.x * s, self.y * s)
    }
}

impl Div<i64> for IntVector {
    type Output = Self;
    #[inline]
    fn div(self, s: i64) -> Self {
        Self::new(self.x / s, self.y / s)
    }
}

impl Index<usize> for IntVector {
    type Output = i64;
    #[inline]
    fn index(&self, axis: usize) -> &i64 {
        match axis {
            0 => &self.x,
            1 => &self.y,
            _ => panic!("IntVector: axis out of range"),
        }
    }
}

impl IndexMut<usize> for IntVector {
    fn index_mut(&mut self, axis: usize) -> &mut i64 {
        match axis {
            0 => &mut self.x,
            1 => &mut self.y,
            _ => panic!("IntVector: axis out of range"),
        }
    }
}

impl From<(i64, i64)> for IntVector {
    fn from(t: (i64, i64)) -> Self {
        Self::new(t.0, t.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        let a = IntVector::new(3, -2);
        let b = IntVector::new(1, 5);
        assert_eq!(a + b, IntVector::new(4, 3));
        assert_eq!(a - b, IntVector::new(2, -7));
        assert_eq!(-a, IntVector::new(-3, 2));
        assert_eq!(a * 2, IntVector::new(6, -4));
        assert_eq!(a.scale(b), IntVector::new(3, -10));
    }

    #[test]
    fn min_max_abs() {
        let a = IntVector::new(3, -2);
        let b = IntVector::new(1, 5);
        assert_eq!(a.min(b), IntVector::new(1, -2));
        assert_eq!(a.max(b), IntVector::new(3, 5));
        assert_eq!(a.abs(), IntVector::new(3, 2));
    }

    #[test]
    fn floor_division_rounds_down_for_negatives() {
        let r = IntVector::uniform(2);
        assert_eq!(IntVector::new(-1, -3).div_floor(r), IntVector::new(-1, -2));
        assert_eq!(IntVector::new(5, 4).div_floor(r), IntVector::new(2, 2));
    }

    #[test]
    fn ceil_division_rounds_up() {
        let r = IntVector::uniform(2);
        assert_eq!(IntVector::new(-1, -3).div_ceil(r), IntVector::new(0, -1));
        assert_eq!(IntVector::new(5, 4).div_ceil(r), IntVector::new(3, 2));
    }

    #[test]
    fn component_access() {
        let mut a = IntVector::new(7, 9);
        assert_eq!(a[0], 7);
        assert_eq!(a[1], 9);
        assert_eq!(a.get(0), 7);
        a[1] = 4;
        assert_eq!(a, IntVector::new(7, 4));
        assert_eq!(a.with(0, 0), IntVector::new(0, 4));
    }

    #[test]
    fn unit_vectors() {
        assert_eq!(IntVector::unit(0), IntVector::new(1, 0));
        assert_eq!(IntVector::unit(1), IntVector::new(0, 1));
    }

    #[test]
    fn comparisons() {
        assert!(IntVector::new(2, 2).all_ge(IntVector::new(2, 1)));
        assert!(!IntVector::new(2, 0).all_ge(IntVector::new(2, 1)));
        assert!(IntVector::new(3, 2).all_gt(IntVector::new(2, 1)));
        assert!(!IntVector::new(2, 2).all_gt(IntVector::new(2, 1)));
    }

    #[test]
    fn product_counts_cells() {
        assert_eq!(IntVector::new(10, 20).product(), 200);
        assert_eq!(IntVector::ZERO.product(), 0);
    }
}
