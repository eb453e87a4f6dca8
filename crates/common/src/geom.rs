//! Grid geometry: node coordinates and array shape.

use std::fmt;

use crate::json::ToJson;

/// A position on the ALU array: `(row, col)`.
///
/// Row 0 is the top edge (adjacent to the register-file banks in the TRIPS
/// floorplan); column 0 is the left edge (adjacent to the memory interface:
/// L1 banks and SMC row channels).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Coord {
    /// Row index, 0 at the top (register-file edge).
    pub row: u8,
    /// Column index, 0 at the left (memory-interface edge).
    pub col: u8,
}

impl Coord {
    /// Create a coordinate.
    #[must_use]
    pub const fn new(row: u8, col: u8) -> Self {
        Coord { row, col }
    }

    /// Manhattan distance to another coordinate, in hops.
    #[must_use]
    pub const fn manhattan(self, other: Coord) -> u32 {
        self.row.abs_diff(other.row) as u32 + self.col.abs_diff(other.col) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// The shape of the ALU array.
///
/// The paper's baseline is an 8×8 mesh ([`GridShape::trips_baseline`]), but
/// the mechanisms are array-size agnostic and the simulator accepts any
/// shape, which the X5 array-scaling study (`dlp_bench::studies`) exploits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, ToJson)]
pub struct GridShape {
    rows: u8,
    cols: u8,
}

impl GridShape {
    /// Create a grid shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: u8, cols: u8) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be nonzero");
        GridShape { rows, cols }
    }

    /// The paper's baseline 8×8 array (§5.2).
    #[must_use]
    pub fn trips_baseline() -> Self {
        GridShape::new(8, 8)
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(self) -> u8 {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(self) -> u8 {
        self.cols
    }

    /// Total node count.
    #[must_use]
    pub const fn nodes(self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Whether `c` lies inside the grid.
    #[must_use]
    pub const fn contains(self, c: Coord) -> bool {
        c.row < self.rows && c.col < self.cols
    }

    /// Linearize a coordinate to an index in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the grid.
    #[must_use]
    pub fn index(self, c: Coord) -> usize {
        assert!(self.contains(c), "coordinate {c} outside {self:?}");
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// Inverse of [`GridShape::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.nodes()`.
    #[must_use]
    pub fn coord(self, idx: usize) -> Coord {
        assert!(idx < self.nodes(), "index {idx} outside {self:?}");
        Coord::new((idx / self.cols as usize) as u8, (idx % self.cols as usize) as u8)
    }

    /// Manhattan distance between two in-grid coordinates, in hops.
    #[must_use]
    pub fn manhattan(self, a: Coord, b: Coord) -> u32 {
        a.manhattan(b)
    }

    /// Iterate over all coordinates in row-major order.
    pub fn iter(self) -> impl Iterator<Item = Coord> {
        (0..self.nodes()).map(move |i| self.coord(i))
    }
}

impl Default for GridShape {
    fn default() -> Self {
        GridShape::trips_baseline()
    }
}

impl fmt::Display for GridShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn index_roundtrip() {
        let g = GridShape::new(8, 8);
        for i in 0..g.nodes() {
            assert_eq!(g.index(g.coord(i)), i);
        }
    }

    #[test]
    fn iteration_is_row_major() {
        let g = GridShape::new(2, 3);
        let coords: Vec<_> = g.iter().collect();
        assert_eq!(
            coords,
            vec![
                Coord::new(0, 0),
                Coord::new(0, 1),
                Coord::new(0, 2),
                Coord::new(1, 0),
                Coord::new(1, 1),
                Coord::new(1, 2),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn index_out_of_bounds_panics() {
        let _ = GridShape::new(2, 2).index(Coord::new(2, 0));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_shape_panics() {
        let _ = GridShape::new(0, 4);
    }

    proptest! {
        #[test]
        fn manhattan_is_symmetric(a in 0u8..8, b in 0u8..8, c in 0u8..8, d in 0u8..8) {
            let p = Coord::new(a, b);
            let q = Coord::new(c, d);
            prop_assert_eq!(p.manhattan(q), q.manhattan(p));
        }

        #[test]
        fn manhattan_triangle_inequality(
            a in 0u8..8, b in 0u8..8, c in 0u8..8,
            d in 0u8..8, e in 0u8..8, f in 0u8..8,
        ) {
            let p = Coord::new(a, b);
            let q = Coord::new(c, d);
            let r = Coord::new(e, f);
            prop_assert!(p.manhattan(r) <= p.manhattan(q) + q.manhattan(r));
        }
    }
}
