//! Uniform spatial hash over the simulation plane.
//!
//! The grid divides the area into square cells whose side equals the
//! radio range, so every node within range of a query point lives in
//! the 3×3 block of cells around it (plus a configurable slack ring
//! when bucketed positions may be stale). Range queries therefore cost
//! O(neighbors) — the density contract the `complexity` lint leans on:
//! with cell side = radio range and bounded node density, a cell block
//! holds a bounded multiple of the true neighbor count. A query returns
//! that superset unsorted, in bucket order; the caller filters it by
//! distance and orders what it keeps.
//!
//! Re-bucketing is incremental: [`SpatialGrid::update`] moves a node
//! between buckets only when its cell actually changed, so a mobility
//! refresh is O(bucket occupancy), not O(n).

use crate::mobility::Position;

/// Sentinel for "not inserted".
const ABSENT: u32 = u32::MAX;

/// A uniform spatial hash mapping node indices to grid cells.
///
/// # Examples
///
/// ```
/// use mccls_sim::{Position, SpatialGrid};
///
/// let mut grid = SpatialGrid::new(1500.0, 300.0, 370.0);
/// grid.update(0, Position { x: 10.0, y: 10.0 });
/// grid.update(1, Position { x: 40.0, y: 20.0 });
/// grid.update(2, Position { x: 1490.0, y: 290.0 });
///
/// let mut out = Vec::new();
/// grid.candidates_into(Position { x: 0.0, y: 0.0 }, 0, &mut out);
/// assert!(out.contains(&0) && out.contains(&1) && !out.contains(&2));
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell side length, metres (= radio range).
    cell: f64,
    /// Number of cell columns.
    cols: usize,
    /// Number of cell rows.
    rows: usize,
    /// Node indices per cell, unordered within a bucket.
    buckets: Vec<Vec<u32>>,
    /// Per node: index of the bucket currently holding it.
    homes: Vec<u32>,
}

impl SpatialGrid {
    /// Builds an empty grid covering `width × height` metres with
    /// square cells of side `cell` (the radio range).
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite dimensions.
    pub fn new(width: f64, height: f64, cell: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "invalid width");
        assert!(height > 0.0 && height.is_finite(), "invalid height");
        assert!(cell > 0.0 && cell.is_finite(), "invalid cell size");
        let cols = ((width / cell).ceil() as usize).max(1);
        let rows = ((height / cell).ceil() as usize).max(1);
        Self {
            cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            homes: Vec::new(),
        }
    }

    /// The `(column, row)` of the cell covering `pos` (clamped to the
    /// grid edges, so off-area positions map to the nearest border cell).
    fn cell_of(&self, pos: Position) -> (usize, usize) {
        let cx = ((pos.x / self.cell).floor().max(0.0) as usize).min(self.cols - 1);
        let cy = ((pos.y / self.cell).floor().max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// The bucket index covering `pos`.
    fn bucket_of(&self, pos: Position) -> u32 {
        let (cx, cy) = self.cell_of(pos);
        (cy * self.cols + cx) as u32
    }

    /// Places or moves `node` to the cell covering `pos`. Returns true
    /// when the node changed cells (or was newly inserted); re-bucketing
    /// is skipped entirely when the cell is unchanged.
    // complexity: const
    pub fn update(&mut self, node: usize, pos: Position) -> bool {
        if node >= self.homes.len() {
            self.homes.resize(node + 1, ABSENT);
        }
        let new_home = self.bucket_of(pos);
        let old_home = self.homes[node];
        if old_home == new_home {
            return false;
        }
        if old_home != ABSENT {
            self.evict(node, old_home);
        }
        self.buckets[new_home as usize].push(node as u32);
        self.homes[node] = new_home;
        true
    }

    fn evict(&mut self, node: usize, home: u32) {
        let bucket = &mut self.buckets[home as usize];
        // complexity-ok: bucket occupancy is density-bounded (cell side = radio range)
        if let Some(i) = bucket.iter().position(|&n| n == node as u32) {
            bucket.swap_remove(i);
        }
    }

    /// Appends to `out` every node bucketed within `1 + slack` cells
    /// (Chebyshev) of the cell covering `pos` — a superset of the nodes
    /// within radio range, provided no bucketed position is stale by
    /// more than `slack` cell widths. Candidates arrive in bucket order,
    /// which depends on the update history: a caller that needs a
    /// deterministic order sorts what it keeps.
    pub fn candidates_into(&self, pos: Position, slack: usize, out: &mut Vec<u32>) {
        let (cx, cy) = self.cell_of(pos);
        let reach = 1 + slack;
        let x0 = cx.saturating_sub(reach);
        let x1 = (cx + reach).min(self.cols - 1);
        let y0 = cy.saturating_sub(reach);
        let y1 = (cy + reach).min(self.rows - 1);
        // complexity-ok: cell block is (3 + 2*slack)^2 cells, constant by the density contract
        for gy in y0..=y1 {
            // complexity-ok: inner axis of the constant cell block
            for gx in x0..=x1 {
                out.extend_from_slice(&self.buckets[gy * self.cols + gx]);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn pos(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    #[test]
    fn inserted_node_is_a_candidate_of_its_cell() {
        let mut g = SpatialGrid::new(1000.0, 1000.0, 100.0);
        assert!(g.update(7, pos(50.0, 50.0)));
        let mut out = Vec::new();
        g.candidates_into(pos(60.0, 60.0), 0, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn update_same_cell_is_a_no_op() {
        let mut g = SpatialGrid::new(1000.0, 1000.0, 100.0);
        assert!(g.update(3, pos(10.0, 10.0)));
        assert!(!g.update(3, pos(90.0, 90.0)), "same cell, no re-bucket");
        assert!(g.update(3, pos(110.0, 10.0)), "crossed a cell border");
        let mut out = Vec::new();
        g.candidates_into(pos(10.0, 10.0), 0, &mut out);
        assert_eq!(out, vec![3], "still adjacent after the move");
    }

    #[test]
    fn all_in_range_nodes_are_candidates() {
        // Exhaustive check against a linear scan: every node within
        // `cell` metres of the query point must appear as a candidate.
        let mut g = SpatialGrid::new(1500.0, 300.0, 370.0);
        let mut nodes = Vec::new();
        let mut x = 7.0_f64;
        let mut y = 13.0_f64;
        for i in 0..200 {
            // Cheap deterministic scatter (no RNG needed).
            x = (x * 31.0 + 17.0) % 1500.0;
            y = (y * 29.0 + 11.0) % 300.0;
            g.update(i, pos(x, y));
            nodes.push(pos(x, y));
        }
        let q = pos(750.0, 150.0);
        let mut out = Vec::new();
        g.candidates_into(q, 0, &mut out);
        for (i, p) in nodes.iter().enumerate() {
            if p.distance(&q) <= 370.0 {
                assert!(out.contains(&(i as u32)), "node {i} in range but missed");
            }
        }
    }

    #[test]
    fn slack_widens_the_block() {
        let mut g = SpatialGrid::new(1000.0, 100.0, 100.0);
        g.update(0, pos(250.0, 50.0)); // two cells from the query cell
        let mut tight = Vec::new();
        g.candidates_into(pos(50.0, 50.0), 0, &mut tight);
        assert!(tight.is_empty());
        let mut wide = Vec::new();
        g.candidates_into(pos(50.0, 50.0), 1, &mut wide);
        assert_eq!(wide, vec![0]);
    }

    #[test]
    fn candidates_hold_each_node_once_regardless_of_bucket_history() {
        let mut g = SpatialGrid::new(200.0, 200.0, 100.0);
        // Insert out of order and churn the bucket so swap_remove
        // scrambles its internal ordering.
        g.update(9, pos(10.0, 10.0));
        g.update(2, pos(20.0, 10.0));
        g.update(5, pos(30.0, 10.0));
        g.update(2, pos(110.0, 10.0)); // leave...
        g.update(2, pos(20.0, 10.0)); // ...and come back
        let mut out = Vec::new();
        g.candidates_into(pos(15.0, 15.0), 0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![2, 5, 9]);
    }

    #[test]
    fn off_area_positions_clamp_to_border_cells() {
        let mut g = SpatialGrid::new(100.0, 100.0, 100.0);
        g.update(0, pos(150.0, -20.0)); // outside: clamps to the lone cell
        let mut out = Vec::new();
        g.candidates_into(pos(50.0, 50.0), 0, &mut out);
        assert_eq!(out, vec![0]);
    }
}
