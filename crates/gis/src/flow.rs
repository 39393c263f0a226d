//! Watershed labeling: TerraFlow step 3, time-forward processing.
//!
//! "Step 3 uses neighbor information to propagate colors from the lowest
//! points up/outward to the peaks and ridges. This step is difficult to
//! parallelize because it uses time-forward processing and relies on
//! ordering for correctness" (Section 4.1).
//!
//! Cells arrive in increasing `(elevation, position)` order. A local
//! minimum (no lower neighbour) opens a new watershed color; every other
//! cell adopts the color of its steepest lower neighbour (its D8 flow
//! direction). A colored cell *forwards* its color to each higher
//! neighbour through the external priority queue, keyed by that
//! neighbour's sort key — time-forward processing.

use crate::cell::CellRec;
use crate::grid::Grid;
use crate::pqueue::ExternalPq;
use lmas_core::functor::{Emit, Functor, FunctorKind};
use lmas_core::{log2_ceil, Packet, Record, Work};

/// A color message: "cell at `sender_pos` has `color`".
#[derive(Debug, Clone, Copy)]
struct ColorMsg {
    sender_x: u16,
    sender_y: u16,
    color: u32,
}

/// Core of the labeling: consumes cells in key order, returns each cell
/// with its watershed color. Shared by the oracle and the functor.
#[derive(Debug)]
pub struct WatershedLabeler {
    pq: ExternalPq<u64, ColorMsg>,
    next_color: u32,
    processed: u64,
    last_key: Option<u64>,
}

impl Default for WatershedLabeler {
    fn default() -> Self {
        Self::new(1 << 16)
    }
}

impl WatershedLabeler {
    /// A labeler whose message queue buffers `pq_buffer` items in memory.
    pub fn new(pq_buffer: usize) -> WatershedLabeler {
        WatershedLabeler {
            pq: ExternalPq::new(pq_buffer),
            next_color: 0,
            processed: 0,
            last_key: None,
        }
    }

    /// Number of distinct watershed colors assigned so far.
    pub fn colors(&self) -> u32 {
        self.next_color
    }

    /// Cells labeled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Current message-queue length (memory accounting).
    pub fn queued_messages(&self) -> usize {
        self.pq.len()
    }

    /// Label one cell. Cells **must** arrive in increasing key order, and
    /// the stream must be one consistent restructured grid: a message
    /// left addressed to a key that never arrived is a panic at the first
    /// cell past it, not a stranded queue.
    pub fn label(&mut self, mut cell: CellRec) -> CellRec {
        let key = cell.key();
        assert!(
            self.last_key.is_none_or(|k| k <= key),
            "cells must arrive in sorted order (time-forward processing)"
        );
        self.last_key = Some(key);
        if let Some(stale) = self.pq.peek_min_key().filter(|&k| k < key) {
            panic!(
                "stale color message keyed {stale:#x} below cell ({},{}) keyed {key:#x}: \
                 its addressee never arrived (input is not one consistent restructured grid)",
                cell.x, cell.y
            );
        }
        // The steepest lower neighbour (the D8 flow direction), whose
        // color this cell adopts; its message was forwarded when it was
        // processed. Every message addressed here is drained, that one
        // is kept.
        let flow_from = cell.flow_direction().map(|fd| {
            let (dx, dy) = crate::grid::NEIGHBOR_OFFSETS[fd];
            ((cell.x as isize + dx) as u16, (cell.y as isize + dy) as u16)
        });
        let mut adopted = None;
        self.pq.pop_all_eq(key, |m| {
            if Some((m.sender_x, m.sender_y)) == flow_from {
                adopted = Some(m.color);
            }
        });
        let color = match flow_from {
            None => {
                // Local minimum: a new watershed springs here.
                let c = self.next_color;
                self.next_color += 1;
                c
            }
            Some((nx, ny)) => adopted.unwrap_or_else(|| {
                panic!(
                    "missing color message from ({nx},{ny}) to ({},{})",
                    cell.x, cell.y
                )
            }),
        };
        cell.color = color;
        // Forward my color to every strictly higher neighbour.
        for i in 0..8 {
            if let Some(nk) = cell.neighbor_key(i) {
                if nk > key {
                    self.pq.push(
                        nk,
                        ColorMsg {
                            sender_x: cell.x,
                            sender_y: cell.y,
                            color,
                        },
                    );
                }
            }
        }
        self.processed += 1;
        cell
    }
}

/// Sequential oracle: restructure + sort + label, all in memory. Returns
/// row-major colors.
pub fn watershed_oracle(grid: &Grid) -> Vec<u32> {
    label_grid(grid, WatershedLabeler::default())
}

fn label_grid(grid: &Grid, mut labeler: WatershedLabeler) -> Vec<u32> {
    let mut cells = crate::cell::restructure(grid);
    cells.sort_by_key(|c| c.key());
    let w = grid.width();
    let mut colors = vec![0u32; grid.len()];
    for cell in cells {
        let labeled = labeler.label(cell);
        colors[labeled.y as usize * w + labeled.x as usize] = labeled.color;
    }
    colors
}

/// The step-3 functor: a host-only stream operator wrapping
/// [`WatershedLabeler`]. Input must be a globally sorted stream of cells;
/// output is the same cells, colored.
pub struct WatershedFunctor {
    labeler: WatershedLabeler,
}

impl WatershedFunctor {
    /// A watershed functor with the given PQ memory budget (items).
    pub fn new(pq_buffer: usize) -> WatershedFunctor {
        WatershedFunctor {
            labeler: WatershedLabeler::new(pq_buffer),
        }
    }

    /// Colors assigned so far.
    pub fn colors(&self) -> u32 {
        self.labeler.colors()
    }
}

impl Functor<CellRec> for WatershedFunctor {
    fn name(&self) -> String {
        "watershed".into()
    }
    fn kind(&self) -> FunctorKind {
        // Time-forward processing holds an input-sized message queue:
        // unbounded per-record state, hence host-only — this is exactly
        // why the paper says step 3 resists ASU offload.
        FunctorKind::HostOnly
    }
    fn process(&mut self, mut input: Packet<CellRec>, out: &mut Emit<CellRec>) {
        for c in input.records_mut() {
            *c = self.labeler.label(*c);
        }
        out.push0(input);
    }
    fn flush(&mut self, _out: &mut Emit<CellRec>) {}
    fn cost(&self, input: &Packet<CellRec>) -> Work {
        // Per cell: 8 neighbour comparisons, a PQ pop/push round at
        // ~log(queue) compares, one record move.
        let n = input.len() as u64;
        let pq_log = log2_ceil(self.labeler.queued_messages().max(2) as u64);
        Work::compares(n * (8 + 2 * pq_log)) + Work::moves(n)
    }
    fn state_bytes(&self) -> usize {
        self.labeler.queued_messages() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{cone_terrain, fractal_terrain, twin_valley_terrain};

    #[test]
    fn cone_is_one_watershed() {
        let g = cone_terrain(17, 17);
        let colors = watershed_oracle(&g);
        assert!(colors.iter().all(|&c| c == colors[0]));
    }

    #[test]
    fn twin_valley_is_two_watersheds() {
        let g = twin_valley_terrain(16, 8);
        let colors = watershed_oracle(&g);
        let mut distinct: Vec<u32> = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 2, "one basin per valley");
        // Left and right edges belong to different basins.
        assert_ne!(colors[0], colors[15]);
    }

    #[test]
    fn fractal_labels_are_complete_and_contiguousish() {
        let g = fractal_terrain(33, 33, 0.55, 3);
        let colors = watershed_oracle(&g);
        assert_eq!(colors.len(), 33 * 33);
        let mut distinct: Vec<u32> = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(!distinct.is_empty());
        // Colors are dense 0..k.
        assert_eq!(distinct, (0..distinct.len() as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn every_cell_shares_color_with_flow_target() {
        // The defining invariant: each non-minimum cell has the color of
        // its flow-direction neighbour.
        let g = fractal_terrain(17, 17, 0.6, 5);
        let colors = watershed_oracle(&g);
        let cells = crate::cell::restructure(&g);
        let w = g.width();
        for c in &cells {
            if let Some(fd) = c.flow_direction() {
                let (dx, dy) = crate::grid::NEIGHBOR_OFFSETS[fd];
                let nx = (c.x as isize + dx) as usize;
                let ny = (c.y as isize + dy) as usize;
                assert_eq!(
                    colors[c.y as usize * w + c.x as usize],
                    colors[ny * w + nx],
                    "cell ({},{}) disagrees with its flow target",
                    c.x,
                    c.y
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "sorted order")]
    fn out_of_order_input_rejected() {
        use crate::cell::{CellRec, NO_NEIGHBOR};
        // Two isolated minima delivered in descending key order.
        let hi = CellRec { x: 0, y: 0, elev: 10, neighbors: [NO_NEIGHBOR; 8], color: 0 };
        let lo = CellRec { x: 1, y: 0, elev: 5, neighbors: [NO_NEIGHBOR; 8], color: 0 };
        let mut labeler = WatershedLabeler::default();
        labeler.label(hi);
        labeler.label(lo);
    }

    #[test]
    #[should_panic(expected = "stale color message keyed 0x700000001")]
    fn message_to_a_cell_that_never_arrives_is_rejected_at_the_next_cell() {
        use crate::cell::{CellRec, NO_NEIGHBOR};
        // (0,0) believes its east neighbour stands at elevation 7 and
        // forwards its color there; the cell that arrives from (1,0)
        // stands at 9, so the message keyed (7, 0, 1) is left behind.
        let mut neighbors = [NO_NEIGHBOR; 8];
        neighbors[2] = 7; // east, per NEIGHBOR_OFFSETS
        let lo = CellRec { x: 0, y: 0, elev: 5, neighbors, color: 0 };
        let hi = CellRec { x: 1, y: 0, elev: 9, neighbors: [NO_NEIGHBOR; 8], color: 0 };
        let mut labeler = WatershedLabeler::default();
        labeler.label(lo);
        labeler.label(hi);
    }

    /// An oracle that shares nothing with [`WatershedLabeler`]: no queue,
    /// no arrival order. Chase `flow_direction` from every cell to the
    /// local minimum it drains into, and number the minima in ascending
    /// key order (the order in which the labeler meets them).
    fn flow_chase_oracle(grid: &Grid) -> Vec<u32> {
        let cells = crate::cell::restructure(grid);
        let w = grid.width();
        let downhill: Vec<Option<usize>> = cells
            .iter()
            .map(|c| {
                c.flow_direction().map(|fd| {
                    let (dx, dy) = crate::grid::NEIGHBOR_OFFSETS[fd];
                    (c.y as isize + dy) as usize * w + (c.x as isize + dx) as usize
                })
            })
            .collect();
        let mut sinks: Vec<usize> = (0..cells.len())
            .filter(|&i| downhill[i].is_none())
            .collect();
        sinks.sort_by_key(|&i| cells[i].key());
        (0..cells.len())
            .map(|mut i| {
                while let Some(next) = downhill[i] {
                    i = next;
                }
                let sink = sinks.iter().position(|&s| s == i);
                sink.expect("chase ends at a sink") as u32
            })
            .collect()
    }

    #[test]
    fn labeler_matches_flow_chase_oracle() {
        let terrains = [
            cone_terrain(17, 17),
            twin_valley_terrain(16, 8),
            fractal_terrain(33, 33, 0.55, 4),
            fractal_terrain(65, 65, 0.55, 6),
        ];
        for g in &terrains {
            let want = flow_chase_oracle(g);
            assert_eq!(watershed_oracle(g), want);
            // A four-item buffer spills on nearly every cell.
            for pq_buffer in [4, 1 << 16] {
                assert_eq!(label_grid(g, WatershedLabeler::new(pq_buffer)), want);
            }
        }
    }

    #[test]
    fn functor_matches_oracle() {
        let g = fractal_terrain(17, 17, 0.5, 8);
        let oracle = watershed_oracle(&g);
        let mut cells = crate::cell::restructure(&g);
        cells.sort_by_key(|c| c.key());
        let mut f = WatershedFunctor::new(64);
        let mut e = Emit::new(1);
        for chunk in cells.chunks(100) {
            f.process(Packet::new(chunk.to_vec()), &mut e);
        }
        let w = g.width();
        for (_, p) in e.take() {
            for c in p.records() {
                assert_eq!(c.color, oracle[c.y as usize * w + c.x as usize]);
            }
        }
    }

    #[test]
    fn labeler_with_tiny_pq_buffer_still_correct() {
        // Forces heavy spilling in the external PQ.
        let g = fractal_terrain(17, 17, 0.5, 9);
        let mut cells = crate::cell::restructure(&g);
        cells.sort_by_key(|c| c.key());
        let mut small = WatershedLabeler::new(4);
        let mut big = WatershedLabeler::new(1 << 20);
        for c in cells {
            assert_eq!(small.label(c).color, big.label(c).color);
        }
        assert_eq!(small.colors(), big.colors());
    }
}
