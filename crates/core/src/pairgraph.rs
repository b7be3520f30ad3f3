//! The pair graph and its one transform-lifetime rule (§IV-A, §IV-B).
//!
//! Every variant that caches forward transforms follows the same policy:
//! a tile's transform is freed "as soon as the relative displacements of
//! its eastern, southern, western, and northern neighbors were computed"
//! (§IV-A), and the bookkeeping stage of §IV-B is that rule plus "emit a
//! pair when both transforms exist". [`PairLedger`] is that policy,
//! stated once; a variant only decides *how* the emitted pairs execute:
//!
//! * a tile's reference count is the number of pairs it participates in
//!   that this ledger owns and whose other endpoint has not failed;
//! * a pair is emitted at the arrival of its second endpoint and both
//!   endpoints' counts drop **at emit** — the callback must take whatever
//!   it needs from the payloads (cloning shared handles if the work
//!   outlives the call);
//! * a failed tile writes its pairs off, releasing neighbors stranded by
//!   it;
//! * the payload (transform, pixels, pool permit) is dropped at count
//!   zero;
//! * the live peak is measured right after each arrival, before that
//!   arrival's pairs complete — both endpoints are resident while their
//!   pair computes.

use crate::grid::GridShape;
use crate::types::{PairKind, TileId};

enum Slot<T> {
    /// Neither arrived nor failed yet.
    Pending,
    /// Resident, with `remaining` owned pairs still to emit or write off.
    Live {
        payload: T,
        remaining: usize,
    },
    /// Arrived, and every owned pair is emitted or written off.
    Released,
    Failed,
}

/// Dependency state of one traversal of the pair graph: which tiles are
/// resident, how many pairs each still owes, and when to let go.
pub struct PairLedger<T> {
    shape: GridShape,
    /// `owned[index(b)]`: this ledger computes the pairs whose second
    /// (east or south) tile is `b`.
    owned: Vec<bool>,
    slots: Vec<Slot<T>>,
    /// Tiles this ledger still expects to arrive or fail.
    awaited: usize,
    live: usize,
    peak: usize,
}

impl<T> PairLedger<T> {
    /// A ledger over every pair of `shape`.
    pub fn new(shape: GridShape) -> PairLedger<T> {
        PairLedger::with_owner(shape, |_| true)
    }

    /// A ledger over the pairs whose second tile `b` satisfies
    /// `owns(b)` — one column band of a multi-GPU run. It expects the
    /// owned tiles plus every first tile of an owned pair (the band's
    /// ghost column).
    pub fn with_owner(shape: GridShape, owns: impl Fn(TileId) -> bool) -> PairLedger<T> {
        let owned: Vec<bool> = shape.ids().map(owns).collect();
        let awaited = shape
            .ids()
            .filter(|&id| {
                owned[shape.index(id)] || shape.pairs_of(id).any(|(_, b, _)| owned[shape.index(b)])
            })
            .count();
        PairLedger {
            shape,
            owned,
            slots: (0..shape.tiles()).map(|_| Slot::Pending).collect(),
            awaited,
            live: 0,
            peak: 0,
        }
    }

    /// Tile `id`'s transform exists. Calls `ready(a, b, kind, slot)` once
    /// for every owned pair this arrival completes — `a` the west or
    /// north tile's payload, `b` the other's, `slot` the index of `b`
    /// (where [`StitchResult::set`](crate::StitchResult::set) stores the
    /// displacement) — in west, north, east, south order, and drops each
    /// endpoint's payload once its last pair is out. Panics if `id`
    /// already arrived or failed.
    pub fn arrive(
        &mut self,
        id: TileId,
        payload: T,
        mut ready: impl FnMut(&T, &T, PairKind, usize),
    ) {
        let i = self.shape.index(id);
        assert!(
            matches!(self.slots[i], Slot::Pending),
            "tile {id} arrived twice"
        );
        let claims = self.claims(id);
        let remaining = claims
            .iter()
            .flatten()
            .filter(|&&(ia, ib, _)| {
                let other = if ia == i { ib } else { ia };
                !matches!(self.slots[other], Slot::Failed)
            })
            .count();
        self.slots[i] = Slot::Live { payload, remaining };
        self.awaited -= 1;
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if remaining == 0 {
            self.release(i);
            return;
        }
        for (ia, ib, kind) in claims.into_iter().flatten() {
            if let (Slot::Live { payload: pa, .. }, Slot::Live { payload: pb, .. }) =
                (&self.slots[ia], &self.slots[ib])
            {
                ready(pa, pb, kind, ib);
                self.settle(ia);
                self.settle(ib);
            }
        }
    }

    /// Tile `id` will never arrive: its pairs are written off and
    /// resident neighbors waiting only on it are released. Panics if
    /// `id` already arrived or failed.
    pub fn fail(&mut self, id: TileId) {
        let i = self.shape.index(id);
        assert!(
            matches!(self.slots[i], Slot::Pending),
            "tile {id} failed after it arrived or failed"
        );
        self.slots[i] = Slot::Failed;
        self.awaited -= 1;
        for (ia, ib, _) in self.claims(id).into_iter().flatten() {
            self.settle(if ia == i { ib } else { ia });
        }
    }

    /// Payloads held right now.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most payloads ever held at once.
    pub fn peak_live(&self) -> usize {
        self.peak
    }

    /// True once every expected tile has arrived or failed — by then
    /// every owned pair is emitted or written off and nothing is held.
    pub fn is_drained(&self) -> bool {
        self.awaited == 0 && self.live == 0
    }

    /// The owned pairs of `id` as `(index(a), index(b), kind)`, by value
    /// so callers may mutate the ledger while walking them.
    fn claims(&self, id: TileId) -> [Option<(usize, usize, PairKind)>; 4] {
        let mut out = [None; 4];
        for (claim, (a, b, kind)) in out.iter_mut().zip(self.shape.pairs_of(id)) {
            let ib = self.shape.index(b);
            if self.owned[ib] {
                *claim = Some((self.shape.index(a), ib, kind));
            }
        }
        out
    }

    /// One pair of tile `i` was emitted or written off.
    fn settle(&mut self, i: usize) {
        if let Slot::Live { remaining, .. } = &mut self.slots[i] {
            *remaining -= 1;
            if *remaining == 0 {
                self.release(i);
            }
        }
    }

    fn release(&mut self, i: usize) {
        self.slots[i] = Slot::Released; // drops the payload
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(ledger: &mut PairLedger<TileId>, order: &[TileId]) -> Vec<(TileId, TileId, PairKind)> {
        let mut out = Vec::new();
        for &id in order {
            ledger.arrive(id, id, |a, b, kind, _| out.push((*a, *b, kind)));
        }
        out
    }

    #[test]
    fn emits_canonical_pairs_and_drains() {
        let shape = GridShape::new(2, 2);
        let mut ledger = PairLedger::new(shape);
        let mut order: Vec<TileId> = shape.ids().collect();
        order.reverse();
        let pairs = walk(&mut ledger, &order);
        let t = TileId::new;
        assert_eq!(
            pairs,
            vec![
                (t(1, 0), t(1, 1), PairKind::West),
                (t(0, 1), t(1, 1), PairKind::North),
                (t(0, 0), t(0, 1), PairKind::West),
                (t(0, 0), t(1, 0), PairKind::North),
            ]
        );
        assert!(ledger.is_drained());
        assert_eq!(ledger.peak_live(), 3);
    }

    #[test]
    fn failure_releases_stranded_neighbors() {
        // 1×3: the middle tile fails after the left one arrived
        let shape = GridShape::new(1, 3);
        let mut ledger: PairLedger<()> = PairLedger::new(shape);
        ledger.arrive(TileId::new(0, 0), (), |_, _, _, _| panic!("no pair"));
        assert_eq!(ledger.live(), 1);
        ledger.fail(TileId::new(0, 1));
        assert_eq!(ledger.live(), 0, "left tile waited only on the failed one");
        assert!(!ledger.is_drained(), "right tile still expected");
        // every pair of the right tile is already void: never retained
        ledger.arrive(TileId::new(0, 2), (), |_, _, _, _| panic!("no pair"));
        assert_eq!(ledger.live(), 0);
        assert!(ledger.is_drained());
    }

    #[test]
    fn band_owner_expects_its_ghost_column() {
        // 2×4 split after column 1: the east band owns columns 2..4 and
        // must also see column 1 (first tile of its boundary west pairs)
        let shape = GridShape::new(2, 4);
        let mut east: PairLedger<TileId> = PairLedger::with_owner(shape, |b| b.col >= 2);
        let order: Vec<TileId> = shape.ids().filter(|id| id.col >= 1).collect();
        let pairs = walk(&mut east, &order);
        assert!(east.is_drained());
        // 2 rows × 2 west pairs + 2 north pairs in owned columns
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|(_, b, _)| b.col >= 2));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut ledger: PairLedger<()> = PairLedger::new(GridShape::new(1, 2));
        ledger.arrive(TileId::new(0, 0), (), |_, _, _, _| {});
        ledger.arrive(TileId::new(0, 0), (), |_, _, _, _| {});
    }
}
