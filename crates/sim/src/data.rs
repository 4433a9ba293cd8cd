//! Tile residency (MSI-style) and the PCI link model.

use hetchol_core::platform::{MemNode, Platform};
use hetchol_core::task::Tile;
use hetchol_core::time::Time;
use hetchol_core::trace::TransferEvent;

/// Which memory nodes hold a valid copy of each tile.
///
/// The protocol is MSI without the S/E distinction: a completed write
/// leaves exactly one valid copy (at the writer's node); a read replicates
/// the tile to the reader's node without invalidating others.
///
/// Data-oriented layout (DESIGN.md §13): one `u64` validity bitmask per
/// tile in a flat `dim × dim` vector indexed by `row * dim + col`. The
/// scheduler's completion estimator reads this for every (ready task ×
/// memory node) pair, so the lookup must be a load, not a hash — the
/// `HashMap`-keyed predecessor (frozen in `crate::reference`) spent more
/// time hashing tile coordinates than simulating.
#[derive(Clone, Debug)]
pub struct Residency {
    /// Validity bitmask per tile, `1` (host only) initially.
    valid: Vec<u64>,
    /// Tiles per matrix side; the flat index stride.
    dim: u32,
    n_nodes: usize,
}

impl Residency {
    /// All tiles of a `dim × dim`-tile matrix initially resident in host
    /// memory (node 0).
    pub fn new(n_nodes: usize, dim: usize) -> Residency {
        assert!(n_nodes <= 64, "residency bitmask supports up to 64 nodes");
        Residency {
            valid: vec![1; dim * dim],
            dim: dim as u32,
            n_nodes,
        }
    }

    /// Flat index of a tile — usable with the `*_idx` accessors when the
    /// caller has precomputed indices (the engine's access table).
    #[inline]
    pub fn index_of(&self, tile: Tile) -> usize {
        debug_assert!(tile.row < self.dim && tile.col < self.dim);
        (tile.row * self.dim + tile.col) as usize
    }

    /// The raw validity bitmask at a flat index.
    #[inline]
    pub fn mask_at(&self, idx: usize) -> u64 {
        self.valid[idx]
    }

    /// Is the tile at flat index `idx` valid at `node`?
    #[inline]
    pub fn is_valid_idx(&self, idx: usize, node: MemNode) -> bool {
        self.valid[idx] & (1 << node) != 0
    }

    /// A node currently holding the tile at `idx`, preferring the host
    /// (node 0): host-sourced transfers need a single PCI hop.
    #[inline]
    pub fn source_for_idx(&self, idx: usize) -> MemNode {
        let m = self.valid[idx];
        debug_assert!(m != 0, "a tile must be valid somewhere");
        if m & 1 != 0 {
            return 0;
        }
        m.trailing_zeros() as usize
    }

    /// Record that a copy of the tile at `idx` now exists at `node` (read
    /// replication).
    #[inline]
    pub fn add_copy_idx(&mut self, idx: usize, node: MemNode) {
        debug_assert!(node < self.n_nodes);
        self.valid[idx] |= 1 << node;
    }

    /// Record a write at `node`: all other copies become invalid.
    #[inline]
    pub fn write_at_idx(&mut self, idx: usize, node: MemNode) {
        debug_assert!(node < self.n_nodes);
        self.valid[idx] = 1 << node;
    }

    /// Is the tile valid at `node`?
    pub fn is_valid_at(&self, tile: Tile, node: MemNode) -> bool {
        self.is_valid_idx(self.index_of(tile), node)
    }

    /// Tile-keyed [`Residency::source_for_idx`].
    pub fn source_for(&self, tile: Tile) -> MemNode {
        self.source_for_idx(self.index_of(tile))
    }

    /// Tile-keyed [`Residency::add_copy_idx`].
    pub fn add_copy(&mut self, tile: Tile, node: MemNode) {
        self.add_copy_idx(self.index_of(tile), node);
    }

    /// Tile-keyed [`Residency::write_at_idx`].
    pub fn write_at(&mut self, tile: Tile, node: MemNode) {
        self.write_at_idx(self.index_of(tile), node);
    }

    /// Number of memory nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }
}

/// Full-duplex FIFO PCI links: one per non-host memory node, with
/// independent host→device and device→host directions.
#[derive(Clone, Debug)]
pub struct Links {
    /// `to_device[node]` / `from_device[node]`: time the direction frees up.
    to_device: Vec<Time>,
    from_device: Vec<Time>,
    /// Duration of one tile hop, computed once from the platform's
    /// communication model; `None` when the platform has none.
    hop: Option<Time>,
}

impl Links {
    /// Idle links for `platform`'s memory nodes (entry 0 is unused padding
    /// so the vectors index by node).
    pub fn new(platform: &Platform) -> Links {
        Links {
            to_device: vec![Time::ZERO; platform.n_nodes()],
            from_device: vec![Time::ZERO; platform.n_nodes()],
            hop: one_hop(platform),
        }
    }

    /// The contention-free duration of one tile hop between the host and
    /// a device, or `None` on a communication-free platform (where
    /// transfers are instantaneous and never logged).
    #[inline]
    pub(crate) fn hop(&self) -> Option<Time> {
        self.hop
    }

    /// Reserve the link(s) to move one tile from `from` to `to`, not
    /// starting before `earliest`. Returns the transfer completion time and
    /// appends the hop(s) to `log`. Device-to-device goes through the host
    /// (two serialized hops), as on the paper's PCI topology.
    pub fn transfer(
        &mut self,
        tile: Tile,
        from: MemNode,
        to: MemNode,
        earliest: Time,
        log: &mut Vec<TransferEvent>,
    ) -> Time {
        debug_assert_ne!(from, to, "no transfer needed within a node");
        let Some(dur) = self.hop else {
            // Communication-free platform: transfers are instantaneous.
            return earliest;
        };
        match (from, to) {
            (0, dev) => {
                let start = earliest.max(self.to_device[dev]);
                let end = start + dur;
                self.to_device[dev] = end;
                log.push(TransferEvent {
                    tile,
                    from,
                    to,
                    start,
                    end,
                });
                end
            }
            (dev, 0) => {
                let start = earliest.max(self.from_device[dev]);
                let end = start + dur;
                self.from_device[dev] = end;
                log.push(TransferEvent {
                    tile,
                    from,
                    to,
                    start,
                    end,
                });
                end
            }
            (src, dst) => {
                let via_host = self.transfer(tile, src, 0, earliest, log);
                self.transfer(tile, 0, dst, via_host, log)
            }
        }
    }

    /// Contention-free estimate of moving one tile from `from` to `to`
    /// (used by `dmda`'s completion-time heuristic).
    pub fn estimate(platform: &Platform, from: MemNode, to: MemNode) -> Time {
        if from == to {
            return Time::ZERO;
        }
        let Some(one) = one_hop(platform) else {
            return Time::ZERO;
        };
        if from == 0 || to == 0 {
            one
        } else {
            one * 2
        }
    }
}

/// Duration of one tile hop under `platform`'s communication model, if
/// it has one.
fn one_hop(platform: &Platform) -> Option<Time> {
    platform
        .comm()
        .map(|comm| comm.transfer_time(tile_bytes_for(platform)))
}

/// Tile footprint on this platform's matrices. The simulator works at the
/// paper's fixed tile size; making it a platform-level constant keeps the
/// link model independent of the profile plumbing.
fn tile_bytes_for(_platform: &Platform) -> usize {
    hetchol_core::profiles::PAPER_TILE_SIZE * hetchol_core::profiles::PAPER_TILE_SIZE * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_starts_at_host() {
        let r = Residency::new(4, 8);
        let t = Tile::new(3, 1);
        assert!(r.is_valid_at(t, 0));
        assert!(!r.is_valid_at(t, 2));
        assert_eq!(r.source_for(t), 0);
    }

    #[test]
    fn read_replicates_write_invalidates() {
        let mut r = Residency::new(4, 8);
        let t = Tile::new(2, 2);
        r.add_copy(t, 2);
        assert!(r.is_valid_at(t, 0));
        assert!(r.is_valid_at(t, 2));
        // Host preferred as source even with a device copy.
        assert_eq!(r.source_for(t), 0);
        r.write_at(t, 3);
        assert!(!r.is_valid_at(t, 0));
        assert!(!r.is_valid_at(t, 2));
        assert!(r.is_valid_at(t, 3));
        assert_eq!(r.source_for(t), 3);
    }

    #[test]
    fn link_fifo_serialises_same_direction() {
        let platform = Platform::mirage();
        let mut links = Links::new(&platform);
        let mut log = Vec::new();
        let t1 = Tile::new(1, 0);
        let t2 = Tile::new(2, 0);
        let e1 = links.transfer(t1, 0, 1, Time::ZERO, &mut log);
        let e2 = links.transfer(t2, 0, 1, Time::ZERO, &mut log);
        assert!(e2 >= e1 * 2 / 1, "second transfer queues behind the first");
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].start, e1);
    }

    #[test]
    fn opposite_directions_independent() {
        let platform = Platform::mirage();
        let mut links = Links::new(&platform);
        let mut log = Vec::new();
        let up = links.transfer(Tile::new(1, 0), 0, 1, Time::ZERO, &mut log);
        let down = links.transfer(Tile::new(2, 0), 1, 0, Time::ZERO, &mut log);
        // Full duplex: both start at 0 and take the same time.
        assert_eq!(up, down);
    }

    #[test]
    fn different_devices_independent() {
        let platform = Platform::mirage();
        let mut links = Links::new(&platform);
        let mut log = Vec::new();
        let a = links.transfer(Tile::new(1, 0), 0, 1, Time::ZERO, &mut log);
        let b = links.transfer(Tile::new(2, 0), 0, 2, Time::ZERO, &mut log);
        assert_eq!(a, b, "distinct PCI links do not contend");
    }

    #[test]
    fn device_to_device_via_host() {
        let platform = Platform::mirage();
        let mut links = Links::new(&platform);
        let mut log = Vec::new();
        let end = links.transfer(Tile::new(1, 0), 1, 2, Time::ZERO, &mut log);
        assert_eq!(log.len(), 2, "two hops");
        assert_eq!(log[0].to, 0);
        assert_eq!(log[1].from, 0);
        assert_eq!(log[1].end, end);
        assert!(log[1].start >= log[0].end);
    }

    #[test]
    fn comm_free_platform_transfers_instantly() {
        let platform = Platform::mirage().without_comm();
        let mut links = Links::new(&platform);
        let mut log = Vec::new();
        let end = links.transfer(Tile::new(1, 0), 0, 1, Time::from_millis(5), &mut log);
        assert_eq!(end, Time::from_millis(5));
        assert!(log.is_empty());
        assert_eq!(Links::estimate(&platform, 0, 1), Time::ZERO);
    }

    #[test]
    fn estimates_match_single_and_double_hop() {
        let platform = Platform::mirage();
        let one = Links::estimate(&platform, 0, 1);
        let two = Links::estimate(&platform, 1, 2);
        assert_eq!(two, one * 2);
        assert_eq!(Links::estimate(&platform, 1, 1), Time::ZERO);
        // ~0.93 ms for a 7.37 MB tile at 8 GB/s + 10 us.
        assert!((one.as_millis_f64() - 0.9316).abs() < 0.01, "{one}");
    }

    #[test]
    fn hop_is_the_single_hop_estimate() {
        let platform = Platform::mirage();
        let mut links = Links::new(&platform);
        assert_eq!(links.hop(), Some(Links::estimate(&platform, 0, 1)));
        let mut log = Vec::new();
        let end = links.transfer(Tile::new(1, 0), 0, 3, Time::ZERO, &mut log);
        assert_eq!(Some(end), links.hop());
        assert_eq!(Links::new(&platform.without_comm()).hop(), None);
    }
}
