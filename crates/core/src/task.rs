//! Tasks, tiles and data accesses.
//!
//! A task is one call to one tile kernel on specific tiles of the matrix;
//! its data accesses (which tiles it reads and writes) are what the DAG
//! builder and the simulator's data-transfer model both consume.

use crate::kernel::Kernel;
use std::fmt;

/// Dense identifier of a task inside one [`crate::dag::TaskGraph`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The dense index, for direct vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A tile `(row, col)` of the lower triangle of the tiled matrix
/// (`row ≥ col`).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tile {
    /// Tile row index.
    pub row: u32,
    /// Tile column index (`col ≤ row` for the lower triangle).
    pub col: u32,
}

impl Tile {
    /// Construct a tile coordinate.
    #[inline]
    pub const fn new(row: u32, col: u32) -> Tile {
        Tile { row, col }
    }

    /// `true` iff this is a diagonal tile.
    #[inline]
    pub const fn is_diagonal(self) -> bool {
        self.row == self.col
    }

    /// Dense index of a lower-triangular tile in row-major packed layout,
    /// i.e. `row (row + 1) / 2 + col`. Only valid for `col ≤ row`.
    #[inline]
    pub const fn packed_index(self) -> usize {
        let r = self.row as usize;
        r * (r + 1) / 2 + self.col as usize
    }

    /// Number of lower-triangular tiles of an `n × n`-tile matrix.
    #[inline]
    pub const fn packed_count(n: usize) -> usize {
        n * (n + 1) / 2
    }
}

impl fmt::Display for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A[{}][{}]", self.row, self.col)
    }
}

/// How a task touches a tile.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessMode {
    /// Read-only access.
    Read,
    /// Read-modify-write access (all writes in tiled Cholesky also read,
    /// except POTRF/TRSM outputs which overwrite in place; modelling them
    /// all as RW is what StarPU's Cholesky codelet does too).
    ReadWrite,
}

impl AccessMode {
    /// `true` for any mode that writes.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessMode::ReadWrite)
    }
}

/// One data access of a task.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// Which tile is accessed.
    pub tile: Tile,
    /// In which mode.
    pub mode: AccessMode,
}

/// The algorithmic coordinates of a task in one of the supported tiled
/// factorizations: Cholesky (Algorithm 1 of the paper), LU without
/// pivoting, or QR (the `Lu*`/`Qr*`-prefixed variants are the extension
/// described in DESIGN.md §9).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TaskCoords {
    /// `POTRF(k)`: factor diagonal tile `A[k][k]`.
    Potrf {
        /// Elimination step.
        k: u32,
    },
    /// `TRSM(i, k)`: triangular solve on `A[i][k]` using `A[k][k]`, `i > k`.
    Trsm {
        /// Elimination step.
        k: u32,
        /// Panel row, `i > k`.
        i: u32,
    },
    /// `SYRK(j, k)`: rank-`nb` update of `A[j][j]` using `A[j][k]`, `j > k`.
    Syrk {
        /// Elimination step.
        k: u32,
        /// Updated diagonal row, `j > k`.
        j: u32,
    },
    /// `GEMM(i, j, k)`: update `A[i][j] -= A[i][k]·A[j][k]ᵀ`, `i > j > k`.
    Gemm {
        /// Elimination step.
        k: u32,
        /// Updated tile row, `i > j`.
        i: u32,
        /// Updated tile column, `j > k`.
        j: u32,
    },
    /// `GETRF(k)`: LU-factor diagonal tile `A[k][k]` (no pivoting).
    Getrf {
        /// Elimination step.
        k: u32,
    },
    /// `LuTrsmRow(k, j)`: left unit-lower solve on row tile `A[k][j]`,
    /// `j > k`.
    LuTrsmRow {
        /// Elimination step.
        k: u32,
        /// Row-panel column, `j > k`.
        j: u32,
    },
    /// `LuTrsmCol(k, i)`: right upper solve on column tile `A[i][k]`,
    /// `i > k`.
    LuTrsmCol {
        /// Elimination step.
        k: u32,
        /// Column-panel row, `i > k`.
        i: u32,
    },
    /// `LuGemm(i, j, k)`: update `A[i][j] -= A[i][k]·A[k][j]`,
    /// `i > k`, `j > k`.
    LuGemm {
        /// Elimination step.
        k: u32,
        /// Updated tile row, `i > k`.
        i: u32,
        /// Updated tile column, `j > k`.
        j: u32,
    },
    /// `GEQRT(k)`: QR-factor diagonal tile `A[k][k]` (stores V and T in
    /// place).
    Geqrt {
        /// Elimination step.
        k: u32,
    },
    /// `TSQRT(k, i)`: QR of the triangle `A[k][k]` stacked on `A[i][k]`,
    /// `i > k`; updates both tiles.
    Tsqrt {
        /// Elimination step.
        k: u32,
        /// Stacked tile row, `i > k`.
        i: u32,
    },
    /// `ORMQR(k, j)`: apply the GEQRT(k) reflectors to `A[k][j]`, `j > k`.
    Ormqr {
        /// Elimination step.
        k: u32,
        /// Updated column, `j > k`.
        j: u32,
    },
    /// `TSMQR(k, i, j)`: apply the TSQRT(k, i) reflectors to the stacked
    /// pair `A[k][j]` / `A[i][j]`; updates both.
    Tsmqr {
        /// Elimination step.
        k: u32,
        /// Stacked tile row, `i > k`.
        i: u32,
        /// Updated column, `j > k`.
        j: u32,
    },
}

impl TaskCoords {
    /// The kernel this task invokes.
    #[inline]
    pub const fn kernel(self) -> Kernel {
        match self {
            TaskCoords::Potrf { .. } => Kernel::Potrf,
            TaskCoords::Trsm { .. }
            | TaskCoords::LuTrsmRow { .. }
            | TaskCoords::LuTrsmCol { .. } => Kernel::Trsm,
            TaskCoords::Syrk { .. } => Kernel::Syrk,
            TaskCoords::Gemm { .. } | TaskCoords::LuGemm { .. } => Kernel::Gemm,
            TaskCoords::Getrf { .. } => Kernel::Getrf,
            TaskCoords::Geqrt { .. } => Kernel::Geqrt,
            TaskCoords::Tsqrt { .. } => Kernel::Tsqrt,
            TaskCoords::Ormqr { .. } => Kernel::Ormqr,
            TaskCoords::Tsmqr { .. } => Kernel::Tsmqr,
        }
    }

    /// Elimination step `k` of the task.
    #[inline]
    pub const fn step(self) -> u32 {
        match self {
            TaskCoords::Potrf { k }
            | TaskCoords::Trsm { k, .. }
            | TaskCoords::Syrk { k, .. }
            | TaskCoords::Gemm { k, .. }
            | TaskCoords::Getrf { k }
            | TaskCoords::LuTrsmRow { k, .. }
            | TaskCoords::LuTrsmCol { k, .. }
            | TaskCoords::LuGemm { k, .. }
            | TaskCoords::Geqrt { k }
            | TaskCoords::Tsqrt { k, .. }
            | TaskCoords::Ormqr { k, .. }
            | TaskCoords::Tsmqr { k, .. } => k,
        }
    }

    /// The task's *primary* output tile (the tile its name points at).
    /// Every Cholesky and LU task writes exactly one tile; the QR kernels
    /// TSQRT and TSMQR write a second tile — consult
    /// [`TaskCoords::accesses`] for the complete write set.
    #[inline]
    pub const fn output_tile(self) -> Tile {
        match self {
            TaskCoords::Potrf { k } | TaskCoords::Getrf { k } | TaskCoords::Geqrt { k } => {
                Tile::new(k, k)
            }
            TaskCoords::Trsm { k, i } | TaskCoords::LuTrsmCol { k, i } => Tile::new(i, k),
            TaskCoords::Syrk { j, .. } => Tile::new(j, j),
            TaskCoords::Gemm { i, j, .. } | TaskCoords::LuGemm { i, j, .. } => Tile::new(i, j),
            TaskCoords::LuTrsmRow { k, j } | TaskCoords::Ormqr { k, j } => Tile::new(k, j),
            TaskCoords::Tsqrt { k, i } => Tile::new(i, k),
            TaskCoords::Tsmqr { i, j, .. } => Tile::new(i, j),
        }
    }

    /// All data accesses of the task, output included.
    ///
    /// Allocates; [`TaskCoords::push_accesses`] is the same list appended
    /// to a caller's buffer.
    pub fn accesses(self) -> Vec<Access> {
        let mut out = Vec::with_capacity(3);
        self.push_accesses(&mut out);
        out
    }

    /// Append the task's accesses to `out`, in [`TaskCoords::accesses`]
    /// order (reads before writes). This is the one definition of every
    /// access list; the DAG builder writes it straight into its arena.
    pub fn push_accesses(self, out: &mut Vec<Access>) {
        use AccessMode::{Read as R, ReadWrite as RW};
        let mut push = |row, col, mode| {
            out.push(Access {
                tile: Tile::new(row, col),
                mode,
            })
        };
        match self {
            TaskCoords::Potrf { k } | TaskCoords::Getrf { k } | TaskCoords::Geqrt { k } => {
                push(k, k, RW)
            }
            TaskCoords::Trsm { k, i } | TaskCoords::LuTrsmCol { k, i } => {
                push(k, k, R);
                push(i, k, RW);
            }
            TaskCoords::Syrk { k, j } => {
                push(j, k, R);
                push(j, j, RW);
            }
            TaskCoords::Gemm { k, i, j } => {
                push(i, k, R);
                push(j, k, R);
                push(i, j, RW);
            }
            TaskCoords::LuTrsmRow { k, j } | TaskCoords::Ormqr { k, j } => {
                push(k, k, R);
                push(k, j, RW);
            }
            TaskCoords::LuGemm { k, i, j } => {
                push(i, k, R);
                push(k, j, R);
                push(i, j, RW);
            }
            TaskCoords::Tsqrt { k, i } => {
                push(k, k, RW);
                push(i, k, RW);
            }
            TaskCoords::Tsmqr { k, i, j } => {
                push(i, k, R);
                push(k, j, RW);
                push(i, j, RW);
            }
        }
    }

    /// Distance of the task's primary output tile from the diagonal, in
    /// tiles (absolute, so row- and column-panel tasks both count).
    ///
    /// This is the quantity the paper's triangle heuristic thresholds on:
    /// *"all the TRSM kernels which are at least k tiles away from the
    /// diagonal are forced to execute on the CPUs"* (Section V-C3).
    #[inline]
    pub const fn diagonal_offset(self) -> u32 {
        let t = self.output_tile();
        t.row.abs_diff(t.col)
    }
}

impl fmt::Display for TaskCoords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TaskCoords::Potrf { k } => write!(f, "POTRF_{k}"),
            TaskCoords::Trsm { k, i } => write!(f, "TRSM_{i}_{k}"),
            TaskCoords::Syrk { k, j } => write!(f, "SYRK_{j}_{k}"),
            TaskCoords::Gemm { k, i, j } => write!(f, "GEMM_{i}_{j}_{k}"),
            TaskCoords::Getrf { k } => write!(f, "GETRF_{k}"),
            TaskCoords::LuTrsmRow { k, j } => write!(f, "TRSM_R_{k}_{j}"),
            TaskCoords::LuTrsmCol { k, i } => write!(f, "TRSM_C_{i}_{k}"),
            TaskCoords::LuGemm { k, i, j } => write!(f, "LUGEMM_{i}_{j}_{k}"),
            TaskCoords::Geqrt { k } => write!(f, "GEQRT_{k}"),
            TaskCoords::Tsqrt { k, i } => write!(f, "TSQRT_{i}_{k}"),
            TaskCoords::Ormqr { k, j } => write!(f, "ORMQR_{k}_{j}"),
            TaskCoords::Tsmqr { k, i, j } => write!(f, "TSMQR_{i}_{j}_{k}"),
        }
    }
}

/// A fully-described task: identifier plus algorithmic coordinates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Task {
    /// Dense identifier within its graph.
    pub id: TaskId,
    /// Algorithmic coordinates.
    pub coords: TaskCoords,
}

impl Task {
    /// The kernel this task invokes.
    #[inline]
    pub const fn kernel(&self) -> Kernel {
        self.coords.kernel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_packed_index_is_dense_and_ordered() {
        let n = 6usize;
        let mut seen = vec![false; Tile::packed_count(n)];
        for r in 0..n as u32 {
            for c in 0..=r {
                let idx = Tile::new(r, c).packed_index();
                assert!(!seen[idx], "duplicate packed index {idx}");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn output_tiles_and_offsets() {
        let trsm = TaskCoords::Trsm { k: 2, i: 7 };
        assert_eq!(trsm.output_tile(), Tile::new(7, 2));
        assert_eq!(trsm.diagonal_offset(), 5);
        let potrf = TaskCoords::Potrf { k: 3 };
        assert_eq!(potrf.diagonal_offset(), 0);
        assert!(potrf.output_tile().is_diagonal());
        let gemm = TaskCoords::Gemm { k: 0, i: 4, j: 1 };
        assert_eq!(gemm.output_tile(), Tile::new(4, 1));
        assert_eq!(gemm.diagonal_offset(), 3);
    }

    #[test]
    fn accesses_match_algorithm_one() {
        let gemm = TaskCoords::Gemm { k: 1, i: 5, j: 3 };
        let acc = gemm.accesses();
        assert_eq!(acc.len(), 3);
        assert_eq!(acc[0].tile, Tile::new(5, 1));
        assert_eq!(acc[0].mode, AccessMode::Read);
        assert_eq!(acc[1].tile, Tile::new(3, 1));
        assert_eq!(acc[2].tile, Tile::new(5, 3));
        assert!(acc[2].mode.is_write());

        let syrk = TaskCoords::Syrk { k: 0, j: 2 };
        let acc = syrk.accesses();
        assert_eq!(acc[0].tile, Tile::new(2, 0));
        assert_eq!(acc[1].tile, Tile::new(2, 2));

        let potrf = TaskCoords::Potrf { k: 4 };
        assert_eq!(potrf.accesses().len(), 1);
    }

    #[test]
    fn cholesky_and_lu_tasks_write_exactly_one_tile() {
        let tasks = [
            TaskCoords::Potrf { k: 0 },
            TaskCoords::Trsm { k: 0, i: 1 },
            TaskCoords::Syrk { k: 0, j: 1 },
            TaskCoords::Gemm { k: 0, i: 2, j: 1 },
            TaskCoords::Getrf { k: 0 },
            TaskCoords::LuTrsmRow { k: 0, j: 1 },
            TaskCoords::LuTrsmCol { k: 0, i: 1 },
            TaskCoords::LuGemm { k: 0, i: 2, j: 1 },
            TaskCoords::Geqrt { k: 0 },
            TaskCoords::Ormqr { k: 0, j: 1 },
        ];
        for t in tasks {
            let writes: Vec<_> = t
                .accesses()
                .into_iter()
                .filter(|a| a.mode.is_write())
                .collect();
            assert_eq!(writes.len(), 1, "{t}");
            assert_eq!(writes[0].tile, t.output_tile());
        }
    }

    #[test]
    fn qr_coupled_kernels_write_two_tiles() {
        for t in [
            TaskCoords::Tsqrt { k: 0, i: 2 },
            TaskCoords::Tsmqr { k: 0, i: 2, j: 1 },
        ] {
            let writes: Vec<_> = t
                .accesses()
                .into_iter()
                .filter(|a| a.mode.is_write())
                .map(|a| a.tile)
                .collect();
            assert_eq!(writes.len(), 2, "{t}");
            assert!(writes.contains(&t.output_tile()));
        }
    }

    #[test]
    fn upper_triangle_offsets_are_absolute() {
        // LU row-panel tiles sit above the diagonal.
        let t = TaskCoords::LuTrsmRow { k: 1, j: 5 };
        assert_eq!(t.output_tile(), Tile::new(1, 5));
        assert_eq!(t.diagonal_offset(), 4);
        assert_eq!(TaskCoords::Ormqr { k: 0, j: 3 }.diagonal_offset(), 3);
    }

    #[test]
    fn lu_and_qr_kernels_map_correctly() {
        assert_eq!(TaskCoords::LuTrsmRow { k: 0, j: 1 }.kernel(), Kernel::Trsm);
        assert_eq!(TaskCoords::LuTrsmCol { k: 0, i: 1 }.kernel(), Kernel::Trsm);
        assert_eq!(
            TaskCoords::LuGemm { k: 0, i: 1, j: 1 }.kernel(),
            Kernel::Gemm
        );
        assert_eq!(TaskCoords::Getrf { k: 0 }.kernel(), Kernel::Getrf);
        assert_eq!(TaskCoords::Tsqrt { k: 0, i: 1 }.kernel(), Kernel::Tsqrt);
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(
            TaskCoords::Gemm { k: 1, i: 4, j: 2 }.to_string(),
            "GEMM_4_2_1"
        );
        assert_eq!(TaskCoords::Trsm { k: 0, i: 1 }.to_string(), "TRSM_1_0");
        assert_eq!(TaskCoords::Syrk { k: 2, j: 3 }.to_string(), "SYRK_3_2");
        assert_eq!(TaskCoords::Potrf { k: 4 }.to_string(), "POTRF_4");
    }
}
