//! Task graphs of the tiled factorizations (Figure 1 of the paper for
//! Cholesky; LU and QR are the DESIGN.md §9 extension).
//!
//! Dependencies are derived *data-driven* from the per-task accesses of
//! [`crate::task::TaskCoords::accesses`]: a read depends on the last writer
//! of the tile (RAW), a write depends on the last writer (WAW) and on every
//! reader since that write (WAR). For the in-place tiled Cholesky this
//! produces exactly the classic DAG of the paper, the same engine derives
//! the LU and QR graphs, and the generic construction doubles as a
//! correctness check of the access lists.

use crate::kernel::Kernel;
use crate::task::{Access, Task, TaskCoords, TaskId, Tile};
use crate::time::Time;
use std::fmt::Write as _;

/// Compressed-sparse-row adjacency: the neighbours of task `i` are the
/// slice `targets[offsets[i] .. offsets[i + 1]]`.
///
/// Two flat arenas replace per-task nested vectors: one cache-friendly
/// allocation for all neighbour lists plus one for the row boundaries,
/// instead of one heap allocation per task. Rows are sorted and
/// deduplicated, exactly like the per-task lists they replace.
#[derive(Clone, Debug, Default)]
struct CsrAdjacency {
    /// Row boundaries; `offsets.len() == n_rows + 1`, `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// All neighbour lists, concatenated in row order.
    targets: Vec<TaskId>,
}

impl CsrAdjacency {
    /// The reverse adjacency, by a counting transpose: row `t` of the
    /// result lists every row that holds `t`. Rows are visited in
    /// increasing id order, so every transposed row comes out sorted.
    fn transpose(&self) -> CsrAdjacency {
        let n_rows = self.offsets.len() - 1;
        let mut offsets = vec![0u32; n_rows + 1];
        for &t in &self.targets {
            offsets[t.index() + 1] += 1;
        }
        for i in 0..n_rows {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n_rows].to_vec();
        let mut targets = vec![TaskId(0); self.targets.len()];
        for i in 0..n_rows {
            for &t in self.row(i) {
                targets[next[t.index()] as usize] = TaskId(i as u32);
                next[t.index()] += 1;
            }
        }
        CsrAdjacency { offsets, targets }
    }

    /// The neighbour slice of row `i`.
    #[inline]
    fn row(&self, i: usize) -> &[TaskId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of neighbours of row `i`.
    #[inline]
    fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total number of stored edges.
    #[inline]
    fn n_edges(&self) -> usize {
        self.targets.len()
    }
}

/// An immutable task graph with precomputed adjacency.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// Matrix order in tiles.
    n: usize,
    /// Tasks in sequential-algorithm submission order.
    tasks: Vec<Task>,
    /// Direct successors of each task (CSR; rows deduplicated, sorted).
    succs: CsrAdjacency,
    /// Direct predecessors of each task (CSR; rows deduplicated, sorted).
    preds: CsrAdjacency,
    /// All task accesses, flattened (CSR with `acc_off`): engines read
    /// these on every scheduler estimate, so they are materialized once
    /// here instead of allocating a `Vec` per [`TaskCoords::accesses`]
    /// call on the hot path (DESIGN.md §13).
    accesses: Vec<Access>,
    /// CSR offsets into `accesses`; task `t` owns
    /// `accesses[acc_off[t]..acc_off[t + 1]]`.
    acc_off: Vec<u32>,
}

impl TaskGraph {
    /// Build the task graph of the Cholesky factorization of an
    /// `n × n`-tile matrix, following Algorithm 1 of the paper.
    ///
    /// Tasks are created in the sequential pseudocode order, which is also
    /// the order a StarPU application would submit them in.
    ///
    /// ```
    /// use hetchol_core::dag::TaskGraph;
    ///
    /// // Figure 1 of the paper: the 5x5-tile DAG has 35 tasks.
    /// let g = TaskGraph::cholesky(5);
    /// assert_eq!(g.len(), 35);
    /// assert_eq!(g.entry_tasks().len(), 1);
    /// assert!(g.to_dot().contains("POTRF_0"));
    /// ```
    pub fn cholesky(n: usize) -> TaskGraph {
        let mut coords = Vec::with_capacity(Kernel::total_cholesky_tasks(n));
        for k in 0..n as u32 {
            coords.push(TaskCoords::Potrf { k });
            for i in (k + 1)..n as u32 {
                coords.push(TaskCoords::Trsm { k, i });
            }
            for j in (k + 1)..n as u32 {
                coords.push(TaskCoords::Syrk { k, j });
                for i in (j + 1)..n as u32 {
                    coords.push(TaskCoords::Gemm { k, i, j });
                }
            }
        }
        Self::from_submission_order(n, coords)
    }

    /// Build the task graph of the tiled LU factorization *without
    /// pivoting* of an `n × n`-tile matrix (extension; see DESIGN.md §9).
    ///
    /// Per step `k`: `GETRF(k)`, then the row panel (`LuTrsmRow`), the
    /// column panel (`LuTrsmCol`), then the `(n-1-k)²` trailing `LuGemm`
    /// updates.
    pub fn lu(n: usize) -> TaskGraph {
        let mut coords = Vec::with_capacity(Kernel::total_lu_tasks(n));
        for k in 0..n as u32 {
            coords.push(TaskCoords::Getrf { k });
            for j in (k + 1)..n as u32 {
                coords.push(TaskCoords::LuTrsmRow { k, j });
            }
            for i in (k + 1)..n as u32 {
                coords.push(TaskCoords::LuTrsmCol { k, i });
            }
            for i in (k + 1)..n as u32 {
                for j in (k + 1)..n as u32 {
                    coords.push(TaskCoords::LuGemm { k, i, j });
                }
            }
        }
        Self::from_submission_order(n, coords)
    }

    /// Build the task graph of the tiled QR factorization (flat-tree
    /// elimination, as in PLASMA's default) of an `n × n`-tile matrix
    /// (extension; see DESIGN.md §9).
    ///
    /// Per step `k`: `GEQRT(k)`, the `ORMQR` row applications, then for
    /// each sub-diagonal row `i` a `TSQRT(k, i)` followed by its row of
    /// `TSMQR` applications — the serial TSQRT chain is what makes the QR
    /// critical path longer than Cholesky's.
    pub fn qr(n: usize) -> TaskGraph {
        let mut coords = Vec::with_capacity(Kernel::total_qr_tasks(n));
        for k in 0..n as u32 {
            coords.push(TaskCoords::Geqrt { k });
            for j in (k + 1)..n as u32 {
                coords.push(TaskCoords::Ormqr { k, j });
            }
            for i in (k + 1)..n as u32 {
                coords.push(TaskCoords::Tsqrt { k, i });
                for j in (k + 1)..n as u32 {
                    coords.push(TaskCoords::Tsmqr { k, i, j });
                }
            }
        }
        Self::from_submission_order(n, coords)
    }

    /// Build a graph from an explicit submission order of tasks, deriving
    /// dependencies from data accesses. Exposed so tests can build custom
    /// micro-DAGs with the same machinery.
    ///
    /// One pass in submission order, with no hashing: every hazard edge
    /// points at the task being visited, so each task's predecessor row
    /// is complete (after a sort and dedup of its few ids) when the visit
    /// ends, and the successor rows are its transpose.
    ///
    /// # Panics
    /// Panics if two tasks have the same coordinates, or if a task
    /// accesses a tile outside the `n × n` tile grid.
    pub fn from_submission_order(n: usize, coords: Vec<TaskCoords>) -> TaskGraph {
        let mut keys: Vec<u128> = coords.iter().map(|&c| coords_key(c)).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            let dup = coords.iter().find(|&&c| coords_key(c) == w[0]);
            panic!("duplicate task {:?}", dup.expect("a key of a task"));
        }

        // Hazard state per tile, dense over the grid (`row * n + col`, the
        // layout of `sim::data::Residency`): the last writer, and the
        // readers since that write as a list threaded through `reads`
        // (entry = reader, next; `NONE` ends a list).
        const NONE: u32 = u32::MAX;
        let mut last_writer = vec![NONE; n * n];
        let mut first_read = vec![NONE; n * n];
        let mut reads: Vec<(TaskId, u32)> = Vec::with_capacity(2 * coords.len());

        // A task makes at most three accesses, and has about as many
        // predecessors.
        let mut accesses: Vec<Access> = Vec::with_capacity(3 * coords.len());
        let mut acc_off = Vec::with_capacity(coords.len() + 1);
        acc_off.push(0u32);
        let mut preds = CsrAdjacency {
            offsets: Vec::with_capacity(coords.len() + 1),
            targets: Vec::with_capacity(3 * coords.len()),
        };
        preds.offsets.push(0);
        let mut row: Vec<TaskId> = Vec::new();
        for (idx, &c) in coords.iter().enumerate() {
            let t = TaskId(idx as u32);
            let first = accesses.len();
            c.push_accesses(&mut accesses);
            for access in &accesses[first..] {
                let Tile { row: r, col } = access.tile;
                assert!(
                    (r as usize) < n && (col as usize) < n,
                    "task {c} accesses tile {} outside the {n} x {n} tile grid",
                    access.tile
                );
                let slot = r as usize * n + col as usize;
                // RAW, or WAW for a write, on the previous writer.
                let w = last_writer[slot];
                if w != NONE && w != t.0 {
                    row.push(TaskId(w));
                }
                if access.mode.is_write() {
                    // WAR on every reader since that write.
                    let mut next = first_read[slot];
                    while next != NONE {
                        let (reader, after) = reads[next as usize];
                        if reader != t {
                            row.push(reader);
                        }
                        next = after;
                    }
                    last_writer[slot] = t.0;
                    first_read[slot] = NONE;
                } else {
                    reads.push((t, first_read[slot]));
                    first_read[slot] = (reads.len() - 1) as u32;
                }
            }
            acc_off.push(accesses.len() as u32);
            row.sort_unstable();
            row.dedup();
            preds.targets.extend_from_slice(&row);
            preds.offsets.push(preds.targets.len() as u32);
            row.clear();
        }

        let tasks = coords
            .into_iter()
            .enumerate()
            .map(|(idx, coords)| Task {
                id: TaskId(idx as u32),
                coords,
            })
            .collect();
        TaskGraph {
            n,
            tasks,
            succs: preds.transpose(),
            preds,
            accesses,
            acc_off,
        }
    }

    /// All data accesses of a task, from the precomputed arena — the
    /// allocation-free equivalent of [`TaskCoords::accesses`] for hot
    /// paths (the simulator reads this per (ready task × memory node)
    /// pair, and once more per prefetch).
    #[inline]
    pub fn accesses_of(&self, t: TaskId) -> &[Access] {
        &self.accesses[self.acc_off[t.index()] as usize..self.acc_off[t.index() + 1] as usize]
    }

    /// Matrix order in tiles.
    #[inline]
    pub fn n_tiles(&self) -> usize {
        self.n
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff the graph has no tasks (`n = 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks, in submission order.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Look up a task by identifier.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Look up a task by coordinates (a linear scan of the tasks).
    pub fn find(&self, coords: TaskCoords) -> Option<TaskId> {
        self.tasks.iter().find(|t| t.coords == coords).map(|t| t.id)
    }

    /// Direct successors of a task.
    #[inline]
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.succs.row(id.index())
    }

    /// Direct predecessors of a task.
    #[inline]
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.preds.row(id.index())
    }

    /// In-degree of each task (used to seed ready queues).
    pub fn indegrees(&self) -> Vec<usize> {
        (0..self.len()).map(|i| self.preds.degree(i)).collect()
    }

    /// Total number of (deduplicated) edges.
    pub fn n_edges(&self) -> usize {
        self.succs.n_edges()
    }

    /// Iterate all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        (0..self.len()).flat_map(|i| {
            self.succs
                .row(i)
                .iter()
                .map(move |&s| (TaskId(i as u32), s))
        })
    }

    /// Tasks with no predecessors.
    pub fn entry_tasks(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| self.preds.degree(t.id.index()) == 0)
            .map(|t| t.id)
            .collect()
    }

    /// Tasks with no successors.
    pub fn exit_tasks(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| self.succs.degree(t.id.index()) == 0)
            .map(|t| t.id)
            .collect()
    }

    /// Number of tasks of each kernel, indexed by [`Kernel::index`].
    pub fn kernel_counts(&self) -> [usize; Kernel::COUNT] {
        let mut counts = [0usize; Kernel::COUNT];
        for t in &self.tasks {
            counts[t.kernel().index()] += 1;
        }
        counts
    }

    /// A topological order of the tasks (Kahn's algorithm, stable with
    /// respect to submission order among simultaneously-ready tasks).
    ///
    /// # Panics
    /// Panics if the graph contains a cycle — impossible for graphs built by
    /// the data-driven constructor, which only ever adds backward-in-time
    /// edges.
    pub fn topo_order(&self) -> Vec<TaskId> {
        let mut indeg = self.indegrees();
        // A plain FIFO over dense ids preserves submission order because
        // edges always point forward in submission order.
        let mut queue: std::collections::VecDeque<TaskId> = self
            .tasks
            .iter()
            .filter(|t| indeg[t.id.index()] == 0)
            .map(|t| t.id)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in self.successors(id) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        assert_eq!(order.len(), self.len(), "task graph contains a cycle");
        order
    }

    /// Bottom level of every task: the weight of the longest path from the
    /// task to an exit task, *including* the task's own duration.
    ///
    /// `duration` maps a task to the weight used for path lengths; the paper
    /// uses the fastest execution time of each task among the resources for
    /// the `dmdas` priorities and the critical-path bound (Sections III-C
    /// and V-A).
    pub fn bottom_levels(&self, mut duration: impl FnMut(TaskId) -> Time) -> Vec<Time> {
        // Hazard edges always point from a lower to a higher submission
        // id, so descending id order visits every successor before its
        // predecessors — no need to materialise a topological order (the
        // result is identical for any valid one).
        let mut bl = vec![Time::ZERO; self.len()];
        for idx in (0..self.len()).rev() {
            let id = TaskId(idx as u32);
            let tail = self
                .successors(id)
                .iter()
                .map(|s| bl[s.index()])
                .max()
                .unwrap_or(Time::ZERO);
            bl[idx] = duration(id) + tail;
        }
        bl
    }

    /// Length of the critical path under the given per-task durations:
    /// the largest bottom level over all tasks.
    pub fn critical_path(&self, duration: impl FnMut(TaskId) -> Time) -> Time {
        self.bottom_levels(duration)
            .into_iter()
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Depth (number of tasks on the longest chain ending at each task),
    /// 1 for entry tasks. Handy for layered trace rendering and tests.
    pub fn depths(&self) -> Vec<usize> {
        let order = self.topo_order();
        let mut depth = vec![0usize; self.len()];
        for &id in &order {
            let d = self
                .predecessors(id)
                .iter()
                .map(|p| depth[p.index()])
                .max()
                .unwrap_or(0);
            depth[id.index()] = d + 1;
        }
        depth
    }

    /// Render the graph in Graphviz DOT format with the paper's task names
    /// and one fill colour per kernel (Figure 1).
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str("digraph cholesky {\n  rankdir=TB;\n  node [style=filled];\n");
        for t in &self.tasks {
            let color = match t.kernel() {
                Kernel::Potrf => "#e41a1c",
                Kernel::Trsm => "#377eb8",
                Kernel::Syrk => "#4daf4a",
                Kernel::Gemm => "#ff7f00",
                Kernel::Getrf => "#984ea3",
                Kernel::Geqrt => "#a65628",
                Kernel::Tsqrt => "#f781bf",
                Kernel::Ormqr => "#999999",
                Kernel::Tsmqr => "#ffff33",
            };
            let _ = writeln!(out, "  \"{}\" [fillcolor=\"{color}\"];", t.coords);
        }
        for (from, to) in self.edges() {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\";",
                self.task(from).coords,
                self.task(to).coords
            );
        }
        out.push_str("}\n");
        out
    }
}

/// A lossless, sortable key of a task's coordinates: the variant's
/// position in the enum, then `k`, `i` and `j` (zero where absent), 32
/// bits each. Sorting these finds duplicate tasks without hashing, in
/// well under half the time a sort of the coordinates themselves takes.
fn coords_key(c: TaskCoords) -> u128 {
    use TaskCoords::*;
    let (variant, k, i, j) = match c {
        Potrf { k } => (0u32, k, 0, 0),
        Trsm { k, i } => (1, k, i, 0),
        Syrk { k, j } => (2, k, 0, j),
        Gemm { k, i, j } => (3, k, i, j),
        Getrf { k } => (4, k, 0, 0),
        LuTrsmRow { k, j } => (5, k, 0, j),
        LuTrsmCol { k, i } => (6, k, i, 0),
        LuGemm { k, i, j } => (7, k, i, j),
        Geqrt { k } => (8, k, 0, 0),
        Tsqrt { k, i } => (9, k, i, 0),
        Ormqr { k, j } => (10, k, 0, j),
        Tsmqr { k, i, j } => (11, k, i, j),
    };
    u128::from(variant) << 96 | u128::from(k) << 64 | u128::from(i) << 32 | u128::from(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(g: &TaskGraph, a: TaskCoords, b: TaskCoords) -> bool {
        let (a, b) = (g.find(a).unwrap(), g.find(b).unwrap());
        g.successors(a).contains(&b)
    }

    #[test]
    fn figure1_graph_has_35_tasks() {
        let g = TaskGraph::cholesky(5);
        assert_eq!(g.len(), 35);
        assert_eq!(g.kernel_counts()[..4], [5, 10, 10, 10]);
        assert!(g.kernel_counts()[4..].iter().all(|&c| c == 0));
    }

    #[test]
    fn classic_dependencies_present() {
        let g = TaskGraph::cholesky(5);
        // POTRF(0) -> TRSM(1,0)
        assert!(edge(
            &g,
            TaskCoords::Potrf { k: 0 },
            TaskCoords::Trsm { k: 0, i: 1 }
        ));
        // TRSM(1,0) -> SYRK(1,0)
        assert!(edge(
            &g,
            TaskCoords::Trsm { k: 0, i: 1 },
            TaskCoords::Syrk { k: 0, j: 1 }
        ));
        // SYRK(1,0) -> POTRF(1)
        assert!(edge(
            &g,
            TaskCoords::Syrk { k: 0, j: 1 },
            TaskCoords::Potrf { k: 1 }
        ));
        // TRSM(2,0) and TRSM(1,0) feed GEMM(2,1,0)
        assert!(edge(
            &g,
            TaskCoords::Trsm { k: 0, i: 2 },
            TaskCoords::Gemm { k: 0, i: 2, j: 1 }
        ));
        assert!(edge(
            &g,
            TaskCoords::Trsm { k: 0, i: 1 },
            TaskCoords::Gemm { k: 0, i: 2, j: 1 }
        ));
        // GEMM(2,1,0) -> TRSM(2,1): update then solve of A[2][1]
        assert!(edge(
            &g,
            TaskCoords::Gemm { k: 0, i: 2, j: 1 },
            TaskCoords::Trsm { k: 1, i: 2 }
        ));
        // SYRK(2,0) -> SYRK(2,1): successive updates of A[2][2]
        assert!(edge(
            &g,
            TaskCoords::Syrk { k: 0, j: 2 },
            TaskCoords::Syrk { k: 1, j: 2 }
        ));
        // No bogus edge: POTRF(0) does not directly feed SYRK(1,0)
        assert!(!edge(
            &g,
            TaskCoords::Potrf { k: 0 },
            TaskCoords::Syrk { k: 0, j: 1 }
        ));
    }

    #[test]
    fn single_entry_single_exit() {
        for n in 1..=12 {
            let g = TaskGraph::cholesky(n);
            let entries = g.entry_tasks();
            let exits = g.exit_tasks();
            assert_eq!(entries.len(), 1, "n={n}");
            assert_eq!(g.task(entries[0]).coords, TaskCoords::Potrf { k: 0 });
            assert_eq!(exits.len(), 1, "n={n}");
            assert_eq!(
                g.task(exits[0]).coords,
                TaskCoords::Potrf { k: n as u32 - 1 }
            );
        }
    }

    #[test]
    fn topo_order_is_consistent() {
        let g = TaskGraph::cholesky(8);
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let mut pos = vec![usize::MAX; g.len()];
        for (p, id) in order.iter().enumerate() {
            pos[id.index()] = p;
        }
        for (from, to) in g.edges() {
            assert!(pos[from.index()] < pos[to.index()]);
        }
    }

    #[test]
    fn unit_critical_path_is_3n_minus_2() {
        // The POTRF -> TRSM -> SYRK -> POTRF ... chain the paper exploits for
        // the mixed bound has 3(n-1) + 1 tasks.
        for n in 1..=16 {
            let g = TaskGraph::cholesky(n);
            let cp = g.critical_path(|_| Time::from_millis(1));
            assert_eq!(cp, Time::from_millis(3 * n as u64 - 2), "n={n}");
        }
    }

    #[test]
    fn bottom_levels_decrease_along_edges() {
        let g = TaskGraph::cholesky(10);
        let bl = g.bottom_levels(|_| Time::from_millis(1));
        for (from, to) in g.edges() {
            assert!(bl[from.index()] > bl[to.index()]);
        }
    }

    #[test]
    fn depths_start_at_one() {
        let g = TaskGraph::cholesky(6);
        let d = g.depths();
        let entry = g.entry_tasks()[0];
        assert_eq!(d[entry.index()], 1);
        for (from, to) in g.edges() {
            assert!(d[to.index()] > d[from.index()]);
        }
    }

    #[test]
    fn edge_count_grows_like_n_cubed() {
        // Sanity envelope rather than an exact closed form: the GEMM count
        // dominates and each GEMM has >= 3 incident input edges.
        let g = TaskGraph::cholesky(10);
        assert!(g.n_edges() >= 3 * Kernel::Gemm.count_in_cholesky(10));
        assert!(g.n_edges() < 6 * g.len());
    }

    #[test]
    fn dot_output_contains_tasks_and_edges() {
        let g = TaskGraph::cholesky(3);
        let dot = g.to_dot();
        assert!(dot.contains("digraph cholesky"));
        assert!(dot.contains("\"POTRF_0\""));
        assert!(dot.contains("\"POTRF_0\" -> \"TRSM_1_0\""));
        assert!(dot.contains("\"GEMM_2_1_0\""));
    }

    #[test]
    fn lu_graph_structure() {
        for n in 1..=8usize {
            let g = TaskGraph::lu(n);
            assert_eq!(g.len(), Kernel::total_lu_tasks(n), "n={n}");
            assert_eq!(g.entry_tasks().len(), 1, "n={n}");
            assert_eq!(
                g.task(g.entry_tasks()[0]).coords,
                TaskCoords::Getrf { k: 0 }
            );
            // Exit: the last GETRF.
            let exits = g.exit_tasks();
            assert_eq!(exits.len(), 1, "n={n}");
            assert_eq!(
                g.task(exits[0]).coords,
                TaskCoords::Getrf { k: n as u32 - 1 }
            );
            // Acyclic with a full topological order.
            assert_eq!(g.topo_order().len(), g.len());
        }
        // Classic LU dependencies at n = 3.
        let g = TaskGraph::lu(3);
        let e = |a: TaskCoords, b: TaskCoords| {
            g.successors(g.find(a).unwrap())
                .contains(&g.find(b).unwrap())
        };
        assert!(e(
            TaskCoords::Getrf { k: 0 },
            TaskCoords::LuTrsmRow { k: 0, j: 1 }
        ));
        assert!(e(
            TaskCoords::Getrf { k: 0 },
            TaskCoords::LuTrsmCol { k: 0, i: 2 }
        ));
        assert!(e(
            TaskCoords::LuTrsmRow { k: 0, j: 1 },
            TaskCoords::LuGemm { k: 0, i: 1, j: 1 }
        ));
        assert!(e(
            TaskCoords::LuGemm { k: 0, i: 1, j: 1 },
            TaskCoords::Getrf { k: 1 }
        ));
    }

    #[test]
    fn qr_graph_structure() {
        for n in 1..=8usize {
            let g = TaskGraph::qr(n);
            assert_eq!(g.len(), Kernel::total_qr_tasks(n), "n={n}");
            assert_eq!(g.entry_tasks().len(), 1, "n={n}");
            assert_eq!(g.topo_order().len(), g.len());
        }
        let g = TaskGraph::qr(3);
        let e = |a: TaskCoords, b: TaskCoords| {
            g.successors(g.find(a).unwrap())
                .contains(&g.find(b).unwrap())
        };
        // GEQRT(0) gates both its ORMQRs and the first TSQRT (RW chain on
        // the diagonal tile).
        assert!(e(
            TaskCoords::Geqrt { k: 0 },
            TaskCoords::Ormqr { k: 0, j: 1 }
        ));
        assert!(e(
            TaskCoords::Geqrt { k: 0 },
            TaskCoords::Tsqrt { k: 0, i: 1 }
        ));
        // TSQRTs of one step serialise on the diagonal tile.
        assert!(e(
            TaskCoords::Tsqrt { k: 0, i: 1 },
            TaskCoords::Tsqrt { k: 0, i: 2 }
        ));
        // TSMQR needs its TSQRT's reflectors.
        assert!(e(
            TaskCoords::Tsqrt { k: 0, i: 1 },
            TaskCoords::Tsmqr { k: 0, i: 1, j: 1 }
        ));
        // TSMQRs on the same row tile A[k][j] serialise across i.
        assert!(e(
            TaskCoords::Tsmqr { k: 0, i: 1, j: 1 },
            TaskCoords::Tsmqr { k: 0, i: 2, j: 1 }
        ));
    }

    #[test]
    fn qr_critical_path_longer_than_cholesky() {
        // The serial TSQRT chain makes QR's unit-duration critical path
        // strictly longer than Cholesky's 3n - 2 for n >= 3.
        for n in 3..=8usize {
            let qr = TaskGraph::qr(n).critical_path(|_| Time::from_millis(1));
            let chol = TaskGraph::cholesky(n).critical_path(|_| Time::from_millis(1));
            assert!(qr > chol, "n={n}: qr {qr} chol {chol}");
        }
    }

    #[test]
    fn csr_rows_are_sorted_dedup_and_mirror_each_other() {
        let g = TaskGraph::cholesky(8);
        let mut mirror = 0usize;
        for t in g.tasks() {
            let ss = g.successors(t.id);
            assert!(ss.windows(2).all(|w| w[0] < w[1]), "row not sorted/dedup");
            let ps = g.predecessors(t.id);
            assert!(ps.windows(2).all(|w| w[0] < w[1]), "row not sorted/dedup");
            for &s in ss {
                assert!(g.predecessors(s).contains(&t.id));
                mirror += 1;
            }
        }
        assert_eq!(mirror, g.n_edges());
        assert_eq!(
            g.indegrees().iter().sum::<usize>(),
            g.n_edges(),
            "pred arena and succ arena must store the same edge set"
        );
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = TaskGraph::cholesky(0);
        assert!(g0.is_empty());
        assert_eq!(g0.critical_path(|_| Time::from_millis(1)), Time::ZERO);
        let g1 = TaskGraph::cholesky(1);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1.n_edges(), 0);
    }
}
