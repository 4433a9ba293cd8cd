//! The task-graph builder against an independent oracle and pinned digests.
//!
//! `TaskGraph::from_submission_order` derives every edge in one pass over
//! dense per-tile hazard state. Here a quadratic reference, written
//! straight from the rule in the `dag` module doc, recomputes each row by
//! rescanning all earlier tasks; and FNV digests of both CSR arenas and
//! of the access arena, recorded before the builder was rewritten, pin
//! its output bit for bit at the sizes the benchmark's grid builds.

use hetchol_core::dag::TaskGraph;
use hetchol_core::hash::ContentHasher;
use hetchol_core::task::{TaskCoords, TaskId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Predecessor rows by the module doc's rule: a read depends on the
/// tile's last writer; a write depends on the last writer and on every
/// reader since. Quadratic, and shares no state with the builder.
fn reference_preds(coords: &[TaskCoords]) -> Vec<Vec<TaskId>> {
    (0..coords.len())
        .map(|t| {
            let mut row = BTreeSet::new();
            for access in coords[t].accesses() {
                let mut readers = Vec::new();
                for u in (0..t).rev() {
                    let touches: Vec<bool> = coords[u]
                        .accesses()
                        .iter()
                        .filter(|a| a.tile == access.tile)
                        .map(|a| a.mode.is_write())
                        .collect();
                    if touches.contains(&true) {
                        row.insert(u);
                        break;
                    }
                    if !touches.is_empty() {
                        readers.push(u);
                    }
                }
                if access.mode.is_write() {
                    row.extend(readers);
                }
            }
            row.into_iter().map(|u| TaskId(u as u32)).collect()
        })
        .collect()
}

/// Compare every row of the built graph with the reference.
fn check_against_reference(n: usize, coords: Vec<TaskCoords>) -> Result<(), String> {
    let preds = reference_preds(&coords);
    let mut succs = vec![Vec::new(); coords.len()];
    for (t, row) in preds.iter().enumerate() {
        for p in row {
            succs[p.index()].push(TaskId(t as u32));
        }
    }
    let g = TaskGraph::from_submission_order(n, coords.clone());
    for (t, c) in coords.iter().enumerate() {
        let id = TaskId(t as u32);
        if g.predecessors(id) != preds[t] {
            return Err(format!("{c}: predecessors {:?}", g.predecessors(id)));
        }
        if g.successors(id) != succs[t] {
            return Err(format!("{c}: successors {:?}", g.successors(id)));
        }
        if g.accesses_of(id) != c.accesses() {
            return Err(format!("{c}: accesses {:?}", g.accesses_of(id)));
        }
    }
    Ok(())
}

fn coords_of(g: &TaskGraph) -> Vec<TaskCoords> {
    g.tasks().iter().map(|t| t.coords).collect()
}

type Builder = fn(usize) -> TaskGraph;

const ALGORITHMS: [(&str, Builder); 3] = [
    ("cholesky", TaskGraph::cholesky),
    ("lu", TaskGraph::lu),
    ("qr", TaskGraph::qr),
];

#[test]
fn factorizations_match_the_quadratic_reference() {
    for (name, build) in ALGORITHMS {
        for n in 0..=12 {
            check_against_reference(n, coords_of(&build(n)))
                .unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
        }
    }
}

/// Task `variant` (0..12) at coordinates `(k, i, j)`; unused ones ignored.
fn task(variant: u8, k: u32, i: u32, j: u32) -> TaskCoords {
    match variant {
        0 => TaskCoords::Potrf { k },
        1 => TaskCoords::Trsm { k, i },
        2 => TaskCoords::Syrk { k, j },
        3 => TaskCoords::Gemm { k, i, j },
        4 => TaskCoords::Getrf { k },
        5 => TaskCoords::LuTrsmRow { k, j },
        6 => TaskCoords::LuTrsmCol { k, i },
        7 => TaskCoords::LuGemm { k, i, j },
        8 => TaskCoords::Geqrt { k },
        9 => TaskCoords::Tsqrt { k, i },
        10 => TaskCoords::Ormqr { k, j },
        _ => TaskCoords::Tsmqr { k, i, j },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random custom submission orders: every kernel, QR's two-tile
    /// writers included, at any coordinates inside the grid (so a task
    /// may touch one tile twice), distinct, in random order.
    #[test]
    fn custom_orders_match_the_quadratic_reference(
        n in 1usize..=5,
        draws in prop::collection::vec((0u8..12, 0u32..5, 0u32..5, 0u32..5), 0..60),
    ) {
        let m = n as u32;
        let mut coords = Vec::new();
        for &(v, k, i, j) in &draws {
            let c = task(v, k % m, i % m, j % m);
            if !coords.contains(&c) {
                coords.push(c);
            }
        }
        prop_assert_eq!(check_against_reference(n, coords), Ok(()));
    }
}

/// FNV digests of the successor CSR, the predecessor CSR and the access
/// arena, each folded row by row as (length, entries).
fn digests(g: &TaskGraph) -> [u64; 3] {
    let mut h = [
        ContentHasher::new(),
        ContentHasher::new(),
        ContentHasher::new(),
    ];
    for t in g.tasks() {
        for (h, row) in h.iter_mut().zip([g.successors(t.id), g.predecessors(t.id)]) {
            h.write_usize(row.len());
            for s in row {
                h.write_u64(s.0.into());
            }
        }
        let acc = g.accesses_of(t.id);
        h[2].write_usize(acc.len());
        for a in acc {
            h[2].write_u64(a.tile.row.into());
            h[2].write_u64(a.tile.col.into());
            h[2].write_u64(a.mode.is_write().into());
        }
    }
    h.map(|h| h.finish())
}

/// (algorithm, n, tasks, edges, digests), as the hashing builder this
/// one replaced produced them.
#[rustfmt::skip]
const GOLDENS: [(&str, usize, usize, usize, [u64; 3]); 9] = [
    ("cholesky", 32, 5984, 16368, [0xe90e267016c7c910, 0xd869d7de18db7a58, 0xae6a9cf03c466125]),
    ("cholesky", 48, 19600, 55272, [0x28372aa4d23eb60f, 0x66061644d904feb7, 0xbd90cc5f803ca225]),
    ("cholesky", 64, 45760, 131040, [0xb2f4ab67f1d90bde, 0x48a2c4f09200db7b, 0xe49adb276ee33325]),
    ("lu", 32, 11440, 32240, [0x9212d585bb843411, 0xbecad4fa50c78b5d, 0xde2a44a3a7690d25]),
    ("lu", 48, 38024, 109416, [0x9ef23dbfc9e1dca7, 0xfcf5a3621b6f340c, 0x1558f6af7c455525]),
    ("lu", 64, 89440, 260064, [0x96ded5e7da0226f0, 0xf36263cdfce13e45, 0x494cb32fc90f1525]),
    ("qr", 32, 11440, 32736, [0x5c1144154bbe1a24, 0xc3f93951f27dff38, 0x6d5ad2879a3f6425]),
    ("qr", 48, 38024, 110544, [0xbbfbe2fa10929f50, 0x0061796918055a14, 0x72fb85066900f9a5]),
    ("qr", 64, 89440, 262080, [0x184742fb91bc4da7, 0x19facc09fe446c29, 0xee3d361c14fac725]),
];

#[test]
fn arenas_are_bit_identical_to_the_hashing_builder() {
    for (name, n, tasks, edges, want) in GOLDENS {
        let build = ALGORITHMS.iter().find(|a| a.0 == name).unwrap().1;
        let g = build(n);
        assert_eq!((g.len(), g.n_edges()), (tasks, edges), "{name} n={n}");
        assert_eq!(digests(&g), want, "{name} n={n}");
    }
}

#[test]
#[should_panic(expected = "duplicate task Gemm { k: 0, i: 2, j: 1 }")]
fn duplicate_coordinates_are_rejected() {
    TaskGraph::from_submission_order(
        3,
        vec![
            TaskCoords::Gemm { k: 0, i: 2, j: 1 },
            TaskCoords::Potrf { k: 0 },
            TaskCoords::Gemm { k: 0, i: 2, j: 1 },
        ],
    );
}

/// Tile (0, 2) of a 2-tile grid used to alias tile (1, 0) in the flat
/// residency table, so this order simulated one transfer more than the
/// same tasks at n = 4.
#[test]
#[should_panic(expected = "task TRSM_R_0_2 accesses tile A[0][2] outside the 2 x 2 tile grid")]
fn column_outside_the_grid_is_rejected() {
    TaskGraph::from_submission_order(
        2,
        vec![
            TaskCoords::Ormqr { k: 1, j: 1 },
            TaskCoords::Ormqr { k: 1, j: 0 },
            TaskCoords::Getrf { k: 0 },
            TaskCoords::LuTrsmRow { k: 0, j: 2 },
            TaskCoords::Getrf { k: 1 },
        ],
    );
}

#[test]
#[should_panic(expected = "task TRSM_2_0 accesses tile A[2][0] outside the 2 x 2 tile grid")]
fn row_outside_the_grid_is_rejected() {
    TaskGraph::from_submission_order(
        2,
        vec![TaskCoords::Potrf { k: 0 }, TaskCoords::Trsm { k: 0, i: 2 }],
    );
}
