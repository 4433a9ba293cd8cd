//! Exact rational linear programs and a two-phase Bland simplex over
//! [`Rat`], with dual-solution / Farkas-certificate extraction from the
//! final tableau.
//!
//! This is the *prover* side of the certification story: it produces the
//! `(x, y)` pairs (or infeasibility vectors) that the independent checker
//! in [`crate::cert::verify`] re-validates from scratch. The checker never
//! calls into this module — see the module docs over there.

use crate::cert::rat::{CertError, Rat};
use crate::simplex::Relation;

/// One exact linear constraint `coeffs · x REL rhs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatRow {
    /// Coefficients, always full-width (`n_vars` entries).
    pub coeffs: Vec<Rat>,
    /// Constraint relation.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: Rat,
}

/// An exact minimization LP over non-negative variables.
///
/// `PartialEq` is exact structural equality (canonical [`Rat`] form), which
/// the checker uses to compare a certificate's embedded LP against its own
/// independently rebuilt one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatLp {
    /// Number of decision variables.
    pub n_vars: usize,
    /// Objective coefficients (length `n_vars`), always minimized.
    pub objective: Vec<Rat>,
    /// The constraint rows.
    pub rows: Vec<RatRow>,
}

/// Verdict of the exact solver on one LP.
#[derive(Clone, Debug)]
pub enum XlpOutcome {
    /// Optimal `x` with dual multipliers `y` (one per input row, stated for
    /// the *original* row orientation) proving optimality by strong duality:
    /// `c·x == y·b` with `Aᵀy ≤ c`, `y_i ≤ 0` on `≤` rows, `y_i ≥ 0` on `≥`
    /// rows, free on `=` rows.
    Optimal {
        /// Primal optimum.
        x: Vec<Rat>,
        /// Dual optimum (certificate of optimality).
        y: Vec<Rat>,
        /// The optimal objective value `c·x`.
        obj: Rat,
    },
    /// Infeasible, with a Farkas vector `y` (same sign conventions as the
    /// duals) satisfying `Aᵀy ≤ 0` and `y·b > 0`: no non-negative `x` can
    /// satisfy the rows.
    Infeasible {
        /// The Farkas infeasibility certificate.
        farkas: Vec<Rat>,
    },
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

/// Pivot budget per phase. Bland's rule cannot cycle in exact arithmetic,
/// so this is purely a backstop against absurdly large instances.
const MAX_PIVOTS: usize = 20_000;

/// Where each input row's dual multiplier lives in the final z-row:
/// `y_i = sign * z[col]` (for the *normalized* row orientation).
struct DualSlot {
    col: usize,
    sign: i64,
    /// Whether the row was negated to make its rhs non-negative; the
    /// reported dual is un-flipped accordingly.
    flipped: bool,
    /// The phase-1 slot: for rows with an artificial column `a`, the
    /// phase-1 dual is `1 - z1[a]`; for plain `≤` rows it is `-z1[slack]`.
    art: Option<usize>,
}

/// `row -= factor · pivot_row`, skipping the exact zeros of `pivot_row`
/// (most of a tableau row), where the update would leave `row` unchanged.
fn eliminate(row: &mut [Rat], factor: Rat, pivot_row: &[Rat]) -> Result<(), CertError> {
    for (v, p) in row.iter_mut().zip(pivot_row) {
        if !p.is_zero() {
            *v = v.checked_sub(factor.checked_mul(*p)?)?;
        }
    }
    Ok(())
}

struct XTableau {
    /// `m × (n_cols + 1)` rows, last column is the RHS.
    rows: Vec<Vec<Rat>>,
    /// Reduced-cost row, length `n_cols + 1`.
    z: Vec<Rat>,
    basis: Vec<usize>,
    n_cols: usize,
}

impl XTableau {
    fn pivot(&mut self, row: usize, col: usize) -> Result<(), CertError> {
        let piv = self.rows[row][col];
        debug_assert!(!piv.is_zero(), "exact pivot on zero");
        for v in self.rows[row].iter_mut() {
            *v = v.checked_div(piv)?;
        }
        let pivot_row = self.rows[row].clone();
        for (r, current) in self.rows.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = current[col];
            if factor.is_zero() {
                continue;
            }
            eliminate(current, factor, &pivot_row)?;
        }
        let factor = self.z[col];
        if !factor.is_zero() {
            eliminate(&mut self.z, factor, &pivot_row)?;
        }
        self.basis[row] = col;
        Ok(())
    }

    /// Bland's rule pivot loop over the first `allowed_cols` columns.
    /// `Ok(true)` = optimal, `Ok(false)` = unbounded.
    fn optimize(&mut self, allowed_cols: usize) -> Result<bool, CertError> {
        for _ in 0..MAX_PIVOTS {
            let Some(col) = (0..allowed_cols).find(|&c| self.z[c].is_negative()) else {
                return Ok(true);
            };
            let mut best: Option<(Rat, usize, usize)> = None; // (ratio, basis var, row)
            for (r, row) in self.rows.iter().enumerate() {
                if row[col].is_positive() {
                    let ratio = row[self.n_cols].checked_div(row[col])?;
                    let better = match &best {
                        None => true,
                        Some((br, bb, _)) => ratio < *br || (ratio == *br && self.basis[r] < *bb),
                    };
                    if better {
                        best = Some((ratio, self.basis[r], r));
                    }
                }
            }
            let Some((_, _, row)) = best else {
                return Ok(false);
            };
            self.pivot(row, col)?;
        }
        Err(CertError::PivotLimit)
    }
}

/// Solve an exact minimization LP with the two-phase primal simplex method
/// and extract the dual (or Farkas) certificate from the final tableau.
pub(crate) fn solve_exact(lp: &RatLp) -> Result<XlpOutcome, CertError> {
    let n = lp.n_vars;
    let m = lp.rows.len();
    debug_assert!(lp.objective.len() == n);

    // Normalize rows to rhs ≥ 0, remembering which were negated.
    struct Norm {
        coeffs: Vec<Rat>,
        rel: Relation,
        rhs: Rat,
        flipped: bool,
    }
    let mut norm = Vec::with_capacity(m);
    for row in &lp.rows {
        debug_assert!(row.coeffs.len() == n);
        if row.rhs.is_negative() {
            let coeffs = row
                .coeffs
                .iter()
                .map(|c| c.checked_neg())
                .collect::<Result<Vec<_>, _>>()?;
            let rel = match row.rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            norm.push(Norm {
                coeffs,
                rel,
                rhs: row.rhs.checked_neg()?,
                flipped: true,
            });
        } else {
            norm.push(Norm {
                coeffs: row.coeffs.clone(),
                rel: row.rel,
                rhs: row.rhs,
                flipped: false,
            });
        }
    }

    let n_slack = norm
        .iter()
        .filter(|r| matches!(r.rel, Relation::Le | Relation::Ge))
        .count();
    let n_art = norm
        .iter()
        .filter(|r| matches!(r.rel, Relation::Eq | Relation::Ge))
        .count();
    let n_cols = n + n_slack + n_art;

    let mut tab = XTableau {
        rows: Vec::with_capacity(m),
        z: vec![Rat::ZERO; n_cols + 1],
        basis: Vec::with_capacity(m),
        n_cols,
    };
    let mut slots = Vec::with_capacity(m);
    let mut art_cols = Vec::new();
    let mut next_slack = n;
    let mut next_art = n + n_slack;
    for r in &norm {
        let mut row = vec![Rat::ZERO; n_cols + 1];
        row[..n].copy_from_slice(&r.coeffs);
        row[n_cols] = r.rhs;
        match r.rel {
            Relation::Le => {
                row[next_slack] = Rat::ONE;
                tab.basis.push(next_slack);
                // z[slack] = 0 - y·e_i  ⟹  y_i = -z[slack].
                slots.push(DualSlot {
                    col: next_slack,
                    sign: -1,
                    flipped: r.flipped,
                    art: None,
                });
                next_slack += 1;
            }
            Relation::Ge => {
                row[next_slack] = Rat::new(-1, 1).expect("valid literal");
                // z[surplus] = 0 - y·(-e_i)  ⟹  y_i = +z[surplus].
                slots.push(DualSlot {
                    col: next_slack,
                    sign: 1,
                    flipped: r.flipped,
                    art: Some(next_art),
                });
                next_slack += 1;
                row[next_art] = Rat::ONE;
                tab.basis.push(next_art);
                art_cols.push(next_art);
                next_art += 1;
            }
            Relation::Eq => {
                row[next_art] = Rat::ONE;
                tab.basis.push(next_art);
                art_cols.push(next_art);
                // z[art] = 0 - y·e_i  ⟹  y_i = -z[art] (phase-2 cost 0).
                slots.push(DualSlot {
                    col: next_art,
                    sign: -1,
                    flipped: r.flipped,
                    art: Some(next_art),
                });
                next_art += 1;
            }
        }
        tab.rows.push(row);
    }

    // Phase 1: minimize the artificial sum.
    if !art_cols.is_empty() {
        for &a in &art_cols {
            tab.z[a] = Rat::ONE;
        }
        for (r, &b) in tab.basis.clone().iter().enumerate() {
            if !tab.z[b].is_zero() {
                let factor = tab.z[b];
                eliminate(&mut tab.z, factor, &tab.rows[r])?;
            }
        }
        let bounded = tab.optimize(n_cols)?;
        debug_assert!(bounded, "artificial sum is bounded below by zero");
        let phase1_obj = tab.z[n_cols].checked_neg()?;
        if phase1_obj.is_positive() {
            // Infeasible: the phase-1 duals are a Farkas certificate. For a
            // row with artificial column a, y_i = 1 - z1[a]; for a plain ≤
            // row, y_i = -z1[slack]. Un-flip negated rows.
            let mut farkas = Vec::with_capacity(m);
            for slot in &slots {
                let y = match slot.art {
                    Some(a) => Rat::ONE.checked_sub(tab.z[a])?,
                    None => tab.z[slot.col].checked_neg()?,
                };
                farkas.push(if slot.flipped { y.checked_neg()? } else { y });
            }
            return Ok(XlpOutcome::Infeasible { farkas });
        }
        // Drive leftover (degenerate, value-zero) artificials out.
        for r in 0..tab.rows.len() {
            if art_cols.contains(&tab.basis[r]) {
                if let Some(col) = (0..n + n_slack).find(|&c| !tab.rows[r][c].is_zero()) {
                    tab.pivot(r, col)?;
                }
                // else: redundant row; the artificial stays basic at zero
                // and its phase-2 reduced cost stays zero (dual 0).
            }
        }
    }

    // Phase 2: install the real objective, priced out over the basis;
    // artificials are excluded from the entering-column search but their
    // z entries keep being updated, which is what the duals read.
    tab.z = vec![Rat::ZERO; n_cols + 1];
    tab.z[..n].copy_from_slice(&lp.objective);
    let allowed = n + n_slack;
    for (r, &b) in tab.basis.clone().iter().enumerate() {
        if !tab.z[b].is_zero() {
            let factor = tab.z[b];
            eliminate(&mut tab.z, factor, &tab.rows[r])?;
        }
    }
    if !tab.optimize(allowed)? {
        return Ok(XlpOutcome::Unbounded);
    }

    let mut x = vec![Rat::ZERO; n];
    for (r, &b) in tab.basis.iter().enumerate() {
        if b < n {
            x[b] = tab.rows[r][n_cols];
        }
    }
    let mut y = Vec::with_capacity(m);
    for slot in &slots {
        let mut v = tab.z[slot.col];
        if slot.sign < 0 {
            v = v.checked_neg()?;
        }
        if slot.flipped {
            v = v.checked_neg()?;
        }
        y.push(v);
    }
    let mut obj = Rat::ZERO;
    for (c, v) in lp.objective.iter().zip(&x) {
        obj = obj.checked_add(c.checked_mul(*v)?)?;
    }
    Ok(XlpOutcome::Optimal { x, y, obj })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rat {
        Rat::new(n, d).unwrap()
    }

    fn row(coeffs: Vec<i128>, rel: Relation, rhs: i128) -> RatRow {
        RatRow {
            coeffs: coeffs.into_iter().map(|c| r(c, 1)).collect(),
            rel,
            rhs: r(rhs, 1),
        }
    }

    /// Brute-force dual/weak-duality validation of an Optimal outcome.
    fn assert_duality(lp: &RatLp, out: &XlpOutcome) {
        let XlpOutcome::Optimal { x, y, obj } = out else {
            panic!("expected optimal, got {out:?}");
        };
        // Primal feasibility.
        for rw in &lp.rows {
            let mut lhs = Rat::ZERO;
            for (c, v) in rw.coeffs.iter().zip(x) {
                lhs = lhs.checked_add(c.checked_mul(*v).unwrap()).unwrap();
            }
            match rw.rel {
                Relation::Le => assert!(lhs <= rw.rhs),
                Relation::Ge => assert!(lhs >= rw.rhs),
                Relation::Eq => assert_eq!(lhs, rw.rhs),
            }
        }
        // Dual sign conventions + feasibility Aᵀy ≤ c.
        for (rw, yi) in lp.rows.iter().zip(y) {
            match rw.rel {
                Relation::Le => assert!(!yi.is_positive(), "≤ row dual must be ≤ 0"),
                Relation::Ge => assert!(!yi.is_negative(), "≥ row dual must be ≥ 0"),
                Relation::Eq => {}
            }
        }
        for j in 0..lp.n_vars {
            let mut col = Rat::ZERO;
            for (rw, yi) in lp.rows.iter().zip(y) {
                col = col
                    .checked_add(rw.coeffs[j].checked_mul(*yi).unwrap())
                    .unwrap();
            }
            assert!(col <= lp.objective[j], "dual infeasible at var {j}");
        }
        // Strong duality at the optimum.
        let mut yb = Rat::ZERO;
        for (rw, yi) in lp.rows.iter().zip(y) {
            yb = yb.checked_add(rw.rhs.checked_mul(*yi).unwrap()).unwrap();
        }
        assert_eq!(yb, *obj, "c·x != y·b");
    }

    #[test]
    fn textbook_min_with_ge() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≤ 8, y ≤ 8  ⟹  (8, 2), obj 22.
        let lp = RatLp {
            n_vars: 2,
            objective: vec![r(2, 1), r(3, 1)],
            rows: vec![
                row(vec![1, 1], Relation::Ge, 10),
                row(vec![1, 0], Relation::Le, 8),
                row(vec![0, 1], Relation::Le, 8),
            ],
        };
        let out = solve_exact(&lp).unwrap();
        assert_duality(&lp, &out);
        let XlpOutcome::Optimal { x, obj, .. } = out else {
            unreachable!()
        };
        assert_eq!(obj, r(22, 1));
        assert_eq!(x, vec![r(8, 1), r(2, 1)]);
    }

    #[test]
    fn equalities_and_fractional_optimum() {
        // min x + 2y s.t. x + y = 5, x - y = 1 ⟹ (3, 2), obj 7; and a
        // fractional variant via rational rhs.
        let lp = RatLp {
            n_vars: 2,
            objective: vec![r(1, 1), r(2, 1)],
            rows: vec![
                row(vec![1, 1], Relation::Eq, 5),
                row(vec![1, -1], Relation::Eq, 1),
            ],
        };
        let out = solve_exact(&lp).unwrap();
        assert_duality(&lp, &out);
        let XlpOutcome::Optimal { obj, .. } = out else {
            unreachable!()
        };
        assert_eq!(obj, r(7, 1));

        let lp2 = RatLp {
            n_vars: 1,
            objective: vec![r(3, 1)],
            rows: vec![RatRow {
                coeffs: vec![r(2, 1)],
                rel: Relation::Ge,
                rhs: r(1, 3),
            }],
        };
        let out2 = solve_exact(&lp2).unwrap();
        assert_duality(&lp2, &out2);
        let XlpOutcome::Optimal { obj, .. } = out2 else {
            unreachable!()
        };
        assert_eq!(obj, r(1, 2)); // 3 · (1/6)
    }

    #[test]
    fn infeasible_yields_valid_farkas() {
        // x ≥ 5 and x ≤ 3: Farkas combination must prove emptiness.
        let lp = RatLp {
            n_vars: 1,
            objective: vec![r(1, 1)],
            rows: vec![row(vec![1], Relation::Ge, 5), row(vec![1], Relation::Le, 3)],
        };
        let XlpOutcome::Infeasible { farkas } = solve_exact(&lp).unwrap() else {
            panic!("expected infeasible");
        };
        // Sign conventions.
        assert!(!farkas[0].is_negative());
        assert!(!farkas[1].is_positive());
        // Aᵀy ≤ 0 and y·b > 0.
        let col = farkas[0].checked_add(farkas[1]).unwrap();
        assert!(!col.is_positive());
        let yb = farkas[0]
            .checked_mul(r(5, 1))
            .unwrap()
            .checked_add(farkas[1].checked_mul(r(3, 1)).unwrap())
            .unwrap();
        assert!(yb.is_positive());
    }

    #[test]
    fn negative_rhs_unflips_duals() {
        // min x s.t. -x ≤ -4 (x ≥ 4): the row gets normalized; the reported
        // dual must still certify against the ORIGINAL orientation.
        let lp = RatLp {
            n_vars: 1,
            objective: vec![r(1, 1)],
            rows: vec![row(vec![-1], Relation::Le, -4)],
        };
        let out = solve_exact(&lp).unwrap();
        assert_duality(&lp, &out);
        let XlpOutcome::Optimal { x, obj, .. } = out else {
            unreachable!()
        };
        assert_eq!(x, vec![r(4, 1)]);
        assert_eq!(obj, r(4, 1));
    }

    #[test]
    fn unbounded_detected() {
        // min -x with x ≥ 1 only.
        let lp = RatLp {
            n_vars: 1,
            objective: vec![r(-1, 1)],
            rows: vec![row(vec![1], Relation::Ge, 1)],
        };
        assert!(matches!(solve_exact(&lp), Ok(XlpOutcome::Unbounded)));
    }

    #[test]
    fn degenerate_beale_terminates_exactly() {
        // The Beale cycling instance, exact: Bland's rule must terminate at
        // the known optimum 1/20 (min form: -1/20).
        let lp = RatLp {
            n_vars: 4,
            objective: vec![r(-3, 4), r(150, 1), r(-1, 50), r(6, 1)],
            rows: vec![
                RatRow {
                    coeffs: vec![r(1, 4), r(-60, 1), r(-1, 25), r(9, 1)],
                    rel: Relation::Le,
                    rhs: Rat::ZERO,
                },
                RatRow {
                    coeffs: vec![r(1, 2), r(-90, 1), r(-1, 50), r(3, 1)],
                    rel: Relation::Le,
                    rhs: Rat::ZERO,
                },
                row(vec![0, 0, 1, 0], Relation::Le, 1),
            ],
        };
        let out = solve_exact(&lp).unwrap();
        assert_duality(&lp, &out);
        let XlpOutcome::Optimal { obj, .. } = out else {
            unreachable!()
        };
        assert_eq!(obj, r(-1, 20));
    }

    #[test]
    fn redundant_equalities_leave_zero_duals() {
        // x + y = 4 twice; min y ⟹ optimum 0. The redundant row's
        // artificial stays basic at zero and its dual must be zero-safe.
        let lp = RatLp {
            n_vars: 2,
            objective: vec![r(0, 1), r(1, 1)],
            rows: vec![
                row(vec![1, 1], Relation::Eq, 4),
                row(vec![2, 2], Relation::Eq, 8),
            ],
        };
        let out = solve_exact(&lp).unwrap();
        assert_duality(&lp, &out);
    }
}
