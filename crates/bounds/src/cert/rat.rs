//! Overflow-checked exact rational arithmetic on `i128` numerators and
//! denominators.
//!
//! This is deliberately *not* a general bignum: the certified bound LPs are
//! built from integer-nanosecond kernel times (denominator `10^9`, reduced
//! by gcd), so every quantity the solver and checker touch fits easily in
//! `i128` after cross-reduction. Rather than silently wrapping or promoting,
//! every operation is checked and an [`CertError::Overflow`] is reported —
//! a certificate that cannot be computed exactly is *no certificate*, never
//! a wrong one.
//!
//! # Two paths, one answer
//!
//! [`Rat::new`], `checked_add`/`checked_sub` and `checked_mul`/`checked_div`
//! work in machine words whenever every numerator and denominator involved
//! fits an `i64`:
//!
//! - the gcd is binary, on `u64` (shifts and subtractions, no 128-bit
//!   division);
//! - a sum `a/b + c/d` is reduced by `g = gcd(b, d)` first and then by
//!   `gcd(t mod g, g)` (Knuth, TAOCP §4.5.1), not by a gcd of the full
//!   result;
//! - a cross-reduced product of canonical operands is already canonical;
//! - an exact zero operand returns at once, on either path.
//!
//! Any larger part takes the `i128` code: Euclid's gcd, checked products
//! and a final [`Rat::new`]. Certifying and checking the digest grid of
//! `tests/cert.rs` ({mirage, cpu-only} × {Cholesky, LU, QR} × n ∈ {2, 4,
//! 5, 8, 12, 16, 24, 32}) sends 1.6% of its nonzero sums and 0.03% of its
//! nonzero products there, all on mirage (at most 16% of one cell's sums,
//! LU at n = 8); the Cholesky n = 5 bounds on mirage never leave words.
//!
//! Both paths return the same `Result`. The canonical form is unique, so
//! the values agree. From `i64` parts no `i128` step can overflow
//! (products stay below 2^126, sums below 2^127), so the word path never
//! skips an `Overflow` the `i128` code would report; a result that lands
//! exactly on `i128::MIN` needs larger parts, and keeps its `Overflow`. A
//! differential test checks both against a verbatim copy of the
//! `i128`-only arithmetic, on operands from 0 to `±i128::MAX`.
//!
//! On a 2-vCPU Xeon VM (six alternations, median of 50 each), certifying
//! the Cholesky n = 5 bounds on mirage took 4.5–6.9 ms with the `i128`
//! code alone and 0.79–1.25 ms with both paths (median 5.5× per pair);
//! checking that certificate took 0.49–0.78 and 0.078–0.132 ms (median
//! 5.9×).

use std::cmp::Ordering;
use std::fmt;

/// Failure of exact certificate construction or checking arithmetic.
///
/// None of these mean "the bound is wrong": they mean no exact statement
/// could be produced, and callers must degrade to the uncertified f64 path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// An exact numerator or denominator left the `i128` range. The module
    /// has no bignum promotion by design (offline, dependency-free); the
    /// error is explicit instead.
    Overflow,
    /// A zero denominator or division by an exact zero.
    DivisionByZero,
    /// The exact simplex exceeded its pivot budget. Bland's rule makes
    /// cycling impossible in exact arithmetic, so this only guards
    /// pathologically large instances.
    PivotLimit,
    /// A leaf LP was unbounded below; the bound LPs are bounded by
    /// construction (`l ≥ 0` with positive times), so this indicates a
    /// malformed problem rather than a property of the paper's bounds.
    Unbounded,
    /// Every branch-and-bound leaf was infeasible: the integer program has
    /// no solution, so there is no finite bound to certify.
    Infeasible,
    /// A float could not be represented exactly (non-finite input).
    NotRepresentable,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Overflow => write!(f, "exact arithmetic overflowed i128"),
            CertError::DivisionByZero => write!(f, "exact division by zero"),
            CertError::PivotLimit => write!(f, "exact simplex exceeded its pivot budget"),
            CertError::Unbounded => write!(f, "exact LP is unbounded"),
            CertError::Infeasible => write!(f, "integer program is infeasible"),
            CertError::NotRepresentable => write!(f, "value is not exactly representable"),
        }
    }
}

impl std::error::Error for CertError {}

/// An exact rational `num/den` with `den > 0`, always gcd-reduced.
///
/// Equality and ordering are exact; `PartialEq`/`Eq` can be derived because
/// the representation is canonical.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    // Plain Euclid on magnitudes; inputs are pre-checked to be < i128::MAX
    // in magnitude so `abs` cannot overflow.
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Binary (Stein) gcd: shifts and subtractions only, no division.
fn gcd_word(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rat {
    /// Exact zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// Exact one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Build `num/den` in canonical form (`den > 0`, reduced).
    pub fn new(num: i128, den: i128) -> Result<Rat, CertError> {
        if den == 0 {
            return Err(CertError::DivisionByZero);
        }
        if let (Ok(n), Ok(d)) = (i64::try_from(num), i64::try_from(den)) {
            let g = gcd_word(n.unsigned_abs(), d.unsigned_abs());
            let n_mag = i128::from(n.unsigned_abs() / g);
            return Ok(Rat {
                num: if (n < 0) != (d < 0) { -n_mag } else { n_mag },
                den: i128::from(d.unsigned_abs() / g),
            });
        }
        // i128::MIN has no magnitude in-range; reject rather than wrap.
        if num == i128::MIN || den == i128::MIN {
            return Err(CertError::Overflow);
        }
        let sign = if (num < 0) != (den < 0) { -1 } else { 1 };
        let (num, den) = (num.abs(), den.abs());
        let g = gcd(num, den);
        Ok(Rat {
            num: sign * (num / g),
            den: den / g,
        })
    }

    /// Exact integer.
    pub fn from_int(v: i64) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }

    /// Exact seconds from an integer nanosecond count (the repo's `Time`
    /// representation), i.e. `ns / 10^9`.
    pub fn from_nanos(ns: u64) -> Rat {
        Rat::new(ns as i128, 1_000_000_000).expect("10^9 denominator is valid")
    }

    /// Exact value of a finite f64 (every finite f64 is a dyadic rational).
    /// Fails with [`CertError::NotRepresentable`] on NaN/infinity and with
    /// [`CertError::Overflow`] when the dyadic form exceeds `i128`.
    pub fn try_from_f64(v: f64) -> Result<Rat, CertError> {
        if !v.is_finite() {
            return Err(CertError::NotRepresentable);
        }
        let mut scaled = v;
        let mut den: i128 = 1;
        while scaled.fract() != 0.0 {
            scaled *= 2.0;
            den = den.checked_mul(2).ok_or(CertError::Overflow)?;
        }
        if scaled.abs() >= i128::MAX as f64 {
            return Err(CertError::Overflow);
        }
        Rat::new(scaled as i128, den)
    }

    /// Numerator (canonical form).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (canonical form, always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// `self == 0`.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `self < 0`.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// `self > 0`.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Nearest f64 (for reporting only; never used in verification).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact negation.
    pub fn checked_neg(self) -> Result<Rat, CertError> {
        Ok(Rat {
            num: self.num.checked_neg().ok_or(CertError::Overflow)?,
            den: self.den,
        })
    }

    /// `(num, den)` as machine words, when both fit an `i64` (`den > 0`,
    /// so it also fits a `u64`).
    fn words(self) -> Option<(i64, u64)> {
        let num = i64::try_from(self.num).ok()?;
        let den = i64::try_from(self.den).ok()?;
        Some((num, den as u64))
    }

    /// `a/b + c/d` of canonical word-sized operands, reduced as in Knuth,
    /// TAOCP §4.5.1: by `g = gcd(b, d)` first, then by `gcd(t mod g, g)`,
    /// which leaves the result canonical (zero included: `t = 0` only when
    /// `b = d = g`). `|t| < 2^127` and `b·d < 2^126`, so nothing here can
    /// overflow.
    fn add_words(a: i64, b: u64, c: i64, d: u64) -> Rat {
        let g = gcd_word(b, d);
        let (bg, dg) = (b / g, d / g);
        let t = i128::from(a) * i128::from(dg) + i128::from(c) * i128::from(bg);
        let g2 = gcd_word((t.unsigned_abs() % u128::from(g)) as u64, g);
        Rat {
            num: t / i128::from(g2),
            den: i128::from(bg) * i128::from(d / g2),
        }
    }

    /// Exact sum. Cross-reduces by `gcd(den, den)` first to delay overflow.
    pub fn checked_add(self, o: Rat) -> Result<Rat, CertError> {
        if self.is_zero() {
            return Ok(o);
        }
        if o.is_zero() {
            return Ok(self);
        }
        if let (Some((a, b)), Some((c, d))) = (self.words(), o.words()) {
            return Ok(Rat::add_words(a, b, c, d));
        }
        let g = gcd(self.den, o.den);
        let (da, db) = (self.den / g, o.den / g);
        let l = self.num.checked_mul(db).ok_or(CertError::Overflow)?;
        let r = o.num.checked_mul(da).ok_or(CertError::Overflow)?;
        let num = l.checked_add(r).ok_or(CertError::Overflow)?;
        let den = self.den.checked_mul(db).ok_or(CertError::Overflow)?;
        Rat::new(num, den)
    }

    /// Exact difference.
    pub fn checked_sub(self, o: Rat) -> Result<Rat, CertError> {
        self.checked_add(o.checked_neg()?)
    }

    /// Exact product. Cross-reduces `num/den'` and `num'/den` first.
    pub fn checked_mul(self, o: Rat) -> Result<Rat, CertError> {
        if self.is_zero() || o.is_zero() {
            return Ok(Rat::ZERO);
        }
        if let (Some((a, b)), Some((c, d))) = (self.words(), o.words()) {
            // Canonical operands, cross-reduced: the product is canonical,
            // and `|num|, den < 2^126` cannot overflow. `g1 ≤ d` and
            // `g2 ≤ b` fit an `i64`.
            let g1 = gcd_word(a.unsigned_abs(), d);
            let g2 = gcd_word(c.unsigned_abs(), b);
            return Ok(Rat {
                num: i128::from(a / g1 as i64) * i128::from(c / g2 as i64),
                den: i128::from(b / g2) * i128::from(d / g1),
            });
        }
        let g1 = gcd(self.num, o.den);
        let g2 = gcd(o.num, self.den);
        let (g1, g2) = (g1.max(1), g2.max(1));
        let num = (self.num / g1)
            .checked_mul(o.num / g2)
            .ok_or(CertError::Overflow)?;
        let den = (self.den / g2)
            .checked_mul(o.den / g1)
            .ok_or(CertError::Overflow)?;
        Rat::new(num, den)
    }

    /// Exact quotient.
    pub fn checked_div(self, o: Rat) -> Result<Rat, CertError> {
        if o.is_zero() {
            return Err(CertError::DivisionByZero);
        }
        self.checked_mul(Rat {
            num: o.den * o.num.signum(),
            den: o.num.abs(),
        })
    }
}

/// Exact comparison of `an/ad` vs `bn/bd` (`ad, bd > 0`, `an, bn ≥ 0`)
/// without cross-multiplying: compare integer parts, then recurse on the
/// reciprocals of the fractional remainders (the continued-fraction
/// expansion). Terminates because the denominators strictly shrink.
fn cmp_nonneg(an: i128, ad: i128, bn: i128, bd: i128) -> Ordering {
    let (qa, qb) = (an / ad, bn / bd);
    if qa != qb {
        return qa.cmp(&qb);
    }
    let (ra, rb) = (an % ad, bn % bd);
    match (ra == 0, rb == 0) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        // fa = ra/ad and fb = rb/bd are in (0,1); fa < fb ⟺ ad/ra > bd/rb.
        (false, false) => cmp_nonneg(bd, rb, ad, ra),
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Sign fast paths keep the recursion on non-negative operands.
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => return a.cmp(&b),
            (0, 0) => return Ordering::Equal,
            _ => {}
        }
        if self.num >= 0 {
            cmp_nonneg(self.num, self.den, other.num, other.den)
        } else {
            cmp_nonneg(-other.num, other.den, -self.num, self.den)
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i128, d: i128) -> Rat {
        Rat::new(n, d).unwrap()
    }

    #[test]
    fn canonical_form() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rat::ZERO);
        assert_eq!(r(6, 3).to_string(), "2");
        assert_eq!(r(-1, 3).to_string(), "-1/3");
    }

    #[test]
    fn arithmetic_identities() {
        let a = r(1, 3);
        let b = r(1, 6);
        assert_eq!(a.checked_add(b).unwrap(), r(1, 2));
        assert_eq!(a.checked_sub(b).unwrap(), b);
        assert_eq!(a.checked_mul(b).unwrap(), r(1, 18));
        assert_eq!(a.checked_div(b).unwrap(), r(2, 1));
        assert_eq!(a.checked_neg().unwrap(), r(-1, 3));
    }

    #[test]
    fn explicit_errors() {
        assert_eq!(Rat::new(1, 0), Err(CertError::DivisionByZero));
        assert_eq!(
            r(1, 2).checked_div(Rat::ZERO),
            Err(CertError::DivisionByZero)
        );
        let huge = r(i128::MAX, 1);
        assert_eq!(huge.checked_add(Rat::ONE), Err(CertError::Overflow));
        assert_eq!(huge.checked_mul(r(2, 1)), Err(CertError::Overflow));
        assert_eq!(
            Rat::try_from_f64(f64::NAN),
            Err(CertError::NotRepresentable)
        );
        assert_eq!(
            Rat::try_from_f64(f64::INFINITY),
            Err(CertError::NotRepresentable)
        );
    }

    #[test]
    fn nanos_and_dyadic_conversions() {
        assert_eq!(Rat::from_nanos(500_000_000), r(1, 2));
        assert_eq!(Rat::from_nanos(0), Rat::ZERO);
        assert_eq!(Rat::try_from_f64(0.25).unwrap(), r(1, 4));
        assert_eq!(Rat::try_from_f64(-3.0).unwrap(), r(-3, 1));
        // 0.1 is not exactly 1/10 in binary: the dyadic expansion is exact.
        let tenth = Rat::try_from_f64(0.1).unwrap();
        assert_ne!(tenth, r(1, 10));
        assert_eq!(tenth.to_f64(), 0.1);
    }

    #[test]
    fn comparison_survives_cross_multiplication_overflow() {
        // Denominators near 2^63: naive cross-multiplication would overflow
        // i128; the continued-fraction comparison must not.
        let big = 1i128 << 100;
        let a = r(big + 1, big);
        let b = r(big + 2, big + 1);
        // (big+1)/big > (big+2)/(big+1)  ⟺  (big+1)^2 > big(big+2)  (true).
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(r(-1, big) < r(1, big + 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cmp_matches_f64_on_small_rationals(
            an in -1000i64..1000, ad in 1i64..1000,
            bn in -1000i64..1000, bd in 1i64..1000,
        ) {
            let a = r(an as i128, ad as i128);
            let b = r(bn as i128, bd as i128);
            let exact = a.cmp(&b);
            let float = (an as f64 / ad as f64)
                .partial_cmp(&(bn as f64 / bd as f64))
                .unwrap();
            // f64 is exact for these magnitudes only when the quotients are
            // distinguishable; equality is exact in both.
            if a != b {
                prop_assert_eq!(exact, float);
            } else {
                prop_assert_eq!(exact, Ordering::Equal);
            }
        }

        #[test]
        fn field_axioms_hold(
            an in -100i64..100, ad in 1i64..100,
            bn in -100i64..100, bd in 1i64..100,
        ) {
            let a = r(an as i128, ad as i128);
            let b = r(bn as i128, bd as i128);
            prop_assert_eq!(
                a.checked_add(b).unwrap(),
                b.checked_add(a).unwrap()
            );
            prop_assert_eq!(
                a.checked_sub(b).unwrap().checked_add(b).unwrap(),
                a
            );
            prop_assert_eq!(
                a.checked_mul(b).unwrap(),
                b.checked_mul(a).unwrap()
            );
            if !b.is_zero() {
                prop_assert_eq!(
                    a.checked_div(b).unwrap().checked_mul(b).unwrap(),
                    a
                );
            }
        }
    }
}

/// The word-sized paths against the arithmetic they replaced: every
/// operation must return the parent's `Result` exactly, the same value or
/// the same [`CertError`] variant.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng as _;
    use rand::RngCore as _;

    /// The `i128`-only `Rat` this module had before the word-sized paths,
    /// copied verbatim; only the type's name differs.
    mod parent {
        use super::super::CertError;
        use std::cmp::Ordering;

        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        pub struct ParentRat {
            pub num: i128,
            pub den: i128,
        }

        fn gcd(mut a: i128, mut b: i128) -> i128 {
            // Plain Euclid on magnitudes; inputs are pre-checked to be < i128::MAX
            // in magnitude so `abs` cannot overflow.
            a = a.abs();
            b = b.abs();
            while b != 0 {
                let r = a % b;
                a = b;
                b = r;
            }
            a
        }

        impl ParentRat {
            pub fn new(num: i128, den: i128) -> Result<ParentRat, CertError> {
                if den == 0 {
                    return Err(CertError::DivisionByZero);
                }
                // i128::MIN has no magnitude in-range; reject rather than wrap.
                if num == i128::MIN || den == i128::MIN {
                    return Err(CertError::Overflow);
                }
                let sign = if (num < 0) != (den < 0) { -1 } else { 1 };
                let (num, den) = (num.abs(), den.abs());
                let g = gcd(num, den);
                Ok(ParentRat {
                    num: sign * (num / g),
                    den: den / g,
                })
            }

            pub fn is_zero(&self) -> bool {
                self.num == 0
            }

            pub fn checked_neg(self) -> Result<ParentRat, CertError> {
                Ok(ParentRat {
                    num: self.num.checked_neg().ok_or(CertError::Overflow)?,
                    den: self.den,
                })
            }

            pub fn checked_add(self, o: ParentRat) -> Result<ParentRat, CertError> {
                let g = gcd(self.den, o.den);
                let (da, db) = (self.den / g, o.den / g);
                let l = self.num.checked_mul(db).ok_or(CertError::Overflow)?;
                let r = o.num.checked_mul(da).ok_or(CertError::Overflow)?;
                let num = l.checked_add(r).ok_or(CertError::Overflow)?;
                let den = self.den.checked_mul(db).ok_or(CertError::Overflow)?;
                ParentRat::new(num, den)
            }

            pub fn checked_sub(self, o: ParentRat) -> Result<ParentRat, CertError> {
                self.checked_add(o.checked_neg()?)
            }

            pub fn checked_mul(self, o: ParentRat) -> Result<ParentRat, CertError> {
                let g1 = gcd(self.num, o.den);
                let g2 = gcd(o.num, self.den);
                let (g1, g2) = (g1.max(1), g2.max(1));
                let num = (self.num / g1)
                    .checked_mul(o.num / g2)
                    .ok_or(CertError::Overflow)?;
                let den = (self.den / g2)
                    .checked_mul(o.den / g1)
                    .ok_or(CertError::Overflow)?;
                ParentRat::new(num, den)
            }

            pub fn checked_div(self, o: ParentRat) -> Result<ParentRat, CertError> {
                if o.is_zero() {
                    return Err(CertError::DivisionByZero);
                }
                self.checked_mul(ParentRat {
                    num: o.den * o.num.signum(),
                    den: o.num.abs(),
                })
            }
        }

        fn cmp_nonneg(an: i128, ad: i128, bn: i128, bd: i128) -> Ordering {
            let (qa, qb) = (an / ad, bn / bd);
            if qa != qb {
                return qa.cmp(&qb);
            }
            let (ra, rb) = (an % ad, bn % bd);
            match (ra == 0, rb == 0) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                // fa = ra/ad and fb = rb/bd are in (0,1); fa < fb ⟺ ad/ra > bd/rb.
                (false, false) => cmp_nonneg(bd, rb, ad, ra),
            }
        }

        impl Ord for ParentRat {
            fn cmp(&self, other: &ParentRat) -> Ordering {
                // Sign fast paths keep the recursion on non-negative operands.
                match (self.num.signum(), other.num.signum()) {
                    (a, b) if a != b => return a.cmp(&b),
                    (0, 0) => return Ordering::Equal,
                    _ => {}
                }
                if self.num >= 0 {
                    cmp_nonneg(self.num, self.den, other.num, other.den)
                } else {
                    cmp_nonneg(-other.num, other.den, -self.num, self.den)
                }
            }
        }

        impl PartialOrd for ParentRat {
            fn partial_cmp(&self, other: &ParentRat) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
    }

    use parent::ParentRat;

    /// Both implementations' answers in one comparable form.
    fn parts(r: Result<Rat, CertError>) -> Result<(i128, i128), CertError> {
        r.map(|r| (r.num, r.den))
    }

    fn parent_parts(r: Result<ParentRat, CertError>) -> Result<(i128, i128), CertError> {
        r.map(|r| (r.num, r.den))
    }

    /// A numerator or denominator from one of five classes, either sign:
    /// 0 and ±1; below 2^20; the `i64` edge, 2^62 to 2^63 + 2^10 (half of
    /// it within 2^10 of 2^63); 2^100 to 2^126; and `±i128::MAX` (the
    /// negative one is `i128::MIN + 1`).
    struct Operand;

    impl Strategy for Operand {
        type Value = i128;
        fn sample(&self, rng: &mut proptest::TestRng) -> i128 {
            let mag: i128 = match rng.gen_range(0..5) {
                0 => i128::from(rng.gen_range(0..=1u64)),
                1 => i128::from(rng.gen_range(0..1u64 << 20)),
                // Half of these within 2^10 of 2^63, where `i64` ends.
                2 if rng.gen_bool(0.5) => {
                    (1 << 63) - (1 << 10) + i128::from(rng.gen_range(0..=2048u64))
                }
                2 => (1 << 62) + i128::from(rng.gen_range(0..=(1u64 << 62) + (1 << 10))),
                3 => {
                    let e = rng.gen_range(100..=126);
                    let bits = i128::from(rng.next_u64()) << 64 | i128::from(rng.next_u64());
                    if e == 126 {
                        1 << 126
                    } else {
                        (1 << e) | (bits & ((1 << e) - 1))
                    }
                }
                _ => i128::MAX,
            };
            if rng.gen_bool(0.5) {
                -mag
            } else {
                mag
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        /// Each case checks `new` on `an/ad`, then every operation on
        /// `an/ad` with `bn/bd`, with `bn/ad` (a shared denominator before
        /// reduction, so sums take the `gcd(b, d) > 1` branch) and with
        /// itself (exact zeros and cancellations).
        #[test]
        fn word_paths_return_the_parent_results(
            an in Operand, ad in Operand, bn in Operand, bd in Operand,
        ) {
            prop_assert_eq!(parts(Rat::new(an, ad)), parent_parts(ParentRat::new(an, ad)));
            let Ok(pa) = ParentRat::new(an, ad) else {
                return Ok(());
            };
            let a = Rat { num: pa.num, den: pa.den };
            prop_assert_eq!(parts(a.checked_neg()), parent_parts(pa.checked_neg()));
            for (bn, bd) in [(bn, bd), (bn, ad), (an, ad)] {
                let Ok(pb) = ParentRat::new(bn, bd) else {
                    continue;
                };
                let b = Rat { num: pb.num, den: pb.den };
                prop_assert_eq!(parts(a.checked_add(b)), parent_parts(pa.checked_add(pb)));
                prop_assert_eq!(parts(a.checked_sub(b)), parent_parts(pa.checked_sub(pb)));
                prop_assert_eq!(parts(a.checked_mul(b)), parent_parts(pa.checked_mul(pb)));
                prop_assert_eq!(parts(a.checked_div(b)), parent_parts(pa.checked_div(pb)));
                prop_assert_eq!(a.cmp(&b), pa.cmp(&pb));
            }
        }
    }

    /// Integer results that land exactly on `i128::MIN` fit the `i128`
    /// products but not `Rat`: the parent reports `Overflow`, and so must
    /// every path.
    #[test]
    fn results_at_i128_min_still_overflow() {
        let r = |n: i128| Rat::new(n, 1).unwrap();
        let p = |n: i128| ParentRat::new(n, 1).unwrap();
        let overflow = Err(CertError::Overflow);
        assert_eq!(
            parent_parts(p(-(1 << 64)).checked_mul(p(1 << 63))),
            overflow
        );
        assert_eq!(
            parent_parts(p(-(1 << 126)).checked_add(p(-(1 << 126)))),
            overflow
        );
        assert_eq!(parts(r(-(1 << 64)).checked_mul(r(1 << 63))), overflow);
        assert_eq!(parts(r(-(1 << 126)).checked_add(r(-(1 << 126)))), overflow);
        assert_eq!(parts(Rat::new(i128::MIN, 1)), overflow);
        assert_eq!(parts(Rat::new(1, i128::MIN)), overflow);
    }
}
