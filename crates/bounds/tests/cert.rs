//! Integration tests for exact bound certification: the paper-grid
//! acceptance sweep, float/exact agreement on random instances, and the
//! corruption suite the checker must reject.

use hetchol_bounds::cert::{certify_bound, BoundKind, LeafCert, LeafVerdict, Rat};
use hetchol_bounds::ilp::BranchStep;
use hetchol_bounds::{BoundSet, CertReject, Relation};
use hetchol_core::algorithm::Algorithm;
use hetchol_core::hash::ContentHasher;
use hetchol_core::kernel::Kernel;
use hetchol_core::platform::{Platform, ResourceClass, ResourceKind};
use hetchol_core::profiles::TimingProfile;
use hetchol_core::time::Time;
use proptest::prelude::*;

/// `BoundSet` stores bounds as integer-nanosecond `Time`s, so the f64 and
/// exact values can differ by half an ns on top of simplex float error.
fn close(secs_f64: f64, exact: &Rat) -> bool {
    let e = exact.to_f64();
    (secs_f64 - e).abs() <= 1e-6 * secs_f64.abs().max(e.abs()) + 2e-9
}

/// Certify + verify a bound set and check the exact bounds agree with the
/// f64 ones.
fn certify_and_check(
    algo: Algorithm,
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
) -> hetchol_bounds::CertifiedBoundSet {
    let set = BoundSet::compute_algo(algo, n, platform, profile);
    let cert = set
        .certify(platform, profile)
        .unwrap_or_else(|e| panic!("certify {algo:?} n={n}: {e}"));
    let verified = cert
        .verify(platform, profile)
        .unwrap_or_else(|e| panic!("verify {algo:?} n={n}: {e}"));
    assert!(
        close(cert.set.area.as_secs_f64(), &verified.area),
        "{algo:?} n={n}: area f64 {} vs exact {}",
        cert.set.area.as_secs_f64(),
        verified.area
    );
    assert!(
        close(cert.set.mixed.as_secs_f64(), &verified.mixed),
        "{algo:?} n={n}: mixed f64 {} vs exact {}",
        cert.set.mixed.as_secs_f64(),
        verified.mixed
    );
    cert
}

#[test]
fn paper_grid_cholesky_on_mirage_is_fully_certified() {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    for n in 4..=16 {
        certify_and_check(Algorithm::Cholesky, n, &platform, &profile);
    }
}

#[test]
fn lu_and_qr_bounds_certify_on_mirage() {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    for algo in [Algorithm::Lu, Algorithm::Qr] {
        for n in [4, 8] {
            certify_and_check(algo, n, &platform, &profile);
        }
    }
}

#[test]
fn cpu_only_platform_certifies() {
    let platform = Platform::homogeneous(9);
    let profile = TimingProfile::mirage_homogeneous();
    for n in [4, 8, 12] {
        certify_and_check(Algorithm::Cholesky, n, &platform, &profile);
    }
}

#[test]
fn certificate_json_names_kind_bound_and_leaves() {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let cert = certify_and_check(Algorithm::Cholesky, 4, &platform, &profile);
    let json = cert.area.to_json();
    assert!(json.contains("\"kind\":\"area\""), "{json}");
    assert!(json.contains("\"bound\":\""), "{json}");
    assert!(json.contains("\"tree_complete\":"), "{json}");
    assert!(json.contains("\"leaves\":["), "{json}");
    // The repo's JSON validator must accept the hand-rolled output.
    hetchol_core::json::parse_json(&json).expect("certificate JSON parses");
}

/// One FNV digest over everything a certified bound set states: the
/// `Debug` form (leaf paths, `x`, `y`, Farkas vectors), both certificates'
/// JSON and the checker's `VerifiedBounds`.
fn certificate_digest(
    algo: Algorithm,
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
) -> String {
    let cert = certify_and_check(algo, n, platform, profile);
    let verified = cert.verify(platform, profile).expect("verified above");
    let mut h = ContentHasher::new();
    h.write_str(&format!("{cert:?}"));
    h.write_str(&cert.area.to_json());
    h.write_str(&cert.mixed.to_json());
    h.write_str(&format!("{verified:?}"));
    format!("{:016x}", h.finish())
}

/// `platform algo n=<n>: digest` over {mirage without comm, mirage,
/// cpu-only} × {Cholesky, LU, QR} × n ∈ {2, 4, 5, 8, 12, 16, 24, 32},
/// recorded before `Rat` gained its word-sized arithmetic: certificates
/// must not depend on which path computed them. The bounds ignore the
/// comm model, so the two mirage rows agree.
const CERT_GOLDENS: [&str; 72] = [
    "mirage-nocomm Cholesky n=2: 0f50fc8cea425434",
    "mirage-nocomm Cholesky n=4: 8bfeab7b24614a0f",
    "mirage-nocomm Cholesky n=5: 5aae579664a68933",
    "mirage-nocomm Cholesky n=8: f839559a00e22197",
    "mirage-nocomm Cholesky n=12: 3455a753b4d78577",
    "mirage-nocomm Cholesky n=16: 457ce80f44e6aecb",
    "mirage-nocomm Cholesky n=24: ca1be03944be6614",
    "mirage-nocomm Cholesky n=32: 86779c72b6eab1fa",
    "mirage-nocomm Lu n=2: e4f953c2d57dda21",
    "mirage-nocomm Lu n=4: 04efa739d1a051eb",
    "mirage-nocomm Lu n=5: 36d810650f5aaf7a",
    "mirage-nocomm Lu n=8: 5f3066dc637717b6",
    "mirage-nocomm Lu n=12: 040175b4c8c34a17",
    "mirage-nocomm Lu n=16: 4d814b11e2d48b68",
    "mirage-nocomm Lu n=24: f33b5cd7cb165139",
    "mirage-nocomm Lu n=32: 25b07618cd3d98f2",
    "mirage-nocomm Qr n=2: c83d7e0cc14d79a7",
    "mirage-nocomm Qr n=4: 6303c9e0a960875d",
    "mirage-nocomm Qr n=5: 141417951c3171ad",
    "mirage-nocomm Qr n=8: 200dafb98161f0d7",
    "mirage-nocomm Qr n=12: 5108b073dd31dbee",
    "mirage-nocomm Qr n=16: 49886ecf70e71268",
    "mirage-nocomm Qr n=24: d4fb9134bfab873b",
    "mirage-nocomm Qr n=32: 915b9b8b4c3afb50",
    "mirage Cholesky n=2: 0f50fc8cea425434",
    "mirage Cholesky n=4: 8bfeab7b24614a0f",
    "mirage Cholesky n=5: 5aae579664a68933",
    "mirage Cholesky n=8: f839559a00e22197",
    "mirage Cholesky n=12: 3455a753b4d78577",
    "mirage Cholesky n=16: 457ce80f44e6aecb",
    "mirage Cholesky n=24: ca1be03944be6614",
    "mirage Cholesky n=32: 86779c72b6eab1fa",
    "mirage Lu n=2: e4f953c2d57dda21",
    "mirage Lu n=4: 04efa739d1a051eb",
    "mirage Lu n=5: 36d810650f5aaf7a",
    "mirage Lu n=8: 5f3066dc637717b6",
    "mirage Lu n=12: 040175b4c8c34a17",
    "mirage Lu n=16: 4d814b11e2d48b68",
    "mirage Lu n=24: f33b5cd7cb165139",
    "mirage Lu n=32: 25b07618cd3d98f2",
    "mirage Qr n=2: c83d7e0cc14d79a7",
    "mirage Qr n=4: 6303c9e0a960875d",
    "mirage Qr n=5: 141417951c3171ad",
    "mirage Qr n=8: 200dafb98161f0d7",
    "mirage Qr n=12: 5108b073dd31dbee",
    "mirage Qr n=16: 49886ecf70e71268",
    "mirage Qr n=24: d4fb9134bfab873b",
    "mirage Qr n=32: 915b9b8b4c3afb50",
    "cpu-only Cholesky n=2: 212b4257bbbdc1e7",
    "cpu-only Cholesky n=4: 38b099f59aedac98",
    "cpu-only Cholesky n=5: db9b8e84689dfed3",
    "cpu-only Cholesky n=8: fe98d2b8191fd3ff",
    "cpu-only Cholesky n=12: ed60572d6ab42ba1",
    "cpu-only Cholesky n=16: ac84f28d18fef4a6",
    "cpu-only Cholesky n=24: 4e23cc816839a3e2",
    "cpu-only Cholesky n=32: 619e9a16186000a3",
    "cpu-only Lu n=2: ea3880bea2930c53",
    "cpu-only Lu n=4: 69138d3d37b86cd7",
    "cpu-only Lu n=5: df7ac5263480fb82",
    "cpu-only Lu n=8: 8fd71b291f0f31e0",
    "cpu-only Lu n=12: 2bf1de3585625fe4",
    "cpu-only Lu n=16: 6744bedbc73e0340",
    "cpu-only Lu n=24: 2ba5b76a278ac9ab",
    "cpu-only Lu n=32: 4ee6c32bdcab665a",
    "cpu-only Qr n=2: 963b4fbfe3ff9c57",
    "cpu-only Qr n=4: 1452643e6cb186b4",
    "cpu-only Qr n=5: 65dac6a4cefe911a",
    "cpu-only Qr n=8: 05344036abe9732a",
    "cpu-only Qr n=12: ef47614f3924872a",
    "cpu-only Qr n=16: a57639effbedfd97",
    "cpu-only Qr n=24: 4863acb447c014db",
    "cpu-only Qr n=32: 503408786c516dfb",
];

#[test]
fn certificates_match_goldens() {
    let grids = [
        (
            "mirage-nocomm",
            Platform::mirage().without_comm(),
            TimingProfile::mirage(),
        ),
        ("mirage", Platform::mirage(), TimingProfile::mirage()),
        (
            "cpu-only",
            Platform::homogeneous(9),
            TimingProfile::mirage_homogeneous(),
        ),
    ];
    let mut got = Vec::new();
    for (name, platform, profile) in &grids {
        for algo in [Algorithm::Cholesky, Algorithm::Lu, Algorithm::Qr] {
            for n in [2, 4, 5, 8, 12, 16, 24, 32] {
                let digest = certificate_digest(algo, n, platform, profile);
                got.push(format!("{name} {algo:?} n={n}: {digest}"));
            }
        }
    }
    assert_eq!(got, CERT_GOLDENS);
}

fn random_platform_profile(
    n_classes: usize,
    counts: &[usize],
    ms: &[u64],
) -> (Platform, TimingProfile) {
    let classes: Vec<ResourceClass> = (0..n_classes)
        .map(|r| ResourceClass {
            name: format!("class{r}"),
            kind: if r == 0 {
                ResourceKind::Cpu
            } else {
                ResourceKind::Gpu
            },
            count: counts[r],
        })
        .collect();
    let platform = Platform::new(classes, None);
    let times: Vec<[Time; Kernel::COUNT]> = (0..n_classes)
        .map(|r| {
            let mut row = [Time::from_millis(1); Kernel::COUNT];
            for (t, slot) in row.iter_mut().enumerate() {
                *slot = Time::from_millis(ms[r * Kernel::COUNT + t]);
            }
            row
        })
        .collect();
    (platform, TimingProfile::new(960, times))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random platforms and profiles the certified exact bounds agree
    /// with the f64 pipeline to 1e-6 relative, for both LP-backed bounds.
    #[test]
    fn certified_and_float_bounds_agree_on_random_instances(
        n_classes in 1usize..=3,
        counts in proptest::collection::vec(1usize..=8, 3..4),
        ms in proptest::collection::vec(1u64..=50, (3 * Kernel::COUNT)..(3 * Kernel::COUNT + 1)),
        n_tiles in 2usize..=6,
    ) {
        let (platform, profile) = random_platform_profile(n_classes, &counts, &ms);
        let set = BoundSet::compute_algo(Algorithm::Cholesky, n_tiles, &platform, &profile);
        let cert = set.certify(&platform, &profile).expect("certify");
        let verified = cert.verify(&platform, &profile).expect("verify");
        prop_assert!(
            close(cert.set.area.as_secs_f64(), &verified.area),
            "area f64 {} vs exact {}", cert.set.area.as_secs_f64(), verified.area
        );
        prop_assert!(
            close(cert.set.mixed.as_secs_f64(), &verified.mixed),
            "mixed f64 {} vs exact {}", cert.set.mixed.as_secs_f64(), verified.mixed
        );
    }
}

// --- Corruption suite: the checker must reject each seeded defect. ---

fn certified_mirage() -> (hetchol_bounds::CertifiedBoundSet, Platform, TimingProfile) {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let set = BoundSet::compute(6, &platform, &profile);
    let cert = set.certify(&platform, &profile).expect("certify");
    (cert, platform, profile)
}

#[test]
fn checker_rejects_perturbed_dual() {
    let (mut cert, platform, profile) = certified_mirage();
    for leaf in &mut cert.area.leaves {
        if let LeafVerdict::Bounded { y, .. } = &mut leaf.verdict {
            y[0] = y[0].checked_add(Rat::ONE).unwrap();
            break;
        }
    }
    match cert.verify(&platform, &profile) {
        Err(CertReject::BadLeaf { .. }) => {}
        other => panic!("perturbed dual not rejected as BadLeaf: {other:?}"),
    }
}

#[test]
fn checker_rejects_wrong_rhs() {
    let (mut cert, platform, profile) = certified_mirage();
    let rhs = &mut cert.mixed.lp.rows[0].rhs;
    *rhs = rhs.checked_add(Rat::ONE).unwrap();
    match cert.verify(&platform, &profile) {
        Err(CertReject::LpMismatch) => {}
        other => panic!("wrong rhs not rejected as LpMismatch: {other:?}"),
    }
}

#[test]
fn checker_rejects_flipped_relation() {
    let (mut cert, platform, profile) = certified_mirage();
    let last = cert.area.lp.rows.len() - 1;
    cert.area.lp.rows[last].rel = Relation::Ge;
    match cert.verify(&platform, &profile) {
        Err(CertReject::LpMismatch) => {}
        other => panic!("flipped relation not rejected as LpMismatch: {other:?}"),
    }
}

#[test]
fn checker_rejects_bad_rounding_step() {
    // Replace the tree with two leaves whose branch bounds are NOT
    // complementary (x0 ≤ 2 vs x0 ≥ 4 leaves x0 = 3 uncovered) — the
    // integrality rounding argument `x ≤ k ∨ x ≥ k+1` is broken.
    let (mut cert, platform, profile) = certified_mirage();
    let verdict = cert.area.leaves[0].verdict.clone();
    cert.area.leaves = vec![
        LeafCert {
            path: vec![BranchStep {
                var: 0,
                ge: false,
                bound: 2,
            }],
            verdict: verdict.clone(),
        },
        LeafCert {
            path: vec![BranchStep {
                var: 0,
                ge: true,
                bound: 4,
            }],
            verdict,
        },
    ];
    match cert.verify(&platform, &profile) {
        Err(CertReject::BadTree(_)) => {}
        other => panic!("bad rounding step not rejected as BadTree: {other:?}"),
    }
}

#[test]
fn checker_rejects_truncated_certificate() {
    let (mut cert, platform, profile) = certified_mirage();
    cert.area.leaves.pop();
    match cert.verify(&platform, &profile) {
        Err(CertReject::BadTree(_)) => {}
        other => panic!("truncated certificate not rejected as BadTree: {other:?}"),
    }
}

#[test]
fn checker_rejects_inflated_bound_claim() {
    let (mut cert, platform, profile) = certified_mirage();
    cert.mixed.bound = cert.mixed.bound.checked_add(Rat::ONE).unwrap();
    match cert.verify(&platform, &profile) {
        Err(CertReject::WrongBound) => {}
        other => panic!("inflated bound not rejected as WrongBound: {other:?}"),
    }
}

#[test]
fn a_split_on_the_continuous_variable_is_rejected() {
    // Branching on the continuous makespan variable would not cover the
    // fractional values between the two branch bounds.
    let (mut cert, platform, profile) = certified_mirage();
    let l_var = platform.n_classes() * Kernel::COUNT;
    let verdict = cert.area.leaves[0].verdict.clone();
    cert.area.leaves = vec![
        LeafCert {
            path: vec![BranchStep {
                var: l_var,
                ge: false,
                bound: 2,
            }],
            verdict: verdict.clone(),
        },
        LeafCert {
            path: vec![BranchStep {
                var: l_var,
                ge: true,
                bound: 3,
            }],
            verdict,
        },
    ];
    match cert.verify(&platform, &profile) {
        Err(CertReject::BadTree(_)) => {}
        other => panic!("continuous split not rejected as BadTree: {other:?}"),
    }
}

#[test]
fn standalone_certify_bound_matches_boundset_path() {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let set = BoundSet::compute(5, &platform, &profile);
    let cert = set.certify(&platform, &profile).expect("certify");
    let direct = certify_bound(BoundKind::Area, Algorithm::Cholesky, 5, &platform, &profile)
        .expect("direct certify");
    assert_eq!(direct.bound, cert.area.bound);
    assert_eq!(direct.lp, cert.area.lp);
}
