//! Whole-trace goldens for the simulator.
//!
//! `tests/equivalence.rs` compares the engine against the frozen
//! `sim::reference`, but both engines run the same schedulers (and so the
//! same completion-time scan) and the same PCI link model: a change there
//! moves both sides at once. This suite pins each run's outputs
//! independently of any shared code instead: the makespan and FNV digests
//! of every task, transfer, queue and fault event, recorded before the
//! scan went per memory node and the start loop went over idle workers
//! with work. The runs cover schedulers, platforms, jitter, fault plans,
//! a gated schedule replay and a platform wider than one 64-bit word of
//! workers.

use hetchol::core::algorithm::Algorithm;
use hetchol::core::hash::ContentHasher;
use hetchol::prelude::*;
use hetchol::sched::{heft_schedule, registry, ScheduleInjector};
use hetchol::sim::{simulate_resilient, simulate_with, SimResult};

/// `makespan_ns events transfers queue_events faults`: the makespan in
/// nanoseconds, then one FNV digest (hex) per event list. Every time is
/// folded in nanoseconds, so a one-nanosecond shift changes a digest.
fn digests(r: &SimResult) -> String {
    let t = &r.trace;
    let events = fold(|h| {
        for e in &t.events {
            h.write_usize(e.worker);
            h.write_u64(u64::from(e.task.0));
            h.write_str(&format!("{:?}", e.kernel));
            h.write_u64(e.start.as_nanos());
            h.write_u64(e.end.as_nanos());
        }
    });
    let transfers = fold(|h| {
        for x in &t.transfers {
            h.write_u64(u64::from(x.tile.row));
            h.write_u64(u64::from(x.tile.col));
            h.write_usize(x.from);
            h.write_usize(x.to);
            h.write_u64(x.start.as_nanos());
            h.write_u64(x.end.as_nanos());
        }
    });
    let queues = fold(|h| {
        for q in &t.queue_events {
            h.write_usize(q.worker);
            h.write_u64(u64::from(q.task.0));
            h.write_u64(q.prio as u64);
            h.write_u64(q.seq);
            h.write_u64(q.at.as_nanos());
            h.write_u64(q.data_ready.as_nanos());
        }
    });
    let faults = fold(|h| {
        h.write_str(&format!("{:?}", r.outcome));
        for f in &t.fault_events {
            h.write_u64(f.at.as_nanos());
            h.write_str(&format!("{:?}", f.kind));
        }
    });
    format!(
        "{} {events} {transfers} {queues} {faults}",
        r.makespan.as_nanos()
    )
}

/// The FNV digest, in hex, of whatever `write` folds in.
fn fold(write: impl FnOnce(&mut ContentHasher)) -> String {
    let mut h = ContentHasher::new();
    write(&mut h);
    format!("{:016x}", h.finish())
}

fn run(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    sched: &mut dyn Scheduler,
    opts: &SimOptions,
) -> SimResult {
    simulate_with(graph, platform, profile, sched, opts, ObsSink::disabled())
}

/// A dmda run under `plan` with the default retry policy.
fn resilient(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    plan: &FaultPlan,
) -> SimResult {
    let mut sched = registry::build("dmda", 0).expect("registered policy");
    simulate_resilient(
        graph,
        platform,
        profile,
        sched.as_mut(),
        &SimOptions::default(),
        ObsSink::disabled(),
        plan,
        &RetryPolicy::default(),
    )
    .expect("plans never kill every worker")
}

/// `label: digests` for every run of the matrix, in a fixed order.
fn lines() -> Vec<String> {
    let mirage = Platform::mirage();
    let nocomm = mirage.without_comm();
    let profile = TimingProfile::mirage();
    let homog_profile = TimingProfile::mirage_homogeneous();
    let mut out = Vec::new();
    let mut push = |label: String, r: &SimResult| out.push(format!("{label}: {}", digests(r)));

    // The paper's grid shape: Cholesky under each policy family, with and
    // without the PCI model.
    for n in [4, 8, 16, 32] {
        let graph = TaskGraph::cholesky(n);
        for name in ["random", "dmda", "dmdas", "triangle:3"] {
            for (pname, platform) in [("mirage", &mirage), ("nocomm", &nocomm)] {
                let mut s = registry::build(name, 7).expect("registered policy");
                let r = run(
                    &graph,
                    platform,
                    &profile,
                    s.as_mut(),
                    &SimOptions::default(),
                );
                push(format!("cholesky n={n} {name} {pname}"), &r);
            }
        }
    }
    // Jittered durations (the paper's actual-execution mode).
    for n in [8, 16] {
        let graph = TaskGraph::cholesky(n);
        for name in ["dmda", "dmdas"] {
            let mut s = registry::build(name, 0).expect("registered policy");
            let r = run(
                &graph,
                &mirage,
                &profile,
                s.as_mut(),
                &SimOptions::actual(3),
            );
            push(format!("cholesky n={n} {name} actual"), &r);
        }
    }
    // The other factorizations, whose tasks write two tiles (QR).
    for algo in [Algorithm::Lu, Algorithm::Qr] {
        let mut s = registry::build("dmdas", 0).expect("registered policy");
        let r = run(
            &algo.graph(8),
            &mirage,
            &profile,
            s.as_mut(),
            &SimOptions::default(),
        );
        push(format!("{algo:?} n=8 dmdas"), &r);
    }
    // Seeded fault plans: deaths, failed attempts, stragglers.
    let graph = TaskGraph::cholesky(8);
    for (pname, platform, prof) in [
        ("mirage", &mirage, &profile),
        ("homog3", &Platform::homogeneous(3), &homog_profile),
    ] {
        for s in 0..4u64 {
            let plan = FaultPlan::seeded(s, graph.len(), platform.n_workers());
            let r = resilient(&graph, platform, prof, &plan);
            push(format!("seeded {s} dmda {pname}"), &r);
        }
    }
    // Single deaths due on a start inside the start loop: the reap moves
    // the dead worker's queue onto a higher idle worker, which must start
    // it in the same pass.
    let homog4 = Platform::homogeneous(4);
    for (pname, platform, prof, worker, after) in [
        ("homog4", &homog4, &homog_profile, 1, 2),
        ("homog4", &homog4, &homog_profile, 2, 12),
        ("mirage", &mirage, &profile, 10, 12),
    ] {
        let plan = FaultPlan::new().kill_worker(worker, after);
        let r = resilient(&TaskGraph::cholesky(4), platform, prof, &plan);
        push(format!("kill {worker}@{after} dmda {pname}"), &r);
    }
    // A strict replay: `may_start` holds workers for their planned task.
    let plan = heft_schedule(&graph, &mirage, &profile);
    let r = run(
        &graph,
        &mirage,
        &profile,
        &mut ScheduleInjector::new(&plan),
        &SimOptions::default(),
    );
    push("inject heft n=8 mirage".to_string(), &r);
    // 70 workers: more than one 64-bit word of per-worker state.
    let mut s = registry::build("dmda", 0).expect("registered policy");
    let r = run(
        &graph,
        &Platform::homogeneous(70),
        &homog_profile,
        s.as_mut(),
        &SimOptions::default(),
    );
    push("cholesky n=8 dmda homog70".to_string(), &r);
    out
}

/// `label: digests` per run of [`lines`].
const GOLDENS: [&str; 51] = [
    "cholesky n=4 random mirage: 680653631 b885fa3d54d9370c d47e67e92520ccf7 410583fa649c8e89 2fc1d9049d9a47a5",
    "cholesky n=4 random nocomm: 672269231 c80ff3f0da5acd95 cbf29ce484222325 74b6d7b29cb4a484 2fc1d9049d9a47a5",
    "cholesky n=4 dmda mirage: 172426690 5e5102ca669d43e3 f140418230a49a1d a6a463d445f9aaaf 2fc1d9049d9a47a5",
    "cholesky n=4 dmda nocomm: 164085121 65f11ddfd084aaeb cbf29ce484222325 053106cd932bd8e6 2fc1d9049d9a47a5",
    "cholesky n=4 dmdas mirage: 172426690 5e5102ca669d43e3 f140418230a49a1d 172e3268ac2829f9 2fc1d9049d9a47a5",
    "cholesky n=4 dmdas nocomm: 157671328 82e6920ce7635c6d cbf29ce484222325 dd828772b0e0046f 2fc1d9049d9a47a5",
    "cholesky n=4 triangle:3 mirage: 206890307 dd5c2c108c779344 4cdf9db146b8c442 e78319c615c1ae3d 2fc1d9049d9a47a5",
    "cholesky n=4 triangle:3 nocomm: 198505907 f6dd7c78843cb7cd cbf29ce484222325 0cf91d5319b3dd4e 2fc1d9049d9a47a5",
    "cholesky n=8 random mirage: 1786209801 c2b04dede6a0753f 688b1ef3cc5f2ded 9cce1696a358c73e 2fc1d9049d9a47a5",
    "cholesky n=8 random nocomm: 1762731973 af626e0a290a3c74 cbf29ce484222325 d51549d2cd773e5b 2fc1d9049d9a47a5",
    "cholesky n=8 dmda mirage: 449210022 0c63e20a962690a2 025f2104e10b616d a7c09b174206d020 2fc1d9049d9a47a5",
    "cholesky n=8 dmda nocomm: 434046777 670686df7d5bff1c cbf29ce484222325 c28fcc40ef5188cb 2fc1d9049d9a47a5",
    "cholesky n=8 dmdas mirage: 402533055 b16197efd22851c6 ba2ca3841c19a7bd 4d86e0740d0b9c0e 2fc1d9049d9a47a5",
    "cholesky n=8 dmdas nocomm: 370333972 9914c7193b4743f8 cbf29ce484222325 154fdd812d0588da 2fc1d9049d9a47a5",
    "cholesky n=8 triangle:3 mirage: 702437434 f546a1ab6015dcc8 dad4a30c2073db77 05ab8fc52034c8eb 2fc1d9049d9a47a5",
    "cholesky n=8 triangle:3 nocomm: 682809258 3507f2e9dbc34e7e cbf29ce484222325 284a8e9c63b76c59 2fc1d9049d9a47a5",
    "cholesky n=16 random mirage: 6341368135 2401e5b6e0804310 ffc72dc8271ab51b 0eec99cbc64d4e0d 2fc1d9049d9a47a5",
    "cholesky n=16 random nocomm: 6901444414 2b282decdb47b674 cbf29ce484222325 8caa672b123adddb 2fc1d9049d9a47a5",
    "cholesky n=16 dmda mirage: 1860467198 49ab6dd2947ce5ba e53dd3081c3f645b e155eaa3ba817321 2fc1d9049d9a47a5",
    "cholesky n=16 dmda nocomm: 1821792353 6c029ee5a83213ec cbf29ce484222325 6901c3fe4d49183d 2fc1d9049d9a47a5",
    "cholesky n=16 dmdas mirage: 1836269679 14c395b2caaa9566 88c1e39f6250fa40 1ad534ed0d538ded 2fc1d9049d9a47a5",
    "cholesky n=16 dmdas nocomm: 1809893512 4337f90fa61939cf cbf29ce484222325 427dd625b3b9c2b3 2fc1d9049d9a47a5",
    "cholesky n=16 triangle:3 mirage: 2051348383 5f156d92dbab7ede da54f2881de64abc 0ba958857a778d3d 2fc1d9049d9a47a5",
    "cholesky n=16 triangle:3 nocomm: 1975677100 8e747b6bbbffc677 cbf29ce484222325 56cb01655b057177 2fc1d9049d9a47a5",
    "cholesky n=32 random mirage: 43592797652 1f5fec91ef8c2fbc 1f79baca60bb5687 79b07fdf50aad228 2fc1d9049d9a47a5",
    "cholesky n=32 random nocomm: 44223092114 d18010d6e2516361 cbf29ce484222325 9b8786b87275148e 2fc1d9049d9a47a5",
    "cholesky n=32 dmda mirage: 11654473540 a9722868bd6130cc c84e732f16b06b68 04aaec936f8396d4 2fc1d9049d9a47a5",
    "cholesky n=32 dmda nocomm: 11665381761 739a25c9564b7766 cbf29ce484222325 987de862b384479e 2fc1d9049d9a47a5",
    "cholesky n=32 dmdas mirage: 11275773392 3418ffa4483014c9 ef44e5381775bc1b 5fc79c3fae12ffff 2fc1d9049d9a47a5",
    "cholesky n=32 dmdas nocomm: 11218238785 dac4c14bc594d791 cbf29ce484222325 dd3a5ebfb7752270 2fc1d9049d9a47a5",
    "cholesky n=32 triangle:3 mirage: 11498043554 19192ce6c7126272 1e208f89e1ebc65c ac2298729aaaecac 2fc1d9049d9a47a5",
    "cholesky n=32 triangle:3 nocomm: 11397083756 6e19175dc5d19f7e cbf29ce484222325 0a64f6a219a1530d 2fc1d9049d9a47a5",
    "cholesky n=8 dmda actual: 455519482 504bd7e566c6300b 199589895340915d 5b0e2fff8d3279cc 2fc1d9049d9a47a5",
    "cholesky n=8 dmdas actual: 404829566 4ae88bd755c6f7b7 aa8d700e5697f0c0 a0db70ea1677ab49 2fc1d9049d9a47a5",
    "cholesky n=16 dmda actual: 1890112451 eabf806892a22bdc 9c771543b5cc3f21 ef16285e54dd8826 2fc1d9049d9a47a5",
    "cholesky n=16 dmdas actual: 1884332916 348e5319cfba49fa b34b5ca1eab3798b e68da7e80c6e6eff 2fc1d9049d9a47a5",
    "Lu n=8 dmdas: 672018390 d40d57f83b503e59 20f73fcfebf48b21 20b8cb10a877af16 2fc1d9049d9a47a5",
    "Qr n=8 dmdas: 1897750724 747996d0ebdbaf47 fce783af67724a7d 810fec1fc9e409cc 2fc1d9049d9a47a5",
    "seeded 0 dmda mirage: 453726893 5cf97cfcd871f677 fbfee01487933b1b 3380aae8b40b5e39 b45bcb2834906dfb",
    "seeded 1 dmda mirage: 449210022 67575ca90f5d7a7b 2dac2528d60e110b b2018808de3b5977 ab2b5be5cf9388d1",
    "seeded 2 dmda mirage: 453256062 9538d2fe237f87bf 4e025bd5a954e874 5eeca1432935f499 c50f4769c9019c84",
    "seeded 3 dmda mirage: 557718470 3ed3398824e5fc07 53333c6d9fd7a38c e528f1f0dceca7b9 55ed3527375cbfe3",
    "seeded 0 dmda homog3: 8246000000 30b66de17fdf0b67 cbf29ce484222325 f9bd4b62000b4924 1117b8f86bdecb98",
    "seeded 1 dmda homog3: 10742000000 8ccb26037d1014f1 cbf29ce484222325 130cccc5a3766315 1b9d51e9371130e4",
    "seeded 2 dmda homog3: 6498000000 4529d8a749aca854 cbf29ce484222325 aea3ff5f0c9c2cee 71789ed693d21bd1",
    "seeded 3 dmda homog3: 11897000000 7c08862313fd0fe0 cbf29ce484222325 53adb320b9a4108d dcf9df98b7919017",
    "kill 1@2 dmda homog4: 998000000 abccfc6c83db8411 cbf29ce484222325 70cd8a876722030a eacaae085d1f51f8",
    "kill 2@12 dmda homog4: 959000000 1c5c0b2bcf7406ce cbf29ce484222325 e2f928ccc48ec2ef 8493ad6b4091a928",
    "kill 10@12 dmda mirage: 173358290 4558afdd48be10ef 63bd386d6bf04e49 9b5176400f85d9b4 6b7e5b6c4844e511",
    "inject heft n=8 mirage: 487701876 fbf1532714adc8c3 8dafad539cc26e25 d0a6579844814d61 2fc1d9049d9a47a5",
    "cholesky n=8 dmda homog70: 2060000000 3b4fea96250f2271 cbf29ce484222325 b30b4cce6fa4c831 2fc1d9049d9a47a5",
];

#[test]
fn traces_match_goldens() {
    assert_eq!(lines(), GOLDENS);
}
