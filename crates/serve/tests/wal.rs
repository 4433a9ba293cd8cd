//! Crash-recovery property tests for the append-only job log: on a log
//! of random records, any truncation or byte-flip recovers exactly the
//! longest checksummed prefix — no panic, no phantom jobs — and the
//! torn-tail warning renders a stable wire shape. The frame bytes
//! themselves are pinned: a digest of a fixed record set, and each
//! payload against the record's rendering as one JSON value tree.

use hetchol::job::{JobAction, JobOutcome, JobSpec};
use hetchol_core::fault::RunOutcome;
use hetchol_core::hash::ContentHasher;
use hetchol_core::json::JsonValue;
use hetchol_serve::store::StoredJob;
use hetchol_serve::wal::{scan, WalRecord, HEADER_BYTES};
use proptest::prelude::*;
use proptest::TestRng;

/// A deterministic synthetic record: a real spec and outcome in their
/// wire forms, with a trace on even seeds so both payload shapes occur.
fn record(id: u64, seed: u64) -> WalRecord {
    let mut spec = JobSpec::new("cholesky", 4 + (seed % 5) as usize).expect("known workload");
    spec.seed = seed;
    spec.obs = seed.is_multiple_of(2);
    let outcome = JobOutcome {
        spec_hash: spec.content_hash(),
        workload: spec.workload,
        n: spec.n,
        scheduler: spec.scheduler.clone(),
        action: spec.action,
        outcome: RunOutcome::Completed,
        makespan: None,
        gflops: None,
        bounds: None,
        certified: None,
        lint: None,
    };
    WalRecord {
        id,
        spec,
        outcome,
        trace: seed
            .is_multiple_of(2)
            .then(|| format!("{{\"traceEvents\":[],\"seed\":{seed}}}")),
    }
}

/// Frame `n` records into one log image; returns the bytes, the
/// records, and each frame's end offset.
fn build_log(n: usize, seed: u64) -> (Vec<u8>, Vec<WalRecord>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut records = Vec::new();
    let mut ends = Vec::new();
    for i in 0..n {
        let rec = record(1 + i as u64, seed.wrapping_add(i as u64));
        bytes.extend_from_slice(&rec.frame());
        ends.push(bytes.len());
        records.push(rec);
    }
    (bytes, records, ends)
}

/// The shared postcondition: the scan of a (possibly corrupt) log image
/// must hand back exactly the first `expect` of `records`, bit for bit,
/// and the report must be internally consistent.
fn assert_longest_prefix(
    corrupted: &[u8],
    records: &[WalRecord],
    ends: &[usize],
    expect: usize,
) -> Result<(), String> {
    let (scanned, report) = scan(corrupted);
    if scanned.len() != expect {
        return Err(format!(
            "recovered {} record(s), expected the {expect}-record prefix: {report:?}",
            scanned.len()
        ));
    }
    for (i, s) in scanned.iter().enumerate() {
        if s.record != records[i] {
            return Err(format!("recovered record {i} is not the one written"));
        }
        let start = if i == 0 { 0 } else { ends[i - 1] };
        if s.offset != start as u64 || s.frame_bytes != ends[i] - start {
            return Err(format!("recovered record {i} has the wrong frame geometry"));
        }
    }
    let valid = if expect == 0 {
        0
    } else {
        ends[expect - 1] as u64
    };
    if report.recovered != expect || report.valid_bytes != valid {
        return Err(format!("inconsistent report: {report:?}"));
    }
    if report.total_bytes != corrupted.len() as u64 {
        return Err(format!("report total_bytes wrong: {report:?}"));
    }
    if report.torn.is_some() != (valid < corrupted.len() as u64) {
        return Err(format!(
            "torn tail must be reported iff bytes were dropped: {report:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the log at any byte recovers exactly the records whose
    /// whole frame survived.
    #[test]
    fn truncation_recovers_the_longest_whole_prefix(
        n in 1usize..6,
        seed in 0u64..1_000_000,
        cut_seed in 0u64..1_000_000,
    ) {
        let (bytes, records, ends) = build_log(n, seed);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        assert_longest_prefix(&bytes[..cut], &records, &ends, expect)?;
    }

    /// Flipping any single byte stops recovery at the record containing
    /// it — never past it (phantom) and never before it (lost commit).
    #[test]
    fn byte_flip_stops_recovery_at_the_corrupt_record(
        n in 1usize..6,
        seed in 0u64..1_000_000,
        pos_seed in 0u64..1_000_000,
    ) {
        let (mut bytes, records, ends) = build_log(n, seed);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 0xff;
        let expect = ends.iter().filter(|&&e| e <= pos).count();
        assert_longest_prefix(&bytes, &records, &ends, expect)?;
    }

    /// An uncorrupted log always scans clean and whole.
    #[test]
    fn clean_logs_recover_everything(n in 0usize..6, seed in 0u64..1_000_000) {
        let (bytes, records, ends) = build_log(n, seed);
        assert_longest_prefix(&bytes, &records, &ends, n)?;
        let (_, report) = scan(&bytes);
        prop_assert!(report.is_clean());
    }
}

/// The startup warning's wire shape is golden-pinned: garbage shorter
/// than one header renders this exact report.
#[test]
fn torn_tail_warning_renders_the_golden_shape() {
    let (scanned, report) = scan(b"xxxxx");
    assert!(scanned.is_empty());
    assert_eq!(
        report.to_json_value().render(),
        r#"{"status":"recovered","recovered":0,"valid_bytes":0,"total_bytes":5,"torn":{"offset":0,"reason":"truncated header (5 of 12 bytes)"}}"#
    );

    // A clean scan renders `torn: null`.
    let rec = record(7, 4);
    let (_, clean) = scan(&rec.frame());
    let rendered = clean.to_json_value().render();
    assert!(rendered.contains(r#""recovered":1"#), "{rendered}");
    assert!(rendered.ends_with(r#""torn":null}"#), "{rendered}");
}

/// A trace string holding every escape class the payload writer knows
/// (`"`, `\`, the named and the `\u` control characters), the
/// characters it must pass through (`/`, DEL) and multi-byte UTF-8.
fn escape_heavy_trace() -> String {
    let mut t = String::from("{\"traceEvents\":[],\"note\":\"");
    t.extend((0u32..0x20).filter_map(char::from_u32));
    t.push_str("\" \\ / \u{7f} é ß € ∞ 😀 𝄞 plain ascii run");
    t.extend(['\n', '\t', '\r', '"', '\\']);
    t.push_str("\"}");
    t
}

/// The fixed record set whose frames are pinned: real `obs` jobs at 2–4
/// tiles under dmda, dmdas and eager, one bounds job (no trace), and one
/// synthetic record whose trace holds every escape class.
fn pinned_records() -> Vec<WalRecord> {
    let mut records = Vec::new();
    for n in 2..=4 {
        for scheduler in ["dmda", "dmdas", "eager"] {
            let mut spec = JobSpec::new("cholesky", n)
                .expect("known workload")
                .scheduler(scheduler);
            spec.obs = true;
            let run = spec.run().expect("valid spec");
            let id = records.len() as u64 + 1;
            records.push(StoredJob::fresh(id, spec, run.outcome, run.sim));
        }
    }
    let spec = JobSpec::new("cholesky", 4)
        .expect("known workload")
        .action(JobAction::Bounds);
    let run = spec.run().expect("valid spec");
    records.push(StoredJob::fresh(100, spec, run.outcome, run.sim));
    let mut synthetic = record(1 << 40, 2);
    synthetic.trace = Some(escape_heavy_trace());
    records.push(synthetic);
    records
}

/// The frames of [`pinned_records`] are the bytes the log held before
/// the payload writer wrote straight into the frame: one FNV digest over
/// all of them, recorded from the tree-rendering framer.
#[test]
fn frames_of_a_fixed_record_set_are_pinned() {
    let records = pinned_records();
    assert!(records[..9].iter().all(|r| r.trace.is_some()));
    assert!(records[9].trace.is_none(), "the bounds job has no trace");
    let mut h = ContentHasher::new();
    let mut bytes = 0;
    for r in &records {
        let frame = r.frame();
        bytes += frame.len();
        h.write_bytes(&frame);
    }
    assert_eq!(
        (format!("{:016x}", h.finish()), bytes),
        ("6126d2ba28655b41".to_string(), 38_797)
    );
}

/// The record payload as one JSON value tree, rendered: the shape the
/// framer wrote before it streamed the payload.
fn tree_payload(r: &WalRecord) -> String {
    JsonValue::Obj(vec![
        ("v".into(), JsonValue::uint(1)),
        ("id".into(), JsonValue::uint(r.id)),
        ("spec".into(), r.spec.to_json_value()),
        ("outcome".into(), r.outcome.to_json_value()),
        (
            "trace".into(),
            r.trace.as_deref().map_or(JsonValue::Null, JsonValue::str),
        ),
    ])
    .render()
}

/// Random trace text: runs of plain ASCII between escape-class bytes,
/// DEL and scalars of every UTF-8 length.
struct TraceText;

impl Strategy for TraceText {
    type Value = Option<String>;
    fn sample(&self, rng: &mut TestRng) -> Option<String> {
        if (0u8..8).sample(rng) == 0 {
            return None;
        }
        let len = (0usize..200).sample(rng);
        let text = (0..len)
            .map(|_| {
                let scalar = match (0u8..8).sample(rng) {
                    0 => (0u32..0x20).sample(rng),
                    1 => [0x22, 0x5c, 0x2f, 0x7f][(0usize..4).sample(rng)],
                    2 => (0x80u32..0x800).sample(rng),
                    3 => (0x800u32..0x10000).sample(rng),
                    4 => (0x10000u32..0x110000).sample(rng),
                    _ => (0x20u32..0x7f).sample(rng),
                };
                char::from_u32(scalar).unwrap_or('\u{fffd}')
            })
            .collect();
        Some(text)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each frame is its header and then exactly the tree rendering of
    /// the record: the length prefix counts it and the checksum is the
    /// FNV-1a of those bytes.
    #[test]
    fn frame_payload_equals_the_tree_rendering(
        id in 0u64..1 << 53,
        seed in 0u64..1_000_000,
        trace in TraceText,
    ) {
        let mut rec = record(id, seed);
        rec.trace = trace;
        let frame = rec.frame();
        let want = tree_payload(&rec);
        prop_assert_eq!(&frame[HEADER_BYTES..], want.as_bytes());
        prop_assert_eq!(rec.to_payload(), want.clone());
        prop_assert_eq!(&frame[..4], &(want.len() as u32).to_le_bytes()[..]);
        let mut h = ContentHasher::new();
        h.write_bytes(want.as_bytes());
        prop_assert_eq!(&frame[4..HEADER_BYTES], &h.finish().to_le_bytes()[..]);
    }
}
