//! Golden + shape tests for the `repro certify` report.

use hetchol_bench::certify_report;

/// The grid report is machine-readable, failure-free, and its first line
/// (mirage / Cholesky / n=4) is locked golden: exact rational bounds are
/// deterministic, so any drift in the LP, the branch-and-bound replay, or
/// the certificate pipeline shows up here as a diff.
#[test]
fn certify_json_report_is_golden_and_failure_free() {
    let (report, failures) = certify_report(true);
    assert_eq!(failures, 0, "{report}");
    let lines: Vec<&str> = report.lines().collect();
    assert_eq!(lines.len(), 24, "2 platforms x 3 algos x 4 sizes");
    assert_eq!(
        lines[0],
        "{\"platform\":\"mirage\",\"algo\":\"cholesky\",\"n\":4,\"status\":\"verified\",\
         \"area\":\"8749819/250000000\",\"mixed\":\"4927229/31250000\",\
         \"area_secs\":0.034999276,\"mixed_secs\":0.157671328,\
         \"leaves\":6,\"tree_complete\":true}"
    );
    for line in &lines {
        let doc = hetchol_core::json::parse_json(line).expect("each line is valid JSON");
        let obj = match doc {
            hetchol_core::json::JsonValue::Obj(o) => o,
            other => panic!("line is not an object: {other:?}"),
        };
        assert!(obj.iter().any(|(k, _)| k == "platform"));
        assert!(obj.iter().any(|(k, v)| k == "status"
            && matches!(v, hetchol_core::json::JsonValue::Str(s) if s == "verified")));
    }
}

/// The text rendering carries the same verdicts in human-readable form.
#[test]
fn certify_text_report_lists_the_grid() {
    let (report, failures) = certify_report(false);
    assert_eq!(failures, 0, "{report}");
    for needle in ["mirage", "cpu-only", "cholesky", "lu", "qr", "verified"] {
        assert!(report.contains(needle), "missing {needle}:\n{report}");
    }
    assert!(!report.contains("FAILED"), "{report}");
}
