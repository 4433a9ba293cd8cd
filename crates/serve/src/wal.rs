//! The append-only on-disk job log (write-ahead log) behind the store.
//!
//! Every committed job is framed as one record — a little-endian length
//! prefix, an FNV-1a checksum, and a JSON payload reusing the exact
//! [`JobSpec`]/[`JobOutcome`] wire forms plus the *rendered* Chrome
//! trace — and appended through a [`LogBackend`]. On startup
//! [`scan`] replays the log and keeps exactly the longest checksummed
//! prefix: a torn or corrupt tail is truncated with a structured
//! [`RecoveryReport`] warning, never a crash, and never a phantom job.
//! Because the trace is persisted as the bytes the live server rendered,
//! a restarted server re-serves `GET /jobs/<id>/trace` bitwise-identical.
//!
//! Three backends share the framing code: a real [`FileBackend`], an
//! in-memory [`MemBackend`] (tests and the serve-pool model), and a
//! [`FaultBackend`] that injects a seeded
//! [`IoFaultPlan`] — short writes,
//! flush failures, disk-full — so the same chaos machinery that kills
//! simulated workers tortures the log. Any append or sync failure flips
//! the log unhealthy ([`JobLog::healthy`]): the server degrades to
//! read-only with structured `store-unavailable` 503s instead of
//! dropping connections or accepting torn records.
//!
//! The log's internal lock is deliberately a `std` mutex, not the
//! instrumented `parking_lot` shim: the log is an I/O resource whose
//! synchronization is entirely internal to this module, and every state
//! transition it causes in shared memory (inserts, evictions, reloads)
//! happens under the store's instrumented lock — keeping it invisible
//! to the DPOR explorer keeps the serve-pool model tree exhaustible
//! without hiding any distinct outcome.

use hetchol::job::{JobOutcome, JobSpec};
use hetchol_core::fault::{IoFault, IoFaultPlan};
use hetchol_core::hash::ContentHasher;
use hetchol_core::json::{parse_json, JsonValue};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex as StdMutex;

/// Frame header size: a 4-byte length prefix plus an 8-byte checksum.
pub const HEADER_BYTES: usize = 12;

/// Largest accepted record payload. Traces dominate record size; 64 MiB
/// bounds the allocation a corrupt length prefix could demand.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// FNV-1a over the raw payload bytes — the record checksum.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = ContentHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// One durable job record: the spec and outcome in their wire forms plus
/// the rendered Chrome trace (when the job ran with `obs`). The store
/// keeps finished jobs in this same form ([`crate::store::StoredJob`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Server-assigned job id.
    pub id: u64,
    /// The spec, verbatim.
    pub spec: JobSpec,
    /// The serializable result summary.
    pub outcome: JobOutcome,
    /// The Chrome `about:tracing` document the live server rendered, or
    /// `None` when the job ran without `obs` or never simulated.
    pub trace: Option<String>,
}

impl WalRecord {
    /// The record payload: `{"v":1,"id":N,"spec":…,"outcome":…,"trace":…}`.
    pub fn to_payload(&self) -> String {
        JsonValue::Obj(vec![
            ("v".into(), JsonValue::uint(1)),
            ("id".into(), JsonValue::uint(self.id)),
            ("spec".into(), self.spec.to_json_value()),
            ("outcome".into(), self.outcome.to_json_value()),
            (
                "trace".into(),
                match &self.trace {
                    Some(t) => JsonValue::str(t),
                    None => JsonValue::Null,
                },
            ),
        ])
        .render()
    }

    /// Parse a payload emitted by [`WalRecord::to_payload`].
    pub fn from_payload(text: &str) -> Result<WalRecord, String> {
        let v = parse_json(text)?;
        let version = v.field("v")?.as_u64()?;
        if version != 1 {
            return Err(format!("unsupported record version {version}"));
        }
        Ok(WalRecord {
            id: v.field("id")?.as_u64()?,
            spec: JobSpec::from_json_value(v.field("spec")?).map_err(|e| e.to_string())?,
            outcome: JobOutcome::from_json_value(v.field("outcome")?)?,
            trace: match v.field("trace")? {
                JsonValue::Null => None,
                t => Some(t.as_str()?.to_string()),
            },
        })
    }

    /// Frame the record for the wire: length prefix, checksum, payload.
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.to_payload().into_bytes();
        let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&checksum(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        buf
    }
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// Where the log's bytes live. `append`/`sync` may fail (that is the
/// point — see [`FaultBackend`]); `read_at` serves rehydration of
/// evicted jobs and recovery-time reads.
pub trait LogBackend: Send {
    /// Append `buf` at the end of the log. An error may leave a torn
    /// prefix behind — recovery truncates it on the next startup.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Durably flush everything appended so far.
    fn sync(&mut self) -> io::Result<()>;
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Bytes in the log (valid bytes at open plus bytes appended since,
    /// including any torn prefix a failed append left behind).
    fn len(&self) -> u64;
    /// Whether the log holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The real thing: one read/write file handle.
pub struct FileBackend {
    file: File,
    len: u64,
}

impl FileBackend {
    /// Open (creating if absent) and truncate to `valid_len` — the
    /// recovery contract: the caller has scanned the bytes and knows
    /// where the longest checksummed prefix ends.
    pub fn open(path: &Path, valid_len: u64) -> io::Result<FileBackend> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        Ok(FileBackend {
            file,
            len: valid_len,
        })
    }
}

impl LogBackend for FileBackend {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(buf)?;
        self.len += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// An in-memory log for tests and the serve-pool model.
#[derive(Default)]
pub struct MemBackend {
    buf: Vec<u8>,
}

impl MemBackend {
    /// An empty in-memory log.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// The log bytes so far (for corruption tests).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// A log pre-seeded with `bytes` (for recovery tests).
    pub fn from_bytes(bytes: Vec<u8>) -> MemBackend {
        MemBackend { buf: bytes }
    }
}

impl LogBackend for MemBackend {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = offset as usize;
        let end = start
            .checked_add(buf.len())
            .filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&self.buf[start..end]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of in-memory log",
            )),
        }
    }

    fn len(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// A backend wrapper that injects a seeded [`IoFaultPlan`]: short
/// writes persist a prefix then error, flush failures error the sync,
/// disk-full refuses appends once the log reaches a byte threshold.
/// Reads always pass through — the faults are write-side.
pub struct FaultBackend<B: LogBackend> {
    inner: B,
    faults: Vec<IoFault>,
    appends: u64,
    flushes: u64,
}

impl<B: LogBackend> FaultBackend<B> {
    /// Wrap `inner`, arming `plan`.
    pub fn new(inner: B, plan: &IoFaultPlan) -> FaultBackend<B> {
        FaultBackend {
            inner,
            faults: plan.faults().to_vec(),
            appends: 0,
            flushes: 0,
        }
    }
}

impl<B: LogBackend> LogBackend for FaultBackend<B> {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.appends += 1;
        for fault in &self.faults {
            match *fault {
                IoFault::DiskFull { at_bytes } if self.inner.len() >= at_bytes => {
                    return Err(io::Error::other(format!(
                        "injected: disk full at {at_bytes} bytes (no space left)"
                    )));
                }
                IoFault::ShortWrite { append, keep } if append == self.appends => {
                    let keep = keep.min(buf.len());
                    // Best effort on the torn prefix; the injected error
                    // wins either way.
                    let _ = self.inner.append(&buf[..keep]);
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("injected: short write kept {keep} of {} bytes", buf.len()),
                    ));
                }
                _ => {}
            }
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.flushes += 1;
        for fault in &self.faults {
            if let IoFault::FlushFail { flush } = *fault {
                if flush == self.flushes {
                    return Err(io::Error::other(format!("injected: flush {flush} failed")));
                }
            }
        }
        self.inner.sync()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------------
// Recovery scan
// ---------------------------------------------------------------------------

/// Why recovery stopped before the end of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first unrecoverable record.
    pub offset: u64,
    /// What was wrong with it (stable, safe to log).
    pub reason: String,
}

/// What a startup scan of the log found — the structured warning the
/// server emits when it truncates a torn tail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records recovered (the longest checksummed prefix).
    pub recovered: usize,
    /// Bytes of that valid prefix — the log is truncated here.
    pub valid_bytes: u64,
    /// Bytes the log held before truncation.
    pub total_bytes: u64,
    /// The torn tail, when the scan stopped early.
    pub torn: Option<TornTail>,
}

impl RecoveryReport {
    /// `true` when the whole log was valid.
    pub fn is_clean(&self) -> bool {
        self.torn.is_none()
    }

    /// The report as a JSON object (the startup warning's wire shape):
    /// `{"status":"recovered","recovered":N,"valid_bytes":N,
    /// "total_bytes":N,"torn":null|{"offset":N,"reason":"…"}}`.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("status".into(), JsonValue::str("recovered")),
            ("recovered".into(), JsonValue::uint(self.recovered as u64)),
            ("valid_bytes".into(), JsonValue::uint(self.valid_bytes)),
            ("total_bytes".into(), JsonValue::uint(self.total_bytes)),
            (
                "torn".into(),
                match &self.torn {
                    None => JsonValue::Null,
                    Some(t) => JsonValue::Obj(vec![
                        ("offset".into(), JsonValue::uint(t.offset)),
                        ("reason".into(), JsonValue::str(&t.reason)),
                    ]),
                },
            ),
        ])
    }
}

/// One recovered record and where its frame starts (the store indexes
/// evicted jobs by this offset for transparent reload).
#[derive(Clone, Debug, PartialEq)]
pub struct ScannedRecord {
    /// Byte offset of the record's frame header.
    pub offset: u64,
    /// Bytes of the whole frame (header + payload).
    pub frame_bytes: usize,
    /// The parsed record.
    pub record: WalRecord,
}

/// Replay `bytes` and keep exactly the longest checksummed prefix of
/// well-formed records. Never panics: a torn or corrupt tail — short
/// header, impossible length, truncated payload, checksum mismatch,
/// unparseable JSON — stops the scan and is reported, not returned.
pub fn scan(bytes: &[u8]) -> (Vec<ScannedRecord>, RecoveryReport) {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut torn = None;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < HEADER_BYTES {
            torn = Some(TornTail {
                offset: at as u64,
                reason: format!("truncated header ({} of {HEADER_BYTES} bytes)", rest.len()),
            });
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let stored_sum = u64::from_le_bytes(rest[4..HEADER_BYTES].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD {
            torn = Some(TornTail {
                offset: at as u64,
                reason: format!("record length {len} exceeds the {MAX_PAYLOAD}-byte cap"),
            });
            break;
        }
        if rest.len() < HEADER_BYTES + len {
            torn = Some(TornTail {
                offset: at as u64,
                reason: format!(
                    "truncated record (need {} payload bytes, have {})",
                    len,
                    rest.len() - HEADER_BYTES
                ),
            });
            break;
        }
        let payload = &rest[HEADER_BYTES..HEADER_BYTES + len];
        let computed = checksum(payload);
        if computed != stored_sum {
            torn = Some(TornTail {
                offset: at as u64,
                reason: format!(
                    "checksum mismatch (stored {stored_sum:016x}, computed {computed:016x})"
                ),
            });
            break;
        }
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => {
                torn = Some(TornTail {
                    offset: at as u64,
                    reason: "payload is not UTF-8".into(),
                });
                break;
            }
        };
        match WalRecord::from_payload(text) {
            Ok(record) => {
                records.push(ScannedRecord {
                    offset: at as u64,
                    frame_bytes: HEADER_BYTES + len,
                    record,
                });
                at += HEADER_BYTES + len;
            }
            Err(e) => {
                torn = Some(TornTail {
                    offset: at as u64,
                    reason: format!("unparseable payload: {e}"),
                });
                break;
            }
        }
    }
    let report = RecoveryReport {
        recovered: records.len(),
        valid_bytes: at as u64,
        total_bytes: bytes.len() as u64,
        torn,
    };
    (records, report)
}

// ---------------------------------------------------------------------------
// The log handle
// ---------------------------------------------------------------------------

/// Why the log refused an operation. The detail is safe to echo into a
/// `store-unavailable` 503 body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogError {
    /// What failed, human-readable.
    pub detail: String,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

struct LogState {
    backend: Box<dyn LogBackend>,
    healthy: bool,
    appended: u64,
    synced: u64,
}

/// A shared handle on the job log: append-with-sync per commit, reads
/// for rehydration, and a sticky unhealthy state — the first append or
/// sync failure flips the log read-only for the rest of the process
/// (a torn on-disk tail must not be appended past; restart recovers).
pub struct JobLog {
    inner: StdMutex<LogState>,
}

/// What one durable append pins for the store's eviction index.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Appended {
    /// Frame offset of the record.
    pub offset: u64,
    /// Bytes of the whole frame.
    pub frame_bytes: usize,
}

impl JobLog {
    /// Wrap an already-recovered backend (positioned at its valid end).
    pub fn new(backend: Box<dyn LogBackend>) -> JobLog {
        JobLog {
            inner: StdMutex::new(LogState {
                backend,
                healthy: true,
                appended: 0,
                synced: 0,
            }),
        }
    }

    /// An in-memory log (tests, the serve-pool model), optionally with a
    /// fault plan armed.
    pub fn in_memory(plan: &IoFaultPlan) -> JobLog {
        if plan.is_empty() {
            JobLog::new(Box::new(MemBackend::new()))
        } else {
            JobLog::new(Box::new(FaultBackend::new(MemBackend::new(), plan)))
        }
    }

    /// Open a file-backed log: read it, recover the longest checksummed
    /// prefix, truncate the tail, and arm `plan` (when non-empty) on the
    /// writes going forward. Returns the recovered records and the
    /// structured recovery report alongside the live handle.
    pub fn open(
        path: &Path,
        plan: &IoFaultPlan,
    ) -> io::Result<(JobLog, Vec<ScannedRecord>, RecoveryReport)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, report) = scan(&bytes);
        let backend = FileBackend::open(path, report.valid_bytes)?;
        let log = if plan.is_empty() {
            JobLog::new(Box::new(backend))
        } else {
            JobLog::new(Box::new(FaultBackend::new(backend, plan)))
        };
        Ok((log, records, report))
    }

    /// Durably append one record: frame, write, sync. On any failure the
    /// log flips unhealthy and stays that way — the job was *not*
    /// committed and no further appends are accepted.
    pub fn append(&self, record: &WalRecord) -> Result<Appended, LogError> {
        let frame = record.frame();
        let mut state = self.inner.lock().expect("log lock");
        if !state.healthy {
            return Err(LogError {
                detail: "job log is unavailable (an earlier write failed)".into(),
            });
        }
        let offset = state.backend.len();
        if let Err(e) = state.backend.append(&frame) {
            state.healthy = false;
            return Err(LogError {
                detail: format!("job log append failed: {e}"),
            });
        }
        if let Err(e) = state.backend.sync() {
            state.healthy = false;
            return Err(LogError {
                detail: format!("job log sync failed: {e}"),
            });
        }
        state.appended += 1;
        state.synced += 1;
        Ok(Appended {
            offset,
            frame_bytes: frame.len(),
        })
    }

    /// Read back one record by frame offset (rehydration of an evicted
    /// job). Reads stay available after the log turns unhealthy — the
    /// valid prefix is still good.
    pub fn read(&self, offset: u64) -> Result<WalRecord, LogError> {
        let mut state = self.inner.lock().expect("log lock");
        let mut header = [0u8; HEADER_BYTES];
        state
            .backend
            .read_at(offset, &mut header)
            .map_err(|e| LogError {
                detail: format!("job log read failed at {offset}: {e}"),
            })?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let stored_sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD {
            return Err(LogError {
                detail: format!("job log record at {offset} has impossible length {len}"),
            });
        }
        let mut payload = vec![0u8; len];
        state
            .backend
            .read_at(offset + HEADER_BYTES as u64, &mut payload)
            .map_err(|e| LogError {
                detail: format!("job log read failed at {offset}: {e}"),
            })?;
        drop(state);
        if checksum(&payload) != stored_sum {
            return Err(LogError {
                detail: format!("job log record at {offset} failed its checksum"),
            });
        }
        let text = std::str::from_utf8(&payload).map_err(|_| LogError {
            detail: format!("job log record at {offset} is not UTF-8"),
        })?;
        WalRecord::from_payload(text).map_err(|e| LogError {
            detail: format!("job log record at {offset} unparseable: {e}"),
        })
    }

    /// Durably flush (the drain path's final fsync). Failure flips the
    /// log unhealthy like a failed append.
    pub fn sync(&self) -> Result<(), LogError> {
        let mut state = self.inner.lock().expect("log lock");
        if !state.healthy {
            return Err(LogError {
                detail: "job log is unavailable (an earlier write failed)".into(),
            });
        }
        if let Err(e) = state.backend.sync() {
            state.healthy = false;
            return Err(LogError {
                detail: format!("job log sync failed: {e}"),
            });
        }
        state.synced += 1;
        Ok(())
    }

    /// Whether the log is still accepting appends.
    pub fn healthy(&self) -> bool {
        self.inner.lock().expect("log lock").healthy
    }

    /// Records appended (and synced) by this process.
    pub fn appended(&self) -> u64 {
        self.inner.lock().expect("log lock").appended
    }

    /// Log size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().expect("log lock").backend.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, seed: u64, trace: Option<&str>) -> WalRecord {
        let mut spec = JobSpec::new("cholesky", 4).expect("known workload");
        spec.seed = seed;
        let run = spec.run_with_bounds(None).expect("valid spec");
        WalRecord {
            id,
            spec,
            outcome: run.outcome,
            trace: trace.map(str::to_string),
        }
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let rec = record(7, 3, Some(r#"{"traceEvents":[]}"#));
        // A real observed Cholesky job at 12 tiles: a Chrome trace of
        // about 150 KB, escaped into the payload as one string.
        let mut spec = JobSpec::new("cholesky", 12).expect("known workload");
        spec.obs = true;
        let run = spec.run().expect("valid spec");
        let observed = crate::store::StoredJob::fresh(9, spec, run.outcome, run.sim).wal_record();
        let trace_kb = observed.trace.as_ref().expect("obs job has a trace").len() / 1024;
        assert!(trace_kb > 100, "trace of {trace_kb} KB");
        for r in [&rec, &observed] {
            let parsed = WalRecord::from_payload(&r.to_payload()).expect("payload parses");
            assert_eq!(*r, parsed);
        }

        let log = JobLog::in_memory(&IoFaultPlan::none());
        let a = log.append(&rec).expect("append");
        assert_eq!(a.offset, 0);
        let b = log.append(&record(8, 4, None)).expect("append");
        assert_eq!(b.offset, a.frame_bytes as u64);
        assert_eq!(log.read(a.offset).expect("read back"), rec);
        assert_eq!(log.read(b.offset).expect("read back").id, 8);
        let c = log.append(&observed).expect("append");
        assert_eq!(log.read(c.offset).expect("read back"), observed);
        assert_eq!(log.appended(), 3);
    }

    #[test]
    fn scan_recovers_the_longest_valid_prefix() {
        let mut mem = MemBackend::new();
        let recs = [
            record(1, 0, None),
            record(2, 1, Some("{}")),
            record(3, 2, None),
        ];
        for r in &recs {
            mem.append(&r.frame()).expect("mem append");
        }
        let full = mem.bytes().to_vec();

        let (got, report) = scan(&full);
        assert_eq!(got.len(), 3);
        assert!(report.is_clean());
        assert_eq!(report.valid_bytes, full.len() as u64);

        // Flip a byte inside the second record's payload: exactly the
        // first record survives, and the tail is reported, not served.
        let second_start = got[0].frame_bytes;
        let mut corrupt = full.clone();
        corrupt[second_start + HEADER_BYTES + 5] ^= 0x40;
        let (got, report) = scan(&corrupt);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].record, recs[0]);
        let torn = report.torn.expect("tail reported");
        assert_eq!(torn.offset, second_start as u64);
        assert!(torn.reason.contains("checksum mismatch"), "{}", torn.reason);

        // Truncate mid-record: same story.
        let cut = &full[..second_start + HEADER_BYTES + 3];
        let (got, report) = scan(cut);
        assert_eq!(got.len(), 1);
        let torn = report.torn.expect("tail");
        assert!(torn.reason.contains("truncated record"), "{}", torn.reason);

        // A checksummed record nested past the parser's cap is a torn
        // tail too, not a stack overflow.
        let payload = "[".repeat(100_000);
        let mut deep = full[..second_start].to_vec();
        deep.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        deep.extend_from_slice(&checksum(payload.as_bytes()).to_le_bytes());
        deep.extend_from_slice(payload.as_bytes());
        let (got, report) = scan(&deep);
        assert_eq!(got.len(), 1);
        let torn = report.torn.expect("tail");
        assert_eq!(torn.offset, second_start as u64);
        assert!(torn.reason.contains("nesting deeper"), "{}", torn.reason);
    }

    #[test]
    fn injected_faults_flip_the_log_unhealthy_and_stay_sticky() {
        // Short write on the second append.
        let log = JobLog::in_memory(&IoFaultPlan::new().short_write(2, 5));
        log.append(&record(1, 0, None)).expect("first append clean");
        let err = log.append(&record(2, 1, None)).expect_err("short write");
        assert!(err.detail.contains("short write"), "{err}");
        assert!(!log.healthy());
        let err = log.append(&record(3, 2, None)).expect_err("sticky");
        assert!(err.detail.contains("unavailable"), "{err}");
        // Reads of the valid prefix still work.
        assert_eq!(log.read(0).expect("prefix readable").id, 1);

        // Disk-full by byte threshold.
        let log = JobLog::in_memory(&IoFaultPlan::new().disk_full(1));
        log.append(&record(1, 0, None)).expect("empty log fits");
        let err = log.append(&record(2, 1, None)).expect_err("disk full");
        assert!(err.detail.contains("disk full"), "{err}");

        // Flush failure.
        let log = JobLog::in_memory(&IoFaultPlan::new().flush_fail(1));
        let err = log.append(&record(1, 0, None)).expect_err("flush fails");
        assert!(err.detail.contains("flush"), "{err}");
        assert!(!log.healthy());
    }

    #[test]
    fn file_log_survives_reopen_with_a_torn_tail_truncated() {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let dir =
            std::env::temp_dir().join(format!("hetchol-wal-test-{}-{nonce:x}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("jobs.wal");
        let _ = std::fs::remove_file(&path);

        let (log, recs, report) = JobLog::open(&path, &IoFaultPlan::none()).expect("open fresh");
        assert!(recs.is_empty());
        assert!(report.is_clean());
        let rec = record(1, 0, Some(r#"{"traceEvents":[]}"#));
        log.append(&rec).expect("append");
        drop(log);

        // Append garbage by hand: a torn tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(&[0xde, 0xad, 0xbe]).expect("tear");
        }
        let (log, recs, report) = JobLog::open(&path, &IoFaultPlan::none()).expect("reopen");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].record, rec);
        assert!(!report.is_clean());
        assert_eq!(report.total_bytes - report.valid_bytes, 3);
        // The tail was truncated on disk; a fresh append lands cleanly.
        log.append(&record(2, 1, None))
            .expect("append after recovery");
        drop(log);
        let (_, recs, report) = JobLog::open(&path, &IoFaultPlan::none()).expect("reopen again");
        assert_eq!(recs.len(), 2);
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
