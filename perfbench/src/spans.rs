//! The traced mode's span recorder: spans (layer, start, end, parent, op)
//! kept in memory around every call the benchmark makes into a public
//! function, written out at the end, and reduced to per-layer self time
//! (span minus the part of it its children cover) and call counts.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The repository's layers, as span names use them (a span's layer is the
/// part of its name before the first dot).
pub const LAYERS: [&str; 7] = ["core", "sched", "sim", "bounds", "analyze", "job", "serve"];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same replay with spans off, for
    /// the tracing overhead.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for op `op`; spans opened inside
    /// `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and count per layer, in seconds.
    pub fn per_layer(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut ns: BTreeMap<&'static str, (u64, u64)> =
            LAYERS.iter().map(|&l| (l, (0, 0))).collect();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_len(kids, s.start_ns, s.end_ns);
            let e = ns.entry(layer_of(s.name)).or_insert((0, 0));
            e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
            e.1 += 1;
        }
        ns.into_iter()
            .map(|(layer, (own, calls))| (layer, (own as f64 / 1e9, calls)))
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\top\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

pub fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .copied()
        .find(|&l| l == head)
        .unwrap_or_else(|| panic!("span {name:?} names no layer"))
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "job",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "sim",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "bounds.lp",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "core.dag",
                start_ns: 15,
                end_ns: 20,
                parent: Some(1),
                op: 0,
            },
        ];
        let layers = t.per_layer();
        assert_eq!(layers["job"].0, 50e-9);
        assert_eq!(layers["sim"].0, 25e-9);
        assert_eq!(layers["bounds"], (30e-9, 1));
        assert_eq!(layers["core"], (5e-9, 1));
        assert_eq!(layers["serve"], (0.0, 0));
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new();
        t.span("job", 3, |t| t.span("core.dag", 3, |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
