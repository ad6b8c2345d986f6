//! The span recorder of the traced run.
//!
//! One span per call the ledger makes into a layer: name, start, end, the
//! span that caused it, and the request it belongs to, with counts attached
//! at the same boundary. Spans stay in memory and are written once, when
//! the traced pass is over. A span's self time is its duration minus the
//! part its children cover, so the self times of a trace add up to the
//! duration of its roots. Spans inside the program are a later change.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// Records spans of one thread. Spans nest: `begin` makes the new span a
/// child of the innermost open one.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Spans written to the trace file one by one.
pub const SPANS_WRITTEN: usize = 50_000;

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    /// `origin` is shared by the recorders of one trace so their clocks agree.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans begun from now on belong to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Ends the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must end innermost first");
        self.spans[id].end_ns = end_ns;
    }

    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let value = f();
        self.end(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        assert!(self.open.is_empty(), "a span is still open");
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotal> {
        let own = self.self_times();
        let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += own;
        }
        totals
    }

    /// Sum of self times over the summed duration of root spans: 1 when
    /// every child lies inside its parent, as it must.
    pub fn coverage(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let own: u64 = self.self_times().iter().sum();
        if roots == 0 {
            1.0
        } else {
            own as f64 / roots as f64
        }
    }

    /// Writes the trace: totals per name over every span, then the first
    /// `SPANS_WRITTEN` spans one by one (a 12 s search run records half a
    /// million; the totals cover all of them).
    pub fn write(&self, path: &Path, workload: &str, wall_ns: u64) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let own = self.self_times();
        let written = self.spans.len().min(SPANS_WRITTEN);
        let mut out = String::with_capacity(256 + written * 160);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"wall_ns\":{wall_ns},\"self_time_coverage\":{:?},\"spans_total\":{},\"spans_written\":{written},\"by_name\":{{",
            self.coverage(),
            self.spans.len()
        );
        for (i, (name, t)) in self.by_name().iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (id, (span, own)) in self.spans.iter().zip(own).enumerate().take(written) {
            let comma = if id == 0 { "" } else { "," };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{comma}\n{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"counts\":{{",
                span.request, span.name, span.start_ns, span.end_ns
            );
            for (i, (key, value)) in span.counts.iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                let _ = write!(out, "{comma}\"{key}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < micros as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_adds_up() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_request(7);
        let root = rec.begin("request");
        rec.span("search", || spin(300));
        let rank = rec.begin("rank");
        rec.count(rank, "matches", 3);
        spin(100);
        rec.end(rank);
        spin(50);
        rec.end(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(root));
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[2].counts, vec![("matches", 3)]);

        let own = rec.self_times();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert!(own[0] >= 50_000, "root keeps the time outside its children");
        assert_eq!(own.iter().sum::<u64>(), dur(0));
        assert!((rec.coverage() - 1.0).abs() < 1e-12);

        let totals = rec.by_name();
        assert_eq!(totals["search"].count, 1);
        assert_eq!(totals["request"].self_ns, own[0]);
    }

    #[test]
    fn the_trace_file_is_json_with_totals_and_spans() {
        let mut rec = Recorder::new(Instant::now());
        let outer = rec.begin("outer");
        rec.span("inner", || spin(10));
        rec.end(outer);
        rec.span("inner", || spin(10));

        let dir =
            std::env::temp_dir().join(format!("ndss_ledger_trace_test_{}", std::process::id()));
        let path = dir.join("trace.json");
        rec.write(&path, "unit", 1234).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = ndss::json::Json::parse(&text).expect("trace file parses");
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("wall_ns").unwrap().as_u64(), Some(1234));
        let inner = doc.get("by_name").unwrap().get("inner").unwrap();
        assert_eq!(inner.get("count").unwrap().as_u64(), Some(2));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn ending_out_of_order_is_a_bug() {
        let mut rec = Recorder::new(Instant::now());
        let a = rec.begin("a");
        let _b = rec.begin("b");
        rec.end(a);
    }
}
