//! In-memory span recording around the calls the benchmark makes into
//! each layer, written out as JSONL once a run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;

use crate::clock::HostClock;

/// One timed call: `[start_ns, end_ns)` on the recorder's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.on_tick`.
    pub name: &'static str,
    /// The request or handle the call concerns, when it has one.
    pub id: Option<u64>,
    /// Start, in nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; the innermost open span is the parent of the next one.
pub struct Recorder {
    clock: HostClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A recorder shared between the benchmark loop and the policy decorator.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            clock: HostClock::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A new recorder behind a shared handle.
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::new()))
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) -> usize {
        let ix = self.spans.len();
        let now = self.clock.ns();
        self.spans.push(Span {
            name,
            id,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
        ix
    }

    /// Closes span `ix`, which must be the innermost open span.
    pub fn end(&mut self, ix: usize) {
        assert_eq!(
            self.open.pop(),
            Some(ix),
            "spans must close innermost first"
        );
        self.spans[ix].end_ns = self.clock.ns();
    }

    /// Closes span `ix` and records the id learned during the call.
    pub fn end_with_id(&mut self, ix: usize, id: Option<u64>) {
        self.end(ix);
        self.spans[ix].id = id;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (ix, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"span\":{ix},\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.id),
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(
    rec: &SharedRecorder,
    name: &'static str,
    id: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let ix = rec.borrow_mut().begin(name, id);
    let out = f();
    rec.borrow_mut().end(ix);
    out
}

/// Self time of every span in `spans` (indices are positions in the
/// slice): its duration minus the part of it that its direct children
/// cover. Overlapping children are counted once; grandchildren lie inside
/// their parent and so are already covered.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.ns() - covered_ns(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Call count and total duration per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Their summed duration.
    pub ns: u64,
}

/// Sums [`NameTotal`]s over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.ns += s.ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: None,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 60, 65, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60);
    }

    #[test]
    fn nested_spans_charge_each_level_its_own_share() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 20, 60, Some(0)),
            span("leaf", 30, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_by_open_order_and_totals_by_name() {
        let mut r = Recorder::new();
        let root = r.begin("bench.run", None);
        let a = r.begin("core.on_tick", None);
        r.end(a);
        let b = r.begin("core.on_tick", Some(7));
        r.end(b);
        r.end(root);
        let spans = r.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].id, Some(7));
        let totals = totals_by_name(spans);
        assert_eq!(totals["core.on_tick"].calls, 2);
        assert_eq!(totals["bench.run"].calls, 1);
    }
}
