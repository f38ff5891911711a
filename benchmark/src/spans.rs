//! In-memory spans around the benchmark's calls into each layer, and the
//! fold that turns them into per-name and per-layer self time.
//!
//! Spans are recorded from the benchmark's own files only (nothing in
//! the program is instrumented by this PR). Each thread owns a
//! [`Recorder`]; ids come from one process-wide counter so a span on a
//! worker thread can name a parent recorded on another. A span name is
//! `<layer>.<call>`; the layer is the part before the first dot.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::clock::now_ns;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one; 0 = none.
    pub parent: u32,
    /// Spans of one request share this; 0 = not tied to a request.
    pub request: u64,
}

static NEXT_ID: AtomicU32 = AtomicU32::new(1);

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    parent: u32,
    request: u64,
}

impl Open {
    /// Id to hand to children as their parent (0 when recording is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// One thread's span buffer. When off, `start`/`end` read no clock and
/// store nothing, so an untraced run pays one branch per call.
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            spans: Vec::new(),
        }
    }

    pub fn start(&mut self, name: &'static str, parent: u32, request: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                name,
                start_ns: 0,
                parent: 0,
                request: 0,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            name,
            start_ns: now_ns(),
            parent,
            request,
        }
    }

    /// Ends `open`; returns how long it lasted (0 when recording is off).
    pub fn end(&mut self, open: Open) -> u64 {
        if open.id == 0 {
            return 0;
        }
        let end_ns = now_ns();
        self.spans.push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            request: open.request,
        });
        end_ns - open.start_ns
    }

    /// Runs `f` inside a span; returns its result and the span's length.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.start(name, parent, 0);
        let out = f();
        (out, self.end(open))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals of one span name (or one layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval its child spans cover.
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus the union of its
/// children's intervals (clipped to the span, overlaps counted once).
pub fn fold_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered.min(total);
    }
    out
}

/// Self time per layer (the span name up to its first dot).
pub fn fold_by_layer(by_name: &BTreeMap<&'static str, Totals>) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (name, t) in by_name {
        let layer = name.split('.').next().unwrap_or(name);
        let l = out.entry(layer).or_default();
        l.count += t.count;
        l.total_ns += t.total_ns;
        l.self_ns += t.self_ns;
    }
    out
}

/// Rows written per span name; the folds below still cover every span.
const ROWS_PER_NAME: u64 = 2_000;

/// Writes spans as JSON: a name table, one
/// `[name index, start_ns, end_ns, id, parent, request]` row per span
/// (the first [`ROWS_PER_NAME`] of each name), then the two folds over
/// all spans.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let by_name = fold_by_name(spans);
    let names: Vec<&str> = by_name.keys().copied().collect();
    let index: HashMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(w, "{{\"names\": [{}],", quoted.join(", "))?;
    writeln!(
        w,
        "\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"id\", \"parent\", \"request\"],"
    )?;
    writeln!(w, "\"rows_per_name\": {ROWS_PER_NAME},")?;
    writeln!(w, "\"spans\": [")?;
    let mut written: HashMap<&str, u64> = HashMap::new();
    let mut first = true;
    for s in spans {
        let n = written.entry(s.name).or_default();
        *n += 1;
        if *n > ROWS_PER_NAME {
            continue;
        }
        let comma = if std::mem::take(&mut first) { "" } else { "," };
        writeln!(
            w,
            "{comma}[{},{},{},{},{},{}]",
            index[s.name], s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    writeln!(w, "],")?;
    let fold = |m: &BTreeMap<&'static str, Totals>| -> String {
        let rows: Vec<String> = m
            .iter()
            .map(|(k, t)| {
                format!(
                    "\"{k}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    };
    writeln!(w, "\"self_time_by_name\": {},", fold(&by_name))?;
    writeln!(
        w,
        "\"self_time_by_layer\": {}}}",
        fold(&fold_by_layer(&by_name))
    )?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(1, "client.pass", 0, 100, 0),
            // Two overlapping children cover [10, 50); one sticks out past
            // the parent's end and is clipped to [90, 100).
            span(2, "client.send", 10, 40, 1),
            span(3, "client.send", 30, 50, 1),
            span(4, "wire.verify", 90, 130, 1),
            // A grandchild only reduces its own parent's self time.
            span(5, "wire.crc", 95, 100, 4),
        ];
        let by_name = fold_by_name(&spans);
        assert_eq!(
            by_name["client.pass"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            by_name["client.send"],
            Totals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(
            by_name["wire.verify"],
            Totals {
                count: 1,
                total_ns: 40,
                self_ns: 35
            }
        );
        let by_layer = fold_by_layer(&by_name);
        assert_eq!(
            by_layer["client"],
            Totals {
                count: 3,
                total_ns: 150,
                self_ns: 100
            }
        );
        assert_eq!(
            by_layer["wire"],
            Totals {
                count: 2,
                total_ns: 45,
                self_ns: 40
            }
        );
    }

    #[test]
    fn a_recorder_that_is_off_stores_nothing() {
        let mut off = Recorder::new(false);
        let open = off.start("client.send", 0, 7);
        assert_eq!(open.id(), 0);
        off.end(open);
        assert!(off.into_spans().is_empty());

        let mut on = Recorder::new(true);
        let root = on.start("client.pass", 0, 7);
        let root_id = root.id();
        let ((), lasted) = on.time("client.send", root_id, || ());
        on.end(root);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(lasted, spans[0].end_ns - spans[0].start_ns);
        assert_eq!(spans[0].parent, root_id);
        assert_eq!(spans[1].request, 7);
    }
}
