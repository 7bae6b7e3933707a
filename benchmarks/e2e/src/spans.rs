//! The benchmark's own span buffer.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! of the stack (tracing *inside* the crates is a later change). They stay
//! in memory while the run measures and are written out, if asked, when it
//! ends. Only the driver thread records, so the buffer is thread-local.

use std::cell::RefCell;
use std::time::Instant;

/// The layer a span's time is charged to. `Op` is the root span of one
/// operation: its self time is what no layer span inside it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Op,
    Hwtopo,
    Core,
    Mpi,
    Mpisim,
    Simnet,
    Analyze,
}

impl Layer {
    /// The layers time is attributed to (everything but the op root).
    pub const ATTRIBUTED: [Layer; 6] = [
        Layer::Hwtopo,
        Layer::Core,
        Layer::Mpi,
        Layer::Mpisim,
        Layer::Simnet,
        Layer::Analyze,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Hwtopo => "hwtopo",
            Layer::Core => "core",
            Layer::Mpi => "mpi",
            Layer::Mpisim => "mpisim",
            Layer::Simnet => "simnet",
            Layer::Analyze => "analyze",
        }
    }
}

/// One recorded span. `parent` indexes the buffer; spans of one operation
/// share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

struct Buffer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Turns recording on or off. While off, [`span`] costs one thread-local
/// flag check and reads no clock.
pub fn set_enabled(on: bool) {
    BUFFER.with(|b| b.borrow_mut().enabled = on);
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Opens a span under the innermost open span. A [`Layer::Op`] span starts
/// a new operation id.
pub fn span(layer: Layer, name: &'static str) -> SpanGuard {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        if !b.enabled {
            return SpanGuard(None);
        }
        if layer == Layer::Op {
            b.op += 1;
        }
        let idx = b.spans.len() as u32;
        let rec = SpanRec {
            name,
            layer,
            start_ns: b.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: b.open.last().copied(),
            op: b.op,
        };
        b.spans.push(rec);
        b.open.push(idx);
        SpanGuard(Some(idx))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        BUFFER.with(|b| {
            let mut b = b.borrow_mut();
            let now = b.origin.elapsed().as_nanos() as u64;
            b.spans[idx as usize].end_ns = now;
            // Guards drop in reverse order of creation, so `idx` is on top.
            b.open.pop();
        });
    }
}

/// Runs `f` inside a span.
pub fn in_span<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(layer, name);
    f()
}

/// Spans recorded so far.
pub fn len() -> usize {
    BUFFER.with(|b| b.borrow().spans.len())
}

/// Takes every recorded span out of the buffer.
pub fn drain() -> Vec<SpanRec> {
    BUFFER.with(|b| std::mem::take(&mut b.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children of one parent on one thread never
/// overlap, so their durations add).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            own[p as usize] = own[p as usize].saturating_sub(dur);
        }
    }
    own
}

/// Self time per layer (in [`Layer::ATTRIBUTED`] order) and the summed wall
/// time of the op roots, over the spans in `within`; nanoseconds.
pub struct LayerTotals {
    pub layers: [u64; Layer::ATTRIBUTED.len()],
    pub op_wall: u64,
}

/// Adds up self times by layer over the index ranges `within` of `spans`.
/// Ranges must hold whole operations (a span and all its descendants).
pub fn layer_totals(
    spans: &[SpanRec],
    within: impl IntoIterator<Item = std::ops::Range<usize>>,
) -> LayerTotals {
    let own = self_times(spans);
    let mut totals = LayerTotals {
        layers: [0; Layer::ATTRIBUTED.len()],
        op_wall: 0,
    };
    for i in within.into_iter().flatten() {
        match Layer::ATTRIBUTED.iter().position(|&l| l == spans[i].layer) {
            Some(layer) => totals.layers[layer] += own[i],
            None => totals.op_wall += spans[i].end_ns.saturating_sub(spans[i].start_ns),
        }
    }
    totals
}

/// Renders spans as a JSON array (one object per span).
pub fn to_json(spans: &[SpanRec]) -> String {
    let own = self_times(spans);
    let mut out = String::from("[");
    for (i, (s, t)) in spans.iter().zip(&own).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t},\"parent\":{parent},\"op\":{}}}",
            s.name,
            s.layer.label(),
            s.start_ns,
            s.end_ns,
            s.op
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: Layer, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100] > core [10,40] > hwtopo [15,25]; op > simnet [50,90].
        let spans = vec![
            rec(Layer::Op, 0, 100, None),
            rec(Layer::Core, 10, 40, Some(0)),
            rec(Layer::Hwtopo, 15, 25, Some(1)),
            rec(Layer::Simnet, 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let totals = layer_totals(&spans, std::iter::once(0..4));
        assert_eq!(totals.layers, [10, 20, 0, 0, 40, 0]);
        // Layer self times and the op root's own self time partition its wall.
        assert_eq!(totals.layers.iter().sum::<u64>() + 30, totals.op_wall);
        assert_eq!(layer_totals(&spans, std::iter::once(0..0)).op_wall, 0);
    }

    #[test]
    fn recording_nests_and_numbers_operations() {
        set_enabled(true);
        for _ in 0..2 {
            let _op = span(Layer::Op, "op");
            in_span(Layer::Core, "plan", || {
                in_span(Layer::Hwtopo, "dist", || std::hint::black_box(1));
            });
            in_span(Layer::Simnet, "run", || std::hint::black_box(2));
        }
        set_enabled(false);
        let _ignored = span(Layer::Core, "off");
        let spans = drain();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        assert_eq!((spans[0].op, spans[3].op, spans[4].op), (1, 1, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        assert!(own[0] <= spans[0].end_ns - spans[0].start_ns);
        assert!(to_json(&spans).contains("\"layer\":\"hwtopo\""));
    }
}
