//! Spans of the traced run, kept in memory and written at the end as a
//! Chrome-trace JSON document (loadable in Perfetto or chrome://tracing).

use mapreduce_support::json::{JsonValue, ToJson};
use std::time::Instant;

/// Identifier of a recorded span (0 is "no parent").
pub type SpanId = u64;

struct Span {
    name: String,
    parent: SpanId,
    start_ns: u64,
    dur_ns: u64,
}

/// Records one span per engine run, cell, request and request phase.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the tracer and the new span's id so it can open children. Returns
    /// `f`'s result and the span's duration in nanoseconds.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: SpanId,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> (R, u64) {
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns: 0,
        });
        let id = index as SpanId + 1;
        let result = f(self, id);
        let dur_ns = nanos(start.elapsed());
        self.spans[index].dur_ns = dur_ns;
        (result, dur_ns)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome-trace document: complete (`"X"`) events on one
    /// track, each carrying its own id and its parent's.
    pub fn to_chrome_json(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                JsonValue::object([
                    ("name", span.name.to_json()),
                    ("ph", JsonValue::String("X".to_string())),
                    ("pid", 1u64.to_json()),
                    ("tid", 1u64.to_json()),
                    ("ts", (span.start_ns as f64 / 1e3).to_json()),
                    ("dur", (span.dur_ns as f64 / 1e3).to_json()),
                    (
                        "args",
                        JsonValue::object([
                            ("id", (i as u64 + 1).to_json()),
                            ("parent", span.parent.to_json()),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::object([
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::String("ms".to_string())),
        ])
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let mut tracer = Tracer::default();
        let ((), outer) = tracer.span("request", 0, |t, id| {
            t.span("decode", id, |_, _| ());
            t.span("submit", id, |_, _| ());
        });
        assert_eq!(tracer.len(), 3);
        let doc = tracer.to_chrome_json();
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let parent = |i: usize| {
            events[i]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64()
        };
        assert_eq!(
            (parent(0), parent(1), parent(2)),
            (Some(0), Some(1), Some(1))
        );
        assert!(outer >= tracer.spans[1].dur_ns + tracer.spans[2].dur_ns);
    }
}
