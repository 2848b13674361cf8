//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (prefixed by its layer), a start and an end, the span
//! that caused it, and a key shared by every span of one request, sample or
//! step. Spans stay in memory until the run ends; then they are written out
//! and reduced to per-layer self time: a span's duration minus the part of
//! its interval covered by its children.
//!
//! A disabled tracer reads no clock and stores nothing, so untraced runs
//! pay only a branch per call site.

use etherm_serve::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layers spans are attributed to, in report order. A span belongs to
/// the longest layer name that prefixes its own name.
pub const LAYERS: [&str; 6] = [
    "package",
    "core.compile",
    "core.session",
    "core.ensemble",
    "numerics",
    "serve",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Buffer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Cheap to clone; clones share one span buffer.
#[derive(Clone, Default)]
pub struct Tracer {
    buffer: Option<Arc<Buffer>>,
}

/// An open span; closed (recorded) when dropped.
pub struct Guard<'a> {
    buffer: Option<&'a Buffer>,
    id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of nested spans (0 when the
    /// tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let (Some(buffer), Some(start)) = (self.buffer, self.start) {
            buffer.push(
                self.id,
                self.parent,
                self.name,
                self.key,
                start,
                Instant::now(),
            );
        }
    }
}

impl Buffer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            buffer: enabled.then(|| {
                Arc::new(Buffer {
                    origin: Instant::now(),
                    next_id: AtomicU64::new(1),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Opens a span under `parent` (0 = root) for request/sample/step `key`.
    pub fn span(&self, name: &'static str, parent: u64, key: u64) -> Guard<'_> {
        match &self.buffer {
            Some(buffer) => Guard {
                buffer: Some(buffer),
                id: buffer.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                key,
                start: Some(Instant::now()),
            },
            None => Guard {
                buffer: None,
                id: 0,
                parent,
                name,
                key,
                start: None,
            },
        }
    }

    /// Reserves a span id for a span recorded later with [`Tracer::record`]
    /// (a span whose start and end are taken on different threads).
    pub fn reserve(&self) -> u64 {
        self.buffer
            .as_ref()
            .map_or(0, |b| b.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a finished span with explicit bounds under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(buffer) = &self.buffer {
            buffer.push(id, parent, name, key, start, end);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.buffer.as_ref().map_or_else(Vec::new, |b| {
            b.spans.lock().expect("span buffer lock poisoned").clone()
        })
    }
}

pub fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .filter(|l| name == **l || name.starts_with(&format!("{l}.")))
        .max_by_key(|l| l.len())
        .copied()
        .unwrap_or("other")
}

/// Self time per layer in seconds: each span's duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".to_string(), Value::uint(s.id)),
                    ("parent".to_string(), Value::uint(s.parent)),
                    ("name".to_string(), Value::str(s.name)),
                    ("key".to_string(), Value::uint(s.key)),
                    ("start_ns".to_string(), Value::uint(s.start_ns)),
                    ("end_ns".to_string(), Value::uint(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "core.ensemble.campaign", 0, 1000),
            span(2, 1, "core.ensemble.apply", 100, 300),
            span(3, 1, "core.ensemble.apply", 200, 400),
            span(4, 0, "core.session.step", 0, 50),
        ];
        let s = self_seconds(&spans);
        assert!((s["core.ensemble"] - 1100e-9).abs() < 1e-15);
        assert!((s["core.session"] - 50e-9).abs() < 1e-15);
        assert_eq!(layer_of("core.compile"), "core.compile");
        assert_eq!(layer_of("serve.admit"), "serve");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("package.build_model", 0, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(t.spans().is_empty());
    }
}
