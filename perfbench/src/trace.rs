//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and the id of the
//! pass or request it belongs to.  Spans are kept in memory and written
//! out once the run ends.  A disabled tracer records nothing and reads
//! no clock.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, trace_id: u64, parent: Option<u32>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        SpanGuard {
            tracer: self,
            open: Some((id, parent, trace_id, name, start_ns)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every finished span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Renders the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.trace_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    open: Option<(u32, Option<u32>, u64, &'static str, u64)>,
}

impl SpanGuard<'_> {
    /// The span's id, for use as a child's parent (`None` when disabled).
    pub fn id(&self) -> Option<u32> {
        self.open.map(|o| o.0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, trace_id, name, start_ns)) = self.open.take() {
            let end_ns = self.tracer.now_ns();
            self.tracer
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Span {
                    id,
                    parent,
                    trace_id,
                    name,
                    start_ns,
                    end_ns,
                });
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover.  Keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, over the spans of the given traces.
pub fn self_time_by_name(spans: &[Span], traces: &[u64]) -> HashMap<&'static str, u64> {
    let selected: Vec<Span> = spans
        .iter()
        .filter(|s| traces.contains(&s.trace_id))
        .cloned()
        .collect();
    let selfs = self_times(&selected);
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for s in &selected {
        *by_name.entry(s.name).or_default() += selfs[&s.id];
    }
    by_name
}
