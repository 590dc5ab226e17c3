//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions.
//!
//! A span has a name, a start and an end (ns since the run's base
//! instant), the span that caused it, and the request id it belongs
//! to. Spans nest on one thread; a span's self time is its duration
//! minus the time its child spans cover. Per-name duration and
//! self-time histograms cover every span; the raw spans are kept in
//! memory up to a fixed cap and written out when the run ends.

use crate::stats::Hist;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the written trace; later spans still feed the
/// histograms.
const KEPT_SPANS: usize = 1 << 16;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the kept list (`u32::MAX`: none or
    /// not kept).
    pub parent: u32,
    pub req: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: u32,
}

/// Per-name aggregates.
#[derive(Default)]
pub struct SpanStats {
    pub dur: Hist,
    pub self_ns: Hist,
}

pub struct Tracer {
    base: Instant,
    kept: Vec<Span>,
    open: Vec<Open>,
    by_name: BTreeMap<&'static str, SpanStats>,
}

impl Tracer {
    pub fn new(base: Instant) -> Tracer {
        Tracer {
            base,
            kept: Vec::new(),
            open: Vec::new(),
            by_name: BTreeMap::new(),
        }
    }

    /// One clock read, as ns since the base instant.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span that started at `start_ns` (a clock value the caller
    /// already read, so a call boundary costs one read).
    pub fn begin_at(&mut self, name: &'static str, req: u64, start_ns: u64) {
        let parent = self.open.last().map_or(u32::MAX, |o| o.kept);
        let kept = if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            (self.kept.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Close the innermost open span at `end_ns`; returns its duration.
    pub fn end_at(&mut self, end_ns: u64) -> u64 {
        let open = self.open.pop().expect("end without begin");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.kept.get_mut(open.kept as usize) {
            span.end_ns = end_ns;
        }
        let stats = self.by_name.entry(open.name).or_default();
        stats.dur.record(dur);
        stats.self_ns.record(dur.saturating_sub(open.child_ns));
        dur
    }

    /// Record an already-timed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        self.begin_at(name, req, start_ns);
        self.end_at(end_ns);
    }

    pub fn stats(&self, name: &str) -> Option<&SpanStats> {
        self.by_name.get(name)
    }

    pub fn dur_p(&self, name: &str, q: f64) -> f64 {
        self.stats(name).map_or(0.0, |s| s.dur.quantile(q))
    }

    pub fn self_p50(&self, name: &str) -> f64 {
        self.stats(name).map_or(0.0, |s| s.self_ns.quantile(0.5))
    }

    /// Write the kept spans as JSON lines.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new(Instant::now());
        t.begin_at("root", 1, 100);
        t.leaf("child", 1, 110, 150);
        t.leaf("child", 1, 160, 170);
        assert_eq!(t.end_at(200), 100);
        assert_eq!(t.self_p50("root"), 50.0);
        assert_eq!(t.self_p50("child"), 10.0);
        assert_eq!(t.kept[1].parent, 0);
        assert_eq!(t.kept[0].parent, u32::MAX);
    }
}
