//! In-memory spans around calls into each layer, written out at the end
//! of a traced run.
//!
//! A span has a name, a start, an end and the span that caused it.
//! Spans of one scene or one daemon request share a group id. A span's
//! self time is its duration minus that of its children (children of
//! one span run one after another on one thread, so they never overlap).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub group: u64,
    pub name: &'static str,
    /// Outcome label (`accepted`, `requirement`, …) for candidate spans.
    pub tag: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, group: u64) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            tag: "",
            start: now,
            end: now,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, group);
        let value = f();
        self.close(id);
        value
    }

    /// Appends another thread's spans (sharing this tracer's origin).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
    }

    /// Durations in µs of every span with this name.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Total self time in ms per span name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.micros();
            }
        }
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0.0) += (span.micros() - child_us[span.id]) / 1e3;
        }
        totals
    }

    /// The spans as JSON rows `[id, parent, group, name, tag, start_us,
    /// end_us]`, with the self-time table.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"columns\": [\"id\", \"parent\", \"group\", \"name\", \"tag\", \"start_us\", \"end_us\"], \"self_ms\": {{"
        );
        for (i, (name, ms)) in self.self_ms().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {ms:.3}");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}[{}, {parent}, {}, \"{}\", \"{}\", {:.3}, {:.3}]",
                s.id,
                s.group,
                s.name,
                s.tag,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
