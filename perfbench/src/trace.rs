//! The benchmark's own spans, recorded around calls into each layer.
//!
//! A span has a name, a start and end (ns since the tracer was created),
//! the span that caused it and the request it belongs to. Spans stay in
//! memory and are written out when the run ends. A disabled tracer records
//! nothing, so the untraced runs pay one branch per span.

use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when tracing is off;
    /// real ids start at 1).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserves an id for a parent span whose end is not known yet; close
    /// it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<u64>, request: u64) -> Option<u64> {
        let now = Instant::now();
        self.on
            .then(|| self.record(name, parent, request, now, now))
    }

    pub fn close(&self, id: Option<u64>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans[id as usize - 1].end_ns = end;
        }
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// `taamr_obs` counter and span totals at one instant; subtract two to get
/// the deltas over a window.
#[derive(Debug, Clone)]
pub struct Obs(taamr_obs::Telemetry);

impl Obs {
    pub fn now() -> Self {
        Obs(taamr_obs::snapshot())
    }

    /// Counter delta since `before`.
    pub fn counter(&self, before: &Obs, name: &str) -> f64 {
        let get = |t: &taamr_obs::Telemetry| t.counter(name).unwrap_or(0);
        get(&self.0).saturating_sub(get(&before.0)) as f64
    }

    /// `(count, seconds)` delta of the obs span aggregate `name`.
    pub fn span(&self, before: &Obs, name: &str) -> (f64, f64) {
        let get = |t: &taamr_obs::Telemetry| t.span(name).map_or((0, 0), |s| (s.count, s.total_ns));
        let (c1, t1) = get(&self.0);
        let (c0, t0) = get(&before.0);
        (
            c1.saturating_sub(c0) as f64,
            t1.saturating_sub(t0) as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_parent_and_request() {
        let t = Tracer::new(true);
        let root = t.open("root", None, 7);
        let child = t.record("child", root, 7, Instant::now(), Instant::now());
        t.close(root);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].id, child);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.record("x", None, 0, Instant::now(), Instant::now()), 0);
        assert!(t.open("y", None, 0).is_none());
        assert!(t.take().is_empty());
    }
}
