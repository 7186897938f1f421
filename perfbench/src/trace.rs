//! Benchmark-side spans: one per layer boundary of a replayed request,
//! kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;

use crate::report::json_string;

/// One timed call at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request id shared by every span of one replayed operation.
    pub request: u64,
    /// Boundary name, e.g. `net.wire`, `net.respond`, `serve.execute`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, `None` for the root.
    pub parent: Option<usize>,
    /// Verb or operation the request performs.
    pub verb: &'static str,
    /// Start offset from the recorder's creation, seconds.
    pub start: f64,
    /// Duration, seconds.
    pub secs: f64,
}

/// Collects spans; ids of one request chain parent to child.
pub struct Recorder {
    epoch: std::time::Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self { epoch: std::time::Instant::now(), spans: Vec::new(), next_request: 1 }
    }
}

impl Recorder {
    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    /// Times `f` as span `name` of `request` under `parent`; returns the
    /// span index (for children) and `f`'s value.
    pub fn time<T>(
        &mut self,
        request: u64,
        verb: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let t0 = std::time::Instant::now();
        let value = f();
        let secs = t0.elapsed().as_secs_f64();
        let start = t0.duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span { request, name, parent, verb, start, secs });
        (self.spans.len() - 1, value)
    }

    /// Records a span whose duration was measured elsewhere (e.g. the
    /// median of a workload's end-to-end samples); returns its index.
    pub fn record(
        &mut self,
        request: u64,
        verb: &'static str,
        name: &'static str,
        parent: Option<usize>,
        secs: f64,
    ) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { request, name, parent, verb, start, secs });
        self.spans.len() - 1
    }

    /// Duration of span `index`, seconds.
    pub fn secs(&self, index: usize) -> f64 {
        self.spans[index].secs
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"request\": {}, \"parent\": {parent}, \"verb\": {}, \
                 \"name\": {}, \"start_s\": {}, \"secs\": {}}}",
                s.request,
                json_string(s.verb),
                json_string(s.name),
                s.start,
                s.secs
            )?;
        }
        out.flush()
    }
}

/// Self time of each layer in a chain of nested boundaries, outermost
/// first: every span minus the next inner one, the innermost whole. Each
/// boundary is replayed separately, so an inner replay can run slower than
/// its outer one; that layer's self time is clamped at zero instead of
/// going negative.
pub fn self_times(chain: &[f64]) -> Vec<f64> {
    chain
        .iter()
        .enumerate()
        .map(|(i, &outer)| match chain.get(i + 1) {
            Some(&inner) => (outer - inner).max(0.0),
            None => outer,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_next_inner_span() {
        // wire 10 ⊃ respond 7 ⊃ execute 6.5 ⊃ library 4
        let s = self_times(&[10.0, 7.0, 6.5, 4.0]);
        assert_eq!(s, vec![3.0, 0.5, 2.5, 4.0]);
        // Self times of a consistent chain add back up to the outer span.
        assert_eq!(s.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn self_time_clamps_an_inner_replay_that_ran_longer() {
        let s = self_times(&[5.0, 5.5, 1.0]);
        assert_eq!(s, vec![0.0, 4.5, 1.0]);
        assert_eq!(self_times(&[2.0]), vec![2.0]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn spans_share_request_ids_and_parents() {
        let mut r = Recorder::default();
        let req = r.request();
        let (outer, _) = r.time(req, "emst", "net.wire", None, || ());
        let (inner, v) = r.time(req, "emst", "net.respond", Some(outer), || 7);
        assert_eq!(v, 7);
        assert_eq!(r.spans[inner].parent, Some(outer));
        assert_eq!(r.spans[inner].request, r.spans[outer].request);
        assert_ne!(r.request(), req);
        let recorded = r.record(req, "emst", "library", Some(inner), 0.25);
        assert_eq!(r.secs(recorded), 0.25);
    }
}
