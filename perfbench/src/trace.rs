//! The benchmark's own span recorder.
//!
//! Spans are recorded from benchmark code around calls into each module
//! (name, start, end, parent, job key), kept in memory and written out as
//! JSON when the run ends.  A disabled tracer records nothing, so the
//! untraced headline runs and the traced run share one code path.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Grid coordinates of one job: (scenario index, policy index, seed).
pub type JobKey = (usize, usize, u64);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which call the span wraps (`module.operation`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The grid job the span belongs to, if any.
    pub job: Option<JobKey>,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: Option<JobKey>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its length in seconds
    /// (0 when disabled).
    pub fn exit(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = self.now_ns();
        self.spans[index].secs()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed length of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Share of the interval from the first span's start to the last
    /// span's end that the root spans cover.
    pub fn coverage(&self) -> f64 {
        let roots = self.spans.iter().filter(|s| s.parent.is_none());
        let (mut first, mut last, mut covered) = (u64::MAX, 0u64, 0u64);
        for span in roots {
            first = first.min(span.start_ns);
            last = last.max(span.end_ns);
            covered += span.end_ns - span.start_ns;
        }
        if last <= first {
            return 0.0;
        }
        covered as f64 / (last - first) as f64
    }

    /// Write the spans as a JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let job = span.job.map_or("null".to_string(), |(s, p, seed)| {
                format!("[{s}, {p}, {seed}]")
            });
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {job}}}{sep}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The largest of `values` (0 when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_roots_cover_the_run() {
        let mut t = Tracer::new(true);
        t.enter("outer", None);
        t.enter("inner", Some((1, 2, 3)));
        t.exit();
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].job, Some((1, 2, 3)));
        assert!((t.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("outer", None);
        assert_eq!(t.exit(), 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn medians_and_maxima() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
