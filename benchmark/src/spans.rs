//! Spans recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, request id). They are kept in memory
//! during the traced run and written out when it ends. A layer's self
//! time is its span minus the part of it that its child spans cover.

use std::io::Write;
use std::path::Path;

/// Index of a span in its [`SpanLog`].
pub type SpanId = u32;

/// Marks a span without a parent.
pub const ROOT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another log (one per generator thread), re-basing its
    /// parent links.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span, in log order: its duration minus the
    /// union of its children's intervals, each clipped to the span
    /// (overlapping children are not subtracted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent == ROOT {
                continue;
            }
            let p = &self.spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut edge) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(edge);
                    if a < b {
                        covered += b - a;
                        edge = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Writes the first `max_spans` spans as a JSON array, one object a
    /// line (`parent` is an index into the array, -1 for none).
    pub fn write_json(&self, path: &Path, max_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let n = self.spans.len().min(max_spans);
        for (i, s) in self.spans[..n].iter().enumerate() {
            // A prefix is self-contained: parents precede their children.
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.req,
                if i + 1 == n { "" } else { "," }
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut log = SpanLog::default();
        // request [0, 100): write [0, 10), wait [10, 95) holding
        // server.inside [60, 90).
        let req = log.push("request", 0, 100, ROOT, 7);
        log.push("client.write", 0, 10, req, 7);
        let wait = log.push("client.wait", 10, 95, req, 7);
        log.push("server.inside", 60, 90, wait, 7);
        assert_eq!(log.self_times_ns(), vec![5, 10, 55, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let mut log = SpanLog::default();
        let p = log.push("parent", 100, 200, ROOT, 1);
        log.push("a", 90, 150, p, 1); // starts before the parent: clipped to [100, 150)
        log.push("b", 140, 180, p, 1); // overlaps a: only [150, 180) is new
        log.push("c", 195, 260, p, 1); // overhangs the end: clipped to [195, 200)
        log.push("d", 300, 400, p, 1); // wholly outside: covers nothing
        let st = log.self_times_ns();
        assert_eq!(st[0], 100 - (50 + 30 + 5));
        assert_eq!(st[1], 60, "a child's own self time is unclipped");
    }

    #[test]
    fn append_rebases_parents() {
        let mut a = SpanLog::default();
        a.push("x", 0, 10, ROOT, 1);
        let mut b = SpanLog::default();
        let r = b.push("y", 0, 10, ROOT, 2);
        b.push("z", 2, 4, r, 2);
        a.append(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
        assert_eq!(a.self_times_ns(), vec![10, 8, 2]);
    }

    #[test]
    fn json_has_one_object_per_span() {
        let mut log = SpanLog::default();
        let r = log.push("request", 1, 9, ROOT, 3);
        log.push("client.write", 1, 2, r, 3);
        // Inside the package's ignored `out/`, never outside the checkout.
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-test-{}.json", std::process::id()));
        log.write_json(&path, 10).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains(
            "\"name\":\"client.write\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"req\":3"
        ));
        assert!(text.contains("\"parent\":-1"));
    }
}
