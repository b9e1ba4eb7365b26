//! `tcp_mixed`: the paper's scenario over the wire. One pool worker; one
//! low-class connection issuing full-table `Sum` scans back to back, one
//! high-class connection issuing 50 % `Read` / 50 % `Deposit`, one in
//! flight. The worker is always inside a scan, so every high request
//! arrives by user interrupt and runs on the preempting context. Closed
//! loop, two clients (the README records why open-loop pacing and deeper
//! windows were rejected on this host).

use std::io;
use std::time::{Duration, Instant};

use preemptdb_server::proto::{Frame, Op, SloClass, Status};
use preemptdb_server::{ClassLimits, Server, ServerConfig};

use crate::client::Wire;
use crate::cpus::Layout;
use crate::gen::Gen;
use crate::recorder::{calm_rate, us, Samples, Stat};
use crate::report::Outcome;
use crate::spans::{SpanLog, ROOT};
use crate::{Plan, TRACE_ROUNDS, WORKER_THREADS};

const ACCOUNTS: u64 = 65_536;
/// Requests whose spans go into the trace file (all stay in memory).
const TRACE_FILE_REQUESTS: usize = 50_000;

struct Rig {
    server: Server,
    high: Wire,
    low: Wire,
    initial_total: u64,
}

/// Starts a server and connects the clients. The calling thread is on the
/// front CPU by now (when there is a `layout`), so every thread the server
/// starts is too; the worker is then moved to its own CPU.
fn start(layout: Option<&Layout>) -> io::Result<Rig> {
    let mut cfg = ServerConfig::default().workers(1);
    cfg.accounts = ACCOUNTS;
    cfg.low = ClassLimits::unlimited(8);
    cfg.high = ClassLimits::unlimited(8);
    let initial_total = cfg.accounts * cfg.initial_balance;
    let server = Server::start(cfg)?;
    if let Some(layout) = layout {
        if layout.move_workers(WORKER_THREADS)? != 1 {
            return Err(io::Error::other("expected one pool worker thread to place"));
        }
    }
    let addr = server.local_addr();
    // The high client polls for its replies; the low one gets a reply
    // every ten milliseconds or so and sleeps for it.
    let high = Wire::connect(addr, SloClass::High, true)?;
    let low = Wire::connect(addr, SloClass::Low, false)?;
    Ok(Rig {
        server,
        high,
        low,
        initial_total,
    })
}

/// Counts that run across every segment of a run, warm-up included: the
/// accounting and conservation checks need all of them.
#[derive(Default)]
struct Tally {
    /// `Req` frames sent per class `[low, high]`.
    sent: [u64; 2],
    /// `Resp` frames received per class.
    replies: [u64; 2],
    failed: u64,
    deposits_ok: u64,
    next_id: u64,
    /// What went wrong on the transport, for the report.
    errors: Vec<String>,
}

/// What one segment (one stretch of load) measured.
#[derive(Default)]
struct Segment {
    span_us: u64,
    /// Client-observed send→reply of `Deposit`, the designated high op.
    deposit: Samples,
    /// `Resp.latency_cycles` of the same requests.
    inproc: Samples,
    read: Samples,
    low: Samples,
    high_ops: u64,
    deposit_retries: u64,
    spans: Option<SpanLog>,
}

impl Segment {
    /// Appends a later stretch: its samples follow this one's in time.
    fn append(&mut self, other: Segment) {
        for (mine, theirs) in [
            (&mut self.deposit, &other.deposit),
            (&mut self.inproc, &other.inproc),
            (&mut self.read, &other.read),
            (&mut self.low, &other.low),
        ] {
            mine.extend_shifted(theirs, self.span_us);
        }
        self.span_us += other.span_us;
        self.high_ops += other.high_ops;
        self.deposit_retries += other.deposit_retries;
        if let Some(log) = other.spans {
            self.spans.get_or_insert_with(SpanLog::default).append(log);
        }
    }

    fn high_per_s(&self) -> f64 {
        self.high_ops as f64 / (self.span_us as f64 / 1e6)
    }

    fn low_per_s(&self) -> f64 {
        self.low.len() as f64 / (self.span_us as f64 / 1e6)
    }
}

/// The high-class client: one request in flight until `dur` has passed.
/// It polls for each reply instead of sleeping for it. Stops early on the
/// first transport error.
fn high_loop(
    wire: &mut Wire,
    gen: &mut Gen,
    tally: &mut Tally,
    epoch: Instant,
    start: Instant,
    dur: Duration,
    trace: bool,
) -> Segment {
    let mut seg = Segment {
        span_us: dur.as_micros() as u64,
        spans: trace.then(SpanLog::default),
        ..Segment::default()
    };
    let end = start + dur;
    let mut run = || -> io::Result<()> {
        loop {
            let t0 = Instant::now();
            if t0 >= end {
                return Ok(());
            }
            tally.next_id += 1;
            let id = tally.next_id;
            let op = if gen.below(2) == 0 {
                Op::Read
            } else {
                Op::Deposit
            };
            let (a, b) = (gen.below(wire.accounts), gen.below(wire.accounts));
            tally.sent[1] += 1;
            wire.send(&Frame::Req { id, op, a, b })?;
            let written = Instant::now();
            let frame = wire.recv()?;
            let now = Instant::now();
            let Frame::Resp {
                id: answered,
                status,
                latency_cycles,
                value,
            } = frame
            else {
                return Err(io::Error::other(format!("expected a Resp, got {frame:?}")));
            };
            if answered != id {
                return Err(io::Error::other(format!(
                    "reply to request {answered}, expected {id}"
                )));
            }
            tally.replies[1] += 1;
            if status != Status::Ok {
                tally.failed += 1;
                continue;
            }
            tally.deposits_ok += u64::from(op == Op::Deposit);
            if now >= end {
                continue;
            }
            seg.high_ops += 1;
            let at_us = (now - start).as_micros() as u64;
            let rtt_ns = (now - t0).as_nanos() as u64;
            let inside_ns = wire.cycles_to_ns(latency_cycles);
            match op {
                Op::Deposit => {
                    seg.deposit.push(at_us, rtt_ns);
                    seg.inproc.push(at_us, inside_ns);
                    seg.deposit_retries += value;
                }
                _ => seg.read.push(at_us, rtt_ns),
            }
            if let Some(log) = seg.spans.as_mut() {
                let ns = |t: Instant| (t - epoch).as_nanos() as u64;
                let (t0, tw, t1) = (ns(t0), ns(written), ns(now));
                let name = match op {
                    Op::Deposit => "client.deposit",
                    _ => "client.read",
                };
                let req = log.push(name, t0, t1, ROOT, id);
                log.push("client.write", t0, tw, req, id);
                let wait = log.push("client.wait", tw, t1, req, id);
                // The reply only says how long the request was inside the
                // server, not when: it ended at the latest when the reply
                // arrived, so the span is placed against that end.
                log.push("server.inside", t1.saturating_sub(inside_ns), t1, wait, id);
            }
        }
    };
    if let Err(e) = run() {
        // The request in flight will never be answered on this run.
        tally.failed += 1;
        tally.errors.push(e.to_string());
    }
    seg
}

/// The low-class client: `Sum` scans back to back.
fn low_loop(
    wire: &mut Wire,
    tally: &mut Tally,
    epoch: Instant,
    start: Instant,
    dur: Duration,
    trace: bool,
) -> (Samples, Option<SpanLog>) {
    let mut lat = Samples::default();
    let mut spans = trace.then(SpanLog::default);
    let end = start + dur;
    let mut id = 0u64;
    while Instant::now() < end {
        id += 1;
        let t0 = Instant::now();
        tally.sent[0] += 1;
        let reply = wire
            .send(&Frame::Req {
                id,
                op: Op::Sum,
                a: 0,
                b: 0,
            })
            .and_then(|()| wire.recv());
        let now = Instant::now();
        match reply {
            Ok(Frame::Resp {
                id: rid, status, ..
            }) if rid == id => {
                tally.replies[0] += 1;
                if status != Status::Ok {
                    tally.failed += 1;
                } else if now < end {
                    lat.push(
                        (now - start).as_micros() as u64,
                        (now - t0).as_nanos() as u64,
                    );
                    if let Some(log) = spans.as_mut() {
                        let ns = |t: Instant| (t - epoch).as_nanos() as u64;
                        log.push("client.sum", ns(t0), ns(now), ROOT, id);
                    }
                }
            }
            other => {
                tally.failed += 1;
                tally.errors.push(format!("Sum answered {other:?}"));
                break;
            }
        }
    }
    (lat, spans)
}

/// Runs one stretch of load on the rig's connections.
fn segment(
    rig: &mut Rig,
    gen: &mut Gen,
    tallies: &mut (Tally, Tally),
    epoch: Instant,
    dur: Duration,
    trace: bool,
) -> Segment {
    let (high_tally, low_tally) = (&mut tallies.0, &mut tallies.1);
    let (high_wire, low_wire) = (&mut rig.high, &mut rig.low);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let low = scope.spawn(move || low_loop(low_wire, low_tally, epoch, start, dur, trace));
        let mut seg = high_loop(high_wire, gen, high_tally, epoch, start, dur, trace);
        let (lat, spans) = low.join().expect("low client does not panic");
        seg.low = lat;
        if let (Some(all), Some(low_spans)) = (seg.spans.as_mut(), spans) {
            all.append(low_spans);
        }
        seg
    })
}

/// After all traffic has stopped: one `Sum` over the wire must see
/// exactly the deposits the clients were told committed, and the
/// server's own counters must agree with the clients' reply for reply.
fn verify(rig: &mut Rig, tallies: &mut (Tally, Tally), out: &mut Outcome) {
    let (high, low) = (&mut tallies.0, &tallies.1);
    high.next_id += 1;
    high.sent[1] += 1;
    let sum = rig
        .high
        .send(&Frame::Req {
            id: high.next_id,
            op: Op::Sum,
            a: 0,
            b: 0,
        })
        .and_then(|()| rig.high.recv());
    let want = rig.initial_total + 2 * high.deposits_ok;
    match sum {
        Ok(Frame::Resp {
            status: Status::Ok,
            value,
            ..
        }) => {
            high.replies[1] += 1;
            out.check(
                "ledger_conservation",
                value == want,
                format!(
                    "final Sum {value}, want {want} ({} Ok deposits)",
                    high.deposits_ok
                ),
            );
        }
        other => {
            high.failed += 1;
            out.check(
                "ledger_conservation",
                false,
                format!("final Sum answered {other:?}"),
            );
        }
    }
    let sent = [low.sent[0], high.sent[1]];
    let replies = [low.replies[0], high.replies[1]];
    let stats = rig.server.stats();
    out.check(
        "one_reply_per_request",
        sent == replies,
        format!("sent {sent:?}, replies {replies:?}"),
    );
    out.check(
        "client_counts_equal_server_stats",
        stats.admitted == sent
            && stats.replies == replies
            && stats.rejected == [0, 0]
            && stats.protocol_errors == 0
            && stats.in_flight == [0, 0]
            && stats.committed_deposits == high.deposits_ok,
        format!(
            "client sent {sent:?} deposits {}; server {stats:?}",
            high.deposits_ok
        ),
    );
    out.attempted += sent[0] + sent[1];
    out.failed += high.failed + low.failed;
    let errors: Vec<&String> = high.errors.iter().chain(&low.errors).collect();
    out.check(
        "no_transport_errors",
        errors.is_empty(),
        format!("{errors:?}"),
    );
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();

    // Laid out over two CPUs for as long as this function runs.
    let layout = Layout::enter();
    println!("note tcp_mixed placement: {}", Layout::describe(&layout));

    // Set-up, several times over: bind, seed the ledger, start the pool,
    // place its threads, connect and shake hands. The last rig is the one
    // measured.
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..plan.setups {
        if let Some(old) = rig.take() {
            let Rig {
                server, high, low, ..
            } = old;
            drop((high, low));
            server.shutdown();
        }
        let t0 = Instant::now();
        match start(layout.as_ref()) {
            Ok(r) => rig = Some(r),
            Err(e) => {
                out.failed += 1;
                out.check("server_start", false, e.to_string());
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("plan.setups is at least 1");
    out.metric(
        "setup_s",
        "s",
        Stat::of_batches(&setups, setups.len() as u64),
    );

    let mut gen = Gen::fork(plan.seed, 1);
    let mut tallies = (Tally::default(), Tally::default());
    let epoch = Instant::now();
    segment(&mut rig, &mut gen, &mut tallies, epoch, plan.warmup, false);

    if !plan.trace {
        let seg = segment(&mut rig, &mut gen, &mut tallies, epoch, plan.measure, false);
        out.metric_opt(
            "high_p50_us",
            "us",
            us(seg.deposit.slice_calm(seg.span_us, 50.0)),
        );
        out.metric_opt(
            "high_p90_us",
            "us",
            us(seg.deposit.slice_calm(seg.span_us, 90.0)),
        );
        out.metric_opt(
            "high_inproc_p95_us",
            "us",
            us(seg.inproc.slice_calm(seg.span_us, 95.0)),
        );
        out.metric(
            "high_ops_per_s",
            "1/s",
            calm_rate(seg.span_us, &[&seg.deposit, &seg.read]),
        );
        out.metric(
            "low_ops_per_s",
            "1/s",
            Stat::plain(seg.low_per_s(), seg.low.len() as u64),
        );
    } else {
        // Untraced and traced stretches alternate, and which goes first
        // alternates too, so drift does not read as tracing overhead.
        let (mut reference, mut seg) = (Segment::default(), Segment::default());
        let stretch = plan.measure / TRACE_ROUNDS;
        for round in 0..TRACE_ROUNDS {
            for traced in [round % 2 == 1, round % 2 == 0] {
                let part = segment(&mut rig, &mut gen, &mut tallies, epoch, stretch, traced);
                if traced { &mut seg } else { &mut reference }.append(part);
            }
        }
        traced_metrics(&seg, &reference, &rig, &mut out);
        if let Some(log) = &seg.spans {
            let path = plan.out_dir.join("trace-tcp_mixed.json");
            if let Err(e) = log.write_json(&path, TRACE_FILE_REQUESTS * 4) {
                out.check("trace_file", false, format!("{}: {e}", path.display()));
            }
        }
    }

    verify(&mut rig, &mut tallies, &mut out);
    let Rig {
        server, high, low, ..
    } = rig;
    drop((high, low));
    server.shutdown();
    out
}

/// The per-layer numbers of a traced segment, from its span log and the
/// counters the wire and the server expose.
fn traced_metrics(seg: &Segment, reference: &Segment, rig: &Rig, out: &mut Outcome) {
    let log = seg.spans.as_ref().expect("traced segment keeps spans");
    let self_ns = log.self_times_ns();
    let span = seg.span_us;
    let mut write = Samples::default();
    let mut wait = Samples::default();
    let mut wire_wake = Samples::default();
    // Deposit spans were logged in the order their samples were recorded,
    // so the n-th one completed when the n-th deposit sample did.
    let mut completed_at = seg.deposit.at_us().iter();
    for (i, s) in log.spans().iter().enumerate() {
        if s.name != "client.deposit" {
            continue;
        }
        // A request's spans are logged together: root, write, wait, inside.
        let at_us = u64::from(*completed_at.next().expect("one sample per deposit span"));
        let kids = &log.spans()[i + 1..i + 4];
        write.push(at_us, kids[0].dur_ns());
        wait.push(at_us, kids[1].dur_ns());
        // Everything in the round trip that is not inside the server:
        // syscalls, the connection thread's wake-up, the reply's way back.
        wire_wake.push(at_us, self_ns[i] + self_ns[i + 1] + self_ns[i + 2]);
    }
    out.metric_opt("client.write_us", "us", us(write.slice_median(span, 50.0)));
    out.metric_opt("client.wait_us", "us", us(wait.slice_median(span, 50.0)));
    out.metric_opt(
        "client.wire_wake_p50_us",
        "us",
        us(wire_wake.slice_median(span, 50.0)),
    );
    out.metric_opt(
        "server.inside_p50_us",
        "us",
        us(seg.inproc.slice_median(span, 50.0)),
    );
    out.metric_opt(
        "high_inproc_p95_us",
        "us",
        us(seg.inproc.slice_median(span, 95.0)),
    );
    out.metric_opt(
        "server.inside_p99_us",
        "us",
        us(seg.inproc.slice_median(span, 99.0)),
    );
    out.metric_opt(
        "client.high_p99_us",
        "us",
        us(seg.deposit.slice_median(span, 99.0)),
    );
    out.metric_opt(
        "client.high_p999_us",
        "us",
        us(seg.deposit.slice_median(span, 99.9)),
    );
    let n = seg.deposit.len() as u64;
    out.metric_opt(
        "client.high_max_us",
        "us",
        seg.deposit.max().map(|v| Stat::plain(v / 1e3, n)),
    );
    out.metric_opt(
        "client.read_p50_us",
        "us",
        us(seg.read.slice_median(span, 50.0)),
    );
    out.metric_opt(
        "client.low_p50_ms",
        "ms",
        seg.low.slice_median(span, 50.0).map(|s| s.scaled(1e-6)),
    );
    out.metric(
        "low_ops_per_s",
        "1/s",
        Stat::plain(seg.low_per_s(), seg.low.len() as u64),
    );
    let stats = rig.server.stats();
    let engine = rig.server.engine().stats();
    out.metric(
        "server.replies",
        "count",
        Stat::plain((stats.replies[0] + stats.replies[1]) as f64, 1),
    );
    out.metric(
        "server.rejected",
        "count",
        Stat::plain((stats.rejected[0] + stats.rejected[1]) as f64, 1),
    );
    out.metric(
        "mvcc.deposit_retries_per_commit",
        "ratio",
        Stat::plain(seg.deposit_retries as f64 / n.max(1) as f64, n),
    );
    out.metric(
        "mvcc.commits",
        "count",
        Stat::plain(engine.commits as f64, 1),
    );
    out.metric("mvcc.aborts", "count", Stat::plain(engine.aborts as f64, 1));
    out.metric(
        "bench.trace_overhead_frac",
        "ratio",
        Stat::plain(
            1.0 - seg.high_per_s() / reference.high_per_s(),
            seg.high_ops,
        ),
    );
    // Printed beside the traced rows, not part of the contract's list.
    out.metric(
        "traced.high_ops_per_s",
        "1/s",
        Stat::plain(seg.high_per_s(), seg.high_ops),
    );
    out.metric_opt(
        "traced.high_p50_us",
        "us",
        us(seg.deposit.slice_median(span, 50.0)),
    );
}
