//! # preemptdb-server — the network front door
//!
//! A std-only threaded TCP listener that multiplexes many client
//! connections onto an embedded [`preemptdb::Database`] worker pool
//! (DESIGN.md §14). Each connection declares an SLO class at handshake
//! ([`proto::SloClass`], mirroring the paper's Q1/Q2 split) which maps
//! directly onto the scheduler's high/low priority queues, so a
//! high-class request arriving over the wire preempts in-flight
//! low-class work exactly like an embedded high-priority submission.
//!
//! Backpressure is explicit: each class has a gate built from the
//! scheduler's [`AdmissionControl`] token bucket plus a hard in-flight
//! cap. A request that fails the gate is answered immediately with a
//! typed [`proto::Frame::Overloaded`] frame and never touches a worker
//! queue — the server cannot queue unboundedly.
//!
//! Failure containment at the socket edge: a malformed frame gets a
//! typed error and a hangup (never a panic — the decoder validates
//! before cursoring); a client that disconnects mid-request leaves its
//! in-flight transactions to complete normally against a dead socket
//! (writes fail silently, the engine state is unaffected); a transaction
//! body that panics is contained by the worker firewall and surfaced to
//! the client as a [`proto::Status::Panicked`] response via a
//! drop-guard, so every admitted request produces exactly one reply even
//! across unwinding.

pub mod loadgen;
pub mod proto;

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use preempt_metrics::registry::{Counter, Gauge, MetricsRegistry, Shard};
use preempt_trace::{TraceEvent, TraceSession};
use preemptdb::mvcc::{Oid, Table};
use preemptdb::sched::clock::{freq_hz, now_cycles};
use preemptdb::sched::AdmissionControl;
use preemptdb::{Database, DatabaseConfig, Engine, Priority, WorkOutcome};

use proto::{ErrCode, Frame, FrameReader, Op, SloClass, Status};

/// Per-class admission limits.
#[derive(Clone, Copy, Debug)]
pub struct ClassLimits {
    /// Token-bucket rate in requests per second; `None` disables the
    /// bucket (the in-flight cap still applies).
    pub tps: Option<u64>,
    /// Token-bucket burst (ignored when `tps` is `None`).
    pub burst: u64,
    /// Hard cap on admitted-but-unanswered requests. Keeping this below
    /// the pool's total queue capacity means `Database::submit` never
    /// has to spin on full queues.
    pub max_in_flight: u64,
}

impl ClassLimits {
    /// No token bucket, in-flight capped at `max_in_flight`.
    pub fn unlimited(max_in_flight: u64) -> ClassLimits {
        ClassLimits {
            tps: None,
            burst: 1,
            max_in_flight,
        }
    }
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool size.
    pub workers: usize,
    /// Account rows seeded at startup (the benchmark ledger).
    pub accounts: u64,
    /// Initial balance per account.
    pub initial_balance: u64,
    /// Low-class (Q2) admission limits.
    pub low: ClassLimits,
    /// High-class (Q1) admission limits.
    pub high: ClassLimits,
    /// Allow [`proto::Op::Boom`] (deliberate in-transaction panics) for
    /// chaos testing.
    pub enable_chaos_ops: bool,
    /// Metrics registry to instrument: a `("server", 0)` shard for the
    /// `net_*` series is registered on it and the pool's shards are
    /// attached to it — one per worker (transactions, latencies, uintr
    /// delivery, level switches, latch waits) and the scheduler plane's
    /// (dispatch, interrupts sent, watchdog, degradation; a pool on real
    /// threads is not supervised, so its supervision counters stay 0).
    pub metrics: Option<MetricsRegistry>,
    /// Trace session; each connection thread registers a `"conn"` ring
    /// and records request lifecycle events on it.
    pub trace: Option<TraceSession>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let workers = 4;
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            accounts: 256,
            initial_balance: 1_000,
            // Defaults sized against the pool's default queue capacity
            // (64 low / 16 high per worker): the cap binds before the
            // queues fill.
            low: ClassLimits::unlimited(workers as u64 * 32),
            high: ClassLimits::unlimited(workers as u64 * 8),
            enable_chaos_ops: false,
            metrics: None,
            trace: None,
        }
    }
}

impl ServerConfig {
    pub fn workers(mut self, n: usize) -> ServerConfig {
        self.workers = n.max(1);
        self
    }
}

/// One class's admission gate: in-flight cap first (cheap, always on),
/// token bucket second.
struct ClassGate {
    bucket: Option<Mutex<AdmissionControl>>,
    max_in_flight: u64,
    in_flight: AtomicU64,
}

impl ClassGate {
    fn new(limits: &ClassLimits) -> ClassGate {
        ClassGate {
            bucket: limits
                .tps
                .map(|tps| Mutex::new(AdmissionControl::new(tps, limits.burst, freq_hz()))),
            max_in_flight: limits.max_in_flight.max(1),
            in_flight: AtomicU64::new(0),
        }
    }

    fn try_admit(&self) -> bool {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        if let Some(bucket) = &self.bucket {
            if !bucket.lock().try_admit() {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                return false;
            }
        }
        true
    }

    fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }
}

/// Shared server state, visible to the accept loop, every connection
/// thread, and every in-flight worker closure.
struct Core {
    stop: AtomicBool,
    engine: Engine,
    table: Arc<Table>,
    oids: Arc<Vec<Oid>>,
    freq_hz: u64,
    chaos_ops: bool,
    gates: [ClassGate; 2],
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    admitted: [AtomicU64; 2],
    rejected: [AtomicU64; 2],
    replies: [AtomicU64; 2],
    protocol_errors: AtomicU64,
    committed_deposits: AtomicU64,
    metrics: Option<(MetricsRegistry, Arc<Shard>)>,
    trace: Option<TraceSession>,
}

impl Core {
    fn bump(&self, c: Counter) {
        if let Some((_, shard)) = &self.metrics {
            shard.bump(c);
        }
    }

    fn publish_in_flight(&self) {
        if let Some((reg, _)) = &self.metrics {
            let total = self.gates[0].in_flight() + self.gates[1].in_flight();
            reg.gauge_set(Gauge::NetInFlight, total as f64);
        }
    }
}

/// Per-connection shared state: the write half (cloned handle behind a
/// mutex, shared with in-flight worker closures) and the owning core.
struct Conn {
    id: u32,
    core: Arc<Core>,
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Serializes one frame onto the socket. Best-effort: the client may
    /// be gone, and a dead socket must not disturb the engine.
    fn send(&self, frame: &Frame) {
        use std::io::Write;
        let mut w = self.writer.lock();
        let _ = proto::write_frame(&mut *w, frame);
        let _ = w.flush();
    }
}

/// Exactly-once reply guard for an admitted request. The worker closure
/// completes it on the normal path; if the transaction body panics, the
/// worker firewall unwinds through the closure, this guard drops, and
/// the drop handler sends a [`Status::Panicked`] reply instead — the
/// client always gets its answer and the in-flight count always drains.
struct Pending {
    conn: Arc<Conn>,
    id: u64,
    class: SloClass,
    t0: u64,
    done: bool,
}

impl Pending {
    fn finish(mut self, status: Status, value: u64) {
        self.done = true;
        self.reply(status, value);
    }

    fn reply(&self, status: Status, value: u64) {
        let latency = now_cycles().saturating_sub(self.t0);
        let core = &self.conn.core;
        let idx = self.class.index();
        // Release before writing: once the client has seen the last
        // reply, the in-flight count is already back to zero.
        core.gates[idx].release();
        core.publish_in_flight();
        core.replies[idx].fetch_add(1, Ordering::AcqRel);
        // The reply runs inside the worker closure, so serializing the
        // frame onto the socket lands in the transaction's window —
        // attribute it as reply-write, not engine run time.
        let w0 = now_cycles();
        self.conn.send(&Frame::Resp {
            id: self.id,
            status,
            latency_cycles: latency,
            value,
        });
        preempt_prov::charge(
            preempt_prov::Phase::Reply,
            now_cycles().saturating_sub(w0),
        );
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if !self.done {
            self.reply(Status::Panicked, 0);
        }
    }
}

/// Point-in-time server statistics.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    pub conns_accepted: u64,
    pub conns_closed: u64,
    /// Admitted requests per class `[low, high]`.
    pub admitted: [u64; 2],
    /// Rejected (Overloaded) requests per class `[low, high]`.
    pub rejected: [u64; 2],
    /// `Resp` frames written per class `[low, high]`.
    pub replies: [u64; 2],
    pub protocol_errors: u64,
    /// Deposit transactions that committed (each grows the ledger total
    /// by exactly 2 — the conservation law the chaos tests audit).
    pub committed_deposits: u64,
    /// Currently admitted-but-unanswered requests per class.
    pub in_flight: [u64; 2],
}

/// A running server: accept thread + one thread per connection over an
/// embedded [`Database`].
pub struct Server {
    core: Arc<Core>,
    db: Arc<Database>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, seeds the ledger, spawns the pool and the accept thread.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let db = Arc::new(Database::open(
            DatabaseConfig::default().workers(cfg.workers),
        ));
        let engine = db.engine().clone();
        let table = engine.create_table("accounts");
        let mut tx = engine.begin_si();
        let mut oids = Vec::with_capacity(cfg.accounts as usize);
        for _ in 0..cfg.accounts.max(2) {
            let oid = tx
                .insert(&table, &cfg.initial_balance.to_le_bytes())
                .map_err(|e| std::io::Error::other(format!("seed insert: {e}")))?;
            oids.push(oid);
        }
        tx.commit()
            .map_err(|e| std::io::Error::other(format!("seed commit: {e}")))?;

        // The pool counts into shards of its own; attached here, its
        // series are scraped next to the `net_*` ones.
        let metrics = cfg.metrics.map(|reg| {
            db.attach_metrics(&reg);
            (reg.clone(), reg.register_shard("server", 0))
        });
        let core = Arc::new(Core {
            stop: AtomicBool::new(false),
            engine,
            table,
            oids: Arc::new(oids),
            freq_hz: freq_hz(),
            chaos_ops: cfg.enable_chaos_ops,
            gates: [ClassGate::new(&cfg.low), ClassGate::new(&cfg.high)],
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            admitted: [AtomicU64::new(0), AtomicU64::new(0)],
            rejected: [AtomicU64::new(0), AtomicU64::new(0)],
            replies: [AtomicU64::new(0), AtomicU64::new(0)],
            protocol_errors: AtomicU64::new(0),
            committed_deposits: AtomicU64::new(0),
            metrics,
            trace: cfg.trace,
        });

        let accept = {
            let core = core.clone();
            let db = db.clone();
            std::thread::Builder::new()
                .name("preemptdb-accept".to_string())
                .spawn(move || accept_loop(listener, core, db))?
        };

        Ok(Server {
            core,
            db,
            addr,
            accept: Some(accept),
        })
    }

    /// The actually bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The embedded engine (for audits and tests).
    pub fn engine(&self) -> &Engine {
        &self.core.engine
    }

    /// The seeded account rows.
    pub fn accounts(&self) -> (Arc<Table>, Arc<Vec<Oid>>) {
        (self.core.table.clone(), self.core.oids.clone())
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.core;
        ServerStats {
            conns_accepted: c.conns_accepted.load(Ordering::Acquire),
            conns_closed: c.conns_closed.load(Ordering::Acquire),
            admitted: [
                c.admitted[0].load(Ordering::Acquire),
                c.admitted[1].load(Ordering::Acquire),
            ],
            rejected: [
                c.rejected[0].load(Ordering::Acquire),
                c.rejected[1].load(Ordering::Acquire),
            ],
            replies: [
                c.replies[0].load(Ordering::Acquire),
                c.replies[1].load(Ordering::Acquire),
            ],
            protocol_errors: c.protocol_errors.load(Ordering::Acquire),
            committed_deposits: c.committed_deposits.load(Ordering::Acquire),
            in_flight: [c.gates[0].in_flight(), c.gates[1].in_flight()],
        }
    }

    /// Cycle-clock frequency used for latency stamps.
    pub fn clock_freq_hz(&self) -> u64 {
        self.core.freq_hz
    }

    /// Stops accepting, drains connections, shuts the pool down.
    ///
    /// Ordering matters: connection threads are joined *before* the
    /// worker pool stops, so a conn thread blocked in `submit`
    /// backpressure can always make progress, and every in-flight
    /// closure (plus its reply guard) runs to completion before the
    /// engine is audited.
    pub fn shutdown(mut self) -> ServerStats {
        self.core.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let stats = self.stats();
        if let Some(db) = Arc::into_inner(self.db) {
            db.shutdown();
        }
        stats
    }
}

fn accept_loop(listener: TcpListener, core: Arc<Core>, db: Arc<Database>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_id: u32 = 0;
    while !core.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = next_id;
                next_id = next_id.wrapping_add(1);
                core.conns_accepted.fetch_add(1, Ordering::AcqRel);
                core.bump(Counter::NetConnsAccepted);
                let core2 = core.clone();
                let db2 = db.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("preemptdb-conn-{id}"))
                    .spawn(move || conn_main(stream, id, core2, db2));
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(_) => {
                        core.conns_closed.fetch_add(1, Ordering::AcqRel);
                        core.bump(Counter::NetConnsClosed);
                    }
                }
                // Opportunistically reap finished threads so a
                // long-lived server doesn't accumulate handles.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One connection's read loop: handshake, then decode → admit → submit.
fn conn_main(stream: TcpStream, id: u32, core: Arc<Core>, db: Arc<Database>) {
    let ring = core.trace.as_ref().map(|s| {
        let ring = s.register("conn", (id % u32::from(u16::MAX)) as u16);
        preempt_trace::install_current(&ring);
        ring
    });
    preempt_trace::emit(TraceEvent::NetAccept { conn: id });

    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            finish_conn(&core, id, ring.is_some());
            return;
        }
    };
    // Replies are small frames written one by one. With Nagle on, a reply
    // to a client that has a second request in flight (and so sends
    // nothing that would carry an ACK) waits out the peer's delayed-ACK
    // timer, some 40 ms.
    let _ = stream.set_nodelay(true);
    // Short poll timeout so the loop notices `stop` promptly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let conn = Arc::new(Conn {
        id,
        core: core.clone(),
        writer: Mutex::new(writer),
    });

    serve_conn(stream, &conn, &db);
    finish_conn(&core, id, ring.is_some());
}

fn finish_conn(core: &Arc<Core>, id: u32, traced: bool) {
    core.conns_closed.fetch_add(1, Ordering::AcqRel);
    core.bump(Counter::NetConnsClosed);
    if traced {
        preempt_trace::emit(TraceEvent::NetClose { conn: id });
        preempt_trace::clear_current();
    }
}

fn serve_conn(mut stream: TcpStream, conn: &Arc<Conn>, db: &Arc<Database>) {
    let core = &conn.core;
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 4096];
    let mut class: Option<SloClass> = None;
    loop {
        // Drain every complete frame before reading again (pipelining).
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    if !handle_frame(conn, db, &mut class, frame) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    core.protocol_errors.fetch_add(1, Ordering::AcqRel);
                    core.bump(Counter::NetProtocolErrors);
                    conn.send(&Frame::Error {
                        code: ErrCode::BadFrame,
                    });
                    return;
                }
            }
        }
        if core.stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => reader.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Handles one decoded frame. Returns `false` when the connection must
/// close (protocol violation).
fn handle_frame(
    conn: &Arc<Conn>,
    db: &Arc<Database>,
    class: &mut Option<SloClass>,
    frame: Frame,
) -> bool {
    let core = &conn.core;
    match (frame, *class) {
        (Frame::Hello { version, class: c }, None) => {
            if version != proto::PROTO_VERSION {
                core.protocol_errors.fetch_add(1, Ordering::AcqRel);
                core.bump(Counter::NetProtocolErrors);
                conn.send(&Frame::Error {
                    code: ErrCode::BadVersion,
                });
                return false;
            }
            *class = Some(c);
            conn.send(&Frame::HelloOk {
                freq_hz: core.freq_hz,
                accounts: core.oids.len() as u64,
            });
            true
        }
        (Frame::Req { id, op, a, b }, Some(c)) => {
            handle_req(conn, db, c, id, op, a, b);
            true
        }
        // Anything else out of order is a protocol violation: a second
        // Hello, a Req before Hello, or a server-to-client frame.
        _ => {
            core.protocol_errors.fetch_add(1, Ordering::AcqRel);
            core.bump(Counter::NetProtocolErrors);
            conn.send(&Frame::Error {
                code: ErrCode::ExpectedHello,
            });
            false
        }
    }
}

fn handle_req(conn: &Arc<Conn>, db: &Arc<Database>, class: SloClass, id: u64, op: Op, a: u64, b: u64) {
    let core = &conn.core;
    let t0 = now_cycles();
    let idx = class.index();

    if matches!(op, Op::Boom) && !core.chaos_ops {
        conn.send(&Frame::Error {
            code: ErrCode::ChaosDisabled,
        });
        return;
    }

    let admitted = core.gates[idx].try_admit();
    preempt_trace::emit(TraceEvent::NetRequest {
        conn: conn.id,
        class: idx as u8,
        admitted,
    });
    if !admitted {
        core.rejected[idx].fetch_add(1, Ordering::AcqRel);
        core.bump(Counter::NetRejected);
        conn.send(&Frame::Overloaded { id });
        return;
    }
    core.admitted[idx].fetch_add(1, Ordering::AcqRel);
    core.bump(Counter::NetAdmitted);
    core.publish_in_flight();

    let pending = Pending {
        conn: conn.clone(),
        id,
        class,
        t0,
        done: false,
    };
    let priority = match class {
        SloClass::High => Priority::High,
        SloClass::Low => Priority::Low,
    };
    let core2 = core.clone();
    let kind = match op {
        Op::Read => "net_read",
        Op::Deposit => "net_deposit",
        Op::Sum => "net_sum",
        Op::Boom => "net_boom",
    };
    // Provenance identity: connection id (+1, so the id is never the
    // "unassigned" 0) in the high half, wire request id in the low —
    // unique per in-flight request even when reconnecting clients reuse
    // wire ids.
    let req_id = (((u64::from(conn.id) + 1) & 0xFFFF) << 32) | (id & 0xFFFF_FFFF);
    db.submit_traced(kind, priority, req_id, t0, move || {
        let (status, value) = match op {
            Op::Read => op_read(&core2, a),
            Op::Deposit => op_deposit(&core2, a, b),
            Op::Sum => op_sum(&core2),
            Op::Boom => panic!("injected chaos op (net_boom)"),
        };
        let ok = matches!(status, Status::Ok);
        pending.finish(status, value);
        if ok {
            WorkOutcome::default()
        } else {
            WorkOutcome::failed(0)
        }
    });
}

fn read_balance(tx: &mut preemptdb::mvcc::Transaction<'_>, table: &Table, oid: Oid) -> Option<u64> {
    let raw = tx.read(table, oid)?;
    Some(u64::from_le_bytes(raw[..8].try_into().ok()?))
}

/// Point read of one account.
fn op_read(core: &Core, a: u64) -> (Status, u64) {
    let oid = core.oids[(a % core.oids.len() as u64) as usize];
    let mut tx = core.engine.begin_si();
    let v = read_balance(&mut tx, &core.table, oid);
    match (v, tx.commit()) {
        (Some(v), Ok(_)) => (Status::Ok, v),
        _ => (Status::Failed, 0),
    }
}

/// Credit two accounts by 1 each with a bounded first-updater-wins retry
/// loop (the conservation-law transaction: total grows by exactly 2 per
/// commit, counted in `committed_deposits`).
fn op_deposit(core: &Core, a: u64, b: u64) -> (Status, u64) {
    let n = core.oids.len() as u64;
    let oid_a = core.oids[(a % n) as usize];
    let mut oid_b = core.oids[(b % n) as usize];
    if oid_a == oid_b {
        oid_b = core.oids[((b + 1) % n) as usize];
    }
    let mut retries = 0u64;
    loop {
        let mut tx = core.engine.begin_si();
        if let Some(va) = read_balance(&mut tx, &core.table, oid_a) {
            if tx
                .update(&core.table, oid_a, &(va + 1).to_le_bytes())
                .is_ok()
            {
                if let Some(vb) = read_balance(&mut tx, &core.table, oid_b) {
                    if tx
                        .update(&core.table, oid_b, &(vb + 1).to_le_bytes())
                        .is_ok()
                        && tx.commit().is_ok()
                    {
                        core.committed_deposits.fetch_add(1, Ordering::AcqRel);
                        return (Status::Ok, retries);
                    }
                }
            }
        }
        retries += 1;
        if retries > 100 {
            return (Status::Failed, retries);
        }
        preemptdb::context::runtime::preempt_point(2_400);
    }
}

/// Full-ledger scan: the long low-class work high-class traffic preempts.
fn op_sum(core: &Core) -> (Status, u64) {
    let mut tx = core.engine.begin_si();
    let mut sum = 0u64;
    for &oid in core.oids.iter() {
        match read_balance(&mut tx, &core.table, oid) {
            Some(v) => sum += v,
            None => return (Status::Failed, 0),
        }
        // Stretch the scan into a worthwhile preemption target.
        preemptdb::context::runtime::preempt_point(1_000);
    }
    match tx.commit() {
        Ok(_) => (Status::Ok, sum),
        Err(_) => (Status::Failed, 0),
    }
}
