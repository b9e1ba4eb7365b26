//! End-to-end front-door tests over real sockets: handshake, SLO-tagged
//! request flow, admission backpressure, failure containment (malformed
//! frames, disconnects mid-request, seeded in-transaction panics), and
//! the engine-clean audit from the worker-recovery suite.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use preemptdb::mvcc::{Oid, Table};
use preemptdb::Engine;
use preemptdb_server::proto::{
    self, ErrCode, Frame, FrameReader, Op, SloClass, Status, PROTO_VERSION,
};
use preemptdb_server::{ClassLimits, Server, ServerConfig, ServerStats};

const ACCOUNTS: u64 = 64;
const INITIAL_BALANCE: u64 = 1_000;

fn test_config() -> ServerConfig {
    let mut cfg = ServerConfig::default().workers(2);
    cfg.accounts = ACCOUNTS;
    cfg.initial_balance = INITIAL_BALANCE;
    cfg
}

/// Minimal synchronous client: one frame out, one frame back.
struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connects and completes the Hello handshake.
    fn connect(server: &Server, class: SloClass) -> Client {
        let mut c = Client::connect_raw(server);
        c.send(&Frame::Hello {
            version: PROTO_VERSION,
            class,
        });
        match c.recv() {
            Some(Frame::HelloOk { accounts, .. }) => assert!(accounts >= 2),
            other => panic!("expected HelloOk, got {other:?}"),
        }
        c
    }

    /// Connects without the handshake (for protocol-violation tests).
    fn connect_raw(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Client {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, frame: &Frame) {
        proto::write_frame(&mut self.stream, frame).expect("send frame");
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send bytes");
    }

    /// Next frame; `None` on clean hangup.
    fn recv(&mut self) -> Option<Frame> {
        proto::read_frame(&mut self.stream, &mut self.reader).expect("recv frame")
    }

    /// One full request round-trip.
    fn call(&mut self, id: u64, op: Op, a: u64, b: u64) -> Frame {
        self.send(&Frame::Req { id, op, a, b });
        self.recv().expect("reply before hangup")
    }

    /// Asserts an Ok response for `id` and returns its value.
    fn call_ok(&mut self, id: u64, op: Op, a: u64, b: u64) -> u64 {
        match self.call(id, op, a, b) {
            Frame::Resp {
                id: rid,
                status: Status::Ok,
                value,
                ..
            } => {
                assert_eq!(rid, id);
                value
            }
            other => panic!("expected Ok resp for {id}, got {other:?}"),
        }
    }
}

/// The worker-recovery audit, applied through the server's engine: no
/// leaked active-transaction slots, no orphans on any worker, and every
/// row still writable by a fresh read-modify-write transaction.
fn assert_engine_clean(engine: &Engine, table: &std::sync::Arc<Table>, oids: &[Oid], workers: usize) {
    assert_eq!(
        engine.registry().active_count(),
        0,
        "active-txn slots leaked"
    );
    for worker in 0..workers as u64 {
        let sweep = engine.orphan_sweep(worker);
        assert!(sweep.is_empty(), "worker {worker} left orphans: {sweep:?}");
    }
    let mut tx = engine.begin_si();
    for &oid in oids {
        let raw = tx.read(table, oid).expect("row visible");
        let v = u64::from_le_bytes(raw[..8].try_into().unwrap());
        tx.update(table, oid, &v.to_le_bytes()).expect("row writable");
    }
    tx.commit().expect("post-run write commits");
}

/// Sums the ledger directly through the engine.
fn ledger_total(engine: &Engine, table: &Table, oids: &[Oid]) -> u64 {
    let mut tx = engine.begin_si();
    let total = oids
        .iter()
        .map(|&oid| {
            let raw = tx.read(table, oid).expect("row visible");
            u64::from_le_bytes(raw[..8].try_into().unwrap())
        })
        .sum();
    tx.abort();
    total
}

/// Polls until all admitted requests have been answered.
fn wait_drained(server: &Server) -> ServerStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.in_flight == [0, 0] {
            return stats;
        }
        assert!(Instant::now() < deadline, "in-flight never drained: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn handshake_and_point_ops_round_trip() {
    let server = Server::start(test_config()).expect("start");
    let mut c = Client::connect(&server, SloClass::High);

    assert_eq!(c.call_ok(1, Op::Read, 0, 0), INITIAL_BALANCE);

    let deposits = 5u64;
    for i in 0..deposits {
        c.call_ok(2 + i, Op::Deposit, i, i + 1);
    }
    // Sequential single client: the sum sees exactly its own commits.
    let sum = c.call_ok(100, Op::Sum, 0, 0);
    assert_eq!(sum, ACCOUNTS * INITIAL_BALANCE + 2 * deposits);

    // Responses carry a nonzero latency from the server's cycle clock.
    let Frame::Resp { latency_cycles, .. } = c.call(101, Op::Read, 3, 0) else {
        panic!("expected resp");
    };
    assert!(latency_cycles > 0);
    assert!(server.clock_freq_hz() > 0);

    drop(c);
    let stats = server.shutdown();
    assert_eq!(stats.conns_accepted, 1);
    assert_eq!(stats.replies[SloClass::High.index()], deposits + 3);
    assert_eq!(stats.rejected, [0, 0]);
    assert_eq!(stats.committed_deposits, deposits);
}

/// With a registry configured, the pool workers' shards are attached to
/// it: the worker-side series (transactions by class and kind, latency,
/// uintr delivery) are scraped next to the `net_*` ones.
#[test]
fn metrics_registry_carries_the_worker_side_series() {
    use preemptdb::metrics::{Counter, MetricsConfig, MetricsRegistry};
    let registry = MetricsRegistry::new(MetricsConfig::default());
    let mut cfg = test_config();
    cfg.metrics = Some(registry.clone());
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(&server, SloClass::High);
    let deposits = 40u64;
    for i in 0..deposits {
        c.call_ok(1 + i, Op::Deposit, i % ACCOUNTS, (i + 1) % ACCOUNTS);
    }
    // A worker counts a request right after its closure has sent the
    // reply: give the last one a moment to land.
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.counter_total(Counter::TxnCompletedHigh) < deposits {
        assert!(Instant::now() < deadline, "completions never reached the registry");
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter(Counter::TxnCompletedHigh), deposits);
    assert_eq!(snap.counter(Counter::TxnCompletedLow), 0);
    assert_eq!(snap.counter(Counter::NetAdmitted), deposits);
    let kind = snap.kind("net_deposit").expect("per-kind series");
    assert_eq!((kind.completed, kind.latency.count()), (deposits, deposits));
    assert!(snap.counter(Counter::UintrDelivered) > 0, "high requests interrupt");
    assert_eq!(snap.shards, 1 + 2, "the server's shard and one per worker");
    drop(c);
    server.shutdown();
}

/// Two requests written back to back get both replies promptly. Without
/// `TCP_NODELAY` on the accepted socket the second reply sits in the
/// server's send buffer until the client's delayed ACK of the first
/// (about 40 ms), because a client waiting for replies sends nothing an
/// ACK could ride on.
#[test]
fn pipelined_replies_are_not_held_for_a_delayed_ack() {
    let server = Server::start(test_config()).expect("start");
    let mut c = Client::connect(&server, SloClass::High);
    // Delayed ACKs only set in once the connection has ping-ponged a
    // while (Linux ACKs a young connection's segments at once).
    for id in 0..32 {
        c.call_ok(id, Op::Read, id % ACCOUNTS, 0);
    }
    let mut worst = Duration::ZERO;
    for round in 0..8u64 {
        let ids = [1_000 + 2 * round, 1_001 + 2 * round];
        let mut pair = Vec::new();
        for id in ids {
            let req = Frame::Req { id, op: Op::Read, a: id % ACCOUNTS, b: 0 };
            proto::write_frame(&mut pair, &req).expect("encode");
        }
        let t0 = Instant::now();
        c.send_bytes(&pair);
        // Two workers: the replies may come back in either order.
        let mut got = [0u64; 2];
        for slot in &mut got {
            match c.recv() {
                Some(Frame::Resp { id, status: Status::Ok, .. }) => *slot = id,
                other => panic!("expected an Ok resp, got {other:?}"),
            }
        }
        worst = worst.max(t0.elapsed());
        got.sort_unstable();
        assert_eq!(got, ids);
    }
    assert!(
        worst < Duration::from_millis(10),
        "a pipelined pair took {worst:?}: replies are being held for a delayed ACK"
    );
    drop(c);
    server.shutdown();
}

#[test]
fn both_classes_share_the_ledger() {
    let server = Server::start(test_config()).expect("start");
    let mut high = Client::connect(&server, SloClass::High);
    let mut low = Client::connect(&server, SloClass::Low);

    high.call_ok(1, Op::Deposit, 0, 1);
    low.call_ok(1, Op::Deposit, 2, 3);
    let sum = low.call_ok(2, Op::Sum, 0, 0);
    assert_eq!(sum, ACCOUNTS * INITIAL_BALANCE + 2 * 2);

    drop(high);
    drop(low);
    let stats = server.shutdown();
    assert_eq!(stats.admitted[SloClass::High.index()], 1);
    assert_eq!(stats.admitted[SloClass::Low.index()], 2);
}

#[test]
fn request_before_hello_is_a_protocol_error() {
    let server = Server::start(test_config()).expect("start");

    let mut c = Client::connect_raw(&server);
    c.send(&Frame::Req {
        id: 1,
        op: Op::Read,
        a: 0,
        b: 0,
    });
    assert_eq!(
        c.recv(),
        Some(Frame::Error {
            code: ErrCode::ExpectedHello,
        })
    );
    assert_eq!(c.recv(), None, "server hangs up after the error");

    // The violation is counted and the server keeps serving.
    let mut ok = Client::connect(&server, SloClass::High);
    assert_eq!(ok.call_ok(1, Op::Read, 0, 0), INITIAL_BALANCE);
    drop(ok);
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn bad_version_and_double_hello_are_rejected() {
    let server = Server::start(test_config()).expect("start");

    let mut c = Client::connect_raw(&server);
    c.send(&Frame::Hello {
        version: PROTO_VERSION + 9,
        class: SloClass::Low,
    });
    assert_eq!(
        c.recv(),
        Some(Frame::Error {
            code: ErrCode::BadVersion,
        })
    );
    assert_eq!(c.recv(), None);

    let mut c = Client::connect(&server, SloClass::Low);
    c.send(&Frame::Hello {
        version: PROTO_VERSION,
        class: SloClass::Low,
    });
    assert_eq!(
        c.recv(),
        Some(Frame::Error {
            code: ErrCode::ExpectedHello,
        })
    );
    assert_eq!(c.recv(), None);

    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_not_panics() {
    let server = Server::start(test_config()).expect("start");

    // Unknown opcode behind a valid length prefix.
    let mut c = Client::connect(&server, SloClass::High);
    c.send_bytes(&1u32.to_le_bytes());
    c.send_bytes(&[0xFF]);
    assert_eq!(
        c.recv(),
        Some(Frame::Error {
            code: ErrCode::BadFrame,
        })
    );
    assert_eq!(c.recv(), None);

    // Oversized length prefix.
    let mut c = Client::connect(&server, SloClass::High);
    c.send_bytes(&(proto::MAX_FRAME as u32 + 1).to_le_bytes());
    assert_eq!(
        c.recv(),
        Some(Frame::Error {
            code: ErrCode::BadFrame,
        })
    );
    assert_eq!(c.recv(), None);

    // Bad frames never reached a worker; real work still flows.
    let mut ok = Client::connect(&server, SloClass::Low);
    ok.call_ok(1, Op::Deposit, 0, 1);
    drop(ok);
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 2);
    assert_eq!(stats.committed_deposits, 1);
}

#[test]
fn boom_without_chaos_flag_is_refused() {
    let server = Server::start(test_config()).expect("start");
    let mut c = Client::connect(&server, SloClass::High);
    c.send(&Frame::Req {
        id: 1,
        op: Op::Boom,
        a: 0,
        b: 0,
    });
    assert_eq!(
        c.recv(),
        Some(Frame::Error {
            code: ErrCode::ChaosDisabled,
        })
    );
    // Refusal is not a hangup: the connection still works.
    assert_eq!(c.call_ok(2, Op::Read, 0, 0), INITIAL_BALANCE);
    drop(c);
    let stats = server.shutdown();
    assert_eq!(stats.admitted, [0, 1], "boom was refused before admission");
}

#[test]
fn saturated_class_gets_overloaded_frames() {
    let mut cfg = test_config();
    cfg.accounts = 512; // long scans so the cap is visibly held
    cfg.high = ClassLimits {
        tps: None,
        burst: 1,
        max_in_flight: 1,
    };
    let server = Server::start(cfg).expect("start");
    let mut c = Client::connect(&server, SloClass::High);

    // One write carrying four pipelined scans: with a cap of one, the
    // first is admitted and at least one of the rest bounces.
    let burst: Vec<u8> = (1..=4u64)
        .flat_map(|id| {
            Frame::Req {
                id,
                op: Op::Sum,
                a: 0,
                b: 0,
            }
            .encode()
        })
        .collect();
    c.send_bytes(&burst);

    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut answered = [false; 5];
    for _ in 0..4 {
        match c.recv().expect("reply") {
            Frame::Resp { id, .. } => {
                assert!(!answered[id as usize], "duplicate reply for {id}");
                answered[id as usize] = true;
                completed += 1;
            }
            Frame::Overloaded { id } => {
                assert!(!answered[id as usize], "duplicate reply for {id}");
                answered[id as usize] = true;
                rejected += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(completed + rejected, 4, "every request answered exactly once");
    assert!(rejected >= 1, "the in-flight cap engaged");

    drop(c);
    let stats = server.shutdown();
    assert_eq!(stats.rejected[SloClass::High.index()], rejected);
    assert_eq!(stats.admitted[SloClass::High.index()], completed);
    assert_eq!(stats.in_flight, [0, 0]);
}

#[test]
fn disconnect_mid_request_leaves_engine_clean() {
    let cfg = test_config();
    let workers = cfg.workers;
    let server = Server::start(cfg).expect("start");

    // Eight clients fire pipelined work and slam the door without
    // reading a single reply.
    for round in 0..8u64 {
        let mut c = Client::connect(&server, SloClass::High);
        let burst: Vec<u8> = (0..6u64)
            .flat_map(|i| {
                let op = if i % 3 == 2 { Op::Sum } else { Op::Deposit };
                Frame::Req {
                    id: i,
                    op,
                    a: round * 7 + i,
                    b: round * 11 + i + 1,
                }
                .encode()
            })
            .collect();
        c.send_bytes(&burst);
        drop(c); // disconnect with every request in flight
    }

    // A surviving client keeps the server honest throughout.
    let mut survivor = Client::connect(&server, SloClass::Low);
    survivor.call_ok(1, Op::Deposit, 1, 2);

    let stats = wait_drained(&server);
    // Every admitted request ran to completion against the dead sockets.
    assert_eq!(
        stats.replies[0] + stats.replies[1],
        stats.admitted[0] + stats.admitted[1]
    );

    // Conservation: the ledger grew by exactly two per committed deposit.
    let engine = server.engine().clone();
    let (table, oids) = server.accounts();
    assert_eq!(
        ledger_total(&engine, &table, &oids),
        ACCOUNTS * INITIAL_BALANCE + 2 * stats.committed_deposits
    );
    assert_engine_clean(&engine, &table, &oids, workers);

    // And the survivor still gets service after the carnage.
    survivor.call_ok(2, Op::Read, 0, 0);
    drop(survivor);
    server.shutdown();
}

#[test]
fn chaos_panics_are_contained_under_live_load() {
    let mut cfg = test_config();
    cfg.enable_chaos_ops = true;
    let workers = cfg.workers;
    let server = Server::start(cfg).expect("start");

    // A Boom panics inside the worker; the firewall contains it and the
    // reply guard turns it into a typed Panicked response.
    let mut c = Client::connect(&server, SloClass::High);
    match c.call(1, Op::Boom, 0, 0) {
        Frame::Resp {
            id: 1,
            status: Status::Panicked,
            ..
        } => {}
        other => panic!("expected Panicked resp, got {other:?}"),
    }
    // The pool survived: the very next transaction commits.
    c.call_ok(2, Op::Deposit, 0, 1);

    // Mixed chaos: booms interleaved with deposits across classes, some
    // connections killed mid-request.
    for round in 0..6u64 {
        let class = if round % 2 == 0 {
            SloClass::High
        } else {
            SloClass::Low
        };
        let mut victim = Client::connect(&server, class);
        let burst: Vec<u8> = (0..4u64)
            .flat_map(|i| {
                let op = if i % 2 == 0 { Op::Boom } else { Op::Deposit };
                Frame::Req {
                    id: i,
                    op,
                    a: round + i,
                    b: round + i + 3,
                }
                .encode()
            })
            .collect();
        victim.send_bytes(&burst);
        drop(victim); // hang up with panics still in flight
    }

    let stats = wait_drained(&server);
    assert_eq!(
        stats.replies[0] + stats.replies[1],
        stats.admitted[0] + stats.admitted[1],
        "every admitted request produced exactly one reply, panics included"
    );

    // Zero lost or duplicated commits, no leaked slots, no orphans.
    let engine = server.engine().clone();
    let (table, oids) = server.accounts();
    assert_eq!(
        ledger_total(&engine, &table, &oids),
        ACCOUNTS * INITIAL_BALANCE + 2 * stats.committed_deposits
    );
    assert_engine_clean(&engine, &table, &oids, workers);

    // The front door is still open.
    let mut after = Client::connect(&server, SloClass::High);
    assert!(after.call_ok(1, Op::Sum, 0, 0) >= ACCOUNTS * INITIAL_BALANCE);
    drop(after);
    server.shutdown();
}
