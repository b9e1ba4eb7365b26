//! Transactional-correctness invariants under preemptive scheduling: the
//! whole point of PreemptDB is that preempting optimistic readers is
//! *safe*. These tests run real mixed workloads with aggressive
//! preemption and then audit the database.

use preemptdb::mvcc::ControlFlow;
use preemptdb::sched::{run, DriverConfig, Policy, Runtime};
use preemptdb::workloads::tpcc::schema::*;
use preemptdb::workloads::{setup_mixed, MixedWorkload, TpccScale, TpchScale};
use preemptdb::SimConfig;

fn scales(warehouses: u64) -> (TpccScale, TpchScale) {
    (
        TpccScale {
            warehouses,
            districts_per_wh: 3,
            customers_per_district: 60,
            items: 300,
            preloaded_orders: 8,
        },
        TpchScale::tiny(),
    )
}

/// Runs the mixed workload with constant preemption, then audits:
/// * every committed Order has exactly `ol_cnt` OrderLine rows;
/// * district `next_o_id` equals preloaded + committed NewOrders + 1 per
///   district (no lost or duplicated ids despite preemption mid-insert);
/// * warehouse YTD equals the sum of district YTDs (Payment atomicity).
#[test]
fn tpcc_consistency_survives_preemption() {
    let workers = 4;
    let (tpcc_scale, tpch_scale) = scales(workers as u64);
    let (engine, tpcc, tpch) = setup_mixed(workers as u64, Some(tpcc_scale), Some(tpch_scale), 77);
    let sim = SimConfig::default();
    let cfg = DriverConfig {
        n_workers: workers,
        queue_caps: vec![1, 8],
        batch_size: workers * 8,
        arrival_interval: sim.us_to_cycles(500),
        duration: sim.ms_to_cycles(80),
        ..DriverConfig::paper_default(Policy::preemptdb())
    };
    let report = run(
        Runtime::Simulated(sim),
        cfg,
        Box::new(MixedWorkload::new(tpcc.clone(), tpch, 13)),
    );
    assert!(report.workers.preemptions > 100, "preemption was exercised");
    assert!(report.completed("neworder") > 100);

    let mut tx = engine.begin_si();
    let s = tpcc.scale;

    // (1) Order <-> OrderLine integrity.
    let mut audited_orders = 0;
    for w in 1..=s.warehouses {
        for d in 1..=s.districts_per_wh {
            let d_oid = tpcc.idx_district.get(dist_key(w, d)).unwrap();
            let dist = DistrictRow::decode(&tx.read(&tpcc.district, d_oid).unwrap());
            for o in 1..dist.next_o_id {
                let Some(o_oid) = tpcc.idx_order.get(order_key(w, d, o)) else {
                    panic!("order {w}/{d}/{o} missing from index");
                };
                let Some(raw) = tx.read(&tpcc.order, o_oid) else {
                    panic!("order {w}/{d}/{o} committed id but invisible row");
                };
                let order = OrderRow::decode(&raw);
                let mut lines = 0u32;
                tpcc.idx_order_line.range_scan(
                    order_line_key(w, d, o, 0),
                    order_line_key(w, d, o, 0xFF),
                    |_k, l_oid| {
                        if tx.read(&tpcc.order_line, l_oid).is_some() {
                            lines += 1;
                        }
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(
                    lines, order.ol_cnt,
                    "order {w}/{d}/{o}: {lines} visible lines, ol_cnt={}",
                    order.ol_cnt
                );
                audited_orders += 1;
            }
        }
    }
    assert!(audited_orders > 100, "audited {audited_orders} orders");

    // (2) Money conservation: warehouse YTD growth == sum of district YTD
    // growth (Payment updates both or neither).
    for w in 1..=s.warehouses {
        let w_oid = tpcc.idx_warehouse.get(wh_key(w)).unwrap();
        let wh = WarehouseRow::decode(&tx.read(&tpcc.warehouse, w_oid).unwrap());
        let mut district_ytd_growth = 0i64;
        for d in 1..=s.districts_per_wh {
            let d_oid = tpcc.idx_district.get(dist_key(w, d)).unwrap();
            let dist = DistrictRow::decode(&tx.read(&tpcc.district, d_oid).unwrap());
            district_ytd_growth += dist.ytd - 3_000_000;
        }
        assert_eq!(
            wh.ytd - 30_000_000,
            district_ytd_growth,
            "warehouse {w}: YTD mismatch"
        );
    }
    tx.commit().unwrap();

    // (3) No lingering uncommitted state after the run and the audit.
    assert_eq!(engine.registry().active_count(), 0, "no leaked transactions");
}

/// The same audit under the cooperative and wait policies — scheduling
/// policy must never affect correctness, only latency.
#[test]
fn consistency_is_policy_independent() {
    for policy in [Policy::Wait, Policy::cooperative(), Policy::preemptdb()] {
        let workers = 2;
        let (tpcc_scale, tpch_scale) = scales(workers as u64);
        let (engine, tpcc, tpch) =
            setup_mixed(workers as u64, Some(tpcc_scale), Some(tpch_scale), 99);
        let sim = SimConfig::default();
        let cfg = DriverConfig {
            n_workers: workers,
            batch_size: 8,
            arrival_interval: sim.us_to_cycles(1_000),
            duration: sim.ms_to_cycles(40),
            ..DriverConfig::paper_default(policy)
        };
        run(
            Runtime::Simulated(sim),
            cfg,
            Box::new(MixedWorkload::new(tpcc.clone(), tpch, 3)),
        );

        let mut tx = engine.begin_si();
        let s = tpcc.scale;
        for w in 1..=s.warehouses {
            let w_oid = tpcc.idx_warehouse.get(wh_key(w)).unwrap();
            let wh = WarehouseRow::decode(&tx.read(&tpcc.warehouse, w_oid).unwrap());
            let mut growth = 0i64;
            for d in 1..=s.districts_per_wh {
                let d_oid = tpcc.idx_district.get(dist_key(w, d)).unwrap();
                let dist = DistrictRow::decode(&tx.read(&tpcc.district, d_oid).unwrap());
                growth += dist.ytd - 3_000_000;
            }
            assert_eq!(
                wh.ytd - 30_000_000,
                growth,
                "policy {policy:?}, warehouse {w}"
            );
        }
        tx.commit().unwrap();
        assert!(engine.stats().commits > 0);
    }
}

/// Q2 sees a consistent snapshot even while NewOrders churn the engine:
/// repeated Q2 with fixed parameters inside one transaction epoch gives
/// identical results (the TPC-H tables are not written by the mix).
#[test]
fn q2_snapshot_stability_under_churn() {
    let workers = 2;
    let (tpcc_scale, tpch_scale) = scales(workers as u64);
    let (_engine, tpcc, tpch) = setup_mixed(workers as u64, Some(tpcc_scale), Some(tpch_scale), 55);

    // Churn TPC-C from background threads while Q2 runs in a loop.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..2u64 {
        let tpcc = tpcc.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            use preemptdb::workloads::tpcc::NewOrderParams;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(t);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut p = NewOrderParams::generate(&mut rng, &tpcc.scale, 1);
                p.rollback = false;
                tpcc.run_new_order(&p);
            }
        }));
    }

    let params = preemptdb::workloads::Q2Params {
        size: 1,
        type_id: 2,
        region: 3,
    };
    let reference = tpch.q2(&params).unwrap();
    for _ in 0..20 {
        assert_eq!(tpch.q2(&params).unwrap(), reference, "Q2 stable");
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}
