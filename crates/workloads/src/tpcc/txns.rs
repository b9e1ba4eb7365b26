//! The five TPC-C transactions, invoked directly against the engine API
//! (§6.1: no SQL/network/optimizer).
//!
//! NewOrder and Payment are the paper's *high-priority short*
//! transactions; the full five-transaction mix is used for the standard
//! TPC-C runs of Figure 8. Each `run_*` wrapper retries on write-write
//! conflicts and reports the retry count for the metrics.

use preempt_mvcc::{ControlFlow, IsolationLevel, TxError, TxResult};
use rand::rngs::SmallRng;
use rand::Rng;

use super::schema::*;
use crate::rand_util::{nurand_customer, nurand_item, nurand_last_name};

/// Inputs for a NewOrder transaction (spec §2.4.1).
#[derive(Clone, Debug)]
pub struct NewOrderParams {
    pub w_id: u64,
    pub d_id: u64,
    pub c_id: u64,
    /// (item id, supplying warehouse, quantity); a supplying warehouse
    /// differing from `w_id` is the 15 %-remote case the paper keeps.
    pub lines: Vec<(u64, u64, u32)>,
    /// Spec: 1 % of NewOrders contain an invalid item and must roll back.
    pub rollback: bool,
}

impl NewOrderParams {
    pub fn generate(rng: &mut SmallRng, scale: &TpccScale, home_w: u64) -> NewOrderParams {
        let d_id = rng.random_range(1..=scale.districts_per_wh);
        let c_id = nurand_customer(rng, scale.customers_per_district);
        let n_lines = rng.random_range(5..=15usize);
        let mut lines = Vec::with_capacity(n_lines);
        for _ in 0..n_lines {
            let i_id = nurand_item(rng, scale.items);
            // 15 % chance of a remote supplying warehouse (paper §6.1;
            // spec: 1 % per line — the paper raises it to 15 %).
            let supply_w = if scale.warehouses > 1 && rng.random_range(0..100) < 15 {
                loop {
                    let w = rng.random_range(1..=scale.warehouses);
                    if w != home_w {
                        break w;
                    }
                }
            } else {
                home_w
            };
            lines.push((i_id, supply_w, rng.random_range(1..=10u32)));
        }
        NewOrderParams {
            w_id: home_w,
            d_id,
            c_id,
            lines,
            rollback: rng.random_range(0..100) == 0,
        }
    }
}

/// Inputs for a Payment transaction (spec §2.5.1).
#[derive(Clone, Debug)]
pub struct PaymentParams {
    pub w_id: u64,
    pub d_id: u64,
    /// Customer selected by id (40 %) or by last name (60 %).
    pub customer: CustomerSelector,
    /// Customer resident warehouse/district (15 % remote).
    pub c_w_id: u64,
    pub c_d_id: u64,
    pub amount: i64,
}

#[derive(Clone, Debug)]
pub enum CustomerSelector {
    ById(u64),
    ByLastName(String),
}

impl PaymentParams {
    pub fn generate(rng: &mut SmallRng, scale: &TpccScale, home_w: u64) -> PaymentParams {
        let d_id = rng.random_range(1..=scale.districts_per_wh);
        let (c_w_id, c_d_id) = if scale.warehouses > 1 && rng.random_range(0..100) < 15 {
            let w = loop {
                let w = rng.random_range(1..=scale.warehouses);
                if w != home_w {
                    break w;
                }
            };
            (w, rng.random_range(1..=scale.districts_per_wh))
        } else {
            (home_w, d_id)
        };
        let customer = if rng.random_range(0..100) < 60 {
            CustomerSelector::ByLastName(nurand_last_name(rng))
        } else {
            CustomerSelector::ById(nurand_customer(rng, scale.customers_per_district))
        };
        PaymentParams {
            w_id: home_w,
            d_id,
            customer,
            c_w_id,
            c_d_id,
            amount: rng.random_range(100..=500_000),
        }
    }
}

impl TpccDb {
    // ---- NewOrder (§2.4) ----

    pub fn new_order(&self, p: &NewOrderParams) -> TxResult<()> {
        let mut tx = self.engine.begin(IsolationLevel::SnapshotIsolation);

        let w_oid = self.idx_warehouse.get(wh_key(p.w_id)).expect("warehouse");
        let _wh = WarehouseRow::decode(&tx.read(&self.warehouse, w_oid).expect("warehouse row"));

        // District: read and bump next_o_id (the natural hot spot).
        let d_oid = self.idx_district.get(dist_key(p.w_id, p.d_id)).expect("district");
        let mut dist = DistrictRow::decode(&tx.read(&self.district, d_oid).expect("district row"));
        let o_id = dist.next_o_id;
        dist.next_o_id += 1;
        tx.update(&self.district, d_oid, &dist.encode())?;

        let c_oid = self
            .idx_customer
            .get(cust_key(p.w_id, p.d_id, p.c_id))
            .expect("customer");
        let _cust = CustomerRow::decode(&tx.read(&self.customer, c_oid).expect("customer row"));

        // Order + NewOrder rows.
        let orow = OrderRow {
            id: o_id,
            c_id: p.c_id,
            d_id: p.d_id,
            w_id: p.w_id,
            entry_d: tx.begin_ts(),
            carrier_id: 0,
            ol_cnt: p.lines.len() as u32,
            all_local: u32::from(p.lines.iter().all(|&(_, sw, _)| sw == p.w_id)),
        };
        let o_oid = tx.insert_indexed(
            &self.order,
            &self.idx_order,
            order_key(p.w_id, p.d_id, o_id),
            &orow.encode(),
        )?;
        tx.index_insert_ordered(
            &self.idx_order_cust,
            order_cust_key(p.w_id, p.d_id, p.c_id, o_id),
            o_oid,
        )?;
        let nrow = NewOrderRow {
            o_id,
            d_id: p.d_id,
            w_id: p.w_id,
        };
        tx.insert_indexed_ordered(
            &self.new_order,
            &self.idx_new_order,
            new_order_key(p.w_id, p.d_id, o_id),
            &nrow.encode(),
        )?;

        // Lines: read item, update stock, insert order line.
        for (number, &(i_id, supply_w, qty)) in p.lines.iter().enumerate() {
            let Some(i_oid) = self.idx_item.get(item_key(i_id)) else {
                // Unused item id: spec rollback case.
                tx.abort();
                return Ok(());
            };
            let item = ItemRow::decode(&tx.read(&self.item, i_oid).expect("item row"));

            let s_oid = self
                .idx_stock
                .get(stock_key(supply_w, i_id))
                .expect("stock");
            let mut stock = StockRow::decode(&tx.read(&self.stock, s_oid).expect("stock row"));
            stock.quantity = if stock.quantity >= qty as i64 + 10 {
                stock.quantity - qty as i64
            } else {
                stock.quantity - qty as i64 + 91
            };
            stock.ytd += qty as i64;
            stock.order_cnt += 1;
            if supply_w != p.w_id {
                stock.remote_cnt += 1;
            }
            tx.update(&self.stock, s_oid, &stock.encode())?;

            let lrow = OrderLineRow {
                o_id,
                d_id: p.d_id,
                w_id: p.w_id,
                number: number as u32 + 1,
                i_id,
                supply_w_id: supply_w,
                delivery_d: 0,
                quantity: qty,
                amount: qty as i64 * item.price,
            };
            tx.insert_indexed_ordered(
                &self.order_line,
                &self.idx_order_line,
                order_line_key(p.w_id, p.d_id, o_id, number as u64 + 1),
                &lrow.encode(),
            )?;
        }

        if p.rollback {
            tx.abort();
            return Ok(());
        }
        tx.commit()?;
        Ok(())
    }

    // ---- Payment (§2.5) ----

    pub fn payment(&self, p: &PaymentParams) -> TxResult<()> {
        let mut tx = self.engine.begin(IsolationLevel::SnapshotIsolation);

        let w_oid = self.idx_warehouse.get(wh_key(p.w_id)).expect("warehouse");
        let mut wh = WarehouseRow::decode(&tx.read(&self.warehouse, w_oid).expect("warehouse row"));
        wh.ytd += p.amount;
        tx.update(&self.warehouse, w_oid, &wh.encode())?;

        let d_oid = self.idx_district.get(dist_key(p.w_id, p.d_id)).expect("district");
        let mut dist = DistrictRow::decode(&tx.read(&self.district, d_oid).expect("district row"));
        dist.ytd += p.amount;
        tx.update(&self.district, d_oid, &dist.encode())?;

        // Resolve the customer (60 % by last name, spec §2.5.2.2: take
        // the "middle" match among customers with that exact last name).
        let c_oid = match &p.customer {
            CustomerSelector::ById(c_id) => self
                .idx_customer
                .get(cust_key(p.c_w_id, p.c_d_id, *c_id))
                .expect("customer"),
            CustomerSelector::ByLastName(last) => {
                let lo = cust_name_key(p.c_w_id, p.c_d_id, last, 0);
                let hi = cust_name_key(p.c_w_id, p.c_d_id, last, 0xFFFF);
                let mut candidates = Vec::new();
                self.idx_customer_name.range_scan(lo, hi, |_k, oid| {
                    candidates.push(oid);
                    ControlFlow::Continue(())
                });
                // The index prefix is a 16-bit name hash: confirm the
                // actual name on each candidate row.
                let mut matches = Vec::new();
                for oid in candidates {
                    if let Some(row) = tx.read(&self.customer, oid) {
                        if CustomerRow::decode(&row).last == *last {
                            matches.push(oid);
                        }
                    }
                }
                if matches.is_empty() {
                    // No customer with this name in the district: no-op.
                    tx.commit()?;
                    return Ok(());
                }
                matches[matches.len() / 2]
            }
        };
        let mut cust = CustomerRow::decode(&tx.read(&self.customer, c_oid).expect("customer row"));
        cust.balance -= p.amount;
        cust.ytd_payment += p.amount;
        cust.payment_cnt += 1;
        tx.update(&self.customer, c_oid, &cust.encode())?;

        let hrow = HistoryRow {
            c_id: cust.id,
            d_id: p.d_id,
            w_id: p.w_id,
            amount: p.amount,
        };
        tx.insert(&self.history, &hrow.encode())?;

        tx.commit()?;
        Ok(())
    }

    // ---- OrderStatus (§2.6) ----

    pub fn order_status(&self, rng: &mut SmallRng) -> TxResult<()> {
        let s = self.scale;
        let w_id = rng.random_range(1..=s.warehouses);
        let d_id = rng.random_range(1..=s.districts_per_wh);
        let c_id = nurand_customer(rng, s.customers_per_district);
        let mut tx = self.engine.begin(IsolationLevel::SnapshotIsolation);

        let c_oid = self.idx_customer.get(cust_key(w_id, d_id, c_id)).expect("customer");
        let _cust = CustomerRow::decode(&tx.read(&self.customer, c_oid).expect("customer row"));

        // Most recent order of this customer. Index entries are visible
        // before their transaction commits (indexes are not versioned),
        // so walk back to the newest order whose row is visible in our
        // snapshot.
        let lo = order_cust_key(w_id, d_id, c_id, 0);
        let hi = order_cust_key(w_id, d_id, c_id, 0xFF_FFFF);
        let mut candidates = Vec::new();
        self.idx_order_cust.range_scan(lo, hi, |_k, oid| {
            candidates.push(oid);
            ControlFlow::Continue(())
        });
        let mut order = None;
        for &oid in candidates.iter().rev() {
            if let Some(raw) = tx.read(&self.order, oid) {
                order = Some(OrderRow::decode(&raw));
                break;
            }
        }
        let Some(order) = order else {
            tx.commit()?;
            return Ok(());
        };

        // Its lines.
        let llo = order_line_key(order.w_id, order.d_id, order.id, 0);
        let lhi = order_line_key(order.w_id, order.d_id, order.id, 0xFF);
        let mut line_oids = Vec::new();
        self.idx_order_line.range_scan(llo, lhi, |_k, oid| {
            line_oids.push(oid);
            ControlFlow::Continue(())
        });
        for oid in line_oids {
            let _ = tx.read(&self.order_line, oid);
        }
        tx.commit()?;
        Ok(())
    }

    // ---- Delivery (§2.7) ----

    pub fn delivery(&self, rng: &mut SmallRng) -> TxResult<()> {
        let s = self.scale;
        let w_id = rng.random_range(1..=s.warehouses);
        let carrier = rng.random_range(1..=10u32);
        let mut tx = self.engine.begin(IsolationLevel::SnapshotIsolation);

        for d_id in 1..=s.districts_per_wh {
            // Oldest undelivered new-order in this district.
            let lo = new_order_key(w_id, d_id, 0);
            let hi = new_order_key(w_id, d_id, 0xFFFF_FFFF);
            let mut oldest: Option<(u64, u64)> = None; // (key, oid)
            self.idx_new_order.range_scan(lo, hi, |k, oid| {
                oldest = Some((k, oid));
                ControlFlow::Break(())
            });
            let Some((no_key, no_oid)) = oldest else {
                continue;
            };
            let no_row = NewOrderRow::decode(match &tx.read(&self.new_order, no_oid) {
                Some(p) => p,
                None => continue, // another delivery raced us
            });
            tx.delete(&self.new_order, no_oid)?;
            tx.index_remove_ordered(&self.idx_new_order, no_key)?;

            // Stamp the order with the carrier. The order committed
            // before our snapshot (its new-order row is visible), but be
            // defensive about racing index maintenance anyway.
            let Some(o_oid) = self.idx_order.get(order_key(w_id, d_id, no_row.o_id)) else {
                continue;
            };
            let Some(o_raw) = tx.read(&self.order, o_oid) else {
                continue;
            };
            let mut order = OrderRow::decode(&o_raw);
            order.carrier_id = carrier;
            tx.update(&self.order, o_oid, &order.encode())?;

            // Stamp lines and total the amounts.
            let llo = order_line_key(w_id, d_id, no_row.o_id, 0);
            let lhi = order_line_key(w_id, d_id, no_row.o_id, 0xFF);
            let mut line_oids = Vec::new();
            self.idx_order_line.range_scan(llo, lhi, |_k, oid| {
                line_oids.push(oid);
                ControlFlow::Continue(())
            });
            let mut total = 0i64;
            for oid in line_oids {
                let mut line =
                    OrderLineRow::decode(&tx.read(&self.order_line, oid).expect("line row"));
                line.delivery_d = tx.begin_ts().max(1);
                total += line.amount;
                tx.update(&self.order_line, oid, &line.encode())?;
            }

            // Credit the customer.
            let c_oid = self
                .idx_customer
                .get(cust_key(w_id, d_id, order.c_id))
                .expect("customer");
            let mut cust =
                CustomerRow::decode(&tx.read(&self.customer, c_oid).expect("customer row"));
            cust.balance += total;
            cust.delivery_cnt += 1;
            tx.update(&self.customer, c_oid, &cust.encode())?;
        }
        tx.commit()?;
        Ok(())
    }

    // ---- StockLevel (§2.8) ----

    pub fn stock_level(&self, rng: &mut SmallRng) -> TxResult<()> {
        let s = self.scale;
        let w_id = rng.random_range(1..=s.warehouses);
        let d_id = rng.random_range(1..=s.districts_per_wh);
        let threshold = rng.random_range(10..=20i64);
        let mut tx = self.engine.begin(IsolationLevel::SnapshotIsolation);

        let d_oid = self.idx_district.get(dist_key(w_id, d_id)).expect("district");
        let dist = DistrictRow::decode(&tx.read(&self.district, d_oid).expect("district row"));

        // Lines of the last 20 orders.
        let first_o = dist.next_o_id.saturating_sub(20);
        let llo = order_line_key(w_id, d_id, first_o, 0);
        let lhi = order_line_key(w_id, d_id, dist.next_o_id, 0xFF);
        let mut item_ids = Vec::new();
        self.idx_order_line.range_scan(llo, lhi, |_k, oid| {
            item_ids.push(oid);
            ControlFlow::Continue(())
        });
        // Ordered, so the stock reads run in the same order every run (a
        // hash set's order is random per process).
        let mut distinct = std::collections::BTreeSet::new();
        for oid in item_ids {
            if let Some(p) = tx.read(&self.order_line, oid) {
                distinct.insert(OrderLineRow::decode(&p).i_id);
            }
        }
        let mut low = 0usize;
        for i_id in distinct {
            let s_oid = self.idx_stock.get(stock_key(w_id, i_id)).expect("stock");
            let stock = StockRow::decode(&tx.read(&self.stock, s_oid).expect("stock row"));
            if stock.quantity < threshold {
                low += 1;
            }
        }
        std::hint::black_box(low);
        tx.commit()?;
        Ok(())
    }

    // ---- retry wrappers ----

    /// Runs a closure-style transaction with conflict retries; returns
    /// the number of retries performed.
    fn with_retries(mut f: impl FnMut() -> TxResult<()>) -> u64 {
        let mut retries = 0;
        loop {
            match f() {
                Ok(()) => return retries,
                Err(
                    TxError::WriteConflict | TxError::ValidationFailed | TxError::FaultInjected,
                ) => {
                    retries += 1;
                }
                Err(e) => panic!("unexpected transaction error: {e}"),
            }
        }
    }

    pub fn run_new_order(&self, p: &NewOrderParams) -> u64 {
        Self::with_retries(|| self.new_order(p))
    }

    pub fn run_payment(&self, p: &PaymentParams) -> u64 {
        Self::with_retries(|| self.payment(p))
    }

    pub fn run_order_status(&self, rng: &mut SmallRng) -> u64 {
        Self::with_retries(|| self.order_status(rng))
    }

    pub fn run_delivery(&self, rng: &mut SmallRng) -> u64 {
        Self::with_retries(|| self.delivery(rng))
    }

    pub fn run_stock_level(&self, rng: &mut SmallRng) -> u64 {
        Self::with_retries(|| self.stock_level(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preempt_mvcc::{Engine, EngineConfig};
    use rand::SeedableRng;

    fn tiny_db() -> (Engine, std::sync::Arc<TpccDb>) {
        let engine = Engine::new(EngineConfig::default());
        let db = TpccDb::load(&engine, TpccScale::tiny(), 7).unwrap();
        (engine, db)
    }

    #[test]
    fn new_order_advances_district_and_creates_rows() {
        let (engine, db) = tiny_db();
        let mut rng = SmallRng::seed_from_u64(1);
        let before_orders = db.order.len();

        let mut p = NewOrderParams::generate(&mut rng, &db.scale, 1);
        p.rollback = false;
        let retries = db.run_new_order(&p);
        assert_eq!(retries, 0);

        assert_eq!(db.order.len(), before_orders + 1);
        // District counter advanced.
        let mut tx = engine.begin_si();
        let d_oid = db.idx_district.get(dist_key(p.w_id, p.d_id)).unwrap();
        let dist = DistrictRow::decode(&tx.read(&db.district, d_oid).unwrap());
        assert_eq!(dist.next_o_id, db.scale.preloaded_orders + 2);
        // Order line rows are visible and indexed.
        let o_id = dist.next_o_id - 1;
        let mut lines = 0;
        db.idx_order_line.range_scan(
            order_line_key(p.w_id, p.d_id, o_id, 0),
            order_line_key(p.w_id, p.d_id, o_id, 0xFF),
            |_k, oid| {
                assert!(tx.read(&db.order_line, oid).is_some());
                lines += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(lines, p.lines.len());
        tx.commit().unwrap();
    }

    #[test]
    fn new_order_rollback_leaves_no_trace() {
        let (engine, db) = tiny_db();
        let mut rng = SmallRng::seed_from_u64(2);
        let before = db.order.len();
        let aborts_before = engine.stats().aborts;

        let mut p = NewOrderParams::generate(&mut rng, &db.scale, 1);
        p.rollback = true;
        db.run_new_order(&p);

        assert_eq!(engine.stats().aborts, aborts_before + 1);
        // OID slots may be allocated, but nothing is visible.
        let mut tx = engine.begin_si();
        for oid in before..db.order.len() {
            assert!(tx.read(&db.order, oid as u64).is_none());
        }
        let d_oid = db.idx_district.get(dist_key(p.w_id, p.d_id)).unwrap();
        let dist = DistrictRow::decode(&tx.read(&db.district, d_oid).unwrap());
        assert_eq!(dist.next_o_id, db.scale.preloaded_orders + 1, "counter rolled back");
        tx.commit().unwrap();
    }

    #[test]
    fn payment_moves_money() {
        let (engine, db) = tiny_db();
        let p = PaymentParams {
            w_id: 1,
            d_id: 1,
            customer: CustomerSelector::ById(5),
            c_w_id: 1,
            c_d_id: 1,
            amount: 1234,
        };
        db.run_payment(&p);

        let mut tx = engine.begin_si();
        let c_oid = db.idx_customer.get(cust_key(1, 1, 5)).unwrap();
        let cust = CustomerRow::decode(&tx.read(&db.customer, c_oid).unwrap());
        assert_eq!(cust.balance, -1_000 - 1234);
        assert_eq!(cust.payment_cnt, 2);
        let w_oid = db.idx_warehouse.get(wh_key(1)).unwrap();
        let wh = WarehouseRow::decode(&tx.read(&db.warehouse, w_oid).unwrap());
        assert_eq!(wh.ytd, 30_000_000 + 1234);
        assert_eq!(db.history.len(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn payment_by_last_name_resolves() {
        let (engine, db) = tiny_db();
        // Loader gives customers 1..=30 last names 0..=29 sequentially.
        let name = crate::rand_util::last_name(4);
        let p = PaymentParams {
            w_id: 1,
            d_id: 1,
            customer: CustomerSelector::ByLastName(name.clone()),
            c_w_id: 1,
            c_d_id: 1,
            amount: 50,
        };
        db.run_payment(&p);
        // Customer 5 (name index 4) got the payment.
        let mut tx = engine.begin_si();
        let c_oid = db.idx_customer.get(cust_key(1, 1, 5)).unwrap();
        let cust = CustomerRow::decode(&tx.read(&db.customer, c_oid).unwrap());
        assert_eq!(cust.last, name);
        assert_eq!(cust.payment_cnt, 2);
        tx.commit().unwrap();
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let (_engine, db) = tiny_db();
        let mut rng = SmallRng::seed_from_u64(3);
        let before = db.idx_new_order.len();
        assert!(before > 0);
        db.run_delivery(&mut rng);
        let after = db.idx_new_order.len();
        assert!(
            after < before,
            "delivery removed new-orders: {before} -> {after}"
        );
    }

    #[test]
    fn order_status_and_stock_level_run_clean() {
        let (engine, db) = tiny_db();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10 {
            assert_eq!(db.run_order_status(&mut rng), 0);
            assert_eq!(db.run_stock_level(&mut rng), 0);
        }
        assert_eq!(engine.stats().aborts, 0);
    }

    #[test]
    fn concurrent_new_orders_all_succeed_with_retries() {
        let (engine, db) = tiny_db();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + t);
                let mut retries = 0;
                for _ in 0..50 {
                    let mut p = NewOrderParams::generate(&mut rng, &db.scale, 1);
                    p.rollback = false;
                    retries += db.run_new_order(&p);
                }
                retries
            }));
        }
        let _total_retries: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // All 200 orders committed exactly once (plus preloaded).
        let committed = db.order.len() as u64
            - db.scale.warehouses * db.scale.districts_per_wh * db.scale.preloaded_orders;
        assert!(committed >= 200, "committed={committed}");
        assert!(engine.stats().commits >= 200);
    }
}
