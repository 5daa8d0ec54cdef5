//! TPC-H through the full stack: Teradata-dialect queries via Hyper-Q,
//! executed on the SimWH engine over generated data.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hyperq::core::{Backend, HyperQBuilder};
use hyperq::engine::EngineDb;
use hyperq::workload::tpch;

/// Tiny scale for test speed; the benchmark harness uses larger factors.
const SCALE: f64 = 0.002;

/// The Figure 9 scale and datagen seed (`repro_figure9a`, `tdwpbench`).
const FIGURE9_SCALE: f64 = 0.01;
const FIGURE9_SEED: u64 = 7777;

/// Data the answer oracles check: the Figure 9 data, and a seed under
/// which four parts qualify for Q17 with different averages (only one part
/// does under 7777), so a correlated subquery answered for the wrong outer
/// row changes the answer.
const ORACLE_DATA: [(f64, u64); 2] = [(FIGURE9_SCALE, FIGURE9_SEED), (FIGURE9_SCALE, 25)];

fn load() -> Arc<EngineDb> {
    load_at(SCALE, 1234)
}

fn load_at(scale: f64, seed: u64) -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).unwrap();
    }
    for (table, rows) in tpch::generate(scale, seed).tables() {
        db.load_rows(table, rows).unwrap();
    }
    db
}

#[test]
fn all_22_queries_run_through_hyperq() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    for (n, sql) in tpch::queries() {
        let outcome = hq
            .run_one(sql)
            .unwrap_or_else(|e| panic!("Q{n} failed: {e}"));
        // Every query is an analytical SELECT: it must produce a schema.
        assert!(
            !outcome.result.schema.is_empty(),
            "Q{n} produced no result schema"
        );
        assert!(
            outcome.timings.translation.as_nanos() > 0,
            "Q{n} recorded no translation time"
        );
    }
}

#[test]
fn q1_aggregates_are_plausible() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o = hq.run_one(tpch::query(1)).unwrap();
    // Four flag/status groups at most (R/F, A/F, N/O, N/F).
    assert!((1..=4).contains(&o.result.rows.len()), "{:?}", o.result.rows.len());
    // COUNT_ORDER column (last) sums to the number of lineitems within the
    // date filter — which is nearly all of them.
    let total: i64 = o
        .result
        .rows
        .iter()
        .map(|r| r.last().unwrap().to_i64().unwrap())
        .sum();
    let lineitems = db.execute_sql("SELECT COUNT(*) FROM LINEITEM").unwrap().rows[0][0]
        .to_i64()
        .unwrap();
    assert!(total > 0 && total <= lineitems);
}

#[test]
fn q6_revenue_matches_direct_engine_execution() {
    // The virtualized result must be identical to running the equivalent
    // ANSI query directly on the target.
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let via_hyperq = hq.run_one(tpch::query(6)).unwrap();
    let direct = db
        .execute_sql(
            "SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS REVENUE FROM LINEITEM \
             WHERE L_SHIPDATE >= DATE '1994-01-01' \
             AND L_SHIPDATE < (DATE '1994-01-01' + INTERVAL '1' YEAR) \
             AND L_DISCOUNT BETWEEN 0.05 AND 0.07 AND L_QUANTITY < 24",
        )
        .unwrap();
    assert_eq!(via_hyperq.result.rows, direct.rows);
}

#[test]
fn q4_exists_decorrelation_gives_same_answer_as_naive() {
    // Compare the optimized EXISTS path against a manual semi-join-free
    // formulation (IN over DISTINCT keys).
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let q4 = hq.run_one(tpch::query(4)).unwrap();
    let manual = db
        .execute_sql(
            "SELECT O_ORDERPRIORITY, COUNT(*) AS ORDER_COUNT FROM ORDERS \
             WHERE O_ORDERDATE >= DATE '1993-07-01' \
             AND O_ORDERDATE < (DATE '1993-07-01' + INTERVAL '3' MONTH) \
             AND O_ORDERKEY IN (SELECT DISTINCT L_ORDERKEY FROM LINEITEM \
                                WHERE L_COMMITDATE < L_RECEIPTDATE) \
             GROUP BY O_ORDERPRIORITY ORDER BY O_ORDERPRIORITY",
        )
        .unwrap();
    assert_eq!(q4.result.rows, manual.rows);
}

#[test]
fn q21_anti_join_consistency() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o = hq.run_one(tpch::query(21)).unwrap();
    // Sanity: counts positive, sorted descending.
    let counts: Vec<i64> = o
        .result
        .rows
        .iter()
        .map(|r| r[1].to_i64().unwrap())
        .collect();
    for w in counts.windows(2) {
        assert!(w[0] >= w[1], "NUMWAIT must be sorted descending: {counts:?}");
    }
}

#[test]
fn tpch_features_tracked() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o1 = hq.run_one(tpch::query(1)).unwrap();
    assert!(o1.features.contains(hyperq::xtra::Feature::KeywordShortcut));
    assert!(o1.features.contains(hyperq::xtra::Feature::OrdinalGroupBy));
    assert!(o1.features.contains(hyperq::xtra::Feature::DateArithmetic));
}

#[test]
fn q1_matches_direct_rust_computation() {
    // Correctness anchor: recompute Q1's aggregates in plain Rust from the
    // generated rows and compare with the full-stack result.
    use hyperq::xtra::datum::{parse_date, Datum};
    use std::collections::BTreeMap;

    let data = hyperq::workload::tpch::generate(SCALE, 1234);
    let cutoff = parse_date("1998-12-01").unwrap() - 90;

    #[derive(Default)]
    struct Acc {
        qty: i128,          // scale 2
        base: i128,         // scale 2
        disc_price: i128,   // scale 4 (price*(1-disc))
        count: i64,
    }
    let mut groups: BTreeMap<(String, String), Acc> = BTreeMap::new();
    for row in &data.lineitem {
        let Datum::Date(shipdate) = row[10] else {
            panic!();
        };
        if shipdate > cutoff {
            continue;
        }
        let flag = row[8].to_sql_string();
        let status = row[9].to_sql_string();
        let qty = match &row[4] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            _ => panic!(),
        };
        let price = match &row[5] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            _ => panic!(),
        };
        let disc = match &row[6] {
            Datum::Dec(d) => d.rescale(2).mantissa, // 0.00..0.10 → cents
            _ => panic!(),
        };
        let acc = groups.entry((flag, status)).or_default();
        acc.qty += qty;
        acc.base += price;
        acc.disc_price += price * (100 - disc); // scale 2+2 = 4
        acc.count += 1;
    }

    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o = hq.run_one(tpch::query(1)).unwrap();
    assert_eq!(o.result.rows.len(), groups.len());
    for row in &o.result.rows {
        let key = (row[0].to_sql_string(), row[1].to_sql_string());
        let acc = groups.get(&key).unwrap_or_else(|| panic!("group {key:?}"));
        let sum_qty = match &row[2] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            other => panic!("{other:?}"),
        };
        assert_eq!(sum_qty, acc.qty, "SUM_QTY for {key:?}");
        let sum_base = match &row[3] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            other => panic!("{other:?}"),
        };
        assert_eq!(sum_base, acc.base, "SUM_BASE_PRICE for {key:?}");
        let sum_disc = match &row[4] {
            Datum::Dec(d) => d.rescale(4).mantissa,
            other => panic!("{other:?}"),
        };
        assert_eq!(sum_disc, acc.disc_price, "SUM_DISC_PRICE for {key:?}");
        assert_eq!(row[9].to_i64().unwrap(), acc.count, "COUNT_ORDER for {key:?}");
        // AVG_QTY = SUM_QTY / COUNT within rounding.
        let avg_qty = row[6].to_f64().unwrap();
        let expect = acc.qty as f64 / 100.0 / acc.count as f64;
        assert!((avg_qty - expect).abs() < 0.01, "AVG_QTY {avg_qty} vs {expect}");
    }

    // The same result must arrive bit-identically over the wire protocol.
    let handle = hyperq::wire::Gateway::spawn(
        Arc::clone(&db) as Arc<dyn Backend>,
        hyperq::wire::GatewayConfig::default(),
    )
    .unwrap();
    let mut client = hyperq::wire::Client::connect(handle.addr, "APP", "secret").unwrap();
    let over_wire = client.run(tpch::query(1)).unwrap();
    assert_eq!(over_wire[0].rows.len(), o.result.rows.len());
    for (a, b) in over_wire[0].rows.iter().zip(o.result.rows.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (Datum::Dec(p), Datum::Dec(q)) => assert_eq!(p, q),
                _ => assert_eq!(x.to_sql_string(), y.to_sql_string()),
            }
        }
    }
    handle.shutdown();
}

#[test]
fn all_22_queries_run_through_a_default_gateway_without_error() {
    // The headline experiment under defaults: the gateway's default
    // deadline and per-query memory budget must admit all of TPC-H at the
    // Figure 9 scale.
    let db = load_at(FIGURE9_SCALE, FIGURE9_SEED);
    let handle = hyperq::wire::Gateway::spawn(
        db as Arc<dyn Backend>,
        hyperq::wire::GatewayConfig::default(),
    )
    .unwrap();
    let mut client = hyperq::wire::Client::connect(handle.addr, "APP", "secret").unwrap();
    let errors: Vec<String> = tpch::queries()
        .into_iter()
        .filter_map(|(n, sql)| client.run(sql).err().map(|e| format!("Q{n}: {e}")))
        .collect();
    client.logoff().unwrap();
    handle.shutdown();
    assert!(errors.is_empty(), "{errors:#?}");
}

// ---------------------------------------------------------------------------
// Independent answer oracles: the subquery queries recomputed in plain Rust
// from the generated rows, so an engine bug (a stale subquery answer, say)
// cannot hide behind a comparison of the engine with itself.
// ---------------------------------------------------------------------------

mod oracle {
    use std::collections::{HashMap, HashSet};

    use hyperq::xtra::datum::{parse_date, Datum};
    use hyperq::xtra::Row;

    pub fn int(d: &Datum) -> i64 {
        d.to_i64().unwrap_or_else(|| panic!("integer expected, got {d:?}"))
    }

    /// A decimal's mantissa at `scale`.
    pub fn fixed(d: &Datum, scale: u8) -> i128 {
        match d {
            Datum::Dec(x) => x.rescale(scale).mantissa,
            Datum::Int(v) => *v as i128 * 10i128.pow(scale as u32),
            other => panic!("decimal expected, got {other:?}"),
        }
    }

    pub fn text(d: &Datum) -> String {
        d.to_sql_string().trim_end().to_string()
    }

    pub fn date(s: &str) -> i32 {
        parse_date(s).unwrap()
    }

    /// Nation keys of the nations in `region`, with their names.
    pub fn nations_in(region: &str, regions: &[Row], nations: &[Row]) -> HashMap<i64, String> {
        let r = regions.iter().find(|r| text(&r[1]) == region).map(|r| int(&r[0])).unwrap();
        nations
            .iter()
            .filter(|n| int(&n[2]) == r)
            .map(|n| (int(&n[0]), text(&n[1])))
            .collect()
    }

    /// Supplier keys located in one of `nations`.
    pub fn suppliers_in(nations: &HashMap<i64, String>, suppliers: &[Row]) -> HashSet<i64> {
        suppliers
            .iter()
            .filter(|s| nations.contains_key(&int(&s[3])))
            .map(|s| int(&s[0]))
            .collect()
    }
}

/// Query `n`'s answer through Hyper-Q over freshly loaded data.
fn answer(n: usize, scale: f64, seed: u64) -> Vec<hyperq::xtra::Row> {
    let db = load_at(scale, seed);
    let mut hq = HyperQBuilder::for_target(db as Arc<dyn Backend>, hyperq::core::targets::simwh())
        .build();
    hq.run_one(tpch::query(n)).unwrap_or_else(|e| panic!("Q{n}: {e}")).result.rows
}

#[test]
fn q2_matches_direct_rust_computation() {
    for (scale, seed) in ORACLE_DATA {
        check_q2(scale, seed);
    }
}

fn check_q2(scale: f64, seed: u64) {
    use oracle::*;
    let data = tpch::generate(scale, seed);
    let europe = nations_in("EUROPE", &data.region, &data.nation);
    let suppliers: HashMap<i64, &hyperq::xtra::Row> = data
        .supplier
        .iter()
        .filter(|s| europe.contains_key(&int(&s[3])))
        .map(|s| (int(&s[0]), s))
        .collect();
    let parts: HashMap<i64, &hyperq::xtra::Row> = data
        .part
        .iter()
        .filter(|p| int(&p[5]) == 15 && text(&p[4]).ends_with("BRASS"))
        .map(|p| (int(&p[0]), p))
        .collect();
    // The correlated subquery: the cheapest European supply cost per part.
    let mut min_cost: HashMap<i64, i128> = HashMap::new();
    for ps in data.partsupp.iter().filter(|ps| suppliers.contains_key(&int(&ps[1]))) {
        let cost = min_cost.entry(int(&ps[0])).or_insert(i128::MAX);
        *cost = (*cost).min(fixed(&ps[3], 2));
    }
    let mut expected: Vec<(i128, String, String, i64)> = data
        .partsupp
        .iter()
        .filter(|ps| parts.contains_key(&int(&ps[0])))
        .filter_map(|ps| {
            let s = suppliers.get(&int(&ps[1]))?;
            (min_cost[&int(&ps[0])] == fixed(&ps[3], 2)).then(|| {
                (fixed(&s[5], 2), text(&s[1]), europe[&int(&s[3])].clone(), int(&ps[0]))
            })
        })
        .collect();
    expected.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| (&a.2, &a.1, a.3).cmp(&(&b.2, &b.1, b.3))));
    expected.truncate(100);
    assert!(!expected.is_empty(), "Q2 has no answer at SF {scale}, seed {seed}");

    let got: Vec<(i128, String, String, i64)> = answer(2, scale, seed)
        .iter()
        .map(|r| (fixed(&r[0], 2), text(&r[1]), text(&r[2]), int(&r[3])))
        .collect();
    assert_eq!(got, expected, "SF {scale}, seed {seed}");
}

#[test]
fn q11_matches_direct_rust_computation() {
    for (scale, seed) in ORACLE_DATA {
        check_q11(scale, seed);
    }
}

fn check_q11(scale: f64, seed: u64) {
    use oracle::*;
    let data = tpch::generate(scale, seed);
    let germany: HashMap<i64, String> = data
        .nation
        .iter()
        .filter(|n| text(&n[1]) == "GERMANY")
        .map(|n| (int(&n[0]), text(&n[1])))
        .collect();
    let suppliers = suppliers_in(&germany, &data.supplier);
    let mut value: HashMap<i64, i128> = HashMap::new();
    for ps in data.partsupp.iter().filter(|ps| suppliers.contains(&int(&ps[1]))) {
        *value.entry(int(&ps[0])).or_default() += fixed(&ps[3], 2) * int(&ps[2]) as i128;
    }
    // The uncorrelated subquery: 0.01% of the total stock value.
    let total: i128 = value.values().sum();
    let mut expected: Vec<(i128, i64)> = value
        .into_iter()
        .filter(|&(_, v)| v * 10_000 > total)
        .map(|(k, v)| (v, k))
        .collect();
    expected.sort_by(|a, b| b.cmp(a));
    assert!(!expected.is_empty(), "Q11 has no answer at SF {scale}, seed {seed}");

    let mut got: Vec<(i128, i64)> =
        answer(11, scale, seed).iter().map(|r| (fixed(&r[1], 2), int(&r[0]))).collect();
    // ORDER BY VALUE DESC leaves ties unordered.
    got.sort_by(|a, b| b.cmp(a));
    assert_eq!(got, expected, "SF {scale}, seed {seed}");
}

#[test]
fn q15_matches_direct_rust_computation() {
    for (scale, seed) in ORACLE_DATA {
        check_q15(scale, seed);
    }
}

fn check_q15(scale: f64, seed: u64) {
    use hyperq::xtra::Datum;
    use oracle::*;
    let data = tpch::generate(scale, seed);
    let (from, to) = (date("1996-01-01"), date("1996-04-01"));
    let mut revenue: HashMap<i64, i128> = HashMap::new();
    for l in &data.lineitem {
        let Datum::Date(shipdate) = l[10] else { panic!("L_SHIPDATE {:?}", l[10]) };
        if (from..to).contains(&shipdate) {
            // price (scale 2) × (1 − discount) (scale 2) = scale 4
            *revenue.entry(int(&l[2])).or_default() +=
                fixed(&l[5], 2) * (100 - fixed(&l[6], 2));
        }
    }
    // The uncorrelated subquery: the top revenue.
    let top = revenue.values().copied().max().expect("Q15 has no revenue");
    let mut expected: Vec<(i64, i128)> =
        revenue.into_iter().filter(|&(_, r)| r == top).collect();
    expected.sort();

    assert!(!expected.is_empty(), "Q15 has no answer at SF {scale}, seed {seed}");
    let got: Vec<(i64, i128)> =
        answer(15, scale, seed).iter().map(|r| (int(&r[0]), fixed(&r[4], 4))).collect();
    assert_eq!(got, expected, "SF {scale}, seed {seed}");
}

#[test]
fn q17_matches_direct_rust_computation() {
    let discriminating: Vec<bool> =
        ORACLE_DATA.iter().map(|&(scale, seed)| check_q17(scale, seed)).collect();
    assert!(
        discriminating.contains(&true),
        "no dataset makes Q17's answer depend on its correlation: {discriminating:?}"
    );
}

/// Check Q17's answer. Returns whether the data makes the correlation
/// matter: applying any one part's average to every part's line items
/// would change the answer.
fn check_q17(scale: f64, seed: u64) -> bool {
    use oracle::*;
    let data = tpch::generate(scale, seed);
    let parts: HashSet<i64> = data
        .part
        .iter()
        .filter(|p| text(&p[3]) == "Brand#23" && text(&p[6]) == "MED BOX")
        .map(|p| int(&p[0]))
        .collect();
    let items: Vec<&hyperq::xtra::Row> =
        data.lineitem.iter().filter(|l| parts.contains(&int(&l[1]))).collect();
    // The correlated subquery: per part, the quantity sum and count.
    let mut per_part: HashMap<i64, (i128, i128)> = HashMap::new();
    for l in &items {
        let e = per_part.entry(int(&l[1])).or_default();
        e.0 += fixed(&l[4], 2);
        e.1 += 1;
    }
    // Σ L_EXTENDEDPRICE over the items with L_QUANTITY < 0.2 × AVG, that
    // is 5 × n × L_QUANTITY < Σ L_QUANTITY, taking (Σ, n) per item.
    let revenue = |avg_of: &dyn Fn(&hyperq::xtra::Row) -> (i128, i128)| -> i128 {
        items
            .iter()
            .filter(|l| {
                let (sum, n) = avg_of(l);
                5 * n * fixed(&l[4], 2) < sum
            })
            .map(|l| fixed(&l[5], 2))
            .sum()
    };
    let total = revenue(&|l| per_part[&int(&l[1])]);
    assert!(total > 0, "Q17 has no answer at SF {scale}, seed {seed}");
    let expected = total as f64 / 100.0 / 7.0;
    let discriminating = per_part.values().all(|&one| revenue(&|_| one) != total);

    let got = answer(17, scale, seed);
    assert_eq!(got.len(), 1);
    let avg_yearly = got[0][0].to_f64().unwrap();
    assert!(
        (avg_yearly - expected).abs() < 0.005,
        "AVG_YEARLY {avg_yearly} vs {expected} at SF {scale}, seed {seed}"
    );
    discriminating
}
