//! The per-statement subquery memo.
//!
//! A subquery's answer depends only on the values of its free (outer)
//! columns, so within one statement it is computed once per distinct key —
//! once in total when the subquery is uncorrelated — instead of once per
//! outer row. The free columns come from the static analysis
//! [`hyperq_xtra::free_columns`], run once per subquery, the first time the
//! subquery is evaluated. A statement that evaluates no subquery allocates
//! nothing here.
//!
//! Subqueries are identified by address. That is sound because the memo is
//! bound, invariantly, to the lifetime `'p` of the statement's plan: only a
//! subquery borrowed from the plan can be looked up, never a temporary copy
//! whose address could be reused later in the same statement.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::rc::Rc;

use hyperq_xtra::datum::Datum;
use hyperq_xtra::rel::RelExpr;
use hyperq_xtra::{free_columns, ColumnRef};

use crate::eval::EvalError;
use crate::exec::{row_bytes, Charge, Rows, Scopes};

/// A memoized subquery answer. Scalar and `EXISTS` subqueries keep only
/// their answer; `IN` and quantified comparisons keep the row set.
#[derive(Clone)]
pub enum Answer {
    Scalar(Datum),
    Exists(bool),
    Rows(Rc<Rows>),
}

/// The values of a subquery's free columns, compared by representation:
/// variant first, then payload, with a decimal's scale included and a
/// double compared by its bits. `Datum`'s SQL equality would be wrong
/// here: it holds `1`, `1.00` and `1.0E0` equal, but a subquery's answer
/// can follow the representation (its result type, decimal scale and
/// arithmetic do).
#[derive(Debug, Clone)]
pub struct MemoKey(Vec<Datum>);

fn same_repr(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Null, Datum::Null) => true,
        (Datum::Bool(x), Datum::Bool(y)) => x == y,
        (Datum::Int(x), Datum::Int(y)) => x == y,
        (Datum::Double(x), Datum::Double(y)) => x.to_bits() == y.to_bits(),
        (Datum::Dec(x), Datum::Dec(y)) => x.mantissa == y.mantissa && x.scale == y.scale,
        (Datum::Date(x), Datum::Date(y)) => x == y,
        (Datum::Timestamp(x), Datum::Timestamp(y)) => x == y,
        (Datum::Str(x), Datum::Str(y)) => x == y,
        (Datum::Interval(x), Datum::Interval(y)) => x == y,
        _ => false,
    }
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| same_repr(a, b))
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for d in &self.0 {
            std::mem::discriminant(d).hash(state);
            match d {
                Datum::Null => {}
                Datum::Bool(b) => b.hash(state),
                Datum::Int(v) | Datum::Timestamp(v) => v.hash(state),
                Datum::Double(v) => v.to_bits().hash(state),
                Datum::Dec(x) => (x.mantissa, x.scale).hash(state),
                Datum::Date(v) => v.hash(state),
                Datum::Str(s) => s.hash(state),
                Datum::Interval(i) => i.hash(state),
            }
        }
    }
}

/// One subquery's free columns and its answers so far.
struct Memoized {
    free: Vec<ColumnRef>,
    answers: HashMap<MemoKey, Answer>,
}

/// Subquery answers for the life of one statement. Owned by the statement
/// and dropped with it — on success, error or cancellation — which also
/// returns the entries' ledger charge.
pub struct SubqueryMemo<'p> {
    subqueries: RefCell<HashMap<*const RelExpr, Memoized>>,
    /// Keys and answers stay charged until the statement ends.
    charge: RefCell<Charge>,
    #[cfg(test)]
    runs: Cell<u64>,
    _plan: PhantomData<Cell<&'p RelExpr>>,
}

impl Default for SubqueryMemo<'_> {
    fn default() -> Self {
        SubqueryMemo {
            subqueries: RefCell::new(HashMap::new()),
            charge: RefCell::new(Charge::default()),
            #[cfg(test)]
            runs: Cell::new(0),
            _plan: PhantomData,
        }
    }
}

impl<'p> SubqueryMemo<'p> {
    /// The answer of `sub` under the enclosing `scopes`: memoized when this
    /// key was seen before in the statement, otherwise computed by `run`
    /// and remembered.
    pub fn get_or_run(
        &self,
        sub: &'p RelExpr,
        scopes: &Scopes<'_>,
        run: impl FnOnce() -> Result<Answer, EvalError>,
    ) -> Result<Answer, EvalError> {
        let id: *const RelExpr = sub;
        let key = {
            let mut subqueries = self.subqueries.borrow_mut();
            let memo = subqueries.entry(id).or_insert_with(|| Memoized {
                free: free_columns(sub),
                answers: HashMap::new(),
            });
            let key = MemoKey(
                memo.free
                    .iter()
                    .map(|(qualifier, name)| outer_value(scopes, qualifier.as_deref(), name))
                    .collect(),
            );
            if let Some(answer) = memo.answers.get(&key) {
                return Ok(answer.clone());
            }
            key
        };
        // The borrow is released: `run` may evaluate nested subqueries.
        #[cfg(test)]
        self.runs.set(self.runs.get() + 1);
        let answer = run()?;
        self.charge.borrow_mut().add(row_bytes(key.0.len() + 1))?;
        self.subqueries
            .borrow_mut()
            .get_mut(&id)
            .expect("registered before running")
            .answers
            .insert(key, answer.clone());
        Ok(answer)
    }

    /// How many times a subquery actually ran in this statement.
    #[cfg(test)]
    pub fn runs(&self) -> u64 {
        self.runs.get()
    }
}

/// The value a free column takes in the enclosing scopes, resolved the way
/// the evaluator resolves it: innermost scope first. A column no scope
/// binds reads as NULL; the subquery is always evaluated at the same site,
/// so such a column is the same constant for every key.
fn outer_value(scopes: &Scopes<'_>, qualifier: Option<&str>, name: &str) -> Datum {
    scopes
        .iter()
        .rev()
        .find_map(|(schema, row)| match schema.try_resolve(qualifier, name) {
            Ok(Some(i)) => Some(row[i].clone()),
            _ => None,
        })
        .unwrap_or(Datum::Null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    use hyperq_xtra::datum::Decimal;
    use hyperq_xtra::expr::{CmpOp, ScalarExpr};
    use hyperq_xtra::schema::{Field, Schema};
    use hyperq_xtra::types::SqlType;
    use hyperq_xtra::Row;

    use crate::db::EngineDb;

    fn hash(k: &MemoKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn memo_key_compares_by_representation_not_sql_equality() {
        let one_int = MemoKey(vec![Datum::Int(1)]);
        let one_dec = MemoKey(vec![Datum::Dec(Decimal::new(100, 2))]);
        let one_dec_scale0 = MemoKey(vec![Datum::Dec(Decimal::new(1, 0))]);
        let one_double = MemoKey(vec![Datum::Double(1.0)]);
        // SQL equality calls these all equal …
        assert_eq!(Datum::Int(1), Datum::Dec(Decimal::new(100, 2)));
        assert_eq!(Datum::Int(1), Datum::Double(1.0));
        // … the memo key does not.
        assert_ne!(one_int, one_dec);
        assert_ne!(one_int, one_double);
        assert_ne!(one_dec, one_double);
        assert_ne!(one_dec, one_dec_scale0, "decimal scale is part of the key");
        assert_eq!(one_dec, MemoKey(vec![Datum::Dec(Decimal::new(100, 2))]));
        assert_eq!(hash(&one_dec), hash(&MemoKey(vec![Datum::Dec(Decimal::new(100, 2))])));
        assert_eq!(MemoKey(vec![Datum::Null]), MemoKey(vec![Datum::Null]));
        assert_ne!(MemoKey(vec![Datum::Null]), MemoKey(vec![Datum::Int(0)]));
        assert_eq!(MemoKey(vec![Datum::str("a")]), MemoKey(vec![Datum::str("a")]));
        assert_ne!(MemoKey(vec![]), MemoKey(vec![Datum::Null]));
    }

    /// A correlated subquery over `H` reading the outer column `T.A`.
    fn correlated() -> RelExpr {
        RelExpr::Select {
            input: Box::new(RelExpr::Get {
                table: "H".into(),
                alias: None,
                schema: Schema::new(vec![Field::new(Some("H"), "X", SqlType::Integer, true)]),
            }),
            predicate: ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::column(Some("H"), "X", SqlType::Integer),
                ScalarExpr::column(Some("T"), "A", SqlType::Integer),
            ),
        }
    }

    fn outer_schema() -> Schema {
        Schema::new(vec![Field::new(Some("T"), "A", SqlType::Integer, true)])
    }

    /// Evaluate `sub` once per outer value, answering with the outer value
    /// itself; returns the answers.
    fn feed<'p>(memo: &SubqueryMemo<'p>, sub: &'p RelExpr, outer: &[Datum]) -> Vec<Datum> {
        let schema = outer_schema();
        outer
            .iter()
            .map(|v| {
                let row: Row = vec![v.clone()];
                let scopes = [(&schema, &row)];
                match memo.get_or_run(sub, &scopes, || Ok(Answer::Scalar(v.clone()))).unwrap() {
                    Answer::Scalar(d) => d,
                    _ => unreachable!(),
                }
            })
            .collect()
    }

    #[test]
    fn repeated_outer_values_run_once_distinct_values_each_run() {
        let sub = correlated();
        let memo = SubqueryMemo::default();
        let outer = [1, 2, 1, 1, 3, 2].map(Datum::Int);
        assert_eq!(feed(&memo, &sub, &outer), outer.to_vec());
        assert_eq!(memo.runs(), 3);
    }

    #[test]
    fn equal_but_differently_represented_outer_values_are_distinct_keys() {
        let sub = correlated();
        let memo = SubqueryMemo::default();
        let outer = [Datum::Int(1), Datum::Dec(Decimal::new(100, 2)), Datum::Double(1.0)];
        assert_eq!(feed(&memo, &sub, &outer), outer.to_vec());
        assert_eq!(memo.runs(), 3);
    }

    #[test]
    fn null_outer_values_share_one_entry() {
        let sub = correlated();
        let memo = SubqueryMemo::default();
        let outer = [Datum::Null, Datum::Int(0), Datum::Null];
        assert_eq!(feed(&memo, &sub, &outer), outer.to_vec());
        assert_eq!(memo.runs(), 2);
    }

    #[test]
    fn uncorrelated_subquery_runs_once() {
        let sub = RelExpr::Get {
            table: "H".into(),
            alias: None,
            schema: Schema::new(vec![Field::new(Some("H"), "X", SqlType::Integer, true)]),
        };
        let memo = SubqueryMemo::default();
        feed(&memo, &sub, &[1, 2, 3].map(Datum::Int));
        assert_eq!(memo.runs(), 1);
    }

    // ---- through the executor ----

    fn db() -> EngineDb {
        let db = EngineDb::new();
        for sql in [
            "CREATE TABLE A (K INTEGER, V INTEGER)",
            "INSERT INTO A VALUES (1, 10), (2, 20), (1, 11), (NULL, 30), (NULL, 31), (3, 40)",
            "CREATE TABLE B (K INTEGER, W INTEGER)",
            "INSERT INTO B VALUES (1, 5), (1, 50), (2, 7), (3, 1), (3, 2)",
            "CREATE TABLE C (K INTEGER, W INTEGER)",
            "INSERT INTO C VALUES (1, 6), (2, 8), (2, 9), (3, 0)",
        ] {
            db.execute_sql(sql).unwrap();
        }
        db
    }

    /// Run a query; returns its rows as sorted integers and how many times
    /// a subquery ran.
    fn query(db: &EngineDb, sql: &str) -> (Vec<Vec<Option<i64>>>, u64) {
        let plan = db.plan_query(sql).unwrap();
        let stmt = crate::exec::StmtCtx::new(db);
        let rows = crate::exec::execute_rel(&plan, &stmt, &[]).unwrap();
        let mut ints: Vec<Vec<Option<i64>>> =
            rows.iter().map(|r| r.iter().map(Datum::to_i64).collect()).collect();
        ints.sort();
        (ints, stmt.memo.runs())
    }

    #[test]
    fn correlated_scalar_subquery_runs_once_per_distinct_outer_key_including_null() {
        let db = db();
        let (rows, runs) = query(
            &db,
            "SELECT A.V, (SELECT COUNT(*) FROM B WHERE B.K = A.K) FROM A",
        );
        assert_eq!(
            rows,
            vec![
                vec![Some(10), Some(2)],
                vec![Some(11), Some(2)],
                vec![Some(20), Some(1)],
                vec![Some(30), Some(0)],
                vec![Some(31), Some(0)],
                vec![Some(40), Some(2)],
            ]
        );
        // Keys 1, 2, NULL, 3.
        assert_eq!(runs, 4);
    }

    #[test]
    fn nested_subquery_reading_the_middle_scope_is_keyed_on_it() {
        // The innermost subquery reads B.K (the middle query's row), not
        // A's: its key must be the middle row, or every B row of one A row
        // would share the first B row's answer.
        let db = db();
        let (rows, runs) = query(
            &db,
            "SELECT A.V, (SELECT SUM(B.W) FROM B WHERE B.K <= A.K \
                            AND (SELECT COUNT(*) FROM C WHERE C.K = B.K) = 1) \
             FROM A WHERE A.K IS NOT NULL",
        );
        // C rows per K: 1→1, 2→2, 3→1, so B.K = 2 never counts. Sums of
        // B.W over B.K <= A.K: A.K=1 → 5+50; A.K=2 → the same (keying the
        // innermost on A.K instead would let B.K=2 in: 62); A.K=3 → +1+2.
        assert_eq!(
            rows,
            vec![
                vec![Some(10), Some(55)],
                vec![Some(11), Some(55)],
                vec![Some(20), Some(55)],
                vec![Some(40), Some(58)],
            ]
        );
        // Middle: A.K ∈ {1, 2, 3} → 3 runs; innermost: B.K ∈ {1, 2, 3} → 3.
        assert_eq!(runs, 6);
    }

    #[test]
    fn subquery_in_a_join_residual_is_keyed_on_the_pair() {
        let db = db();
        let (rows, runs) = query(
            &db,
            "SELECT A.V, B.W FROM A JOIN B ON A.K = B.K \
               AND B.W > (SELECT MIN(C.W) FROM C WHERE C.K = A.K)",
        );
        // min C.W per K: 1→6, 2→8, 3→0. Pairs with B.W above it:
        //   K=1: B.W 50 (not 5), for A.V 10 and 11; K=2: B.W 7 < 8, none;
        //   K=3: B.W 1 and 2, for A.V 40.
        assert_eq!(
            rows,
            vec![
                vec![Some(10), Some(50)],
                vec![Some(11), Some(50)],
                vec![Some(40), Some(1)],
                vec![Some(40), Some(2)],
            ]
        );
        assert_eq!(runs, 3);
    }
}
