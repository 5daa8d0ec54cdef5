//! The answer check: every distinct statement's client-visible result is
//! reduced to a digest and compared with the same statement run through an
//! in-process, cache-less Hyper-Q session over a separately loaded warehouse.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hyperq_core::backend::Backend;
use hyperq_core::{HyperQ, HyperQBuilder, StatementResult};
use hyperq_engine::EngineDb;
use hyperq_parser::ast::{QueryBody, Statement};
use hyperq_parser::{parse_one, Dialect};
use hyperq_wire::ClientResultSet;
use hyperq_xtra::Row;

use crate::workload::Spec;

/// Row count plus a checksum over one statement's result sets. The
/// checksum is order-sensitive only for a query with an `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub sets: usize,
    pub rows: u64,
    /// Sum of the activity counts (rows returned or affected).
    pub activity: u64,
    pub checksum: u64,
}

fn row_hash(row: &Row) -> u64 {
    // `DefaultHasher::new` uses fixed keys, so digests repeat across runs.
    let mut h = DefaultHasher::new();
    for d in row {
        d.to_sql_string().hash(&mut h);
        0xffu8.hash(&mut h);
    }
    h.finish()
}

impl Digest {
    pub fn of<'a>(sets: impl Iterator<Item = (&'a [Row], u64)>, ordered: bool) -> Digest {
        let mut d = Digest {
            sets: 0,
            rows: 0,
            activity: 0,
            checksum: 0,
        };
        for (rows, activity) in sets {
            d.sets += 1;
            d.activity += activity;
            for row in rows {
                d.rows += 1;
                let h = row_hash(row);
                d.checksum = if ordered {
                    d.checksum.rotate_left(7).wrapping_mul(0x100_0000_01B3) ^ h
                } else {
                    d.checksum.wrapping_add(h)
                };
            }
        }
        d
    }

    pub fn of_client(sql: &str, sets: &[ClientResultSet]) -> Digest {
        let iter = sets.iter().map(|s| (s.rows.as_slice(), s.activity_count));
        Digest::of(iter, is_ordered(sql))
    }

    pub fn of_reference(sql: &str, results: &[StatementResult]) -> Digest {
        let iter = results
            .iter()
            .map(|r| (r.result.rows.as_slice(), r.result.row_count));
        Digest::of(iter, is_ordered(sql))
    }
}

/// Whether `sql` is a query with an `ORDER BY` of its own: at the query
/// level, or on its last top-level block, where the parser keeps a trailing
/// or interleaved Teradata `ORDER BY`. A window's `OVER (ORDER BY ..)` or a
/// subquery's does not order the result, and a statement the parser does
/// not accept counts as unordered.
pub fn is_ordered(sql: &str) -> bool {
    let Ok(Statement::Query(q)) = parse_one(sql, Dialect::Teradata).map(|p| p.stmt) else {
        return false;
    };
    let mut last = &q.body;
    while let QueryBody::SetOp { right, .. } = last {
        last = right;
    }
    !q.order_by.is_empty() || matches!(last, QueryBody::Select(b) if !b.order_by.is_empty())
}

/// One cache-less reference session with its answers.
pub struct RefSession {
    pub hq: HyperQ,
    /// Per distinct statement: the reference results, when the client
    /// answered it (a statement the client could not answer is not run).
    pub results: Vec<Option<Vec<StatementResult>>>,
    pub errors: Vec<String>,
}

/// Run every statement the client answered through a `no_cache()` session
/// over a separately loaded, identically seeded warehouse.
pub fn reference(
    spec: &Spec,
    client: &[Vec<Option<Digest>>],
) -> Result<(Arc<EngineDb>, Vec<RefSession>), String> {
    let db = spec.load_warehouse()?;
    let mut sessions = Vec::new();
    for (s, answered) in spec.sessions.iter().zip(client) {
        let mut hq = HyperQBuilder::for_target(
            Arc::clone(&db) as Arc<dyn Backend>,
            hyperq_core::targets::simwh(),
        )
        .no_cache()
        .build();
        for stmt in &s.setup {
            hq.run_script(stmt)
                .map_err(|e| format!("reference set-up {stmt}: {e}"))?;
        }
        let mut rs = RefSession {
            hq,
            results: Vec::new(),
            errors: Vec::new(),
        };
        for (sql, digest) in s.distinct.iter().zip(answered) {
            let r = match digest {
                None => None,
                Some(_) => match rs.hq.run_script(sql) {
                    Ok(r) => Some(r),
                    Err(e) => {
                        rs.errors
                            .push(format!("{}: reference failed on {sql}: {e}", s.label));
                        None
                    }
                },
            };
            rs.results.push(r);
        }
        sessions.push(rs);
    }
    Ok((db, sessions))
}

/// Every disagreement between the client's digests and the reference.
pub fn mismatches(spec: &Spec, client: &[Vec<Option<Digest>>], refs: &[RefSession]) -> Vec<String> {
    let mut out = Vec::new();
    for ((s, answered), r) in spec.sessions.iter().zip(client).zip(refs) {
        out.extend(r.errors.iter().cloned());
        for ((sql, c), rr) in s.distinct.iter().zip(answered).zip(&r.results) {
            if let (Some(c), Some(rr)) = (c, rr) {
                let want = Digest::of_reference(sql, rr);
                if *c != want {
                    out.push(format!(
                        "{}: {sql}: client {c:?} != reference {want:?}",
                        s.label
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::datum::Datum;

    #[test]
    fn only_a_query_of_its_own_order_orders_the_result() {
        assert!(is_ordered("SEL A FROM T ORDER BY 1"));
        assert!(is_ordered("SEL A FROM T ORDER BY A WHERE A > 1"));
        assert!(is_ordered("SEL A FROM T UNION SEL B FROM U ORDER BY 1"));
        assert!(!is_ordered(
            "SELECT A FROM T QUALIFY RANK() OVER (ORDER BY A DESC) <= 3"
        ));
        assert!(!is_ordered("SELECT X FROM (SELECT X FROM T ORDER BY X) D"));
        assert!(!is_ordered("EXEC M_REPORT(1)"));
    }

    #[test]
    fn checksum_is_order_sensitive_only_when_ordered() {
        let a: Row = vec![Datum::Int(1), Datum::str("x")];
        let b: Row = vec![Datum::Int(2), Datum::Null];
        let ab = vec![a.clone(), b.clone()];
        let ba = vec![b, a];
        let d =
            |rows: &Vec<Row>, ordered| Digest::of(std::iter::once((rows.as_slice(), 2)), ordered);
        assert_eq!(d(&ab, false), d(&ba, false));
        assert_ne!(d(&ab, true), d(&ba, true));
        assert_eq!(d(&ab, true).rows, 2);
        assert_eq!(d(&ab, true).activity, 2);
    }
}
