//! Relational operator execution.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hyperq_governor::QueryGovernor;
use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::{BoolOp, CmpOp, ScalarExpr, SortExpr, WindowFuncKind};
use hyperq_xtra::rel::{Grouping, JoinKind, RelExpr, SetOpKind};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::db::EngineDb;
use crate::eval::{eval, eval_truth, AggState, EvalContext, EvalError};
use crate::memo::SubqueryMemo;

pub type Scopes<'a> = [(&'a Schema, &'a Row)];

/// What one statement's execution shares: the warehouse and the
/// statement's subquery memo. Created per statement and dropped with it.
pub struct StmtCtx<'p> {
    pub db: &'p EngineDb,
    pub memo: SubqueryMemo<'p>,
}

impl<'p> StmtCtx<'p> {
    pub fn new(db: &'p EngineDb) -> Self {
        StmtCtx { db, memo: SubqueryMemo::default() }
    }
}

/// Rough heap footprint of one materialized row of `width` columns: the
/// `Vec<Datum>` header plus a per-datum estimate. Deliberately coarse —
/// the governor ledger wants an early, cheap bound, not an allocator.
pub fn row_bytes(width: usize) -> u64 {
    48 + 24 * width as u64
}

/// Bytes charged to the running statement's ledger, returned when the
/// charge is dropped, so the ledger tracks live bytes rather than bytes
/// ever produced. Charges nothing when no governor is installed.
#[derive(Default)]
pub struct Charge {
    gov: Option<Arc<QueryGovernor>>,
    bytes: u64,
}

impl Charge {
    /// Charge `bytes` more. A denied charge cancels the statement,
    /// surfacing the budget error instead of an engine OOM.
    pub fn add(&mut self, bytes: u64) -> Result<(), EvalError> {
        if self.gov.is_none() {
            self.gov = hyperq_governor::current();
        }
        if let Some(gov) = &self.gov {
            gov.charge(bytes).map_err(|c| c.to_string())?;
            self.bytes += bytes;
        }
        Ok(())
    }

    /// The charge for materialized `rows`.
    fn for_rows(rows: &[Row]) -> Result<Charge, EvalError> {
        let mut charge = Charge::default();
        if let Some(first) = rows.first() {
            charge.add(rows.len() as u64 * row_bytes(first.len()))?;
        }
        Ok(charge)
    }

    /// Take over `other`'s bytes (both belong to the running statement).
    fn absorb(&mut self, mut other: Charge) {
        self.bytes += std::mem::take(&mut other.bytes);
        if self.gov.is_none() {
            self.gov = other.gov.take();
        }
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        if let Some(gov) = &self.gov {
            gov.release(self.bytes);
        }
    }
}

/// An operator's output. A base-table scan shares the table's
/// copy-on-write snapshot and is charged nothing; every other operator
/// owns the rows it built together with their charge, which dropping the
/// rows returns.
pub enum Rows {
    Shared(Arc<Vec<Row>>),
    Owned(Vec<Row>, Charge),
}

impl Rows {
    /// Rows an operator built, charged to the statement's ledger.
    fn owned(rows: Vec<Row>) -> Result<Rows, EvalError> {
        let charge = Charge::for_rows(&rows)?;
        Ok(Rows::Owned(rows, charge))
    }

    /// The rows by value, handed out of the ledger: a shared snapshot is
    /// cloned, owned rows move and their charge is returned.
    pub fn into_vec(self) -> Vec<Row> {
        match self {
            Rows::Shared(rows) => Arc::unwrap_or_clone(rows),
            Rows::Owned(rows, _) => rows,
        }
    }

    /// The rows by value with their charge, for operators that reorder or
    /// widen their input: a shared snapshot is cloned and charged.
    fn into_owned(self) -> Result<(Vec<Row>, Charge), EvalError> {
        match self {
            Rows::Shared(rows) => {
                let rows = Arc::unwrap_or_clone(rows);
                let charge = Charge::for_rows(&rows)?;
                Ok((rows, charge))
            }
            Rows::Owned(rows, charge) => Ok((rows, charge)),
        }
    }

    /// The rows `keep` accepts, in order. Owned rows move; only the kept
    /// rows of a shared snapshot are cloned.
    fn filter(
        self,
        mut keep: impl FnMut(&Row) -> Result<bool, EvalError>,
    ) -> Result<Rows, EvalError> {
        let mut out = Vec::new();
        match self {
            Rows::Shared(rows) => {
                for row in rows.iter() {
                    if keep(row)? {
                        out.push(row.clone());
                    }
                }
            }
            Rows::Owned(rows, _charge) => {
                for row in rows {
                    if keep(&row)? {
                        out.push(row);
                    }
                }
            }
        }
        Rows::owned(out)
    }

    /// One output row per input row, in order. Owned input rows are
    /// dropped as they are consumed, so the allocator reuses their memory
    /// for the output.
    fn map(self, mut f: impl FnMut(&Row) -> Result<Row, EvalError>) -> Result<Rows, EvalError> {
        let mut out = Vec::with_capacity(self.len());
        match self {
            Rows::Shared(rows) => {
                for row in rows.iter() {
                    out.push(f(row)?);
                }
            }
            Rows::Owned(rows, _charge) => {
                for row in rows {
                    out.push(f(&row)?);
                }
            }
        }
        Rows::owned(out)
    }

    /// Rows `start..` up to `limit` of them.
    fn slice(self, start: usize, limit: Option<usize>) -> Result<Rows, EvalError> {
        let start = start.min(self.len());
        let end = limit.map_or(self.len(), |n| self.len().min(start.saturating_add(n)));
        let out = match self {
            Rows::Shared(rows) => rows[start..end].to_vec(),
            Rows::Owned(mut rows, _charge) => {
                rows.truncate(end);
                rows.drain(..start);
                rows
            }
        };
        Rows::owned(out)
    }
}

impl std::ops::Deref for Rows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        match self {
            Rows::Shared(rows) => rows,
            Rows::Owned(rows, _) => rows,
        }
    }
}

/// Incremental accounting inside a single operator's row loop: charges
/// produced rows and checkpoints every `BATCH` steps, so a huge cross join
/// is cancelled (or budget-killed) *mid-materialization* instead of after
/// it has already allocated everything. The accumulated charge becomes
/// the operator's output charge.
struct ChargeTicker {
    charge: Charge,
    pending: u64,
    steps: u64,
    row_bytes: u64,
}

impl ChargeTicker {
    const BATCH: u64 = 1024;

    fn new(width: usize) -> ChargeTicker {
        ChargeTicker { charge: Charge::default(), pending: 0, steps: 0, row_bytes: row_bytes(width) }
    }

    /// One step of the loop that produced `rows` output rows.
    fn step(&mut self, rows: u64) -> Result<(), EvalError> {
        self.pending += rows;
        self.steps += 1;
        if self.steps.is_multiple_of(Self::BATCH) {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), EvalError> {
        if self.pending > 0 {
            self.charge.add(self.pending * self.row_bytes)?;
            self.pending = 0;
        }
        hyperq_governor::checkpoint().map_err(|c| c.to_string())
    }

    /// The operator's output, carrying everything the ticker charged.
    fn finish(mut self, rows: Vec<Row>) -> Result<Rows, EvalError> {
        self.flush()?;
        Ok(Rows::Owned(rows, self.charge))
    }
}

/// Execute a relational tree, with `outer` scopes available for correlated
/// column references.
pub fn execute_rel<'p>(
    rel: &'p RelExpr,
    stmt: &StmtCtx<'p>,
    outer: &Scopes<'_>,
) -> Result<Rows, EvalError> {
    // Cooperative cancellation at every operator boundary; joins and
    // aggregates additionally tick inside their row loops.
    hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
    match rel {
        RelExpr::Get { table, .. } => Ok(Rows::Shared(stmt.db.scan(table)?)),
        RelExpr::Values { rows, .. } => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut ctx = EvalContext { stmt, scopes: outer.to_vec() };
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &mut ctx)?);
                }
                out.push(vals);
            }
            Rows::owned(out)
        }
        RelExpr::Select { input, predicate } => {
            let schema = input.schema();
            execute_rel(input, stmt, outer)?.filter(|row| {
                let mut scopes = outer.to_vec();
                scopes.push((&schema, row));
                let mut ctx = EvalContext { stmt, scopes };
                Ok(eval_truth(predicate, &mut ctx)? == Some(true))
            })
        }
        RelExpr::Project { input, exprs } => {
            let schema = input.schema();
            execute_rel(input, stmt, outer)?.map(|row| {
                let mut scopes = outer.to_vec();
                scopes.push((&schema, row));
                let mut ctx = EvalContext { stmt, scopes };
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(eval(e, &mut ctx)?);
                }
                Ok(projected)
            })
        }
        RelExpr::Window { input, exprs } => execute_window(input, exprs, stmt, outer),
        RelExpr::Join { kind, left, right, condition } => {
            execute_join(*kind, left, right, condition.as_ref(), stmt, outer)
        }
        RelExpr::Aggregate { input, group_by, grouping, aggs } => {
            if matches!(grouping, Grouping::Sets(_)) {
                // SimWH truthfully lacks OLAP grouping extensions; Hyper-Q's
                // expansion rule must fire before SQL reaches the engine.
                return Err("GROUPING SETS are not supported by this warehouse".to_string());
            }
            execute_aggregate(input, group_by, aggs, stmt, outer)
        }
        RelExpr::Distinct { input } => {
            let rows = execute_rel(input, stmt, outer)?;
            let mut seen: HashSet<&Row> = HashSet::with_capacity(rows.len());
            Rows::owned(rows.iter().filter(|r| seen.insert(r)).cloned().collect())
        }
        RelExpr::Sort { input, keys } => {
            let schema = input.schema();
            let (rows, charge) = execute_rel(input, stmt, outer)?.into_owned()?;
            Ok(Rows::Owned(sort_rows(rows, &schema, keys, stmt, outer)?, charge))
        }
        RelExpr::Limit { input, limit, offset, with_ties } => {
            if *with_ties {
                return Err("FETCH ... WITH TIES is not supported by this warehouse".to_string());
            }
            execute_rel(input, stmt, outer)?.slice(*offset as usize, limit.map(|n| n as usize))
        }
        RelExpr::SetOp { kind, all, left, right } => {
            // The output rows are moved out of the inputs, so the inputs'
            // charge carries over (an upper bound once duplicates drop).
            let (l, mut charge) = execute_rel(left, stmt, outer)?.into_owned()?;
            let (r, right_charge) = execute_rel(right, stmt, outer)?.into_owned()?;
            charge.absorb(right_charge);
            Ok(Rows::Owned(execute_setop(*kind, *all, l, r), charge))
        }
        RelExpr::Alias { input, .. } => execute_rel(input, stmt, outer),
    }
}

/// Sort rows by the given keys. NULL placement defaults to "NULLs high"
/// (last ascending, first descending) — deliberately *different* from
/// Teradata, so the explicit-NULL-ordering rewrite is observable.
fn sort_rows<'p>(
    rows: Vec<Row>,
    schema: &Schema,
    keys: &'p [SortExpr],
    stmt: &StmtCtx<'p>,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let mut keyed: Vec<(Vec<Datum>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut scopes = outer.to_vec();
        scopes.push((schema, &row));
        let mut ctx = EvalContext { stmt, scopes };
        let mut kv = Vec::with_capacity(keys.len());
        for k in keys {
            kv.push(eval(&k.expr, &mut ctx)?);
        }
        keyed.push((kv, row));
    }
    keyed.sort_by(|(a, _), (b, _)| compare_key_rows(a, b, keys));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Compare two pre-computed key vectors.
fn compare_key_rows(a: &[Datum], b: &[Datum], keys: &[SortExpr]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let nulls_first = k.nulls_first.unwrap_or(k.desc);
        let ord = match (a[i].is_null(), b[i].is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = a[i].sql_cmp(&b[i]).unwrap_or(Ordering::Equal);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

// ---------------------------------------------------------------------------
// Window functions
// ---------------------------------------------------------------------------

fn execute_window<'p>(
    input: &'p RelExpr,
    exprs: &'p [hyperq_xtra::expr::WindowExpr],
    stmt: &StmtCtx<'p>,
    outer: &Scopes<'_>,
) -> Result<Rows, EvalError> {
    let schema = input.schema();
    let (rows, mut charge) = execute_rel(input, stmt, outer)?.into_owned()?;
    let n = rows.len();
    // Each row widens by one datum per window function.
    charge.add(n as u64 * (row_bytes(exprs.len()) - row_bytes(0)))?;
    // Each window function appends one column; computed independently.
    let mut appended: Vec<Vec<Datum>> = vec![Vec::with_capacity(exprs.len()); n];

    for w in exprs {
        // Evaluate partition and order keys per row.
        let mut part_keys: Vec<Vec<Datum>> = Vec::with_capacity(n);
        let mut order_keys: Vec<Vec<Datum>> = Vec::with_capacity(n);
        let mut args: Vec<Option<Datum>> = Vec::with_capacity(n);
        for row in &rows {
            let mut scopes = outer.to_vec();
            scopes.push((&schema, row));
            let mut ctx = EvalContext { stmt, scopes };
            let mut pk = Vec::with_capacity(w.partition_by.len());
            for p in &w.partition_by {
                pk.push(eval(p, &mut ctx)?);
            }
            part_keys.push(pk);
            let mut ok = Vec::with_capacity(w.order_by.len());
            for k in &w.order_by {
                ok.push(eval(&k.expr, &mut ctx)?);
            }
            order_keys.push(ok);
            args.push(match &w.arg {
                Some(a) => Some(eval(a, &mut ctx)?),
                None => None,
            });
        }

        // Group row indices by partition.
        let mut partitions: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
        for (i, key) in part_keys.iter().enumerate() {
            partitions.entry(key.clone()).or_default().push(i);
        }

        let mut results: Vec<Datum> = vec![Datum::Null; n];
        for (_, mut indices) in partitions {
            indices.sort_by(|&a, &b| {
                compare_key_rows(&order_keys[a], &order_keys[b], &w.order_by)
            });
            match &w.func {
                WindowFuncKind::RowNumber => {
                    for (pos, &i) in indices.iter().enumerate() {
                        results[i] = Datum::Int(pos as i64 + 1);
                    }
                }
                WindowFuncKind::Rank | WindowFuncKind::DenseRank => {
                    let dense = matches!(w.func, WindowFuncKind::DenseRank);
                    let mut rank = 0i64;
                    let mut dense_rank = 0i64;
                    let mut prev: Option<&Vec<Datum>> = None;
                    for (pos, &i) in indices.iter().enumerate() {
                        let tie = prev
                            .is_some_and(|p| {
                                compare_key_rows(p, &order_keys[i], &w.order_by)
                                    == Ordering::Equal
                            });
                        if !tie {
                            rank = pos as i64 + 1;
                            dense_rank += 1;
                        }
                        results[i] = Datum::Int(if dense { dense_rank } else { rank });
                        prev = Some(&order_keys[i]);
                    }
                }
                WindowFuncKind::Agg(agg) => {
                    if w.order_by.is_empty() {
                        // Whole-partition aggregate broadcast.
                        let mut state = AggState::new(*agg, false, w.ty());
                        for &i in &indices {
                            state.update(match agg {
                                hyperq_xtra::expr::AggFunc::CountStar => None,
                                _ => args[i].as_ref(),
                            })?;
                        }
                        let v = state.finish()?;
                        for &i in &indices {
                            results[i] = v.clone();
                        }
                    } else {
                        // Default frame: RANGE UNBOUNDED PRECEDING — running
                        // aggregate including peers.
                        let mut pos = 0usize;
                        let mut state = AggState::new(*agg, false, w.ty());
                        let mut finished: Vec<(usize, Datum)> = Vec::new();
                        while pos < indices.len() {
                            // Find the peer group [pos, end).
                            let mut end = pos + 1;
                            while end < indices.len()
                                && compare_key_rows(
                                    &order_keys[indices[pos]],
                                    &order_keys[indices[end]],
                                    &w.order_by,
                                ) == Ordering::Equal
                            {
                                end += 1;
                            }
                            for &i in &indices[pos..end] {
                                state.update(match agg {
                                    hyperq_xtra::expr::AggFunc::CountStar => None,
                                    _ => args[i].as_ref(),
                                })?;
                            }
                            // Snapshot requires finishing; AggState is not
                            // cloneable, so recompute via a fresh pass.
                            let mut snapshot =
                                AggState::new(*agg, false, w.ty());
                            for &i in &indices[..end] {
                                snapshot.update(match agg {
                                    hyperq_xtra::expr::AggFunc::CountStar => None,
                                    _ => args[i].as_ref(),
                                })?;
                            }
                            let v = snapshot.finish()?;
                            for &i in &indices[pos..end] {
                                finished.push((i, v.clone()));
                            }
                            pos = end;
                        }
                        for (i, v) in finished {
                            results[i] = v;
                        }
                    }
                }
            }
        }
        for i in 0..n {
            appended[i].push(results[i].clone());
        }
    }

    let out = rows
        .into_iter()
        .zip(appended)
        .map(|(mut row, extra)| {
            row.extend(extra);
            row
        })
        .collect();
    Ok(Rows::Owned(out, charge))
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

fn execute_aggregate<'p>(
    input: &'p RelExpr,
    group_by: &'p [(ScalarExpr, String)],
    aggs: &'p [(ScalarExpr, String)],
    stmt: &StmtCtx<'p>,
    outer: &Scopes<'_>,
) -> Result<Rows, EvalError> {
    let schema = input.schema();
    let rows = execute_rel(input, stmt, outer)?;

    struct AggSpec<'e> {
        func: hyperq_xtra::expr::AggFunc,
        distinct: bool,
        arg: Option<&'e ScalarExpr>,
        ty: hyperq_xtra::types::SqlType,
    }
    let specs: Vec<AggSpec> = aggs
        .iter()
        .map(|(a, _)| match a {
            ScalarExpr::Agg { func, distinct, arg } => Ok(AggSpec {
                func: *func,
                distinct: *distinct,
                arg: arg.as_deref(),
                ty: a.ty(),
            }),
            other => Err(format!("aggregate list contains non-aggregate {other}")),
        })
        .collect::<Result<_, _>>()?;

    // Group — preserving first-seen order for determinism.
    let mut groups: HashMap<Vec<Datum>, Vec<AggState>> = HashMap::new();
    let mut order: Vec<Vec<Datum>> = Vec::new();
    // Each distinct group holds a key vector plus aggregate states; the
    // ticker charges that hash-table growth (the output rows, one per
    // group) and checkpoints the loop.
    let mut ticker = ChargeTicker::new(group_by.len() + aggs.len());
    for row in rows.iter() {
        let mut scopes = outer.to_vec();
        scopes.push((&schema, row));
        let mut ctx = EvalContext { stmt, scopes };
        let mut key = Vec::with_capacity(group_by.len());
        for (g, _) in group_by {
            key.push(eval(g, &mut ctx)?);
        }
        let states = match groups.get_mut(&key) {
            Some(s) => {
                ticker.step(0)?;
                s
            }
            None => {
                ticker.step(1)?;
                order.push(key.clone());
                groups.entry(key.clone()).or_insert_with(|| {
                    specs
                        .iter()
                        .map(|s| AggState::new(s.func, s.distinct, s.ty.clone()))
                        .collect()
                })
            }
        };
        for (state, spec) in states.iter_mut().zip(specs.iter()) {
            match spec.arg {
                Some(a) => {
                    let mut scopes = outer.to_vec();
                    scopes.push((&schema, row));
                    let mut actx = EvalContext { stmt, scopes };
                    let v = eval(a, &mut actx)?;
                    state.update(Some(&v))?;
                }
                None => state.update(None)?,
            }
        }
    }

    // Global aggregate over empty input still produces one row.
    if groups.is_empty() && group_by.is_empty() {
        let states: Vec<AggState> = specs
            .iter()
            .map(|s| AggState::new(s.func, s.distinct, s.ty.clone()))
            .collect();
        let mut row = Vec::with_capacity(specs.len());
        for s in states {
            row.push(s.finish()?);
        }
        return Rows::owned(vec![row]);
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let states = groups.remove(&key).expect("key recorded on insert");
        let mut row = key;
        for s in states {
            row.push(s.finish()?);
        }
        out.push(row);
    }
    ticker.finish(out)
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

fn execute_join<'p>(
    kind: JoinKind,
    left: &'p RelExpr,
    right: &'p RelExpr,
    condition: Option<&'p ScalarExpr>,
    stmt: &StmtCtx<'p>,
    outer: &Scopes<'_>,
) -> Result<Rows, EvalError> {
    let lschema = left.schema();
    let rschema = right.schema();
    // Residual predicates always see the concatenated row, regardless of
    // the join's output schema (semi/anti joins output only the left side).
    let combined_schema = lschema.join(&rschema);
    let lrows = execute_rel(left, stmt, outer)?;
    let rrows = execute_rel(right, stmt, outer)?;
    let lwidth = lschema.len();
    let rwidth = rschema.len();

    // Hash keys and residual conjuncts, borrowed from the plan rather than
    // copied, so the residual's subqueries keep their identity in the
    // statement's memo.
    let (lkeys, rkeys, residual) = match condition {
        Some(c) if kind != JoinKind::Cross => split_equi_condition(c, &lschema, &rschema),
        _ => (Vec::new(), Vec::new(), condition.into_iter().collect()),
    };

    let eval_keys = |exprs: &[&'p ScalarExpr],
                     schema: &Schema,
                     row: &Row|
     -> Result<Option<Vec<Datum>>, EvalError> {
        let mut scopes = outer.to_vec();
        scopes.push((schema, row));
        let mut ctx = EvalContext { stmt, scopes };
        let mut key = Vec::with_capacity(exprs.len());
        for e in exprs {
            let v = eval(e, &mut ctx)?;
            if v.is_null() {
                return Ok(None); // NULL keys never join.
            }
            key.push(v);
        }
        Ok(Some(key))
    };

    // The residual is the AND of its conjuncts under three-valued logic;
    // a pair joins only when it is TRUE.
    let residual_ok = |combined: &Row| -> Result<bool, EvalError> {
        if residual.is_empty() {
            return Ok(true);
        }
        let mut scopes = outer.to_vec();
        scopes.push((&combined_schema, combined));
        let mut ctx = EvalContext { stmt, scopes };
        let mut unknown = false;
        for p in &residual {
            match eval_truth(p, &mut ctx)? {
                Some(false) => return Ok(false),
                None => unknown = true,
                Some(true) => {}
            }
        }
        Ok(!unknown)
    };

    // Hash join (built on the right) when the condition has equi keys,
    // nested loop over every right row otherwise. The build side holds
    // one key vector per right row for the join's duration.
    let mut build_charge = Charge::default();
    let table: Option<HashMap<Vec<Datum>, Vec<usize>>> = if lkeys.is_empty() {
        None
    } else {
        let mut table: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
        for (i, row) in rrows.iter().enumerate() {
            if let Some(key) = eval_keys(&rkeys, &rschema, row)? {
                table.entry(key).or_default().push(i);
            }
        }
        build_charge.add(rrows.len() as u64 * row_bytes(rkeys.len()))?;
        Some(table)
    };
    let every_right: Vec<usize> =
        if table.is_none() { (0..rrows.len()).collect() } else { Vec::new() };

    let mut out: Vec<Row> = Vec::new();
    let mut right_matched = vec![false; rrows.len()];
    // Semi/anti joins output left-width rows; everything else the
    // concatenated width. The ticker charges the join's output
    // incrementally so a runaway cross join dies mid-build.
    let semi_anti = matches!(kind, JoinKind::Semi | JoinKind::Anti);
    let out_width = if semi_anti { lwidth } else { lwidth + rwidth };
    let mut ticker = ChargeTicker::new(out_width);

    for lrow in lrows.iter() {
        let candidates: &[usize] = match &table {
            None => &every_right,
            Some(table) => match eval_keys(&lkeys, &lschema, lrow)? {
                Some(key) => table.get(&key).map_or(&[], Vec::as_slice),
                None => &[],
            },
        };
        let mut matched = false;
        for &ri in candidates {
            if semi_anti && residual.is_empty() {
                matched = true;
                break;
            }
            let mut combined = lrow.clone();
            combined.extend(rrows[ri].iter().cloned());
            if residual_ok(&combined)? {
                matched = true;
                right_matched[ri] = true;
                if semi_anti {
                    break;
                }
                out.push(combined);
                ticker.step(1)?;
            }
        }
        // Semi/anti output, or an unmatched row of an outer join.
        let left_only = match kind {
            JoinKind::Semi if matched => Some(lrow.clone()),
            JoinKind::Anti if !matched => Some(lrow.clone()),
            JoinKind::Left | JoinKind::Full if !matched => {
                let mut padded = lrow.clone();
                padded.extend(std::iter::repeat_n(Datum::Null, rwidth));
                Some(padded)
            }
            _ => None,
        };
        ticker.step(u64::from(left_only.is_some()))?;
        out.extend(left_only);
    }

    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, m) in right_matched.iter().enumerate() {
            if !m {
                let mut padded: Row = std::iter::repeat_n(Datum::Null, lwidth).collect();
                padded.extend(rrows[ri].iter().cloned());
                out.push(padded);
                ticker.step(1)?;
            }
        }
    }
    ticker.finish(out)
}

/// Split an AND-tree into hash-joinable equi-pairs plus residual
/// conjuncts, all borrowed from `c`.
fn split_equi_condition<'p>(
    c: &'p ScalarExpr,
    lschema: &Schema,
    rschema: &Schema,
) -> (Vec<&'p ScalarExpr>, Vec<&'p ScalarExpr>, Vec<&'p ScalarExpr>) {
    let mut conjuncts = Vec::new();
    flatten_and(c, &mut conjuncts);
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut residual = Vec::new();
    for conj in conjuncts {
        if let ScalarExpr::Cmp { op: CmpOp::Eq, left, right } = conj {
            if resolves_in(left, lschema) && resolves_in(right, rschema) {
                lkeys.push(&**left);
                rkeys.push(&**right);
                continue;
            }
            if resolves_in(left, rschema) && resolves_in(right, lschema) {
                lkeys.push(&**right);
                rkeys.push(&**left);
                continue;
            }
        }
        residual.push(conj);
    }
    (lkeys, rkeys, residual)
}

fn flatten_and<'p>(e: &'p ScalarExpr, out: &mut Vec<&'p ScalarExpr>) {
    match e {
        ScalarExpr::BoolExpr { op: BoolOp::And, args } => {
            for a in args {
                flatten_and(a, out);
            }
        }
        other => out.push(other),
    }
}

/// Does every column reference in `e` resolve in `schema`, with at least
/// one column and no subqueries?
fn resolves_in(e: &ScalarExpr, schema: &Schema) -> bool {
    let mut has_column = false;
    let mut all_resolve = true;
    let mut has_subquery = false;
    e.visit(
        &mut |x| match x {
            ScalarExpr::Column { qualifier, name, .. } => {
                has_column = true;
                if !matches!(schema.try_resolve(qualifier.as_deref(), name), Ok(Some(_))) {
                    all_resolve = false;
                }
            }
            ScalarExpr::ScalarSubquery(_)
            | ScalarExpr::Exists { .. }
            | ScalarExpr::InSubquery { .. }
            | ScalarExpr::QuantifiedCmp { .. } => has_subquery = true,
            _ => {}
        },
        &mut |_| {},
    );
    has_column && all_resolve && !has_subquery
}

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

fn execute_setop(kind: SetOpKind, all: bool, l: Vec<Row>, r: Vec<Row>) -> Vec<Row> {
    match (kind, all) {
        (SetOpKind::Union, true) => {
            let mut out = l;
            out.extend(r);
            out
        }
        (SetOpKind::Union, false) => {
            let mut seen: HashSet<Row> = HashSet::new();
            let mut out = Vec::new();
            for row in l.into_iter().chain(r) {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            out
        }
        (SetOpKind::Intersect, false) => {
            let rset: HashSet<Row> = r.into_iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            l.into_iter()
                .filter(|row| rset.contains(row) && seen.insert(row.clone()))
                .collect()
        }
        (SetOpKind::Intersect, true) => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for row in r {
                *counts.entry(row).or_insert(0) += 1;
            }
            l.into_iter()
                .filter(|row| {
                    if let Some(c) = counts.get_mut(row) {
                        if *c > 0 {
                            *c -= 1;
                            return true;
                        }
                    }
                    false
                })
                .collect()
        }
        (SetOpKind::Except, false) => {
            let rset: HashSet<Row> = r.into_iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            l.into_iter()
                .filter(|row| !rset.contains(row) && seen.insert(row.clone()))
                .collect()
        }
        (SetOpKind::Except, true) => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for row in r {
                *counts.entry(row).or_insert(0) += 1;
            }
            l.into_iter()
                .filter(|row| {
                    if let Some(c) = counts.get_mut(row) {
                        if *c > 0 {
                            *c -= 1;
                            return false;
                        }
                    }
                    true
                })
                .collect()
        }
    }
}
