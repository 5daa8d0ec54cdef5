//! Static validation of XTRA trees: the PlanValidator.
//!
//! The binder is supposed to emit well-formed trees and every transformer
//! rule is supposed to preserve well-formedness — but without a checker,
//! a regression only surfaces when the target rejects the serialized SQL,
//! or worse, silently returns wrong results. [`validate_plan`] walks any
//! [`Plan`]/[`RelExpr`] and checks the structural invariant catalog:
//!
//! * every column reference resolves in its operator's input schema
//!   (correlated subqueries resolve against enclosing scopes),
//! * no ambiguous references and no duplicate range-variable aliases,
//! * projection / aggregate / window shape: non-empty projections,
//!   aggregate expressions contain an aggregate, grouping expressions do
//!   not, aggregates never appear outside an `Aggregate` operator,
//! * grouping-set indices stay inside the `group_by` list,
//! * set-operation branches have compatible arity and column types,
//! * subquery arity (scalar subqueries produce one column, `IN`/quantified
//!   comparisons match the subquery's width),
//! * expression typing is consistent (comparisons across incompatible type
//!   classes, non-boolean predicates, arithmetic with no result type),
//! * engine-internal `Semi`/`Anti` joins never escape toward a serializer.
//!
//! The checks are deliberately tolerant of `Unknown` types and of the
//! widenings the type lattice performs; a violation means the tree is
//! structurally wrong, not merely imprecisely typed.

use std::fmt;

use crate::expr::ScalarExpr;
use crate::rel::{Grouping, JoinKind, Plan, RelExpr};
use crate::schema::Schema;
use crate::types::SqlType;

/// The invariant a [`Violation`] breaks. The name doubles as the metric
/// label for per-invariant violation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A column reference resolves in no visible scope.
    UnresolvedColumn,
    /// A column reference matches two columns of the same scope.
    AmbiguousColumn,
    /// Expression typing is inconsistent (incomparable comparison operands,
    /// non-boolean predicate, arithmetic without a result type, or a column
    /// annotation that drifted from the schema it resolves into).
    TypeMismatch,
    /// A projection with no output columns.
    EmptyProjection,
    /// An aggregate reference outside an `Aggregate` operator's agg list,
    /// or inside a grouping expression.
    MisplacedAggregate,
    /// An `Aggregate` agg item that contains no aggregate function.
    MissingAggregate,
    /// A grouping-set index outside the `group_by` list.
    GroupingSetBounds,
    /// Set-operation branches with different column counts.
    SetOpArity,
    /// Set-operation branches whose column types have no common supertype.
    SetOpType,
    /// Two join-visible columns share the same qualified name, so any
    /// reference to them is unresolvable.
    DuplicateAlias,
    /// An engine-internal `Semi`/`Anti` join reached a validation boundary
    /// it must never escape (binder output, serializer input).
    InternalJoin,
    /// A `VALUES` row whose width differs from the operator schema.
    ValuesShape,
    /// A derived-table alias whose schema width differs from its input.
    AliasArity,
    /// A window computation without an output column name.
    WindowShape,
    /// Subquery width mismatch: scalar subqueries must produce one column,
    /// `IN`/quantified comparisons must match the subquery's width.
    SubqueryShape,
    /// An `INSERT`/`CTAS` column list whose width differs from its source.
    InsertArity,
    /// A rewrite rule changed the plan's output schema (names or types).
    /// Emitted by the rule auditor, never by [`validate_plan`] itself.
    RuleSchemaDrift,
    /// Serializer round-trip produced a different output schema.
    /// Emitted by the round-trip auditor, never by [`validate_plan`].
    RoundTrip,
}

impl Invariant {
    /// Stable snake_case name, used as the metric label value.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::UnresolvedColumn => "unresolved_column",
            Invariant::AmbiguousColumn => "ambiguous_column",
            Invariant::TypeMismatch => "type_mismatch",
            Invariant::EmptyProjection => "empty_projection",
            Invariant::MisplacedAggregate => "misplaced_aggregate",
            Invariant::MissingAggregate => "missing_aggregate",
            Invariant::GroupingSetBounds => "grouping_set_bounds",
            Invariant::SetOpArity => "setop_arity",
            Invariant::SetOpType => "setop_type",
            Invariant::DuplicateAlias => "duplicate_alias",
            Invariant::InternalJoin => "internal_join",
            Invariant::ValuesShape => "values_shape",
            Invariant::AliasArity => "alias_arity",
            Invariant::WindowShape => "window_shape",
            Invariant::SubqueryShape => "subquery_shape",
            Invariant::InsertArity => "insert_arity",
            Invariant::RuleSchemaDrift => "rule_schema_drift",
            Invariant::RoundTrip => "roundtrip",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, attributed to the operator it was found on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub invariant: Invariant,
    /// Operator kind the violation anchors to (`project`, `join`, …).
    pub operator: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.invariant, self.operator, self.message)
    }
}

/// The result of validating one plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True if any violation breaks the given invariant.
    pub fn has(&self, invariant: Invariant) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "plan validation: clean");
        }
        write!(f, "plan validation: {} violation(s)", self.violations.len())?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Validation options.
#[derive(Debug, Clone, Default)]
pub struct ValidateOptions {
    /// Permit `Semi`/`Anti` joins (the engine's own decorrelated plans use
    /// them internally; pipeline plans must not).
    pub allow_internal_joins: bool,
}

/// Validate a statement-level plan against the invariant catalog.
pub fn validate_plan(plan: &Plan, opts: &ValidateOptions) -> ValidationReport {
    let mut w = Walker { opts, outer: Vec::new(), unknown_scope: 0, out: Vec::new() };
    match plan {
        Plan::Query(rel) => w.rel(rel),
        Plan::Insert { columns, source, .. } => {
            w.rel(source);
            if !columns.is_empty() && columns.len() != source.schema().len() {
                w.push(
                    Invariant::InsertArity,
                    "insert",
                    format!(
                        "column list names {} columns, source produces {}",
                        columns.len(),
                        source.schema().len()
                    ),
                );
            }
        }
        Plan::Update { assignments, predicate, .. } => {
            // The target table's schema is not part of the plan, so column
            // references here cannot be resolved statically; shape and
            // typing checks still apply.
            w.unknown_scope += 1;
            let empty = Schema::empty();
            for a in assignments {
                w.expr(&a.value, &empty, "update", false);
            }
            if let Some(p) = predicate {
                w.predicate(p, &empty, "update");
            }
            w.unknown_scope -= 1;
        }
        Plan::Delete { predicate, .. } => {
            if let Some(p) = predicate {
                w.unknown_scope += 1;
                w.predicate(p, &Schema::empty(), "delete");
                w.unknown_scope -= 1;
            }
        }
        Plan::CreateTable { def, source } => {
            if let Some(s) = source {
                w.rel(s);
                if def.columns.len() != s.schema().len() {
                    w.push(
                        Invariant::InsertArity,
                        "create_table",
                        format!(
                            "table {} defines {} columns, source produces {}",
                            def.name,
                            def.columns.len(),
                            s.schema().len()
                        ),
                    );
                }
            }
        }
        Plan::DropTable { .. } | Plan::CreateView { .. } | Plan::DropView { .. } => {}
    }
    ValidationReport { violations: w.out }
}

/// Validate a bare relational tree (no statement context).
pub fn validate_rel(rel: &RelExpr, opts: &ValidateOptions) -> ValidationReport {
    let mut w = Walker { opts, outer: Vec::new(), unknown_scope: 0, out: Vec::new() };
    w.rel(rel);
    ValidationReport { violations: w.out }
}

/// The output schema a statement produces, when it has one (queries and
/// the relational sources of `INSERT`/`CTAS`). Used by the rule auditor to
/// check schema preservation across rewrites.
pub fn plan_output_schema(plan: &Plan) -> Option<Schema> {
    match plan {
        Plan::Query(rel) => Some(rel.schema()),
        Plan::Insert { source, .. } => Some(source.schema()),
        Plan::CreateTable { source: Some(s), .. } => Some(s.schema()),
        _ => None,
    }
}

/// Rough comparability classes for comparison operands; the validator only
/// flags comparisons across classes with no defined semantics anywhere in
/// the pipeline (Teradata compares dates to their integer encoding, and
/// string literals coerce to dates, so those pairs pass).
#[derive(PartialEq, Eq, Clone, Copy)]
enum TypeClass {
    Numeric,
    Text,
    Temporal,
    Boolean,
    Other,
}

fn type_class(ty: &SqlType) -> TypeClass {
    match ty {
        SqlType::Integer | SqlType::Double | SqlType::Decimal { .. } => TypeClass::Numeric,
        SqlType::Varchar(_) | SqlType::Char(_) => TypeClass::Text,
        SqlType::Date | SqlType::Timestamp => TypeClass::Temporal,
        SqlType::Boolean => TypeClass::Boolean,
        SqlType::Interval | SqlType::Period(_) | SqlType::Unknown => TypeClass::Other,
    }
}

fn comparable(l: &SqlType, r: &SqlType) -> bool {
    let (cl, cr) = (type_class(l), type_class(r));
    match (cl, cr) {
        (TypeClass::Other, _) | (_, TypeClass::Other) => true,
        _ if cl == cr => true,
        // Teradata integer-coded dates (the comp_date_to_int feature).
        (TypeClass::Temporal, TypeClass::Numeric) | (TypeClass::Numeric, TypeClass::Temporal) => {
            true
        }
        // String literals coerce to dates/timestamps.
        (TypeClass::Temporal, TypeClass::Text) | (TypeClass::Text, TypeClass::Temporal) => true,
        _ => false,
    }
}

struct Walker<'a> {
    opts: &'a ValidateOptions,
    /// Enclosing scopes for correlated subqueries, innermost last.
    outer: Vec<Schema>,
    /// Depth of scopes whose schema is statically unknown (DML predicates);
    /// while non-zero, resolution failures are not violations.
    unknown_scope: usize,
    out: Vec<Violation>,
}

impl Walker<'_> {
    fn push(&mut self, invariant: Invariant, operator: &'static str, message: String) {
        self.out.push(Violation { invariant, operator, message });
    }

    fn rel(&mut self, rel: &RelExpr) {
        match rel {
            RelExpr::Get { .. } => {}
            RelExpr::Values { rows, schema } => {
                let empty = Schema::empty();
                for (i, row) in rows.iter().enumerate() {
                    if row.len() != schema.len() {
                        self.push(
                            Invariant::ValuesShape,
                            "values",
                            format!(
                                "row {i} has {} expressions, schema has {} columns",
                                row.len(),
                                schema.len()
                            ),
                        );
                    }
                    for e in row {
                        self.expr(e, &empty, "values", false);
                    }
                }
            }
            RelExpr::Select { input, predicate } => {
                self.rel(input);
                self.predicate(predicate, &input.schema(), "select");
            }
            RelExpr::Project { input, exprs } => {
                self.rel(input);
                if exprs.is_empty() {
                    self.push(
                        Invariant::EmptyProjection,
                        "project",
                        "projection has no output columns".into(),
                    );
                }
                let scope = input.schema();
                for (e, _) in exprs {
                    self.expr(e, &scope, "project", false);
                }
            }
            RelExpr::Window { input, exprs } => {
                self.rel(input);
                let scope = input.schema();
                for w in exprs {
                    if w.output.is_empty() {
                        self.push(
                            Invariant::WindowShape,
                            "window",
                            "window computation has no output name".into(),
                        );
                    }
                    if let Some(a) = &w.arg {
                        self.expr(a, &scope, "window", false);
                    }
                    for p in &w.partition_by {
                        self.expr(p, &scope, "window", false);
                    }
                    for k in &w.order_by {
                        self.expr(&k.expr, &scope, "window", false);
                    }
                }
            }
            RelExpr::Join { kind, left, right, condition } => {
                self.rel(left);
                self.rel(right);
                if matches!(kind, JoinKind::Semi | JoinKind::Anti)
                    && !self.opts.allow_internal_joins
                {
                    self.push(
                        Invariant::InternalJoin,
                        "join",
                        format!("engine-internal {} join escaped the pipeline", kind.name()),
                    );
                }
                let scope = left.schema().join(&right.schema());
                self.duplicate_aliases(&scope);
                if let Some(c) = condition {
                    self.predicate(c, &scope, "join");
                }
            }
            RelExpr::Aggregate { input, group_by, grouping, aggs } => {
                self.rel(input);
                let scope = input.schema();
                for (e, name) in group_by {
                    if e.contains_aggregate() {
                        self.push(
                            Invariant::MisplacedAggregate,
                            "aggregate",
                            format!("grouping expression {name} contains an aggregate"),
                        );
                    }
                    self.expr(e, &scope, "aggregate", false);
                }
                for (e, name) in aggs {
                    if !e.contains_aggregate() {
                        self.push(
                            Invariant::MissingAggregate,
                            "aggregate",
                            format!("aggregate item {name} contains no aggregate function"),
                        );
                    }
                    self.expr(e, &scope, "aggregate", true);
                }
                if let Grouping::Sets(sets) = grouping {
                    for set in sets {
                        for &i in set {
                            if i >= group_by.len() {
                                self.push(
                                    Invariant::GroupingSetBounds,
                                    "aggregate",
                                    format!(
                                        "grouping set references column {i}, group list has {}",
                                        group_by.len()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            RelExpr::Distinct { input } | RelExpr::Limit { input, .. } => self.rel(input),
            RelExpr::Sort { input, keys } => {
                self.rel(input);
                let scope = input.schema();
                for k in keys {
                    self.expr(&k.expr, &scope, "sort", false);
                }
            }
            RelExpr::SetOp { kind, left, right, .. } => {
                self.rel(left);
                self.rel(right);
                let (l, r) = (left.schema(), right.schema());
                if l.len() != r.len() {
                    self.push(
                        Invariant::SetOpArity,
                        "setop",
                        format!(
                            "{} branches produce {} and {} columns",
                            kind.name(),
                            l.len(),
                            r.len()
                        ),
                    );
                } else {
                    for (lf, rf) in l.fields.iter().zip(r.fields.iter()) {
                        if lf.ty.common_supertype(&rf.ty).is_none() {
                            self.push(
                                Invariant::SetOpType,
                                "setop",
                                format!(
                                    "{} column {} has incompatible branch types {} and {}",
                                    kind.name(),
                                    lf.name,
                                    lf.ty,
                                    rf.ty
                                ),
                            );
                        }
                    }
                }
            }
            RelExpr::Alias { input, alias, schema } => {
                self.rel(input);
                if schema.len() != input.schema().len() {
                    self.push(
                        Invariant::AliasArity,
                        "alias",
                        format!(
                            "alias {alias} exposes {} columns, input produces {}",
                            schema.len(),
                            input.schema().len()
                        ),
                    );
                }
            }
        }
    }

    /// Flag qualified names visible twice in one scope: any reference to
    /// them is inherently ambiguous, so the binder must have aliased them
    /// apart.
    fn duplicate_aliases(&mut self, scope: &Schema) {
        for (i, f) in scope.fields.iter().enumerate() {
            let Some(q) = &f.qualifier else { continue };
            let dup = scope.fields[..i].iter().any(|g| {
                g.name.eq_ignore_ascii_case(&f.name)
                    && g.qualifier
                        .as_deref()
                        .is_some_and(|gq| gq.eq_ignore_ascii_case(q))
            });
            if dup {
                self.push(
                    Invariant::DuplicateAlias,
                    "join",
                    format!("column {q}.{} is visible twice in the join output", f.name),
                );
            }
        }
    }

    /// Check a filter/join condition: normal expression checks plus "the
    /// predicate is boolean".
    fn predicate(&mut self, p: &ScalarExpr, scope: &Schema, op: &'static str) {
        let ty = p.ty();
        if !matches!(ty, SqlType::Boolean | SqlType::Unknown) {
            self.push(
                Invariant::TypeMismatch,
                op,
                format!("predicate {p} has non-boolean type {ty}"),
            );
        }
        self.expr(p, scope, op, false);
    }

    /// Check one expression against `scope`. `allow_agg` is true only for
    /// the top of an `Aggregate` operator's agg items.
    fn expr(&mut self, e: &ScalarExpr, scope: &Schema, op: &'static str, allow_agg: bool) {
        match e {
            ScalarExpr::Column { qualifier, name, ty } => {
                self.column(qualifier.as_deref(), name, ty, scope, op);
            }
            ScalarExpr::Literal(..) => {}
            ScalarExpr::Arith { left, right, .. } => {
                self.expr(left, scope, op, allow_agg);
                self.expr(right, scope, op, allow_agg);
                let (lt, rt) = (left.ty(), right.ty());
                if lt != SqlType::Unknown && rt != SqlType::Unknown && e.ty() == SqlType::Unknown
                {
                    self.push(
                        Invariant::TypeMismatch,
                        op,
                        format!("arithmetic {e} over {lt} and {rt} has no result type"),
                    );
                }
            }
            ScalarExpr::Neg(inner) | ScalarExpr::Not(inner) => {
                self.expr(inner, scope, op, allow_agg);
            }
            ScalarExpr::Cmp { left, right, .. } => {
                self.expr(left, scope, op, allow_agg);
                self.expr(right, scope, op, allow_agg);
                let (lt, rt) = (left.ty(), right.ty());
                if !comparable(&lt, &rt) {
                    self.push(
                        Invariant::TypeMismatch,
                        op,
                        format!("comparison {e} over incomparable types {lt} and {rt}"),
                    );
                }
            }
            ScalarExpr::BoolExpr { args, .. } => {
                for a in args {
                    self.expr(a, scope, op, allow_agg);
                }
            }
            ScalarExpr::IsNull { expr, .. } => self.expr(expr, scope, op, allow_agg),
            ScalarExpr::Like { expr, pattern, .. } => {
                self.expr(expr, scope, op, allow_agg);
                self.expr(pattern, scope, op, allow_agg);
            }
            ScalarExpr::InList { expr, list, .. } => {
                self.expr(expr, scope, op, allow_agg);
                for i in list {
                    self.expr(i, scope, op, allow_agg);
                }
            }
            ScalarExpr::Between { expr, low, high, .. } => {
                self.expr(expr, scope, op, allow_agg);
                self.expr(low, scope, op, allow_agg);
                self.expr(high, scope, op, allow_agg);
            }
            ScalarExpr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.expr(o, scope, op, allow_agg);
                }
                for (c, r) in branches {
                    self.expr(c, scope, op, allow_agg);
                    self.expr(r, scope, op, allow_agg);
                }
                if let Some(el) = else_expr {
                    self.expr(el, scope, op, allow_agg);
                }
            }
            ScalarExpr::Cast { expr, .. } | ScalarExpr::Extract { expr, .. } => {
                self.expr(expr, scope, op, allow_agg);
            }
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    self.expr(a, scope, op, allow_agg);
                }
            }
            ScalarExpr::Agg { arg, .. } => {
                if !allow_agg {
                    self.push(
                        Invariant::MisplacedAggregate,
                        op,
                        format!("aggregate {e} outside an Aggregate operator"),
                    );
                }
                if let Some(a) = arg {
                    // No aggregates inside aggregate arguments.
                    self.expr(a, scope, op, false);
                }
            }
            ScalarExpr::ScalarSubquery(sub) => {
                let width = sub.schema().len();
                if width != 1 {
                    self.push(
                        Invariant::SubqueryShape,
                        op,
                        format!("scalar subquery produces {width} columns"),
                    );
                }
                self.subquery(sub, scope);
            }
            ScalarExpr::Exists { subquery, .. } => self.subquery(subquery, scope),
            ScalarExpr::InSubquery { exprs, subquery, .. } => {
                for x in exprs {
                    self.expr(x, scope, op, allow_agg);
                }
                let width = subquery.schema().len();
                if width != exprs.len() {
                    self.push(
                        Invariant::SubqueryShape,
                        op,
                        format!(
                            "IN compares {} expressions against a {width}-column subquery",
                            exprs.len()
                        ),
                    );
                }
                self.subquery(subquery, scope);
            }
            ScalarExpr::QuantifiedCmp { left, subquery, .. } => {
                for x in left {
                    self.expr(x, scope, op, allow_agg);
                }
                let width = subquery.schema().len();
                if width != left.len() {
                    self.push(
                        Invariant::SubqueryShape,
                        op,
                        format!(
                            "quantified comparison of {} expressions against a \
                             {width}-column subquery",
                            left.len()
                        ),
                    );
                }
                self.subquery(subquery, scope);
            }
        }
    }

    /// Descend into a subquery, making the current scope visible as an
    /// enclosing (correlation) scope.
    fn subquery(&mut self, sub: &RelExpr, scope: &Schema) {
        self.outer.push(scope.clone());
        self.rel(sub);
        self.outer.pop();
    }

    fn column(
        &mut self,
        qualifier: Option<&str>,
        name: &str,
        ty: &SqlType,
        scope: &Schema,
        op: &'static str,
    ) {
        match scope.try_resolve(qualifier, name) {
            Ok(Some(i)) => self.column_type(&scope.fields[i].ty, ty, qualifier, name, op),
            Err(msg) => {
                if self.unknown_scope == 0 {
                    self.push(Invariant::AmbiguousColumn, op, msg);
                }
            }
            Ok(None) => {
                // Fall through to enclosing scopes, innermost first.
                for outer in self.outer.iter().rev() {
                    match outer.try_resolve(qualifier, name) {
                        Ok(Some(i)) => {
                            let field_ty = outer.fields[i].ty.clone();
                            self.column_type(&field_ty, ty, qualifier, name, op);
                            return;
                        }
                        Err(msg) => {
                            if self.unknown_scope == 0 {
                                self.push(Invariant::AmbiguousColumn, op, msg);
                            }
                            return;
                        }
                        Ok(None) => {}
                    }
                }
                if self.unknown_scope == 0 {
                    let q = qualifier.map(|q| format!("{q}.")).unwrap_or_default();
                    self.push(
                        Invariant::UnresolvedColumn,
                        op,
                        format!("column {q}{name} not found in scope {scope}"),
                    );
                }
            }
        }
    }

    /// A resolved column's annotated type must stay inside the lattice of
    /// the schema field it resolves to.
    fn column_type(
        &mut self,
        field_ty: &SqlType,
        ty: &SqlType,
        qualifier: Option<&str>,
        name: &str,
        op: &'static str,
    ) {
        if field_ty.common_supertype(ty).is_none() {
            let q = qualifier.map(|q| format!("{q}.")).unwrap_or_default();
            self.push(
                Invariant::TypeMismatch,
                op,
                format!("column {q}{name} annotated {ty}, schema says {field_ty}"),
            );
        }
    }
}

/// A column reference as written: optional qualifier and name.
pub type ColumnRef = (Option<String>, String);

/// The free (correlated) column references of `rel`: every column that `rel`
/// or a subquery nested in it reads, but that resolves in none of the
/// scopes `rel` introduces, so it must come from an enclosing query. The
/// scope rules are the validator's: each operator's expressions see its
/// input schema (a join condition sees both sides), and a subquery also
/// sees the scopes around it. Each column is listed once, in first-seen
/// order. An empty list means `rel` is self-contained: evaluating it twice
/// gives the same rows, whatever the enclosing row.
pub fn free_columns(rel: &RelExpr) -> Vec<ColumnRef> {
    let mut walk = FreeColumns { scopes: Vec::new(), free: Vec::new() };
    walk.rel(rel);
    walk.free
}

struct FreeColumns {
    /// Scopes introduced inside the analyzed relation, innermost last.
    scopes: Vec<Schema>,
    free: Vec<ColumnRef>,
}

impl FreeColumns {
    fn rel(&mut self, rel: &RelExpr) {
        match rel {
            RelExpr::Get { .. } => {}
            RelExpr::Values { rows, .. } => {
                let empty = Schema::empty();
                for e in rows.iter().flatten() {
                    self.expr(e, &empty);
                }
            }
            RelExpr::Select { input, predicate } => {
                self.rel(input);
                self.expr(predicate, &input.schema());
            }
            RelExpr::Project { input, exprs } => {
                self.rel(input);
                let scope = input.schema();
                for (e, _) in exprs {
                    self.expr(e, &scope);
                }
            }
            RelExpr::Window { input, exprs } => {
                self.rel(input);
                let scope = input.schema();
                for w in exprs {
                    for e in w.arg.iter().chain(&w.partition_by) {
                        self.expr(e, &scope);
                    }
                    for k in &w.order_by {
                        self.expr(&k.expr, &scope);
                    }
                }
            }
            RelExpr::Join { left, right, condition, .. } => {
                self.rel(left);
                self.rel(right);
                if let Some(c) = condition {
                    self.expr(c, &left.schema().join(&right.schema()));
                }
            }
            RelExpr::Aggregate { input, group_by, aggs, .. } => {
                self.rel(input);
                let scope = input.schema();
                for (e, _) in group_by.iter().chain(aggs) {
                    self.expr(e, &scope);
                }
            }
            RelExpr::Sort { input, keys } => {
                self.rel(input);
                let scope = input.schema();
                for k in keys {
                    self.expr(&k.expr, &scope);
                }
            }
            RelExpr::Distinct { input }
            | RelExpr::Limit { input, .. }
            | RelExpr::Alias { input, .. } => self.rel(input),
            RelExpr::SetOp { left, right, .. } => {
                self.rel(left);
                self.rel(right);
            }
        }
    }

    /// Collect the free columns of `e`, evaluated against `scope`; nested
    /// subqueries see `scope` as their innermost enclosing scope.
    fn expr(&mut self, e: &ScalarExpr, scope: &Schema) {
        e.visit_no_subquery(&mut |x| match x {
            ScalarExpr::Column { qualifier, name, .. } => {
                let q = qualifier.as_deref();
                let bound = std::iter::once(scope)
                    .chain(self.scopes.iter().rev())
                    .any(|s| matches!(s.try_resolve(q, name), Ok(Some(_))));
                let seen = self.free.iter().any(|(fq, fn_)| fq.as_deref() == q && fn_ == name);
                if !bound && !seen {
                    self.free.push((qualifier.clone(), name.clone()));
                }
            }
            ScalarExpr::ScalarSubquery(sub)
            | ScalarExpr::Exists { subquery: sub, .. }
            | ScalarExpr::InSubquery { subquery: sub, .. }
            | ScalarExpr::QuantifiedCmp { subquery: sub, .. } => {
                self.scopes.push(scope.clone());
                self.rel(sub);
                self.scopes.pop();
            }
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::Field;

    fn get(table: &str, cols: &[(&str, SqlType)]) -> RelExpr {
        RelExpr::Get {
            table: table.to_string(),
            alias: None,
            schema: Schema::new(
                cols.iter()
                    .map(|(n, t)| Field::new(Some(table), n, t.clone(), true))
                    .collect(),
            ),
        }
    }

    fn col(q: &str, n: &str, t: SqlType) -> ScalarExpr {
        ScalarExpr::column(Some(q), n, t)
    }

    #[test]
    fn clean_tree_validates_clean() {
        let plan = Plan::Query(RelExpr::Project {
            input: Box::new(RelExpr::Select {
                input: Box::new(get("T", &[("A", SqlType::Integer), ("B", SqlType::Date)])),
                predicate: ScalarExpr::cmp(
                    CmpOp::Gt,
                    col("T", "A", SqlType::Integer),
                    ScalarExpr::int(5),
                ),
            }),
            exprs: vec![(col("T", "B", SqlType::Date), "B".into())],
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unresolved_column_is_flagged() {
        let plan = Plan::Query(RelExpr::Project {
            input: Box::new(get("T", &[("A", SqlType::Integer)])),
            exprs: vec![(col("T", "NOPE", SqlType::Integer), "X".into())],
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.has(Invariant::UnresolvedColumn), "{report}");
    }

    #[test]
    fn correlated_subquery_resolves_against_outer_scope() {
        let inner = RelExpr::Select {
            input: Box::new(get("H", &[("X", SqlType::Integer)])),
            predicate: ScalarExpr::cmp(
                CmpOp::Eq,
                col("H", "X", SqlType::Integer),
                col("T", "A", SqlType::Integer), // correlated
            ),
        };
        let plan = Plan::Query(RelExpr::Select {
            input: Box::new(get("T", &[("A", SqlType::Integer)])),
            predicate: ScalarExpr::Exists { subquery: Box::new(inner), negated: false },
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn semi_join_rejected_by_default() {
        let plan = Plan::Query(RelExpr::Join {
            kind: JoinKind::Semi,
            left: Box::new(get("L", &[("A", SqlType::Integer)])),
            right: Box::new(get("R", &[("B", SqlType::Integer)])),
            condition: None,
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.has(Invariant::InternalJoin), "{report}");
        let relaxed = validate_plan(
            &plan,
            &ValidateOptions { allow_internal_joins: true },
        );
        assert!(!relaxed.has(Invariant::InternalJoin), "{relaxed}");
    }

    #[test]
    fn setop_arity_mismatch_flagged() {
        let plan = Plan::Query(RelExpr::SetOp {
            kind: crate::rel::SetOpKind::Union,
            all: true,
            left: Box::new(get("L", &[("A", SqlType::Integer), ("B", SqlType::Integer)])),
            right: Box::new(get("R", &[("A", SqlType::Integer)])),
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.has(Invariant::SetOpArity), "{report}");
    }

    #[test]
    fn misplaced_aggregate_flagged() {
        let agg = ScalarExpr::Agg {
            func: crate::expr::AggFunc::CountStar,
            distinct: false,
            arg: None,
        };
        let plan = Plan::Query(RelExpr::Project {
            input: Box::new(get("T", &[("A", SqlType::Integer)])),
            exprs: vec![(agg, "N".into())],
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.has(Invariant::MisplacedAggregate), "{report}");
    }

    #[test]
    fn grouping_set_bounds_checked() {
        let plan = Plan::Query(RelExpr::Aggregate {
            input: Box::new(get("T", &[("A", SqlType::Integer)])),
            group_by: vec![(col("T", "A", SqlType::Integer), "A".into())],
            grouping: Grouping::Sets(vec![vec![0], vec![7]]),
            aggs: vec![],
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.has(Invariant::GroupingSetBounds), "{report}");
    }

    #[test]
    fn duplicate_join_aliases_flagged() {
        let plan = Plan::Query(RelExpr::Join {
            kind: JoinKind::Inner,
            left: Box::new(get("T", &[("A", SqlType::Integer)])),
            right: Box::new(get("T", &[("A", SqlType::Integer)])),
            condition: Some(ScalarExpr::boolean(true)),
        });
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.has(Invariant::DuplicateAlias), "{report}");
    }

    #[test]
    fn update_predicate_columns_are_not_resolvable_statically() {
        let plan = Plan::Update {
            table: "T".into(),
            alias: None,
            assignments: vec![crate::rel::Assignment {
                column: "A".into(),
                value: ScalarExpr::int(1),
            }],
            predicate: Some(ScalarExpr::cmp(
                CmpOp::Eq,
                col("T", "A", SqlType::Integer),
                ScalarExpr::int(2),
            )),
        };
        let report = validate_plan(&plan, &ValidateOptions::default());
        assert!(report.is_clean(), "{report}");
    }

    fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::cmp(CmpOp::Eq, l, r)
    }

    fn filtered(table: &str, col_name: &str, predicate: ScalarExpr) -> RelExpr {
        RelExpr::Select {
            input: Box::new(get(table, &[(col_name, SqlType::Integer)])),
            predicate,
        }
    }

    fn named(q: Option<&str>, n: &str) -> ColumnRef {
        (q.map(str::to_string), n.to_string())
    }

    #[test]
    fn free_columns_of_self_contained_relation_is_empty() {
        let rel = filtered("H", "X", eq(col("H", "X", SqlType::Integer), ScalarExpr::int(1)));
        assert!(free_columns(&rel).is_empty());
    }

    #[test]
    fn free_columns_are_the_outer_references_listed_once() {
        let a = || col("T", "A", SqlType::Integer);
        let rel = filtered(
            "H",
            "X",
            ScalarExpr::and(vec![
                eq(col("H", "X", SqlType::Integer), a()),
                ScalarExpr::cmp(CmpOp::Gt, col("H", "X", SqlType::Integer), a()),
            ]),
        );
        assert_eq!(free_columns(&rel), vec![named(Some("T"), "A")]);
    }

    #[test]
    fn nested_subquery_reading_the_middle_scope_is_not_free_in_the_middle() {
        // Innermost reads H.X (the middle query) and T.A (the outermost).
        let innermost = filtered(
            "K",
            "Z",
            ScalarExpr::and(vec![
                eq(col("K", "Z", SqlType::Integer), col("H", "X", SqlType::Integer)),
                eq(col("K", "Z", SqlType::Integer), col("T", "A", SqlType::Integer)),
            ]),
        );
        assert_eq!(
            free_columns(&innermost),
            vec![named(Some("H"), "X"), named(Some("T"), "A")]
        );
        let middle = filtered(
            "H",
            "X",
            ScalarExpr::Exists { subquery: Box::new(innermost), negated: false },
        );
        assert_eq!(free_columns(&middle), vec![named(Some("T"), "A")]);
    }
}
