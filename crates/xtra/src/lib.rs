//! # hyperq-xtra — the eXtended Relational Algebra
//!
//! This crate defines the language-agnostic query representation at the heart
//! of the Hyper-Q reproduction, called **XTRA** in the paper (§4.2): a uniform
//! algebraic model in which "the output of a given operator depends on the
//! operator's inputs as well as the operator's type".
//!
//! It contains:
//!
//! * [`types::SqlType`] — the SQL type lattice shared by frontend and backend,
//!   including the Teradata-specific `PERIOD` compound type,
//! * [`datum::Datum`] — runtime values with SQL comparison/arithmetic
//!   semantics, including an exact fixed-point [`datum::Decimal`],
//! * [`expr::ScalarExpr`] — scalar expression trees (comparisons, arithmetic,
//!   functions, aggregates, window references, and the quantified *vector*
//!   subquery construct of the paper's Example 2),
//! * [`rel::RelExpr`] — relational operators (`get`, `select`, `project`,
//!   `window`, `join`, `aggregate`, …) and [`rel::Plan`] — statement-level
//!   plans (queries, DML, DDL),
//! * [`schema`] / [`catalog`] — schemas, table metadata and the
//!   [`catalog::MetadataProvider`] trait the binder resolves names against,
//! * [`display`] — a tree printer producing the `+-select |-window(...)`
//!   notation used in the paper's Figures 4–6.
//!
//! The crate is deliberately free of parsing, binding and execution logic so
//! that every other component (binder, transformer, serializer, engine, wire
//! format) can depend on it without cycles.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod datum;
pub mod display;
pub mod expr;
pub mod feature;
pub mod rel;
pub mod schema;
pub mod types;
pub mod validate;

pub use catalog::{ColumnDef, MetadataProvider, TableDef, TableKind, ViewDef};
pub use datum::{Datum, Decimal, Interval};
pub use feature::{Component, Feature, FeatureClass, FeatureSet};
pub use expr::{
    AggFunc, ArithOp, BoolOp, CmpOp, DateField, Quantifier, ScalarExpr, ScalarFunc, SortExpr,
    WindowExpr, WindowFuncKind,
};
pub use rel::{Assignment, Grouping, JoinKind, Plan, RelExpr, SetOpKind};
pub use schema::{Field, Schema};
pub use types::SqlType;
pub use validate::{
    free_columns, plan_output_schema, validate_plan, validate_rel, ColumnRef, Invariant,
    ValidateOptions, ValidationReport, Violation,
};

/// A materialized row of values: the unit of data exchanged between the
/// engine, the TDF format and the result converter.
pub type Row = Vec<Datum>;

/// Errors shared across the pipeline for value-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError(pub String);

impl std::fmt::Display for ValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "value error: {}", self.0)
    }
}

impl std::error::Error for ValueError {}
