//! SQL front end: lexer, parser, expressions and logical plans.
//!
//! PolarDB-X is MySQL-compatible; this crate implements the dialect subset
//! the paper's workloads need — DDL with hash partitioning, table groups
//! and global/local indexes (§II-B), DML, and SELECT with joins,
//! aggregation, ordering and limits (enough to express sysbench, TPC-C and
//! the 22 TPC-H query shapes).
//!
//! Pipeline: text → [`token::tokenize`] → [`parser::Parser`] → [`ast`] →
//! [`plan::build_plan`] → [`plan::LogicalPlan`]. Expressions resolve column
//! names against an output schema ([`expr::Expr::resolve`]) and then
//! evaluate against rows without further name lookups.

pub mod access;
pub mod ast;
pub mod expr;
pub mod parser;
pub mod plan;
pub mod token;

pub use access::KeyAccess;
pub use ast::Statement;
pub use expr::{AggFunc, Expr};
pub use parser::parse;
pub use plan::{build_plan, LogicalPlan};
