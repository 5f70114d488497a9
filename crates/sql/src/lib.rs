//! A small SQL front end for preference-driven consistent query answering.
//!
//! The paper's framework is defined model-theoretically; real users, however, talk to
//! databases in SQL. This crate provides a compact SQL subset that covers everything the
//! paper's scenarios need and maps directly onto the `pdqi-core` engine:
//!
//! ```sql
//! CREATE TABLE Mgr (Name TEXT, Dept TEXT, Salary INT, Reports INT);
//! ALTER TABLE Mgr ADD FD Dept -> Name Salary Reports;
//! ALTER TABLE Mgr ADD FD Name -> Dept Salary Reports;
//! INSERT INTO Mgr VALUES ('Mary', 'R&D', 40, 3), ('John', 'R&D', 10, 2);
//! INSERT INTO Mgr VALUES ('Mary', 'IT', 20, 1), ('John', 'PR', 30, 4);
//! PREFER ('Mary', 'R&D', 40, 3) OVER ('Mary', 'IT', 20, 1) IN Mgr;
//! SELECT Name, Dept FROM Mgr WHERE Salary > 15 WITH REPAIRS GLOBAL;
//! ```
//!
//! `SELECT … WITH REPAIRS <family>` returns the **certain answers** over the preferred
//! repairs of the chosen family (`ALL`, `LOCAL`, `SEMIGLOBAL`, `GLOBAL`, `COMMON`) under
//! the priorities accumulated through `PREFER` statements; a plain `SELECT` evaluates the
//! query directly over the stored (possibly inconsistent) table.
//!
//! A [`Session`] keeps a table only as a draft until its first read publishes it into a
//! `pdqi-core` snapshot registry; from then on the registry is the table's only store,
//! and each statement revises the snapshot it serves (see the [`session`] module).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod parser;
pub mod session;

pub use parser::{parse_statement, ColumnType, Condition, SelectStatement, Statement};
pub use session::{split_script, QueryResult, Session, SqlError, StatementOutcome};
