//! End-to-end test of the SQL front end against the core engine: the same scenario
//! expressed through SQL statements and through the programmatic API must agree, a
//! session's writes compose with other writers of the registry it serves, and a session
//! that reads midway ends in the state of one that reads only at the end.

use std::sync::Arc;

use pdqi::priority::SourceOrder;
use pdqi::server::{serve, Client, ServerConfig};
use pdqi::sql::{Session, StatementOutcome};
use pdqi::{
    EngineBuilder, FamilyKind, FdSet, PreparedQuery, RelationInstance, RelationSchema, Semantics,
    Value, ValueType,
};
use proptest::prelude::*;

fn rows(outcome: StatementOutcome) -> Vec<Vec<Value>> {
    match outcome {
        StatementOutcome::Rows(result) => result.rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn sql_and_programmatic_answers_agree_on_the_paper_scenario() {
    // --- SQL side -------------------------------------------------------------------
    let mut session = Session::new();
    session
        .execute_script(
            "CREATE TABLE Mgr (Name TEXT, Dept TEXT, Salary INT, Reports INT);\
             ALTER TABLE Mgr ADD FD Dept -> Name Salary Reports;\
             ALTER TABLE Mgr ADD FD Name -> Dept Salary Reports;\
             INSERT INTO Mgr VALUES ('Mary', 'R&D', 40, 3), ('John', 'R&D', 10, 2);\
             INSERT INTO Mgr VALUES ('Mary', 'IT', 20, 1), ('John', 'PR', 30, 4);\
             PREFER ('Mary', 'R&D', 40, 3) OVER ('Mary', 'IT', 20, 1) IN Mgr;\
             PREFER ('John', 'R&D', 10, 2) OVER ('John', 'PR', 30, 4) IN Mgr",
        )
        .unwrap();
    let sql_depts = rows(session.execute("SELECT Dept FROM Mgr WITH REPAIRS GLOBAL").unwrap());

    // --- programmatic side ------------------------------------------------------------
    let schema = Arc::new(
        RelationSchema::from_pairs(
            "Mgr",
            &[
                ("Name", ValueType::Name),
                ("Dept", ValueType::Name),
                ("Salary", ValueType::Int),
                ("Reports", ValueType::Int),
            ],
        )
        .unwrap(),
    );
    let instance = RelationInstance::from_rows(
        Arc::clone(&schema),
        vec![
            vec!["Mary".into(), "R&D".into(), Value::int(40), Value::int(3)],
            vec!["John".into(), "R&D".into(), Value::int(10), Value::int(2)],
            vec!["Mary".into(), "IT".into(), Value::int(20), Value::int(1)],
            vec!["John".into(), "PR".into(), Value::int(30), Value::int(4)],
        ],
    )
    .unwrap();
    let fds = FdSet::parse(schema, &["Dept -> Name Salary Reports", "Name -> Dept Salary Reports"])
        .unwrap();
    let mut order = SourceOrder::new();
    order.prefer("s1", "s3").prefer("s2", "s3");
    let sources = vec!["s1".to_string(), "s2".to_string(), "s3".to_string(), "s3".to_string()];
    let snapshot = EngineBuilder::new()
        .relation(instance, fds)
        .priority_from_sources(&sources, &order)
        .build()
        .unwrap();
    let query = PreparedQuery::parse("EXISTS n,s,r . Mgr(n,d,s,r)").unwrap();
    let api_depts: Vec<Vec<Value>> =
        query.execute(&snapshot, FamilyKind::Global, Semantics::Certain).unwrap().collect();

    // Both report exactly {R&D} as the certainly-managed department.
    assert_eq!(sql_depts, vec![vec![Value::name("R&D")]]);
    assert_eq!(api_depts, vec![vec![Value::name("R&D")]]);

    // The SQL session's published snapshot agrees with the programmatic snapshot on
    // repair counts and preferred repairs.
    let sql_snapshot = session.snapshot("Mgr").unwrap();
    assert_eq!(sql_snapshot.count_repairs(), snapshot.count_repairs());
    assert_eq!(
        sql_snapshot.preferred_repairs(FamilyKind::Global, 10).len(),
        snapshot.preferred_repairs(FamilyKind::Global, 10).len()
    );
}

#[test]
fn plain_sql_select_matches_direct_evaluation() {
    let mut session = Session::new();
    session
        .execute_script(
            "CREATE TABLE T (A INT, B INT);\
             ALTER TABLE T ADD FD A -> B;\
             INSERT INTO T VALUES (1, 1), (1, 2), (2, 5)",
        )
        .unwrap();
    // Plain evaluation sees everything, including both conflicting tuples.
    let all = rows(session.execute("SELECT A, B FROM T").unwrap());
    assert_eq!(all.len(), 3);
    // Under classic CQA only the non-conflicting tuple is certain.
    let certain = rows(session.execute("SELECT A, B FROM T WITH REPAIRS ALL").unwrap());
    assert_eq!(certain, vec![vec![Value::int(2), Value::int(5)]]);
    // Column-to-column comparisons work in WHERE.
    let diagonal = rows(session.execute("SELECT A FROM T WHERE A = B").unwrap());
    assert_eq!(diagonal, vec![vec![Value::int(1)]]);
}

#[test]
fn a_row_inserted_over_the_wire_survives_the_sessions_next_insert() {
    let mut session = Session::new();
    session
        .execute_script(
            "CREATE TABLE Mgr (Name TEXT, Dept TEXT, Salary INT, Reports INT);\
             ALTER TABLE Mgr ADD FD Dept -> Name Salary Reports;\
             INSERT INTO Mgr VALUES ('Mary', 'R&D', 40, 3), ('John', 'R&D', 10, 2);\
             INSERT INTO Mgr VALUES ('Mary', 'IT', 20, 1), ('John', 'PR', 30, 4)",
        )
        .unwrap();
    session.publish_tables().unwrap();
    let handle =
        serve("127.0.0.1:0", Arc::clone(session.registry()), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let eve = ["Eve", "HR", "15", "2"].map(String::from).to_vec();
    assert_eq!(client.insert("Mgr", &[eve]).unwrap(), (1, 2));
    session.execute("INSERT INTO Mgr VALUES ('Bob', 'FIN', 12, 1)").unwrap();
    let names = rows(session.execute("SELECT Name FROM Mgr WHERE Salary < 20").unwrap());
    assert_eq!(
        names,
        vec![vec![Value::name("Bob")], vec![Value::name("Eve")], vec![Value::name("John")]]
    );
    assert_eq!(session.snapshot("Mgr").unwrap().context().instance().len(), 6);
    client.shutdown().unwrap();
    handle.wait();
}

/// The FDs a random script may declare over `T (A, B, C)`, with their column indexes.
const FDS: [(&str, &[usize], &[usize]); 4] = [
    ("A -> B", &[0], &[1]),
    ("B -> C", &[1], &[2]),
    ("C -> A", &[2], &[0]),
    ("A B -> C", &[0, 1], &[2]),
];

const FAMILIES: [&str; 5] = ["ALL", "LOCAL", "SEMIGLOBAL", "GLOBAL", "COMMON"];

/// Turns random steps into a script over `T (A INT, B INT, C INT)` with values in `0..3`,
/// flagging its reads. Every statement is valid: deletes and preferences pick stored
/// tuples, and a preference orients a pair that conflicts under the FDs declared so far
/// from the lexicographically smaller tuple, so the priority stays acyclic.
fn random_script(steps: &[(u8, i64, i64, i64, usize)]) -> Vec<(String, bool)> {
    let mut stored: Vec<[i64; 3]> = Vec::new();
    let mut fds: Vec<usize> = Vec::new();
    let mut script = vec![("CREATE TABLE T (A INT, B INT, C INT)".to_string(), false)];
    let row = |r: &[i64; 3]| format!("({}, {}, {})", r[0], r[1], r[2]);
    let conflicting = |x: &[i64; 3], y: &[i64; 3], fds: &[usize]| {
        fds.iter().any(|&fd| {
            let (_, lhs, rhs) = FDS[fd];
            lhs.iter().all(|&i| x[i] == y[i]) && rhs.iter().any(|&i| x[i] != y[i])
        })
    };
    for &(kind, a, b, c, pick) in steps {
        let statement = match kind {
            0..=3 => {
                let mut rows = vec![[a, b, c]];
                if kind >= 2 {
                    rows.push([c, a, b]);
                }
                for r in &rows {
                    if !stored.contains(r) {
                        stored.push(*r);
                    }
                }
                let values: Vec<String> = rows.iter().map(row).collect();
                format!("INSERT INTO T VALUES {}", values.join(", "))
            }
            4 => {
                let target =
                    if stored.is_empty() { [a, b, c] } else { stored[pick % stored.len()] };
                stored.retain(|r| *r != target);
                format!("DELETE FROM T VALUES {}", row(&target))
            }
            5 => {
                let fd = pick % FDS.len();
                fds.push(fd);
                format!("ALTER TABLE T ADD FD {}", FDS[fd].0)
            }
            6..=8 => {
                let pairs: Vec<(&[i64; 3], &[i64; 3])> = stored
                    .iter()
                    .flat_map(|x| stored.iter().map(move |y| (x, y)))
                    .filter(|(x, y)| x < y && conflicting(x, y, &fds))
                    .collect();
                if pairs.is_empty() {
                    continue;
                }
                let (winner, loser) = pairs[pick % pairs.len()];
                format!("PREFER {} OVER {} IN T", row(winner), row(loser))
            }
            _ => {
                let family = FAMILIES[pick % FAMILIES.len()];
                script.push((format!("SELECT * FROM T WITH REPAIRS {family}"), true));
                continue;
            }
        };
        script.push((statement, false));
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reads publish a draft and then derive every later write through the registry;
    /// the result must equal one build of the same writes.
    #[test]
    fn a_session_reading_midway_ends_where_one_reading_at_the_end_does(
        steps in prop::collection::vec((0u8..12, 0i64..3, 0i64..3, 0i64..3, 0usize..1000), 1..40)
    ) {
        let execute = |session: &mut Session, statement: &str| {
            session.execute(statement).map_err(|e| TestCaseError::fail(format!("{statement}: {e}")))
        };
        let mut midway = Session::new();
        let mut at_end = Session::new();
        for (statement, read) in random_script(&steps) {
            execute(&mut midway, &statement)?;
            if !read {
                execute(&mut at_end, &statement)?;
            }
        }
        for family in FAMILIES {
            let select = format!("SELECT * FROM T WITH REPAIRS {family}");
            prop_assert_eq!(
                rows(execute(&mut midway, &select)?),
                rows(execute(&mut at_end, &select)?),
                "{}", family
            );
        }
        let (derived, built) = (midway.snapshot("T").unwrap(), at_end.snapshot("T").unwrap());
        prop_assert_eq!(derived.graph().edges(), built.graph().edges());
        prop_assert_eq!(derived.priority().edges(), built.priority().edges());
        prop_assert_eq!(derived.count_repairs(), built.count_repairs());
    }
}
