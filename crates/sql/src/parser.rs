//! Lexer and parser for the SQL subset.

use pdqi_constraints::CompOp;
use pdqi_core::FamilyKind;
use pdqi_relation::Value;

/// Column types of the SQL subset: `INT` and `TEXT` (the paper's name domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Integer column.
    Int,
    /// Uninterpreted-name column.
    Text,
}

/// A `WHERE` condition: `column op (column | constant)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Left-hand column name.
    pub column: String,
    /// Comparison operator.
    pub op: CompOp,
    /// Right-hand side: a column name or a constant.
    pub rhs: ConditionRhs,
}

/// The right-hand side of a condition.
#[derive(Debug, Clone, PartialEq)]
pub enum ConditionRhs {
    /// Another column of the same table.
    Column(String),
    /// A constant.
    Constant(Value),
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Projected column names (`*` expands to all columns at execution time).
    pub columns: Vec<String>,
    /// Whether the projection was `*`.
    pub star: bool,
    /// The table queried.
    pub table: String,
    /// Conjunction of `WHERE` conditions.
    pub conditions: Vec<Condition>,
    /// The repair family of a `WITH REPAIRS` clause, if present.
    pub repairs: Option<FamilyKind>,
}

/// A parsed statement of the SQL subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column declarations.
        columns: Vec<(String, ColumnType)>,
    },
    /// `ALTER TABLE name ADD FD A B -> C D`.
    AddFd {
        /// Table name.
        table: String,
        /// The textual FD (`"A B -> C D"`), parsed against the schema at execution time.
        fd: String,
    },
    /// `INSERT INTO name VALUES (...), (...)`.
    Insert {
        /// Table name.
        table: String,
        /// The literal rows.
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM name VALUES (...), (...)` — removes the listed rows by value
    /// (set semantics address tuples by their values; absent rows are no-ops).
    Delete {
        /// Table name.
        table: String,
        /// The literal rows to remove.
        rows: Vec<Vec<Value>>,
    },
    /// `PREFER (row) OVER (row) IN table`.
    Prefer {
        /// Table name.
        table: String,
        /// The preferred (dominating) tuple's values.
        winner: Vec<Value>,
        /// The dominated tuple's values.
        loser: Vec<Value>,
    },
    /// A `SELECT`.
    Select(SelectStatement),
    /// `EXPLAIN SELECT …` — the costed physical plan plus post-execution actuals.
    Explain(SelectStatement),
}

/// A parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlParseError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL parse error: {}", self.message)
    }
}

impl std::error::Error for SqlParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Text(String),
    LParen,
    RParen,
    Comma,
    Star,
    Arrow,
    Op(CompOp),
}

fn lex(input: &str) -> Result<Vec<Token>, SqlParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' | ';' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Op(CompOp::Eq));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Op(CompOp::Neq));
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Token::Op(CompOp::Le));
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Token::Op(CompOp::Neq));
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Op(CompOp::Lt));
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Op(CompOp::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Op(CompOp::Gt));
                    i += 1;
                }
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::Arrow);
                    i += 2;
                } else {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    let value = text.parse::<i64>().map_err(|_| SqlParseError {
                        message: format!("bad integer literal `{text}`"),
                    })?;
                    tokens.push(Token::Int(value));
                }
            }
            '\'' => {
                // Quotes are ASCII, so both ends of the literal are char boundaries and
                // the slice between them is the literal's UTF-8 text.
                let start = i + 1;
                i = start;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(SqlParseError {
                                message: "unterminated string literal".to_string(),
                            })
                        }
                        Some(&b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                        Some(&b'\'') => break,
                        Some(_) => i += 1,
                    }
                }
                tokens.push(Token::Text(input[start..i].replace("''", "'")));
                i += 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let value = input[start..i].parse::<i64>().map_err(|_| SqlParseError {
                    message: "integer literal out of range".to_string(),
                })?;
                tokens.push(Token::Int(value));
            }
            _ if c.is_ascii_alphabetic() || c == '_' || c == '&' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'&')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                return Err(SqlParseError { message: format!("unexpected character `{c}`") });
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).cloned();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, SqlParseError> {
        Err(SqlParseError { message: message.into() })
    }

    fn keyword(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(id)) if id.eq_ignore_ascii_case(word)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, word: &str) -> Result<(), SqlParseError> {
        if self.keyword(word) {
            Ok(())
        } else {
            self.error(format!("expected keyword `{word}`"))
        }
    }

    fn expect(&mut self, token: Token, what: &str) -> Result<(), SqlParseError> {
        if self.peek() == Some(&token) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected {what}"))
        }
    }

    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.next() {
            Some(Token::Ident(id)) => Ok(id),
            _ => self.error("expected an identifier"),
        }
    }

    fn literal(&mut self) -> Result<Value, SqlParseError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Value::int(n)),
            Some(Token::Text(t)) => Ok(Value::name(&t)),
            _ => self.error("expected a literal value"),
        }
    }

    fn row(&mut self) -> Result<Vec<Value>, SqlParseError> {
        self.expect(Token::LParen, "`(`")?;
        let mut values = Vec::new();
        loop {
            values.push(self.literal()?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(Token::RParen, "`)`")?;
        Ok(values)
    }

    fn statement(&mut self) -> Result<Statement, SqlParseError> {
        if self.keyword("EXPLAIN") {
            return match self.statement()? {
                Statement::Select(select) => Ok(Statement::Explain(select)),
                _ => self.error("EXPLAIN supports only SELECT statements"),
            };
        }
        if self.keyword("CREATE") {
            self.expect_keyword("TABLE")?;
            let name = self.ident()?;
            self.expect(Token::LParen, "`(`")?;
            let mut columns = Vec::new();
            loop {
                let column = self.ident()?;
                let ty = self.ident()?;
                let ty = match ty.to_ascii_uppercase().as_str() {
                    "INT" | "INTEGER" => ColumnType::Int,
                    "TEXT" | "VARCHAR" | "NAME" => ColumnType::Text,
                    other => return self.error(format!("unknown column type `{other}`")),
                };
                columns.push((column, ty));
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(Token::RParen, "`)`")?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.keyword("ALTER") {
            self.expect_keyword("TABLE")?;
            let table = self.ident()?;
            self.expect_keyword("ADD")?;
            self.expect_keyword("FD")?;
            let mut lhs = Vec::new();
            while let Some(Token::Ident(_)) = self.peek() {
                lhs.push(self.ident()?);
            }
            self.expect(Token::Arrow, "`->`")?;
            let mut rhs = Vec::new();
            while let Some(Token::Ident(_)) = self.peek() {
                rhs.push(self.ident()?);
            }
            if lhs.is_empty() && rhs.is_empty() {
                return self.error("an FD needs at least one attribute");
            }
            return Ok(Statement::AddFd {
                table,
                fd: format!("{} -> {}", lhs.join(" "), rhs.join(" ")),
            });
        }
        if self.keyword("INSERT") {
            self.expect_keyword("INTO")?;
            let table = self.ident()?;
            self.expect_keyword("VALUES")?;
            let mut rows = Vec::new();
            loop {
                rows.push(self.row()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            return Ok(Statement::Insert { table, rows });
        }
        if self.keyword("DELETE") {
            self.expect_keyword("FROM")?;
            let table = self.ident()?;
            self.expect_keyword("VALUES")?;
            let mut rows = Vec::new();
            loop {
                rows.push(self.row()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            return Ok(Statement::Delete { table, rows });
        }
        if self.keyword("PREFER") {
            let winner = self.row()?;
            self.expect_keyword("OVER")?;
            let loser = self.row()?;
            self.expect_keyword("IN")?;
            let table = self.ident()?;
            return Ok(Statement::Prefer { table, winner, loser });
        }
        if self.keyword("SELECT") {
            let mut columns = Vec::new();
            let mut star = false;
            if self.peek() == Some(&Token::Star) {
                self.pos += 1;
                star = true;
            } else {
                loop {
                    columns.push(self.ident()?);
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect_keyword("FROM")?;
            let table = self.ident()?;
            let mut conditions = Vec::new();
            if self.keyword("WHERE") {
                loop {
                    let column = self.ident()?;
                    let op = match self.next() {
                        Some(Token::Op(op)) => op,
                        _ => return self.error("expected a comparison operator"),
                    };
                    let rhs = match self.peek() {
                        Some(Token::Ident(_)) => ConditionRhs::Column(self.ident()?),
                        _ => ConditionRhs::Constant(self.literal()?),
                    };
                    conditions.push(Condition { column, op, rhs });
                    if !self.keyword("AND") {
                        break;
                    }
                }
            }
            let mut repairs = None;
            if self.keyword("WITH") {
                self.expect_keyword("REPAIRS")?;
                let family = self.ident()?;
                repairs = Some(FamilyKind::parse(&family).ok_or_else(|| SqlParseError {
                    message: format!("unknown repair family `{family}`"),
                })?);
            }
            return Ok(Statement::Select(SelectStatement {
                columns,
                star,
                table,
                conditions,
                repairs,
            }));
        }
        self.error("expected CREATE, ALTER, INSERT, DELETE, PREFER or SELECT")
    }
}

/// Parses a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(input: &str) -> Result<Statement, SqlParseError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let statement = parser.statement()?;
    if parser.pos != parser.tokens.len() {
        return Err(SqlParseError { message: "unexpected trailing input".to_string() });
    }
    Ok(statement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_both_column_types() {
        let stmt = parse_statement("CREATE TABLE Mgr (Name TEXT, Salary INT);").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateTable {
                name: "Mgr".to_string(),
                columns: vec![
                    ("Name".to_string(), ColumnType::Text),
                    ("Salary".to_string(), ColumnType::Int)
                ],
            }
        );
    }

    #[test]
    fn alter_table_add_fd() {
        let stmt = parse_statement("ALTER TABLE Mgr ADD FD Dept -> Name Salary Reports").unwrap();
        assert_eq!(
            stmt,
            Statement::AddFd {
                table: "Mgr".to_string(),
                fd: "Dept -> Name Salary Reports".to_string()
            }
        );
    }

    #[test]
    fn insert_multiple_rows_with_quotes_and_negatives() {
        let stmt = parse_statement("INSERT INTO T VALUES ('O''Brien', -3), ('R&D', 7);").unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "T");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Value::name("O'Brien"));
                assert_eq!(rows[0][1], Value::int(-3));
                assert_eq!(rows[1][0], Value::name("R&D"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_literals_keep_their_utf8_characters() {
        let stmt = parse_statement("INSERT INTO T VALUES ('café', 'naïve ''Ω''');").unwrap();
        let Statement::Insert { rows, .. } = stmt else { panic!("unexpected {stmt:?}") };
        assert_eq!(rows, vec![vec![Value::name("café"), Value::name("naïve 'Ω'")]]);
        assert!(parse_statement("INSERT INTO T VALUES ('café);").is_err());
    }

    #[test]
    fn delete_rows_by_value() {
        let stmt = parse_statement("DELETE FROM T VALUES ('a', 1), ('b', 2);").unwrap();
        match stmt {
            Statement::Delete { table, rows } => {
                assert_eq!(table, "T");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1], vec![Value::name("b"), Value::int(2)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_statement("DELETE FROM T").is_err());
        assert!(parse_statement("DELETE T VALUES (1)").is_err());
    }

    #[test]
    fn prefer_statement() {
        let stmt = parse_statement("PREFER ('a', 1) OVER ('b', 2) IN T;").unwrap();
        assert!(matches!(stmt, Statement::Prefer { ref table, .. } if table == "T"));
    }

    #[test]
    fn select_with_conditions_and_repair_clause() {
        let stmt = parse_statement(
            "SELECT Name, Dept FROM Mgr WHERE Salary > 15 AND Dept = 'R&D' WITH REPAIRS GLOBAL",
        )
        .unwrap();
        match stmt {
            Statement::Select(select) => {
                assert_eq!(select.columns, vec!["Name", "Dept"]);
                assert_eq!(select.conditions.len(), 2);
                assert_eq!(select.repairs, Some(FamilyKind::Global));
                assert!(!select.star);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_star_without_clauses() {
        let stmt = parse_statement("SELECT * FROM Mgr").unwrap();
        match stmt {
            Statement::Select(select) => {
                assert!(select.star);
                assert!(select.conditions.is_empty());
                assert_eq!(select.repairs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_statements_are_rejected() {
        for bad in [
            "",
            "DROP TABLE x",
            "CREATE TABLE t (A BLOB)",
            "SELECT FROM t",
            "SELECT a FROM t WITH REPAIRS NONSENSE",
            "INSERT INTO t VALUES (1",
            "PREFER (1) OVER (2)",
        ] {
            assert!(parse_statement(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
