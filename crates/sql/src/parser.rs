//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::{lex, Token};

/// Parse a single statement (an optional trailing `;` is allowed).
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_semicolons();
    if !p.at_end() {
        return Err(SqlError::Parse(format!("trailing tokens after statement: {:?}", p.peek())));
    }
    Ok(stmt)
}

/// Parse a script of `;`-separated statements.
pub fn parse_script(input: &str) -> Result<Vec<Statement>> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    p.eat_semicolons();
    while !p.at_end() {
        stmts.push(p.statement()?);
        p.eat_semicolons();
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: &Token) -> Result<()> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {want:?}, found {got:?}")))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Token::Keyword(k) if k == kw => Ok(()),
            other => Err(SqlError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Token::Keyword(k)) => match k.as_str() {
                "CREATE" => self.create_table(),
                "DROP" => self.drop_table(),
                "INSERT" => self.insert(),
                "SELECT" => Ok(Statement::Select(self.select()?)),
                other => Err(SqlError::Parse(format!("unexpected keyword {other}"))),
            },
            other => Err(SqlError::Parse(format!("expected a statement, found {other:?}"))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            // Optional type name: INT / INTEGER (all columns are u32).
            if !self.try_keyword("INT") {
                self.try_keyword("INTEGER");
            }
            columns.push(col);
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => {
                    return Err(SqlError::Parse(format!("expected ',' or ')', found {other:?}")))
                }
            }
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        Ok(Statement::DropTable { name: self.ident()? })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        match self.peek() {
            Some(Token::Keyword(k)) if k == "VALUES" => {
                self.pos += 1;
                let mut rows = Vec::new();
                loop {
                    self.expect(&Token::LParen)?;
                    let mut row = Vec::new();
                    loop {
                        match self.next()? {
                            Token::Number(n) => row.push(n),
                            other => {
                                return Err(SqlError::Parse(format!(
                                    "expected integer literal, found {other:?}"
                                )))
                            }
                        }
                        match self.next()? {
                            Token::Comma => continue,
                            Token::RParen => break,
                            other => {
                                return Err(SqlError::Parse(format!(
                                    "expected ',' or ')', found {other:?}"
                                )))
                            }
                        }
                    }
                    rows.push(row);
                    if matches!(self.peek(), Some(Token::Comma)) {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
                Ok(Statement::InsertValues { table, rows })
            }
            Some(Token::Keyword(k)) if k == "SELECT" => {
                Ok(Statement::InsertSelect { table, select: self.select()? })
            }
            other => Err(SqlError::Parse(format!("expected VALUES or SELECT, found {other:?}"))),
        }
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword("SELECT")?;
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            // Optional alias: `SALES r1` or `SALES AS r1`.
            self.try_keyword("AS");
            let alias = match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            };
            from.push(TableRef { table, alias });
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut predicates = Vec::new();
        let mut set_predicates = Vec::new();
        if self.try_keyword("WHERE") {
            loop {
                let left = self.scalar()?;
                let negated = self.try_keyword("NOT");
                if negated || matches!(self.peek(), Some(Token::Keyword(k)) if k == "IN") {
                    self.expect_keyword("IN")?;
                    let Scalar::Column(col) = left else {
                        return Err(SqlError::Parse(
                            "IN requires a column on the left-hand side".into(),
                        ));
                    };
                    set_predicates.push(SetPredicate { col, items: self.literal_list()?, negated });
                } else {
                    let op = self.cmp_op()?;
                    let right = self.scalar()?;
                    predicates.push(Predicate { left, op, right });
                }
                if !self.try_keyword("AND") {
                    break;
                }
            }
        }
        let mut group_by = Vec::new();
        if self.try_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let having = if self.try_keyword("HAVING") {
            let agg = if self.try_keyword("COUNT") {
                self.expect(&Token::LParen)?;
                self.expect(&Token::Star)?;
                self.expect(&Token::RParen)?;
                HavingAgg::CountStar
            } else {
                self.expect_keyword("SUM")?;
                self.expect(&Token::LParen)?;
                let col = self.column_ref()?;
                self.expect(&Token::RParen)?;
                HavingAgg::Sum(col)
            };
            let op = self.cmp_op()?;
            let rhs = self.scalar()?;
            Some(Having { agg, op, rhs })
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.try_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                order_by.push(self.column_ref()?);
                self.try_keyword("ASC"); // descending is not in the dialect
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        Ok(Select { items, from, predicates, set_predicates, group_by, having, order_by })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        match self.peek() {
            Some(Token::Star) => {
                self.pos += 1;
                Ok(SelectItem::Wildcard)
            }
            Some(Token::Keyword(k)) if k == "COUNT" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                self.expect(&Token::Star)?;
                self.expect(&Token::RParen)?;
                Ok(SelectItem::CountStar)
            }
            Some(Token::Keyword(k)) if k == "SUM" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let col = self.column_ref()?;
                self.expect(&Token::RParen)?;
                Ok(SelectItem::SumCol(col))
            }
            _ => Ok(SelectItem::Column(self.column_ref()?)),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if matches!(self.peek(), Some(Token::Dot)) {
            self.pos += 1;
            let column = self.ident()?;
            Ok(ColumnRef { qualifier: Some(first), column })
        } else {
            Ok(ColumnRef { qualifier: None, column: first })
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        match self.next()? {
            Token::Eq => Ok(CmpOp::Eq),
            Token::Ne => Ok(CmpOp::Ne),
            Token::Lt => Ok(CmpOp::Lt),
            Token::Le => Ok(CmpOp::Le),
            Token::Gt => Ok(CmpOp::Gt),
            Token::Ge => Ok(CmpOp::Ge),
            other => Err(SqlError::Parse(format!("expected comparison operator, found {other:?}"))),
        }
    }

    fn scalar(&mut self) -> Result<Scalar> {
        match self.peek() {
            Some(Token::Number(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(Scalar::Literal(n))
            }
            Some(Token::Param(p)) => {
                let p = p.clone();
                self.pos += 1;
                Ok(Scalar::Param(p))
            }
            _ => Ok(Scalar::Column(self.column_ref()?)),
        }
    }

    /// A parenthesized, non-empty, comma-separated list of integer
    /// literals — the right-hand side of `IN` / `NOT IN`.
    fn literal_list(&mut self) -> Result<Vec<u64>> {
        self.expect(&Token::LParen)?;
        let mut items = Vec::new();
        loop {
            match self.next()? {
                Token::Number(n) => items.push(n),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected integer literal in IN list, found {other:?}"
                    )))
                }
            }
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => {
                    return Err(SqlError::Parse(format!("expected ',' or ')', found {other:?}")))
                }
            }
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse("CREATE TABLE SALES (trans_id INT, item INT)").unwrap();
        assert_eq!(
            s,
            Statement::CreateTable {
                name: "SALES".into(),
                columns: vec!["trans_id".into(), "item".into()]
            }
        );
    }

    #[test]
    fn parses_insert_values() {
        let s = parse("INSERT INTO SALES VALUES (10, 1), (10, 2)").unwrap();
        assert_eq!(
            s,
            Statement::InsertValues { table: "SALES".into(), rows: vec![vec![10, 1], vec![10, 2]] }
        );
    }

    #[test]
    fn parses_the_paper_c1_query() {
        // Verbatim from Section 3.1.
        let s = parse(
            "INSERT INTO C1
             SELECT r1.item, COUNT(*)
             FROM SALES r1
             GROUP BY r1.item
             HAVING COUNT(*) >= :minsupport",
        )
        .unwrap();
        let Statement::InsertSelect { table, select } = s else { panic!("not InsertSelect") };
        assert_eq!(table, "C1");
        assert_eq!(select.items.len(), 2);
        assert_eq!(select.items[1], SelectItem::CountStar);
        assert_eq!(select.group_by.len(), 1);
        let h = select.having.unwrap();
        assert_eq!(h.op, CmpOp::Ge);
        assert_eq!(h.rhs, Scalar::Param("minsupport".into()));
    }

    #[test]
    fn parses_the_paper_pair_query() {
        // Verbatim from Section 2.
        let s = parse(
            "SELECT r1.trans_id, r1.item, r2.item
             FROM SALES r1, SALES r2
             WHERE r1.trans_id = r2.trans_id AND r1.item <> r2.item",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.predicates.len(), 2);
        assert_eq!(sel.predicates[1].op, CmpOp::Ne);
    }

    #[test]
    fn parses_the_setm_extension_query() {
        // Verbatim from Section 4.1 (k = 3).
        let s = parse(
            "INSERT INTO R3_PRIME
             SELECT p.trans_id, p.item_1, p.item_2, q.item
             FROM R2 p, SALES q
             WHERE q.trans_id = p.trans_id AND q.item > p.item_2",
        )
        .unwrap();
        let Statement::InsertSelect { select, .. } = s else { panic!() };
        assert_eq!(select.items.len(), 4);
        assert_eq!(select.predicates[1].op, CmpOp::Gt);
    }

    #[test]
    fn parses_the_partitioned_merge_query() {
        // The parallel plan's global merge over unioned shard counts.
        let s = parse(
            "INSERT INTO C2
             SELECT p.item_1, p.item_2, SUM(p.cnt)
             FROM C2_PARTS p
             GROUP BY p.item_1, p.item_2
             HAVING SUM(p.cnt) >= :minsupport",
        )
        .unwrap();
        let Statement::InsertSelect { select, .. } = s else { panic!() };
        assert_eq!(
            select.items[2],
            SelectItem::SumCol(ColumnRef { qualifier: Some("p".into()), column: "cnt".into() })
        );
        let h = select.having.unwrap();
        assert_eq!(
            h.agg,
            HavingAgg::Sum(ColumnRef { qualifier: Some("p".into()), column: "cnt".into() })
        );
        assert_eq!(h.op, CmpOp::Ge);
        assert_eq!(h.rhs, Scalar::Param("minsupport".into()));
    }

    #[test]
    fn parses_in_and_not_in() {
        // The constrained extension query's shape: the paper's join
        // predicates plus the compiled constraint conjuncts.
        let s = parse(
            "INSERT INTO R3_PRIME
             SELECT p.trans_id, p.item_1, p.item_2, q.item
             FROM R2 p, SALES q
             WHERE q.trans_id = p.trans_id AND q.item > p.item_2 AND q.item NOT IN (3, 7)",
        )
        .unwrap();
        let Statement::InsertSelect { select, .. } = s else { panic!() };
        assert_eq!(select.predicates.len(), 2);
        assert_eq!(
            select.set_predicates,
            vec![SetPredicate {
                col: ColumnRef { qualifier: Some("q".into()), column: "item".into() },
                items: vec![3, 7],
                negated: true,
            }]
        );
        let s = parse("SELECT item FROM SALES WHERE item IN (1)").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.set_predicates.len(), 1);
        assert!(!sel.set_predicates[0].negated);
        assert_eq!(sel.set_predicates[0].items, vec![1]);
    }

    #[test]
    fn rejects_malformed_in_lists() {
        assert!(parse("SELECT a FROM t WHERE a IN ()").is_err());
        assert!(parse("SELECT a FROM t WHERE a IN (1,)").is_err());
        assert!(parse("SELECT a FROM t WHERE a IN (b)").is_err());
        assert!(parse("SELECT a FROM t WHERE 1 IN (1)").is_err());
        assert!(parse("SELECT a FROM t WHERE a NOT (1)").is_err());
    }

    #[test]
    fn rejects_malformed_aggregates() {
        assert!(parse("SELECT SUM(*) FROM t").is_err());
        assert!(parse("SELECT a FROM t GROUP BY a HAVING SUM >= 2").is_err());
        assert!(parse("SELECT COUNT(a) FROM t").is_err());
    }

    #[test]
    fn parses_order_by_and_wildcard() {
        let s = parse("SELECT * FROM R2 ORDER BY trans_id, item_1").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.items, vec![SelectItem::Wildcard]);
        assert_eq!(sel.order_by.len(), 2);
    }

    #[test]
    fn parses_script() {
        let stmts = parse_script(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1);
             SELECT a FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO").is_err());
        assert!(parse("CREATE TABLE t a INT").is_err());
        assert!(parse("SELECT a FROM t WHERE a ==").is_err());
        assert!(parse("SELECT a FROM t extra garbage tokens ;;").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn alias_forms() {
        let s = parse("SELECT s.item FROM SALES AS s").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].alias.as_deref(), Some("s"));
        let s = parse("SELECT item FROM SALES").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].alias, None);
    }
}
