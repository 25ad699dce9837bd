"""Recursive-descent SQL parser."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, parse_date, parse_interval, tokenize


def parse(sql: str) -> ast.SelectStmt:
    """Parse one SELECT statement. A :class:`SqlSyntaxError` from the
    lexer or the parser says where in ``sql`` it arose."""
    try:
        parser = _Parser(tokenize(sql))
        stmt = parser.parse_select()
        parser.accept_symbol(";")
        parser.expect_end()
    except SqlSyntaxError as exc:
        raise exc.locate(sql)
    return stmt


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.current
        where = f" near {token.text!r}" if token.text else " at end of input"
        return SqlSyntaxError(message + where, token.position)

    def at_keyword(self, *words: str) -> bool:
        return self.current.kind == "keyword" and self.current.value in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}")

    def at_symbol(self, symbol: str) -> bool:
        return self.current.kind == "symbol" and self.current.value == symbol

    def accept_symbol(self, symbol: str) -> bool:
        if self.at_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise self.error(f"expected {symbol!r}")

    def expect_ident(self) -> str:
        if self.current.kind == "ident":
            return self.advance().value
        # Non-reserved keywords usable as identifiers in practice.
        if self.current.kind == "keyword" and self.current.value in (
                "date", "first", "last", "row", "range"):
            return self.advance().value
        raise self.error("expected identifier")

    def expect_end(self) -> None:
        if self.current.kind != "end":
            raise self.error("unexpected trailing input")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_select(self) -> ast.SelectStmt:
        ctes: List[Tuple[str, ast.SelectStmt]] = []
        if self.accept_keyword("with"):
            self.accept_keyword("recursive")
            while True:
                name = self.expect_ident()
                self.expect_keyword("as")
                self.expect_symbol("(")
                ctes.append((name, self.parse_select()))
                self.expect_symbol(")")
                if not self.accept_symbol(","):
                    break
        self.expect_keyword("select")
        distinct = False
        if self.accept_keyword("distinct"):
            distinct = True
        else:
            self.accept_keyword("all")
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())

        from_ = None
        if self.accept_keyword("from"):
            from_ = self.parse_table_expr()
        where = self.parse_expr() if self.accept_keyword("where") else None
        group_by: List[ast.Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept_symbol(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("having") else None
        windows: List[Tuple[str, ast.WindowDef]] = []
        if self.accept_keyword("window"):
            while True:
                name = self.expect_ident()
                self.expect_keyword("as")
                self.expect_symbol("(")
                windows.append((name, self.parse_window_def()))
                self.expect_symbol(")")
                if not self.accept_symbol(","):
                    break
        order_by: List[ast.SortItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self.parse_sort_items()
        limit = None
        if self.accept_keyword("limit"):
            token = self.current
            if token.kind != "number" or not isinstance(token.value, int):
                raise self.error("LIMIT expects an integer")
            limit = self.advance().value
        return ast.SelectStmt(
            items=tuple(items), from_=from_, where=where,
            group_by=tuple(group_by), having=having, windows=tuple(windows),
            order_by=tuple(order_by), limit=limit, distinct=distinct,
            ctes=tuple(ctes))

    def parse_select_item(self) -> ast.SelectItem:
        if self.at_symbol("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # qualified star: ident '.' '*'
        if (self.current.kind == "ident"
                and self.tokens[self.pos + 1].kind == "symbol"
                and self.tokens[self.pos + 1].value == "."
                and self.tokens[self.pos + 2].kind == "symbol"
                and self.tokens[self.pos + 2].value == "*"):
            table = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(table))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def parse_table_expr(self) -> ast.TableExpr:
        left = self.parse_table_primary()
        while True:
            if self.accept_symbol(","):
                right = self.parse_table_primary()
                left = ast.Join(left, right, kind="cross")
                continue
            if self.accept_keyword("cross"):
                self.expect_keyword("join")
                right = self.parse_table_primary()
                left = ast.Join(left, right, kind="cross")
                continue
            kind = "inner"
            if self.at_keyword("left"):
                self.advance()
                kind = "left"
            elif self.accept_keyword("inner"):
                kind = "inner"
            elif not self.at_keyword("join"):
                break
            self.expect_keyword("join")
            right = self.parse_table_primary()
            self.expect_keyword("on")
            condition = self.parse_expr()
            left = ast.Join(left, right, kind=kind, condition=condition)
        return left

    def parse_table_primary(self) -> ast.TableExpr:
        if self.accept_symbol("("):
            select = self.parse_select()
            self.expect_symbol(")")
            self.accept_keyword("as")
            alias = self.expect_ident()
            return ast.DerivedTable(select, alias)
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().value
        return ast.NamedTable(name, alias)

    # ------------------------------------------------------------------
    # window definitions
    # ------------------------------------------------------------------
    def parse_window_def(self) -> ast.WindowDef:
        partition: List[ast.Expr] = []
        order: List[ast.SortItem] = []
        frame = None
        if self.accept_keyword("partition"):
            self.expect_keyword("by")
            partition.append(self.parse_expr())
            while self.accept_symbol(","):
                partition.append(self.parse_expr())
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order = self.parse_sort_items()
        if self.at_keyword("rows", "range", "groups"):
            frame = self.parse_frame()
        return ast.WindowDef(tuple(partition), tuple(order), frame)

    def parse_frame(self) -> ast.FrameAst:
        mode = self.advance().value  # rows | range | groups
        if self.accept_keyword("between"):
            start = self.parse_frame_bound()
            self.expect_keyword("and")
            end = self.parse_frame_bound()
        else:
            start = self.parse_frame_bound()
            end = ast.FrameBoundAst("current_row")
        exclusion = "no_others"
        if self.accept_keyword("exclude"):
            if self.accept_keyword("no"):
                self.expect_keyword("others")
            elif self.accept_keyword("current"):
                self.expect_keyword("row")
                exclusion = "current_row"
            elif self.accept_keyword("group"):
                exclusion = "group"
            elif self.accept_keyword("ties"):
                exclusion = "ties"
            else:
                raise self.error("expected EXCLUDE option")
        return ast.FrameAst(mode, start, end, exclusion)

    def parse_frame_bound(self) -> ast.FrameBoundAst:
        if self.accept_keyword("unbounded"):
            if self.accept_keyword("preceding"):
                return ast.FrameBoundAst("unbounded_preceding")
            self.expect_keyword("following")
            return ast.FrameBoundAst("unbounded_following")
        if self.accept_keyword("current"):
            self.expect_keyword("row")
            return ast.FrameBoundAst("current_row")
        offset = self.parse_expr()
        if self.accept_keyword("preceding"):
            return ast.FrameBoundAst("preceding", offset)
        self.expect_keyword("following")
        return ast.FrameBoundAst("following", offset)

    def parse_sort_items(self) -> List[ast.SortItem]:
        items = [self.parse_sort_item()]
        while self.accept_symbol(","):
            items.append(self.parse_sort_item())
        return items

    def parse_sort_item(self) -> ast.SortItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        nulls_last: Optional[bool] = None
        if self.accept_keyword("nulls"):
            if self.accept_keyword("first"):
                nulls_last = False
            else:
                self.expect_keyword("last")
                nulls_last = True
        return ast.SortItem(expr, descending, nulls_last)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_keyword("or"):
            left = ast.BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_keyword("and"):
            left = ast.BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Expr:
        left = self.parse_additive()
        while True:
            if self.current.kind == "symbol" and self.current.value in (
                    "=", "<>", "!=", "<", "<=", ">", ">="):
                op = self.advance().value
                if op == "!=":
                    op = "<>"
                left = ast.BinaryOp(op, left, self.parse_additive())
                continue
            negated = False
            save = self.pos
            if self.accept_keyword("not"):
                negated = True
            if self.accept_keyword("between"):
                low = self.parse_additive()
                self.expect_keyword("and")
                high = self.parse_additive()
                left = ast.BetweenExpr(left, low, high, negated)
                continue
            if self.accept_keyword("in"):
                self.expect_symbol("(")
                if self.at_keyword("select", "with"):
                    select = self.parse_select()
                    self.expect_symbol(")")
                    left = ast.InSubquery(left, select, negated)
                    continue
                items = [self.parse_expr()]
                while self.accept_symbol(","):
                    items.append(self.parse_expr())
                self.expect_symbol(")")
                left = ast.InExpr(left, tuple(items), negated)
                continue
            if self.accept_keyword("like"):
                left = ast.LikeExpr(left, self.parse_additive(), negated)
                continue
            if negated:
                self.pos = save  # NOT belongs to an enclosing context
                break
            if self.accept_keyword("is"):
                negated = self.accept_keyword("not")
                self.expect_keyword("null")
                left = ast.IsNullExpr(left, negated)
                continue
            break
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            if self.at_symbol("+") or self.at_symbol("-") \
                    or self.at_symbol("||"):
                op = self.advance().value
                left = ast.BinaryOp(op, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            if self.at_symbol("*") or self.at_symbol("/") \
                    or self.at_symbol("%"):
                op = self.advance().value
                left = ast.BinaryOp(op, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            return ast.UnaryOp("-", self.parse_unary())
        if self.accept_symbol("+"):
            return self.parse_unary()
        return self.parse_primary()

    # ------------------------------------------------------------------
    # primary expressions
    # ------------------------------------------------------------------
    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "param":
            if isinstance(token.value, int) and token.value < 1:
                raise self.error("parameter numbers start at $1")
            self.advance()
            if isinstance(token.value, int):
                return ast.Parameter(index=token.value)
            return ast.Parameter(name=token.value)
        if self.accept_keyword("null"):
            return ast.Literal(None)
        if self.accept_keyword("true"):
            return ast.Literal(True)
        if self.accept_keyword("false"):
            return ast.Literal(False)
        if self.at_keyword("date") and self.tokens[self.pos + 1].kind == "string":
            self.advance()
            text = self.advance()
            return ast.Literal(parse_date(text.value, text.position))
        if self.at_keyword("interval"):
            self.advance()
            if self.current.kind != "string":
                raise self.error("INTERVAL expects a string literal")
            text = self.advance()
            return ast.IntervalLiteral(parse_interval(text.value,
                                                      text.position),
                                       text.value)
        if self.accept_keyword("case"):
            return self.parse_case()
        if self.accept_keyword("cast"):
            self.expect_symbol("(")
            expr = self.parse_expr()
            self.expect_keyword("as")
            type_name = self.expect_ident() if self.current.kind == "ident" \
                else self.advance().value
            self.expect_symbol(")")
            return ast.CastExpr(expr, type_name)
        if self.accept_keyword("exists"):
            self.expect_symbol("(")
            select = self.parse_select()
            self.expect_symbol(")")
            return ast.ExistsExpr(select)
        if self.accept_symbol("("):
            if self.at_keyword("select", "with"):
                select = self.parse_select()
                self.expect_symbol(")")
                return ast.ScalarSubquery(select)
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.kind == "ident" or (token.kind == "keyword"
                                     and token.value in ("date", "first",
                                                         "last", "row")):
            return self.parse_ident_expr()
        raise self.error("expected an expression")

    def parse_case(self) -> ast.Expr:
        operand = None
        if not self.at_keyword("when"):
            operand = self.parse_expr()
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("when"):
            cond = self.parse_expr()
            if operand is not None:
                cond = ast.BinaryOp("=", operand, cond)
            self.expect_keyword("then")
            whens.append((cond, self.parse_expr()))
        else_ = self.parse_expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return ast.CaseExpr(tuple(whens), else_)

    def parse_ident_expr(self) -> ast.Expr:
        name = self.advance().value
        if self.accept_symbol("."):
            column = self.expect_ident()
            return ast.ColumnRef(column, table=name)
        if not self.at_symbol("("):
            return ast.ColumnRef(name)
        return self.parse_func_call(name)

    def parse_func_call(self, name: str) -> ast.Expr:
        self.expect_symbol("(")
        distinct = False
        star = False
        args: List[ast.Expr] = []
        order_by: List[ast.SortItem] = []
        if self.accept_symbol("*"):
            star = True
        elif not self.at_symbol(")"):
            if self.accept_keyword("distinct"):
                distinct = True
            if self.accept_keyword("order"):
                self.expect_keyword("by")
                order_by = self.parse_sort_items()
            else:
                args.append(self.parse_expr())
                while self.accept_symbol(","):
                    if self.accept_keyword("order"):
                        self.expect_keyword("by")
                        order_by = self.parse_sort_items()
                        break
                    args.append(self.parse_expr())
                if not order_by and self.accept_keyword("order"):
                    self.expect_keyword("by")
                    order_by = self.parse_sort_items()
        ignore_nulls = False
        if self.accept_keyword("ignore"):
            self.expect_keyword("nulls")
            ignore_nulls = True
        elif self.accept_keyword("respect"):
            self.expect_keyword("nulls")
        self.expect_symbol(")")

        from_last = False
        if self.at_keyword("from") and self.tokens[self.pos + 1].kind == \
                "keyword" and self.tokens[self.pos + 1].value == "last":
            self.advance()
            self.advance()
            from_last = True
        if self.accept_keyword("ignore"):
            self.expect_keyword("nulls")
            ignore_nulls = True
        elif self.at_keyword("respect"):
            self.advance()
            self.expect_keyword("nulls")

        within_group: List[ast.SortItem] = []
        if self.accept_keyword("within"):
            self.expect_keyword("group")
            self.expect_symbol("(")
            self.expect_keyword("order")
            self.expect_keyword("by")
            within_group = self.parse_sort_items()
            self.expect_symbol(")")

        filter_where = None
        if self.accept_keyword("filter"):
            self.expect_symbol("(")
            self.expect_keyword("where")
            filter_where = self.parse_expr()
            self.expect_symbol(")")

        call = ast.FuncCall(
            name=name, args=tuple(args), distinct=distinct,
            order_by=tuple(order_by), within_group=tuple(within_group),
            filter_where=filter_where, ignore_nulls=ignore_nulls,
            from_last=from_last, star=star)

        if self.accept_keyword("over"):
            if self.accept_symbol("("):
                window: object = self.parse_window_def()
                self.expect_symbol(")")
            else:
                window = self.expect_ident()
            return ast.WindowFunc(call, window)
        return call
