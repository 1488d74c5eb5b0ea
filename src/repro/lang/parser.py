"""Recursive-descent parser for the ML4all declarative language.

Implements the grammar sketched in Appendix A:

    statement  := run | persist | predict
    run        := [WORD '='] 'run' task 'on' source (',' source)*
                  ['having' having (',' having)*]
                  ['using'  using  (',' using)*]  ';'
    source     := callable | WORD [':' INT ['-' INT]]
    callable   := WORD '(' [WORD] ')'
    having     := 'time' DURATION | 'epsilon' NUMBER | 'max' 'iter' INT
    using      := 'algorithm' WORD | 'convergence' callable | 'step' NUMBER
                | 'sampler' callable | 'batch' INT
    persist    := 'persist' WORD 'on' WORD ';'
    predict    := [WORD '='] 'predict' 'on' source 'with' WORD ';'
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.lang import ast
from repro.lang.lexer import (
    DURATION,
    EOF,
    NUMBER,
    WORD,
    parse_duration,
    tokenize,
)


class Parser:
    """Parses one query string into a list of AST statements."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing --------------------------------------------------
    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.current
        if token.kind != EOF:
            self.pos += 1
        return token

    def peek(self, offset=1):
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def error(self, message):
        token = self.current
        found = token.value or "end of input"
        raise QueryError(
            f"{message} (found {found!r})", line=token.line, column=token.column
        )

    def expect_symbol(self, symbol):
        if not self.current.is_symbol(symbol):
            self.error(f"expected {symbol!r}")
        return self.advance()

    def expect_keyword(self, *names):
        if not self.current.is_keyword(*names):
            self.error(f"expected {' or '.join(names)!r}")
        return self.advance()

    def expect_word(self, what="identifier"):
        if self.current.kind != WORD:
            self.error(f"expected {what}")
        return self.advance().value

    def expect_number(self, what="number"):
        if self.current.kind != NUMBER:
            self.error(f"expected {what}")
        return float(self.advance().value)

    def expect_int(self, what="integer"):
        value = self.expect_number(what)
        if value != int(value):
            self.error(f"expected an integer {what}")
        return int(value)

    # -- grammar ----------------------------------------------------------
    def parse(self):
        """Parse all statements in the input."""
        statements = []
        while self.current.kind != EOF:
            statements.append(self.statement())
        if not statements:
            raise QueryError("empty query")
        return statements

    def statement(self):
        result_name = None
        if self.current.kind == WORD and self.peek().is_symbol("="):
            result_name = self.advance().value
            self.advance()  # '='
        if self.current.is_keyword("run"):
            return self.run_statement(result_name)
        if self.current.is_keyword("predict"):
            return self.predict_statement(result_name)
        if self.current.is_keyword("persist"):
            if result_name is not None:
                self.error("persist does not produce a result to assign")
            return self.persist_statement()
        self.error("expected 'run', 'predict' or 'persist'")

    def run_statement(self, result_name):
        self.expect_keyword("run")
        task = self.expect_word("task name or gradient function")
        if self.current.is_symbol("("):
            # gradient-function call syntax: hinge()
            self.advance()
            self.expect_symbol(")")
        self.expect_keyword("on")
        sources = [self.data_source()]
        while self.current.is_symbol(","):
            self.advance()
            sources.append(self.data_source())
        having = ast.Constraints()
        using = ast.Controls()
        if self.current.is_keyword("having"):
            self.advance()
            having = self.having_clause()
        if self.current.is_keyword("using"):
            self.advance()
            using = self.using_clause()
        self.expect_symbol(";")
        return ast.RunStatement(
            task=task,
            sources=tuple(sources),
            having=having,
            using=using,
            result_name=result_name,
        )

    def data_source(self):
        name = self.expect_word("dataset path or name")
        parser = None
        if self.current.is_symbol("("):
            self.advance()
            inner = self.expect_word("dataset path")
            self.expect_symbol(")")
            parser, name = name, inner
        columns = None
        if self.current.is_symbol(":"):
            self.advance()
            start = self.expect_int("column index")
            end = None
            if self.current.is_symbol("-"):
                self.advance()
                end = self.expect_int("column range end")
                if end < start:
                    self.error("column range end before start")
            columns = ast.ColumnSpec(start, end)
        return ast.DataSource(path=name, parser=parser, columns=columns)

    def having_clause(self):
        time_s = epsilon = max_iter = None
        while True:
            if self.current.is_keyword("time"):
                self.advance()
                token = self.current
                if token.kind == DURATION:
                    self.advance()
                    time_s = parse_duration(token.value, token.line, token.column)
                elif token.kind == NUMBER:
                    # bare seconds, e.g. "time 90"
                    time_s = self.expect_number("duration")
                else:
                    self.error("expected a duration like 1h30m")
            elif self.current.is_keyword("epsilon"):
                self.advance()
                epsilon = self.expect_number("tolerance value")
                if epsilon <= 0:
                    self.error("epsilon must be positive")
            elif self.current.is_keyword("max"):
                self.advance()
                self.expect_keyword("iter")
                max_iter = self.expect_int("iteration count")
                if max_iter < 1:
                    self.error("max iter must be >= 1")
            else:
                self.error("expected 'time', 'epsilon' or 'max iter'")
            if self.current.is_symbol(","):
                # Only continue when the next token starts another having
                # item; otherwise the comma belongs to an outer list.
                if self.peek().is_keyword("time", "epsilon", "max"):
                    self.advance()
                    continue
            break
        return ast.Constraints(time_s=time_s, epsilon=epsilon, max_iter=max_iter)

    def using_clause(self):
        algorithm = convergence = sampler = None
        step = batch = None
        while True:
            if self.current.is_keyword("algorithm"):
                self.advance()
                algorithm = self.expect_word("algorithm name").lower()
            elif self.current.is_keyword("convergence"):
                self.advance()
                convergence = self.callable_name("convergence function")
            elif self.current.is_keyword("step"):
                self.advance()
                step = self.expect_number("step size")
            elif self.current.is_keyword("sampler"):
                self.advance()
                sampler = self.callable_name("sampler name").lower()
            elif self.current.is_keyword("batch"):
                self.advance()
                batch = self.expect_int("batch size")
            else:
                self.error(
                    "expected 'algorithm', 'convergence', 'step', "
                    "'sampler' or 'batch'"
                )
            if self.current.is_symbol(",") and self.peek().is_keyword(
                "algorithm", "convergence", "step", "sampler", "batch"
            ):
                self.advance()
                continue
            break
        return ast.Controls(
            algorithm=algorithm,
            convergence=convergence,
            step=step,
            sampler=sampler,
            batch=batch,
        )

    def callable_name(self, what):
        name = self.expect_word(what)
        if self.current.is_symbol("("):
            self.advance()
            self.expect_symbol(")")
        return name

    def persist_statement(self):
        self.expect_keyword("persist")
        name = self.expect_word("query name")
        self.expect_keyword("on")
        path = self.expect_word("output path")
        self.expect_symbol(";")
        return ast.PersistStatement(name=name, path=path)

    def predict_statement(self, result_name):
        self.expect_keyword("predict")
        self.expect_keyword("on")
        source = self.data_source()
        self.expect_keyword("with")
        model = self.expect_word("model name or path")
        self.expect_symbol(";")
        return ast.PredictStatement(
            source=source, model=model, result_name=result_name
        )


def parse(text):
    """Parse a query string into AST statements."""
    return Parser(text).parse()
