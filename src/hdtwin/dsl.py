"""Declarative specification language for hybrid dynamical models.

A model spec is line-oriented text:

    # comments start with '#', blank lines are ignored
    param NAME = NUMBER
    mlp NAME(INPUT, ...) hidden [W, ...] act {relu|leaky_relu|tanh} outputs N
    d(STATE)/dt = EXPR [+ NAME[i]]

one derivative line per state variable, in schema order.  An expression
is ordinary infix math over numbers, declared parameter names, state and
action variable names, and the reserved time symbol ``t``.  Binary
operators are ``+ - * / ^`` with standard precedence (``^`` binds
tightest and is right-associative); unary functions are ``log exp sin
cos sqrt abs sigmoid tanh`` plus unary minus.  A network output may only
appear as the final additive term of a derivative line (the residual).

Specs are immutable after construction and all operations here are pure.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

UNARY_FUNCS = ("log", "exp", "sin", "cos", "sqrt", "abs", "sigmoid", "tanh")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")
ACTIVATIONS = ("relu", "leaky_relu", "tanh")

TIME_SYMBOL = "t"

# a spec with more optimizable parameters than this is not valid; the cap
# also bounds the memory that drawing its initial weights takes
PARAM_COUNT_CAP = 100_000

# the most nodes from an expression's root to a leaf, and the most levels a
# derivative line nests (parentheses, function calls, unary minus and '^'
# operands, one inside another).  The parser takes 5 frames per level, ==,
# hash and repr at most 4 per node, so at the cap they use about half of
# Python's default recursion limit of 1000 and leave the rest to callers.
EXPR_DEPTH_CAP = 100

_OP_TOKEN = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}
_TOKEN_OF_OP = {v: k for k, v in _OP_TOKEN.items()}


class DslError(Exception):
    """Base error for spec text that cannot be turned into a ModelSpec."""


class ParseError(DslError):
    def __init__(self, message: str, line: int, col: int, text: str = ""):
        self.line = line
        self.col = col
        self.text = text
        where = f"line {line}, col {col}"
        if text:
            where += f" in {text!r}"
        super().__init__(f"{where}: {message}")


# ---------------------------------------------------------------------------
# Spec data types


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    kind is one of "const", "ref", "time", "unary", "binary".  "ref"
    leaves carry a bare name; whether it is a state, action, or parameter
    is decided when the spec is validated against a SystemSchema.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    op: str = ""
    args: tuple["Expr", ...] = ()

    @staticmethod
    def const(v: float) -> "Expr":
        return Expr("const", value=float(v))

    @staticmethod
    def ref(name: str) -> "Expr":
        return Expr("time") if name == TIME_SYMBOL else Expr("ref", name=name)

    @staticmethod
    def unary(op: str, a: "Expr") -> "Expr":
        return Expr("unary", op=op, args=(a,))

    @staticmethod
    def binary(op: str, a: "Expr", b: "Expr") -> "Expr":
        return Expr("binary", op=op, args=(a, b))

    def walk(self) -> Iterator["Expr"]:
        yield self
        for a in self.args:
            yield from a.walk()


@dataclass(frozen=True)
class ParamDecl:
    name: str
    init: float


@dataclass(frozen=True)
class MlpDecl:
    name: str
    inputs: tuple[str, ...]
    hidden: tuple[int, ...]
    activation: str
    outputs: int

    def layer_dims(self) -> list[int]:
        return [len(self.inputs), *self.hidden, self.outputs]

    def weight_count(self) -> int:
        dims = self.layer_dims()
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass(frozen=True)
class ComponentDef:
    target: str
    expr: Expr
    residual: tuple[str, int] | None = None  # (mlp name, output index)


@dataclass(frozen=True)
class ModelSpec:
    components: tuple[ComponentDef, ...]
    params: tuple[ParamDecl, ...] = ()
    mlps: tuple[MlpDecl, ...] = ()

    def param_count(self) -> int:
        """Total optimizable scalar count: named params plus network weights."""
        return len(self.params) + sum(m.weight_count() for m in self.mlps)


@dataclass(frozen=True)
class VarSpec:
    name: str
    low: float
    high: float

    def __post_init__(self):
        if not self.low <= self.high:
            raise ValueError(f"variable {self.name}: range low {self.low} > high {self.high}")


@dataclass(frozen=True)
class SystemSchema:
    states: tuple[VarSpec, ...]
    actions: tuple[VarSpec, ...] = ()
    time_units: str = "days"
    dt: float = 1.0

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("schema needs at least one state variable")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.states)

    @property
    def action_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.actions)

    @property
    def d_x(self) -> int:
        return len(self.states)

    @property
    def d_u(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[()\[\]=,+\-*/^])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str  # "num" | "ident" | "sym" | "end"
    text: str
    col: int


def _lex_line(text: str, lineno: int) -> list[_Tok]:
    toks: list[_Tok] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1, text)
        toks.append(_Tok(kind, m.group(), m.start() + 1))
    toks.append(_Tok("end", "", len(text) + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

# Internal marker for a `name[i]` network-output reference; it is only
# legal as the trailing additive term of a component and never survives
# into a ModelSpec expression tree.
_MLPREF = "mlpref"


class _LineParser:
    def __init__(self, toks: list[_Tok], lineno: int, text: str):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno
        self.text = text
        self.nesting = 0  # parse_unary calls open on the stack

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Tok | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.lineno, tok.col, self.text)

    def expect(self, text: str, what: str = "") -> _Tok:
        tok = self.next()
        if tok.text != text:
            found = repr(tok.text) if tok.kind != "end" else "end of line"
            raise self.error(f"expected {what or text!r}, found {found}", tok)
        return tok

    def expect_ident(self, what: str = "a name") -> _Tok:
        tok = self.next()
        if tok.kind != "ident":
            found = repr(tok.text) if tok.kind != "end" else "end of line"
            raise self.error(f"expected {what}, found {found}", tok)
        return tok

    def expect_number(self, what: str = "a number") -> float:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        tok = self.next()
        if tok.kind != "num":
            raise self.error(f"expected {what}", tok)
        v = float(tok.text)
        return -v if neg else v

    def expect_int(self, what: str) -> int:
        tok = self.next()
        if tok.kind != "num" or not float(tok.text).is_integer():
            raise self.error(f"expected {what} (an integer)", tok)
        return int(float(tok.text))

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def require_end(self):
        if not self.at_end():
            raise self.error(f"unexpected trailing input {self.peek().text!r}")

    # expression grammar: add -> mul -> unary -> pow -> atom

    def parse_expr(self) -> Expr:
        node = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.next()
            if self.at_end():
                raise self.error(f"missing right operand for {op.text!r}", op)
            node = Expr.binary(_OP_TOKEN[op.text], node, self.parse_mul())
        return node

    def parse_mul(self) -> Expr:
        node = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            if self.at_end():
                raise self.error(f"missing right operand for {op.text!r}", op)
            node = Expr.binary(_OP_TOKEN[op.text], node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        # every nesting (parentheses, a call, unary minus, a '^' operand)
        # recurses through here, so counting open calls bounds the stack
        self.nesting += 1
        if self.nesting > EXPR_DEPTH_CAP:
            raise ParseError(f"expression nests deeper than the allowed {EXPR_DEPTH_CAP} levels",
                             self.lineno, self.peek().col)
        if self.peek().text == "-":
            op = self.next()
            if self.at_end():
                raise self.error("missing operand for unary '-'", op)
            node = self.parse_unary()
            node = Expr.const(-node.value) if node.kind == "const" else Expr.unary("neg", node)
        else:
            node = self.parse_pow()
        self.nesting -= 1
        return node

    def parse_pow(self) -> Expr:
        base = self.parse_atom()
        if self.peek().text == "^":
            op = self.next()
            if self.at_end():
                raise self.error(f"missing right operand for {op.text!r}", op)
            return Expr.binary("pow", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Expr.const(float(tok.text))
        if tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt.text == "(":
                if tok.text not in UNARY_FUNCS:
                    raise self.error(
                        f"unknown function {tok.text!r} (available: {', '.join(UNARY_FUNCS)})", tok
                    )
                self.next()
                arg = self.parse_expr()
                if self.peek().text == ",":
                    raise self.error(f"{tok.text} takes exactly one argument")
                self.expect(")")
                return Expr.unary(tok.text, arg)
            if nxt.text == "[":
                self.next()
                idx = self.expect_int("a network output index")
                self.expect("]")
                return Expr(_MLPREF, name=tok.text, value=float(idx))
            return Expr.ref(tok.text)
        found = repr(tok.text) if tok.kind != "end" else "end of line"
        raise self.error(f"expected a value, found {found}", tok)


def _parse_param_line(p: _LineParser) -> ParamDecl:
    p.expect_ident()  # 'param'
    name = p.expect_ident("a parameter name").text
    p.expect("=")
    init = p.expect_number("the initial value")
    p.require_end()
    return ParamDecl(name, init)


def _parse_mlp_line(p: _LineParser) -> MlpDecl:
    p.expect_ident()  # 'mlp'
    name = p.expect_ident("a network name").text
    p.expect("(")
    inputs = [p.expect_ident("an input name").text]
    while p.peek().text == ",":
        p.next()
        inputs.append(p.expect_ident("an input name").text)
    p.expect(")")
    p.expect("hidden")
    p.expect("[")
    hidden: list[int] = []
    if p.peek().text != "]":
        hidden.append(p.expect_int("a layer width"))
        while p.peek().text == ",":
            p.next()
            hidden.append(p.expect_int("a layer width"))
    p.expect("]")
    p.expect("act")
    act = p.expect_ident("an activation name").text
    p.expect("outputs")
    outputs = p.expect_int("the output count")
    p.require_end()
    return MlpDecl(name, tuple(inputs), tuple(hidden), act, outputs)


def _parse_component_line(p: _LineParser) -> tuple[str, Expr]:
    p.expect_ident()  # 'd'
    p.expect("(")
    target = p.expect_ident("a state variable name").text
    p.expect(")")
    p.expect("/")
    p.expect("dt")
    p.expect("=")
    if p.at_end():
        raise p.error("missing derivative expression")
    col = p.peek().col
    expr = p.parse_expr()
    p.require_end()
    depth = _depth(expr)
    if depth > EXPR_DEPTH_CAP:
        raise ParseError(f"expression is {depth} levels deep, more than the allowed"
                         f" {EXPR_DEPTH_CAP}", p.lineno, col)
    return target, expr


def _depth(e: Expr) -> int:
    """The node count of e's longest root-to-leaf path, found without recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((a, depth + 1) for a in node.args)
    return deepest


def _split_residual(target: str, expr: Expr, lineno: int) -> ComponentDef:
    residual = None
    if expr.kind == _MLPREF:
        residual = (expr.name, int(expr.value))
        expr = Expr.const(0.0)
    elif expr.kind == "binary" and expr.op == "add" and expr.args[1].kind == _MLPREF:
        residual = (expr.args[1].name, int(expr.args[1].value))
        expr = expr.args[0]
    for node in expr.walk():
        if node.kind == _MLPREF:
            raise ParseError(
                f"network output {node.name}[{int(node.value)}] may only appear as the"
                f" final additive term of d({target})/dt",
                lineno,
                1,
            )
    return ComponentDef(target, expr, residual)


def parse_model_spec(text: str) -> ModelSpec:
    """Parse DSL source into a ModelSpec.

    Raises ParseError (with line/column) on grammar only: bad tokens,
    malformed lines, an unknown function, a network output anywhere but
    the end of a derivative line, or an expression that nests or reaches
    deeper than EXPR_DEPTH_CAP.  Names and residual networks are checked
    by `validate`, as for a spec built in code.
    """
    params: list[ParamDecl] = []
    mlps: list[MlpDecl] = []
    components: list[ComponentDef] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = _lex_line(line, lineno)
        p = _LineParser(toks, lineno, line)
        head = p.peek()
        if head.text == "param":
            params.append(_parse_param_line(p))
        elif head.text == "mlp":
            mlps.append(_parse_mlp_line(p))
        elif head.text == "d":
            components.append(_split_residual(*_parse_component_line(p), lineno))
        else:
            raise ParseError(
                f"unrecognized line (expected 'param', 'mlp', or 'd(...)/dt = ...'),"
                f" found {head.text!r}",
                lineno,
                head.col,
                line,
            )

    if not components:
        raise ParseError("spec declares no derivative components", max(1, text.count("\n") + 1), 1)
    return ModelSpec(tuple(components), tuple(params), tuple(mlps))


# ---------------------------------------------------------------------------
# Validation against a schema


def validate(spec: ModelSpec, schema: SystemSchema) -> list[Violation]:
    """Check every spec invariant against a schema.

    Returns an empty list iff the spec is well-formed and has at most
    PARAM_COUNT_CAP optimizable parameters; messages are phrased for
    relaying back to a model-writing agent verbatim.
    """
    out: list[Violation] = []
    states = set(schema.state_names)
    actions = set(schema.action_names)

    declared: dict[str, str] = {}
    for p in spec.params:
        if p.name in declared:
            out.append(Violation("duplicate-name", f"parameter {p.name!r} declared twice"))
        declared[p.name] = "param"
        if not _finite(p.init):
            out.append(Violation("non-finite", f"parameter {p.name!r} has non-finite init {p.init}"))
        if p.name == TIME_SYMBOL:
            out.append(Violation("reserved-name", f"{TIME_SYMBOL!r} is the time symbol and cannot name a parameter"))
        elif p.name in states or p.name in actions:
            out.append(Violation("name-collision", f"parameter {p.name!r} shadows a schema variable"))
    for m in spec.mlps:
        if m.name in declared:
            out.append(Violation("duplicate-name", f"name {m.name!r} declared twice"))
        declared[m.name] = "mlp"
        if not m.inputs:
            out.append(Violation("mlp-shape", f"network {m.name!r} has no inputs"))
        if any(w < 1 for w in m.hidden):
            out.append(Violation("mlp-shape", f"network {m.name!r} has a hidden width < 1"))
        if m.outputs < 1:
            out.append(Violation("mlp-shape", f"network {m.name!r} must have outputs >= 1"))
        if m.activation not in ACTIVATIONS:
            out.append(
                Violation(
                    "mlp-activation",
                    f"network {m.name!r}: unknown activation {m.activation!r}"
                    f" (available: {', '.join(ACTIVATIONS)})",
                )
            )
        for name in m.inputs:
            if name != TIME_SYMBOL and name not in states and name not in actions:
                out.append(
                    Violation(
                        "unresolved-symbol",
                        f"network {m.name!r} input {name!r} is not a state, action, or {TIME_SYMBOL!r}",
                    )
                )

    targets = [c.target for c in spec.components]
    if len(targets) != schema.d_x:
        out.append(
            Violation(
                "component-count",
                f"spec defines {len(targets)} derivative component(s) but the system has"
                f" {schema.d_x} state variable(s) ({', '.join(schema.state_names)})",
            )
        )
    seen: set[str] = set()
    for name in targets:
        if name in seen:
            out.append(Violation("duplicate-name", f"two derivative lines for state {name!r}"))
        seen.add(name)
        if name not in states:
            out.append(Violation("component-unknown", f"d({name})/dt does not match any state variable"))
    if set(targets) == states and len(targets) == schema.d_x:
        if targets != list(schema.state_names):
            out.append(
                Violation(
                    "component-order",
                    "derivative lines must follow the schema's state order: "
                    + ", ".join(schema.state_names),
                )
            )

    mlp_by_name = {m.name: m for m in spec.mlps}
    for comp in spec.components:
        for node in comp.expr.walk():
            if node.kind == "ref":
                name = node.name
                if name in states or name in actions or declared.get(name) == "param":
                    if declared.get(name) == "mlp":
                        out.append(Violation("name-collision", f"{name!r} is a network, not a value"))
                    continue
                if declared.get(name) == "mlp":
                    out.append(
                        Violation(
                            "unresolved-symbol",
                            f"network {name!r} must be referenced as {name}[i] at the end of a derivative line",
                        )
                    )
                else:
                    out.append(
                        Violation(
                            "unresolved-symbol",
                            f"d({comp.target})/dt references {name!r}, which is not a state,"
                            " action, parameter, or the time symbol",
                        )
                    )
            elif node.kind == "const" and not _finite(node.value):
                out.append(Violation("non-finite", f"d({comp.target})/dt contains a non-finite constant"))
            elif node.kind == "unary" and node.op not in UNARY_FUNCS + ("neg",):
                out.append(Violation("unknown-op", f"unknown unary operator {node.op!r}"))
            elif node.kind == "binary" and node.op not in BINARY_OPS:
                out.append(Violation("unknown-op", f"unknown binary operator {node.op!r}"))
        if comp.residual is not None:
            name, idx = comp.residual
            decl = mlp_by_name.get(name)
            if decl is None:
                out.append(Violation("residual-unresolved", f"d({comp.target})/dt adds undeclared network {name!r}"))
            elif not 0 <= idx < decl.outputs:
                out.append(
                    Violation(
                        "residual-unresolved",
                        f"{name}[{idx}] is out of range for network {name!r} with {decl.outputs} output(s)",
                    )
                )
    if spec.param_count() > PARAM_COUNT_CAP:
        out.append(Violation("param-cap", f"the specification has {spec.param_count()}"
                             f" optimizable parameters, more than the allowed"
                             f" {PARAM_COUNT_CAP}; use smaller networks"))
    return out


def _finite(v: float) -> bool:
    return v == v and abs(v) != float("inf")


# ---------------------------------------------------------------------------
# Canonical form and structural fingerprint

_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_ATOM_PREC = 5


class CanonicalForm(NamedTuple):
    text: str
    fingerprint: int


def _expr_prec(e: Expr) -> int:
    if e.kind == "binary":
        return _PRECEDENCE[e.op]
    if e.kind == "unary" and e.op == "neg":
        return _PRECEDENCE["neg"]
    if e.kind == "const" and math.copysign(1.0, e.value) < 0:
        return _PRECEDENCE["neg"]  # prints with a leading '-', -0.0 included
    return _ATOM_PREC


def format_expr(e: Expr) -> str:
    if e.kind == "const":
        return repr(float(e.value))
    if e.kind == "ref":
        return e.name
    if e.kind == "time":
        return TIME_SYMBOL
    if e.kind == "unary":
        if e.op == "neg":
            inner = format_expr(e.args[0])
            if _expr_prec(e.args[0]) < _PRECEDENCE["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({format_expr(e.args[0])})"
    prec = _PRECEDENCE[e.op]
    left, right = e.args
    lt, rt = format_expr(left), format_expr(right)
    if e.op == "pow":  # right-associative
        if _expr_prec(left) <= prec:
            lt = f"({lt})"
        if _expr_prec(right) < prec:
            rt = f"({rt})"
    else:  # left-associative
        if _expr_prec(left) < prec:
            lt = f"({lt})"
        if _expr_prec(right) <= prec:
            rt = f"({rt})"
    return f"{lt} {_TOKEN_OF_OP[e.op]} {rt}"


def _component_line(c: ComponentDef) -> str:
    line = f"d({c.target})/dt = {format_expr(c.expr)}"
    if c.residual is not None:
        name, idx = c.residual
        if c.expr == Expr.const(0.0):
            line = f"d({c.target})/dt = {name}[{idx}]"
        else:
            line += f" + {name}[{idx}]"
    return line


def _mlp_line(m: MlpDecl) -> str:
    widths = ", ".join(str(w) for w in m.hidden)
    return (
        f"mlp {m.name}({', '.join(m.inputs)}) hidden [{widths}]"
        f" act {m.activation} outputs {m.outputs}"
    )


def canonicalize(spec: ModelSpec) -> CanonicalForm:
    """Render a spec to its canonical text plus a 64-bit structural fingerprint.

    Canonical text is whitespace-normalized with parameters and networks
    sorted by name and components kept in their (schema) order.  The
    fingerprint hashes the same text with parameter init values stripped,
    so two specs that differ only in inits are considered identical;
    canonicalize(parse(text)) is a fixed point.
    """
    params = sorted(spec.params, key=lambda p: p.name)
    mlps = sorted(spec.mlps, key=lambda m: m.name)
    lines = [f"param {p.name} = {repr(float(p.init))}" for p in params]
    struct_lines = [f"param {p.name}" for p in params]
    mlp_lines = [_mlp_line(m) for m in mlps]
    comp_lines = [_component_line(c) for c in spec.components]
    text = "\n".join(lines + mlp_lines + comp_lines) + "\n"
    structural = "\n".join(struct_lines + mlp_lines + comp_lines) + "\n"
    digest = hashlib.blake2b(structural.encode("utf-8"), digest_size=8).digest()
    return CanonicalForm(text, int.from_bytes(digest, "big"))


def dsl_skeleton(schema: SystemSchema) -> str:
    """The fill-in scaffold handed to a model-writing agent."""
    inputs = ", ".join(schema.state_names + schema.action_names) or TIME_SYMBOL
    lines = [
        "# Fill in this skeleton. Lines starting with '#' are comments.",
        "# Declare scalar parameters (one line each):",
        "#     param NAME = INITIAL_VALUE",
        "# Optionally declare residual networks (one line each):",
        f"#     mlp NAME({inputs}) hidden [16, 8] act relu outputs {schema.d_x}",
        "# where inputs are state/action variable names or t (time), act is one of"
        " relu, leaky_relu, tanh.",
        "# Then define exactly one derivative line per state variable, in this order.",
        "# A derivative line may optionally end with '+ NAME[i]' to add network output i.",
    ]
    lines += [f"d({name})/dt = <fill in>" for name in schema.state_names]
    return "\n".join(lines)
