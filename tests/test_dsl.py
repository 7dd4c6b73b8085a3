from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_schema, random_spec
from hdtwin.dsl import (
    EXPR_DEPTH_CAP,
    ComponentDef,
    Expr,
    MlpDecl,
    ModelSpec,
    ParamDecl,
    ParseError,
    SystemSchema,
    VarSpec,
    canonicalize,
    dsl_skeleton,
    format_expr,
    parse_model_spec,
    validate,
)
from hdtwin.agents import check_proposal
from hdtwin.engine import Dataset, Evaluator, Trajectory, init_params
from hdtwin.optim import OptimConfig, fit

SCHEMA_1D = SystemSchema(states=(VarSpec("x", 0.0, 100.0),))
SCHEMA_2D = SystemSchema(states=(VarSpec("x", 0.0, 100.0), VarSpec("y", 0.0, 100.0)))
NET1 = "mlp net(x) hidden [4] act relu outputs 1\n"


def spec_equal(a: ModelSpec, b: ModelSpec) -> bool:
    key = lambda d: d.name
    return (
        a.components == b.components
        and sorted(a.params, key=key) == sorted(b.params, key=key)
        and sorted(a.mlps, key=key) == sorted(b.mlps, key=key)
    )


# ---------------------------------------------------------------------------
# Parsing


def test_parse_logistic_growth():
    text = """
    param alpha = 0.1
    param kappa = 1000.0
    d(x)/dt = alpha * x * (1 - x / kappa)
    """
    spec = parse_model_spec(text)
    assert len(spec.components) == 1
    assert len(spec.params) == 2
    assert spec.components[0].target == "x"
    # rN(1 - N/K): mul(mul(r, N), sub(1, div(N, K)))
    e = spec.components[0].expr
    assert e.op == "mul"
    assert e.args[0].op == "mul"
    assert e.args[0].args[0] == Expr.ref("alpha")
    assert e.args[1].op == "sub"
    assert e.args[1].args[1].op == "div"


def test_parse_mlp_and_residual():
    text = """
    param a = 1.0
    mlp net(x, y, t) hidden [16, 8] act leaky_relu outputs 2
    d(x)/dt = a * x + net[0]
    d(y)/dt = net[1]
    """
    spec = parse_model_spec(text)
    assert spec.mlps[0] == MlpDecl("net", ("x", "y", "t"), (16, 8), "leaky_relu", 2)
    assert spec.components[0].residual == ("net", 0)
    assert spec.components[1].residual == ("net", 1)
    assert spec.components[1].expr == Expr.const(0.0)
    assert spec.param_count() == 1 + (3 * 16 + 16) + (16 * 8 + 8) + (8 * 2 + 2)


def test_parse_dangling_operator_names_it():
    with pytest.raises(ParseError, match=r"'\*'"):
        parse_model_spec("param beta = 1.0\nd(x)/dt = beta *")


def test_parse_errors_carry_location():
    for text, line, col, message in [
        ("d(x)/dt = 1 +\nd(y)/dt = 2", 1, 13, "missing right operand for '+'"),
        ("d(x)/dt = 1 ? 2", 1, 13, "unexpected character '?'"),
        ("d(x)/dt = relu(x)", 1, 11, "unknown function 'relu'"),
        (NET1 + "d(x)/dt = 2 * net[0]", 2, 1, "final additive term"),
        (NET1 + "d(x)/dt = net[0] + x", 2, 1, "final additive term"),
        (NET1 + "d(x)/dt = x - net[0]", 2, 1, "final additive term"),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_model_spec(text)
        assert (err.value.line, err.value.col) == (line, col), text


@pytest.mark.parametrize("line, col, message", [
    ("mlp net(x) hiden [4] act relu outputs 1", 12, "expected 'hidden', found 'hiden'"),
    ("mlp net(x) [4] act relu outputs 1", 12, "expected 'hidden', found '['"),
    ("mlp net(x)", 11, "expected 'hidden', found end of line"),
    ("mlp net(x) hidden [4] activation relu outputs 1", 23,
     "expected 'act', found 'activation'"),
    ("mlp net(x) hidden [4] = relu outputs 1", 23, "expected 'act', found '='"),
    ("mlp net(x) hidden [4]", 22, "expected 'act', found end of line"),
    ("mlp net(x) hidden [4] act relu output 1", 32, "expected 'outputs', found 'output'"),
    ("mlp net(x) hidden [4] act relu , 1", 32, "expected 'outputs', found ','"),
    ("mlp net(x) hidden [4] act relu", 31, "expected 'outputs', found end of line"),
    ("mlp net(x) hidden [4] act relu 2 1", 32, "expected 'outputs', found '2'"),
    ("d(x)/dx = 1", 6, "expected 'dt', found 'dx'"),
    ("d(x)/(dt) = 1", 6, "expected 'dt', found '('"),
    ("d(x)/", 6, "expected 'dt', found end of line"),
])
def test_parse_keyword_errors_exact(line, col, message):
    with pytest.raises(ParseError) as err:
        parse_model_spec("param a = 1.0\n" + line)
    assert (err.value.line, err.value.col) == (2, col)
    assert str(err.value) == f"line 2, col {col} in {line!r}: {message}"


def test_parse_comments_and_precedence():
    spec = parse_model_spec("d(x)/dt = 1 + 2 * x ^ 2.0  # quadratic\n")
    e = spec.components[0].expr
    assert e.op == "add"
    assert e.args[1].op == "mul"
    assert e.args[1].args[1].op == "pow"


def test_pow_right_associative():
    e = parse_model_spec("d(x)/dt = x ^ 2 ^ 3").components[0].expr
    assert e.op == "pow"
    assert e.args[1].op == "pow"  # x ^ (2 ^ 3)


def test_unary_minus_binds_tighter_than_mul():
    e = parse_model_spec("d(x)/dt = -x * 3").components[0].expr
    assert e.op == "mul"
    assert e.args[0].op == "neg"
    # and folds into numeric literals
    e2 = parse_model_spec("d(x)/dt = -3.5 * x").components[0].expr
    assert e2.args[0] == Expr.const(-3.5)


# ---------------------------------------------------------------------------
# Validation


def test_validate_clean_spec():
    spec = parse_model_spec("param r = 0.1\nd(x)/dt = r * x\nd(y)/dt = -r * y")
    assert validate(spec, SCHEMA_2D) == []


def test_validate_unresolved_symbol():
    spec = parse_model_spec("d(x)/dt = zeta * x")
    problems = validate(spec, SCHEMA_1D)
    assert len(problems) == 1
    assert problems[0].code == "unresolved-symbol"
    assert "zeta" in problems[0].message


def test_validate_component_count():
    spec = parse_model_spec("d(x)/dt = x")
    codes = [v.code for v in validate(spec, SCHEMA_2D)]
    assert "component-count" in codes


def test_validate_component_order_and_unknown():
    spec = parse_model_spec("d(y)/dt = y\nd(x)/dt = x")
    codes = [v.code for v in validate(spec, SCHEMA_2D)]
    assert "component-order" in codes
    spec2 = parse_model_spec("d(z)/dt = 1.0\nd(x)/dt = x")
    codes2 = [v.code for v in validate(spec2, SCHEMA_2D)]
    assert "component-unknown" in codes2


def test_validate_name_collisions_and_reserved():
    spec = ModelSpec(
        components=(ComponentDef("x", Expr.ref("x")),),
        params=(ParamDecl("x", 1.0), ParamDecl("t", 1.0)),
    )
    codes = [v.code for v in validate(spec, SCHEMA_1D)]
    assert "name-collision" in codes
    assert "reserved-name" in codes


def test_validate_mlp_problems():
    spec = ModelSpec(
        components=(ComponentDef("x", Expr.const(0.0), residual=("net", 5)),),
        mlps=(MlpDecl("net", ("bogus",), (0,), "swish", 2),),
    )
    codes = {v.code for v in validate(spec, SCHEMA_1D)}
    assert {"mlp-shape", "mlp-activation", "unresolved-symbol", "residual-unresolved"} <= codes


def test_validate_non_finite_init():
    spec = ModelSpec(
        components=(ComponentDef("x", Expr.ref("a")),),
        params=(ParamDecl("a", float("nan")),),
    )
    assert any(v.code == "non-finite" for v in validate(spec, SCHEMA_1D))


def test_validate_parameter_cap_holds_at_the_cap_and_is_reported_with_other_violations():
    # 3 * 33,333 + 1 network weights: exactly the cap
    at_cap = "mlp net(x) hidden [33333] act tanh outputs 1\nd(x)/dt = net[0]\n"
    assert validate(parse_model_spec(at_cap), SCHEMA_1D) == []
    over = [(v.code, v.message) for v in validate(
        parse_model_spec("param a = 1.0\n" + at_cap), SCHEMA_1D)]
    assert over == [("param-cap", "the specification has 100001 optimizable parameters,"
                                  " more than the allowed 100000; use smaller networks")]
    # an otherwise invalid spec reports the cap with its other problems, all at once
    codes = [v.code for v in validate(parse_model_spec("param x = 1.0\n" + at_cap), SCHEMA_1D)]
    assert codes == ["name-collision", "param-cap"]


@pytest.mark.parametrize("text, schema, problem", [
    ("param a = 1.0\nparam a = 2.0\nd(x)/dt = a", SCHEMA_1D,
     "[duplicate-name] parameter 'a' declared twice"),
    (NET1 + NET1 + "d(x)/dt = net[0]", SCHEMA_1D, "[duplicate-name] name 'net' declared twice"),
    ("param net = 1.0\n" + NET1 + "d(x)/dt = net[0]", SCHEMA_1D,
     "[duplicate-name] name 'net' declared twice"),
    ("d(x)/dt = x\nd(x)/dt = x", SCHEMA_2D, "[duplicate-name] two derivative lines for state 'x'"),
    ("d(x)/dt = 0 + net[0]", SCHEMA_1D,
     "[residual-unresolved] d(x)/dt adds undeclared network 'net'"),
    (NET1 + "d(x)/dt = 0 + net[3]", SCHEMA_1D,
     "[residual-unresolved] net[3] is out of range for network 'net' with 1 output(s)"),
])
def test_name_and_residual_rules_parse_and_are_reported_by_validate_alone(text, schema, problem):
    assert [str(v) for v in validate(parse_model_spec(text), schema)] == [problem]
    assert check_proposal(text, schema) == (None, [problem])


def test_readme_lists_every_violation_code_validate_emits():
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "src" / "hdtwin" / "dsl.py").read_text())
    emitted = sorted({node.args[0].value for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Violation"})
    lines = (root / "README.md").read_text().splitlines()
    start = lines.index("| code | the rule it reports broken |") + 2  # past the rule line
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    documented = [row.split("|")[1].strip().strip("`") for row in rows]
    assert documented == sorted(documented)
    assert documented == emitted


def test_a_sum_at_the_depth_cap_parses_validates_canonicalizes_and_evaluates():
    # a left-nested chain of EXPR_DEPTH_CAP - 1 additions: EXPR_DEPTH_CAP levels deep
    text = "d(x)/dt = " + " + ".join(["x"] * EXPR_DEPTH_CAP)
    spec = parse_model_spec(text)
    assert validate(spec, SCHEMA_1D) == []
    canon = canonicalize(spec).text
    assert canonicalize(parse_model_spec(canon)).text == canon
    ev = Evaluator(spec, SCHEMA_1D)
    assert ev.derivative(init_params(spec), [0.5], [], 0.0).tolist() == [0.5 * EXPR_DEPTH_CAP]
    with pytest.raises(ParseError, match=rf"^line 1, col 11: expression is {EXPR_DEPTH_CAP + 1}"
                                         rf" levels deep, more than the allowed {EXPR_DEPTH_CAP}$"):
        parse_model_spec(text + " + x")


def _under_frames(n: int, fn):
    """fn() called beneath n more Python frames than the caller's."""
    return fn() if n == 0 else _under_frames(n - 1, fn)


def _everything_at_once(text: str):
    """What can happen to a spec text: parse it, compare, hash and print
    the spec, canonicalize, validate, evaluate and fit it; the result, or
    the parse error."""
    try:
        spec = parse_model_spec(text)
    except ParseError as err:
        return str(err)
    again = parse_model_spec(text)
    assert spec == again and hash(spec) == hash(again) and repr(spec) == repr(again)
    canon = canonicalize(spec).text
    assert canonicalize(parse_model_spec(canon)).text == canon
    assert validate(spec, SCHEMA_1D) == []
    derivative = Evaluator(spec, SCHEMA_1D).derivative(init_params(spec), [0.5], [], 0.0)
    data = Dataset([Trajectory(np.arange(5.0), np.linspace(0.1, 0.5, 5), np.zeros((5, 0)))],
                   SCHEMA_1D)
    fitted = fit(spec, init_params(spec), data, data,
                 OptimConfig(max_epochs=1, patience=1, batch_size=4))
    return canon, derivative.tolist(), fitted.val_loss


@pytest.mark.parametrize("shape, opener", [
    # an expression `levels` deep, and the width of the text that opens one level
    (lambda levels: "(" * (levels - 1) + "x" + ")" * (levels - 1), "("),
    (lambda levels: "sin(" * (levels - 1) + "x" + ")" * (levels - 1), "sin("),
    (lambda levels: "-" * (levels - 1) + "x", "-"),
    (lambda levels: "x ^ " * (levels - 1) + "x", "x ^ "),
    (lambda levels: " + ".join(["x"] * levels), None),  # a loop, no nesting: the depth cap
], ids=["parentheses", "calls", "unary-minus", "powers", "sum"])
def test_the_depth_bound_is_a_property_of_the_text_not_of_the_callers_stack(shape, opener):
    at_bound = "d(x)/dt = " + shape(EXPR_DEPTH_CAP)
    past_bound = "d(x)/dt = " + shape(EXPR_DEPTH_CAP + 1)
    accepted = _everything_at_once(at_bound)
    assert isinstance(accepted, tuple)
    if opener is None:
        refusal = (f"line 1, col 11: expression is {EXPR_DEPTH_CAP + 1} levels deep,"
                   f" more than the allowed {EXPR_DEPTH_CAP}")
    else:  # at the token that opens the level past the bound
        refusal = (f"line 1, col {11 + len(opener) * EXPR_DEPTH_CAP}: expression nests"
                   f" deeper than the allowed {EXPR_DEPTH_CAP} levels")
    assert _everything_at_once(past_bound) == refusal
    # the same answers beneath 200 more frames, as inside a deeper caller
    assert _under_frames(200, lambda: _everything_at_once(at_bound)) == accepted
    assert _under_frames(200, lambda: _everything_at_once(past_bound)) == refusal


# ---------------------------------------------------------------------------
# Canonical form and fingerprint


def test_fingerprint_ignores_init_values():
    a = parse_model_spec("param r = 0.1\nd(x)/dt = r * x")
    b = parse_model_spec("param r = 99.0\nd(x)/dt = r * x")
    assert canonicalize(a).fingerprint == canonicalize(b).fingerprint
    assert canonicalize(a).text != canonicalize(b).text


def test_fingerprint_sees_operator_change():
    a = parse_model_spec("param r = 0.1\nd(x)/dt = r + x")
    b = parse_model_spec("param r = 0.1\nd(x)/dt = r * x")
    assert canonicalize(a).fingerprint != canonicalize(b).fingerprint


def test_canonicalize_fixed_point():
    text = """
    param beta = 0.5
    param alpha = 1.25e-3
    mlp net(x, t) hidden [4] act tanh outputs 1
    d(x)/dt = alpha * x - beta * x ^ 2.0 + net[0]
    """
    first = canonicalize(parse_model_spec(text))
    second = canonicalize(parse_model_spec(first.text))
    assert first == second


def test_canonicalize_sorts_declarations():
    text = canonicalize(parse_model_spec("param b = 1.0\nparam a = 2.0\nd(x)/dt = a + b")).text
    assert text.index("param a") < text.index("param b")


def test_round_trip_random_specs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        schema = random_schema(rng)
        spec = random_spec(rng, schema)
        text = canonicalize(spec).text
        again = parse_model_spec(text)
        assert spec_equal(spec, again), f"round trip failed for:\n{text}"
        assert canonicalize(again) == canonicalize(spec)


def test_fingerprint_no_collisions_small_asts():
    # 1e5 random small expressions: structurally distinct specs never share
    # a fingerprint (equal structural text implies equal fingerprint by
    # construction).
    from conftest import random_expr

    rng = np.random.default_rng(11)
    seen: dict[int, str] = {}
    symbols = ["x", "p0"]
    for _ in range(100_000):
        expr = random_expr(rng, symbols, 3)
        spec = ModelSpec(
            components=(ComponentDef("x", expr),), params=(ParamDecl("p0", 1.0),)
        )
        canon = canonicalize(spec)
        prior = seen.get(canon.fingerprint)
        if prior is not None:
            assert prior == canon.text, "fingerprint collision between distinct structures"
        else:
            seen[canon.fingerprint] = canon.text


def test_format_expr_parenthesization():
    cases = [
        "x - (x - 1.0)",
        "x / (x * 2.0)",
        "(x + 1.0) * x",
        "(x ^ 2.0) ^ 3.0",
        "x ^ 2.0 ^ 3.0",
        "-(x + 1.0)",
        "-x ^ 2.0",
        "2.0 ^ (-3.0)",
    ]
    for text in cases:
        e = parse_model_spec(f"d(x)/dt = {text}").components[0].expr
        assert format_expr(e) == text


def test_skeleton_lists_states_in_order():
    sk = dsl_skeleton(SCHEMA_2D)
    assert sk.index("d(x)/dt") < sk.index("d(y)/dt")
