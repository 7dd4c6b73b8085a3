from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import replay_fixtures
from hdtwin.agents import (
    POPULATION_CAPACITY,
    DecodingConfig,
    HttpClient,
    ModelingContext,
    PopulationEntry,
    ProposalFailure,
    ReplayExhausted,
    ScriptedClient,
    TransportError,
    check_proposal,
    critique,
    format_population_entry,
    make_reply,
    population_insert,
    propose,
    render_modeling_prompt,
    render_reflection_prompt,
)
from hdtwin.dsl import canonicalize, dsl_skeleton, parse_model_spec
from hdtwin.engine import ParamVector, init_params, write_json
from hdtwin.systems import builtin_system, system_description

CANCER = builtin_system("cancer-chemo-radio")

CTX = ModelingContext(
    system_description=system_description(CANCER),
    requirements="* Achieve the lowest possible validation loss.",
    skeleton=dsl_skeleton(CANCER.schema),
    generations=6,
)

FAST = DecodingConfig(retries=2, retry_wait=0.0, timeout=5.0)


def make_entry(upsilon, generation=1, text="param a = 1.0\nd(x)/dt = a * x\n",
               delta=None, description="test model"):
    spec = parse_model_spec(text)
    canon = canonicalize(spec)
    return PopulationEntry(
        spec=spec, canonical_text=canon.text, fingerprint=canon.fingerprint,
        params=init_params(spec),
        delta=np.array(delta if delta is not None else [upsilon]),
        upsilon=upsilon, generation=generation, description=description,
    )


# ---------------------------------------------------------------------------
# prompt rendering


def test_first_generation_prompt_has_no_population_block():
    msgs = render_modeling_prompt(CTX, (), None, generation=1)
    assert [m["role"] for m in msgs] == ["system", "user"]
    user = msgs[1]["content"]
    assert CTX.system_description in user
    assert CTX.skeleton in user
    assert "optimized_parameters" not in user
    assert "iteration 1 out of 6" in user


def test_entry_formatting_matches_transcript_style():
    spec = parse_model_spec(
        "param a = 1.0\n"
        "d(prey_population)/dt = a * prey_population\n"
        "d(intermediate_population)/dt = a\n"
        "d(top_predators_population)/dt = a\n"
    )
    canon = canonicalize(spec)
    entry = PopulationEntry(
        spec=spec, canonical_text=canon.text, fingerprint=canon.fingerprint,
        params=ParamVector({"a": 0.10977201908826828}, {}),
        delta=np.array([0.0316, 2.13e-05, 0.00505]),
        upsilon=0.0122, generation=1, description="white box model",
    )
    text = format_population_entry(entry)
    assert text.startswith(
        "Val Loss: 0.0122 (Where the val loss per dimension is"
        " prey_population val loss: 0.0316,"
        " intermediate_population val loss: 2.13e-05,"
        " top_predators_population val loss: 0.00505) Iteration: 1"
    )
    assert "optimized_parameters = {'a': 0.10977201908826828}" in text


def test_later_generation_prompt_embeds_population_and_feedback():
    pop = population_insert((), make_entry(0.5))
    msgs = render_modeling_prompt(CTX, pop, "add a decay term", generation=2)
    user = msgs[1]["content"]
    assert "Val Loss: 0.5" in user
    assert "add a decay term" in user
    assert "iteration 2 out of 6" in user


def test_reflection_prompt_orders_completions_worse_first():
    pop = population_insert((), make_entry(0.9, text="param b = 2.0\nd(x)/dt = b + x\n"))
    pop = population_insert(pop, make_entry(0.1, text="param c = 3.0\nd(x)/dt = c * x\n"))
    history = [(1, 0.1, "test model")]
    msgs = render_reflection_prompt("* be accurate", pop, history, next_generation=2,
                                    generations=6)
    user = msgs[1]["content"]
    assert user.index("Val Loss: 0.9 (Where") < user.index("Val Loss: 0.1 (Where")
    assert "exhausted white box models" in user
    assert "Iteration 1. Best Val Loss: 0.1." in user


def test_reflection_history_empty_renders_empty():
    pop = population_insert((), make_entry(0.5))
    msgs = render_reflection_prompt("* r", pop, [], next_generation=2, generations=6)
    head = msgs[1]["content"].split("```")[1]
    assert head.strip() == ""


def test_prompt_determinism():
    pop = population_insert((), make_entry(0.25))
    a = render_modeling_prompt(CTX, pop, "f", 3)
    b = render_modeling_prompt(CTX, pop, "f", 3)
    assert a == b


def test_context_validation():
    with pytest.raises(ValueError):
        ModelingContext(" ", "r", "s", 5)
    with pytest.raises(ValueError):
        ModelingContext("d", "r", "s", 0)


# ---------------------------------------------------------------------------
# population management


def test_population_insert_dedupes_on_fingerprint():
    pop = population_insert((), make_entry(0.5))
    again = population_insert(pop, make_entry(0.1))  # same structure, same fingerprint
    assert len(again) == 1
    assert again[0].upsilon == 0.5


def test_population_insert_evicts_worst():
    pop = ()
    for k in range(POPULATION_CAPACITY):  # full, losses 0.5 and up
        text = f"param a = 1.0\nd(x)/dt = a * x ^ {k + 1}.0\n"
        pop = population_insert(pop, make_entry(0.5 + k / 100, text=text))
    worse = make_entry(2.0, text="param a = 1.0\nd(x)/dt = a - x\n")
    assert [e.upsilon for e in population_insert(pop, worse)] == [e.upsilon for e in pop]
    better = make_entry(0.1, text="param a = 1.0\nd(x)/dt = a / x\n")
    pop2 = population_insert(pop, better)
    assert len(pop2) == POPULATION_CAPACITY
    assert [e.upsilon for e in pop2] == [0.1] + [e.upsilon for e in pop[:-1]]


def test_population_rejects_non_finite():
    with pytest.raises(ValueError):
        population_insert((), make_entry(float("inf")))


def test_population_insert_matches_brute_force_oracle():
    # uniqueness applies to the current population: an evicted structure may
    # re-enter later with a better loss
    rng = np.random.default_rng(0)
    texts = [f"param a = 1.0\nd(x)/dt = a * x ^ {k}.0\n" for k in range(1, 40)]
    pop = ()
    oracle: list[PopulationEntry] = []
    for _ in range(200):
        k = int(rng.integers(0, len(texts)))
        ups = float(rng.uniform(0, 1))
        entry = make_entry(ups, text=texts[k])
        pop = population_insert(pop, entry)
        if entry.fingerprint not in {e.fingerprint for e in oracle}:
            oracle.append(entry)
            oracle.sort(key=lambda e: e.upsilon)
            oracle = oracle[:POPULATION_CAPACITY]
        assert [e.fingerprint for e in pop] == [e.fingerprint for e in oracle]
        assert [e.upsilon for e in pop] == [e.upsilon for e in oracle]
        ordered = [e.upsilon for e in pop]
        assert ordered == sorted(ordered)
        assert len({e.fingerprint for e in pop}) == len(pop)


# ---------------------------------------------------------------------------
# propose / critique


def test_propose_valid_reply_round_trips():
    reply = make_reply("param a = 0.1\nd(tumor_volume)/dt = a * tumor_volume\n"
                       "d(chemotherapy_drug_concentration)/dt = chemotherapy_dosage"
                       " - 0.5 * chemotherapy_drug_concentration\n",
                       "simple white box")
    client = ScriptedClient([reply])
    spec, description = propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    assert description == "simple white box"
    assert canonicalize(parse_model_spec(canonicalize(spec).text)) == canonicalize(spec)


@pytest.mark.parametrize("wrapping", [
    "```json\nREPLY\n```",
    "Sure, here is {my} model: REPLY",
    "REPLY\nNote: a set {a, b} of terms.",
    "```json\nREPLY\n```\nA set {a, b} of terms follows.",
    '{"note": "no spec here"} and then REPLY',
], ids=["fenced", "prose-with-brace-before", "prose-with-braces-after",
        "fenced-then-braces", "spec-less-object-first"])
def test_propose_reads_the_first_reply_object_with_a_spec(wrapping):
    text = "d(tumor_volume)/dt = 0.0\nd(chemotherapy_drug_concentration)/dt = 0.0\n"
    client = ScriptedClient([wrapping.replace("REPLY", make_reply(text, "zeros"))])
    spec, description = propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    assert (canonicalize(spec).text, description) == (canonicalize(parse_model_spec(text)).text,
                                                      "zeros")
    assert len(client.transcript) == 1


def test_propose_retries_on_garbage_then_succeeds():
    good = make_reply("d(tumor_volume)/dt = 0.0\n"
                      "d(chemotherapy_drug_concentration)/dt = 0.0\n", "zeros")
    client = ScriptedClient(["not json at all", good])
    spec, _ = propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    assert len(client.transcript) == 2
    retry_msg = client.transcript[1]["request"][-1]["content"]
    assert retry_msg == (
        "Your previous reply could not be used:\n"
        '* reply carries no JSON object with a "spec" field\n'
        'Reply again with a single JSON object carrying the corrected "spec" and'
        ' "description" fields.'
    )


def test_propose_relays_validation_messages():
    bad = make_reply("d(tumor_volume)/dt = zeta * tumor_volume\n", "broken")
    good = make_reply("d(tumor_volume)/dt = 0.0\n"
                      "d(chemotherapy_drug_concentration)/dt = 0.0\n", "zeros")
    client = ScriptedClient([bad, good])
    propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    retry_msg = client.transcript[1]["request"][-1]["content"]
    assert "zeta" in retry_msg


# one network of 101,438 weights: just over dsl.PARAM_COUNT_CAP for the cancer schema
OVER_CAP_SPEC = ("mlp net(tumor_volume) hidden [316, 316] act tanh outputs 2\n"
                 "d(tumor_volume)/dt = net[0]\n"
                 "d(chemotherapy_drug_concentration)/dt = net[1]\n")


def test_propose_relays_the_parameter_cap():
    good = make_reply("d(tumor_volume)/dt = 0.0\n"
                      "d(chemotherapy_drug_concentration)/dt = 0.0\n", "zeros")
    client = ScriptedClient([make_reply(OVER_CAP_SPEC, "too big"), good])
    _, description = propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    assert description == "zeros"
    assert client.transcript[1]["request"][-1]["content"] == (
        "Your previous reply could not be used:\n"
        "* [param-cap] the specification has 101438 optimizable parameters, more than the"
        " allowed 100000; use smaller networks\n"
        'Reply again with a single JSON object carrying the corrected "spec" and'
        ' "description" fields.'
    )


@pytest.mark.parametrize("expr, problem", [
    # refused at the 101st parenthesis, before the parser recurses any deeper
    ("(" * 200 + "tumor_volume" + ")" * 200,
     "col 122: expression nests deeper than the allowed 100 levels"),
    # built in a loop, so it parses; the cap refuses it before any recursive walk
    (" + ".join(["tumor_volume"] * 1500),
     "col 22: expression is 1500 levels deep, more than the allowed 100"),
])
def test_check_proposal_refuses_a_too_deeply_nested_expression(expr, problem):
    text = f"d(tumor_volume)/dt = {expr}\nd(chemotherapy_drug_concentration)/dt = 0.0\n"
    assert check_proposal(text, CANCER.schema) == (None, [f"parse error: line 1, {problem}"])


def test_propose_failure_after_retries():
    client = ScriptedClient(["junk"] * 10)
    with pytest.raises(ProposalFailure):
        propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    assert len(client.transcript) == FAST.retries + 1  # never more requests than that


def test_hybrid_fixture_validates_clean_against_schema():
    from hdtwin.dsl import validate

    spec = parse_model_spec(replay_fixtures.SPEC_6)
    assert validate(spec, CANCER.schema) == []


def test_propose_parses_final_hybrid_fixture():
    client = ScriptedClient([replay_fixtures.modeling_replies()[-1]])
    spec, _ = propose(client, CTX, CANCER.schema, (), None, 1, FAST)
    names = {p.name for p in spec.params}
    assert {"alpha", "beta", "gamma", "kappa_base", "kappa_mod", "delta_base",
            "delta_mod", "eta", "theta", "rho", "zeta"} == names
    (mlp,) = spec.mlps
    assert mlp.layer_dims() == [4, 16, 8, 2]
    assert mlp.activation == "leaky_relu"
    assert spec.components[0].residual == ("residual_mlp", 0)
    assert spec.components[1].residual == ("residual_mlp", 1)


def test_critique_returns_text_byte_for_byte():
    text = "Remove the quadratic term.\nTry a saturating chemo effect."
    pop = population_insert((), make_entry(0.5))
    fb = critique(ScriptedClient([text]), "* reqs", pop, [], 2, 6, FAST)
    assert fb == text


def lost_critique_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == "hdtwin.agents" and r.levelname == "WARNING"]


def test_critique_empty_reply_flags_warning(caplog):
    pop = population_insert((), make_entry(0.5))
    fb = critique(ScriptedClient([""]), "* reqs", pop, [], 2, 6, FAST)
    assert fb == ""
    assert lost_critique_warnings(caplog) == [
        "generation 2: critique lost (empty reply), proposing without feedback"]


def test_critique_transport_failure_flags_warning(caplog):
    pop = population_insert((), make_entry(0.5))
    fb = critique(ScriptedClient([]), "* reqs", pop, [], 2, 6, FAST)
    assert fb == ""
    assert lost_critique_warnings(caplog) == [
        "generation 2: critique lost (replay exhausted after 0 replies),"
        " proposing without feedback"]


# ---------------------------------------------------------------------------
# clients


def test_scripted_client_exhaustion():
    client = ScriptedClient(["a", "b", "c"])
    for expected in "abc":
        assert client.complete([{"role": "user", "content": "x"}], FAST) == expected
    with pytest.raises(ReplayExhausted):
        client.complete([{"role": "user", "content": "x"}], FAST)


def test_scripted_client_file_round_trip(tmp_path):
    write_json(["one", "two"], tmp_path / "r.json")
    client = ScriptedClient.from_file(tmp_path / "r.json")
    assert client.complete([], FAST) == "one"
    # transcript-shaped files load too
    with open(tmp_path / "t.json", "w") as fh:
        json.dump([{"request": [], "reply": "three"}], fh)
    assert ScriptedClient.from_file(tmp_path / "t.json").complete([], FAST) == "three"


def test_scripted_client_file_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[\"one\",")
    with pytest.raises(ValueError) as err:
        ScriptedClient.from_file(path)
    assert str(err.value).startswith(f"{path} is not JSON (")


@pytest.mark.parametrize("body, message", [
    ('{"not": "a list"}', "replay file must be a JSON list"),
    ('["one", {"request": 1}]', "replay entry 1 is neither a string nor an object with a"
                                " string 'reply'"),
    ('[{"reply": 2}]', "replay entry 0 is neither"),
    ("[null]", "replay entry 0 is neither"),
])
def test_scripted_client_file_errors_name_the_file_and_entry(tmp_path, body, message):
    path = tmp_path / "r.json"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        ScriptedClient.from_file(path)
    assert str(err.value).startswith(f"{path}: {message}")


class _StubHandler(BaseHTTPRequestHandler):
    responses: list = []
    bodies: list = []
    headers_seen: list = []

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        _StubHandler.bodies.append(json.loads(self.rfile.read(n)))
        _StubHandler.headers_seen.append(dict(self.headers))
        status, payload = _StubHandler.responses.pop(0)
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _SlowHandler(BaseHTTPRequestHandler):
    """Answers 200 with a good reply, but only after a pause: before the
    status line, or after the headers, in the middle of the body."""
    pause = 1.0
    in_body = False

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(_ok_reply("late")[1]).encode()
        try:
            if not self.in_body:
                time.sleep(self.pause)
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.in_body:
                time.sleep(self.pause)
            self.wfile.write(body)
        except OSError:  # the client gave up and closed the connection
            pass

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler):
    """The URL of a local server for handler, one thread per request."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # shutdown() waits out one poll interval, 0.5 s by default
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_server():
    _StubHandler.responses = []
    _StubHandler.bodies = []
    _StubHandler.headers_seen = []
    with serving(_StubHandler) as url:
        yield url


def count_urlopen(monkeypatch) -> list:
    """Count HttpClient's attempts: each one opens one URL."""
    calls = []
    real_urlopen = urllib.request.urlopen

    def counting_urlopen(request, *args, **kwargs):
        calls.append(request.full_url)
        return real_urlopen(request, *args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", counting_urlopen)
    return calls


def _ok_reply(text):
    return (200, {"choices": [{"message": {"content": text}}]})


def test_http_client_posts_decoding_config(stub_server, monkeypatch):
    monkeypatch.setenv("HDTWIN_LLM_API_KEY", "secret-key")
    _StubHandler.responses = [_ok_reply("hello")]
    client = HttpClient(stub_server)
    out = client.complete([{"role": "user", "content": "hi"}],
                          DecodingConfig(temperature=0.7, retries=0, retry_wait=0.0))
    assert out == "hello"
    body = _StubHandler.bodies[0]
    assert body["temperature"] == 0.7
    assert _StubHandler.headers_seen[0]["Authorization"] == "Bearer secret-key"
    assert _StubHandler.headers_seen[0]["Content-Type"] == "application/json"
    assert body["messages"][0]["content"] == "hi"
    assert client.transcript[0]["reply"] == "hello"


def test_http_client_retries_429_then_succeeds(stub_server):
    _StubHandler.responses = [(429, {"error": "slow down"}), _ok_reply("ok")]
    client = HttpClient(stub_server, api_key="k")
    out = client.complete([{"role": "user", "content": "hi"}],
                          DecodingConfig(retries=1, retry_wait=0.0))
    assert out == "ok"
    assert len(_StubHandler.bodies) == 2


def test_http_client_raises_after_retry_budget(stub_server):
    _StubHandler.responses = [(500, {}), (500, {})]
    client = HttpClient(stub_server, api_key="k")
    with pytest.raises(TransportError):
        client.complete([{"role": "user", "content": "hi"}],
                        DecodingConfig(retries=1, retry_wait=0.0))


def test_http_client_malformed_body_is_transport_error(stub_server):
    _StubHandler.responses = [(200, {"unexpected": True})]
    client = HttpClient(stub_server, api_key="k")
    with pytest.raises(TransportError, match="malformed"):
        client.complete([{"role": "user", "content": "hi"}],
                        DecodingConfig(retries=0, retry_wait=0.0))


def test_http_client_connection_failure_retries_then_raises(monkeypatch):
    with socket.socket() as sock:       # a local port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    calls = count_urlopen(monkeypatch)
    client = HttpClient(f"http://127.0.0.1:{port}", api_key="k")
    with pytest.raises(TransportError, match="request failed"):
        client.complete([{"role": "user", "content": "hi"}],
                        DecodingConfig(retries=2, retry_wait=0.0, timeout=5.0))
    assert len(calls) == 3
    assert client.transcript == []


@pytest.mark.parametrize("in_body", [False, True])
def test_http_client_timeout_retries_then_raises(monkeypatch, in_body):
    monkeypatch.setattr(_SlowHandler, "in_body", in_body)
    calls = count_urlopen(monkeypatch)
    with serving(_SlowHandler) as url:
        client = HttpClient(url, api_key="k")
        with pytest.raises(TransportError, match="^request failed: .*timed out"):
            client.complete([{"role": "user", "content": "hi"}],
                            DecodingConfig(retries=1, retry_wait=0.0, timeout=0.2))
    assert len(calls) == 2
    assert client.transcript == []


@pytest.mark.parametrize("field, value, message", [
    ("retries", -1, "retries must be >= 0"),
    ("retry_wait", -0.5, "retry_wait must be >= 0"),
    ("timeout", 0.0, "timeout must be > 0"),
    ("max_tokens", 0, "max_tokens must be >= 1"),
    # a NaN retry_wait reached time.sleep, a NaN temperature was posted as
    # the non-JSON token NaN, and an infinite timeout never timed out
    ("retry_wait", float("nan"), r"retry_wait must be finite \(got nan\)"),
    ("retry_wait", float("inf"), r"retry_wait must be finite \(got inf\)"),
    ("temperature", float("nan"), r"temperature must be finite \(got nan\)"),
    ("timeout", float("inf"), r"timeout must be finite \(got inf\)"),
])
def test_decoding_config_rejects_out_of_range_fields(field, value, message):
    with pytest.raises(ValueError, match=message):
        DecodingConfig(**{field: value})
