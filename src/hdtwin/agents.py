"""The modeling and evaluation agents.

The modeling agent is prompted with a system description, a fill-in
skeleton, the current top-K fitted specs with their losses and optimized
parameter values, and the evaluation agent's latest feedback; it must
reply with a JSON object carrying the new spec text and a short
description (prose or a code fence around the object is skipped).  The
evaluation agent sees the same population plus the history of
per-iteration bests, which the caller passes in, and replies with
free-form feedback.  A population is a plain tuple of entries, best
first, that population_insert keeps sorted, unique and within
POPULATION_CAPACITY.

Transport is pluggable: HttpClient posts chat-completion requests to a
configurable endpoint (API key from HDTWIN_LLM_API_KEY); ScriptedClient
replays canned replies from a file, which makes whole evolution runs
reproducible and testable offline.  Both record every request/reply pair.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from hdtwin.dsl import DslError, ModelSpec, SystemSchema, parse_model_spec, validate
from hdtwin.engine import ParamVector, read_json, require_integers, require_numbers

log = logging.getLogger(__name__)

REPLY_FIELD_SPEC = "spec"
REPLY_FIELD_DESCRIPTION = "description"
POPULATION_CAPACITY = 16  # the top K an evolve run keeps


class TransportError(Exception):
    """The LLM endpoint could not produce a reply."""


class ReplayExhausted(TransportError):
    """The scripted client ran out of canned replies."""


class ProposalFailure(Exception):
    """No valid spec could be parsed from the modeling agent's replies."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems) or "no valid proposal")


@dataclass(frozen=True)
class ModelingContext:
    """The structured prompt: what system to model and under what rules."""

    system_description: str
    requirements: str
    skeleton: str
    generations: int

    def __post_init__(self):
        for name in ("system_description", "requirements", "skeleton"):
            if not getattr(self, name).strip():
                raise ValueError(f"modeling context field {name} is empty")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


@dataclass(frozen=True)
class PopulationEntry:
    spec: ModelSpec
    canonical_text: str
    fingerprint: int
    params: ParamVector
    delta: np.ndarray          # per-component validation MSE
    upsilon: float             # mean validation MSE
    generation: int
    description: str = ""


# the top-K candidates in ascending validation loss, best first
Population = tuple[PopulationEntry, ...]
# one (generation, best upsilon so far, description of that best) line per generation
History = list[tuple[int, float, str]]


@dataclass
class DecodingConfig:
    model: str = "gpt-4-1106-preview"
    temperature: float = 0.7
    max_tokens: int = 4096
    timeout: float = 120.0
    retries: int = 3
    retry_wait: float = 1.0

    def __post_init__(self):
        require_integers(self, "max_tokens", "retries")
        require_numbers(self, "temperature", "timeout", "retry_wait")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.retry_wait < 0:
            raise ValueError("retry_wait must be >= 0")


def population_insert(pop: Population, entry: PopulationEntry) -> Population:
    """Insert unless the structural fingerprint is already present (then
    `pop` itself is returned), keep ascending validation-loss order,
    truncate to POPULATION_CAPACITY."""
    if not np.isfinite(entry.upsilon):
        raise ValueError("faulted candidates (non-finite loss) are never inserted")
    if any(e.fingerprint == entry.fingerprint for e in pop):
        return pop
    return tuple(sorted(pop + (entry,), key=lambda e: e.upsilon)[:POPULATION_CAPACITY])


# ---------------------------------------------------------------------------
# Prompt rendering

SYSTEM_PROMPT = """Objective: Write a model specification to create an effective differential equation simulator for a given task.
Please note that the specification should be fully functional. No placeholders.

You must act autonomously and you will receive no human input at any stage. You have to return as output the complete specification for this task, and correctly improve the specification to create the most accurate and realistic simulator possible.
You always write out the full specification contents.
You cannot visualize any graphical output. You exist within a machine. The specification can include black box multi-layer perceptrons where required.

When replying only provide a single RFC8259 compliant JSON object following this format without deviation:
{"spec": "the complete model specification text", "description": "a concise description of the model, indicating if it is a white box only or white and black box model"}"""

_OBJECTIVE = """* The parameters of the model will be optimized to an observed training dataset with the given simulator.
* The observed training dataset has very few samples, and the model must be able to generalize to unseen data."""

_USEFUL_TO_KNOW = """* You are a specification evolving machine, and you will be called {generations} times to generate a specification, and improve it to achieve the lowest possible validation loss.
* The model defines the state differential and will be used with an ODE solver to fit the observed training dataset.
* You can use any parameters you want and any black box neural network components (multi-layer perceptrons); however, you have to declare these.
* It is preferable to decompose the system into differential equations (compartments) if possible.
* You can use any unary functions, for example log, exp, power etc.
* Under no circumstance can you change the skeleton derivative lines, only fill them in.
* Use initially white box models first and then switch to hybrid white and black box models for the residuals, only after no further best program iteration improvement with white box models.
* Make sure your specification follows the exact skeleton format."""

_FIRST_TASK = """You will get a system description to code a differential equation simulator for.

System Description:```
{system_description}
```

Modelling goals:```
{objective}
```

Requirement Specification:```
{requirements}
```

Skeleton specification to fill in:```
{skeleton}
```

Useful to know:```
{useful}
```

Think step-by-step, and then give the complete full working specification. You are generating a specification for iteration {generation} out of {generations}."""

_REGENERATE = """Here are the top specification completions so far that you have generated, sorted for the lowest validation loss last:```
{completions}
```

Feedback on how to improve the specification:```
{feedback}
```

Please now regenerate the specification, with the aim to improve it to achieve a lower validation error. Use the feedback where applicable. You are generating a specification for iteration {generation} out of {generations} total iterations. When generating the specification if you are unsure about something, take your best guess. You have to generate a specification, and cannot give an empty string answer.

Please always only fill in the following skeleton:```
{skeleton}
```
You cannot change the derivative lines, or input variables."""

_REFLECTION = """You generated the following specification completions, which then had their parameters optimized to the training dataset. Please reflect on how you can improve the specification to minimize the validation loss to 1e-6 or less. The specification examples are delineated by ###.

Here are your previous iterations the best specifications generated. Use it to see if you have exhausted white box models, i.e. when a white box model repeats with the same val loss and then only add black box models to the white box models:```
{history}
```

Here are the top specification completions so far that you have generated, sorted for the lowest validation loss last:```
{completions}
```

Please reflect on how you can improve the specification to fit the dataset as accurately as possible, and be interpretable. Think step-by-step. Provide only actionable feedback, that has direct changes to the specification. Do not write out the specification, only describe how it can be improved. Where applicable use the values of the optimized parameters to reason how the specification can be improved to fit the dataset as accurately as possible. This is for generating a new specification for the next iteration {generation} out of {generations}."""


def _g3(v: float) -> str:
    return f"{v:.3g}"


def format_population_entry(entry: PopulationEntry) -> str:
    names = [c.target for c in entry.spec.components]
    dims = ", ".join(f"{n} val loss: {_g3(d)}" for n, d in zip(names, entry.delta))
    return (
        f"Val Loss: {_g3(entry.upsilon)} (Where the val loss per dimension is {dims})"
        f" Iteration: {entry.generation}\n"
        f"###\n```\n{entry.canonical_text}```\n"
        f"optimized_parameters = {dict(entry.params.scalars)!r}\n###"
    )


def _completions_block(population: Population) -> str:
    # worst first, best ("lowest validation loss") last
    ordered = sorted(population, key=lambda e: -e.upsilon)
    return "\n\n".join(format_population_entry(e) for e in ordered)


def _history_block(history: History) -> str:
    return "\n".join(
        f"Iteration {g}. Best Val Loss: {v!r}. Model description: {d}" for g, v, d in history
    )


def render_modeling_prompt(ctx: ModelingContext, population: Population,
                           feedback: str | None, generation: int) -> list[dict]:
    """System + user messages for the modeling agent at one generation;
    `feedback` is the evaluation agent's latest text."""
    if generation < 1:
        raise ValueError("generations are numbered from 1")
    task = _FIRST_TASK.format(
        system_description=ctx.system_description,
        objective=_OBJECTIVE,
        requirements=ctx.requirements,
        skeleton=ctx.skeleton,
        useful=_USEFUL_TO_KNOW.format(generations=ctx.generations),
        generation=generation,
        generations=ctx.generations,
    )
    if generation > 1 and population:
        task += "\n\n" + _REGENERATE.format(
            completions=_completions_block(population),
            feedback=feedback or "(none)",
            generation=generation,
            generations=ctx.generations,
            skeleton=ctx.skeleton,
        )
    return [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": task},
    ]


def render_reflection_prompt(requirements: str, population: Population, history: History,
                             next_generation: int, generations: int) -> list[dict]:
    """System + user messages for the evaluation agent."""
    if not population:
        raise ValueError("reflection needs a non-empty population")
    task = _REFLECTION.format(
        history=_history_block(history),
        completions=_completions_block(population),
        generation=next_generation,
        generations=generations,
    )
    task += f"\n\nRequirement Specification:```\n{requirements}\n```"
    return [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": task},
    ]


# ---------------------------------------------------------------------------
# Clients


class HttpClient:
    """Chat-completion client for an OpenAI-style HTTP endpoint.

    Posts through urllib.request.  Retries timeouts, connection errors,
    malformed reply bodies and the statuses in RETRY_STATUSES up to
    cfg.retries times, then raises TransportError; any other status than
    200 raises it at once.  Safe for concurrent use by independent runs
    (each run should own its own instance so the transcript stays
    per-run).
    """

    RETRY_STATUSES = (408, 409, 429, 500, 502, 503, 504)

    def __init__(self, base_url: str, api_key: str | None = None):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get("HDTWIN_LLM_API_KEY", "")
        self.transcript: list[dict] = []

    def complete(self, messages: list[dict], cfg: DecodingConfig) -> str:
        # imported here: offline runs never pay for the HTTP and TLS stack
        import http.client
        import urllib.error
        import urllib.request
        payload = {
            "model": cfg.model,
            "messages": messages,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last: Exception | None = None
        for attempt in range(cfg.retries + 1):
            if attempt and cfg.retry_wait:
                time.sleep(cfg.retry_wait)
            request = urllib.request.Request(f"{self.base_url}/chat/completions", data=body,
                                             headers=headers, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=cfg.timeout) as resp:
                    status, reply = resp.status, resp.read()
            except urllib.error.HTTPError as err:  # urllib raises on a status outside 2xx
                err.close()
                status, reply = err.code, b""
            except (OSError, http.client.HTTPException) as err:  # URLError, timeouts
                last = TransportError(f"request failed: {err}")
                continue
            if status != 200:
                last = TransportError(f"endpoint returned HTTP {status}")
                if status in self.RETRY_STATUSES:
                    continue
                raise last
            try:
                text = json.loads(reply)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                last = TransportError(f"malformed reply body: {err}")
                continue
            self.transcript.append({"request": messages, "reply": text})
            return text
        raise last


class ScriptedClient:
    """Replays canned replies in order; raises ReplayExhausted when empty."""

    def __init__(self, replies: list[str]):
        self.replies = tuple(replies)
        self._cursor = 0
        self.transcript: list[dict] = []

    @classmethod
    def from_file(cls, path) -> "ScriptedClient":
        """Load a replay file: a JSON list of reply strings, or a recorded
        transcript (list of {"request": ..., "reply": ...} objects)."""
        doc = read_json(path)
        if not isinstance(doc, list):
            raise ValueError(f"{path}: replay file must be a JSON list")
        replies = [item.get("reply") if isinstance(item, dict) else item for item in doc]
        bad = [i for i, r in enumerate(replies) if not isinstance(r, str)]
        if bad:
            raise ValueError(f"{path}: replay entry {bad[0]} is neither a string"
                             " nor an object with a string 'reply'")
        return cls(replies)

    def complete(self, messages: list[dict], cfg: DecodingConfig) -> str:
        if self._cursor >= len(self.replies):
            raise ReplayExhausted(
                f"replay exhausted after {len(self.replies)} replies"
            )
        reply = self.replies[self._cursor]
        self._cursor += 1
        self.transcript.append({"request": messages, "reply": reply})
        return reply


# ---------------------------------------------------------------------------
# Agent operations

def _extract_reply_fields(reply: str) -> tuple[str, str]:
    """Pull the spec text and description out of the first JSON object in
    the reply that has a "spec" key; prose and code fences around it are skipped."""
    decoder = json.JSONDecoder()
    for start in (i for i, c in enumerate(reply) if c == "{"):
        try:
            doc, _ = decoder.raw_decode(reply, start)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and REPLY_FIELD_SPEC in doc:
            break
    else:
        raise ValueError(f'reply carries no JSON object with a "{REPLY_FIELD_SPEC}" field')
    spec_text = doc[REPLY_FIELD_SPEC]
    if not isinstance(spec_text, str) or not spec_text.strip():
        raise ValueError(f'"{REPLY_FIELD_SPEC}" must be a non-empty string')
    return spec_text, str(doc.get(REPLY_FIELD_DESCRIPTION, ""))


def check_proposal(spec_text: str, schema: SystemSchema) -> tuple[ModelSpec | None, list[str]]:
    """Parse and validate one proposed spec; returns (spec, problems)."""
    try:
        spec = parse_model_spec(spec_text)
    except DslError as err:
        return None, [f"parse error: {err}"]
    problems = [str(v) for v in validate(spec, schema)]
    return (spec if not problems else None), problems


_REPLY_AGAIN = ('Reply again with a single JSON object carrying the corrected'
                ' "spec" and "description" fields.')


def propose(client, ctx: ModelingContext, schema: SystemSchema, population: Population,
            feedback: str | None, generation: int,
            decoding: DecodingConfig) -> tuple[ModelSpec, str]:
    """Ask the modeling agent for a spec until a reply carries a valid one,
    at most 1 + retries requests, answering each unusable reply with its
    problems."""
    convo = render_modeling_prompt(ctx, population, feedback, generation)
    problems: list[str] = []
    for _ in range(decoding.retries + 1):
        reply = client.complete(convo, decoding)
        try:
            spec_text, description = _extract_reply_fields(reply)
        except ValueError as err:
            problems = [str(err)]
            spec = None
        else:
            spec, problems = check_proposal(spec_text, schema)
        if spec is not None:
            return spec, description
        convo = convo + [
            {"role": "assistant", "content": reply},
            {"role": "user", "content": "Your previous reply could not be used:\n"
                + "\n".join(f"* {p}" for p in problems) + "\n" + _REPLY_AGAIN},
        ]
    raise ProposalFailure(problems)


def critique(client, requirements: str, population: Population, history: History,
             next_generation: int, generations: int, decoding: DecodingConfig) -> str:
    """Ask the evaluation agent for improvement feedback (free-form text); a
    lost critique (transport error or empty reply) is logged and gives empty feedback."""
    messages = render_reflection_prompt(requirements, population, history, next_generation,
                                        generations)
    try:
        text, cause = client.complete(messages, decoding), "empty reply"
    except TransportError as err:
        text, cause = "", str(err)
    if text.strip():
        return text
    log.warning("generation %d: critique lost (%s), proposing without feedback",
                next_generation, cause)
    return ""


def make_reply(spec_text: str, description: str) -> str:
    """The JSON reply envelope a well-behaved modeling agent sends back;
    handy for building replay files."""
    return json.dumps({REPLY_FIELD_SPEC: spec_text, REPLY_FIELD_DESCRIPTION: description})
