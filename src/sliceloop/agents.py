"""Decision layer: meta-prompt assembly, backends, parsing, token accounting.

``build_meta_prompt`` renders the reallocation prompt as text.  Three
interchangeable backends answer it through the same call,
``propose(prompt, current_allocation, predictor=None)``: the prompt text,
the shares in force (their length is the slice count), and the
one-interval lookahead that only the oracle reads:

* ``HeuristicOracleBackend`` searches the allocation grid against a
  one-interval prediction; it is the default for every offline
  experiment and needs no network.
* ``ScriptedBackend`` replays a fixed decision list for tests.
* ``RemoteBackend`` speaks the de-facto chat-completion JSON wire format
  over HTTPS; credentials come from the RELLM_API_KEY environment
  variable and the endpoint/model are configuration.

``Predictor`` is the package's one evaluator of a hypothetical RB split:
it looks the split up in per-slice response tables, which hold each
slice's next-interval KPMs from the carried queue state and their SLA
risk for every RB count, and ``score_splits`` sums the score of a whole
array of splits at once (``score`` is its one-split case).  The oracle
here and the exhaustive optimizer in ``baselines`` each score every
split of ``core.rb_splits`` in one call; the live loop assesses measured
KPMs with ``sla.assess``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Protocol, Sequence

import numpy as np

from .core import (
    SUM_TOLERANCE,
    AllocationRatio,
    RadioConfig,
    SliceKind,
    SliceKpm,
    SliceSpec,
    check_pool,
    ratio_to_rb_counts,
    rb_splits,
)
from .radio import (
    InternalStateError,
    QueueConfig,
    SimState,
    SliceKpmTable,
    UeChannelState,
    slice_kpm_tables,
)
from .sla import RiskAssessment, compliance_index, slice_risk

API_KEY_ENV = "RELLM_API_KEY"
REMOTE_TEMPERATURE = 0.0
REMOTE_MAX_TOKENS = 256
REMOTE_TIMEOUT_S = 30.0


class BackendError(RuntimeError):
    """The backend could not produce a usable decision this cycle."""


class BackendTimeoutError(BackendError):
    pass


class ParseError(BackendError):
    """Model output did not contain a valid shares object."""

    def __init__(self, message: str, text: str = "") -> None:
        super().__init__(f"{message}: {text!r}")
        self.text = text


def count_tokens(text: str) -> int:
    """Token estimate for offline backends: one token per four bytes."""
    return math.ceil(len(text.encode("utf-8")) / 4)


def valid_token_counts(*counts) -> bool:
    """True when every count is a nonnegative int (not a bool)."""
    return all(isinstance(t, int) and not isinstance(t, bool) and t >= 0 for t in counts)


def _token_counts(report: dict, prompt_default: int) -> Optional[tuple[int, int]]:
    """(prompt, completion) tokens a backend reports, or None unless both are
    valid.  A missing completion count is 0."""
    tokens = (report.get("prompt_tokens", prompt_default),
              report.get("completion_tokens", 0))
    return tokens if valid_token_counts(*tokens) else None


def _fmt(x: float) -> str:
    return f"{x:.3f}"


@dataclass(frozen=True, slots=True)
class DecisionOutcome:
    allocation: AllocationRatio
    prompt_tokens: int
    completion_tokens: int
    backend_label: str
    raw_response: str

    def __post_init__(self) -> None:
        if not valid_token_counts(self.prompt_tokens, self.completion_tokens):
            raise ValueError("token counts must be nonnegative ints, got "
                             f"{self.prompt_tokens!r} and {self.completion_tokens!r}")


def build_meta_prompt(
    assessment: RiskAssessment,
    kpm: Sequence[SliceKpm],
    current_allocation: AllocationRatio,
    retrieved: Sequence,
    specs: Sequence[SliceSpec],
    radio_cfg: RadioConfig,
) -> str:
    """Render the reallocation prompt; byte-identical for equal inputs."""
    lines = [
        "You are a radio resource manager for a sliced RAN.",
        f"The gNB owns {radio_cfg.total_rbs} resource blocks shared by "
        f"{len(specs)} slices.",
        "Slice status this interval:",
    ]
    for spec, s, risk in zip(specs, kpm, assessment.slices):
        if spec.kind is SliceKind.LATENCY:
            target = f"latency SLA {_fmt(spec.sla_target)} ms"
            meas = f"measured latency {_fmt(s.mean_latency_ms)} ms"
        else:
            target = f"throughput target {_fmt(spec.sla_target)} Mbps"
            meas = f"measured throughput {_fmt(s.mean_throughput_mbps)} Mbps"
        lines.append(
            f"- slice {spec.slice_id}: {target}, {meas}, "
            f"offered {_fmt(s.offered_load_mbps)} Mbps, "
            f"drop ratio {_fmt(s.drop_ratio)}, risk {_fmt(risk.rho)}"
        )
    lines.append(f"Overall compliance index: {_fmt(assessment.sigma)}")
    lines.append(
        "Current allocation shares: ["
        + ", ".join(_fmt(s) for s in current_allocation.shares)
        + "]"
    )
    if retrieved:
        lines.append("Historical decisions at similar traffic (best first):")
        for r in retrieved:
            lines.append(
                "- rates ["
                + ", ".join(_fmt(x) for x in r.arrival_rates_mbps)
                + "] shares ["
                + ", ".join(_fmt(x) for x in r.allocation_shares)
                + f"] compliance {_fmt(r.resulting_sigma)}"
            )
    else:
        lines.append("No historical examples are available for this traffic.")
    lines.append(
        "Choose new allocation shares that restore SLA compliance. "
        'Respond with a single JSON object {"shares": [..]} whose values '
        "sum to 1, one share per slice, and nothing else."
    )
    return "\n".join(lines)


def parse_allocation_response(text: str, slice_count: int) -> AllocationRatio:
    """Extract and validate the first JSON object carrying a shares list.

    Sums within 0.02 of 1.0 are renormalised exactly; anything further
    off, or of the wrong shape, is a parse error.
    """
    decoder = json.JSONDecoder()
    shares = None
    for i, ch in enumerate(text):
        if ch != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, i)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "shares" in obj:
            shares = obj["shares"]
            break
    if shares is None:
        raise ParseError("no JSON object with a 'shares' key", text)
    if not isinstance(shares, list) or len(shares) != slice_count:
        raise ParseError(f"expected a list of {slice_count} shares", text)
    try:
        values = [float(s) for s in shares]
    except (TypeError, ValueError, OverflowError):
        raise ParseError("shares must be numbers", text)
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ParseError("shares outside [0, 1]", text)
    total = sum(values)
    if abs(total - 1.0) > 0.02:
        raise ParseError(f"shares sum to {total}", text)
    if abs(total - 1.0) > SUM_TOLERANCE:
        values = [v / total for v in values]
        # With 3+ shares the rounded remainder can dip just below zero.
        values[-1] = max(0.0, 1.0 - sum(values[:-1]))
    return AllocationRatio(values)


@dataclass(frozen=True)
class SplitScore:
    """Predicted outcome of one interval under a candidate RB split.

    ``excess`` sums how far each slice's violation level sits beyond its
    SLA boundary (positive direction for latency slices, negative for
    throughput slices).  It is zero whenever every slice complies, and it
    grades candidates apart when deep violations saturate the sigmoid and
    flatten sigma.  ``throughput_mbps`` totals the throughput slices.
    """

    kpm: tuple[SliceKpm, ...]
    sigma: float
    excess: float
    throughput_mbps: float


def _excess(spec: SliceSpec, epsilon) -> np.ndarray:
    """One slice's terms of ``SplitScore.excess``, entry by entry.

    ``max(0.0, x)`` is ``np.maximum(x, 0.0)``: numpy returns its second
    argument on ties, so -0.0 gives 0.0 as Python's ``max`` does.
    """
    if spec.kind is SliceKind.LATENCY:
        # Only a starved latency slice has epsilon = inf.
        return np.maximum(np.where(np.isinf(epsilon), 1e6, epsilon), 0.0)
    return np.maximum(-epsilon, 0.0)


class Predictor:
    """One-interval lookahead from a carried queue state.

    Slices share only the RB total, so a split's predicted KPMs and SLA
    risks are one entry per slice from that slice's response table: for
    every RB count it can hold, 1 to ``total_rbs - n + 1`` for n slices,
    one interval's KPMs as arrays (``radio.SliceKpmTable``), from one
    stacked queue recursion, ``radio.slice_kpm_tables``, that steps every
    slice's RB counts at once.  From each table, one ``sla.slice_risk``
    call gives the rho of every entry, and with it the excess and the
    throughput that score a split.  The tables are computed on first
    use, through ``memo`` when one is given (a sweep's
    ``SweepMemo.tables``: a slice input an earlier decision met keeps
    its table, and only the other slices are stepped); ``predict``
    builds the ``SliceKpm``s of its one split, and
    ``score_splits`` scores a whole array of splits by numpy gathers from
    the tables and sums slice by slice.  The carried state is never
    mutated.
    """

    def __init__(
        self,
        offered_mbps: Sequence[float],
        channels: Sequence[UeChannelState],
        radio_cfg: RadioConfig,
        queue_cfg: QueueConfig,
        specs: Sequence[SliceSpec],
        state: SimState,
        memo: Optional[dict] = None,
    ) -> None:
        self.offered_mbps = list(offered_mbps)
        self.channels = list(channels)
        self.radio_cfg = radio_cfg
        self.queue_cfg = queue_cfg
        self.specs = list(specs)
        self._state = state
        self._memo = memo
        self._weights = [spec.weight for spec in self.specs]
        self._throughput_slices = [
            k for k, spec in enumerate(self.specs) if spec.kind is SliceKind.THROUGHPUT
        ]
        # Response tables, one per slice, and from them the rho, excess
        # and throughput of each slice (rows) and RB count - 1 (columns).
        self._tables: Optional[list[SliceKpmTable]] = None
        self._rhos = self._excess = self._thr = np.empty((0, 0))

    def predict(self, rb_counts: Sequence[int]) -> tuple[SliceKpm, ...]:
        """Predicted KPMs per slice for the next interval under rb_counts.

        Equal to ``simulate_interval(...).kpm`` from the carried state.
        """
        n = len(self._state.queues)
        if len(rb_counts) != n or len(self.offered_mbps) != n or len(self.specs) != n:
            raise InternalStateError("slice counts disagree across inputs")
        if sum(rb_counts) != self.radio_cfg.total_rbs:
            raise InternalStateError("RB counts must sum to the configured pool")
        if min(rb_counts) < 1:
            raise ValueError("every slice needs at least one RB")
        return tuple(table.kpm(c) for table, c in zip(self.kpm_tables(), rb_counts))

    def kpm_tables(self) -> list[SliceKpmTable]:
        """Per slice, its predicted KPMs for 1 .. ``total_rbs - n + 1`` RBs."""
        if self._tables is None:
            n = len(self._state.queues)
            check_pool(self.radio_cfg.total_rbs, n)
            max_rbs = self.radio_cfg.total_rbs - n + 1
            tables = slice_kpm_tables(self.offered_mbps, self.channels, self.radio_cfg,
                                      self.queue_cfg, self._state, max_rbs, self._memo)
            self._rhos, self._excess, self._thr = np.empty((3, n, max_rbs))
            for k, (spec, table) in enumerate(zip(self.specs, tables)):
                risk = slice_risk(spec, table)
                # A float risk, that of an idle slice, fills its whole row.
                self._rhos[k], self._excess[k], self._thr[k] = (
                    risk.rho, _excess(spec, risk.epsilon), table.mean_throughput_mbps)
            self._tables = tables
        return self._tables

    def score(self, rb_counts: Sequence[int]) -> SplitScore:
        """Predicted KPMs, and ``score_splits`` of the one split rb_counts."""
        return SplitScore(self.predict(rb_counts),
                          *(float(x[0]) for x in self.score_splits(np.array([rb_counts]))))

    def score_splits(self, splits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sigma, violation excess and throughput of each row of an ``(S, n)`` array of RB counts.

        Each equals scoring ``predict(row)`` with ``sla.assess``, the excess
        counting a starved latency slice as 1e6: each slice's term is
        gathered from its table and the terms are added slice by slice,
        left to right, as ``sla.compliance_index`` adds them (``np.sum``
        over the slices would add pairwise).
        """
        n = len(self._state.queues)
        if (splits.ndim != 2 or splits.shape[1] != n or len(self.offered_mbps) != n
                or len(self.specs) != n):
            raise InternalStateError("slice counts disagree across inputs")
        if (splits.sum(axis=1) != self.radio_cfg.total_rbs).any():
            raise InternalStateError("RB counts must sum to the configured pool")
        if (splits < 1).any():
            raise ValueError("every slice needs at least one RB")
        self.kpm_tables()  # builds the tables on first use
        index = splits.T - 1
        rhos, excess, thr = (np.take_along_axis(table, index, axis=1)
                             for table in (self._rhos, self._excess, self._thr))
        zeros = np.zeros(len(splits))
        return (compliance_index(rhos, self._weights), sum(excess, zeros),
                sum(thr[self._throughput_slices], zeros))


def check_oracle_specs(specs: Sequence[SliceSpec]) -> None:
    """Raise ValueError, naming the slice count, unless the heuristic oracle can decide for specs.

    It decides for exactly two slices, one of them latency-constrained.
    """
    latency = sum(s.kind == SliceKind.LATENCY for s in specs)
    if len(specs) != 2 or not latency:
        raise ValueError("the heuristic oracle needs exactly two slices, one of them "
                         f"latency-constrained; got {len(specs)} slices, {latency} of them "
                         "latency-constrained")


def heuristic_oracle_decide(
    current_allocation: AllocationRatio,
    predictor: Predictor,
) -> AllocationRatio:
    """Grid search over the latency slice's share, scored by predicted sigma.

    Candidates are every split with at least one RB per slice, so every
    latency-slice count from 1 to total - 1 (the current count included),
    all scored in one ``Predictor.score_splits`` call.
    Ties on predicted sigma go to the candidate with the smallest
    violation excess (which grades candidates apart when deep violations
    saturate the sigmoid), then to the higher predicted throughput for
    the throughput slices, then to the fewest RBs moved, then to the
    fewest RBs on the latency slice.

    Scores are rounded before comparison (sigma to 1e-6, excess to 1e-3,
    throughput to 0.1 Mbps) so that packet-quantisation noise in the
    prediction does not break ties that are physically meaningless; when
    every candidate on a safe plateau scores the same, the fewest-moved
    rule keeps the current allocation.
    """
    check_oracle_specs(predictor.specs)
    latency_idx = [s.kind for s in predictor.specs].index(SliceKind.LATENCY)
    total = predictor.radio_cfg.total_rbs
    current_lat = ratio_to_rb_counts(current_allocation, total)[latency_idx]
    splits = rb_splits(total, 2)
    sigma, excess, thr = (x.tolist() for x in predictor.score_splits(splits))
    lat = splits[:, latency_idx].tolist()
    # round() of Python floats: np.round differs on some halfway cases,
    # and the rounding decides ties.  Every key ends in a distinct -lat.
    keys = zip(map(round, sigma, repeat(6)), [-round(x, 3) for x in excess],
               map(round, thr, repeat(1)), [-abs(x - current_lat) for x in lat],
               [-x for x in lat])
    chosen = -max(keys)[4]
    shares = [0.0, 0.0]
    shares[latency_idx] = chosen / total
    shares[1 - latency_idx] = 1.0 - chosen / total
    return AllocationRatio(shares)


class Backend(Protocol):
    label: str

    def propose(
        self,
        prompt: str,
        current_allocation: AllocationRatio,
        predictor: Optional[Predictor] = None,
    ) -> DecisionOutcome: ...


class HeuristicOracleBackend:
    """Deterministic offline stand-in for the LLM."""

    label = "oracle"

    def propose(
        self,
        prompt: str,
        current_allocation: AllocationRatio,
        predictor: Optional[Predictor] = None,
    ) -> DecisionOutcome:
        if predictor is None:
            raise BackendError("the oracle backend needs a predictor")
        allocation = heuristic_oracle_decide(current_allocation, predictor)
        response = json.dumps({"shares": list(allocation.shares)})
        return DecisionOutcome(
            allocation=allocation,
            prompt_tokens=count_tokens(prompt),
            completion_tokens=count_tokens(response),
            backend_label=self.label,
            raw_response=response,
        )


class ScriptedBackend:
    """Replays an ordered list of decisions, e.g. loaded from JSON."""

    label = "scripted"

    def __init__(self, decisions: Sequence[dict]) -> None:
        self._decisions = list(decisions)
        self._cursor = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path) as fh:
            return cls(json.load(fh))

    def propose(
        self,
        prompt: str,
        current_allocation: AllocationRatio,
        predictor: Optional[Predictor] = None,
    ) -> DecisionOutcome:
        if self._cursor >= len(self._decisions):
            raise BackendError("scripted backend exhausted")
        entry = self._decisions[self._cursor]
        self._cursor += 1
        slice_count = len(current_allocation)
        try:
            allocation = AllocationRatio(entry["shares"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid scripted shares ({exc})", str(entry)) from exc
        if len(allocation) != slice_count:
            raise ParseError("scripted shares have the wrong length", str(entry))
        tokens = _token_counts(entry, count_tokens(prompt))
        if tokens is None:
            raise ParseError("invalid scripted token counts", str(entry))
        return DecisionOutcome(
            allocation=allocation,
            prompt_tokens=tokens[0],
            completion_tokens=tokens[1],
            backend_label=self.label,
            raw_response=json.dumps(entry),
        )


class RemoteBackend:
    """Chat-completion client: one retry with an error suffix on bad output."""

    label = "remote"

    def __init__(self, endpoint_url: str, model: str, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
        self.endpoint_url = endpoint_url
        self.model = model
        self.session = session

    def _call(self, messages: list[dict]) -> tuple[str, int, int]:
        import requests

        headers = {}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": REMOTE_TEMPERATURE,
            "max_tokens": REMOTE_MAX_TOKENS,
        }
        try:
            resp = self.session.post(
                self.endpoint_url, json=body, headers=headers, timeout=REMOTE_TIMEOUT_S
            )
        except requests.Timeout as exc:
            raise BackendTimeoutError(str(exc)) from exc
        except requests.RequestException as exc:
            raise BackendError(str(exc)) from exc
        if resp.status_code != 200:
            raise BackendError(f"endpoint returned {resp.status_code}: {resp.text}")
        try:
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed response body: {exc!r}") from exc
        if not isinstance(content, str):
            raise ParseError("response content is not text", repr(content))
        usage = data.get("usage") or {}
        tokens = _token_counts(usage, 0) if isinstance(usage, dict) else None
        if tokens is None:
            raise BackendError(f"malformed token usage: {usage!r}")
        return content, *tokens

    def propose(
        self,
        prompt: str,
        current_allocation: AllocationRatio,
        predictor: Optional[Predictor] = None,
    ) -> DecisionOutcome:
        slice_count = len(current_allocation)
        messages = [{"role": "user", "content": prompt}]
        content, p_tok, c_tok = self._call(messages)
        try:
            allocation = parse_allocation_response(content, slice_count)
        except ParseError as first_error:
            retry = messages + [
                {"role": "assistant", "content": content},
                {
                    "role": "user",
                    "content": "Your previous reply was not a valid allocation "
                    f"({first_error}). Respond with only the JSON object "
                    '{"shares": [..]}.',
                },
            ]
            content, p2, c2 = self._call(retry)
            p_tok, c_tok = p_tok + p2, c_tok + c2
            allocation = parse_allocation_response(content, slice_count)
        return DecisionOutcome(
            allocation=allocation,
            prompt_tokens=p_tok,
            completion_tokens=c_tok,
            backend_label=self.label,
            raw_response=content,
        )
