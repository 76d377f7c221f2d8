"""Outcome models: the discrete driver of the multinomial partial sums.

A model with parameter M has m = 2^(M+1) equally likely outcomes
o_1 < o_2 < ... < o_m, each determined by a length-(M+1) bit pattern
(epsilon_1, ..., epsilon_{M+1}).  The pattern bijection maps outcome
rank s to its pattern; ranks are 1-based and follow the exact order of
the outcome values.  A strict model is normalized so that the outcomes
sum to 0 and their squares sum to m (mean 0, variance 1).

Models come from two constructors.  build_manual takes explicit
(pattern, value) pairs.  build_haar evaluates a truncated expansion in
the Haar basis at depth M: the pattern bits choose one coefficient
c_{k,j} per level k via j(eps, k) = sum_{i<=k} eps_i * 2^(k-i), and

    outcome(eps) = sum_{k=0..M} 2^(k/2) * c_{k, j(eps,k)} * (-1)^(eps_{k+1}).

Odd levels contribute a factor sqrt(2), so Haar models live in Q(sqrt(2))
unless M = 0.  theta_squared(spec) = sum of c_{k,j}^2 equals the variance
of every Haar model exactly (the mean is always 0 because the level-M
terms cancel in sibling pairs).

Within a model, patterns also serve as the binary chunks of level
indices: the integer value of a pattern reads its bits most significant
first, so chunk_of(s) = sum eps_i * 2^(M+1-i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import DomainError
from .exactnum import ExactScalar, parse_scalar

Pattern = Tuple[int, ...]

_SQRT2 = ExactScalar(0, 1, 2)


@dataclass(frozen=True)
class HaarSpec:
    """Truncation depth M and coefficients c_{k,j} for 0<=k<=M, 0<=j<2^k."""

    M: int
    coeffs: Mapping[Tuple[int, int], ExactScalar]

    def __post_init__(self):
        if not isinstance(self.M, int) or self.M < 0:
            raise DomainError(f"truncation depth must be an integer >= 0, got {self.M!r}")
        # count first, without forming 2^(M+1): the key set below has
        # 2^(M+1) - 1 entries, and M comes from outside the program
        size = len(self.coeffs)
        if size.bit_length() != self.M + 1 or size & (size + 1):
            raise DomainError(
                f"haar coefficients for M = {self.M} must number "
                f"2^{self.M + 1} - 1, got {size}"
            )
        want = {(k, j) for k in range(self.M + 1) for j in range(2**k)}
        got = set(self.coeffs)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            raise DomainError(
                f"haar coefficients must cover exactly levels 0..{self.M}: "
                f"missing {missing}, unexpected {extra}"
            )
        for key, c in self.coeffs.items():
            if not isinstance(c, ExactScalar):
                raise DomainError(f"coefficient {key} is not an ExactScalar")
            if c.b != 0 and c.d != 2:
                raise DomainError(
                    f"coefficient {key} lies outside Q(sqrt(2)): sqrt({c.d})"
                )

    def coefficient(self, k: int, j: int) -> ExactScalar:
        try:
            return self.coeffs[(k, j)]
        except KeyError:
            raise DomainError(f"no coefficient at level {k}, offset {j}") from None


def theta_squared(spec: HaarSpec) -> ExactScalar:
    """Sum of squared coefficients; equals the model variance exactly."""
    total = ExactScalar(0, 0, 2)
    for c in spec.coeffs.values():
        total = total + c * c
    return total


def haar_level_index(pattern: Sequence[int], k: int) -> int:
    """j(eps, k) = sum_{i=1..k} eps_i * 2^(k-i); the coefficient offset at level k."""
    j = 0
    for i in range(k):
        j = (j << 1) | pattern[i]
    return j


def haar_outcome(spec: HaarSpec, pattern: Sequence[int]) -> ExactScalar:
    """Evaluate the truncated expansion at the point encoded by the pattern."""
    if len(pattern) != spec.M + 1:
        raise DomainError(
            f"pattern length {len(pattern)} != M+1 = {spec.M + 1}"
        )
    total = ExactScalar(0, 0, 2)
    for k in range(spec.M + 1):
        c = spec.coefficient(k, haar_level_index(pattern, k))
        term = c * (2 ** (k // 2))
        if k % 2 == 1:
            term = term * _SQRT2
        if pattern[k] == 1:
            term = -term
        total = total + term
    return total


class OutcomeModel:
    """Finite outcome space with its pattern bijection and exact moments."""

    def __init__(
        self,
        M: int,
        outcomes: Sequence[ExactScalar],
        patterns: Sequence[Pattern],
        strict: bool,
        d: int,
        haar: Optional[HaarSpec] = None,
    ):
        self.M = M
        self.m = 2 ** (M + 1)
        self.d = d
        self.strict = strict
        self.haar = haar
        self.outcomes = tuple(outcomes)
        self.patterns = tuple(tuple(p) for p in patterns)
        self._index_of_pattern = {p: s + 1 for s, p in enumerate(self.patterns)}
        # chunk value of a pattern: bits most significant first
        self._chunk_of_index = tuple(
            _pattern_int(p) for p in self.patterns
        )
        self._index_of_chunk = [0] * self.m
        for s1, c in enumerate(self._chunk_of_index):
            self._index_of_chunk[c] = s1 + 1
        self._index_of_chunk = tuple(self._index_of_chunk)
        total = ExactScalar(0, 0, d)
        total_sq = ExactScalar(0, 0, d)
        for o in self.outcomes:
            total = total + o
            total_sq = total_sq + o * o
        inv_m = Fraction(1, self.m)
        self.mean = total * inv_m
        self.variance = total_sq * inv_m - self.mean * self.mean

    # -- accessors (1-based outcome ranks) --------------------------------

    def outcome(self, s: int) -> ExactScalar:
        self._check_rank(s)
        return self.outcomes[s - 1]

    def pattern_of(self, s: int) -> Pattern:
        self._check_rank(s)
        return self.patterns[s - 1]

    def outcome_index(self, pattern: Sequence[int]) -> int:
        key = tuple(pattern)
        try:
            return self._index_of_pattern[key]
        except KeyError:
            raise DomainError(f"unknown pattern {key!r}") from None

    def index_of_chunk(self, chunk: int) -> int:
        """Outcome rank whose pattern has integer value chunk (MSB first)."""
        if not isinstance(chunk, int) or not 0 <= chunk < self.m:
            raise DomainError(f"chunk value {chunk!r} out of range [0, {self.m})")
        return self._index_of_chunk[chunk]

    def chunk_of_index(self, s: int) -> int:
        self._check_rank(s)
        return self._chunk_of_index[s - 1]

    def zero(self) -> ExactScalar:
        return ExactScalar(0, 0, self.d)

    def scalar(self, q) -> ExactScalar:
        return ExactScalar(q, 0, self.d)

    def _check_rank(self, s: int):
        if not isinstance(s, int) or not 1 <= s <= self.m:
            raise DomainError(f"outcome rank {s!r} out of range [1, {self.m}]")

    def __repr__(self):
        kind = "haar" if self.haar is not None else "manual"
        return (
            f"OutcomeModel(M={self.M}, m={self.m}, d={self.d}, "
            f"strict={self.strict}, {kind})"
        )


def _pattern_int(pattern: Pattern) -> int:
    v = 0
    for bit in pattern:
        v = (v << 1) | bit
    return v


def _validate_patterns(M: int, patterns: Sequence[Pattern]):
    # count without forming 2^(M+1), as HaarSpec does: M comes from outside
    size = len(patterns)
    if size.bit_length() != M + 2 or size & (size - 1):
        raise DomainError(f"expected 2^{M + 1} patterns for M={M}, got {size}")
    seen = set()
    for p in patterns:
        if len(p) != M + 1 or any(not isinstance(b, int) or b not in (0, 1) for b in p):
            raise DomainError(f"pattern {p!r} is not a length-{M + 1} bit tuple")
        if p in seen:
            raise DomainError(f"duplicate pattern {p!r}")
        seen.add(p)


def _sorted_model(
    M: int,
    pairs: Sequence[Tuple[Pattern, ExactScalar]],
    strict: bool,
    haar: Optional[HaarSpec],
) -> OutcomeModel:
    patterns = [tuple(p) for p, _ in pairs]
    _validate_patterns(M, patterns)
    values = [v for _, v in pairs]
    ds = {v.d for v in values if v.b != 0}
    if len(ds) > 1:
        raise DomainError(f"outcome values mix radicands {sorted(ds)}")
    d = ds.pop() if ds else 1
    values = [ExactScalar(v.a, v.b, d) for v in values]
    order = sorted(range(len(values)), key=values.__getitem__)
    for prev, cur in zip(order, order[1:]):
        if values[prev] == values[cur]:
            raise DomainError(
                f"outcome values are not distinct: patterns "
                f"{patterns[prev]!r} and {patterns[cur]!r} both give {values[cur].text()}"
            )
    model = OutcomeModel(
        M, [values[i] for i in order], [patterns[i] for i in order], strict, d, haar
    )
    if strict and not (model.mean == 0 and model.variance == 1):
        raise DomainError(
            f"strict model must have mean 0 and variance 1, got mean "
            f"{model.mean.text()} and variance {model.variance.text()}"
        )
    return model


def build_manual(
    M: int,
    pairs: Iterable[Tuple[Sequence[int], ExactScalar]],
    strict: bool = True,
) -> OutcomeModel:
    """Build a model from explicit (pattern, value) pairs."""
    if not isinstance(M, int) or M < 0:
        raise DomainError(f"M must be an integer >= 0, got {M!r}")
    norm = [(tuple(p), v) for p, v in pairs]
    for _, v in norm:
        if not isinstance(v, ExactScalar):
            raise DomainError(f"outcome value {v!r} is not an ExactScalar")
    return _sorted_model(M, norm, strict, None)


def build_haar(spec: HaarSpec, strict: bool = False) -> OutcomeModel:
    """Build the model whose outcomes are the truncated-expansion values."""
    m = 2 ** (spec.M + 1)
    pairs = []
    for chunk in range(m):
        pattern = tuple((chunk >> (spec.M - i)) & 1 for i in range(spec.M + 1))
        pairs.append((pattern, haar_outcome(spec, pattern)))
    return _sorted_model(spec.M, pairs, strict, spec)


# -- built-in models -------------------------------------------------------


def builtin_model(name: str) -> OutcomeModel:
    """'A': M=0 strict sign model.  'B': M=1 Haar model with variance 5."""
    if name == "A":
        return build_manual(
            0,
            [((1,), ExactScalar(-1)), ((0,), ExactScalar(1))],
            strict=True,
        )
    if name == "B":
        spec = HaarSpec(
            1,
            {
                (0, 0): ExactScalar(2),
                (1, 0): ExactScalar(0, Fraction(1, 2), 2),
                (1, 1): ExactScalar(0, Fraction(1, 2), 2),
            },
        )
        return build_haar(spec, strict=False)
    raise DomainError(f"unknown builtin model {name!r} (expected 'A' or 'B')")


# -- JSON serialization ----------------------------------------------------


def model_to_json(model: OutcomeModel) -> dict:
    doc = {"M": model.M, "d": model.d, "strict": model.strict}
    if model.haar is not None:
        doc["haar"] = {
            "coeffs": [
                [k, j, model.haar.coeffs[(k, j)].text()]
                for k in range(model.haar.M + 1)
                for j in range(2**k)
            ]
        }
    else:
        doc["outcomes"] = [
            {"pattern": list(model.pattern_of(s)), "value": model.outcome(s).text()}
            for s in range(1, model.m + 1)
        ]
    return doc


def model_from_json(doc) -> OutcomeModel:
    if not isinstance(doc, dict):
        raise DomainError(f"model document must be an object, got {type(doc).__name__}")
    for field in ("M", "strict"):
        if field not in doc:
            raise DomainError(f"model document missing field {field!r}")
    M = doc["M"]
    if not isinstance(M, int) or M < 0:
        raise DomainError(f"field 'M' must be an integer >= 0, got {M!r}")
    strict = doc["strict"]
    if not isinstance(strict, bool):
        raise DomainError(f"field 'strict' must be a boolean, got {strict!r}")
    d = doc.get("d", 1)
    if not isinstance(d, int):
        raise DomainError(f"field 'd' must be an integer, got {d!r}")
    if ("outcomes" in doc) == ("haar" in doc):
        raise DomainError("model document needs exactly one of 'outcomes' or 'haar'")
    if "haar" in doc:
        block = doc["haar"]
        if not isinstance(block, dict) or not isinstance(block.get("coeffs"), list):
            raise DomainError("'haar' must be an object with a 'coeffs' list")
        coeffs = {}
        for idx, row in enumerate(block["coeffs"]):
            if not (isinstance(row, list) and len(row) == 3):
                raise DomainError(f"haar.coeffs[{idx}] must be [k, j, value-text]")
            k, j, text = row
            if not (isinstance(k, int) and isinstance(j, int)):
                raise DomainError(f"haar.coeffs[{idx}]: k and j must be integers")
            try:
                value = parse_scalar(text)
            except DomainError as e:
                raise DomainError(f"haar.coeffs[{idx}]: {e}") from None
            if (k, j) in coeffs:
                raise DomainError(f"haar.coeffs[{idx}]: duplicate coefficient ({k},{j})")
            coeffs[(k, j)] = value
        model = build_haar(HaarSpec(M, coeffs), strict=strict)
    else:
        rows = doc["outcomes"]
        if not isinstance(rows, list):
            raise DomainError("'outcomes' must be a list")
        pairs = []
        for idx, row in enumerate(rows):
            if not isinstance(row, dict) or "pattern" not in row or "value" not in row:
                raise DomainError(
                    f"outcomes[{idx}] must be an object with 'pattern' and 'value'"
                )
            try:
                value = parse_scalar(row["value"], d=d if d > 1 else None)
            except DomainError as e:
                raise DomainError(f"outcomes[{idx}].value: {e}") from None
            if not isinstance(row["pattern"], list):
                raise DomainError(f"outcomes[{idx}].pattern must be a list of bits")
            pairs.append((tuple(row["pattern"]), value))
        model = build_manual(M, pairs, strict=strict)
    if model.d > 1 and d != model.d:
        raise DomainError(
            f"declared radicand d={d} does not match outcome values (d={model.d})"
        )
    return model


def load_model(path: str) -> OutcomeModel:
    """Read a model file; diagnostics carry file positions where available."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise DomainError(f"cannot read model file {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DomainError(f"model file {path} is not UTF-8 text: {e}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise DomainError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    try:
        return model_from_json(doc)
    except DomainError as e:
        raise DomainError(f"{path}: {e}") from None


def save_model(model: OutcomeModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")
