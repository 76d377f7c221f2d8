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

A model stores each pattern once, as its chunk int: its bits read most
significant first, chunk = sum eps_i * 2^(M+1-i), the chunk it forms in
a level index.  So j(eps, k) is the chunk's top k bits, chunk >> (M+1-k).
_chunk_of is the one check and conversion of a caller's pattern (M+1
ints in {0, 1}, booleans refused), and _bits the one way back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import DomainError, shown
from .exactnum import ExactScalar, parse_scalar

Pattern = Tuple[int, ...]

_SQRT2 = ExactScalar(0, 1, 2)


@dataclass(frozen=True)
class HaarSpec:
    """Truncation depth M and coefficients c_{k,j} for 0<=k<=M, 0<=j<2^k."""

    M: int
    coeffs: Mapping[Tuple[int, int], ExactScalar]

    def __post_init__(self):
        if type(self.M) is not int or self.M < 0:  # bool is an int subclass
            raise DomainError(f"truncation depth must be an integer >= 0, got {shown(self.M)}")
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
            raise DomainError(f"no coefficient at level {shown(k)}, offset {shown(j)}") from None


def theta_squared(spec: HaarSpec) -> ExactScalar:
    """Sum of squared coefficients; equals the model variance exactly."""
    return sum((c * c for c in spec.coeffs.values()), ExactScalar(0, 0, 2))


def _bits(M: int, chunk: int) -> Pattern:
    """The M+1 bits of a chunk int, most significant first."""
    return tuple((chunk >> (M - i)) & 1 for i in range(M + 1))


def _chunk_of(M: int, pattern: Iterable[int]) -> int:
    """The chunk int of a pattern of M+1 ints in {0, 1}; DomainError for
    anything else, booleans and non-iterables included."""
    try:
        bits = tuple(pattern)
        ok = len(bits) == M + 1 and all(type(b) is int and b in (0, 1) for b in bits)
    except TypeError:
        bits, ok = pattern, False
    if not ok:
        raise DomainError(f"pattern {shown(bits)} is not a length-{M + 1} bit tuple")
    return sum(b << (M - i) for i, b in enumerate(bits))


def _haar_value(spec: HaarSpec, chunk: int) -> ExactScalar:
    """The truncated expansion at the pattern of chunk: level k reads the
    coefficient at the chunk's top k bits and the sign of bit k+1."""
    total = ExactScalar(0, 0, 2)
    for k in range(spec.M + 1):
        term = spec.coefficient(k, chunk >> (spec.M + 1 - k)) * (2 ** (k // 2))
        if k % 2 == 1:
            term = term * _SQRT2
        if (chunk >> (spec.M - k)) & 1:
            term = -term
        total = total + term
    return total


def haar_outcome(spec: HaarSpec, pattern: Sequence[int]) -> ExactScalar:
    """Evaluate the truncated expansion at the point encoded by the pattern."""
    return _haar_value(spec, _chunk_of(spec.M, pattern))


class OutcomeModel:
    """Finite outcome space with its pattern bijection and exact moments."""

    def __init__(
        self,
        M: int,
        outcomes: Sequence[ExactScalar],
        chunks: Sequence[int],
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
        # the one stored form of each outcome's bits: its chunk int
        self._chunk_of_index = tuple(chunks)
        self._index_of_chunk = tuple(  # the ranks in the order of their chunks
            sorted(range(1, self.m + 1), key=lambda s: self._chunk_of_index[s - 1])
        )
        inv_m = Fraction(1, self.m)
        self.mean = sum(self.outcomes, self.zero()) * inv_m
        total_sq = sum((o * o for o in self.outcomes), self.zero())
        self.variance = total_sq * inv_m - self.mean * self.mean

    # -- accessors (1-based outcome ranks) --------------------------------

    def outcome(self, s: int) -> ExactScalar:
        self._check_rank(s)
        return self.outcomes[s - 1]

    def pattern_of(self, s: int) -> Pattern:
        return _bits(self.M, self.chunk_of_index(s))

    def outcome_index(self, pattern: Sequence[int]) -> int:
        return self._index_of_chunk[_chunk_of(self.M, pattern)]

    def index_of_chunk(self, chunk: int) -> int:
        """Outcome rank whose pattern has integer value chunk (MSB first)."""
        if type(chunk) is not int or not 0 <= chunk < self.m:
            raise DomainError(f"chunk value {shown(chunk)} out of range [0, {self.m})")
        return self._index_of_chunk[chunk]

    def chunk_of_index(self, s: int) -> int:
        self._check_rank(s)
        return self._chunk_of_index[s - 1]

    def zero(self) -> ExactScalar:
        return ExactScalar(0, 0, self.d)

    def _check_rank(self, s: int):
        if type(s) is not int or not 1 <= s <= self.m:
            raise DomainError(f"outcome rank {shown(s)} out of range [1, {self.m}]")

    def __repr__(self):
        kind = "haar" if self.haar is not None else "manual"
        return (
            f"OutcomeModel(M={self.M}, m={self.m}, d={self.d}, "
            f"strict={self.strict}, {kind})"
        )


def _sorted_model(
    M: int,
    chunks: Sequence[int],
    values: Sequence[ExactScalar],
    strict: bool,
    haar: Optional[HaarSpec],
) -> OutcomeModel:
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
                f"{_bits(M, chunks[prev])!r} and {_bits(M, chunks[cur])!r} "
                f"both give {values[cur].text()}"
            )
    model = OutcomeModel(
        M, [values[i] for i in order], [chunks[i] for i in order], strict, d, haar
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
    if type(M) is not int or M < 0:
        raise DomainError(f"M must be an integer >= 0, got {shown(M)}")
    try:
        pairs = [(p, v) for p, v in pairs]
    except (TypeError, ValueError):
        raise DomainError("outcomes must be (pattern, value) pairs") from None
    for _, v in pairs:
        if not isinstance(v, ExactScalar):
            raise DomainError(f"outcome value {shown(v)} is not an ExactScalar")
    # count without forming 2^(M+1), as HaarSpec does: M comes from outside
    size = len(pairs)
    if size.bit_length() != M + 2 or size & (size - 1):
        raise DomainError(f"expected 2^{M + 1} patterns for M={M}, got {size}")
    chunks, seen = [], set()
    for p, _ in pairs:
        chunk = _chunk_of(M, p)
        if chunk in seen:
            raise DomainError(f"duplicate pattern {_bits(M, chunk)!r}")
        seen.add(chunk)
        chunks.append(chunk)
    return _sorted_model(M, chunks, [v for _, v in pairs], strict, None)


def build_haar(spec: HaarSpec, strict: bool = False) -> OutcomeModel:
    """Build the model whose outcomes are the truncated-expansion values."""
    chunks = range(2 ** (spec.M + 1))
    values = [_haar_value(spec, c) for c in chunks]
    return _sorted_model(spec.M, chunks, values, strict, spec)


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


def outcome_rows(model: OutcomeModel) -> list:
    """Every outcome's pattern and value text, in rank order."""
    return [
        {"pattern": list(model.pattern_of(s)), "value": model.outcome(s).text()}
        for s in range(1, model.m + 1)
    ]


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
        doc["outcomes"] = outcome_rows(model)
    return doc


def model_from_json(doc) -> OutcomeModel:
    if not isinstance(doc, dict):
        raise DomainError(f"model document must be an object, got {type(doc).__name__}")
    for field in ("M", "strict"):
        if field not in doc:
            raise DomainError(f"model document missing field {field!r}")
    M = doc["M"]
    if type(M) is not int or M < 0:  # JSON true is not 1
        raise DomainError(f"field 'M' must be an integer >= 0, got {shown(M)}")
    strict = doc["strict"]
    if not isinstance(strict, bool):
        raise DomainError(f"field 'strict' must be a boolean, got {shown(strict)}")
    d = doc.get("d", 1)
    if type(d) is not int:
        raise DomainError(f"field 'd' must be an integer, got {shown(d)}")
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
            if not (type(k) is int and type(j) is int):
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
            pairs.append((row["pattern"], value))
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
    except ValueError as e:  # an int literal with more digits than int() reads
        raise DomainError(f"{path}: {e}") from None
    except RecursionError:
        raise DomainError(f"{path}: JSON nested too deeply") from None
    try:
        return model_from_json(doc)
    except DomainError as e:
        raise DomainError(f"{path}: {e}") from None


def save_model(model: OutcomeModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")
