"""Model construction, the pattern bijection, Haar evaluation, JSON I/O."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantperm import (
    DomainError,
    ExactScalar,
    HaarSpec,
    build_haar,
    build_manual,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    theta_squared,
)


def _patterns(model):
    return [model.pattern_of(s) for s in range(1, model.m + 1)]


def test_model_a_shape(model_a):
    assert (model_a.M, model_a.m, model_a.d, model_a.strict) == (0, 2, 1, True)
    assert [o.text() for o in model_a.outcomes] == ["-1", "1"]
    assert model_a.pattern_of(1) == (1,)
    assert model_a.pattern_of(2) == (0,)
    assert model_a.outcome_index((1,)) == 1
    assert model_a.outcome_index((0,)) == 2
    assert model_a.mean == 0 and model_a.variance == 1


def test_model_b_haar_evaluation(model_b):
    # level-1 terms are sqrt(2) * (1/2)sqrt(2) = 1, so the four outcomes
    # are +-2 +- 1 and come out rational
    assert [o.text() for o in model_b.outcomes] == ["-3", "-1", "1", "3"]
    assert model_b.pattern_of(1) == (1, 1)
    assert model_b.pattern_of(2) == (1, 0)
    assert model_b.pattern_of(3) == (0, 1)
    assert model_b.pattern_of(4) == (0, 0)
    assert model_b.mean == 0
    assert model_b.variance == 5
    assert theta_squared(model_b.haar) == 5


def test_model_b_not_strict(model_b):
    assert not model_b.strict
    with pytest.raises(DomainError):
        build_haar(model_b.haar, strict=True)


def test_model_c_irrational_order(model_c):
    # -1 - 1/3 sqrt(2) < -1 + 1/3 sqrt(2) < 1 - 1/2 sqrt(2) < 1 + 1/2 sqrt(2)
    assert model_c.d == 2
    assert [model_c.pattern_of(s) for s in (1, 2, 3, 4)] == [
        (1, 1), (1, 0), (0, 1), (0, 0)
    ]
    assert model_c.variance == Fraction(49, 36)
    assert theta_squared(model_c.haar) == Fraction(49, 36)


def test_haar_m0_is_sign_model(model_a):
    spec = HaarSpec(0, {(0, 0): ExactScalar(1)})
    model = build_haar(spec, strict=True)
    assert [o.text() for o in model.outcomes] == ["-1", "1"]
    assert _patterns(model) == _patterns(model_a)
    assert theta_squared(spec) == 1


def test_haar_degenerate_rejected():
    spec = HaarSpec(
        1,
        {(0, 0): ExactScalar(0), (1, 0): ExactScalar(0), (1, 1): ExactScalar(0)},
    )
    with pytest.raises(DomainError):
        build_haar(spec)


def test_haar_spec_validation():
    with pytest.raises(DomainError):
        HaarSpec(1, {(0, 0): ExactScalar(1)})  # missing level 1
    with pytest.raises(DomainError):
        HaarSpec(0, {(0, 0): ExactScalar(1), (1, 0): ExactScalar(1)})
    with pytest.raises(DomainError):
        HaarSpec(0, {(0, 0): ExactScalar(1, 1, 3)})  # wrong field


def test_haar_model_with_large_M_is_refused_quickly(time_limit):
    # the coefficient count is checked before any 2^(M+1)-sized set is built
    doc = {"M": 40, "strict": False, "haar": {"coeffs": []}}
    with time_limit(1.0), pytest.raises(DomainError, match="2\\^41 - 1, got 0"):
        model_from_json(doc)


def test_manual_validation():
    one = ExactScalar(1)
    with pytest.raises(DomainError):
        build_manual(0, [((0,), one)])  # wrong count
    with pytest.raises(DomainError):
        build_manual(0, [((0,), one), ((0,), -one)])  # duplicate pattern
    with pytest.raises(DomainError):
        build_manual(0, [((0, 1), one), ((1,), -one)])  # wrong length
    with pytest.raises(DomainError):
        build_manual(0, [((0,), one), ((1,), one)])  # duplicate value
    with pytest.raises(DomainError):
        build_manual(0, [((0,), one), ((1,), ExactScalar(-2))], strict=True)
    # same pairs, non-strict: fine
    model = build_manual(0, [((0,), one), ((1,), ExactScalar(-2))], strict=False)
    assert [o.text() for o in model.outcomes] == ["-2", "1"]
    with pytest.raises(DomainError, match="variance 4"):  # mean 0, variance 4
        build_manual(0, [((0,), ExactScalar(2)), ((1,), ExactScalar(-2))], strict=True)


ONE = ExactScalar(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda model: build_manual(0, None),
        lambda model: build_manual(0, [(None, ONE), ((1,), -ONE)]),
        lambda model: build_manual(0, [(5, ONE), ((1,), -ONE)]),
        lambda model: build_manual(0, [((0,),), ((1,), -ONE)]),
        lambda model: build_manual(0, [((0,), ONE, ONE), ((1,), -ONE)]),
        lambda model: build_manual(0, [((False,), ONE), ((True,), -ONE)]),
        lambda model: model.outcome_index(None),
        lambda model: model.outcome_index(5),
        lambda model: model.outcome_index((True,)),
    ],
    ids=[
        "manual-none", "pattern-none", "pattern-int", "pair-short", "pair-long",
        "pattern-bool", "index-none", "index-int", "index-bool",
    ],
)
def test_every_pattern_taker_refuses_a_non_pattern(model_a, call):
    # patterns reach a model only through one checked conversion to
    # their chunk int, which refuses these
    with pytest.raises(DomainError):
        call(model_a)


def test_chunk_lookup_round_trip(model_b):
    for s in range(1, model_b.m + 1):
        chunk = model_b.chunk_of_index(s)
        assert model_b.index_of_chunk(chunk) == s
    # MSB-first: pattern (1,1) has chunk value 3
    assert model_b.chunk_of_index(1) == 3
    assert model_b.index_of_chunk(0) == 4


def test_positive_scaling_preserves_order(model_c):
    for scale in (ExactScalar(Fraction(3, 2)), ExactScalar(1, 1, 2)):
        scaled = build_manual(
            model_c.M,
            [
                (model_c.pattern_of(s), model_c.outcome(s) * scale)
                for s in range(1, model_c.m + 1)
            ],
            strict=False,
        )
        assert _patterns(scaled) == _patterns(model_c)
        # all pairs stay strictly ordered
        for i in range(scaled.m):
            for j in range(i + 1, scaled.m):
                assert scaled.outcomes[i] < scaled.outcomes[j]


def test_json_round_trip(model_a, model_b, model_c, tmp_path):
    for model in (model_a, model_b, model_c):
        doc = model_to_json(model)
        back = model_from_json(json.loads(json.dumps(doc)))
        assert _patterns(back) == _patterns(model)
        assert back.outcomes == model.outcomes
        assert back.strict == model.strict
        path = tmp_path / "m.json"
        save_model(model, str(path))
        again = load_model(str(path))
        assert again.outcomes == model.outcomes


def test_json_haar_block_round_trip(model_b):
    doc = model_to_json(model_b)
    assert "haar" in doc and "outcomes" not in doc
    coeffs = {(k, j): text for k, j, text in doc["haar"]["coeffs"]}
    assert coeffs[(1, 0)] == "1/2 * sqrt(2)"


def test_json_validation_errors():
    with pytest.raises(DomainError):
        model_from_json([])
    with pytest.raises(DomainError):
        model_from_json({"M": 0, "strict": True})  # neither outcomes nor haar
    with pytest.raises(DomainError):
        model_from_json(
            {"M": 0, "strict": True, "outcomes": [], "haar": {"coeffs": []}}
        )
    with pytest.raises(DomainError):
        model_from_json(
            {
                "M": 0,
                "strict": True,
                "outcomes": [
                    {"pattern": [0], "value": "nonsense"},
                    {"pattern": [1], "value": "-1"},
                ],
            }
        )
    with pytest.raises(DomainError):
        model_from_json({"M": -1, "strict": False, "outcomes": []})


@pytest.mark.parametrize("value", [5, 0.5, None])
def test_a_json_value_that_is_not_a_string_is_named(value):
    doc = {"M": 0, "strict": True, "outcomes": [
        {"pattern": [0], "value": value}, {"pattern": [1], "value": "-1"},
    ]}
    with pytest.raises(DomainError) as caught:
        model_from_json(doc)
    assert str(caught.value) == f"outcomes[0].value: scalar text must be a string, got {value!r}"


def test_load_model_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 0,\n  "strict": tru}\n')
    with pytest.raises(DomainError) as err:
        load_model(str(bad))
    assert "bad.json:2" in str(err.value)
    with pytest.raises(DomainError):
        load_model(str(tmp_path / "missing.json"))


small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@given(data=st.data(), M=st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_haar_moments_property(data, M):
    """Every buildable truncation has mean 0 and variance theta^2 exactly."""
    coeffs = {}
    for k in range(M + 1):
        for j in range(2**k):
            q = data.draw(small_rationals)
            if k % 2 == 1:
                coeffs[(k, j)] = ExactScalar(0, q, 2)  # rational multiple of sqrt(2)
            else:
                coeffs[(k, j)] = ExactScalar(q)
    spec = HaarSpec(M, coeffs)
    try:
        model = build_haar(spec, strict=False)
    except DomainError:
        assume(False)  # collided outcomes; not a valid sample
        return
    assert model.mean == 0
    assert model.variance == theta_squared(spec)
