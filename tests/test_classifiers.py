import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdlab import (
    SmoothingParams,
    classify_dl,
    classify_nb,
    feature_strength,
    m_estimate,
    train_dl,
    train_nb,
)
from oracles import dl_scan_oracle, nb_posterior_oracle


def vec(*keys):
    """A feature vector whose key at argument position i has offset i + 1."""
    return {key: ((keys.index(key) + 1,), ("NCOM",)) for key in sorted(set(keys))}


# --- m-estimate ------------------------------------------------------------------

def test_m_estimate_values():
    assert m_estimate(0, 0, 0.5, 1.0) == 0.5
    assert m_estimate(3, 10, 0.5, 1.0) == pytest.approx(3.5 / 11)
    assert m_estimate(3, 10, 0.5, 0.0) == pytest.approx(0.3)


def test_m_estimate_errors():
    with pytest.raises(ValueError):
        m_estimate(0, 0, 0.5, 0.0)
    with pytest.raises(ValueError):
        m_estimate(5, 3, 0.5, 1.0)
    with pytest.raises(ValueError):
        m_estimate(1, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        m_estimate(1, 2, 0.5, -1.0)


def test_m_estimate_monotone_in_event_count():
    values = [m_estimate(c, 100, 0.3, 2.5) for c in range(101)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_m_estimate_limits():
    assert abs(m_estimate(37, 80, 0.25, 1e9) - 0.25) < 1e-6
    assert abs(m_estimate(37, 80, 0.25, 0.0) - 37 / 80) < 1e-12


@given(
    event=st.integers(0, 50),
    extra=st.integers(0, 50),
    prior=st.floats(0.01, 0.99),
    m=st.floats(0.0, 100.0),
)
def test_m_estimate_stays_in_unit_interval(event, extra, prior, m):
    condition = event + extra
    if condition == 0 and m == 0:
        return
    value = m_estimate(event, condition, prior, m)
    assert 0.0 <= value <= 1.0
    # strictly inside the interval for any non-degenerate strength (an m below
    # ~1e-16 * n rounds to the boundary in double precision)
    if m > 1e-6:
        assert 0.0 < value < 1.0


# --- Naive Bayes -------------------------------------------------------------------

def toy_training():
    return [(vec("x"), "A") for _ in range(5)] + [(vec("y"), "B") for _ in range(5)]


def test_train_nb_priors_and_counts():
    model = train_nb(toy_training())
    assert model.priors == {"A": 0.5, "B": 0.5}
    assert model.cond_counts == {"x": {"A": 5}, "y": {"B": 5}}
    assert model.sense_totals == {"A": 5, "B": 5}
    assert model.vocab_size == 2


def test_train_nb_single_sense():
    model = train_nb([(vec("x"), "A") for _ in range(10)])
    assert model.priors == {"A": 1.0}


def test_train_nb_empty_rejected():
    with pytest.raises(ValueError):
        train_nb([])


def test_classify_nb_toy_example():
    # P(x|A) = 5.5/6 vs P(x|B) = 0.5/6 with m=1 and a uniform prior over senses
    model = train_nb(toy_training(), SmoothingParams(1.0, "senses"))
    prediction = classify_nb(model, vec("x"))
    assert prediction.sense == "A"
    assert not prediction.used_fallback
    expected = math.log(0.5) + math.log(5.5 / 6)
    assert prediction.score == pytest.approx(expected)


def test_classify_nb_empty_vector_falls_back():
    model = train_nb(toy_training())
    prediction = classify_nb(model, vec())
    assert prediction.used_fallback
    assert prediction.sense == "A"  # MFS tie between A and B breaks to "A"


def test_classify_nb_unknown_keys_fall_back():
    model = train_nb(toy_training())
    prediction = classify_nb(model, vec("never-seen", "also-new"))
    assert prediction.used_fallback and prediction.sense == "A"


def test_classify_nb_tie_breaks_on_prior_then_label():
    # "b" is more frequent: equal feature evidence resolves to it
    training = [(vec("x"), "b")] * 3 + [(vec("x"), "a")] * 2 + [(vec("x"), "c")] * 3
    model = train_nb(training, SmoothingParams(1.0, "senses"))
    assert classify_nb(model, vec("x")).sense == "b"  # prior beats label order


def test_classify_nb_agrees_with_exhaustive_posterior():
    rng = random.Random(4242)
    for _ in range(300):
        model, vector = _random_nb_case(rng)
        got = classify_nb(model, vector)
        want_sense, want_fallback = nb_posterior_oracle(model, vector)
        assert (got.sense, got.used_fallback) == (want_sense, want_fallback)


def _random_nb_case(rng, max_senses=5, max_features=6):
    senses = [f"s{i}" for i in range(rng.randint(1, max_senses))]
    features = [f"f{i}" for i in range(rng.randint(1, max_features))]
    training = []
    for _ in range(rng.randint(1, 40)):
        sense = rng.choice(senses)
        sample = rng.sample(features, rng.randint(0, len(features)))
        training.append((vec(*sample), sense))
    smoothing = SmoothingParams(
        rng.choice([0.1, 1.0, 10.0]), rng.choice(["feature-values", "senses"])
    )
    model = train_nb(training, smoothing)
    pool = features + ["unknown1", "unknown2"]
    query = rng.sample(pool, rng.randint(0, min(4, len(pool))))
    return model, vec(*query)


# --- feature strength / decision list ------------------------------------------------

def test_feature_strength_pure_feature():
    sense, strength = feature_strength({"A": 5}, ["A", "B"], 1.0)
    assert sense == "A"
    assert strength == pytest.approx(math.log(11))


def test_feature_strength_split_feature():
    sense, strength = feature_strength({"A": 3, "B": 3}, ["A", "B"], 1.0)
    assert strength == pytest.approx(0.0)


def test_feature_strength_grows_with_count():
    _, weak = feature_strength({"A": 1}, ["A", "B"], 1.0)
    _, strong = feature_strength({"A": 5}, ["A", "B"], 1.0)
    assert weak == pytest.approx(math.log(3))
    assert weak < strong


def test_feature_strength_single_sense_is_finite():
    sense, strength = feature_strength({"A": 4}, ["A"], 1.0)
    assert sense == "A"
    assert math.isfinite(strength) and strength > 0


def test_train_dl_orders_by_strength():
    training = (
        [(vec("pure"), "A")] * 5
        + [(vec("mixed"), "A")] * 3
        + [(vec("mixed"), "B")] * 3
        + [(vec("filler"), "B")] * 2
    )
    model = train_dl(training)
    assert model.entries[0].key == "pure"
    assert model.entries[0].sense == "A"


def test_train_dl_tie_breaks_by_key():
    training = [(vec("kb"), "A")] * 3 + [(vec("ka"), "A")] * 3 + [(vec("kc"), "B")] * 3
    model = train_dl(training)
    strengths = [e.strength for e in model.entries]
    assert strengths[0] == strengths[1] == strengths[2]
    assert [e.key for e in model.entries] == ["ka", "kb", "kc"]


def test_train_dl_single_instance():
    model = train_dl([(vec("a", "b"), "only")])
    assert {e.key for e in model.entries} == {"a", "b"}
    assert all(e.sense == "only" for e in model.entries)
    assert model.fallback == "only"


def test_classify_dl_first_match_decides():
    training = (
        [(vec("strong"), "A")] * 9
        + [(vec("weak"), "B")] * 2
        + [(vec("weak"), "A")] * 1
    )
    model = train_dl(training)
    prediction = classify_dl(model, vec("weak", "strong"))
    assert prediction.sense == "A"
    assert prediction.evidence == ((2,), ("NCOM",))  # the span of "strong"
    assert not prediction.used_fallback


def test_classify_dl_no_match_falls_back():
    model = train_dl(toy_training())
    prediction = classify_dl(model, vec("zzz"))
    assert prediction.used_fallback and prediction.evidence is None
    assert prediction.sense == "A"


def test_classify_dl_choice_dominates_matched_entries():
    rng = random.Random(99)
    model, vector = _random_dl_case(rng)
    prediction = classify_dl(model, vector)
    if not prediction.used_fallback:
        matched = [e for e in model.entries if e.key in vector.keys()]
        assert all(prediction.score >= e.strength for e in matched)


def test_classify_dl_agrees_with_brute_force_scan():
    rng = random.Random(31337)
    for _ in range(300):
        model, vector = _random_dl_case(rng)
        got = classify_dl(model, vector)
        want_sense, want_fallback = dl_scan_oracle(model, vector)
        assert (got.sense, got.used_fallback) == (want_sense, want_fallback)


def _random_dl_case(rng, max_features=50):
    senses = [f"s{i}" for i in range(rng.randint(1, 4))]
    features = [f"f{i}" for i in range(rng.randint(1, max_features))]
    training = []
    for _ in range(rng.randint(1, 60)):
        sample = rng.sample(features, rng.randint(0, min(4, len(features))))
        training.append((vec(*sample), rng.choice(senses)))
    smoothing = SmoothingParams(rng.choice([0.1, 1.0, 10.0]))
    model = train_dl(training, smoothing)
    query = rng.sample(features + ["unknown"], rng.randint(0, min(5, len(features))))
    return model, vec(*query)


# --- shared behaviour ----------------------------------------------------------------

def test_training_is_order_independent():
    rng = random.Random(7)
    training = [
        (vec(*rng.sample(["a", "b", "c", "d"], rng.randint(1, 3))), rng.choice(["X", "Y"]))
        for _ in range(30)
    ]
    shuffled = training[:]
    rng.shuffle(shuffled)
    assert train_nb(training) == train_nb(shuffled)
    assert train_dl(training) == train_dl(shuffled)


def test_smoothing_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(-0.5)
    with pytest.raises(ValueError):
        SmoothingParams(1.0, "bogus")
    for m in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SmoothingParams(m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classifiers_never_abstain(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    training = [
        (vec(*rng.sample(["a", "b", "c"], rng.randint(0, 3))), rng.choice(["X", "Y", "Z"]))
        for _ in range(rng.randint(1, 20))
    ]
    nb = train_nb(training)
    dl = train_dl(training)
    query = vec(*rng.sample(["a", "b", "c", "q"], rng.randint(0, 4)))
    assert classify_nb(nb, query).sense in nb.senses
    assert classify_dl(dl, query).sense in dl.senses

