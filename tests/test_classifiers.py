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
from oracles import (
    classify_nb_per_key,
    dl_rules_per_key,
    dl_scan_oracle,
    nb_posterior_oracle,
    train_nb_per_key,
)


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
    assert model.cond_counts == {"x": {"A": 5}, "y": {"B": 5}}
    # each sense has 5 features; m = 1 with a prior of 1/2, uniform over {x, y}
    table = {0: math.log(0.5 / 6), 5: math.log(5.5 / 6)}
    assert model.senses == {"A": (math.log(0.5), table), "B": (math.log(0.5), table)}
    assert list(model.senses) == ["A", "B"]


def test_train_nb_single_sense():
    model = train_nb([(vec("x"), "A") for _ in range(10)])
    assert list(model.senses) == ["A"]
    assert model.senses["A"][0] == math.log(1.0)


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


@pytest.mark.xfail(strict=True, reason="NB breaks exact ties by float rounding (ROADMAP item 12)")
def test_classify_nb_breaks_an_exact_tie_toward_the_higher_prior():
    # Found by a random.Random(5) search of 20,000 training sets at m = 0.  In
    # exact arithmetic s2 and s3 tie: 2/8 * 1/2 = 3/8 * 1/3 = 1/8 (s1 has 1/12,
    # s0 has 0), so the contract picks s3, the higher prior.  The log sum for
    # s2 rounds one ulp higher, and classify_nb picks s2.
    training = [
        (vec("f0", "f1"), "s2"), (vec("f1"), "s0"), (vec("f0", "f1"), "s1"), (vec("f1"), "s1"),
        (vec("f1"), "s3"), (vec(), "s3"), (vec("f0", "f1"), "s3"), (vec(), "s2"),
    ]
    model = train_nb(training, SmoothingParams(0.0))
    assert classify_nb(model, vec("f0")).sense == "s3"


def test_classify_nb_agrees_with_exhaustive_posterior():
    rng = random.Random(4242)
    for _ in range(300):
        training, smoothing, vector = _random_nb_case(rng)
        got = classify_nb(train_nb(training, smoothing), vector)
        assert (got.sense, got.used_fallback) == nb_posterior_oracle(training, smoothing, vector)


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
    pool = features + ["unknown1", "unknown2"]
    query = rng.sample(pool, rng.randint(0, min(4, len(pool))))
    return training, smoothing, vec(*query)


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
    _, _, key, sense = min(model.rules.values())
    assert (key, sense) == ("pure", "A")


def test_train_dl_tie_breaks_by_key():
    training = [(vec("kb"), "A")] * 3 + [(vec("ka"), "A")] * 3 + [(vec("kc"), "B")] * 3
    model = train_dl(training)
    rules = sorted(model.rules.values())
    assert rules[0][:2] == rules[1][:2] == rules[2][:2]  # equal strength and count
    assert [key for _, _, key, _ in rules] == ["ka", "kb", "kc"]
    chosen = classify_dl(model, vec("kc", "kb", "ka"))
    assert (chosen.sense, chosen.key) == ("A", "ka")


def test_train_dl_single_instance():
    model = train_dl([(vec("a", "b"), "only")])
    assert set(model.rules) == {"a", "b"}
    assert all(sense == "only" for _, _, _, sense in model.rules.values())
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
    assert prediction.key == "strong"
    assert not prediction.used_fallback


def test_classify_dl_no_match_falls_back():
    model = train_dl(toy_training())
    prediction = classify_dl(model, vec("zzz"))
    assert prediction.used_fallback and prediction.key is None
    assert prediction.sense == "A"


def test_classify_dl_choice_dominates_matched_entries():
    rng = random.Random(99)
    training, smoothing, vector = _random_dl_case(rng)
    model = train_dl(training, smoothing)
    prediction = classify_dl(model, vector)
    if not prediction.used_fallback:
        matched = [model.rules[key] for key in vector if key in model.rules]
        assert all(prediction.score >= -neg_strength for neg_strength, *_ in matched)


def test_classify_dl_agrees_with_brute_force_scan():
    rng = random.Random(31337)
    for _ in range(300):
        training, smoothing, vector = _random_dl_case(rng)
        got = classify_dl(train_dl(training, smoothing), vector)
        assert (got.sense, got.used_fallback, got.key) == dl_scan_oracle(
            training, smoothing, vector
        )


def test_classifiers_read_only_the_keys():
    # A vector is read as its keys: the ascending tuple of a dict vector's keys
    # trains the same model and gets the same decision, score and key.
    rng = random.Random(2718)
    for make_case, train, classify in ((_random_nb_case, train_nb, classify_nb),
                                       (_random_dl_case, train_dl, classify_dl)):
        for _ in range(200):
            training, smoothing, vector = make_case(rng)
            model = train(training, smoothing)
            assert train([(tuple(v), sense) for v, sense in training], smoothing) == model
            assert classify(model, tuple(vector)) == classify(model, vector)


def _random_dl_case(rng, max_features=50):
    senses = [f"s{i}" for i in range(rng.randint(1, 4))]
    features = [f"f{i}" for i in range(rng.randint(1, max_features))]
    training = []
    for _ in range(rng.randint(1, 60)):
        sample = rng.sample(features, rng.randint(0, min(4, len(features))))
        training.append((vec(*sample), rng.choice(senses)))
    # m = 0 makes pure features infinitely strong: ties then go to count, then key.
    smoothing = SmoothingParams(rng.choice([0.0, 0.1, 1.0, 10.0]))
    query = rng.sample(features + ["unknown"], rng.randint(0, min(5, len(features))))
    return training, smoothing, vec(*query)


# --- fast training against the per-key definitions ----------------------------------

@st.composite
def training_cases(draw):
    """One fold: the training instances left after holding some out (which can
    take every instance of a sense), smoothing, and the held-out vectors plus
    vectors with keys that training never saw.  The draws include a single
    sense, a sense with no features at all, and empty vectors."""
    senses = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    keys = [f"k{i}" for i in range(draw(st.integers(1, 8)))]
    vectors = st.lists(st.sampled_from(keys), max_size=len(keys)).map(lambda ks: vec(*ks))
    instances = draw(st.lists(st.tuples(vectors, st.sampled_from(senses)), min_size=2,
                              max_size=30))
    if draw(st.booleans()):  # a sense that contributes no features
        instances.append((vec(), "s9"))
    held_out = draw(st.sets(st.integers(0, len(instances) - 1), max_size=len(instances) - 1))
    training = [instance for i, instance in enumerate(instances) if i not in held_out]
    smoothing = SmoothingParams(draw(st.sampled_from([0.0, 0.5, 1.0, 10.0])),
                                draw(st.sampled_from(["feature-values", "senses"])))
    unseen = st.lists(st.sampled_from(keys + ["unseen1", "unseen2"]), max_size=6)
    queries = [instances[i][0] for i in sorted(held_out)]
    queries += draw(st.lists(unseen.map(lambda ks: vec(*ks)), min_size=1, max_size=3))
    return training, smoothing, queries


@settings(max_examples=300, deadline=None)
@given(training_cases())
def test_fast_training_matches_per_key_definitions(case):
    training, smoothing, queries = case
    nb = train_nb(training, smoothing)
    nb_reference = train_nb_per_key(training, smoothing)
    for query in queries:
        got, want = classify_nb(nb, query), classify_nb_per_key(nb_reference, query)
        assert (got.sense, got.key, got.used_fallback) == (
            want.sense, want.key, want.used_fallback)
        assert repr(got.score) == repr(want.score)  # bit for bit, -inf included
    dl = train_dl(training, smoothing)
    assert (dl.rules, dl.fallback) == dl_rules_per_key(training, smoothing)


@pytest.mark.parametrize("training", [
    # a fold that holds out the only "b" instance has one sense left
    [(vec("x", "y"), "a"), (vec("y"), "a")],
    [(vec("x", "y"), "a"), (vec("y"), "a"), (vec("x"), "b")],
    # at m = 0 every sense scores -inf, and "b" has no features at all
    [(vec("x"), "a"), (vec("y"), "c"), (vec(), "b")],
])
@pytest.mark.parametrize("m", [0.0, 1.0])
def test_fast_training_matches_per_key_definitions_on_edge_folds(training, m):
    smoothing = SmoothingParams(m, "senses")
    query = vec("x", "y", "z")
    got = classify_nb(train_nb(training, smoothing), query)
    want = classify_nb_per_key(train_nb_per_key(training, smoothing), query)
    assert got == want and repr(got.score) == repr(want.score)
    assert train_dl(training, smoothing).rules == dl_rules_per_key(training, smoothing)[0]


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
    # Every bad value is named; a non-finite m only as not finite.
    with pytest.raises(ValueError) as err:
        SmoothingParams(-math.inf, "bogus")
    assert str(err.value).splitlines() == [
        "smoothing strength m must be finite",
        "prior_mode must be one of ('feature-values', 'senses')",
    ]


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
    senses = {sense for _, sense in training}
    assert classify_nb(nb, query).sense in senses
    assert classify_dl(dl, query).sense in senses

