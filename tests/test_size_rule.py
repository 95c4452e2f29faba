"""One size rule across the public API: every entry that takes the sizes of
a push-forward (a power N, a quotient rank d and a bundle rank r, given or
read off the roots or the model) or a model refuses the same inputs alike.
So do the two sides of each verify suite: the Schur side of the theorem
suite once gave 0 for a negative power, and the box Pieri side of the
degrees suite 1 for a bool d, where their partners refused.  An entry that
takes a model takes no r beside it; the rank is the model's."""

import inspect

import pytest

import pluckerpush
from pluckerpush import (
    FormalBundle,
    Partition,
    SplitBundle,
    box_pieri_degree,
    degree_grassmann_bundle_terms,
    degree_grassmannian_classical,
    degree_grassmannian_factorial,
    localization_pushforward,
    pushforward_plucker_power,
    pushforward_rational_form,
    pushforward_terms,
    rational_form_coefficients,
    ring_of,
    schur_coefficients,
    schur_form_at_roots,
    schur_form_pushforward,
    schur_form_terms,
    segre_classes,
    syt_count_product,
)


def model(rank):
    return FormalBundle(base_dim=3, rank=rank)


def split(rank):
    return SplitBundle(base_dim=3, twists=range(1, rank + 1))


def roots(r):
    return list(range(1, r + 1))


# entry -> (call on N, d and r, the sizes it takes besides d); an entry that
# reads r off its roots takes no r of its own, nor one that reads it off
# twists.  A formal model takes r as its rank, which its constructor refuses
# unless it is an int.
ENTRIES = {
    "schur_coefficients": (lambda N, d, r: schur_coefficients(N, d, r), "N r"),
    "pushforward_plucker_power": (lambda N, d, r: pushforward_plucker_power(N, d, model(r)), "N r"),
    "pushforward_terms": (lambda N, d, r: pushforward_terms(N, d, model(r)), "N r"),
    # the split branch, which reads the Schur rows at the twists
    "pushforward_terms over P^m": (lambda N, d, r: pushforward_terms(N, d, split(r)), "N"),
    "rational_form_coefficients": (
        lambda N, d, r: rational_form_coefficients(N, d, r, "factorial"),
        "N r",
    ),
    "pushforward_rational_form": (
        lambda N, d, r: pushforward_rational_form(N, d, model(r), "factorial"),
        "N r",
    ),
    "schur_form_terms": (lambda N, d, r: schur_form_terms(N, d, [roots(r)]), "N"),
    "degree_grassmann_bundle_terms": (
        lambda N, d, r: degree_grassmann_bundle_terms(d, split(r)),
        "",
    ),
    "degree_grassmannian_classical": (lambda N, d, r: degree_grassmannian_classical(d, r), "r"),
    "syt_count_product": (lambda N, d, r: syt_count_product(Partition(), d, r), "r"),
    "localization_pushforward": (lambda N, d, r: localization_pushforward(N, d, roots(r)), "N"),
    "schur_form_at_roots": (lambda N, d, r: schur_form_at_roots(N, d, [roots(r)]), "N"),
    "schur_form_pushforward": (lambda N, d, r: schur_form_pushforward(N, d, model(r)), "N r"),
    "box_pieri_degree": (lambda N, d, r: box_pieri_degree(d, r), "r"),
    "degree_grassmannian_factorial": (lambda N, d, r: degree_grassmannian_factorial(d, r), "r"),
}

VALID = {"N": 5, "d": 2, "r": 3}

# (case, the size it needs besides d, the changed input, exception, message)
CASES = [
    ("bool d", None, {"d": True}, TypeError, "must be int, got True"),
    ("float d", None, {"d": 2.0}, TypeError, "must be int, got 2.0"),
    ("d = 0", None, {"d": 0}, ValueError, "need 1 <= d <= r, got d=0, r=3"),
    ("d > r", None, {"d": 4}, ValueError, "need 1 <= d <= r, got d=4, r=3"),
    ("bool N", "N", {"N": True}, TypeError, "N, d and r must be int, got True"),
    ("float N", "N", {"N": 5.0}, TypeError, "N, d and r must be int, got 5.0"),
    ("N = -1", "N", {"N": -1}, ValueError, "power must be nonnegative, got -1"),
    ("bool r", "r", {"r": True}, TypeError, "must be int, got True"),
    ("float r", "r", {"r": 3.0}, TypeError, "must be int, got 3.0"),
]


@pytest.mark.parametrize(
    "name, case, change, error, message",
    [
        pytest.param(name, case, change, error, message, id=f"{name}-{case}")
        for name, (_, takes) in sorted(ENTRIES.items())
        for case, needs, change, error, message in CASES
        if needs is None or needs in takes.split()
    ],
)
def test_every_entry_refuses_alike(name, case, change, error, message):
    call, _ = ENTRIES[name]
    with pytest.raises(error, match=message):
        call(**{**VALID, **change})



# An empty list of root sets holds r = 0 roots, like an empty list of roots.
@pytest.mark.parametrize(
    "call", [schur_form_terms, schur_form_at_roots, localization_pushforward]
)
@pytest.mark.parametrize(
    "N, d, error, message",
    [
        (True, 0.5, TypeError, "N, d and r must be int, got True"),
        (-1, 0, ValueError, "need 1 <= d <= r, got d=0, r=0"),
    ],
)
def test_no_roots_are_refused_alike(call, N, d, error, message):
    with pytest.raises(error, match=message):
        call(N, d, [])


# A model of the wrong class is refused with TypeError before any of its
# fields is read.
BOTH = "FormalBundle or SplitBundle"
MODEL_ENTRIES = {
    "pushforward_plucker_power": (lambda m: pushforward_plucker_power(3, 1, m), BOTH),
    "pushforward_rational_form": (lambda m: pushforward_rational_form(3, 1, m, "factorial"), BOTH),
    "pushforward_terms": (lambda m: pushforward_terms(3, 1, m), BOTH),
    "schur_form_pushforward": (lambda m: schur_form_pushforward(3, 1, m), BOTH),
    "degree_grassmann_bundle_terms": (lambda m: degree_grassmann_bundle_terms(1, m), "SplitBundle"),
    "ring_of": (ring_of, BOTH),
    "segre_classes": (lambda m: segre_classes(m, 2), BOTH),
}


@pytest.mark.parametrize("name", sorted(MODEL_ENTRIES))
@pytest.mark.parametrize("model", ["x", None, 2], ids=repr)
def test_a_model_of_the_wrong_class_is_refused(name, model):
    call, kinds = MODEL_ENTRIES[name]
    with pytest.raises(TypeError, match=f"^model must be {kinds}, got {model!r}$"):
        call(model)
    call(SplitBundle(base_dim=1, twists=(1, 2)))


def test_the_degree_refuses_a_formal_model():
    with pytest.raises(
        TypeError, match=r"^model must be SplitBundle, got FormalBundle\(base_dim=1, rank=2\)$"
    ):
        degree_grassmann_bundle_terms(1, FormalBundle(base_dim=1, rank=2))


def test_every_model_entry_reads_the_rank_off_its_model():
    # {entry: whether it also takes r}, over the functions that take a model
    takes_r = {}
    for name in pluckerpush.__all__:
        value = getattr(pluckerpush, name)
        if inspect.isfunction(value):
            parameters = inspect.signature(value).parameters
            if "model" in parameters:
                takes_r[name] = "r" in parameters
    assert takes_r == dict.fromkeys(MODEL_ENTRIES, False)
