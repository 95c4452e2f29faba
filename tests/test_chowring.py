import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckerpush import (
    FormalBundle,
    GradedPoly,
    GradedRing,
    SplitBundle,
    integrate_over_pm,
    ring_of,
    segre_classes,
)
from pluckerpush.chowring import render_terms

RING = GradedRing(names=("s1", "s2", "s3"), weights=(1, 2, 3), top_degree=6)


def truncate(element, top_degree):
    """Image of an element in the same ring truncated at a lower top degree."""
    ring = GradedRing(element.ring.names, element.ring.weights, top_degree)
    return GradedPoly(ring, element.monomials)


def homogeneous_degree(element):
    """The common weight of all monomials, or None if mixed or zero."""
    degs = element.degrees()
    return degs[0] if len(degs) == 1 else None


def chern_dual_classes(twists, ring):
    """Total Chern class of the dual of a split bundle: the product of (1 - a h)."""
    total = ring.one()
    for a in twists:
        total = total * (ring.one() - a * ring.generator(0))
    return total


@st.composite
def ring_elements(draw, ring=RING, max_terms=4):
    monomials = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 2)) for _ in ring.names)
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        monomials[exps] = coeff
    return GradedPoly(ring, monomials)


class TestRingStructure:
    def test_scalar_and_generator_construction(self):
        assert RING.scalar(0).is_zero()
        assert RING.one() == 1
        g = RING.generator(1)
        assert homogeneous_degree(g) == 2

    def test_rejects_bad_descriptor(self):
        with pytest.raises(ValueError):
            GradedRing(names=("a", "a"), weights=(1, 1), top_degree=2)
        with pytest.raises(ValueError):
            GradedRing(names=("a",), weights=(0,), top_degree=2)

    def test_truncation_drops_heavy_monomials(self):
        heavy = RING.generator(2) * RING.generator(2)  # weight 6, survives
        assert not heavy.is_zero()
        overflow = heavy * RING.generator(0)  # weight 7, dies
        assert overflow.is_zero()

    def test_immutable(self):
        p = RING.one()
        with pytest.raises(AttributeError):
            p.monomials = {}

    def test_different_rings_never_mix(self):
        other = GradedRing(names=("h",), weights=(1,), top_degree=2)
        with pytest.raises(ValueError):
            RING.one() + other.one()
        assert (RING.one() == other.one()) is False

    @settings(max_examples=200)
    @given(ring_elements(), ring_elements(), ring_elements())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + RING.zero() == a
        assert a * RING.one() == a
        assert a - a == RING.zero()

    @settings(max_examples=100)
    @given(ring_elements(), ring_elements(), st.integers(0, 6))
    def test_truncation_commutes_with_multiplication(self, a, b, top):
        assert truncate(a * b, top) == truncate(a, top) * truncate(b, top)

    def test_degrees_and_homogeneity(self):
        p = RING.generator(0) + RING.generator(1)
        assert p.degrees() == [1, 2]
        assert homogeneous_degree(p) is None
        assert homogeneous_degree(RING.generator(2)) == 3


class TestRendering:
    def test_canonical_text(self):
        one = RING.one()
        s1 = RING.generator(0)
        s2 = RING.generator(1)
        assert str(2 * s1) == "2*s1"
        assert str(one + 2 * s1) == "1 + 2*s1"
        assert str(s1 * s1 - s2) == "-s2 + s1^2"
        assert str(RING.zero()) == "0"
        assert str(Fraction(1, 2) * s1) == "1/2*s1"

    def test_render_terms_round_trip_shape(self):
        p = 3 * RING.generator(1) - RING.generator(0) * RING.generator(0)
        assert render_terms(p.terms()) == str(p)


class TestModels:
    def test_formal_segre_truncates_at_base_dimension(self):
        model = FormalBundle(base_dim=2, rank=3)
        classes = segre_classes(model, 3)
        ring = ring_of(model)
        assert classes[0] == ring.one()
        assert classes[1] == ring.generator(0)
        assert classes[2] == ring.generator(1)
        assert classes[3].is_zero()

    def test_split_segre_examples(self):
        model = SplitBundle(base_dim=1, twists=(1, 2))
        ring = ring_of(model)
        classes = segre_classes(model, 1)
        assert classes == [ring.one(), 3 * ring.generator(0)]

        model2 = SplitBundle(base_dim=2, twists=(1, 1))
        ring2 = ring_of(model2)
        h = ring2.generator(0)
        assert segre_classes(model2, 2) == [ring2.one(), 2 * h, 3 * h * h]

    @settings(max_examples=80)
    @given(
        st.integers(0, 4),
        st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    )
    def test_split_segre_inverts_dual_chern_class(self, m, twists):
        # defining identity: total Segre class times total Chern class of the
        # dual bundle is 1, up to the ambient truncation
        model = SplitBundle(base_dim=m, twists=tuple(twists))
        ring = ring_of(model)
        total_segre = ring.zero()
        for s in segre_classes(model, m):
            total_segre = total_segre + s
        assert total_segre * chern_dual_classes(model.twists, ring) == ring.one()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            FormalBundle(base_dim=-1, rank=2)
        with pytest.raises(ValueError):
            FormalBundle(base_dim=1, rank=0)
        with pytest.raises(ValueError):
            SplitBundle(base_dim=1, twists=())

    def test_split_twists_must_be_integers(self):
        # values int() would truncate, or fail on with another error
        bad = [(Fraction(3, 2), 2), (1, 2.7), (Fraction(-1, 3),), (float("inf"),), (0, float("nan"))]
        for twists in bad:
            with pytest.raises(ValueError, match="twists must be integers"):
                SplitBundle(base_dim=1, twists=twists)
        assert SplitBundle(base_dim=1, twists=(-2, 0, 5)).twists == (-2, 0, 5)
        model = SplitBundle(base_dim=1, twists=(Fraction(4, 2), 3.0))
        assert model.twists == (2, 3) and all(type(a) is int for a in model.twists)


class TestRecords:
    """The ring and the two models are immutable values with constructor-form reprs."""

    RECORDS = (
        (RING, "GradedRing(names=('s1', 's2', 's3'), weights=(1, 2, 3), top_degree=6)"),
        (FormalBundle(base_dim=3, rank=4), "FormalBundle(base_dim=3, rank=4)"),
        (SplitBundle(base_dim=2, twists=(1, -1)), "SplitBundle(base_dim=2, twists=(1, -1))"),
    )

    def test_repr_in_keyword_form(self):
        for record, text in self.RECORDS:
            assert repr(record) == text

    def test_equal_values_are_equal_and_hash_alike(self):
        copies = {
            GradedRing(names=("s1", "s2", "s3"), weights=(1, 2, 3), top_degree=6),
            GradedRing(("s1", "s2", "s3"), (1, 2, 3), 6),
            RING,
        }
        assert copies == {RING}
        assert len({FormalBundle(base_dim=3, rank=4), FormalBundle(3, 4)}) == 1
        split = {SplitBundle(base_dim=1, twists=(2, 3)), SplitBundle(1, (Fraction(4, 2), 3.0))}
        assert len(split) == 1
        assert FormalBundle(base_dim=1, rank=2) != FormalBundle(base_dim=2, rank=1)
        assert RING != GradedRing(names=("s1", "s2", "s3"), weights=(1, 2, 3), top_degree=5)

    def test_assignment_and_deletion_raise(self):
        for record, _ in self.RECORDS:
            for name in type(record).__slots__:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_pickle_round_trip(self):
        for record, _ in self.RECORDS:
            assert pickle.loads(pickle.dumps(record)) == record


class TestIntegration:
    def test_examples(self):
        model = SplitBundle(base_dim=1, twists=(1, 2))
        ring = ring_of(model)
        h = ring.generator(0)
        assert integrate_over_pm(3 * h, 1) == 3
        assert integrate_over_pm(ring.one() + 2 * h, 1) == 2
        assert integrate_over_pm(5 * h * h, 1) == 0  # truncated away already

    def test_point_base(self):
        model = SplitBundle(base_dim=0, twists=(0, 0))
        ring = ring_of(model)
        assert integrate_over_pm(ring.scalar(7), 0) == 7

    def test_rejects_wrong_ring(self):
        with pytest.raises(ValueError):
            integrate_over_pm(RING.one(), 6)
        model = SplitBundle(base_dim=2, twists=(1,))
        ring = ring_of(model)
        with pytest.raises(ValueError):
            integrate_over_pm(ring.one(), 1)
