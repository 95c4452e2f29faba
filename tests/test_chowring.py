import copy
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
from pluckerpush.chowring import render_terms, table_terms

RING = GradedRing(names=("s1", "s2", "s3"), weights=(1, 2, 3), top_degree=6)


def truncate(element, top_degree):
    """Image of an element in the same ring truncated at a lower top degree."""
    ring = GradedRing(element.ring.names, element.ring.weights, top_degree)
    return GradedPoly(ring, element.monomials)


def degrees(element):
    """Sorted list of the distinct monomial weights present."""
    return sorted({element.ring.monomial_weight(e) for e in element.monomials})


def homogeneous_degree(element):
    """The common weight of all monomials, or None if mixed or zero."""
    degs = degrees(element)
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
        assert RING.scalar(0) == 0
        assert RING.one() == 1
        g = RING.generator(1)
        assert homogeneous_degree(g) == 2

    def test_generator_index_out_of_range_raises(self):
        ring = GradedRing(("h",), (1,), 2)
        assert ring.generator(0) == GradedPoly(ring, {(1,): 1})
        for index in (5, 1, -1):
            with pytest.raises(ValueError, match="no generator"):
                ring.generator(index)

    def test_generator_index_must_be_an_int(self):
        ring = GradedRing(("a", "b"), (1, 1), 2)
        for index in (True, False, 0.0, 1.0, Fraction(1), "0"):
            with pytest.raises(TypeError, match="generator index must be int"):
                ring.generator(index)

    def test_rejects_bad_descriptor(self):
        with pytest.raises(ValueError):
            GradedRing(names=("a", "a"), weights=(1, 1), top_degree=2)
        with pytest.raises(ValueError):
            GradedRing(names=("a",), weights=(0,), top_degree=2)

    def test_rejects_unequal_names_and_weights_and_a_negative_top_degree(self):
        with pytest.raises(ValueError, match="^names and weights must have equal length$"):
            GradedRing(names=("a", "b"), weights=(1,), top_degree=2)
        with pytest.raises(ValueError, match="^top_degree must be nonnegative, got -1$"):
            GradedRing(names=("a",), weights=(1,), top_degree=-1)

    def test_refuses_sizes_and_weights_that_are_not_ints(self):
        for weights, top in [((1.5,), 2), ((1,), 2.5), ((True,), 2), ((1,), False), ((Fraction(1),), 2)]:
            with pytest.raises(TypeError, match="must be int"):
                GradedRing(("h",), weights, top)

    def test_refuses_names_that_are_not_strs(self):
        for names in [(1,), (None,), (b"h",), ("s1", 2)]:
            with pytest.raises(TypeError, match="names must be str"):
                GradedRing(names, (1,) * len(names), 2)

    def test_truncation_drops_heavy_monomials(self):
        heavy = RING.generator(2) * RING.generator(2)  # weight 6, survives
        assert heavy != 0
        overflow = heavy * RING.generator(0)  # weight 7, dies
        assert overflow == 0

    def test_immutable(self):
        p = RING.one()
        with pytest.raises(AttributeError):
            p.monomials = {}
        with pytest.raises(TypeError, match="unhashable"):
            hash(p)

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

    def test_coefficients_are_stored_exactly_as_given(self):
        p = GradedPoly(RING, {(1, 0, 0): 3, (0, 1, 0): Fraction(1, 2), (0, 0, 1): Fraction(0)})
        assert p.monomials == {(1, 0, 0): 3, (0, 1, 0): Fraction(1, 2)}
        assert type(p.monomials.get((1, 0, 0), 0)) is int
        assert type((p * p + 2 * p).monomials.get((2, 0, 0), 0)) is int
        assert p.monomials.get((0, 0, 1), 0) == 0

    def test_refuses_inexact_coefficients(self):
        for bad in (0.1, 1.0, "1/2", True, None):
            with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
                GradedPoly(RING, {(1, 0, 0): bad})
        with pytest.raises(TypeError):
            RING.scalar(0.5)
        with pytest.raises(TypeError):
            RING.one() * 0.5
        assert (RING.one() == 1.0) is False

    @pytest.mark.parametrize("s", [0, -3, Fraction(-2, 3)], ids=["zero", "negative-int", "fraction"])
    def test_a_scalar_product_is_the_product_with_the_scalar_element(self, s):
        p = GradedPoly(RING, {(0, 0, 0): 2, (1, 0, 0): Fraction(1, 2), (0, 1, 1): -4})
        expected = p * RING.scalar(s)
        for product in (s * p, p * s):
            assert product == expected
            assert product.ring is RING
            coefficients = [(e, c, type(c)) for e, c in product.monomials.items()]
            assert coefficients == [(e, c, type(c)) for e, c in expected.monomials.items()]
        if s == 0:
            assert (s * p).monomials == {}

    def test_a_bool_or_float_scalar_is_a_type_error(self):
        p = RING.generator(0) + 2
        for bad in (True, False, 0.5, 2.0):
            with pytest.raises(TypeError):
                bad * p
            with pytest.raises(TypeError):
                p * bad

    def test_refuses_bad_exponent_vectors(self):
        ring = GradedRing(("a", "b"), (1, 1), 2)
        for exps in ((1,), (1, 0, 0), (1, -1)):
            with pytest.raises(ValueError) as raised:
                GradedPoly(ring, {exps: 1})
            assert str(raised.value) == f"bad exponent vector {exps} for ring with 2 generators"

    def test_adding_or_subtracting_a_float_is_a_type_error(self):
        element = RING.generator(0)
        for combine, operands in [
            (lambda: element + 1.5, "+: 'GradedPoly' and 'float'"),
            (lambda: 1.5 + element, "+: 'float' and 'GradedPoly'"),
            (lambda: element - 1.5, "-: 'GradedPoly' and 'float'"),
        ]:
            with pytest.raises(TypeError) as raised:
                combine()
            assert str(raised.value) == f"unsupported operand type(s) for {operands}"

    def test_refuses_exponents_that_are_not_ints(self):
        ring = GradedRing(("h",), (1,), 2)
        for bad in (1.5, True, 1.0, Fraction(1), "1"):
            with pytest.raises(TypeError, match="exponents must be int"):
                GradedPoly(ring, {(bad,): 1})

    def test_degrees_and_homogeneity(self):
        p = RING.generator(0) + RING.generator(1)
        assert degrees(p) == [1, 2]
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

    def test_table_terms_order_by_weight_then_exponents_and_drop_zeros(self):
        # a plain table is rendered as it stands: its zeros are dropped, and
        # it is ordered by weight, then by lexicographic exponents
        table = {(0, 0, 1): 4, (2, 0, 0): -1, (0, 1, 0): 0, (1, 0, 0): Fraction(1, 2), (0, 0, 0): 7, (1, 1, 0): 1}
        assert table_terms(RING, table) == [
            ("", "7"), ("s1", "1/2"), ("s1^2", "-1"), ("s3", "4"), ("s1 s2", "1")
        ]
        assert table_terms(RING, {}) == table_terms(RING, {(1, 0, 0): 0}) == []
        assert GradedPoly(RING, table).terms() == table_terms(RING, table)


class TestModels:
    def test_formal_segre_truncates_at_base_dimension(self):
        model = FormalBundle(base_dim=2, rank=3)
        classes = segre_classes(model, 3)
        ring = ring_of(model)
        assert classes[0] == ring.one()
        assert classes[1] == ring.generator(0)
        assert classes[2] == ring.generator(1)
        assert classes[3] == 0

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

    def test_split_base_dim_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^base_dim must be nonnegative, got -1$"):
            SplitBundle(base_dim=-1, twists=(1, 2))

    def test_segre_classes_refuse_a_negative_top(self):
        for model in (FormalBundle(base_dim=2, rank=3), SplitBundle(base_dim=2, twists=(1, 2))):
            with pytest.raises(ValueError, match="^top must be nonnegative, got -1$"):
                segre_classes(model, -1)

    def test_models_refuse_sizes_that_are_not_ints(self):
        for base_dim, rank in [(2.5, 3), (2, 3.0), (True, 3), (2, True), (Fraction(2), 3)]:
            with pytest.raises(TypeError, match="must be int"):
                FormalBundle(base_dim=base_dim, rank=rank)
        for base_dim in (2.5, 2.0, False, Fraction(2)):
            with pytest.raises(TypeError, match="must be int"):
                SplitBundle(base_dim=base_dim, twists=(1, 2))

    def test_split_twists_must_be_integers(self):
        # fractional, infinite and NaN values, and integral values of other types
        bad = [(Fraction(3, 2), 2), (1, 2.7), (Fraction(-1, 3),), (float("inf"),), (0, float("nan"))]
        bad += [(2.0, 3), (Fraction(4, 2), 3), (True, 2), (1, "3")]
        for twists in bad:
            with pytest.raises(TypeError, match="twists must be int"):
                SplitBundle(base_dim=1, twists=twists)
        assert SplitBundle(base_dim=1, twists=(-2, 0, 5)).twists == (-2, 0, 5)
        assert SplitBundle(base_dim=1, twists=[2, 3]).twists == (2, 3)


class TestRecords:
    """The ring and the two models are immutable values with constructor-form reprs."""

    RECORDS = (
        (RING, "GradedRing(names=('s1', 's2', 's3'), weights=(1, 2, 3), top_degree=6)"),
        (FormalBundle(base_dim=3, rank=4), "FormalBundle(base_dim=3, rank=4)"),
        (SplitBundle(base_dim=2, twists=(1, -1)), "SplitBundle(base_dim=2, twists=(1, -1))"),
    )
    # the records above and a ring element, a frozen record that is not hashable
    ELEMENT = (RING.generator(0) + Fraction(1, 2)) * RING.generator(1)
    FROZEN = [record for record, _ in RECORDS] + [ELEMENT]

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
        split = {SplitBundle(base_dim=1, twists=(2, 3)), SplitBundle(1, [2, 3])}
        assert len(split) == 1
        assert FormalBundle(base_dim=1, rank=2) != FormalBundle(base_dim=2, rank=1)
        assert RING != GradedRing(names=("s1", "s2", "s3"), weights=(1, 2, 3), top_degree=5)

    def test_records_of_two_classes_are_never_equal(self):
        formal, split = FormalBundle(base_dim=2, rank=2), SplitBundle(base_dim=2, twists=(1, 1))
        assert (formal == split) is False and (split == formal) is False
        assert formal != split
        # equal field values do not make records of two classes equal
        assert (formal == (2, 2)) is False

    def test_list_descriptor_is_the_tuple_descriptor(self):
        listed = GradedRing(["h"], [1], 2)
        tupled = GradedRing(("h",), (1,), 2)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert (listed.names, listed.weights) == (("h",), (1,))
        total = listed.generator(0) + tupled.generator(0)
        assert total == 2 * tupled.generator(0)

    def test_assignment_and_deletion_raise(self):
        for record in self.FROZEN:
            for name in type(record).__slots__:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
        # nor can a ring element's map be edited past its constructor
        with pytest.raises(TypeError):
            self.ELEMENT.monomials[(1, 0, 0)] = Fraction(5, 2)
        with pytest.raises(TypeError):
            del self.ELEMENT.monomials[(1, 1, 0)]

    def test_pickle_round_trip(self):
        for record in self.FROZEN:
            for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
                assert copied == record and repr(copied) == repr(record)


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
