from fractions import Fraction
from math import prod

import pytest

from pluckerpush import (
    FormalBundle,
    Partition,
    SplitBundle,
    SplitMix64,
    complete_homogeneous_values,
    degree_grassmann_bundle_terms,
    degree_grassmannian_classical,
    enumerate_partitions,
    integrate_over_pm,
    jacobi_trudi_det,
    localization_pushforward,
    monomial_coefficients,
    pushforward_plucker_power,
    pushforward_rational_form,
    rational_form_coefficients,
    rectangle,
    ring_of,
    schur_coefficients,
    schur_form_pushforward,
    schur_via_jacobi_trudi,
    segre_classes,
    syt_count_hook,
    syt_count_product,
)


def pushforward_schur_class(mu, d, r, segre):
    """Push a single Schur class of the quotient bundle down to the base.

    The image of Delta_mu(s(Q)) is the Jacobi-Trudi determinant on the shifted
    integer vector (mu_1 - (r-d), ..., mu_d - (r-d)); entries with negative
    subscript vanish, so shapes that do not contain the rectangle give zero.
    ``segre`` must extend to subscript mu_1 - (r-d) + d - 1.
    """
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than {d} parts")
    return jacobi_trudi_det([mu.part(i) - (r - d) for i in range(d)], segre)


def homogeneous_degree(element):
    """The common weight of all monomials, or None if mixed or zero."""
    degs = element.degrees()
    return degs[0] if len(degs) == 1 else None


class TestSchurClassPushforward:
    def test_rectangle_maps_to_one(self):
        for d, r in [(1, 3), (2, 4), (3, 5)]:
            model = FormalBundle(base_dim=3, rank=r)
            segre = segre_classes(model, 6)
            mu = rectangle(d, r - d)
            assert pushforward_schur_class(mu, d, r, segre) == 1

    def test_shape_not_containing_rectangle_vanishes(self):
        model = FormalBundle(base_dim=3, rank=3)
        segre = segre_classes(model, 6)
        assert pushforward_schur_class(Partition((2,)), 2, 3, segre).is_zero()

    def test_shifted_determinant_value(self):
        model = FormalBundle(base_dim=2, rank=3)
        segre = segre_classes(model, 5)
        ring = ring_of(model)
        image = pushforward_schur_class(Partition((3, 1)), 2, 3, segre)
        assert image == ring.generator(1)  # the degree-2 Segre class

    def test_rejects_long_partition(self):
        model = FormalBundle(base_dim=1, rank=3)
        with pytest.raises(ValueError):
            pushforward_schur_class(Partition((1, 1, 1)), 2, 3, segre_classes(model, 3))


class TestPluckerPowerPushforward:
    def test_critical_power_gives_constant_degree(self):
        model = FormalBundle(base_dim=0, rank=4)
        assert pushforward_plucker_power(4, 2, 4, model) == 2

    def test_projective_space_top_power(self):
        model = FormalBundle(base_dim=0, rank=3)
        assert pushforward_plucker_power(2, 1, 3, model) == 1

    def test_one_above_critical(self):
        model = FormalBundle(base_dim=1, rank=3)
        ring = ring_of(model)
        assert pushforward_plucker_power(3, 2, 3, model) == 2 * ring.generator(0)

    def test_rank_one_quotient_reads_off_segre(self):
        for r in range(2, 6):
            model = FormalBundle(base_dim=2, rank=r)
            ring = ring_of(model)
            assert pushforward_plucker_power(r + 1, 1, r, model) == ring.generator(1)

    def test_below_critical_power_is_zero(self):
        model = FormalBundle(base_dim=2, rank=4)
        for N in range(4):
            assert pushforward_plucker_power(N, 2, 4, model).is_zero()

    def test_output_is_homogeneous(self):
        for d in range(1, 4):
            for r in range(d, 6):
                fiber = d * (r - d)
                for N in range(fiber, fiber + 4):
                    model = FormalBundle(base_dim=N - fiber, rank=r)
                    image = pushforward_plucker_power(N, d, r, model)
                    if not image.is_zero():
                        assert homogeneous_degree(image) == N - fiber

    def test_point_value_is_classical_degree(self):
        for r in range(1, 9):
            for d in range(1, r + 1):
                model = FormalBundle(base_dim=0, rank=r)
                value = pushforward_plucker_power(d * (r - d), d, r, model)
                assert value == degree_grassmannian_classical(d, r)

    def test_unrestricted_shape_sum_matches(self):
        # summing tableau-count times pushed Schur class over every shape of
        # the full weight equals the restricted sum: shapes missing the
        # rectangle contribute zero determinants
        for d in range(1, 3):
            for r in range(d, 5):
                fiber = d * (r - d)
                for N in range(fiber + 3):
                    model = FormalBundle(base_dim=max(N - fiber, 0), rank=r)
                    ring = ring_of(model)
                    segre = segre_classes(model, N + d)
                    total = ring.zero()
                    for mu in enumerate_partitions(N, d):
                        total = total + syt_count_hook(mu) * pushforward_schur_class(
                            mu, d, r, segre
                        )
                    assert total == pushforward_plucker_power(N, d, r, model)

    def test_model_rank_must_match(self):
        with pytest.raises(ValueError):
            pushforward_plucker_power(4, 2, 4, FormalBundle(base_dim=1, rank=3))

    def test_rejects_d_above_r(self):
        with pytest.raises(ValueError):
            pushforward_plucker_power(4, 3, 2, FormalBundle(base_dim=1, rank=2))


class TestMonomialTable:
    def test_example(self):
        # d=2, r=3, N=4 over a surface: the class s2 + 2*s1^2 of the README
        assert monomial_coefficients(4, 2, 3) == [(Partition((2,)), 1), (Partition((1, 1)), 2)]
        model = FormalBundle(base_dim=2, rank=3)
        assert str(pushforward_plucker_power(4, 2, 3, model)) == "s2 + 2*s1^2"

    def test_empty_below_fiber_dimension(self):
        assert monomial_coefficients(3, 2, 4) == []
        assert schur_coefficients(3, 2, 4) == []

    def test_schur_coefficients_are_shifted_tableau_counts(self):
        for d in range(1, 4):
            for r in range(d, 7):
                for w in range(5):
                    pairs = schur_coefficients(d * (r - d) + w, d, r)
                    assert [lam for lam, _ in pairs] == enumerate_partitions(w, d)
                    assert all(c == syt_count_product(lam, d, r) for lam, c in pairs)

    def test_formal_grid_matches_jacobi_trudi_oracle(self):
        # the base dimension runs one below, at and one above the output degree
        for d in range(1, 7):
            for r in sorted({d, d + 1, 2 * d + 1}):
                for w in range(0, 13, 1 if d <= 3 else 3):
                    N = d * (r - d) + w
                    for base_dim in sorted({max(w - 1, 0), w, w + 1}):
                        model = FormalBundle(base_dim=base_dim, rank=r)
                        table = pushforward_plucker_power(N, d, r, model)
                        oracle = schur_form_pushforward(N, d, r, model)
                        assert table == oracle
                        assert str(table) == str(oracle)

    def test_formal_class_at_roots_matches_localization(self):
        # an oracle that shares no code with the table: substitute s_i -> h_i(y)
        # into the formal class at seeded distinct integer roots y; with the
        # base dimension at the output degree nothing is truncated, so the
        # value is the Gysin localization sum over the same roots
        gen = SplitMix64(2015)
        for d in range(1, 4):
            for r in range(d, 7):
                for w in range(6):
                    N = d * (r - d) + w
                    image = pushforward_plucker_power(N, d, r, FormalBundle(base_dim=w, rank=r))
                    for _ in range(2):
                        roots = gen.distinct_integers(r, -3 * r, 3 * r)
                        h = complete_homogeneous_values(roots, w)
                        value = sum(
                            coeff * prod(h[i + 1] ** e for i, e in enumerate(exps))
                            for exps, coeff in image.monomials.items()
                        )
                        assert value == localization_pushforward(N, d, roots)

    def test_split_grid_matches_jacobi_trudi_oracle(self):
        for twists in [(0, -1), (2, -3, 1), (-2, -1, 0, 3), (1, -4, 2, -1, 3)]:
            r = len(twists)
            for d in range(1, r + 1):
                for w in range(6):
                    N = d * (r - d) + w
                    for m in sorted({max(w - 1, 0), w, w + 2}):
                        model = SplitBundle(base_dim=m, twists=twists)
                        table = pushforward_plucker_power(N, d, r, model)
                        oracle = schur_form_pushforward(N, d, r, model)
                        assert table == oracle
                        assert str(table) == str(oracle)


# Twists with repeats, zeros and negatives, ranks 1 to 5.
DEGREE_TWISTS = [
    (0,), (-3,), (0, 0), (2, -1), (-2, -2), (1, 1, 1), (0, -1, 2), (-3, 0, 0),
    (-1, 0, 0, 2), (2, 2, -1, -1), (0, 0, 0, 0), (1, -4, 2, -1, 3), (0, 0, 1, 1, -2),
]


def _degree(d, model):
    return sum(count * integral for _, count, integral in degree_grassmann_bundle_terms(d, model))


def _degree_grid():
    for twists in DEGREE_TWISTS:
        for d in range(1, len(twists) + 1):
            for m in range(9):
                yield d, SplitBundle(base_dim=m, twists=twists)


class TestDegrees:
    def test_scroll_degree(self):
        assert _degree(1, SplitBundle(base_dim=1, twists=(1, 2))) == 3

    def test_rank_three_example(self):
        assert _degree(2, SplitBundle(base_dim=1, twists=(1, 1, 1))) == 6

    def test_point_base_reduces_to_grassmannian(self):
        assert _degree(1, SplitBundle(base_dim=0, twists=(0, 0))) == 1
        assert _degree(2, SplitBundle(base_dim=0, twists=(0, 0, 0, 0))) == 2

    def test_terms_match_graded_ring_reference(self):
        # reference: each Delta_lam a Jacobi-Trudi determinant of Segre classes
        # in the truncated ring of P^m, read off at h^m
        for d, model in _degree_grid():
            m = model.base_dim
            rows = degree_grassmann_bundle_terms(d, model)
            assert [lam for lam, _, _ in rows] == enumerate_partitions(m, d)
            segre = segre_classes(model, m + d)
            for lam, _, integral in rows:
                assert type(integral) is int
                assert integral == integrate_over_pm(schur_via_jacobi_trudi(lam, segre, size=d), m)

    def test_terms_table_sums_to_degree(self):
        # the top power pushed through the monomial table, integrated over P^m
        for d, model in _degree_grid():
            r, m = model.rank, model.base_dim
            top = pushforward_plucker_power(d * (r - d) + m, d, r, model)
            assert _degree(d, model) == integrate_over_pm(top, m)

    def test_classical_examples(self):
        assert degree_grassmannian_classical(2, 4) == 2
        assert degree_grassmannian_classical(2, 5) == 5
        assert degree_grassmannian_classical(3, 6) == 42
        for r in range(1, 10):
            assert degree_grassmannian_classical(1, r) == 1

    def test_classical_rejects_bad_input(self):
        with pytest.raises(ValueError):
            degree_grassmannian_classical(3, 2)
        with pytest.raises(ValueError):
            degree_grassmannian_classical(0, 2)


class TestRationalForm:
    def test_single_row_coefficients_are_one(self):
        # with a rank-1 quotient the factorial variant reduces to plain Segre classes
        for r in range(1, 6):
            for N in range(r - 1, r + 4):
                coeffs = rational_form_coefficients(N, 1, r, "factorial")
                assert coeffs == [((N - r + 1,), Fraction(1))]

    def test_factorial_variant_matches_schur_form(self):
        for d in range(1, 4):
            for r in range(d, 6):
                fiber = d * (r - d)
                for N in range(fiber, fiber + 3):
                    model = FormalBundle(base_dim=N - fiber, rank=r)
                    assert pushforward_rational_form(
                        N, d, r, model, "factorial"
                    ) == pushforward_plucker_power(N, d, r, model)

    def test_linear_variant_differs(self):
        model = FormalBundle(base_dim=2, rank=3)
        expected = pushforward_plucker_power(4, 2, 3, model)
        assert pushforward_rational_form(4, 2, 3, model, "linear") != expected

    def test_linear_variant_can_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rational_form_coefficients(0, 1, 1, "linear")

    def test_rejects_power_below_fiber_dimension(self):
        with pytest.raises(ValueError):
            rational_form_coefficients(3, 2, 4, "factorial")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            rational_form_coefficients(4, 2, 4, "quadratic")
