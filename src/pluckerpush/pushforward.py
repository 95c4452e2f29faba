"""Push-forwards of powers of the Pluecker class, and degree formulas.

For a rank-r bundle E over a base X, the Grassmann bundle G_X(d, E) carries
the Pluecker class (the first Chern class of the determinant of the universal
rank-d quotient).  Its powers push forward to universal integer combinations
of Schur polynomials in the Segre classes of E:

    push(N) = sum over |lam| = N - d(r-d) of  f(lam + eps) * Delta_lam(s(E))

where eps is the d x (r-d) rectangle, f counts standard Young tableaux, and
Delta_lam is the Jacobi-Trudi determinant det[s_{lam_i + j - i}].  Below the
critical power d(r-d) the push-forward vanishes for degree reasons.

The production path does not expand those determinants.  It reads the same
class off an integer table, one coefficient per monomial in the Segre classes
(``monomial_coefficients``), built from the composition-sum form with
factorial denominators.  One walk over the exponent vectors, partition by
partition, feeds that table and the rational form of either denominator
variant, and one helper turns a table into a class; the Jacobi-Trudi sum in
the graded ring is their oracle, ``oracles.schur_form_pushforward``.

At explicit Chern roots each Delta_lam is a scalar determinant of complete
homogeneous values (``schur_form_terms``); at the twists of a split bundle
over P^m these are the per-shape integrals of the Grassmann bundle's degree.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import factorial, prod

from .chowring import BundleModel, FormalBundle, GradedPoly, SplitBundle, ring_of
from .partitions import Partition, add_rectangle, enumerate_partitions, multiset_permutations
from .schur import complete_homogeneous_values, schur_via_jacobi_trudi
from .tableaux import syt_count_hook

#: "linear" or "factorial", the denominator convention of the rational form.
DenominatorVariant = str


def _check_d_r(d: int, r: int) -> None:
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")


def _check_model(r: int, model: BundleModel) -> None:
    if model.rank != r:
        raise ValueError(f"model has rank {model.rank}, expected {r}")


def schur_coefficients(N: int, d: int, r: int) -> list[tuple[Partition, int]]:
    """The Schur-form terms (lam, f(lam + eps)) of the push-forward of theta^N.

    One pair per partition lam of N - d(r-d) with at most d parts, in
    reverse-lexicographic order; empty below the fiber dimension, where the
    push-forward vanishes.
    """
    _check_d_r(d, r)
    fiber_dim = d * (r - d)
    if N < fiber_dim:
        return []
    return [
        (lam, syt_count_hook(add_rectangle(lam, d, r - d)))
        for lam in enumerate_partitions(N - fiber_dim, d)
    ]


def _denominator_table(denominator: DenominatorVariant, top: int) -> list[int]:
    """D(t) for t = 0..top: t for the linear variant, t! for the factorial one."""
    return [factorial(t) if denominator == "factorial" else t for t in range(top + 1)]


def _composition_terms(
    N: int, d: int, r: int, denominator: DenominatorVariant
) -> Iterator[tuple[Partition, tuple[int, ...], int, int]]:
    """Every nonvanishing term (mu, k, numerator, denominator) of the composition sum.

    The exponent vectors k, d nonnegative integers with |k| = N - d(r-d),
    come partition by partition: for each mu in reverse-lexicographic order,
    the distinct permutations of mu padded with zeros.  The k-th term is
    N! * prod_{i<j} (k_i - k_j - i + j) over prod_i D(r + k_i - i) (i counted
    from 1); a term where two of the k_i - i coincide vanishes and is skipped.
    Requires N at or above the fiber dimension.
    """
    n_fact = factorial(N)
    weight = N - d * (r - d)
    denominators = _denominator_table(denominator, r + weight)
    for mu in enumerate_partitions(weight, d):
        for k in multiset_permutations(mu.part(i) for i in range(d)):
            shifted = [part - i for i, part in enumerate(k)]
            if len(set(shifted)) < d:
                continue
            difference = prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
            yield mu, k, n_fact * difference, prod(
                denominators[r + part - i - 1] for i, part in enumerate(k)
            )


def monomial_coefficients(N: int, d: int, r: int) -> list[tuple[Partition, int]]:
    """The push-forward of theta^N as integers on monomials in the Segre classes.

    Grouping the ``factorial`` composition-sum form by the sorted exponent
    vector gives one coefficient per partition mu of N - d(r-d) with at most
    d parts: the sum over the distinct permutations k of mu, padded with zeros
    to length d, of N! * prod_{i<j} (k_i - k_j - i + j) / prod_i (r + k_i - i)!.
    Each such term is plus or minus a standard-tableau count, so every
    division is exact, and asserted to be.  The pair (mu, c) stands for
    c * s_{mu_1} * ... * s_{mu_l}.  Empty below the fiber dimension.
    """
    _check_d_r(d, r)
    if N < d * (r - d):
        return []
    table: dict[Partition, int] = {}
    for mu, k, numerator, denominator in _composition_terms(N, d, r, "factorial"):
        term, rem = divmod(numerator, denominator)
        assert rem == 0, f"composition term not integral at k={k} for d={d}, r={r}"
        table[mu] = table.get(mu, 0) + term
    return list(table.items())


def _class_of_table(
    table: list[tuple[Partition, int | Fraction]], weight: int, model: BundleModel
) -> GradedPoly:
    """The class of degree ``weight`` that a monomial table stands for in the model.

    Over a formal base each entry (mu, c) is the monomial c * s_{mu_1} * ...
    * s_{mu_l}; over P^m it contributes c * h_{mu_1}(a) * ... * h_{mu_l}(a) to
    the coefficient of h^weight, with a the twists.  The zero class when the
    weight is negative or exceeds the base dimension.
    """
    ring = ring_of(model)
    if not 0 <= weight <= model.base_dim:
        return ring.zero()
    if isinstance(model, FormalBundle):
        monomials = {}
        for mu, coeff in table:
            exps = [0] * model.base_dim
            for part in mu:
                exps[part - 1] += 1
            monomials[tuple(exps)] = coeff
        return ring.element(monomials)
    h = complete_homogeneous_values(model.twists, weight)
    value = sum((coeff * prod(h[part] for part in mu) for mu, coeff in table), Fraction(0))
    return ring.element({(weight,): value})


def pushforward_plucker_power(N: int, d: int, r: int, model: BundleModel) -> GradedPoly:
    """Push the N-th power of the Pluecker class down to the base of the model.

    Homogeneous of degree N - d(r-d); the zero class when N is below the
    fiber dimension d(r-d), or when that degree exceeds the base dimension.
    The class of the ``monomial_coefficients`` table in the model.
    """
    _check_d_r(d, r)
    _check_model(r, model)
    if N < 0:
        raise ValueError(f"power must be nonnegative, got {N}")
    weight = N - d * (r - d)
    # a base too small for the output degree needs no table
    table = monomial_coefficients(N, d, r) if weight <= model.base_dim else []
    return _class_of_table(table, weight, model)


def schur_form_terms(
    N: int, d: int, roots: Sequence[int | Fraction]
) -> list[tuple[Partition, int, int | Fraction]]:
    """The rows (lam, f(lam + eps), Delta_lam(h(roots))) of the Schur form at Chern roots.

    r is the number of roots.  Each Segre class becomes the complete
    homogeneous value of the roots, so every Delta_lam is a scalar
    Jacobi-Trudi determinant and nothing is truncated; the push-forward of
    theta^N at the roots is the sum of count * value.  Integer roots give
    integer values.  Empty below the fiber dimension.
    """
    r = len(roots)
    terms = schur_coefficients(N, d, r)
    if not terms:
        return []
    h = complete_homogeneous_values(roots, N - d * (r - d) + d)
    return [(lam, count, schur_via_jacobi_trudi(lam, h, size=d)) for lam, count in terms]


def degree_grassmann_bundle_terms(d: int, model: SplitBundle) -> list[tuple[Partition, int, int]]:
    """Per-shape contributions (shape, tableau count, integral) to the degree.

    The integral of Delta_lam(s(E)) over P^m is Delta_lam(h(twists)), so the
    rows are ``schur_form_terms`` at the twists; the degree is the sum of
    count * integral.
    """
    return schur_form_terms(d * (model.rank - d) + model.base_dim, d, model.twists)


def degree_grassmannian_classical(d: int, r: int) -> int:
    """Degree of the Grassmannian of corank-d subspaces in its Pluecker embedding.

    Closed form: (d(r-d))! * prod_{l<d} l! / prod_{l<=d} (r-l)!, evaluated in
    exact integer arithmetic with the division asserted exact.
    """
    _check_d_r(d, r)
    numerator = factorial(d * (r - d)) * prod(factorial(l) for l in range(1, d))
    denominator = prod(factorial(r - l) for l in range(1, d + 1))
    degree, rem = divmod(numerator, denominator)
    assert rem == 0, f"degree formula division not exact for d={d}, r={r}"
    return degree


def rational_form_coefficients(
    N: int, d: int, r: int, denominator: DenominatorVariant
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Coefficients of the composition-sum form of the push-forward.

    The sum runs over all vectors k of d nonnegative integers with
    |k| = N - d(r-d), partition by partition as the monomial table walks
    them; the k-th coefficient is

        N! * prod_{i<j} (k_i - k_j - i + j) / prod_i D_i

    with D_i = (r + k_i - i) for the ``linear`` variant and (r + k_i - i)!
    for the ``factorial`` variant.  Vectors whose difference product vanishes
    are skipped.  Raises ZeroDivisionError if a surviving term divides by
    zero, which can happen for the linear variant when d = r.
    """
    _check_d_r(d, r)
    if denominator not in ("linear", "factorial"):
        raise ValueError(f"unknown denominator variant {denominator!r}")
    fiber_dim = d * (r - d)
    if N < fiber_dim:
        raise ValueError(f"power {N} is below the fiber dimension {fiber_dim}")
    out = []
    for _, k, numerator, denom in _composition_terms(N, d, r, denominator):
        if denom == 0:
            raise ZeroDivisionError(
                f"{denominator} denominator vanishes at k={k} for d={d}, r={r}"
            )
        out.append((k, Fraction(numerator, denom)))
    return out


def pushforward_rational_form(
    N: int, d: int, r: int, model: BundleModel, denominator: DenominatorVariant
) -> GradedPoly:
    """Composition-sum form of the push-forward, with rational coefficients.

    The class of the ``rational_form_coefficients`` in the model, read as
    the production path reads its table; no Segre classes are multiplied.
    The remark suite determines empirically which denominator variant agrees
    with the Jacobi-Trudi Schur form.
    """
    _check_model(r, model)
    coefficients = rational_form_coefficients(N, d, r, denominator)
    return _rational_form_class(coefficients, N - d * (r - d), model)


def _rational_form_class(
    coefficients: list[tuple[tuple[int, ...], Fraction]], weight: int, model: BundleModel
) -> GradedPoly:
    """Group rational-form coefficients by the sorted exponent vector into a
    monomial table, and return the class of degree ``weight`` it stands for."""
    table: dict[Partition, Fraction] = {}
    for k, coeff in coefficients:
        mu = Partition(sorted(k, reverse=True))
        table[mu] = table.get(mu, 0) + coeff
    return _class_of_table(list(table.items()), weight, model)
