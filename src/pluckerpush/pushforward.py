"""Push-forwards of powers of the Pluecker class, and degree formulas.

For a rank-r bundle E over a base X, the Grassmann bundle G_X(d, E) carries
the Pluecker class (the first Chern class of the determinant of the universal
rank-d quotient).  Its powers push forward to universal integer combinations
of Schur polynomials in the Segre classes of E:

    push(N) = sum over |lam| = N - d(r-d) of  f(lam + eps) * Delta_lam(s(E))

where eps is the d x (r-d) rectangle, f counts standard Young tableaux, and
Delta_lam is the Jacobi-Trudi determinant det[s_{lam_i + j - i}].  Below the
critical power d(r-d) the push-forward vanishes for degree reasons.

Over a formal base the production path does not expand those determinants.
It reads the same class off an integer table, one coefficient per monomial
in the Segre classes (``monomial_coefficients``), built from the
composition-sum form with factorial denominators.  One depth-first walk
over the compositions of the weight into d parts, each prefix visited once
for all the partitions that extend it, feeds that table and the rational
form of either denominator variant; it carries the difference product and
the denominator product down its tree, and each node multiplies in only the
factors of the part it places.  One helper turns a table into a class; the
Jacobi-Trudi sum in the graded ring is their oracle,
``oracles.schur_form_pushforward``.

At explicit Chern roots each Delta_lam is a scalar determinant of complete
homogeneous values (``schur_form_terms``, which takes a list of root sets and
computes the tableau counts once for all of them); at the twists of a split
bundle over P^m these are the per-shape integrals of the Grassmann bundle's
degree.  Each count f(lam + eps) is the composition term at k = lam.  Since
s_k(E) = h_k(twists) * h^k, the push-forward over P^m is the sum of these
rows times h^w, w = N - d(r-d): the split model reads the scalar Schur rows,
and only the formal model reads the monomial table.  The factorial rational
form read at the twists, which walks the exponent vectors, is the split
model's reference.

Over a point the degree is the tableau count of the rectangle eps,
(d(r-d))! over its hook product.  ``degree_grassmannian_classical`` builds it
from prime exponents, Legendre's for the factorial less those of the hooks,
multiplied up a balanced product tree; it forms no factorial and divides
nothing.  The factorial quotient is its oracle,
``oracles.degree_grassmannian_factorial``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import factorial, isqrt, prod

from .chowring import BundleModel, FormalBundle, GradedPoly, SplitBundle, ring_of
from .partitions import Partition, enumerate_partitions
from .records import require_exact, require_sizes
from .schur import complete_homogeneous_values, jacobi_trudi_det
from .tableaux import syt_count_product

#: "linear" or "factorial", the denominator convention of the rational form.
DenominatorVariant = str


def schur_coefficients(N: int, d: int, r: int) -> list[tuple[Partition, int]]:
    """The Schur-form terms (lam, f(lam + eps)) of the push-forward of theta^N.

    One pair per partition lam of N - d(r-d) with at most d parts, in
    reverse-lexicographic order; empty below the fiber dimension, where the
    push-forward vanishes.  Each count is the composition term at k = lam,
    ``syt_count_product``, so the shape lam + eps is never built.
    """
    require_sizes(d, r, N)
    fiber_dim = d * (r - d)
    if N < fiber_dim:
        return []
    return [(lam, syt_count_product(lam, d, r)) for lam in enumerate_partitions(N - fiber_dim, d)]


def _denominator_table(denominator: DenominatorVariant, top: int) -> list[int]:
    """D(t) for t = 0..top: t for the linear variant, t! for the factorial one."""
    return [factorial(t) if denominator == "factorial" else t for t in range(top + 1)]


def _composition_terms(
    N: int, d: int, r: int, denominator: DenominatorVariant
) -> list[tuple[tuple[int, ...], int, int]]:
    """Every nonvanishing term (k, numerator, denominator) of the composition sum.

    The exponent vectors k are the compositions of w = N - d(r-d) into d
    nonnegative parts.  The k-th term is N! * prod_{i<j} (k_i - k_j - i + j)
    over prod_i D(r + k_i - i) (i counted from 1); it vanishes when two of
    the shifted parts k_i - i coincide, and the walk never reaches it.  The
    walk goes depth first, trying each part from 0 up to what is left, so
    each prefix is visited once, whatever partitions extend it, and the
    terms come in lexicographic order of k.  The last part is whatever is
    left, so the leaf level is no branch.  With i counted from 0, a branch
    ends as soon as its new shifted part s = k_i - i repeats one already
    placed.  Each node carries the prefix products: placing s multiplies the
    difference product by (a - s) for every shifted part a placed before it,
    and the denominator product by D(r + s - 1).  Requires N at or above the
    fiber dimension.
    """
    n_fact = factorial(N)
    weight = N - d * (r - d)
    denominators = _denominator_table(denominator, r + weight)
    last = d - 1
    terms: list[tuple[tuple[int, ...], int, int]] = []

    def extend(
        i: int, left: int, k: tuple[int, ...], shifted: tuple[int, ...], difference: int, denom: int
    ) -> None:
        for v in range(left + 1) if i < last else (left,):
            s = v - i
            if s in shifted:
                continue
            child_difference = difference
            for a in shifted:
                child_difference *= a - s
            child_denom = denom * denominators[r + s - 1]
            if i < last:
                extend(i + 1, left - v, k + (v,), shifted + (s,), child_difference, child_denom)
            else:
                terms.append((k + (v,), n_fact * child_difference, child_denom))

    extend(0, weight, (), (), 1, 1)
    return terms


def monomial_coefficients(N: int, d: int, r: int) -> list[tuple[Partition, int]]:
    """The push-forward of theta^N as integers on monomials in the Segre classes.

    Grouping the ``factorial`` composition-sum form by the sorted exponent
    vector gives one coefficient per partition mu of N - d(r-d) with at most
    d parts: the sum over the distinct permutations k of mu, padded with zeros
    to length d, of N! * prod_{i<j} (k_i - k_j - i + j) / prod_i (r + k_i - i)!.
    The walk yields every live k once, in lexicographic order, and each term
    joins the group of its parts sorted in decreasing order.  Each term is
    plus or minus a standard-tableau count, so every division is exact, and
    asserted to be.  The pair (mu, c) stands for c * s_{mu_1} * ... * s_{mu_l};
    the pairs come in reverse-lexicographic order of mu.  Empty below the
    fiber dimension.
    """
    require_sizes(d, r, N)
    if N < d * (r - d):
        return []
    table: dict[tuple[int, ...], int] = {}
    for k, numerator, denominator in _composition_terms(N, d, r, "factorial"):
        term, rem = divmod(numerator, denominator)
        assert rem == 0, f"composition term not integral at k={k} for d={d}, r={r}"
        mu = tuple(sorted(k, reverse=True))
        table[mu] = table.get(mu, 0) + term
    return [(Partition(mu), table[mu]) for mu in sorted(table, reverse=True)]


def _class_of_table(
    table: list[tuple[Sequence[int], int | Fraction]], weight: int, model: BundleModel
) -> GradedPoly:
    """The class of degree ``weight`` that a monomial table stands for in the model.

    Each entry (k, c) is an exponent vector k, a partition or any vector of
    nonnegative parts, whose zero parts are skipped.  Over a formal base it
    is the monomial c * s_{k_1} * ... * s_{k_d}; over P^m it contributes
    c * h_{k_1}(a) * ... * h_{k_d}(a) to the coefficient of h^weight, with a
    the twists.  Only the rational form reaches the P^m branch: it is that
    form's read at the twists, the reference of the split push-forward.
    Entries that name the same monomial add up.  The zero class when the
    weight is negative or exceeds the base dimension.
    """
    ring = ring_of(model)
    if not 0 <= weight <= model.base_dim:
        return ring.zero()
    if isinstance(model, FormalBundle):
        monomials: dict[tuple[int, ...], int | Fraction] = {}
        for k, coeff in table:
            exps = [0] * model.base_dim
            for part in k:
                if part:
                    exps[part - 1] += 1
            exps = tuple(exps)
            monomials[exps] = monomials.get(exps, 0) + coeff
        return GradedPoly(ring, monomials)
    h = complete_homogeneous_values(model.twists, weight)
    value = sum(coeff * prod(h[part] for part in k) for k, coeff in table)
    return GradedPoly(ring, {(weight,): value})


def pushforward_plucker_power(N: int, d: int, r: int, model: BundleModel) -> GradedPoly:
    """Push the N-th power of the Pluecker class down to the base of the model.

    Homogeneous of degree w = N - d(r-d); the zero class when N is below
    the fiber dimension d(r-d), or when w exceeds the base dimension.  Over
    P^m it is the sum of count * value over the ``schur_form_terms`` rows at
    the twists, times h^w, the rows that the degree sums; over a formal base
    it is the class of the ``monomial_coefficients`` table.
    """
    require_exact((model,), "model", (FormalBundle, SplitBundle))
    require_sizes(d, r, N, model)
    weight = N - d * (r - d)
    if not 0 <= weight <= model.base_dim:
        return ring_of(model).zero()
    if isinstance(model, FormalBundle):
        return _class_of_table(monomial_coefficients(N, d, r), weight, model)
    rows = schur_form_terms(N, d, [model.twists])[0]
    return GradedPoly(ring_of(model), {(weight,): sum(count * value for _, count, value in rows)})


def schur_form_terms(
    N: int, d: int, root_sets: Sequence[Sequence[int | Fraction]]
) -> list[list[tuple[Partition, int, int | Fraction]]]:
    """The rows (lam, f(lam + eps), Delta_lam(h(roots))) of the Schur form at Chern roots.

    One row list per root set, in order; every set holds r roots.  The
    counts f(lam + eps) depend on (N, d, r) alone, so they are computed once
    for all the sets.  Each Segre class becomes the complete homogeneous
    value of the roots, so every Delta_lam is a scalar Jacobi-Trudi
    determinant and nothing is truncated; the push-forward of theta^N at a
    set is the sum of count * value over its rows.  Integer roots give
    integer values.  The lists are empty below the fiber dimension.  No set
    fixes r for an empty list of sets, which gives an empty list once N and
    d pass the size rule with r = d.
    """
    if not root_sets:
        require_sizes(d, d, N)
        return []
    r = len(root_sets[0])
    if any(len(roots) != r for roots in root_sets):
        sizes = [len(roots) for roots in root_sets]
        raise ValueError(f"root sets must all have one size, got sizes {sizes}")
    terms = schur_coefficients(N, d, r)
    if not terms:
        return [[] for _ in root_sets]
    top = N - d * (r - d) + d
    rows = []
    for roots in root_sets:
        h = complete_homogeneous_values(roots, top)
        rows.append([(lam, count, jacobi_trudi_det(lam.padded(d), h)) for lam, count in terms])
    return rows


def degree_grassmann_bundle_terms(d: int, model: SplitBundle) -> list[tuple[Partition, int, int]]:
    """Per-shape contributions (shape, tableau count, integral) to the degree.

    The integral of Delta_lam(s(E)) over P^m is Delta_lam(h(twists)), so the
    rows are ``schur_form_terms`` at the one root set of the twists; the
    degree is the sum of count * integral.
    """
    require_exact((model,), "model", (SplitBundle,))
    return schur_form_terms(d * (model.rank - d) + model.base_dim, d, [model.twists])[0]


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, in increasing order, by a sieve over a bytearray."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _rectangle_hooks(d: int, r: int) -> list[int]:
    """At index h = 0..r-1, how many cells of the d x (r-d) rectangle have
    hook length h: min(h, d, r-d, r-h)."""
    return [min(h, d, r - d, r - h) for h in range(r)]


def _balanced_product(factors: list[int]) -> int:
    """The product of the factors, multiplied in pairs up a balanced tree, so
    that the large multiplications meet operands of similar size."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[-1:] if len(factors) % 2 else paired
    return factors[0] if factors else 1


def degree_grassmannian_classical(d: int, r: int) -> int:
    """Degree of the Grassmannian of corank-d subspaces in its Pluecker embedding.

    The tableau count of the d x (r-d) rectangle: n! over the rectangle's hook
    product, n = d(r-d), computed from its prime factorization.  Each prime
    p <= n gets its Legendre exponent sum_k floor(n / p^k) in n!, less its
    exponent in the hook product, the sum over the prime powers p^k < r of the
    multiplicities of the hooks that p^k divides.  Every exponent is asserted
    nonnegative, and the powers p^e are multiplied by a balanced product tree,
    so no factorial and no quotient is formed.
    """
    require_sizes(d, r)
    n = d * (r - d)
    hooks = _rectangle_hooks(d, r)
    powers = []
    for p in _primes_upto(n):
        exponent = 0
        q = p
        while q <= n:
            exponent += n // q
            if q < r:
                exponent -= sum(hooks[q::q])
            q *= p
        assert exponent >= 0, f"degree formula exponent of {p} negative for d={d}, r={r}"
        if exponent:
            powers.append(p**exponent)
    return _balanced_product(powers)


def rational_form_coefficients(
    N: int, d: int, r: int, denominator: DenominatorVariant
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Coefficients of the composition-sum form of the push-forward.

    The sum runs over all vectors k of d nonnegative integers with
    |k| = N - d(r-d), in lexicographic order, as the monomial table walks
    them; the k-th coefficient is

        N! * prod_{i<j} (k_i - k_j - i + j) / prod_i D_i

    with D_i = (r + k_i - i) for the ``linear`` variant and (r + k_i - i)!
    for the ``factorial`` variant.  Vectors whose difference product vanishes
    are skipped.  Raises ZeroDivisionError if a surviving term divides by
    zero, which can happen for the linear variant when d = r.
    """
    require_sizes(d, r, N)
    if denominator not in ("linear", "factorial"):
        raise ValueError(f"unknown denominator variant {denominator!r}")
    fiber_dim = d * (r - d)
    if N < fiber_dim:
        raise ValueError(f"power {N} is below the fiber dimension {fiber_dim}")
    out = []
    for k, numerator, denom in _composition_terms(N, d, r, denominator):
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
    the formal model's production path reads its table, and at the twists
    over P^m; no Segre classes are multiplied.
    The remark suite determines empirically which denominator variant agrees
    with the Jacobi-Trudi Schur form.
    """
    require_exact((model,), "model", (FormalBundle, SplitBundle))
    require_sizes(d, r, N, model)
    coefficients = rational_form_coefficients(N, d, r, denominator)
    return _class_of_table(coefficients, N - d * (r - d), model)

