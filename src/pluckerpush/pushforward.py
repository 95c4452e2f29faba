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
It builds the same class as an integer table, one coefficient per monomial
in the Segre classes, from the composition-sum form with factorial
denominators.  The term of that form at an exponent vector depends on the
vector in two ways only: the set of its shifted parts fixes the magnitude,
the count f(lam + eps) of the partition lam of the set, and their order
fixes the sign, as in the expansion of Delta_lam over permutations.  The
walk over the compositions of the weight into d parts is memoized by state:
at each depth the bitmask of the shifted parts placed so far fixes all that
the rest of the walk reads, so each (depth, placed set) state is visited
once and returns the signed table of its suffixes, which its parent adds
in with the key moved and the sign flipped as the placed part requires.
The walk carries no product; the digits of a key are the exponents of a
monomial, and each vector adds its set's count, read from the Schur-form
pairs, with its sign, and nothing is divided.  The
rational form of either denominator variant, a reference, enumerates the
vectors on its own and ``_class_of_table`` reads it as a class; the
Jacobi-Trudi sum in the graded ring is the oracle of both,
``oracles.schur_form_pushforward``.

At explicit Chern roots each Delta_lam is a scalar determinant of complete
homogeneous values (``schur_form_terms``, which takes a list of root sets and
computes the tableau counts once for all of them); at the twists of a split
bundle over P^m these are the per-shape integrals of the Grassmann bundle's
degree.  Each count f(lam + eps) is the composition term at k = lam.  Since
s_k(E) = h_k(twists) * h^k, the push-forward over P^m is the sum of these
rows times h^w, w = N - d(r-d): the split model reads the scalar Schur rows,
and only the formal model reads the monomial table.  On either model
``pushforward_terms`` returns the pairs of its one count pass with the class
as a plain {exponent vector: coefficient} table, which the command line
renders without building a ring element; ``pushforward_plucker_power``
wraps that table in a ``GradedPoly``, the container of the oracle side.
The factorial rational form read at the twists is the split model's reference.

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
from itertools import compress, product
from math import factorial, isqrt, prod

from .chowring import BundleModel, FormalBundle, GradedPoly, SplitBundle, ring_of
from .partitions import Partition, enumerate_partitions
from .records import require_exact, require_sizes
from .schur import complete_homogeneous_values, jacobi_trudi_det
from .tableaux import syt_count_product

#: "linear" or "factorial", the denominator convention of the rational form.
DenominatorVariant = str
#: (partition, integer) pairs: the Schur-form terms.
Pairs = list[tuple[Partition, int]]
#: {exponent vector: coefficient}: a class as a plain table.
Table = dict[tuple[int, ...], int]


def schur_coefficients(N: int, d: int, r: int) -> Pairs:
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


def _suffix_table(
    weight: int, d: int, places: Sequence[int], signed: dict[int, tuple[int, int]]
) -> dict[int, int]:
    """The signed composition sum, as {key: coefficient}, walked once per state.

    The vectors are the compositions k of the weight into d parts whose
    shifted parts s_i = k_i - i (i from 0) are pairwise distinct; the key of
    k sums places[k_i], and its term is the entry of ``signed`` at its set of
    shifted parts (s at bit s + d), picked by the parity of the pairs i < j
    with s_i < s_j.  At depth i the mask of the placed parts, each s at bit
    s + i + 1, fixes the weight left (the placed k sum to the placed s plus
    i(i - 1)/2), the candidates v it blocks at bit v + 1, the parity each adds,
    the count of placed bits below it, and with the suffix the final set.  So
    the state (i, mask) has one table of its suffixes, memoized for this call,
    and each state's table adds those of its children, the key moved by
    places[v] and the sign flipped with the parity.  The last part is what is
    left, tested at its parent.  Keys come in the order the vectors first
    reach them, lexicographic; those whose terms cancel stay in, with 0.  A
    set missing from ``signed`` is a KeyError naming its mask.
    """
    last = d - 1
    if not last:
        return {places[weight]: signed[2 << weight][0]}
    memo: list[dict[int, dict[int, int]]] = [{} for _ in range(last)]

    def suffix(i: int, mask: int, left: int) -> dict[int, int]:
        table = memo[i].get(mask)
        if table is not None:
            return table
        table = {}
        get = table.get
        bit = 2
        if i < last - 1:
            for v in range(left + 1):
                if not mask & bit:
                    child = suffix(i + 1, (mask | bit) << 1, left - v)
                    step = places[v]
                    if (mask & bit - 1).bit_count() & 1:
                        for key, count in child.items():
                            key += step
                            table[key] = get(key, 0) - count
                    else:
                        for key, count in child.items():
                            key += step
                            table[key] = get(key, 0) + count
                bit <<= 1
        else:
            forced = 2 << left
            for v in range(left + 1):
                if not mask & bit:
                    child = (mask | bit) << 1
                    if not child & forced:
                        parity = (mask & bit - 1).bit_count() + (child & forced - 1).bit_count()
                        key = places[v] + places[left - v]
                        table[key] = get(key, 0) + signed[child | forced][parity & 1]
                bit <<= 1
                forced >>= 1
        memo[i][mask] = table
        return table

    return suffix(0, 0, weight)


def _monomial_table(N: int, d: int, r: int, pairs: Pairs, width: int) -> Table:
    """The push-forward over a formal base as {exponent vector of s_1..s_width: coefficient}.

    Read from the ``schur_coefficients`` pairs.  ``_suffix_table`` keys each
    k by the sum of (d + 1)^{k_i}, whose digit v is the exponent of s_v in
    the monomial of k; the digits are peeled up to the key's highest nonzero
    one and padded with zeros up to the width.  Up to its sign, the term at k
    is the count f(lam + eps) of the partition lam of its set of shifted
    parts, so each k adds, with its sign, the pair's count of its set, and
    nothing is divided; a set of no partition is an AssertionError.
    Monomials whose terms cancel stay in, with coefficient 0.
    """
    signed: dict[int, tuple[int, int]] = {}
    for lam, count in pairs:
        signed[sum(1 << (part - i + d) for i, part in enumerate(lam.padded(d)))] = (count, -count)
    weight = N - d * (r - d)
    base = d + 1
    try:
        keyed = _suffix_table(weight, d, [base**v for v in range(weight + 1)], signed)
    except KeyError as missing:
        (mask,) = missing.args
        stray = [b - d for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1]
        raise AssertionError(f"walk reached the set {stray}, of no partition, for d={d}, r={r}") from None
    padding = [(0,) * (width - n) for n in range(weight + 1)]
    table: Table = {}
    for key, coefficient in keyed.items():
        exps = []
        key //= base
        while key:
            key, exp = divmod(key, base)
            exps.append(exp)
        table[tuple(exps) + padding[len(exps)]] = coefficient
    return table


def _class_of_table(
    table: list[tuple[Sequence[int], int | Fraction]], weight: int, model: BundleModel
) -> GradedPoly:
    """The class of degree ``weight`` that a rational-form table stands for in the model.

    Each entry (k, c) is a vector k of nonnegative parts, whose zero parts
    are skipped.  Over a formal base it is the monomial
    c * s_{k_1} * ... * s_{k_d}; over P^m it contributes
    c * h_{k_1}(a) * ... * h_{k_d}(a) to the coefficient of h^weight, with a
    the twists.  The rational form is the reference of both push-forwards,
    and no production path reads a table through here.  Entries that name
    the same monomial add up.  The zero class when the weight is negative or
    exceeds the base dimension.
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


def pushforward_terms(N: int, d: int, model: BundleModel) -> tuple[Pairs, Table]:
    """The Schur-form pairs and the class of the push-forward of theta^N, from one count pass.

    r is the model's rank.  The pairs (lam, f(lam + eps)) are the
    ``schur_coefficients``.  The class, homogeneous of degree w = N - d(r-d),
    is a plain table {exponent vector: coefficient} over the generators of
    ``ring_of(model)``, which ``chowring.table_terms`` renders; it is empty,
    the zero class, when N is below the fiber dimension d(r-d) or when w
    exceeds the base dimension.  Over P^m it is {(w,): value}, value the sum
    of count * value over the ``schur_form_terms`` rows at the twists, which
    the degree sums too, and the pairs are read off those rows; over a formal
    base it is the monomial table built from the pairs, zeros included.
    """
    require_exact((model,), "model", (FormalBundle, SplitBundle))
    r = model.rank
    require_sizes(d, r, N)
    weight = N - d * (r - d)
    if not 0 <= weight <= model.base_dim:
        return schur_coefficients(N, d, r), {}
    if isinstance(model, FormalBundle):
        pairs = schur_coefficients(N, d, r)
        return pairs, _monomial_table(N, d, r, pairs, model.base_dim)
    rows = schur_form_terms(N, d, [model.twists])[0]
    pairs = [(lam, count) for lam, count, _ in rows]
    return pairs, {(weight,): sum(count * value for _, count, value in rows)}


def pushforward_plucker_power(N: int, d: int, model: BundleModel) -> GradedPoly:
    """Push the N-th power of the Pluecker class down to the base of the model:
    the table of ``pushforward_terms`` as a ring element."""
    return GradedPoly(ring_of(model), pushforward_terms(N, d, model)[1])


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
    require_sizes(d, model.rank)
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


def _denominator_table(denominator: DenominatorVariant, top: int) -> list[int]:
    """D(t) for t = 0..top: t for the linear variant, t! for the factorial one."""
    return [factorial(t) if denominator == "factorial" else t for t in range(top + 1)]


def rational_form_coefficients(
    N: int, d: int, r: int, denominator: DenominatorVariant
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Coefficients of the composition-sum form of the push-forward.

    The sum runs over all vectors k of d nonnegative integers with
    |k| = N - d(r-d), in lexicographic order; the k-th coefficient is

        N! * prod_{i<j} (k_i - k_j - i + j) / prod_i D_i

    with D_i = (r + k_i - i) for the ``linear`` variant and (r + k_i - i)!
    for the ``factorial`` variant.  Vectors whose difference product vanishes
    are skipped.  The vectors are enumerated here, apart from the monomial
    table's walk: every choice of the first d - 1 parts, the last forced to
    what is left, each term computed from its whole vector.  Raises
    ZeroDivisionError, naming the first k whose term divides by zero, which
    can happen for the linear variant when d = r.
    """
    require_sizes(d, r, N)
    if denominator not in ("linear", "factorial"):
        raise ValueError(f"unknown denominator variant {denominator!r}")
    weight = N - d * (r - d)
    if weight < 0:
        raise ValueError(f"power {N} is below the fiber dimension {N - weight}")
    denominators = _denominator_table(denominator, r + weight)
    n_fact = factorial(N)
    out = []
    for head in product(range(weight + 1), repeat=d - 1):
        last = weight - sum(head)
        if last < 0:
            continue
        k = (*head, last)
        shifted = [part - i for i, part in enumerate(k)]
        if len(set(shifted)) < d:
            continue
        denom = prod(denominators[r - 1 + s] for s in shifted)
        if denom == 0:
            raise ZeroDivisionError(f"{denominator} denominator vanishes at k={k} for d={d}, r={r}")
        difference = prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
        out.append((k, Fraction(n_fact * difference, denom)))
    return out


def pushforward_rational_form(
    N: int, d: int, model: BundleModel, denominator: DenominatorVariant
) -> GradedPoly:
    """Composition-sum form of the push-forward, with rational coefficients.

    The class of the ``rational_form_coefficients`` at the model's rank,
    read by ``_class_of_table`` as monomials over a formal base and at the
    twists over P^m; no Segre classes are multiplied.
    The remark suite determines empirically which denominator variant agrees
    with the Jacobi-Trudi Schur form.
    """
    require_exact((model,), "model", (FormalBundle, SplitBundle))
    r = model.rank
    coefficients = rational_form_coefficients(N, d, r, denominator)
    return _class_of_table(coefficients, N - d * (r - d), model)

