"""Truncated graded rings of Segre classes, and the two bundle models.

A ``GradedRing`` is a commutative polynomial ring whose generators carry
positive weights; every monomial of total weight above ``top_degree`` is
identically zero.  Its elements are frozen records of exact coefficients,
each an ``int`` or a ``Fraction`` as given.  Weights, truncation degrees, base
dimensions, ranks and twists must be ``int``s and generator names ``str``s (a
bool is not an int); the constructors raise TypeError on anything else.  Two
instances cover everything the package computes with:

  * the formal model, one generator per Segre class s_1..s_n of the base,
    truncated at the base dimension n;
  * a split bundle over projective space P^m, a single hyperplane generator h
    truncated at m, where the Segre classes are the complete homogeneous
    values of the twists times powers of h.

Ring elements are the container of the oracle side.  The production
push-forward hands out a plain {exponent vector: coefficient} table, valid
by construction, and ``table_terms`` renders it as ``GradedPoly.terms``
renders an element, without re-checking each monomial.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .records import EXACT_TYPES, FrozenRecord, require_exact
from .schur import complete_homogeneous_values

Scalar = int | Fraction


class GradedRing(FrozenRecord):
    """Ring descriptor shared by all its elements."""

    __slots__ = ("names", "weights", "top_degree")

    def __init__(self, names: Sequence[str], weights: Sequence[int], top_degree: int) -> None:
        names, weights = tuple(names), tuple(weights)
        require_exact(names, "names", (str,))
        require_exact((*weights, top_degree), "weights and top_degree", (int,))
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be distinct, got {names}")
        if any(w < 1 for w in weights):
            raise ValueError(f"generator weights must be positive, got {weights}")
        if top_degree < 0:
            raise ValueError(f"top_degree must be nonnegative, got {top_degree}")
        self._freeze(names, weights, top_degree)

    def monomial_weight(self, exponents: tuple[int, ...]) -> int:
        return sum(map(mul, self.weights, exponents))

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {})

    def one(self) -> "GradedPoly":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "GradedPoly":
        return GradedPoly(self, {(0,) * len(self.names): value})

    def generator(self, index: int) -> "GradedPoly":
        """The index-th generator, 0-based (zero if its weight exceeds the truncation).

        The index must be an int; a bool or a float raises TypeError."""
        require_exact((index,), "generator index", (int,))
        if not 0 <= index < len(self.names):
            raise ValueError(f"no generator {index} in a ring with {len(self.names)} generators")
        exps = tuple(1 if i == index else 0 for i in range(len(self.names)))
        return GradedPoly(self, {exps: 1})


class GradedPoly(FrozenRecord):
    """Element of a ``GradedRing``: a finite exact combination of monomials.

    A frozen record, but unhashable and equal to the scalars of its ring.  The
    constructor refuses an exponent that is not an int and a coefficient that
    is not an int or a Fraction, and drops zero monomials and those whose
    weight exceeds the ring's truncation, which is what makes multiplication
    truncate.  ``monomials`` is a read-only view of the map from exponent
    vectors to coefficients.
    """

    __slots__ = ("ring", "monomials")

    def __init__(self, ring: GradedRing, monomials: Mapping[tuple[int, ...], Scalar]):
        require_exact(monomials.values(), "coefficients")
        width = len(ring.names)
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in monomials.items():
            exps = tuple(exps)
            require_exact(exps, "exponents", (int,))
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for ring with {width} generators")
            if coeff and ring.monomial_weight(exps) <= ring.top_degree:
                clean[exps] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "monomials", MappingProxyType(clean))

    def __reduce__(self) -> tuple:
        return GradedPoly, (self.ring, dict(self.monomials))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: object) -> "GradedPoly | None":
        if isinstance(other, GradedPoly):
            # identity first: most operands share one ring object
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("elements of different rings cannot be combined")
            return other
        if other.__class__ in EXACT_TYPES:
            return self.ring.scalar(other)
        return None

    def __add__(self, other: object) -> "GradedPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = self.monomials.copy()
        for exps, coeff in rhs.monomials.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return GradedPoly(self.ring, merged)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.ring, {e: -c for e, c in self.monomials.items()})

    def __sub__(self, other: object) -> "GradedPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other: object) -> "GradedPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        product: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.monomials.items():
            for e2, c2 in rhs.monomials.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                product[exps] = product.get(exps, 0) + c1 * c2
        return GradedPoly(self.ring, product)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GradedPoly):
            return self.ring == other.ring and self.monomials == other.monomials
        if other.__class__ in EXACT_TYPES:
            return self.monomials == self.ring.scalar(other).monomials
        return NotImplemented

    __hash__ = None  # equal to plain scalars and its map unhashable; not a dict key

    # -- rendering --------------------------------------------------------

    def terms(self) -> list[tuple[str, str]]:
        """(monomial text, coefficient text) pairs, as ``table_terms`` renders them."""
        return table_terms(self.ring, self.monomials)

    def __str__(self) -> str:
        return render_terms(self.terms())

    def __repr__(self) -> str:
        return f"GradedPoly({self})"


def table_terms(ring: GradedRing, table: Mapping[tuple[int, ...], Scalar]) -> list[tuple[str, str]]:
    """(monomial text, coefficient text) pairs of a {exponent vector: coefficient}
    table over the ring, in the canonical order: by weight, then lexicographic
    exponents.  Zero coefficients are dropped; nothing else is checked."""
    weight = ring.monomial_weight
    out = []
    for exps, coeff in sorted(table.items(), key=lambda item: (weight(item[0]), item[0])):
        if coeff:
            pieces = [name if e == 1 else f"{name}^{e}" for name, e in zip(ring.names, exps) if e]
            out.append((" ".join(pieces), str(coeff)))
    return out


def render_terms(terms: list[tuple[str, str]]) -> str:
    """Render (monomial, coefficient) pairs as a sum; shared by text and JSON paths."""
    if not terms:
        return "0"
    rendered = []
    for monomial, coeff in terms:
        negative = coeff.startswith("-")
        magnitude = coeff[1:] if negative else coeff
        if not monomial:
            body = magnitude
        elif magnitude == "1":
            body = monomial
        else:
            body = f"{magnitude}*{monomial}"
        if not rendered:
            rendered.append(f"-{body}" if negative else body)
        else:
            rendered.append(f" - {body}" if negative else f" + {body}")
    return "".join(rendered)


class FormalBundle(FrozenRecord):
    """Rank-r bundle over a formal base of dimension n.

    The Segre classes are free generators up to weight n and vanish above.
    """

    __slots__ = ("base_dim", "rank")

    def __init__(self, base_dim: int, rank: int) -> None:
        require_exact((base_dim, rank), "base_dim and rank", (int,))
        if base_dim < 0:
            raise ValueError(f"base_dim must be nonnegative, got {base_dim}")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        self._freeze(base_dim, rank)


class SplitBundle(FrozenRecord):
    """Direct sum of line bundles O(a_1) + ... + O(a_r) over projective space P^m."""

    __slots__ = ("base_dim", "twists")

    def __init__(self, base_dim: int, twists: Sequence[int]) -> None:
        twists = tuple(twists)
        require_exact((base_dim, *twists), "base_dim and twists", (int,))
        if base_dim < 0:
            raise ValueError(f"base_dim must be nonnegative, got {base_dim}")
        if not twists:
            raise ValueError("twists must be nonempty")
        self._freeze(base_dim, twists)

    @property
    def rank(self) -> int:
        return len(self.twists)


BundleModel = FormalBundle | SplitBundle


def ring_of(model: BundleModel) -> GradedRing:
    """The coefficient ring the model's classes live in."""
    require_exact((model,), "model", (FormalBundle, SplitBundle))
    if isinstance(model, FormalBundle):
        n = model.base_dim
        return GradedRing(
            names=tuple(f"s{i}" for i in range(1, n + 1)),
            weights=tuple(range(1, n + 1)),
            top_degree=n,
        )
    return GradedRing(names=("h",), weights=(1,), top_degree=model.base_dim)


def segre_classes(model: BundleModel, top: int) -> list[GradedPoly]:
    """The classes s_0..s_top of the model, as ring elements.

    Only the ring oracle in ``oracles`` (``schur_form_pushforward`` and the
    remark suite) and the tests multiply these; the production push-forward
    reads a monomial table over a formal base and the scalar Schur rows at
    the twists over P^m.

    Sign convention: the total Segre class is the inverse of the total Chern
    class of the dual bundle, so for a split bundle s_k is h^k times the
    degree-k complete homogeneous value of the twists.
    """
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    ring = ring_of(model)
    classes = [ring.one()]
    if isinstance(model, FormalBundle):
        for k in range(1, top + 1):
            classes.append(ring.generator(k - 1) if k <= model.base_dim else ring.zero())
        return classes
    h_values = complete_homogeneous_values(model.twists, top)
    for k in range(1, top + 1):
        classes.append(GradedPoly(ring, {(k,): h_values[k]}))
    return classes


def integrate_over_pm(element: GradedPoly, m: int) -> Scalar:
    """Pair against the fundamental class of P^m: the coefficient of h^m."""
    ring = element.ring
    if len(ring.names) != 1 or ring.weights != (1,):
        raise ValueError("integration is defined only in the single-generator ring of P^m")
    if ring.top_degree != m:
        raise ValueError(f"element lives over P^{ring.top_degree}, not P^{m}")
    return element.monomials.get((m,), 0)

