"""Truncated graded rings of Segre classes, and the two bundle models.

A ``GradedRing`` is a commutative polynomial ring over the rationals whose
generators carry positive weights; every monomial of total weight above
``top_degree`` is identically zero.  Two instances cover everything the
package computes with:

  * the formal model, one generator per Segre class s_1..s_n of the base,
    truncated at the base dimension n;
  * a split bundle over projective space P^m, a single hyperplane generator h
    truncated at m, where the Segre classes are the complete homogeneous
    values of the twists times powers of h.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .records import FrozenRecord
from .schur import complete_homogeneous_values

Scalar = int | Fraction


class GradedRing(FrozenRecord):
    """Ring descriptor shared by all its elements."""

    __slots__ = ("names", "weights", "top_degree")

    def __init__(self, names: tuple[str, ...], weights: tuple[int, ...], top_degree: int) -> None:
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be distinct, got {names}")
        if any(w < 1 for w in weights):
            raise ValueError(f"generator weights must be positive, got {weights}")
        if top_degree < 0:
            raise ValueError(f"top_degree must be nonnegative, got {top_degree}")
        self._freeze(names, weights, top_degree)

    def __eq__(self, other: object) -> bool:
        # every ring operation compares rings, so compare the fields directly
        if self is other:
            return True
        if other.__class__ is not GradedRing:
            return NotImplemented
        return (
            self.names == other.names
            and self.weights == other.weights
            and self.top_degree == other.top_degree
        )

    __hash__ = FrozenRecord.__hash__

    def monomial_weight(self, exponents: tuple[int, ...]) -> int:
        return sum(w * e for w, e in zip(self.weights, exponents))

    def element(self, monomials: Mapping[tuple[int, ...], Scalar]) -> "GradedPoly":
        return GradedPoly(self, monomials)

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {})

    def one(self) -> "GradedPoly":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "GradedPoly":
        return GradedPoly(self, {(0,) * len(self.names): Fraction(value)})

    def generator(self, index: int) -> "GradedPoly":
        """The index-th generator (zero if its weight already exceeds the truncation)."""
        exps = tuple(1 if i == index else 0 for i in range(len(self.names)))
        return GradedPoly(self, {exps: Fraction(1)})


class GradedPoly:
    """Element of a ``GradedRing``: a finite rational combination of monomials.

    Immutable by convention; all operators return fresh elements.  Monomials
    whose weight exceeds the ring's truncation are dropped on construction,
    which is what makes multiplication automatically truncate.
    """

    __slots__ = ("ring", "monomials")

    def __init__(self, ring: GradedRing, monomials: Mapping[tuple[int, ...], Scalar]):
        width = len(ring.names)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in monomials.items():
            exps = tuple(exps)
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for ring with {width} generators")
            value = Fraction(coeff)
            if value == 0 or ring.monomial_weight(exps) > ring.top_degree:
                continue
            clean[exps] = value
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "monomials", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPoly is immutable")

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self.monomials.get(tuple(exponents), Fraction(0))

    def degrees(self) -> list[int]:
        """Sorted list of the distinct monomial weights present."""
        return sorted({self.ring.monomial_weight(e) for e in self.monomials})

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: object) -> "GradedPoly | None":
        if isinstance(other, GradedPoly):
            if other.ring != self.ring:
                raise ValueError("elements of different rings cannot be combined")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other: object) -> "GradedPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self.monomials)
        for exps, coeff in rhs.monomials.items():
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
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
        product: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.monomials.items():
            for e2, c2 in rhs.monomials.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if self.ring.monomial_weight(exps) > self.ring.top_degree:
                    continue
                product[exps] = product.get(exps, Fraction(0)) + c1 * c2
        return GradedPoly(self.ring, product)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GradedPoly):
            return self.ring == other.ring and self.monomials == other.monomials
        if isinstance(other, (int, Fraction)):
            return self.monomials == self.ring.scalar(other).monomials
        return NotImplemented

    __hash__ = None  # mutable-looking container semantics; not a dict key

    # -- rendering --------------------------------------------------------

    def sorted_monomials(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Monomials by weight, then lexicographic exponents: the canonical order."""
        return sorted(
            self.monomials.items(),
            key=lambda item: (self.ring.monomial_weight(item[0]), item[0]),
        )

    def terms(self) -> list[tuple[str, str]]:
        """(monomial text, coefficient text) pairs in canonical order."""
        out = []
        for exps, coeff in self.sorted_monomials():
            pieces = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.names, exps)
                if e
            ]
            out.append((" ".join(pieces), str(coeff)))
        return out

    def __str__(self) -> str:
        return render_terms(self.terms())

    def __repr__(self) -> str:
        return f"GradedPoly({self})"


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
        if base_dim < 0:
            raise ValueError(f"base_dim must be nonnegative, got {base_dim}")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        self._freeze(base_dim, rank)


class SplitBundle(FrozenRecord):
    """Direct sum of line bundles O(a_1) + ... + O(a_r) over projective space P^m."""

    __slots__ = ("base_dim", "twists")

    def __init__(self, base_dim: int, twists: tuple[int, ...]) -> None:
        if base_dim < 0:
            raise ValueError(f"base_dim must be nonnegative, got {base_dim}")
        if len(twists) < 1:
            raise ValueError("twists must be nonempty")
        try:
            ints = tuple(int(a) for a in twists)
        except (OverflowError, ValueError):  # infinite or NaN floats
            ints = None
        if ints != tuple(twists):
            raise ValueError(f"twists must be integers, got {tuple(twists)}")
        self._freeze(base_dim, ints)

    @property
    def rank(self) -> int:
        return len(self.twists)


BundleModel = FormalBundle | SplitBundle


def ring_of(model: BundleModel) -> GradedRing:
    """The coefficient ring the model's classes live in."""
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

    Only the ring oracle ``oracles.schur_form_pushforward`` and the tests
    multiply these; the production push-forward reads a monomial table.

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
        classes.append(ring.element({(k,): h_values[k]}))
    return classes


def integrate_over_pm(element: GradedPoly, m: int) -> Fraction:
    """Pair against the fundamental class of P^m: the coefficient of h^m."""
    ring = element.ring
    if len(ring.names) != 1 or ring.weights != (1,):
        raise ValueError("integration is defined only in the single-generator ring of P^m")
    if ring.top_degree != m:
        raise ValueError(f"element lives over P^{ring.top_degree}, not P^{m}")
    return element.coefficient((m,))

