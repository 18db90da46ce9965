"""Spectra of matrices and subconstituents; closed-form SRG spectra; the
second-subconstituent derivation.

A Spectrum is identified by one exact key, and every comparison of two
spectra is == on that key:

* an exact spectrum's key is its factor key ((r, m), ..., (s, p, m), ...):
  integer roots r and monic quadratics x^2 - s*x + p with multiplicities,
  sorted.  An integer matrix gets it from the one certificate,
  exactla.certified_stack (floats propose, integer checks accept): the
  intersection matrix of scheme.eigen_data through spectrum_of_int_matrix
  and certified_factors, its one-matrix case, and the subconstituent blocks
  of one distance class as one stack (subconstituent_spectra).  A matrix
  the certificate declines takes one fallback, _spectrum_from_key:
  charpoly_int and eigenvalues_from_charpoly, both exact integer code
  (Faddeev-LeVerrier over Z, then trial division).  Spectrum.from_pairs
  builds the key from exact eigenvalues.  The routes give the same key for
  the same multiset, and exactla.factor_roots decodes it into eigenvalues;
* a spectrum with an irreducible factor of degree >= 3 is keyed by the
  charpoly_int coefficient tuple.  Its eigenvalues are plain floats from
  exactla._float_eigenvalues (exact=False), shown in reports with a flag,
  but never compared: two such spectra are equal exactly when their
  characteristic polynomials are, whichever context or float run computed
  them.

An exact key and a float key never compare equal, and they need not: a
spectrum with a factor of degree >= 3 is not one without.

Multiplicity bookkeeping for "local" eigenvalues follows the convention that
the trivial eigenvalue (the valency of a regular subconstituent) loses one
copy: eigenspaces of other eigenvalues are automatically orthogonal to the
all-ones vector, and within the valency eigenspace the orthogonal complement
of all-ones has dimension mult - 1.  For connected subconstituents this just
removes the Perron eigenvalue; for disconnected ones the extra copies count
as local.

The functions here keep no state between calls.  The per-command memo of
subconstituent spectra, by (x, i), lives on context.GraphContext, the one
production caller of the two functions, which passes in its distance data
and the vertices it still lacks; a memo kept at module level would let
one command answer from another's results.  Within one call,
subconstituent_spectra certifies the requested classes as one stack and
builds one Spectrum per distinct key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .exactla import (
    AlgebraicScalar,
    _float_eigenvalues,
    certified_factors,
    certified_stack,
    charpoly_int,
    eigenvalues_from_charpoly,
    factor_roots,
    square_free_split,
)
from .graph_core import Graph, DistanceData, checked_vertices, distances

__all__ = [
    "Spectrum",
    "SrgParams",
    "InfeasibleSrgError",
    "srg_spectrum",
    "spectrum_of_int_matrix",
    "subconstituent_spectrum",
    "subconstituent_spectra",
    "srg_local_split",
    "second_subconstituent_derived",
    "effective_multiplicities",
    "format_eigenvalue",
]

_FLOAT_GROUP_TOL = 1e-8
FLOAT_REFUSED = "spectrum requires an irreducible factor of degree >= 3"


class InfeasibleSrgError(ValueError):
    pass


def format_eigenvalue(v) -> str:
    """An exact eigenvalue as str(); a float one with 17 significant digits."""
    return format(v, ".17g") if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class Spectrum:
    """A multiset of eigenvalues, equal to another exactly when their keys are.

    ``key`` is the factor key of an exact spectrum or the charpoly_int
    coefficient tuple of a float one (see the module docstring); ==, hashing
    and ``exact`` read nothing else.  ``float_pairs`` holds the eigvalsh
    eigenvalues of a float spectrum, for display only.
    """

    key: tuple
    float_pairs: tuple = field(default=(), compare=False, repr=False)

    @classmethod
    def from_pairs(cls, pairs) -> "Spectrum":
        """The exact spectrum of (eigenvalue, multiplicity) pairs, repeated
        values merged.  An irrational value and its conjugate must have one
        multiplicity, as in the spectrum of any rational matrix."""
        counts: dict[AlgebraicScalar, int] = {}
        for v, m in pairs:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                v = v if isinstance(v, AlgebraicScalar) else AlgebraicScalar(v)
                counts[v] = counts.get(v, 0) + int(m)
        linear, quadratic = [], []
        for v, m in counts.items():
            if v.is_rational:
                linear.append((v.a, m))
            elif counts.get(AlgebraicScalar(v.a, -v.b, v.d)) != m:
                raise ValueError(f"{v} and its conjugate have different multiplicities")
            elif v.b > 0:  # x^2 - 2a*x + (a^2 - b^2 d) for a + b*sqrt(d) and its conjugate
                quadratic.append((2 * v.a, v.a * v.a - v.b * v.b * v.d, m))
        return cls(tuple(sorted(linear)) + tuple(sorted(quadratic)))

    @property
    def exact(self) -> bool:
        return not self.key or isinstance(self.key[0], tuple)

    @cached_property
    def pairs(self) -> tuple:
        """((eigenvalue, multiplicity), ...) with strictly decreasing values:
        AlgebraicScalars decoded from the key, or plain floats when not exact."""
        return tuple(factor_roots(self.key)) if self.exact else self.float_pairs

    @property
    def size(self) -> int:
        """The number of eigenvalues, read off the key: the degree of the
        characteristic polynomial."""
        return sum((len(f) - 1) * f[-1] for f in self.key) if self.exact else len(self.key) - 1

    def multiplicity(self, value) -> int:
        v = value if isinstance(value, AlgebraicScalar) else AlgebraicScalar(value)
        for w, m in self.pairs:
            if w == v:
                return m
        return 0

    def __str__(self):
        values = [(format_eigenvalue(v), m) for v, m in self.pairs]
        return "{" + ", ".join(f"{{{v}}}^{m}" if " " in v else f"{v}^{m}"
                               for v, m in values) + "}"


def spectrum_of_int_matrix(arr) -> Spectrum:
    """Exact spectrum of one integer matrix, symmetric or not, float fallback
    if needed: the route of the intersection matrix of scheme.eigen_data.

    The key comes from exactla.certified_factors.  A matrix it declines goes,
    like every declined block of subconstituent_spectra, through
    _spectrum_from_key: charpoly_int and eigenvalues_from_charpoly, keeping
    the coefficient tuple as its key when that finds a factor of degree >= 3
    or a non-real root.
    """
    arr = np.asarray(arr)
    if arr.shape[0] == 0:
        return Spectrum(())
    return _spectrum_from_key(arr, certified_factors(arr), {})


def _spectrum_from_key(arr: np.ndarray, key: Optional[tuple], built: dict) -> Spectrum:
    """The Spectrum of arr given its certified key, or, when the certificate
    declined it (key None), by charpoly_int and eigenvalues_from_charpoly.
    ``built`` maps the certified keys and coefficient tuples of one call to
    their finished spectra, so within that call each distinct spectrum is
    built, and each distinct polynomial factored, once."""
    if key is not None:
        return built.setdefault(key, Spectrum(key))
    coeffs = tuple(charpoly_int(arr))
    if coeffs not in built:
        factors = eigenvalues_from_charpoly(coeffs)
        built[coeffs] = _float_spectrum(arr, coeffs) if factors is None else Spectrum(factors)
    return built[coeffs]


def _float_spectrum(arr: np.ndarray, coeffs: tuple) -> Spectrum:
    """The float spectrum keyed by coeffs: exactla._float_eigenvalues as plain
    floats, grouped within 1e-8."""
    grouped: list[tuple[float, int]] = []
    for v in sorted(_float_eigenvalues(arr)[0].tolist(), reverse=True):
        if grouped and abs(grouped[-1][0] - v) < _FLOAT_GROUP_TOL:
            grouped[-1] = (grouped[-1][0], grouped[-1][1] + 1)
        else:
            grouped.append((v, 1))
    return Spectrum(coeffs, float_pairs=tuple(grouped))


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular graph parameters with the derived eigenvalue data.

    sigma, tau, m_sigma and m_tau are computed once, on construction, from
    the square-free split f^2 d of the discriminant and integer arithmetic;
    parameters whose discriminant is not positive or whose multiplicities are
    not non-negative integers are rejected.
    """

    n: int
    k: int
    a: int
    c: int
    sigma: AlgebraicScalar = field(init=False, repr=False, compare=False)
    tau: AlgebraicScalar = field(init=False, repr=False, compare=False)
    m_sigma: int = field(init=False, repr=False, compare=False)
    m_tau: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k, a, c = self.tuple()
        disc = (a - c) ** 2 + 4 * (k - c)
        if disc <= 0:
            raise InfeasibleSrgError(f"non-positive discriminant for {self.tuple()}")
        # sigma, tau = (a - c +- f sqrt(d))/2; m_sigma, m_tau = ((n-1) theta + k) /
        # (theta - the other) = (n - 1)/2 -+ e sqrt(d) / (2 f d), e = (n-1)(a-c) + 2k
        f, d = square_free_split(disc)
        e = (n - 1) * (a - c) + 2 * k
        values = {"sigma": AlgebraicScalar(Fraction(a - c, 2), Fraction(f, 2), d),
                  "tau": AlgebraicScalar(Fraction(a - c, 2), Fraction(-f, 2), d)}
        for name, sign in (("m_sigma", -1), ("m_tau", 1)):
            m = AlgebraicScalar(Fraction(n - 1, 2), Fraction(sign * e, 2 * f * d), d)
            if not m.is_rational or m.a.denominator != 1 or m.a < 0:
                raise InfeasibleSrgError(
                    f"infeasible SRG parameters {self.tuple()}: multiplicity {m}"
                )
            values[name] = int(m.a)
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.a, self.c)


def srg_spectrum(p: SrgParams) -> Spectrum:
    """{k^1, sigma^m_sigma, tau^m_tau}."""
    return Spectrum.from_pairs(
        [(AlgebraicScalar(p.k), 1), (p.sigma, p.m_sigma), (p.tau, p.m_tau)]
    )


def subconstituent_spectrum(g: Graph, x: int, i: int,
                            dd: Optional[DistanceData] = None) -> Spectrum:
    """Spectrum of the subgraph induced on the distance-i class of x: exact,
    or flagged float when the local polynomial needs a field of degree >= 3.
    The one-vertex case of subconstituent_spectra, for library callers and
    for a context request that lacks one vertex.
    """
    return subconstituent_spectra(g, i, dd, [x])[0]


def subconstituent_spectra(g: Graph, i: int, dd: Optional[DistanceData] = None,
                           vertices=None) -> list[Spectrum]:
    """The subconstituent spectra of the distance-i classes of the given
    vertices (default: every vertex), in their order.  The vertices must
    pass graph_core.checked_vertices.

    The classes have one size k_i, as in any distance-regular graph, so their
    induced blocks are one (m, k_i, k_i) stack, cut out by one fancy index and
    certified by one exactla.certified_stack; the blocks it declines take the
    charpoly_int route of _spectrum_from_key.  Blocks with one key share one
    Spectrum, so its eigenvalues are decoded once per call.
    """
    dd = dd or distances(g)
    if not 1 <= i <= dd.D:
        raise ValueError(f"distance class {i} out of range 1..{dd.D}")
    vertices = np.arange(g.n) if vertices is None else np.array(
        checked_vertices(g.n, vertices), dtype=np.intp)
    if not len(vertices):
        return []
    rows, cols = np.nonzero(dd.dist[vertices] == i)
    sizes = np.bincount(rows, minlength=len(vertices))
    if (sizes == 0).any():
        raise ValueError(f"empty distance class {i} from vertex {vertices[np.argmin(sizes)]}")
    if (sizes != sizes[0]).any():
        raise ValueError(f"distance-{i} classes of different sizes: not distance-regular")
    cls = cols.reshape(len(vertices), -1)
    blocks = g.adjacency[cls[:, :, None], cls[:, None, :]].astype(np.int64)
    built: dict = {}
    return [_spectrum_from_key(b, key, built) for b, key in zip(blocks, certified_stack(blocks))]


def effective_multiplicities(s: Spectrum, valency) -> dict[AlgebraicScalar, int]:
    """Multiplicities of eigenvectors orthogonal to all-ones, for a regular
    subconstituent with the given valency: the trivial eigenvalue loses one copy."""
    val = valency if isinstance(valency, AlgebraicScalar) else AlgebraicScalar(valency)
    out = {}
    for v, m in s.pairs:
        eff = m - 1 if v == val else m
        if eff:
            out[v] = eff
    if s.multiplicity(val) == 0:
        raise ValueError(f"valency {val} missing from spectrum {s}")
    return out


def srg_local_split(local: Spectrum, p: SrgParams) -> tuple[dict, int, int, int, int]:
    """(eff, f_sigma, f_tau, g_sigma, g_tau) for a strongly regular graph.

    f_sigma and f_tau are the multiplicities of sigma and tau in the local
    graph on the complement of all-ones, and eff maps every other local
    eigenvalue to its multiplicity there.  g_sigma = -k + m_sigma + f_tau and
    g_tau = -k + m_tau + f_sigma are the multiplicities of sigma and tau in
    the second subconstituent, beside its trivial eigenvalue k - c.
    """
    if not local.exact:
        raise ValueError("derived second subconstituent needs an exact local spectrum")
    if local.size != p.k:
        raise ValueError(f"local spectrum has {local.size} eigenvalues, expected k={p.k}")
    eff = effective_multiplicities(local, p.a)
    f_sigma = eff.pop(p.sigma, 0)
    f_tau = eff.pop(p.tau, 0)
    g_sigma = -p.k + p.m_sigma + f_tau
    g_tau = -p.k + p.m_tau + f_sigma
    if g_sigma < 0 or g_tau < 0:
        raise InfeasibleSrgError(
            f"inconsistent local spectrum: derived multiplicities "
            f"g_sigma={g_sigma}, g_tau={g_tau}"
        )
    return eff, f_sigma, f_tau, g_sigma, g_tau


def second_subconstituent_derived(local: Spectrum, p: SrgParams) -> Spectrum:
    """Delta_2 spectrum derived from the local spectrum and (n, k, a, c).

    Non-(sigma, tau) local eigenvalues map via lambda -> a - c - lambda with
    equal multiplicities; sigma and tau get g_sigma and g_tau from
    srg_local_split; the trivial eigenvalue of Delta_2 is k - c.
    """
    eff, _, _, g_sigma, g_tau = srg_local_split(local, p)
    shift = AlgebraicScalar(p.a - p.c)
    pairs = [(AlgebraicScalar(p.k - p.c), 1), (p.sigma, g_sigma), (p.tau, g_tau)]
    pairs += [(shift - v, m) for v, m in eff.items()]
    return Spectrum.from_pairs(pairs)

