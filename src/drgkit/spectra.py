"""Spectra of matrices and subconstituents; closed-form SRG spectra; the
second-subconstituent derivation.

Exact spectra of integer matrices come from exactla's one certificate, and
a float never decides an answer:

* exactla.certified_factors clusters the float eigenvalues of the matrix
  into integer roots and monic quadratics x^2 - s*x + p, then accepts them
  only after two integer checks (the product of the factors annihilates the
  matrix; the power traces fix every multiplicity).  The factor key
  ((r, m), ..., (s, p, m), ...) is the spectrum, decoded by
  exactla.factor_roots.
* A matrix the certificate declines goes through charpoly_int and
  eigenvalues_from_charpoly (sympy), whose coefficient tuple is the key.
  When an irreducible factor of degree >= 3 shows up the spectrum is one of
  plain float eigenvalues (exact=False), and the flag travels with it into
  reports.  It is memoized under its exact coefficient key like any other,
  so two blocks compare equal exactly when their characteristic polynomials
  do, never by two separate float runs.

Multiplicity bookkeeping for "local" eigenvalues follows the convention that
the trivial eigenvalue (the valency of a regular subconstituent) loses one
copy: eigenspaces of other eigenvalues are automatically orthogonal to the
all-ones vector, and within the valency eigenspace the orthogonal complement
of all-ones has dimension mult - 1.  For connected subconstituents this just
removes the Perron eigenvalue; for disconnected ones the extra copies count
as local.

Nothing here is memoized.  The per-command memos of subconstituent spectra,
by (x, i) and by factor key, live on context.GraphContext, which passes its
distance data and its key memo (``memo``) in here; a memo kept at module
level would let one command answer from another's results.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactla import (
    AlgebraicScalar,
    certified_factors,
    charpoly_int,
    eigenvalues_from_charpoly,
    factor_roots,
    sqrt_of_fraction,
)
from .graph_core import Graph, DistanceData, distances
from .scheme import DrgParameters

__all__ = [
    "Spectrum",
    "SrgParams",
    "InfeasibleSrgError",
    "srg_spectrum",
    "spectrum_of_int_matrix",
    "subconstituent_spectrum",
    "srg_local_split",
    "second_subconstituent_derived",
    "cospectral",
    "effective_multiplicities",
    "format_eigenvalue",
]

_FLOAT_GROUP_TOL = 1e-8
FLOAT_REFUSED = "spectrum requires an irreducible factor of degree >= 3"


class InfeasibleSrgError(ValueError):
    pass


def _sort_pairs(pairs):
    return tuple(sorted(pairs, key=functools.cmp_to_key(lambda p, q: p[0].compare(q[0])),
                        reverse=True))


def format_eigenvalue(v) -> str:
    """An exact eigenvalue as str(); a float one with 17 significant digits."""
    return format(v, ".17g") if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class Spectrum:
    """Multiset of (eigenvalue, multiplicity), strictly decreasing values."""

    pairs: tuple  # ((AlgebraicScalar, int), ...); plain floats when not exact
    exact: bool = True

    @classmethod
    def from_pairs(cls, pairs, exact: bool = True) -> "Spectrum":
        norm = []
        for v, m in pairs:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                norm.append((v if isinstance(v, AlgebraicScalar) else AlgebraicScalar(v),
                             int(m)))
        merged: list[tuple[AlgebraicScalar, int]] = []
        for v, m in _sort_pairs(norm):
            if merged and merged[-1][0] == v:
                merged[-1] = (v, merged[-1][1] + m)
            else:
                merged.append((v, m))
        return cls(pairs=tuple(merged), exact=exact)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.pairs)

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


def _spectrum_from_key(key: tuple) -> Optional[Spectrum]:
    """The exact Spectrum behind a factor key, or None when it needs floats.

    A certified key ((r, m), ..., (s, p, m), ...) from
    exactla.certified_factors is decoded by factor_roots; a fallback key is
    the coefficient tuple of charpoly_int, factored by
    eigenvalues_from_charpoly.  Both give distinct values sorted strictly
    descending, so the pairs need no second sort in Spectrum.from_pairs.
    """
    pairs = factor_roots(key) if isinstance(key[0], tuple) else eigenvalues_from_charpoly(key)
    return None if pairs is None else Spectrum(pairs=tuple(pairs))


def spectrum_of_int_matrix(arr, allow_float: bool = True,
                           memo: Optional[dict] = None) -> Spectrum:
    """Exact spectrum of a symmetric integer matrix, float fallback if needed.

    The factor key comes from exactla.certified_factors, or from charpoly_int
    when certification fails.  ``memo`` maps factor keys to finished spectra,
    float ones included; GraphContext passes its own, so each distinct
    spectrum is built once per command and matrices with one characteristic
    polynomial share one Spectrum.
    """
    arr = np.asarray(arr)
    n = arr.shape[0]
    if n == 0:
        return Spectrum.from_pairs([])
    key = certified_factors(arr)
    if key is None:
        key = tuple(charpoly_int(arr))
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = _spectrum_from_key(key) or _float_spectrum(arr)
    if not (memo[key].exact or allow_float):
        raise ValueError(FLOAT_REFUSED)
    return memo[key]


def _float_spectrum(arr: np.ndarray) -> Spectrum:
    """np.linalg.eigvalsh eigenvalues as plain floats, grouped within 1e-8."""
    grouped: list[tuple[float, int]] = []
    for v in sorted(np.linalg.eigvalsh(arr.astype(float)).tolist(), reverse=True):
        if grouped and abs(grouped[-1][0] - v) < _FLOAT_GROUP_TOL:
            grouped[-1] = (grouped[-1][0], grouped[-1][1] + 1)
        else:
            grouped.append((v, 1))
    return Spectrum(pairs=tuple(grouped), exact=False)


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular graph parameters with the derived eigenvalue data.

    sigma, tau, m_sigma and m_tau are computed once, on
    construction, which also rejects parameters whose discriminant is not
    positive or whose multiplicities are not non-negative integers.
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
        disc = (self.a - self.c) ** 2 + 4 * (self.k - self.c)
        if disc <= 0:
            raise InfeasibleSrgError(f"non-positive discriminant for {self.tuple()}")
        root = sqrt_of_fraction(disc)
        half = AlgebraicScalar(Fraction(1, 2))
        sigma = (AlgebraicScalar(self.a - self.c) + root) * half
        tau = (AlgebraicScalar(self.a - self.c) - root) * half
        ms = (AlgebraicScalar(self.n - 1) * tau + self.k) / (tau - sigma)
        mt = (AlgebraicScalar(self.n - 1) * sigma + self.k) / (sigma - tau)
        for m in (ms, mt):
            if not m.is_integer or m.as_int() < 0:
                raise InfeasibleSrgError(
                    f"infeasible SRG parameters {self.tuple()}: multiplicity {m}"
                )
        for name, value in (("sigma", sigma), ("tau", tau),
                            ("m_sigma", ms.as_int()), ("m_tau", mt.as_int())):
            object.__setattr__(self, name, value)

    def tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.a, self.c)

    @classmethod
    def from_drg(cls, params: DrgParameters) -> "SrgParams":
        """Parameters of a strongly regular graph from its distance-regular ones."""
        if params.D != 2:
            raise InfeasibleSrgError(f"diameter {params.D}, not a strongly regular graph")
        return cls(n=params.n, k=params.k, a=params.a[1], c=params.c[1])


def srg_spectrum(p: SrgParams) -> Spectrum:
    """{k^1, sigma^m_sigma, tau^m_tau}."""
    return Spectrum.from_pairs(
        [(AlgebraicScalar(p.k), 1), (p.sigma, p.m_sigma), (p.tau, p.m_tau)]
    )


def subconstituent_spectrum(g: Graph, x: int, i: int,
                            dd: Optional[DistanceData] = None,
                            memo: Optional[dict] = None) -> Spectrum:
    """Spectrum of the subgraph induced on the distance-i class of x: exact,
    or flagged float when the local polynomial needs a field of degree >= 3
    (GraphContext.subconstituent_spectrum refuses those on request).

    ``memo`` is handed to spectrum_of_int_matrix.
    """
    dd = dd or distances(g)
    if not 1 <= i <= dd.D:
        raise ValueError(f"distance class {i} out of range 1..{dd.D}")
    cls = dd.classes_from(x, i)
    if len(cls) == 0:
        raise ValueError(f"empty distance class {i} from vertex {x}")
    block = g.adjacency[np.ix_(cls, cls)].astype(np.int64)
    return spectrum_of_int_matrix(block, memo=memo)


def effective_multiplicities(s: Spectrum, valency) -> dict[AlgebraicScalar, int]:
    """Multiplicities of eigenvectors orthogonal to all-ones, for a regular
    subconstituent with the given valency: the trivial eigenvalue loses one copy."""
    val = valency if isinstance(valency, AlgebraicScalar) else AlgebraicScalar(valency)
    out = {}
    for v, m in s.pairs:
        eff = m - 1 if v == val else m
        if eff < 0:
            raise ValueError(f"valency {val} missing from spectrum {s}")
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
    out = Spectrum.from_pairs(pairs)
    if out.size != p.n - p.k - 1:
        raise InfeasibleSrgError(
            f"derived spectrum size {out.size} != n-k-1 = {p.n - p.k - 1}"
        )
    return out


def cospectral(s1: Spectrum, s2: Spectrum) -> bool:
    """Exact multiset equality; 1e-8 value matching when floats are involved."""
    if s1.exact and s2.exact:
        return s1.pairs == s2.pairs
    if s1.exact != s2.exact:
        warnings.warn("comparing exact and float spectra at float tolerance",
                      stacklevel=2)
    p1, p2 = s1.pairs, s2.pairs
    if len(p1) != len(p2):
        return False
    for (v1, m1), (v2, m2) in zip(p1, p2):
        if m1 != m2 or abs(float(v1) - float(v2)) > _FLOAT_GROUP_TOL:
            return False
    return True
