"""Per-graph analysis reports.

Builds the JSON-serializable report consumed by the CLI: graph-level scheme
data (intersection array, spectrum, Krein/Q-polynomial structure, tightness,
antipodality, pvt verdict) plus per-vertex Terwilliger records (subconstituent
spectra, dim T(x) from the closure, the module decomposition where a
classification theorem applies, and the Wedderburn cross-check).

Reports are deterministic byte-for-byte: vertex records in vertex order,
classes in their canonical order, exact scalars rendered as canonical strings.

One report builds one context.GraphContext and passes it to every layer, the
pvt verdict included, so each distance table, local spectrum, factored
characteristic polynomial and closure dimension is computed once per report.
The report asks GraphContext.subconstituent_spectra once per distance class
for exactly its own vertices, so each class is one stack of the vertices the
verdict did not already certify, and analyzing one base vertex of a large
Taylor or AT4 cover, whose verdict reads no local spectra, certifies only
that vertex's blocks.  It asks GraphContext.terwilliger_dimensions once, before
its vertex loop, so the closures the verdict did not already compute are one
stacked spin.
The eigen data and the classification route are read from the context's
memoized ``eigen`` and ``route``, which check_pvt reads too: the route is
decided once per report, and tmodules.decompose follows it, taking its
parameters from the context.  The memos live on that context only: nothing
carries over to the next report.
"""

from __future__ import annotations

import json
from typing import Optional

from . import __version__
from .context import GraphContext
from .exactla import AlgebraicScalar
from .graph_core import Graph
from .pvt import check_pvt
from .scheme import antipodality, krein, tightness
from .spectra import FLOAT_REFUSED, format_eigenvalue, second_subconstituent_derived
from .tmodules import decompose, dimension_sequence, wedderburn_dim

__all__ = ["AnalysisError", "analyze_graph", "report_to_json"]

SCHEMA_VERSION = 1


class AnalysisError(RuntimeError):
    pass


def _spectrum_json(pairs) -> list:
    return [[format_eigenvalue(v), m] for v, m in pairs]


def _scalar(s: Optional[AlgebraicScalar]) -> Optional[str]:
    return None if s is None else str(s)


def _descriptor_json(d) -> dict:
    return {
        "endpoint": d.endpoint,
        "dual_endpoint": d.dual_endpoint,
        "diameter": d.diameter,
        "dim": d.dim,
        "multiplicity": d.multiplicity,
        "local_eigenvalue": _scalar(d.local_eigenvalue),
        "a_seq": [str(a) for a in d.a_seq],
        "x_seq": [str(v) for v in d.x_seq],
    }


def analyze_graph(g: Graph, vertices: Optional[list[int]] = None,
                  allow_float: bool = False) -> dict:
    """Full analysis report for the given base vertices (default: vertex 0)."""
    g.require_connected()
    if vertices is None:
        vertices = [0]
    vertices = [int(v) for v in vertices]
    for v in vertices:
        if not 0 <= v < g.n:
            raise AnalysisError(f"base vertex {v} out of range")
    ctx = GraphContext.of(g)
    params = ctx.params
    ed = ctx.eigen
    float_flags = []
    if not ed.exact:
        if not allow_float:
            raise AnalysisError(
                "eigenvalues lie outside quadratic fields; rerun with float "
                "fallback enabled to accept approximate spectra"
            )
        float_flags.append("graph-spectrum-float")

    graph_section = {
        "label": g.label,
        "n": g.n,
        "diameter": params.D,
        "intersection_array": params.intersection_array,
        "spectrum": _spectrum_json(zip(ed.theta, ed.mult)),
        "exact_spectrum": ed.exact,
    }
    if ed.exact:
        kd = krein(ed, params)
        graph_section["qpoly_orderings"] = [list(o) for o in kd.qpoly_orderings]
    antipode = antipodality(ctx.dd)
    graph_section["antipodal_double_cover"] = antipode is not None
    if antipode is not None:
        graph_section["antipode"] = [antipode[x] for x in range(g.n)]
    if params.D >= 3 and ed.exact:
        t = tightness(params, ed)
        graph_section["tightness"] = {
            "bipartite": t.bipartite,
            "is_tight": t.is_tight,
            "lhs": _scalar(t.lhs),
            "rhs": _scalar(t.rhs),
            "b_plus": _scalar(t.b_plus),
            "b_minus": _scalar(t.b_minus),
        }
    verdict = check_pvt(ctx)
    graph_section["pvt"] = {
        "verdict": verdict.verdict,
        "method": verdict.method,
        "witness": verdict.witness,
        "detail": verdict.detail,
    }
    route, route_params = ctx.route or (None, None)
    graph_section["classification"] = None
    if route is not None:
        parameters = list(route_params.tuple() if route == "srg" else route_params)
        if route == "at4":
            parameters.append(2)  # AT4(p, q, 2)
        graph_section["classification"] = {"type": route, "parameters": parameters}

    by_class = [ctx.subconstituent_spectra(i, vertices) for i in range(1, params.D + 1)]
    vertex_records = []
    decomposition_flags: set[str] = set()
    derived_by_local: dict = {}  # the SRG derived Delta_2 spectrum, by local spectrum
    dims = ctx.terwilliger_dimensions(vertices)
    for x, specs, dim_t in zip(vertices, zip(*by_class), dims):
        record = {"vertex": x}
        exact_ok = True
        for i, s in enumerate(specs, 1):
            if not s.exact:
                if not allow_float:
                    raise AnalysisError(
                        f"{FLOAT_REFUSED} at vertex {x}, distance class {i}; rerun "
                        "with float fallback enabled to accept approximate spectra"
                    )
                exact_ok = False
                float_flags.append(f"subconstituent-spectrum-float:vertex{x}:class{i}")
        record["subconstituent_spectra"] = [_spectrum_json(s.pairs) for s in specs]
        record["dim_T"] = dim_t
        md = decompose(ctx, x) if exact_ok or route != "srg" else None
        if md is not None and route == "srg":
            if specs[0] not in derived_by_local:
                derived_by_local[specs[0]] = second_subconstituent_derived(specs[0], route_params)
            derived = derived_by_local[specs[0]]
            if derived != specs[1]:
                raise AnalysisError(
                    f"derived second-subconstituent spectrum {derived} differs "
                    f"from the computed one {specs[1]} at vertex {x}"
                )
            ds = dimension_sequence(md, route_params, specs[1])
            record["dimension_sequence"] = list(ds.tuple())
        if md is not None:
            wd = wedderburn_dim(md)
            if wd != dim_t:
                raise AnalysisError(
                    f"Wedderburn dimension {wd} != closure dimension {dim_t} "
                    f"at vertex {x}"
                )
            decomposition_flags.update(md.flags)
            record["decomposition"] = {
                "classes": [_descriptor_json(d) for d in md.descriptors],
                "wedderburn_dim": wd,
            }
        else:
            record["decomposition"] = None
        vertex_records.append(record)

    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "drgkit", "version": __version__},
        "graph": graph_section,
        "vertices": vertex_records,
        "flags": sorted(set(float_flags) | decomposition_flags),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
