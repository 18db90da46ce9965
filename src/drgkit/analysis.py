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
that vertex's blocks.  It asks GraphContext.terwilliger_dimensions and
tmodules.decompose once each, before its vertex loop, so the closures the
verdict did not already compute are one stacked spin and an AT4 cover's walks
one stack per local eigenvalue.
The eigen data and the classification route are read from the context's
memoized ``eigen`` and ``route``, which check_pvt reads too: the route is
decided once per report, and tmodules.decompose follows it, taking its
parameters from the context.  The memos live on that context only: nothing
carries over to the next report.

Records share their repeated fragments: one "subconstituent_spectra" list per
distinct tuple of exact spectra (a float spectrum by its object), one
"decomposition" dict per ModuleDecomposition object (an SRG has one per
local spectrum, a Taylor graph one for all vertices, an AT4 graph one per
vertex) and one
"dimension_sequence" list per decomposition and Delta_2 spectrum.  The
Wedderburn and derived-Delta_2 checks still run at every vertex.  Base
vertices must be ints (numpy ints too, bools not): nothing is truncated.

report_to_json writes exactly the bytes of ``json.dumps(report, indent=2)``
plus a newline, rendering each list, tuple or dict object once and reusing
its text wherever the report holds it again.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .context import GraphContext
from .exactla import AlgebraicScalar
from .graph_core import Graph, checked_vertices
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
    """Full analysis report for the given base vertices (default: vertex 0).

    Vertex records share their repeated fragments as one object each (see the
    module docstring): deep-copy a report before editing one record in place."""
    g.require_connected()
    try:
        vertices = [0] if vertices is None else checked_vertices(g.n, vertices)
    except ValueError as e:
        raise AnalysisError(f"base {e}") from None
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
    shared: dict = {}  # each distinct fragment of the records, and the derived Delta_2

    def share(key, build):
        if key not in shared:
            shared[key] = build()
        return shared[key]

    dims = ctx.terwilliger_dimensions(vertices)
    wanted = []  # every vertex but an SRG one with a float spectrum is decomposed
    for x, specs in zip(vertices, zip(*by_class)):
        for i, s in enumerate(specs, 1):
            if not s.exact:
                if not allow_float:
                    raise AnalysisError(
                        f"{FLOAT_REFUSED} at vertex {x}, distance class {i}; rerun "
                        "with float fallback enabled to accept approximate spectra"
                    )
                float_flags.append(f"subconstituent-spectrum-float:vertex{x}:class{i}")
        wanted.append(route != "srg" or all(s.exact for s in specs))
    mds = iter(decompose(ctx, [x for x, w in zip(vertices, wanted) if w]))
    for x, specs, dim_t, w in zip(vertices, zip(*by_class), dims, wanted):
        record = {"vertex": x}
        # a float spectrum is keyed by its object, as Spectrum == ignores its
        # float_pairs (and -0.0 == 0.0); the context memo keeps it alive
        record["subconstituent_spectra"] = share(
            ("spectra",) + tuple(s.key if s.exact else id(s) for s in specs),
            lambda: [_spectrum_json(s.pairs) for s in specs])
        record["dim_T"] = dim_t
        md = next(mds) if w else None
        if md is not None and route == "srg":
            derived = share(("derived", specs[0]),
                            lambda: second_subconstituent_derived(specs[0], route_params))
            if derived != specs[1]:
                raise AnalysisError(
                    f"derived second-subconstituent spectrum {derived} differs "
                    f"from the computed one {specs[1]} at vertex {x}"
                )
            record["dimension_sequence"] = share(
                ("dimension_sequence", id(md), specs[1]),
                lambda: list(dimension_sequence(md, route_params, specs[1])))
        if md is not None:
            wd = wedderburn_dim(md)
            if wd != dim_t:
                raise AnalysisError(
                    f"Wedderburn dimension {wd} != closure dimension {dim_t} "
                    f"at vertex {x}"
                )
            decomposition_flags.update(md.flags)
            # keyed by object (SRG and Taylor vertices share one md per local
            # spectrum, and hashing an md costs about what rendering it does);
            # md is kept in the value, so no later md can take its id
            record["decomposition"] = share(("decomposition", id(md)), lambda: (md, {
                "classes": [_descriptor_json(d) for d in md.descriptors],
                "wedderburn_dim": wd,
            }))[1]
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
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte, with each
    list, tuple or dict rendered once however often the report holds it.

    Dict keys must be str: encode_basestring_ascii raises TypeError on any
    other key, where json.dumps would coerce it.  The report may hold one
    object in many places, but not inside itself.
    """
    texts: dict = {}  # id of a container -> its text at indent 0; the report keeps them alive

    def render(o) -> str:
        if type(o) is str:
            return encode_basestring_ascii(o)
        if type(o) is int:
            return int.__repr__(o)
        if not isinstance(o, (list, tuple, dict)):
            return json.dumps(o)
        text = texts.get(id(o))
        if text is not None:
            return text
        if isinstance(o, dict):
            items = [f"{encode_basestring_ascii(k)}: {render(v)}" for k, v in o.items()]
            open_, close = "{", "}"
        else:
            items = [render(v) for v in o]
            open_, close = "[", "]"
        # the encoder escapes every newline inside a string, so each raw one
        # starts a line, and the child lines move in by one level
        text = (f"{open_}\n  " + ",\n".join(items).replace("\n", "\n  ") + f"\n{close}"
                if items else open_ + close)
        texts[id(o)] = text
        return text

    return render(report) + "\n"
