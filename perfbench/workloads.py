"""The benchmark's workloads: graph inputs, CLI operations and expected answers.

A workload is a list of graph specs (built and saved during set-up) and a list
of operations.  Each operation is one ``drgkit`` command line whose graph
arguments are names of those specs, plus the answer its output must carry.
The expected answers are the paper's published values (dim T(x) per vertex,
pvt verdicts, the T-isomorphism verdicts); see README.md for the exceptions.

This module imports nothing from drgkit at module level, so the set-up probe
can time ``import drgkit`` itself.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# name -> (family, params); "cycle" is built here because drgkit has no cycle family
GRAPHS = {
    "shrikhande": ("shrikhande", ()),
    "rook4": ("rook_grid", (4,)),
    "j82": ("johnson", (8, 2)),
    "chang1": ("chang", (1,)),
    "chang2": ("chang", (2,)),
    "chang3": ("chang", (3,)),
    "gq22": ("triangular_complement", (6,)),
    "icosahedron": ("icosahedron", ()),
    "j63": ("johnson", (6, 3)),
    "j84": ("johnson", (8, 4)),
    "halved8": ("halved_cube", (8,)),
    "h33": ("hamming", (3, 3)),
    "h42": ("hamming", (4, 2)),
    "j73": ("johnson", (7, 3)),
    "c7": ("cycle", (7,)),
}

SRG_GRAPHS = ["shrikhande", "rook4", "j82", "chang1", "chang2", "chang3", "gq22"]
ALL_VERDICT_GRAPHS = SRG_GRAPHS + ["icosahedron", "j63", "j84", "halved8"]

# dim T(x) as a multiset over the vertices; the Chang-3 row is the erratum value
DIMS = {
    "shrikhande": {20: 16},
    "rook4": {15: 16},
    "j82": {16: 28},
    "chang1": {20: 4, 27: 24},
    "chang2": {23: 4, 35: 24},
    "chang3": {27: 18, 23: 10},
    "gq22": {16: 15},
    "icosahedron": {24: 12},
    "j63": {24: 20},
    "j84": {46: 70},
    "halved8": {45: 128},
    "h33": {35: 27},
    "h42": {35: 16},
    "j73": {35: 35},
    "c7": {25: 7},
}

PVT = {
    "shrikhande": ("pvt", "srg_theorem"),
    "rook4": ("pvt", "srg_theorem"),
    "j82": ("pvt", "srg_theorem"),
    "chang1": ("not_pvt", "srg_theorem"),
    "chang2": ("not_pvt", "srg_theorem"),
    "chang3": ("not_pvt", "srg_theorem"),
    "gq22": ("pvt", "srg_theorem"),
    "icosahedron": ("pvt", "taylor_theorem"),
    "j63": ("pvt", "taylor_theorem"),
    "j84": ("pvt", "at4_theorem"),
    "halved8": ("pvt", "at4_theorem"),
    "h33": ("necessary_conditions_pass", "generic_necessary"),
    "h42": ("necessary_conditions_pass", "generic_necessary"),
    "j73": ("necessary_conditions_pass", "generic_necessary"),
    "c7": ("necessary_conditions_pass", "generic_necessary"),
}

TISO_PAIRS = [("shrikhande", "rook4"), ("j82", "chang1"), ("chang2", "chang3")]


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``argv`` names graphs as ``@name``; ``expect`` holds
    the facts the output must show (keys: dims, vertex, pvt, flag, tiso)."""

    argv: tuple[str, ...]
    expect: dict

    def resolve(self, graph_dir: Path) -> list[str]:
        return [str(graph_dir / f"{a[1:]}.json") if a.startswith("@") else a
                for a in self.argv]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple[str, ...]
    ops: tuple[Op, ...]


def _all_vertices(g: str) -> Op:
    return Op(("analyze", f"@{g}", "--all-vertices"),
              {"dims": DIMS[g], "pvt": PVT[g]})


def _expect_one(g: str, x: int) -> dict:
    (dim,) = DIMS[g]
    return {"dims": {dim: 1}, "vertex": x, "pvt": PVT[g]}


def _one_vertex(g: str, rng: random.Random) -> Op:
    x = rng.randrange(sum(DIMS[g].values()))
    return Op(("analyze", f"@{g}", "--base-vertex", str(x)), _expect_one(g, x))


def _pvt(g: str) -> Op:
    return Op(("pvt", f"@{g}"), {"pvt": PVT[g]})


def _tiso(g1: str, g2: str) -> Op:
    return Op(("tiso", f"@{g1}", f"@{g2}"), {"tiso": False})


def make_workload(name: str, seed: int) -> Workload:
    """The named workload; the seed only picks the sampled base vertices."""
    rng = random.Random(seed)
    if name == "analyze":
        ops = [_all_vertices(g) for g in SRG_GRAPHS]
        ops += [_all_vertices("icosahedron"), _all_vertices("j63"),
                _one_vertex("j84", rng), _one_vertex("halved8", rng)]
        ops += [_one_vertex(g, rng) for g in ("h33", "h42", "j73")]
        ops.append(Op(("analyze", "@c7", "--float-fallback"),
                      {**_expect_one("c7", 0), "flag": "graph-spectrum-float"}))
    elif name == "verdicts":
        ops = [_pvt(g) for g in ALL_VERDICT_GRAPHS] + [_tiso(a, b) for a, b in TISO_PAIRS]
    else:
        raise KeyError(name)
    graphs = tuple(dict.fromkeys(a[1:] for op in ops for a in op.argv if a.startswith("@")))
    return Workload(name, graphs, tuple(ops))


WORKLOADS = ("analyze", "verdicts")


def build_graphs(names, out_dir: Path) -> None:
    """Construct and save the named graphs (imports drgkit on first use)."""
    from drgkit.families import FamilySpec, construct
    from drgkit.graph_core import save_graph

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        family, params = GRAPHS[name]
        path = out_dir / f"{name}.json"
        if family == "cycle":
            (n,) = params
            edges = sorted(sorted((v, (v + 1) % n)) for v in range(n))
            path.write_text(json.dumps({"n": n, "edges": edges, "label": f"C{n}"}) + "\n")
        else:
            save_graph(construct(FamilySpec(family, params)), path)


_VERDICT_RE = re.compile(r"^verdict: (\S+) \(method: (\S+)\)$", re.M)


def check_output(op: Op, rc: int, out: str) -> str | None:
    """None when the output carries every expected fact, else what is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    exp = op.expect
    if op.argv[0] == "analyze":
        try:
            report = json.loads(out)
        except json.JSONDecodeError as e:
            return f"report is not JSON: {e}"
        records = report["vertices"]
        dims = Counter(r["dim_T"] for r in records)
        if dims != Counter(exp["dims"]):
            return f"dim T multiset {dict(dims)} != {exp['dims']}"
        if "vertex" in exp and [r["vertex"] for r in records] != [exp["vertex"]]:
            return f"base vertices {[r['vertex'] for r in records]} != [{exp['vertex']}]"
        pvt = report["graph"]["pvt"]
        if (pvt["verdict"], pvt["method"]) != tuple(exp["pvt"]):
            return f"pvt {pvt['verdict']}/{pvt['method']} != {exp['pvt']}"
        if "flag" in exp and exp["flag"] not in report["flags"]:
            return f"flag {exp['flag']!r} missing from {report['flags']}"
    elif op.argv[0] == "pvt":
        m = _VERDICT_RE.search(out)
        if m is None or m.groups() != tuple(exp["pvt"]):
            return f"pvt output {out.splitlines()[:1]} != {exp['pvt']}"
    elif op.argv[0] == "tiso":
        if f"T-isomorphic: {exp['tiso']}\n" not in out:
            return f"tiso output {out.splitlines()[:1]} != {exp['tiso']}"
    return None
