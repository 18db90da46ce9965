"""Byte-level pins of CLI output: a refactor that changes any report or verdict
text, even in whitespace or ordering, fails here.  The digests are sha256 of
the stdout of one `drgkit` command each."""

import hashlib
import json

import pytest

from drgkit.cli import main
from drgkit.families import chang, hamming, icosahedron, johnson, shrikhande
from drgkit.graph_core import save_graph

GRAPHS = {
    "shrikhande": shrikhande,
    "chang3": lambda: chang(3),
    "icosahedron": icosahedron,
    "j84": lambda: johnson(8, 4),
    "h33": lambda: hamming(3, 3),
    "h32": lambda: hamming(3, 2),
    "chang1": lambda: chang(1),
}

# (command, graph, extra flags) -> sha256 of stdout
DIGESTS = {
    ("analyze", "shrikhande", ("--all-vertices",)):
        "86c539c42ed984cce4ebc76e2e9ad308e7ca050282bbdfed27751d90f7ba9ca6",
    ("analyze", "chang3", ("--all-vertices",)):
        "350fbe43045e4c1bcfe0d6fd691e590c8f706bae28b7349eea68a30152989934",
    ("analyze", "icosahedron", ("--all-vertices",)):
        "b6e3eee923f8cc849924926b819e6f432d21c91a6b71dc060060cd5838ab59db",
    ("analyze", "j84", ()):
        "034669d3ec0378fd9b5743a883787bdd97f36b3f124d8e61039ed0e87b479216",
    ("analyze", "h33", ()):
        "fbcfea8369a7560867d2af15bd782a4effd4b132e135e69b12962c9973f04501",
    ("analyze", "c7", ("--float-fallback",)):
        "4429f4bffbbed7c0bffb28281ada9245e8ed832ef4597484a9f337b8af223c5f",
    # srg route, not pvt, with a witness
    ("pvt", "chang1", ()):
        "fc1156a9c9445bb090193410966a85b08bc3965d76b83ce96c98c361198a1be2",
    # Taylor route
    ("pvt", "icosahedron", ()):
        "fde76abed41718be46b6761f2b201cebc7a6f7c5ba99d737240c4eebbe7b908b",
    # AT4 route
    ("pvt", "j84", ()):
        "1233cc00f3a773b27290445c716b095c0f9de9c9faf395f67cce21016a634f2a",
    # generic necessary conditions
    ("pvt", "h32", ()):
        "05104be7d10117c5a011f41ca935aef99e4f291e8e67171f882250f38383a10e",
}


def _graph_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    if name == "c7":
        path.write_text(json.dumps(
            {"n": 7, "edges": [[i, (i + 1) % 7] for i in range(7)], "label": "C7"}))
    else:
        save_graph(GRAPHS[name](), path)
    return str(path)


@pytest.mark.parametrize("command,graph,flags", list(DIGESTS),
                         ids=["-".join((c, g) + f) for c, g, f in DIGESTS])
def test_output_digest(tmp_path, capsys, command, graph, flags):
    assert main([command, _graph_file(tmp_path, graph), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command, graph, flags]
