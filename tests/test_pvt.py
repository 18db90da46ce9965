"""Pseudo-vertex-transitivity and T-isomorphism verdicts."""

import pytest

from drgkit.families import (
    chang,
    complete_bipartite,
    hamming,
    icosahedron,
    johnson,
    rook_grid,
    shrikhande,
)
from drgkit.pvt import PvtVerdict, check_pvt, gq_dim, t_isomorphic_srg


def test_shrikhande_pvt():
    v = check_pvt(shrikhande())
    assert v.verdict == "pvt" and v.method == "srg_theorem"


def test_chang_not_pvt_with_witness():
    for variant in (1, 2, 3):
        v = check_pvt(chang(variant))
        assert v.verdict == "not_pvt"
        assert v.witness is not None
        assert "local_spectrum_x" in v.witness


@pytest.mark.parametrize("variant, witness", [
    (1, {"x": 0, "y": 6,
         "local_spectrum_x": "{6^1, {1 + √5}^1, 2^1, 0^3, {1 - √5}^1, -2^5}",
         "local_spectrum_y": "{6^1, 2^3, 0^2, -2^6}"}),
    (2, {"x": 0, "y": 6,
         "local_spectrum_x": "{6^1, {1 + √3}^1, 2^1, √2^1, 0^1, {1 - √3}^1, -√2^1, -2^5}",
         "local_spectrum_y": "{6^1, {1 + √3}^2, 0^2, {1 - √3}^2, -2^5}"}),
    (3, {"x": 0, "y": 9,
         "local_spectrum_x": "{6^1, 3^1, {1/2 + 1/2√5}^2, {1/2 - 1/2√5}^2, -1^1, -2^5}",
         "local_spectrum_y": "{6^1, {1/2 + 1/2√13}^2, 1^2, {1/2 - 1/2√13}^2, -2^5}"}),
])
def test_chang_witness_is_the_first_differing_vertex(variant, witness):
    """The local spectra come from one stacked certificate; the witness is
    still the first vertex, in label order, whose spectrum differs from
    vertex 0's."""
    v = check_pvt(chang(variant))
    assert (v.verdict, v.witness, v.detail) == ("not_pvt", witness, "local spectra differ")


def test_float_local_spectra_compare_by_characteristic_polynomial(float_local_spectra):
    # blocks with one characteristic polynomial share one float spectrum, so
    # no verdict rests on two eigvalsh runs agreeing to the last bit
    for g in (shrikhande(), rook_grid(4), johnson(8, 2)):
        v = check_pvt(g)
        assert (v.verdict, v.method) == ("pvt", "srg_theorem"), g.label
    v = check_pvt(chang(1))
    assert (v.verdict, v.method) == ("not_pvt", "srg_theorem")
    assert t_isomorphic_srg(shrikhande(), rook_grid(4)).note == "local spectra differ"


def test_icosahedron_pvt_taylor():
    v = check_pvt(icosahedron())
    assert v.verdict == "pvt" and v.method == "taylor_theorem"


def test_j63_pvt_taylor():
    v = check_pvt(johnson(6, 3))
    assert v.verdict == "pvt" and v.method == "taylor_theorem"


def test_j84_pvt_at4():
    v = check_pvt(johnson(8, 4))
    assert v.verdict == "pvt" and v.method == "at4_theorem"


def test_cube_generic_necessary():
    # bipartite antipodal cover with b = k-1: not a Taylor graph, so only the
    # generic necessary conditions run (and pass for this vertex-transitive cube)
    v = check_pvt(hamming(3, 2))
    assert v.verdict == "necessary_conditions_pass"
    assert v.method == "generic_necessary"


def test_not_pvt_requires_witness():
    with pytest.raises(ValueError):
        PvtVerdict(verdict="not_pvt", method="srg_theorem")


def test_pvt_only_from_theorems():
    with pytest.raises(ValueError):
        PvtVerdict(verdict="pvt", method="generic_necessary")


def test_tiso_shrikhande_grid_false():
    r = t_isomorphic_srg(shrikhande(), rook_grid(4))
    assert not r.isomorphic
    assert r.witness is not None


def test_tiso_reflexive():
    assert t_isomorphic_srg(shrikhande(), shrikhande()).isomorphic
    assert t_isomorphic_srg(johnson(8, 2), johnson(8, 2)).isomorphic


def test_tiso_symmetric():
    a, b = shrikhande(), rook_grid(4)
    assert t_isomorphic_srg(a, b).isomorphic == t_isomorphic_srg(b, a).isomorphic


def test_tiso_j82_vs_chang():
    r = t_isomorphic_srg(johnson(8, 2), chang(1))
    assert not r.isomorphic
    assert "not pseudo-vertex-transitive" in r.note


def test_tiso_different_parameters():
    r = t_isomorphic_srg(shrikhande(), johnson(8, 2))
    assert not r.isomorphic and "parameters" in r.witness


def test_tiso_rejects_non_srg():
    from drgkit.spectra import InfeasibleSrgError

    with pytest.raises(InfeasibleSrgError):
        t_isomorphic_srg(icosahedron(), shrikhande())


def test_gq_dim_formula():
    assert gq_dim(1, 1) == 10
    assert gq_dim(2, 2) == 16
    assert gq_dim(1, 2) == 11
    assert gq_dim(2, 1) == 15
    assert gq_dim(2, 4) == 15  # s^2 == t case
    assert gq_dim(3, 3) == 16
    with pytest.raises(ValueError):
        gq_dim(0, 1)


def test_gq_point_graphs_pvt():
    for g in (complete_bipartite(2), complete_bipartite(3), rook_grid(3)):
        assert check_pvt(g).verdict == "pvt"


def test_tiso_transitive_spot_check():
    a, b, c = johnson(8, 2), johnson(8, 2), johnson(8, 2)
    ab = t_isomorphic_srg(a, b).isomorphic
    bc = t_isomorphic_srg(b, c).isomorphic
    ac = t_isomorphic_srg(a, c).isomorphic
    assert ab and bc and ac
