"""drgkit: exact Terwilliger-algebra analysis of small distance-regular graphs.

Construct the classical strongly regular graphs, Taylor graphs, and tight
antipodal diameter-4 covers; verify distance-regularity; compute exact
spectra, multiplicities, Krein parameters and Q-polynomial orderings from the
intersection array; generate the Terwilliger algebra T(x) exactly and
decompose the standard module into irreducible T(x)-modules; decide
pseudo-vertex transitivity and T-isomorphism.
"""

__version__ = "0.1.0"

from .exactla import AlgebraicScalar
from .graph_core import Graph, DistanceData, load_graph, save_graph, distances
from .families import FamilySpec, construct, seidel_switch
from .scheme import (
    DrgParameters,
    EigenData,
    KreinData,
    verify_drg,
    eigen_data,
    krein,
    antipodality,
    tightness,
)
from .spectra import (
    Spectrum,
    SrgParams,
    srg_spectrum,
    subconstituent_spectrum,
    second_subconstituent_derived,
)
from .terwilliger import block_spin_dim, terwilliger_dimension
from .context import GraphContext
from .tmodules import (
    ModuleDescriptor,
    ModuleDecomposition,
    DimensionSequence,
    decompose_srg,
    decompose_taylor,
    decompose_at4,
    dimension_sequence,
    srg_dim_formula,
    wedderburn_dim,
)
from .pvt import PvtVerdict, TIsoResult, check_pvt, t_isomorphic_srg, gq_dim
from .analysis import analyze_graph, report_to_json

__all__ = [name for name in dir() if not name.startswith("_")]
