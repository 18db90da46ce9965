"""drgkit: exact Terwilliger-algebra analysis of small distance-regular graphs.

Construct the classical strongly regular graphs, Taylor graphs, and tight
antipodal diameter-4 covers; verify distance-regularity; compute exact
spectra, multiplicities, Krein parameters and Q-polynomial orderings from the
intersection array; generate the Terwilliger algebra T(x) exactly and
decompose the standard module into irreducible T(x)-modules; decide
pseudo-vertex transitivity and T-isomorphism.

The package namespace holds only __version__: import each name from the
module that defines it (drgkit.families.construct, drgkit.scheme.verify_drg,
drgkit.tmodules.decompose, ...), so that importing one module loads only
what that module needs.
"""

__version__ = "0.1.0"
