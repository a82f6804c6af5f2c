"""Exact algebra for modules and perfect complexes over the constant
Mackey ring of the group of order two (with an odd-modulus splitter).

The layers, bottom to top:

- ``gf2core``: dense matrices over prime fields (bitset rows for GF(2)).
- ``mackey``: modules over the constant Mackey ring, classification into
  the five indecomposables, box/hom/Ext/Tor.
- ``complexes``: bounded complexes of the projectives F and H in symbol
  form, realization, homology, box and mapping complexes.
- ``split``: strand decomposition with replayable move certificates, and
  the odd-modulus point/disk splitter.
- ``derived``: duals, derived box and cotensor, bigraded cohomology
  windows, the bigraded coefficient ring, the three-fold bracket,
  invertibles and tensor-triangular support.
- ``kronholm``: representation cells, spacelike attachments, and the
  weight-shift pipeline for cell build scripts.
- ``cli``: the ``c2mackey`` command.
"""

from .gf2core import FMatrix, is_prime
from .mackey import (KINDS, MackeyMap, MackeyModule, box, classify,
                     conjugate, direct_sum, ext, indecomposable,
                     internal_hom, module_of_counts, random_scrambled_module,
                     tor, validate_module, zero_module)
from .complexes import (ChainMap, FreeComplex, box_chain_map, box_complex,
                        compose_chain_maps, cone, cotens_H,
                        direct_sum_complexes, ecompose, hom_complex_dim,
                        homology, homology_counts, identity_chain_map,
                        is_null_homotopic, null_homotopy, realize,
                        shift_complex, strand, validate_chain_map,
                        validate_complex)
from .split import (BasisMove, Decomposition, SplitError, Strand, apply_move,
                    certificate_isos, decomposition_sum, random_odd_complex,
                    random_scrambled_complex, replay, split, split_odd,
                    split_odd_mackey, verify_certificate)
from .derived import (balmer_support, cohomology_formula, cohomology_window,
                      dbox, dbox_formula, dcotens, dcotens_formula,
                      invertible_class, is_invertible, m2_dim,
                      m2_product_nonzero, m2_product_rule, op_dual_decomp,
                      serre_check, sufficient_window, toda_witness)
from .kronholm import (RepBuildScript, RepCell, ScriptError, ShiftReport,
                       is_spacelike, kronholm_split, random_spacelike_script)

__version__ = "0.1.0"

# the public API: README.md lists each of these names under "Public API"
__all__ = [
    "FMatrix", "is_prime",
    "KINDS", "MackeyMap", "MackeyModule", "box", "classify", "conjugate",
    "direct_sum", "ext", "indecomposable", "internal_hom",
    "module_of_counts", "random_scrambled_module", "tor",
    "validate_module", "zero_module",
    "ChainMap", "FreeComplex", "box_chain_map", "box_complex",
    "compose_chain_maps", "cone", "cotens_H", "direct_sum_complexes",
    "ecompose", "hom_complex_dim", "homology", "homology_counts",
    "identity_chain_map", "is_null_homotopic", "null_homotopy", "realize",
    "shift_complex", "strand", "validate_chain_map", "validate_complex",
    "BasisMove", "Decomposition", "SplitError", "Strand", "apply_move",
    "certificate_isos", "decomposition_sum", "random_odd_complex",
    "random_scrambled_complex", "replay", "split", "split_odd",
    "split_odd_mackey", "verify_certificate",
    "balmer_support", "cohomology_formula", "cohomology_window", "dbox",
    "dbox_formula", "dcotens", "dcotens_formula", "invertible_class",
    "is_invertible", "m2_dim", "m2_product_nonzero", "m2_product_rule",
    "op_dual_decomp", "serre_check", "sufficient_window", "toda_witness",
    "RepBuildScript", "RepCell", "ScriptError", "ShiftReport",
    "is_spacelike", "kronholm_split", "random_spacelike_script",
]
