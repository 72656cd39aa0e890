"""Promotion and rowmotion dynamics on V-shaped posets.

The library models four interlocking families of objects: linear
extensions of V x [n] and their Kreweras words, strict labelings of
V x [ell] with labels in 1..q, block Kreweras words with generalized
bump diagrams, and ell-bounded partitions of V x [k] under
piecewise-linear toggles.  The verify module checks every order,
rotation, and commutation law exhaustively at desk scale.
"""

from .kreweras import BumpDiagram, KrewerasWord, bender_knuth, bump_diagram, \
    from_kreweras, kreweras_number, promote_kreweras, promote_linext, \
    to_kreweras
from .orbits import OrbitReport, orbit_cycles, power_map
from .poset import LinearExtension, Poset, PosetError, linear_extensions, \
    make_v, product_with_chain, v_chain_layers
from .pstrict import PStrictLabeling, RestrictionFunction, bender_knuth_tau, \
    enumerate_labelings, free_labels, free_labels_bruteforce, promote_pstrict, \
    restriction_rq, swap_bc
from .render import render_diagram
# The rowmotion function is not re-exported: its name is its module's.
from .rowmotion import PosetAutomorphism, PPartition, apply_automorphism, \
    enumerate_ppartitions, flip_automorphism, toggle, togpro
from .verify import VerificationReport, export_report, \
    orbit_report_for_action, run_suite
from .words import GeneralizedBumpDiagram, PartialMultiKrewerasWord, VLayer, \
    WordCountError, WordPrefixError, delete_double_arc, destandardize, \
    double_arcs, enumerate_words, generalized_bump_diagram, labeling_of_word, \
    layer_decomposition, promote_vlayer, promote_word, standardize, \
    word_of_labeling

__version__ = "0.1.0"
