"""Exact-arithmetic magic-square Lie algebras, root systems and dimension series.

Builds the sixteen algebras g(A,B) from pairs of split composition algebras
through the triality construction, extracts their root systems over the
rationals, and cross-validates every closed-form dimension, q-analog and
degree formula of the associated series against a Weyl-dimension-formula
oracle.  No floating point anywhere.
"""

from .compalg import AlgebraTag, CompAlg, build_split_algebra, parse_tag
from .exact import (
    LinearFactorProduct,
    LinearForm,
    QPoly,
    factorial_ratio,
    gauss_binomial,
    gen_binomial,
    parse_rat,
    rat_str,
)
from .magic import MAGIC_DIMS, MagicAlgebra, build_magic_algebra
from .modules import GModule, build_V_module, build_W_module
from .roots import (
    RootDatum,
    builtin_datum,
    datum_for,
    dynkin_type,
    extract_root_datum,
)
from .series import (
    EXCEPTIONAL,
    SEVERI,
    SO_FAMILY,
    SUBEXCEPTIONAL,
    SeriesDescriptor,
    SeriesResult,
    adjoint_cartan_power,
    admissible_weight,
    degree_formulas,
    degree_from_hilbert,
    deligne_Yk,
    deligne_Yk_printed,
    evaluate_series,
    lambda_of_a,
    qdim_adjoint_cartan_power,
    severi_dim,
    so_family_dim,
    thirdrow_dim,
)
from .triality import TrialityAlgebra, TrialityTriple, psi, triality_algebra
from .crosscheck import run_crosscheck

__version__ = "0.1.0"
