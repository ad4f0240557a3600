"""Quantum stabilizer codes from binary linear codes.

Core pieces: word-packed GF(2) linear algebra, exact distance scans
(minimum distance, second generalized Hamming weight, exact quantum
distance), exact distances from weight enumerators (every k' = k + 1
coset in one sweep), the Steane enlargement construction and its
second-weight refinement, nested BCH code families, and asymptotic
rate bounds.
"""

from .bch import (
    BchSpec,
    FamilySpec,
    Gf2mField,
    bch_code,
    build_family_code,
    coset_extend,
    extended_bch,
    family_params,
    verify_nesting,
)
from .bounds import (
    bound_cs,
    bound_gf4,
    bound_steane,
    bound_thm4,
    emit_curve,
    entropy,
    pair_count_identity,
    write_curve_csv,
)
from .distances import (
    DistanceReport,
    min_distance,
    quantum_distance_exact,
    second_gdw,
)
from .enumerators import CertificateError
from .gf2 import (
    DEFAULT_ENUM_CAP,
    CodeConstructionError,
    EnumerationCapError,
    LinearCode,
    MatrixParseError,
    dual,
    even_weight_code,
    extend_parity,
    is_dual_containing,
    is_subcode,
    parse_matrix,
    render_matrix,
    repetition_code,
)
from .steane import (
    QuantumCode,
    certified_enlarge,
    find_self_dual_subcode,
    is_stabilizer_code,
    mix_completion_rows,
    symplectic_dual,
)
from .table1 import TABLE1_ROWS, Table1Row, check_all_rows, check_row, load_fixture

__version__ = "0.1.0"
