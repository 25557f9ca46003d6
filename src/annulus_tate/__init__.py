"""Annular Khovanov homology of 2-periodic links over F2.

Computes triply-graded AKh/Kh ranks of annular braid closures, builds the
Tate bicomplex of a 2-periodic double cover folded over F2[theta, 1/theta],
runs its row-filtered spectral sequence by filtered cancellation, and
machine-checks the periodicity rank inequalities and their decategorified
congruences.
"""

from .links import (
    AnnularDiagram,
    BraidError,
    BraidWord,
    DiagramTooLarge,
    close_braid,
    double_cover,
    parse_braid_word,
)
from .cube import (
    Circle,
    EdgeType,
    Resolution,
    resolve,
)
from .f2algebra import (
    FilteredComplex,
    PageTable,
    dense_rank,
    homology_ranks,
)
from .khovanov import (
    GradedComplex,
    Theory,
    build_complex,
    homology,
    homology_of,
    total_rank,
)
from .tate import (
    PeriodicRun,
    Verdict,
    check_equivariance,
    hv_pages,
    tau_table,
    verify_cascade,
    verify_collapse,
    verify_congruences,
    verify_diagonals,
    verify_e2_correspondence,
    verify_khtate_limit,
    verify_rank_inequality,
)
from .decat import (
    CongruenceReport,
    check_congruences,
    quadruples,
    state_sum,
)

__version__ = "0.1.0"
