"""Exact counting, construction, and certified lower bounds for Novak-Carmichael numbers."""

import os as _os
import sys as _sys

# The package calls no BLAS routine, yet numpy's OpenBLAS starts a helper thread
# that spins for about 0.1 s of CPU at every start (2 vCPU).  OpenBLAS reads its
# thread count once, when numpy loads it, so numpy is loaded here, before the
# submodules, with the pool pinned to one thread; the variable is then removed,
# so os.environ and child processes see what the caller passed.  A caller who
# set a count (OpenBLAS reads these three variables) or loaded numpy first keeps
# the pool it asked for.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .certify import (
    EnumerationReport,
    LowerBoundCertificate,
    Schedule,
    Threshold,
    certify_lower_bound,
    enumerate_certificate,
    parse_threshold,
    verify_certificate,
)
from .construction import (
    ConstructionBase,
    FamilyMember,
    build_base,
    build_family,
    build_member,
    member_to_dict,
    verify_family,
)
from .errors import DomainError, ResourceError
from .novak import (
    NovakVerdict,
    carmichael_lambda,
    count_nc,
    is_nc_criterion,
    list_nc,
)
from .sieve import (
    FactorTable,
    PrimeTable,
    Tables,
    build_tables,
    sieve_primes,
)
from .smoothness import (
    ConjectureRow,
    HildebrandRow,
    ShiftedSmoothSet,
    YRule,
    conjecture_table,
    dickman_rho,
    hildebrand_report,
    pi_smooth_count,
    psi_count,
    rows_to_csv,
    rows_to_json,
    shifted_smooth_set,
)

__version__ = "0.1.0"
