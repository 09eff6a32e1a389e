"""Exact counting, construction, and certified lower bounds for Novak-Carmichael numbers."""

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
