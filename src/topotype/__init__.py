"""Exact counting of topological types of fully ramified Z_p^k surface
actions (ranks 1 and 2), with a brute-force orbit oracle."""

from .counting import (
    CountReport,
    TotalReport,
    card_A,
    count_types_rank1,
    count_types_rank2,
    klein_type_count,
    total_types,
)
from .crosscheck import (
    Distribution,
    GaussianBinomial,
    PartWZ,
    block_wz,
    card_A_base2,
    card_A_base3,
    card_A_shortcut,
    card_A_unitary,
    count_types_klein,
    distribution_bruteforce,
    full_distribution,
    gaussian_binomial,
    part_wz,
    row_counts,
)
from .exact import (
    RationalPolynomial,
    binomial,
    divisors_greater_than_one,
    euler_phi,
    interpolate,
    multichoose,
)
from .oracle import (
    GuardExceeded,
    OrbitTable,
    classify_partition,
    count_orbits,
    enumerate_generating_sets,
    rank1_orbit_count,
)
from .partitions import (
    ActionParams,
    AdmissibilityError,
    NotHyperbolicError,
    PartitionType,
    admissible_partitions,
    genus_of,
    marking_count,
    parse_partition,
)
from .tables import (
    PolynomialFitError,
    StratifiedPolynomial,
    build_table,
    fit_partition_polynomial,
)

__version__ = "0.1.0"
