"""Exact counting of topological types of fully ramified Z_p^k surface
actions (ranks 1 and 2), with a brute-force orbit oracle."""

from .counting import (
    CountReport,
    TotalReport,
    card_A,
    card_A_base2,
    card_A_base3,
    card_A_shortcut,
    card_A_unitary,
    count_types_klein,
    count_types_rank1,
    count_types_rank2,
    klein_type_count,
    total_types,
)
from .exact import (
    GaussianBinomial,
    RationalPolynomial,
    binomial,
    divisors_greater_than_one,
    euler_phi,
    gaussian_binomial,
    interpolate,
    multichoose,
)
from .oracle import (
    GuardExceeded,
    OrbitTable,
    classify_partition,
    count_orbits,
    distribution_bruteforce,
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
from .residues import Distribution, PartWZ, block_wz, full_distribution, part_wz, row_counts
from .tables import (
    PolynomialFitError,
    StratifiedPolynomial,
    fit_partition_polynomial,
    render_table,
)

__version__ = "0.1.0"
