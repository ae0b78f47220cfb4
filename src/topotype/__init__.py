"""Exact counting of topological types of fully ramified Z_p^k surface
actions (ranks 1 and 2), with a brute-force orbit oracle.

The exports are resolved on first access (PEP 562), so importing the
package, or ``topotype.cli``, loads no module that the command at hand
does not run.
"""

import importlib

_EXPORTS = {
    "counting": ("CountReport", "TotalReport", "card_A", "count_types_rank1",
                 "count_types_rank2", "klein_type_count", "total_types"),
    "crosscheck": ("Distribution", "GaussianBinomial", "PartWZ", "block_wz", "card_A_base2",
                   "card_A_base3", "card_A_shortcut", "card_A_unitary", "count_types_klein",
                   "distribution_bruteforce", "full_distribution", "gaussian_binomial",
                   "part_wz", "row_counts"),
    "exact": ("RationalPolynomial", "binomial", "divisors_greater_than_one", "euler_phi",
              "interpolate", "multichoose"),
    "oracle": ("GuardExceeded", "OrbitTable", "classify_partition", "count_orbits",
               "enumerate_generating_sets"),
    "partitions": ("ActionParams", "AdmissibilityError", "NotHyperbolicError", "PartitionType",
                   "admissible_partitions", "genus_of", "marking_count", "parse_partition"),
    "tables": ("PolynomialFitError", "StratifiedPolynomial", "build_table",
               "fit_partition_polynomial"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
