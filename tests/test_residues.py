import ast
from pathlib import Path

import pytest

import topotype
from topotype.crosscheck import (
    PartWZ,
    block_wz,
    distribution_bruteforce,
    full_distribution,
    part_wz,
    row_counts,
)


def test_row_counts():
    rc = row_counts(3, 3)
    assert (rc.e, rc.b) == (10, 4)
    rc = row_counts(0, 5)
    assert (rc.e, rc.b) == (1, 1)
    rc = row_counts(2, 5)
    assert (rc.e, rc.b) == (15, 10)


def test_part_wz_examples():
    assert part_wz(0, 5) == PartWZ(1, 0)
    assert part_wz(1, 5) == PartWZ(0, 1)  # b_1 = 4, P = 1 mod p
    assert part_wz(2, 5) == PartWZ(2, 2)  # b_2 = 10 equidistributes
    assert part_wz(3, 3) == PartWZ(2, 1)  # b_3 = 4, P = 0 mod p
    assert part_wz(4, 3) == PartWZ(1, 2)  # b_4 = 5, P = 1 mod p


def test_part_wz_invariants():
    for p in (3, 5, 7, 11):
        for P in range(0, 13):
            wz = part_wz(P, p)
            assert wz.W + (p - 1) * wz.Z == row_counts(P, p).b
            assert wz.W - wz.Z in (-1, 0, 1)
            if P > 0 and P % p not in (0, 1):
                assert wz.W == wz.Z


def test_part_wz_rejects_bad_input():
    with pytest.raises(ValueError):
        part_wz(2, 2)
    with pytest.raises(ValueError):
        part_wz(2, 9)
    with pytest.raises(ValueError):
        part_wz(-1, 5)


def test_block_wz_single_part_matches_part_wz():
    for p in (3, 5, 7):
        for P in range(0, 11):
            if P == 0:
                continue
            assert block_wz((P,), p) == part_wz(P, p)


def test_block_wz_sign_branch():
    # all parts congruent to 0 or 1 mod p: zero class off average by (-1)^t
    wz = block_wz((1, 1), 5)  # B = 4 * 4 = 16, t = 2, sign +1
    assert wz == PartWZ(4, 3)
    wz = block_wz((1,), 5)  # B = 4, t = 1, sign -1
    assert wz == PartWZ(0, 1)
    wz = block_wz((5, 1), 5)  # B = 56 * 4 = 224, t = 1, sign -1
    assert wz == PartWZ(44, 45)
    # one part outside {0, 1} mod p: equidistribution, B = 10 * 4 = 40
    wz = block_wz((2, 1), 5)
    assert wz == PartWZ(8, 8)


def test_block_wz_order_invariance():
    for p in (3, 5, 7):
        for parts in ((2, 1), (3, 2, 1), (1, 1, 2), (4, 3), (5, 1, 1)):
            fwd = block_wz(parts, p)
            rev = block_wz(tuple(reversed(parts)), p)
            assert fwd == rev
    with pytest.raises(ValueError):
        block_wz((), 5)


def test_block_profile_matches_block_wz():
    # the zero-first-column distribution is (W, Z, Z, ..., Z)
    for p in (3, 5, 7):
        for parts in ((2,), (3,), (2, 1), (2, 2), (3, 2, 1), (1, 1, 1)):
            ones = (1,) * len(parts)
            counts = full_distribution(parts, ones, p, zero_first_column=True).counts
            assert len(set(counts[1:])) == 1
            assert block_wz(parts, p) == PartWZ(counts[0], counts[1])


def test_full_distribution_examples():
    assert full_distribution((1,), (1,), 3).counts == (1, 1, 1)
    assert full_distribution((3,), (1,), 3).counts == (4, 3, 3)
    assert full_distribution((3,), (2,), 3).counts == (4, 3, 3)


def test_full_distribution_totals():
    for p in (3, 5):
        for parts in ((2,), (2, 1), (3, 2), (1, 1, 2)):
            ones = (1,) * len(parts)
            full = sum(full_distribution(parts, ones, p).counts)
            zfc = sum(full_distribution(parts, ones, p, zero_first_column=True).counts)
            e_prod = b_prod = 1
            for P in parts:
                rc = row_counts(P, p)
                e_prod *= rc.e
                b_prod *= rc.b
            assert full == e_prod
            assert zfc == b_prod


def test_full_distribution_weight_independence():
    for p in (3, 5, 7):
        for parts in ((2, 1), (3, 2), (2, 2, 1)):
            base = full_distribution(parts, (1,) * len(parts), p).counts
            alt = tuple((i % (p - 1)) + 1 for i in range(1, len(parts) + 1))
            assert full_distribution(parts, alt, p).counts == base


def test_full_distribution_matches_bruteforce_spot():
    for p in (3, 5):
        for parts in ((2,), (2, 1), (3, 1)):
            for zfc in (False, True):
                w = (1,) * len(parts)
                dp = full_distribution(parts, w, p, zero_first_column=zfc)
                brute = distribution_bruteforce(parts, w, p, zero_first_column=zfc)
                assert dp.counts == brute.counts


def test_full_distribution_rejects_bad_weights():
    with pytest.raises(ValueError):
        full_distribution((2,), (0,), 5)
    with pytest.raises(ValueError):
        full_distribution((2,), (5,), 5)
    with pytest.raises(ValueError):
        full_distribution((2, 1), (1,), 5)


PACKAGE_EXPORTS = (
    "ActionParams", "AdmissibilityError", "CountReport", "Distribution", "GaussianBinomial",
    "GuardExceeded", "NotHyperbolicError", "OrbitTable", "PartWZ", "PartitionType",
    "PolynomialFitError", "RationalPolynomial", "StratifiedPolynomial", "TotalReport",
    "__version__", "admissible_partitions", "binomial", "block_wz", "build_table", "card_A",
    "card_A_base2", "card_A_base3", "card_A_shortcut", "card_A_unitary", "classify_partition",
    "count_orbits", "count_types_klein", "count_types_rank1", "count_types_rank2",
    "distribution_bruteforce", "divisors_greater_than_one", "enumerate_generating_sets",
    "euler_phi", "fit_partition_polynomial", "full_distribution", "gaussian_binomial",
    "genus_of", "interpolate", "klein_type_count", "marking_count", "multichoose",
    "parse_partition", "part_wz", "row_counts", "total_types",
)


def test_crosscheck_stays_off_the_production_path():
    # no production module imports the cross-check routes, not even inside a
    # function body, and the package still exports every name it did
    package = Path(topotype.__file__).parent
    production = [path for path in sorted(package.glob("*.py"))
                  if path.name not in ("__init__.py", "crosscheck.py")]
    assert len(production) >= 6
    for path in production:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("crosscheck" in name.split(".") for name in names), path.name
    for name in PACKAGE_EXPORTS:
        assert hasattr(topotype, name), name


def test_no_module_imports_dataclasses():
    # value types are slotted classes or named tuples: dataclasses, and the
    # inspect chain it loads, would cost every command start-up time
    package = Path(topotype.__file__).parent
    paths = sorted(package.rglob("*.py"))
    assert len(paths) >= 8
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "dataclasses" for name in names), path.name


def test_only_cli_emit_serializes():
    # one renderer: in the whole package only cli._emit calls json.dumps or
    # csv.writer, only cli imports json or csv, and tables imports none of
    # csv, io and json
    package = Path(topotype.__file__).parent
    callers, imports = set(), {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = imports.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and (node.func.value.id, node.func.attr)
                        in {("json", "dumps"), ("csv", "writer")}):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"cli._emit"}
    assert {stem for stem, names in imports.items() if names & {"csv", "json"}} == {"cli"}
    assert not imports["tables"] & {"csv", "io", "json"}


def test_partitions_owns_the_input_checks():
    # one home for input checks: among the production modules only
    # partitions (the checks) and tables (its prime search and sample
    # checks) use is_prime, and counting, oracle and cli define no
    # _check_* or _require_* helper of their own; only partitions raises
    # AdmissibilityError
    package = Path(topotype.__file__).parent
    users, helpers, raisers = set(), set(), set()
    for stem in ("cli", "counting", "exact", "oracle", "partitions", "tables"):
        for node in ast.walk(ast.parse((package / f"{stem}.py").read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "AdmissibilityError":
                    raisers.add(stem)
            if (isinstance(node, ast.Name) and node.id == "is_prime"
                    or isinstance(node, ast.Attribute) and node.attr == "is_prime"
                    or isinstance(node, ast.alias) and node.name == "is_prime"):
                users.add(stem)
            elif (stem in ("cli", "counting", "oracle") and isinstance(node, ast.FunctionDef)
                    and node.name.startswith(("_check_", "_require_"))):
                helpers.add(f"{stem}.{node.name}")
    assert users == {"partitions", "tables"}
    assert helpers == set()
    assert raisers == {"partitions"}


def test_wz_counts_stay_reference_only():
    # production computes |A| by the character sum; the (W, Z) counts of a
    # part or block are defined only in crosscheck, the independent reference
    package = Path(topotype.__file__).parent
    production = [path for path in sorted(package.glob("*.py"))
                  if path.name not in ("__init__.py", "crosscheck.py")]
    assert len(production) >= 6
    defined = {f"{path.stem}.{node.name}"
               for path in production for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in ("_wz", "part_wz", "block_wz")}
    assert defined == set()
    crosscheck = ast.parse((package / "crosscheck.py").read_text())
    assert {node.name for node in crosscheck.body if isinstance(node, ast.FunctionDef)} >= {
        "_wz", "part_wz", "block_wz"}
