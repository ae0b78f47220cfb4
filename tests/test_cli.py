import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import topotype
from topotype.cli import main
from topotype.counting import total_types


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_partition_plain(capsys):
    code, out, _ = run(capsys, "count", "--p", "5", "--k", "2", "--partition", "2,2")
    assert code == 0
    assert "partition: {2,2}" in out
    assert "genus: 16" in out
    assert "|A|: 4" in out
    assert "d'=2: 4" in out
    assert "T: 2" in out


def test_count_partition_json_roundtrip(capsys):
    code, out, _ = run(capsys, "count", "--p", "5", "--k", "2",
                       "--partition", "2,2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["T"] == "2"
    assert record["card_A"] == "4"
    assert record["burnside_terms"] == [["2", "4"]]
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_count_partition_csv(capsys):
    code, out, _ = run(capsys, "count", "--p", "5", "--k", "2",
                       "--partition", "2,2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    record = dict(zip(rows[0], rows[1]))
    assert record["T"] == "2"
    assert record["burnside_terms"] == "2:4"


def test_count_exponent_notation(capsys):
    code, out, _ = run(capsys, "count", "--p", "5", "--k", "2", "--partition", "1^4")
    assert code == 0
    assert "T: 6" in out
    assert "marking multiplier: 3" in out


def test_count_rank1(capsys):
    code, out, _ = run(capsys, "count", "--p", "3", "--k", "1", "--R", "4")
    assert code == 0
    assert "T: 1" in out
    code, out, _ = run(capsys, "count", "--p", "3", "--k", "1", "--partition", "4")
    assert code == 0
    assert "T: 1" in out


def test_count_klein(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--k", "2", "--R", "6")
    assert code == 0
    assert "T: 2" in out
    code, out, _ = run(capsys, "count", "--p", "2", "--k", "2", "--partition", "2,2,2")
    assert code == 0
    assert "T: 1" in out


def test_count_non_hyperbolic_genus_is_labelled(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--k", "2", "--R", "3")
    assert code == 0
    assert "genus: n/a (not hyperbolic)" in out
    assert "T: 1" in out


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--p", "5", "--k", "2", "--partition", "4,1")
    assert code == 2
    assert "part" in err
    code, _, err = run(capsys, "count", "--p", "5", "--k", "2", "--R", "4")
    assert code == 2
    assert "--partition" in err
    code, _, err = run(capsys, "count", "--p", "9", "--k", "2", "--partition", "2,2")
    assert code == 2
    assert "not prime" in err
    code, _, err = run(capsys, "count", "--p", "5", "--k", "2")
    assert code == 2
    code, _, err = run(capsys, "count", "--p", "3", "--k", "1", "--partition", "2,2")
    assert code == 2


AUDIT_KEYS = {"card_A", "burnside_terms", "marking_multiplier"}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_count_gives_the_total_types_count(capsys, p, k):
    # every admissible partition, and --R alone where it is accepted (rank 1,
    # and p = 2 with rank 2, where it gives the total); the audit keys show
    # exactly when k = 1 or p is odd
    for R in range(3, 8):
        report = total_types(p, k, R)
        cases = [(["--partition", ",".join(map(str, r.partition.parts))], r.T)
                 for r in report.reports]
        if k == 1 or p == 2:
            cases.append((["--R", str(R)], report.total))
        else:
            code, out, err = run(capsys, "count", "--p", str(p), "--k", "2", "--R", str(R))
            assert (code, out) == (2, "") and "--partition" in err
        for flags, T in cases:
            code, out, _ = run(capsys, "count", "--p", str(p), "--k", str(k), *flags,
                               "--format", "json")
            assert code == 0, flags
            record = json.loads(out)
            assert record["T"] == str(T), flags
            assert AUDIT_KEYS & set(record) == (AUDIT_KEYS if k == 1 or p > 2 else set())


def test_total_plain(capsys):
    code, out, _ = run(capsys, "total", "--p", "5", "--k", "2", "--R", "4")
    assert code == 0
    assert "total: 10" in out
    assert "{2,2}" in out
    assert "{1,1,1,1}" in out


def test_total_csv(capsys):
    code, out, _ = run(capsys, "total", "--p", "5", "--k", "2", "--R", "4",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "T"]
    assert rows[-1] == ["total", "10"]
    assert ["{2,1,1}", "2"] in rows


def test_total_json(capsys):
    code, out, _ = run(capsys, "total", "--p", "5", "--k", "2", "--R", "4",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["total"] == "10"
    assert len(record["breakdown"]) == 3
    assert record["genus"] == "16"


def test_total_klein(capsys):
    code, out, _ = run(capsys, "total", "--p", "2", "--k", "2", "--R", "6")
    assert code == 0
    assert "total: 2" in out


def test_verify_klein_passes(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--k", "2", "--R", "3..10")
    assert code == 0
    assert "failures: 0" in out
    assert "FAIL" not in out


def test_verify_rank1_passes(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3,5", "--k", "1", "--R", "3..8")
    assert code == 0
    assert "failures: 0" in out


def test_verify_reports_divergence(capsys):
    # rank 2 odd p: the closed-form route counts marked classes, the oracle
    # counts group orbits; they genuinely differ here and verify says so
    code, out, _ = run(capsys, "verify", "--p", "5", "--k", "2", "--R", "4")
    assert code == 1
    assert "FAIL p=5 R=4 {2,2}: oracle=1 formula=2" in out
    assert "PASS p=5 R=4 {2,1,1}: oracle=2 formula=2" in out
    assert "failures: 3" in out


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--k", "2", "--R", "4",
                       "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["failures"] == "3"
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_verify_skips_on_guard(capsys):
    code, out, _ = run(capsys, "verify", "--p", "13", "--k", "2", "--R", "3,8")
    assert code == 0
    assert "SKIPPED p=13 R=8" in out
    assert "PASS p=13 R=3 total" in out
    assert "skipped: 1" in out
    # every case skipped: nothing was checked, so the run must not pass
    for argv in (("--p", "13", "--R", "8"), ("--p", "5", "--R", "4", "--guard-steps", "10")):
        code, out, err = run(capsys, "verify", "--k", "2", *argv)
        assert code == 2
        assert "SKIPPED" in out
        assert "failures: 0  skipped: 1" in out
        assert "error: verify checked no case; every case was SKIPPED by the guards" in err
    code, _, _ = run(capsys, "verify", "--p", "5", "--k", "2", "--R", "4,20")
    assert code == 1  # one case skipped, the other checked: the failures decide


def test_verify_rejects_a_bad_prime_before_any_work(capsys, monkeypatch):
    # every case is checked before any is run or forked: p = 5 runs nothing
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run(capsys, "verify", "--k", "2", "--p", "5,4", "--R", "3")
    assert (code, out) == (2, "")
    assert "p = 4 is not prime" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_reaches_p11(capsys):
    _, out, _ = run(capsys, "verify", "--p", "11", "--k", "2", "--R", "3..5")
    assert "SKIPPED" not in out
    assert "skipped: 0" in out
    assert "PASS p=11 R=3 total: oracle=1 formula=1" in out


@pytest.mark.parametrize("k", ["1", "2"])
def test_verify_checks_each_repeated_value_once(capsys, k):
    # a repeated --p or --R value names a case already given: each distinct
    # value is checked once, in the order first given, so the output and
    # exit code are those of the list without repeats
    for repeated, once in ((("5,5", "4,4"), ("5", "4")), (("5,3,5", "4,3,4"), ("5,3", "4,3"))):
        got = run(capsys, "verify", "--k", k, "--p", repeated[0], "--R", repeated[1])
        assert got == run(capsys, "verify", "--k", k, "--p", once[0], "--R", once[1])


def test_verify_runs_rank1_past_the_old_encoding_bound(capsys):
    # (5^1 - 1)^40 > 2^62, yet the walk has at most 10,660 rows
    code, out, _ = run(capsys, "verify", "--p", "5", "--k", "1", "--R", "40")
    assert code == 0
    assert out == "PASS p=5 R=40 {40}: oracle=623 formula=623\nfailures: 0  skipped: 0\n"


def test_verify_bad_R_exits_with_reason(capsys):
    for k in ("1", "2"):
        code, out, err = run(capsys, "verify", "--p", "5", "--k", k, "--R", "2")
        assert code == 2
        assert "need R >= 3" in err
        assert out == ""
    code, out, err = run(capsys, "verify", "--p", "5", "--k", "2", "--R", "6..3")
    assert code == 2
    assert "empty range" in err
    assert out == ""


def test_cli_import_does_not_load_numpy():
    # importing cli loads only the package and cli: each command imports
    # the modules it runs in its own function, and cli registers the oracle
    # unrun (importlib.util.LazyLoader), so none of its code has run; numpy
    # is not imported at all
    src = str(Path(topotype.__file__).resolve().parents[1])
    probe = ("import sys, topotype.cli\n"
             "oracle = sys.modules['topotype.oracle']\n"
             "print(sorted(name for name in sys.modules if name.startswith('topotype')"
             " or name == 'numpy'))\n"
             "print('count_orbits' in object.__getattribute__(oracle, '__dict__'))\n"
             "print(oracle.count_orbits.__module__, 'numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    loaded, oracle_ran, after_use = result.stdout.splitlines()
    assert loaded == str(["topotype", "topotype.cli", "topotype.oracle"])
    assert oracle_ran == "False"
    assert after_use == "topotype.oracle False"  # the first lookup runs it; numpy stays lazy


def test_help_and_usage_errors_load_no_counting_module():
    # --help, a subcommand's --help and a usage error (exit 2) stop in
    # argparse, before any command runs, so none of the counting stack
    # loads; the first count loads it
    src = str(Path(topotype.__file__).resolve().parents[1])
    probe = ("import contextlib, io, sys\n"
             "from topotype.cli import main\n"
             "stack = ('topotype.counting', 'topotype.partitions', 'topotype.exact')\n"
             "for argv in (['--help'], ['count', '--help'], ['count']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "        try:\n"
             "            code = main(argv)\n"
             "        except SystemExit as exc:\n"
             "            code = exc.code\n"
             "    print(code, [name for name in stack if name in sys.modules])\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['count', '--p', '5', '--k', '2', '--partition', '2,2'])\n"
             "print(code, [name for name in stack if name in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.splitlines() == [
        "0 []", "0 []", "2 []",
        "0 ['topotype.counting', 'topotype.partitions', 'topotype.exact']"]


def test_count_and_total_load_neither_fractions_nor_csv():
    # fractions is imported where exact's polynomials use it, csv inside
    # cli._emit's CSV branch; JSON and plain output need neither
    src = str(Path(topotype.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "from topotype.cli import main\n"
             "main(['count', '--p', '5', '--k', '2', '--partition', '2,2,1,1'])\n"
             "main(['count', '--p', '7', '--k', '1', '--R', '6', '--format', 'json'])\n"
             "main(['total', '--p', '5', '--k', '2', '--R', '6', '--format', 'json'])\n"
             "main(['total', '--p', '2', '--k', '2', '--R', '8'])\n"
             "print(sorted({'fractions', 'csv'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_commands_load_neither_dataclasses_nor_inspect():
    # the value types are slotted classes and named tuples: count, total,
    # table and --help import neither dataclasses nor the inspect chain it
    # pulls in; verify adds only the oracle, which loads neither numpy nor
    # inspect
    src = str(Path(topotype.__file__).resolve().parents[1])
    probe = ("import contextlib, io, sys\n"
             "from topotype.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    main(['count', '--p', '5', '--k', '2', '--partition', '2,2,1,1'])\n"
             "    main(['total', '--p', '5', '--k', '2', '--R', '6'])\n"
             "    main(['table', '--R', '4'])\n"
             "    try:\n"
             "        main(['--help'])\n"
             "    except SystemExit:\n"
             "        pass\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(['verify', '--k', '2', '--p', '3', '--R', '4']) == 0\n"
             "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.splitlines() == ["[]", "[]"]


def test_plain_count_and_help_do_not_load_json():
    # json is imported in cli._emit's JSON branch only, so a plain count and
    # --help never load it; a JSON count does
    src = str(Path(topotype.__file__).resolve().parents[1])
    probe = ("import contextlib, io, sys\n"
             "from topotype.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    main(['count', '--p', '5', '--k', '2', '--partition', '2,2,1,1'])\n"
             "    try:\n"
             "        main(['--help'])\n"
             "    except SystemExit:\n"
             "        pass\n"
             "print('json' in sys.modules)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    main(['count', '--p', '5', '--k', '2', '--partition', '2,2,1,1',"
             " '--format', 'json'])\n"
             "print('json' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.splitlines() == ["False", "True"]


def test_table_plain(capsys):
    code, out, _ = run(capsys, "table", "--R", "3")
    assert code == 0
    assert out.startswith("R = 3")
    assert "{1,1,1}" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--R", "4", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["R"] == "4"
    assert len(record["rows"]) >= 3


def test_count_at_a_huge_prime_matches_the_fitted_table_row(capsys):
    # the direct formula at p = 10^18 + 9 equals the {2,2,2} row that table
    # fits from small sample primes, on the branch of p's residue class
    p = 10**18 + 9
    code, out, _ = run(capsys, "count", "--p", str(p), "--k", "2",
                       "--partition", "2,2,2", "--format", "json")
    assert code == 0
    T = int(json.loads(out)["T"])
    code, out, _ = run(capsys, "table", "--R", "6", "--format", "json")
    assert code == 0
    [row] = [row for row in json.loads(out)["rows"] if row["partition"] == ["2", "2", "2"]
             and int(row["class"]) == p % int(row["modulus"])]
    assert T == sum(Fraction(c) * p**i for i, c in enumerate(row["coefficients"]))


def test_verify_rejects_negative_guards(capsys):
    # a negative guard would skip every case and pass vacuously
    for flag in ("--guard-multisets", "--guard-steps"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "5", "--k", "2", "--R", "4", flag, "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be >= 0" in captured.err
        assert captured.out == ""


def test_table_rejects_supplied_values_that_are_not_odd_primes(capsys):
    # each value is checked, also one that no row of the section would show
    for value in ("1", "0", "-5", "2", "4"):
        code, out, err = run(capsys, "table", "--R", "3", "--primes", value)
        assert code == 2, value
        assert f"supplied value {value} is not an odd prime" in err
        assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["count", "--p", "5", "--k", "2", "--partition", "2,x"],
     "error: part 'x' of partition '2,x' is not an integer"),
    (["count", "--p", "5", "--k", "2", "--partition", "2^x,2"],
     "error: part '2^x' of partition '2^x,2' is not an integer"),
    (["table", "--R", "4", "--primes", "5,x"], "argument --primes: 'x' is not an integer"),
    (["verify", "--p", "x", "--k", "2", "--R", "3"], "argument --p: 'x' is not an integer"),
    (["verify", "--p", "5", "--k", "2", "--R", "3..x"], "argument --R: 'x' is not an integer"),
    (["verify", "--p", "5", "--k", "2", "--R", "y..4"], "argument --R: 'y' is not an integer"),
    (["verify", "--p", "5", "--k", "2", "--R", "3", "--guard-steps", "z"],
     "argument --guard-steps: 'z' is not an integer"),
], ids=["partition", "exponent", "table-primes", "verify-p", "verify-R-high", "verify-R-low",
        "guard-steps"])
def test_bad_integer_input_names_its_flag(capsys, argv, message):
    # exit 2 with the bad token and where it was given; no helper's name
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "invalid" not in captured.err and "_parse" not in captured.err
    assert captured.out == ""


def test_table_primes_skips_empty_tokens(capsys):
    # empty tokens are dropped, and an empty list shows the automatic samples
    _, listed, _ = run(capsys, "table", "--R", "4", "--primes", "5,,7,")
    assert listed == run(capsys, "table", "--R", "4", "--primes", "5,7")[1]
    assert run(capsys, "table", "--R", "4", "--primes", "")[1] == run(capsys, "table", "--R", "4")[1]


def test_console_entry_and_module_guard(capsys):
    # the console script runs ``entry()``; ``python -m topotype.cli`` runs the
    # ``__main__`` guard: same stdout as ``main``, same exit codes
    src = str(Path(topotype.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    entry = [sys.executable, "-c", "from topotype.cli import entry; entry()"]
    argv = ["count", "--p", "7", "--k", "2", "--partition", "3,2,2"]
    result = subprocess.run(entry + argv, capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout == run(capsys, *argv)[1]
    result = subprocess.run(entry + ["verify", "--p", "x", "--k", "2", "--R", "3"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert "error:" in result.stderr and result.stdout == ""
    result = subprocess.run([sys.executable, "-m", "topotype.cli", "--help"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: topotype")


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("partition, parts", [("2^99999999999", 99999999999),
                                              ("2^100000000", 100000000),
                                              ("3,2^100000000", 100000001)])
def test_count_refuses_a_huge_exponent_before_expanding_it(capsys, fmt, partition, parts):
    # the part count is read from the tokens; [2] * 99999999999 raised MemoryError
    code, out, err = run(capsys, "count", "--p", "5", "--k", "2", "--partition", partition,
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: {parts} parts but only 6 cyclic subgroups available (p=5, k=2)\n"


def test_count_names_the_primality_bound(capsys):
    # this p passes every Miller-Rabin base; trial division would run for days
    code, out, err = run(capsys, "count", "--p", "3317044064679887385962123", "--k", "2",
                         "--partition", "2,2,2")
    assert (code, out) == (2, "")
    assert "cannot decide whether 3317044064679887385962123 is prime" in err
    assert err.endswith("exact only below 3317044064679887385961981\n")


@pytest.mark.parametrize("argv", [("total", "--p", "5", "--k", "2", "--R", "100000"),
                                  ("count", "--p", "2", "--k", "2", "--R", "100000")])
def test_too_many_types_is_refused_before_listing(capsys, argv):
    # the types are counted, not listed, before the bound refuses them
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "has at least 833333333 admissible types" in err
    assert "more than the 10000000 that can be listed" in err
