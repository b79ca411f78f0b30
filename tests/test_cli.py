"""Tests for the command-line interface: output contract and round-trips."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from modent import cli, finprob
from modent.errors import ModentError, ParseError, SumNotOne
from oracles import random_mod_dist_values, random_rational_dist_fractions


def run_lines(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    out = {}
    for line in captured.out.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return code, out, captured.err


def run_json(capsys, *argv):
    code = cli.run(["--json", *argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_entropy_output(capsys):
    code, out, _ = run_lines(capsys, "entropy", "3:1,1,1,1")
    assert code == 0
    assert out == {"dist": "3:1,1,1,1", "entropy": "2", "result": "2"}


def test_fq_output(capsys):
    code, out, _ = run_lines(capsys, "fq", "--p", "5", "1")
    assert code == 0
    assert out["result"] == "0"


def test_identities_pass(capsys):
    code, out, _ = run_lines(capsys, "identities", "--p", "5")
    assert code == 0
    assert out["result"] == "pass"
    for key in (
        "cocycle",
        "grouping",
        "pounds1_formula",
        "pounds1_symmetry",
        "homogenization",
        "fundamental_pounds1",
        "fundamental_xp",
    ):
        assert out[key] == "pass"


def test_identities_json_keys_in_order(capsys):
    code, blob = run_json(capsys, "identities", "--p", "3")
    assert code == 0
    assert list(blob) == [
        "p",
        "grouping",
        "cocycle",
        "pounds1_formula",
        "pounds1_symmetry",
        "homogenization",
        "fundamental_pounds1",
        "fundamental_xp",
        "result",
    ]


def test_identities_failure_exit_code(monkeypatch, capsys):
    from modent.verification import VerificationReport

    monkeypatch.setattr(
        cli.polynomials,
        "check_cocycle",
        lambda p: VerificationReport("cocycle", 1, ("forced",)),
    )
    code, out, _ = run_lines(capsys, "identities", "--p", "3")
    assert code == 1
    assert out["cocycle"] == "fail"
    assert out["result"] == "fail"


def test_json_and_plain_agree(capsys):
    for argv in (
        ["entropy", "3:1,1,1,1"],
        ["measure-entropy", "3:2,2,2,2"],
        ["uniform", "4", "--p", "3"],
        ["compose", "3:2,2", "3:1", "3:2,2"],
        ["tensor", "3:2,2", "3:2,2"],
        ["fq", "--p", "5", "2"],
        ["pderiv", "--p", "3", "3"],
        ["residue", "--p", "3", "1/2", "1/8", "1/8", "1/8", "1/8"],
        ["real-eq", "--a", "1/2 1/2", "--b", "1/3 2/3"],
        ["characterize", "--p", "2", "--max-arity", "4"],
        ["verify-core", "--p", "3"],
        ["interpolate", "--p", "2", "--nvars", "1", "1", "0"],
    ):
        code_p, plain, _ = run_lines(capsys, *argv)
        code_j, blob = run_json(capsys, *argv)
        assert code_p == code_j
        assert set(plain) == set(blob)
        for key, value in blob.items():
            assert plain[key] == cli._fmt(value), (argv, key)


def test_parse_and_format_round_trip_mod_dists():
    rng = random.Random(314159)
    for _ in range(50):
        pp = rng.choice((2, 3, 5, 7, 13))
        values = random_mod_dist_values(rng, pp, rng.randint(1, 6))
        text = f"{pp}:" + ",".join(str(v) for v in values)
        d = cli.parse_mod_dist(text)
        assert cli.format_mod_dist(d) == text
        assert cli.parse_mod_dist(cli.format_mod_dist(d)) == d


def test_parse_and_format_round_trip_rationals():
    rng = random.Random(271828)
    for _ in range(50):
        d = cli.parse_rational_dist(
            " ".join(str(q) for q in random_rational_dist_fractions(rng))
        )
        assert cli.parse_rational_dist(cli.format_rational_dist(d)) == d


def test_parse_negative_values_normalized():
    d = cli.parse_mod_dist("3:-1,-1,0")
    assert d.values() == (2, 2, 0)
    assert cli.format_mod_dist(d) == "3:2,2,0"


def test_sum_not_one_diagnostics():
    with pytest.raises(SumNotOne) as err:
        cli.parse_mod_dist("3:1,1")
    assert err.value.computed_sum == 2
    with pytest.raises(SumNotOne):
        cli.parse_rational_dist("1/2 1/4")
    with pytest.raises(ParseError):
        cli.parse_mod_dist("banana")
    with pytest.raises(ParseError):
        cli.parse_rational_dist("1/x")
    with pytest.raises(ParseError):
        cli.parse_mod_dist("4:1,1,1,1")  # 4 is not prime
    with pytest.raises(ParseError):
        cli.parse_mod_dist(f"{2**89 - 1}:1")  # beyond the primality bound


def test_huge_decimal_exponent_is_refused_before_the_number_is_built():
    # Fraction("1e-99999999") would build a 10^8-digit integer for minutes, so
    # the refused tokens run in a subprocess whose timeout keeps a regression
    # from hanging the suite
    code = (
        "from modent import cli\n"
        "for tok in ('1e-99999999', '1E+99999999', '2e-4301', '1e0000000000000000000099_999_999'):\n"
        "    try:\n"
        "        cli.parse_rational_dist(tok)\n"
        "    except cli.ParseError as exc:\n"
        "        assert 'exponent' in str(exc), exc\n"
        "    else:\n"
        "        raise SystemExit(tok)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    # an exponent at the limit still parses
    dist = cli.parse_rational_dist(["1e-4300", "0." + "9" * 4300])
    assert dist.probs[0] == Fraction(1, 10**4300)


def test_huge_table_and_system_sizes_are_refused_before_the_power_is_computed():
    # 3^(10^8) takes minutes to compute, so the refused calls run in a
    # subprocess whose timeout keeps a regression from hanging the suite
    code = """
import contextlib, io
from modent import cli
from modent.characterization import build_system
from modent.errors import RangeGuard
from modent.modular import PrimeModulus
from modent.polynomials import interpolate

for refused in (
    lambda: interpolate(lambda pt: 0, PrimeModulus(3), 10**8),
    lambda: build_system(PrimeModulus(3), 10**8),
):
    try:
        refused()
    except RangeGuard:
        pass
    else:
        raise SystemExit("not refused")
err = io.StringIO()
with contextlib.redirect_stderr(err):
    assert cli.run(["interpolate", "--p", "3", "--nvars", "100000000", "0"]) == 2
assert "need 3^100000000 values" in err.getvalue() and "limit" not in err.getvalue(), err.getvalue()
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_consecutive_runs_behave_as_in_a_fresh_process(capsys):
    # run() builds its parser once per process; no call may leave state for
    # the next: not --json, not a parse error
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argvs in (
        (["--json", "characterize", "--p", "3", "--max-arity", "3"], ["entropy", "3:1,1,1,1"]),
        (["characterize", "--p", "3"], ["entropy", "3:1,1,1,1"]),
    ):
        in_process = []
        for argv in argvs:
            code = cli.run(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        for argv, got in zip(argvs, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "modent.cli", *argv], env=env, capture_output=True, text=True, timeout=60
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert in_process[0][0] == 2 and "--max-arity" in in_process[0][2]


def test_residue_whose_sum_has_too_many_digits_to_print_exits_2(capsys):
    # 1/10^4300 has a 4301-digit denominator, past the int-to-str limit
    assert cli.run(["residue", "--p", "5", "1e-4300"]) == 2
    err = capsys.readouterr().err
    assert "expected 1" in err and "limit" not in err


def test_usage_errors_exit_2(capsys):
    assert cli.run(["entropy", "3:1,1"]) == 2
    err = capsys.readouterr().err
    assert "sum to 2" in err
    assert cli.run(["fq", "--p", "5", "10"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run(["interpolate", "--p", "2", "--nvars", "2", "1", "0"]) == 2
    assert "need 2^2 values" in capsys.readouterr().err


def test_measure_entropy_empty(capsys):
    code, out, _ = run_lines(capsys, "measure-entropy", "3:")
    assert code == 0
    assert out["result"] == "0"


def test_loss_command_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    payload = {
        "domain": {"p": 3, "labels": ["a", "b", "c", "d"], "probs": [1, 1, 1, 1]},
        "codomain": {"p": 3, "labels": ["x", "y"], "probs": [2, 2]},
        "mapping": {"a": "x", "b": "x", "c": "y", "d": "y"},
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_lines(capsys, "loss", str(path))
    assert code == 0
    assert out["loss"] == "1"
    assert out["conditional"] == "1"
    assert out["domain_entropy"] == "2"
    assert out["codomain_entropy"] == "1"

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, _ = run_lines(capsys, "loss")
    assert code == 0
    assert out["result"] == "1"


def test_loss_command_rejects_bad_map(tmp_path, capsys):
    payload = {
        "domain": {"p": 3, "labels": ["a", "b"], "probs": [2, 2]},
        "codomain": {"p": 3, "labels": ["x"], "probs": [1]},
        "mapping": {"a": "x"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["loss", str(path)]) == 2


GOOD_SPACE = {"p": 3, "labels": ["x"], "probs": [1]}


@pytest.mark.parametrize(
    "payload",
    [
        {"domain": {"p": 3, "labels": ["a"]}, "codomain": GOOD_SPACE, "mapping": {"a": "x"}},
        {
            "domain": {"p": 3, "labels": 5, "probs": [1]},
            "codomain": GOOD_SPACE,
            "mapping": {"a": "x"},
        },
        [GOOD_SPACE, GOOD_SPACE],
        {"domain": {"p": 3, "labels": ["a"], "probs": [1]}, "codomain": GOOD_SPACE, "mapping": {"a": ["x"]}},
        {"domain": {"p": 3, "labels": ["a"], "probs": [1]}, "codomain": GOOD_SPACE, "mapping": {"a": {"y": 1}}},
    ],
    ids=["no-probs", "labels-not-a-list", "top-level-list", "image-a-list", "image-an-object"],
)
def test_loss_command_rejects_malformed_json(tmp_path, capsys, payload):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["loss", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_interpolate_command(capsys):
    code, out, _ = run_lines(capsys, "interpolate", "--p", "3", "--nvars", "1", "1", "0", "0")
    assert code == 0
    assert out["poly"] == "2*x^2 + 1 (mod 3)"


def test_characterize_command(capsys):
    code, out, _ = run_lines(capsys, "characterize", "--p", "2", "--max-arity", "6")
    assert code == 0
    assert out["kernel_dim"] == "1"
    assert out["contains_entropy"] == "true"
    assert out["kernel_is_entropy_line"] == "true"
    assert out["unknowns"] == "63"
    # every one of the 1365 instances is accounted for: the 308 spanning ones
    # (1 + sum over K <= 6 of (K-1) 2^(K-1) + (K-2) 2^(K-3)) are read, of
    # which 2 constraints cut the parameters and the rest are checked, and
    # the others are implied
    assert out["rows"] == "1365"
    assert (out["rows_eliminated"], out["rows_checked"]) == ("2", "306")
    assert int(out["rows_implied"]) == 1365 - 308


def test_interpolate_rejects_negative_nvars(capsys):
    code, out, err = run_lines(capsys, "interpolate", "--p", "3", "--nvars", "-1", "1")
    assert code == 2 and out == {}
    assert err.strip() == "error: nvars must be nonnegative"


def test_uniform_command(capsys):
    code, out, _ = run_lines(capsys, "uniform", "6", "--p", "5")
    assert code == 0
    assert out["dist"] == "5:1,1,1,1,1,1"
    assert out["entropy"] == "4"
    assert cli.run(["uniform", "6", "--p", "3"]) == 2  # p divides n


def test_real_eq_command(capsys):
    code, out, _ = run_lines(
        capsys, "real-eq", "--a", "1/2 1/8 1/8 1/8 1/8", "--b", "1/4 1/4 1/4 1/4"
    )
    assert code == 0
    assert out["result"] == "true"
    code, out, _ = run_lines(capsys, "real-eq", "--a", "1/2 1/2", "--b", "1/3 2/3")
    assert code == 0
    assert out["result"] == "false"


def test_real_eq_on_large_weights(capsys):
    # the products prod r^r of 300 weights up to 10^4 have about 19 million
    # bits; the verdicts must not need them
    rng = random.Random(314)
    weights = [rng.randint(1, 10**4) for _ in range(300)]
    permuted = rng.sample(weights, len(weights))
    moved = weights[:]
    moved[weights.index(min(weights))] -= 1
    moved[weights.index(max(weights))] += 1
    other = [rng.randint(1, 10**4) for _ in range(300)]

    def verdict(a, b):
        texts = [" ".join(f"{w}/{sum(ws)}" for w in ws) for ws in (a, b)]
        code, out, _ = run_lines(capsys, "real-eq", "--a", texts[0], "--b", texts[1])
        assert code == 0
        return out["result"]

    assert verdict(weights, permuted) == "true"
    assert verdict(weights, moved) == "false"
    assert verdict(weights, other) == "false"


# arbitrary text, and text over the characters the parsers read
CLI_TEXT = st.one_of(st.text(max_size=30), st.text(alphabet="0123456789:,-+/ .eE_", max_size=30))
SMALL_INTS = st.one_of(st.sampled_from(["0", "1", "2", "3", "4", "5", "-1"]), CLI_TEXT)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(CLI_TEXT, SMALL_INTS, SMALL_INTS, st.lists(CLI_TEXT, max_size=9))
def test_arbitrary_text_raises_only_modent_errors_and_exits_2(text, p, n, values):
    for parse in (cli.parse_mod_dist, cli.parse_rational_dist):
        try:
            parse(text)
        except ModentError:
            pass
    for argv in (
        ["entropy", text],
        ["residue", "--p", p, *text.split()],
        ["interpolate", "--p", p, "--nvars", n, *values],
    ):
        code, err = run_quietly(argv)
        assert code == 0 or (code == 2 and err), (argv, code)
        assert "Traceback" not in err, argv


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=8,
)
# a valid map, {"a", "b"} onto {"x"}, and the path of each field it has
LOSS_PAYLOAD = {
    "domain": {"p": 3, "labels": ["a", "b"], "probs": [2, 2]},
    "codomain": {"p": 3, "labels": ["x"], "probs": [1]},
    "mapping": {"a": "x", "b": "x"},
}
LOSS_FIELDS = [(key,) for key in LOSS_PAYLOAD] + [
    (key, field) for key, value in LOSS_PAYLOAD.items() for field in value
]


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(LOSS_FIELDS), JSON), min_size=1, max_size=3))
def test_arbitrary_json_through_loss_raises_only_modent_errors_and_exits_2(tmp_path_factory, edits):
    payload = json.loads(json.dumps(LOSS_PAYLOAD))
    for path, value in edits:
        target = payload
        for key in path[:-1]:
            if not isinstance(target.get(key), dict):
                target[key] = {}
            target = target[key]
        target[path[-1]] = value
    try:
        finprob.map_from_dict(payload)
    except ModentError:
        pass
    path = tmp_path_factory.mktemp("loss") / "map.json"
    path.write_text(json.dumps(payload))
    code, err = run_quietly(["loss", str(path)])
    assert code == 0 or (code == 2 and err), (payload, code)
    assert "Traceback" not in err, payload
