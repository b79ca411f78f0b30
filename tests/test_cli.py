"""Tests for the command-line interface: output contract and round-trips."""

import json
import random

import pytest

from modent import cli
from modent.errors import ParseError, SumNotOne
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


def test_parse_dist_dispatch():
    from modent.distributions import ModDist
    from modent.residue import RationalDist

    assert isinstance(cli.parse_dist("3:2,2"), ModDist)
    assert isinstance(cli.parse_dist("1/2 1/4 1/4"), RationalDist)


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


def test_usage_errors_exit_2(capsys):
    assert cli.run(["entropy", "3:1,1"]) == 2
    err = capsys.readouterr().err
    assert "sum to 2" in err
    assert cli.run(["fq", "--p", "5", "10"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run(["interpolate", "--p", "2", "--nvars", "2", "1", "0"]) == 2


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
    ],
    ids=["no-probs", "labels-not-a-list", "top-level-list"],
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
