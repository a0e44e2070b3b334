"""CLI contract: dispatch, exit codes, determinism and cache transparency."""

import hashlib
import json

import mpmath
import pytest
from click.testing import CliRunner

from gwp1 import cli
from gwp1.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, tmp_path, *args):
    return runner.invoke(main, ["--cache-dir", str(tmp_path), *args],
                         catch_exceptions=False)


def test_invariant_value_one(runner, tmp_path):
    result = invoke(runner, tmp_path, "invariant", "--k", "1", "--i", "0", "--g", "0")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["value"] == "1" and data["d"] == 1


def test_invariant_validation_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "invariant",
                                  "--k", "0", "--i", "1", "--g", "0"])
    assert result.exit_code == 2


def test_resolvent_both_routes(runner, tmp_path):
    result = invoke(runner, tmp_path, "resolvent", "--route", "both", "--order", "6")
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True


def test_resolvent_series_emission(runner, tmp_path):
    result = invoke(runner, tmp_path, "resolvent", "--route", "closed-form",
                    "--order", "4")
    data = json.loads(result.output)
    assert data["route"] == "closed-form"
    assert data["alpha"]["vars"] == ["z"]


def test_correlator_csv(runner, tmp_path):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "--format", "csv",
                                  "correlator", "--k", "2", "--orders", "2,2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "index,coeff"


def test_one_point_both_routes(runner, tmp_path):
    result = invoke(runner, tmp_path, "one-point", "--order", "6", "--route", "both")
    assert json.loads(result.output)["routes_agree"] is True


def test_eval_emits_value_and_diagnostics(runner, tmp_path):
    result = invoke(runner, tmp_path, "eval", "--op", "B", "--args", "0.3;1.1")
    data = json.loads(result.output)
    assert data["precision_bits"] == 128
    assert "re" in data["value"] and "det" in data["diagnostics"]


def test_regime_q0_table_match(runner, tmp_path):
    result = invoke(runner, tmp_path, "regime", "--name", "q0", "--k", "2",
                    "--dmax", "2")
    data = json.loads(result.output)
    assert data["pass"] is True and data["table_match"] == {"1": True, "2": True}


def test_determinism_and_cache_transparency(runner, tmp_path):
    args = ["invariant", "--k", "2", "--i", "1,1", "--g", "0"]
    first = invoke(runner, tmp_path, *args).output
    cached = invoke(runner, tmp_path, *args).output
    fresh = runner.invoke(main, ["--cache-dir", str(tmp_path), "--no-cache", *args]).output
    assert first == cached == fresh
    verify = runner.invoke(main, ["--cache-dir", str(tmp_path), "--verify-cache", *args])
    assert verify.exit_code == 0


def test_cache_files_created(runner, tmp_path):
    invoke(runner, tmp_path, "invariant", "--k", "1", "--i", "2", "--g", "1")
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    stored = json.loads(entries[0].read_text())
    assert "payload" in stored and "created_at" in stored


def test_precision_floor(runner, tmp_path):
    result = runner.invoke(main, ["--precision-bits", "40", "eval", "--op", "G",
                                  "--args", "0.3;1"])
    assert result.exit_code == 2


def test_eval_wrong_argument_count_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "eval", "--op", "D",
                                  "--args", "0.3"])
    assert result.exit_code == 2
    assert "D takes 3 arguments, got 1" in result.output
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("op,args,route", [
    ("G", "0.3;1", "bogus"),
    ("H1star", "0.3;1", "trace"),
    ("Dstar", "0.5;0.3;1.1", "series"),
])
def test_eval_route_on_an_op_without_routes_exit_code(runner, tmp_path, op, args, route):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "eval", "--op", op,
                                  "--args", args, "--route", route])
    assert result.exit_code == 2
    assert f"--route applies to D and Hk only, not {op}" in result.output
    assert not list(tmp_path.glob("*.json"))


def test_corrupt_cache_file_is_a_miss(runner, tmp_path):
    args = ["invariant", "--k", "2", "--i", "1,1", "--g", "0"]
    first = invoke(runner, tmp_path, *args).output
    (entry,) = tmp_path.glob("*.json")
    entry.write_text('{"payload": "trunc')
    again = invoke(runner, tmp_path, *args)
    assert again.exit_code == 0 and again.output == first
    assert json.loads(entry.read_text())["payload"] == first.rstrip("\n")


@pytest.mark.parametrize("stored", ["[]", '{"key": "k", "payload": 3}'])
def test_cache_entry_of_wrong_shape_is_a_miss(runner, tmp_path, stored):
    args = ["invariant", "--k", "2", "--i", "1,1", "--g", "0"]
    first = invoke(runner, tmp_path, *args).output
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(stored)
    again = invoke(runner, tmp_path, *args)
    assert again.exit_code == 0 and again.output == first
    assert json.loads(entry.read_text())["payload"] == first.rstrip("\n")


def test_invariant_at_a_forbidden_degree_reports_that_degree(runner, tmp_path):
    result = invoke(runner, tmp_path, "invariant", "--k", "1", "--i", "0", "--g", "0",
                    "--d", "2")
    data = json.loads(result.output)
    assert result.exit_code == 0
    assert data["structural_zero"] is True and data["value"] == "0" and data["d"] == 2


def test_unwritable_cache_dir_exit_code(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = str(blocker / "sub")
    result = runner.invoke(main, ["--cache-dir", cache_dir, "invariant", "--k", "1",
                                  "--i", "0", "--g", "0"])
    assert result.exit_code == 2
    assert result.output.count("\n") == 1 and cache_dir in result.output


def test_unwritable_output_file_exit_code(runner, tmp_path):
    out = str(tmp_path / "missing" / "dir" / "out.json")
    result = runner.invoke(main, ["--no-cache", "--output", out, "invariant", "--k", "1",
                                  "--i", "0", "--g", "0"])
    assert result.exit_code == 2
    assert result.output.count("\n") == 1 and out in result.output


def test_changed_sources_give_a_new_cache_key(monkeypatch):
    params = {"k": 1, "insertions": [0], "g": 0, "m": 0, "d": None}
    key = cli._cache_key("invariant", params)
    assert cli._cache_key("invariant", params) == key
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cli._cache_key("invariant", params) != key


def test_eval_large_coupling_is_accurate(runner, tmp_path):
    # 140 bits cancel in G(0.3; 25); at a fixed 128 bits this printed -4005.96
    result = invoke(runner, tmp_path, "eval", "--op", "G", "--args", "0.3;25")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["value"]["re"].startswith("1.4603821613629082775")
    assert data["precision_bits"] == 128 and data["working_bits"] > 128 + data["bits_lost"]
    assert data["bits_lost"] > 100
    mp = mpmath.mp.clone()
    mp.prec = 400
    h = mp.mpf(1) / 2
    z = mp.mpf("0.3")  # the argument as typed, not its binary64 neighbour
    true = mp.hyp1f2(h, h - z, h + z, -4 * mp.mpf(25) ** 2)
    assert abs(mp.mpf(data["value"]["re"]) - true) <= mp.mpf(data["err_bound"])
    again = invoke(runner, tmp_path, "eval", "--op", "G", "--args", "0.3;25")
    assert again.output == result.output


def test_eval_precision_cap_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "--precision-bits", "40000",
                                  "eval", "--op", "G", "--args", "0.3;1"])
    assert result.exit_code == 2
    assert "exceeds the cap" in result.output


def test_eval_coincident_points_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "eval", "--op", "Hk",
                                  "--args", "0.3;0.3;1.1"])
    assert result.exit_code == 2
    assert "distinct" in result.output


@pytest.mark.parametrize("args,sha256", [
    (["--name", "q0", "--k", "2", "--dmax", "3"],
     "0c9145dbe7db91ab62282749da72c4e68cdbb3d2c0ac4edaea18db31a6b0bb6c"),
    (["--name", "einf", "--k", "3", "--gmax", "3"],
     "fb15731732f1bfff129eeabb9938aba3556200596b363d7d15531e9acb25a85a"),
    (["--name", "q0", "--k", "3", "--dmax", "2"],
     "720cba19fcbe4e8e3181277d90945d4ebe8d931f17c607632c5e72185058006d"),
    (["--name", "einf", "--k", "1", "--gmax", "3"],
     "655df048405237e6b4f07d2fa6eded7baa5d788d1a47e885cff9bfb687bcf9f6"),
    (["--name", "einf", "--k", "2", "--gmax", "3"],
     "c61a0bb711752cc49afc6877697f4fefc52938c28f4753af951322fbe637909f"),
])
def test_exact_regime_payloads_are_pinned(runner, tmp_path, args, sha256):
    result = invoke(runner, tmp_path, "--no-cache", "regime", *args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == sha256


@pytest.mark.parametrize("args,uncompared", [
    (["--name", "q0", "--k", "3", "--dmax", "3"], [3]),
    (["--name", "q0", "--k", "2", "--dmax", "4"], [4]),
    (["--name", "einf", "--k", "3", "--gmax", "4"], [4]),
    (["--name", "q0", "--k", "2", "--dmax", "3"], None),
])
def test_regime_names_the_indices_it_did_not_compare(runner, tmp_path, args, uncompared):
    result = invoke(runner, tmp_path, "--no-cache", "regime", *args)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["pass"] is True and data.get("uncompared") == uncompared
    assert not {str(i) for i in uncompared or ()} & set(data["table_match"])


def test_correlator_negative_order_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "correlator", "--k", "2",
                                  "--orders", "-1,2"])
    assert result.exit_code == 2
    assert "orders must be >= 0" in result.output
    assert not list(tmp_path.glob("*.json"))


def test_regime_one_point_q0_compares_with_the_oracle(runner, tmp_path):
    result = invoke(runner, tmp_path, "--no-cache", "regime", "--name", "q0", "--k", "1",
                    "--dmax", "2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["pass"] is True and data["oracle_match"] == {"1": True, "2": True}
    assert "table_match" not in data


def test_eval_kernel_series_at_an_integer_gap(runner, tmp_path):
    # a - b = 2: the term ratio into n = 2 is 0/0 (a ZeroDivisionError before);
    # the product route gives the same digits at 128 and 256 bits
    result = invoke(runner, tmp_path, "eval", "--op", "D", "--args", "2.25;0.25;1.1",
                    "--route", "series")
    assert result.exit_code == 0
    assert json.loads(result.output)["value"]["re"].startswith("-0.0625950261024956958499088")


@pytest.mark.parametrize("op,args,route", [
    ("j", "-0.5;1.3", None),
    ("J", "-1;1.3", None),
    ("Dstar", "0.5;0.25;1.1", None),
    ("D", "0.3;0.3;1.1", "series"),
])
def test_eval_series_pole_exit_code(runner, tmp_path, op, args, route):
    result = invoke(runner, tmp_path, "eval", "--op", op, "--args", args,
                    *(["--route", route] if route else []))
    assert result.exit_code == 2
    assert "pole" in result.output


def test_eval_arguments_keep_their_digits(runner, tmp_path):
    # binary64 rounds 2.0000000000000000001 to 2; the value there differs from
    # the 18th digit on
    near, at_two = (
        json.loads(invoke(runner, tmp_path, "eval", "--op", "D", "--args", f"{a};0;1.1",
                          "--route", "series").output)
        for a in ("2.0000000000000000001", "2")
    )
    assert near["args"][0]["re"] == "2.0000000000000000001"
    assert at_two["args"][0] == {"re": "2.0", "im": "0.0"}
    assert near["value"] != at_two["value"]
    both = invoke(runner, tmp_path, "eval", "--op", "D", "--args", "2.0000000000000000001;0;1.1",
                  "--route", "both")
    assert json.loads(both.output)["value"] == near["value"]


@pytest.mark.parametrize("op,args", [
    ("G", "inf;1"),
    ("G", "0.3;-inf"),
    ("G", "nan;1"),
    ("G", "1e400;1"),
    ("G", "0.3+1e400i;1"),
    ("Hk", "1e400;0.5;1"),
    ("D", "1e400;0.3;1.1"),
])
def test_eval_rejects_arguments_beyond_binary64(runner, tmp_path, op, args):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "eval", "--op", op,
                                  "--args", args])
    assert result.exit_code == 2
    assert "bad arguments" in result.output
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("args,message", [
    (["--name", "eps0", "--k", "4"], "k <= 3"),
    (["--name", "eps0", "--k", "2", "--gmax", "2"], "no eps0 table entry for k=2, g=2"),
    (["--name", "qinf", "--k", "4"], "k <= 3"),
    (["--name", "q0", "--k", "4", "--dmax", "1"], "no q0 entry for k=4"),
    (["--name", "einf", "--k", "4", "--gmax", "0"], "no einf entry for k=4"),
    (["--name", "q0", "--k", "2", "--dmax", "0"], "no q0 entry for k=2 and 1 <= d <= 0"),
    (["--name", "q0", "--k", "1", "--dmax", "0"], "no q0 entry for k=1 and 1 <= d <= 0"),
    (["--name", "qinf", "--k", "2", "--dmax", "4"], "no qinf table entry for k=2, d=4"),
    (["--name", "qinf", "--k", "2", "--dmax", "5"], "no qinf table entry for k=2, d=5"),
    (["--name", "qinf", "--k", "3", "--dmax", "3"], "no qinf table entry for k=3, d=3"),
    (["--name", "qinf", "--k", "1", "--dmax", "5"], "no qinf table entry for k=1, d=5"),
    (["--name", "qinf", "--k", "1", "--dmax", "6"], "no qinf table entry for k=1, d=6"),
])
def test_regime_outside_the_tables_exit_code(runner, tmp_path, args, message):
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "--no-cache", "regime", *args])
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("args,sha256", [
    (["resolvent", "--route", "both", "--order", "12"],
     "3cbc7ccabd3fd4a6c851b46fa52d4ed1495e262f95a5bcc9fed68ea11dec5a91"),
    (["one-point", "--order", "10", "--route", "oracle"],
     "0b73913b6761c95703c81262f7bafbb9789a3e2aab93f1ef14c812b230b78c7a"),
])
def test_series_payloads_are_pinned(runner, tmp_path, args, sha256):
    result = invoke(runner, tmp_path, "--no-cache", *args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == sha256
