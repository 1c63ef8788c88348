"""cli module: commands, exit codes, JSON output contract."""

import json
import os
import subprocess
import sys

import pytest

import bsdkit
from bsdkit.cli import build_parser, main
from bsdkit.vanishing import MAX_ORDER_BUDGET

from conftest import alarm, fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# tamagawa

class TestTamagawa:
    def test_cycle5(self, capsys):
        doc = run_json(capsys, "tamagawa", fixture_path("cycle5.json"))
        assert doc["c_p"] == 5
        assert doc["invariant_factors"] == [5]

    def test_single_component(self, capsys):
        doc = run_json(capsys, "tamagawa", fixture_path("single.json"))
        assert doc["c_p"] == 1
        assert doc["invariant_factors"] == []

    def test_asymmetric_matrix_exit3(self, capsys):
        code, out, err = run(capsys, "tamagawa", fixture_path("asym.json"))
        assert code == 3
        assert out == ""
        assert err  # names the offending pair

    def test_disconnected_exit3(self, capsys):
        # two disjoint 3-cycles pass every structural check
        code, out, err = run(capsys, "tamagawa",
                             fixture_path("disconnected.json"))
        assert (code, out) == (3, "")
        assert err == ("error: intersection graph is disconnected "
                       "(matrix rank 4 != 5)\n")

    def test_p_mismatch(self, capsys):
        code, _, err = run(capsys, "tamagawa", fixture_path("cycle5.json"),
                           "--p", "5")
        assert code == 2

    def test_missing_file_exit2(self, capsys):
        code, out, _ = run(capsys, "tamagawa",
                           fixture_path("no_such_file.json"))
        assert code == 2 and out == ""

    def test_malformed_json_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run(capsys, "tamagawa", str(bad))
        assert code == 2 and out == ""


# ---------------------------------------------------------------------------
# vanishing-order

# y^8 - x^8 + 2x + 2, xz = 2: D0 has multiplicity 8
C2_K8 = {
    "p": 2,
    "patches": [{"id": "U", "variables": ["x", "y", "z"],
                 "equations": ["y^8 - x^8 + 2*x + 2", "x*z - 2"]}],
    "special_fibre": {
        "components": [{"id": "D0", "patch": "U",
                        "prime_ideal": ["x + y", "z", "2"],
                        "multiplicity": 8}],
        "intersections": [[0]],
        "frobenius": {"D0": "D0"},
    },
}


class TestVanishingOrder:
    def test_paper_example(self, capsys):
        doc = run_json(capsys, "vanishing-order",
                       fixture_path("sect31.json"),
                       "--component", "D0", "--function", "2")
        assert doc == {"order": 2, "exact": True}

    def test_unit(self, capsys):
        doc = run_json(capsys, "vanishing-order",
                       fixture_path("sect31.json"),
                       "--component", "D0", "--function", "1")
        assert doc == {"order": 0, "exact": True}

    @pytest.mark.parametrize("flags", [(), ("--truncate", "5"),
                                       ("--budget", "5")],
                             ids=["no-flag", "truncate5", "budget5"])
    def test_function_in_J_exit3(self, capsys, flags):
        code, out, err = run(capsys, "vanishing-order",
                             fixture_path("sect31.json"),
                             "--component", "D0",
                             "--function", "y^2 - x^2 + 2*x + 2", *flags)
        assert code == 3 and out == ""
        assert "vanishes" in err

    def test_truncated(self, capsys):
        doc = run_json(capsys, "vanishing-order",
                       fixture_path("sect31.json"),
                       "--component", "D0", "--function", "2",
                       "--truncate", "3")
        assert doc == {"order": 2, "exact": True}

    def test_direct_mode(self, capsys):
        doc = run_json(capsys, "vanishing-order",
                       fixture_path("sect31.json"),
                       "--component", "D0", "--function", "2",
                       "--mode", "direct")
        assert doc["order"] == 2

    def test_parses_patches_once(self, capsys, monkeypatch):
        import bsdkit.modelfile as modelfile
        calls = []
        parse = modelfile.parse_patches
        monkeypatch.setattr(modelfile, "parse_patches",
                            lambda doc: calls.append(1) or parse(doc))
        doc = run_json(capsys, "vanishing-order",
                       fixture_path("sect31.json"),
                       "--component", "D0", "--function", "2")
        assert doc == {"order": 2, "exact": True}
        assert len(calls) == 1

    def test_unknown_component_exit2(self, capsys):
        code, _, _ = run(capsys, "vanishing-order",
                         fixture_path("sect31.json"),
                         "--component", "D9", "--function", "2")
        assert code == 2

    def test_truncated_ring_kills_function(self, tmp_path, capsys):
        # y^8 - x^8 + 2x + 2, xz = 2: D0 has multiplicity 8, so ord(4) = 16;
        # --truncate 9 runs over ZZ/2^2, where 4 = 0
        path = tmp_path / "c2_k8.json"
        path.write_text(json.dumps(C2_K8))
        doc = run_json(capsys, "vanishing-order", str(path),
                       "--component", "D0", "--function", "4",
                       "--truncate", "9")
        assert doc == {"order": 9, "exact": False}


# ---------------------------------------------------------------------------
# period

class TestPeriod:
    def test_neron_ready(self, capsys):
        doc = run_json(capsys, "period", fixture_path("genus2_p2.json"),
                       "--matrix-file", fixture_path("matrix_g2.json"))
        assert doc["W"] == {"2": "1"}
        assert float(doc["omega"]) == pytest.approx(2 * float(doc["P"]))

    def test_scaled_fixture_same_omega(self, capsys):
        base = run_json(capsys, "period", fixture_path("genus2_p2.json"),
                        "--matrix-file", fixture_path("matrix_g2.json"))
        # differentials scaled by p at p=2: W_p compensates
        scaled = run_json(capsys, "period",
                          fixture_path("genus2_p2_scaled.json"),
                          "--matrix-file", fixture_path("matrix_g2.json"))
        assert scaled["W"] == {"2": "1/4"}

    def test_missing_chart_exit2(self, tmp_path, capsys):
        import json as _json
        with open(fixture_path("genus2_p2.json")) as fh:
            doc = _json.load(fh)
        doc["charts"] = []
        bad = tmp_path / "nochart.json"
        bad.write_text(_json.dumps(doc))
        code, out, _ = run(capsys, "period", str(bad),
                           "--matrix-file", fixture_path("matrix_g2.json"))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("k, exit_code", [(1000, 3), (64, 0)])
    def test_field_degree_cap(self, tmp_path, capsys, k, exit_code):
        # GF(2^1000) is refused before any modulus is searched; the cap
        # admits GF(2^64)
        with open(fixture_path("genus2_p2.json")) as fh:
            doc = json.load(fh)
        doc["charts"][0]["sample_points"][0]["field_degree"] = k
        path = tmp_path / f"degree{k}.json"
        path.write_text(json.dumps(doc))
        with alarm(10):
            code, out, err = run(capsys, "period", str(path), "--matrix-file",
                                 fixture_path("matrix_g2.json"))
        assert code == exit_code, err
        if exit_code:
            assert out == "" and "exceeds the cap 64" in err

    def test_field_size_cap(self, tmp_path, capsys):
        # GF(1000003^64) is within the degree cap, but its k*bits(p) of
        # 1280 is refused before any modulus is searched
        with open(fixture_path("genus2_p2.json")) as fh:
            doc = json.load(fh)
        doc["p"] = 1000003
        doc["special_fibre"]["components"][0]["prime_ideal"][1] = "1000003"
        doc["charts"][0]["sample_points"][0]["field_degree"] = 64
        path = tmp_path / "size1280.json"
        path.write_text(json.dumps(doc))
        with alarm(10):
            code, out, err = run(capsys, "period", str(path), "--matrix-file",
                                 fixture_path("matrix_g2.json"))
        assert code == 3 and out == ""
        assert "1280 exceeds the cap 256" in err

    @pytest.mark.parametrize("variables, numerator", [
        (["u", "v"], "u"),      # other names: the charts' cannot read it
        (["x", "y"], "x")])     # the same names on another patch
    def test_differential_off_the_charts_patch_exit2(
            self, tmp_path, capsys, variables, numerator):
        with open(fixture_path("genus2_p2.json")) as fh:
            doc = json.load(fh)
        doc["patches"].append({"id": "V", "variables": variables,
                               "equations": [f"{numerator}^2 - 1"]})
        doc["differentials"][1] = {"patch": "V", "numerator": numerator,
                                   "denominator": "1"}
        path = tmp_path / "offpatch.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "period", str(path), "--matrix-file",
                             fixture_path("matrix_g2.json"))
        assert (code, out) == (2, "")
        assert err == ("error: differential on patch 'V', but the charted "
                       "components are on 'U'\n")

    @pytest.mark.parametrize("base", ["dy", "dz"])
    def test_differential_base_other_than_dx_exit2(self, tmp_path, capsys,
                                                   base):
        # the charts' local generators are on dx; another base was read as
        # dx before, so genus2_p2_scaled printed W_2 = 1/4 either way
        with open(fixture_path("genus2_p2_scaled.json")) as fh:
            doc = json.load(fh)
        doc["differentials"][0]["base"] = base
        path = tmp_path / f"{base}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "period", str(path), "--matrix-file",
                             fixture_path("matrix_g2.json"))
        assert (code, out) == (2, "")
        assert err == (f"error: differential base '{base}': the charts' "
                       "local generators are on dx\n")

    @pytest.mark.parametrize("differentials, message", [
        # dependent over QQ: step 6's candidate c = (1, 1) is 0
        ([("1", "1"), ("-1", "1")], "the differentials are dependent: their "
         "combination [1, 1] has its numerator 0"),
        # dependent on the curve: 1 + (y^2 - x^5 - x - 2) lies in J
        ([("1", "1"), ("y^2 - x^5 - x - 2", "1")], "the differentials are "
         "dependent: their combination [1, 1] has its numerator "
         "-x^5 + y^2 - x - 1"),
        # a differential with a side in J names that side
        ([("y^2 - x^5 - x - 1", "1"), ("x", "1")],
         "the differential has its numerator -x^5 + y^2 - x - 1"),
        ([("1", "y^2 - x^5 - x - 1"), ("x", "1")],
         "the differential has its denominator -x^5 + y^2 - x - 1"),
    ], ids=["zero", "in-J", "numerator-in-J", "denominator-in-J"])
    def test_dependent_or_vanishing_differential_exit3(
            self, tmp_path, capsys, differentials, message):
        with open(fixture_path("genus2_p2.json")) as fh:
            doc = json.load(fh)
        doc["differentials"] = [{"patch": "U", "numerator": n,
                                 "denominator": d} for n, d in differentials]
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "period", str(path), "--matrix-file",
                             fixture_path("matrix_g2.json"))
        assert (code, out) == (3, "")
        assert err == (f"error: {message} in the patch ideal (identically "
                       "zero on the patch)\n")

    def test_equal_differentials_exit3(self, tmp_path, capsys):
        # (dx, dx): step 6 divides dx + dx = 2dx back to dx until the cap
        with open(fixture_path("genus2_p2.json")) as fh:
            doc = json.load(fh)
        doc["differentials"][1] = doc["differentials"][0]
        path = tmp_path / "equal.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "period", str(path), "--matrix-file",
                             fixture_path("matrix_g2.json"))
        assert (code, out) == (3, "")
        assert err == "error: adjustment loop exceeded its termination cap\n"

    def test_repeated_prime_exit2(self, capsys):
        scaled = fixture_path("genus2_p2_scaled.json")
        code, out, err = run(capsys, "period", scaled, scaled,
                             "--matrix-file", fixture_path("matrix_g2.json"))
        assert code == 2 and out == ""
        assert "p = 2" in err


# ---------------------------------------------------------------------------
# gb

class TestGb:
    def test_unit_ideal(self, capsys):
        doc = run_json(capsys, "gb", "--vars", "x,y", "--ring", "ZZ",
                       "1", "x + y")
        assert doc["basis"] == ["1"]

    def test_mod8_strong(self, capsys):
        doc = run_json(capsys, "gb", "--vars", "x,y", "--ring", "Z/2^3",
                       "2*x + 2", "2*y + 2", "4")
        assert any(b == "4" for b in doc["basis"])

    def test_paper_i2(self, capsys):
        doc = run_json(capsys, "gb", "--vars", "x,y", "--ring", "ZZ",
                       "x^2 + 2*x*y + y^2 + y^2 - x^2 + 2*x + 2",
                       "x^2 + 2*x*y + y^2", "2*x^2 + 2*x*y",
                       "2*x*y + 2*y^2", "4*x", "4*y", "4",
                       "y^2 - x^2 + 2*x + 2")
        assert doc["basis"]  # deterministic reduced strong GB

    @pytest.mark.parametrize("args, basis", [
        (["--ring", "GF(3)", "--vars", "x,y,z", "x^2 + y*z", "y^2 - x",
          "z^3 - x*y"], ["z^3 + 2*x*y", "x^2 + y*z", "y^2 + 2*x"]),
        (["--ring", "GF(2^2)", "--vars", "x,y", "x^2 + y", "x*y + 1"],
         ["(1)*x^2 + (1)*y", "(1)*x*y + (1)", "(1)*y^2 + (1)*x"]),
        (["--ring", "GF(5)", "--order", "lex", "--vars", "x,y", "x^2 + y",
          "y^3 + x"], ["x + y^3", "y^6 + y"])],
        ids=["GF3", "GF4", "GF5-lex"])
    def test_field_bases(self, capsys, args, basis):
        doc = run_json(capsys, "gb", *args)
        assert doc == {"basis": basis, "size": len(basis)}

    def test_bad_ring_exit2(self, capsys):
        code, _, _ = run(capsys, "gb", "--vars", "x", "--ring", "Z/6", "x")
        assert code == 2

    def test_large_prime_modulus(self, capsys):
        doc = run_json(capsys, "gb", "x + 1000000008", "--vars", "x",
                       "--ring", "Z/1000000007")
        assert doc == {"basis": ["x + 1"], "size": 1}

    def test_modulus_without_exponent(self, capsys):
        gens = ["2*x*y + y", "x^2 + 1"]
        assert (run(capsys, "gb", *gens, "--vars", "x,y", "--ring", "Z/8")
                == run(capsys, "gb", *gens, "--vars", "x,y",
                       "--ring", "Z/2^3"))

    @pytest.mark.parametrize("spec", ["Z/abc", "GF(x)", "Z/2^x", "GF(2^x)"])
    def test_non_numeric_ring_exit2(self, capsys, spec):
        code, out, err = run(capsys, "gb", "x", "--vars", "x", "--ring", spec)
        assert code == 2 and out == ""
        assert "is not an integer" in err and spec in err

    @pytest.mark.parametrize("modulus", ["12", "1"])
    def test_not_prime_power_exit2(self, capsys, modulus):
        code, out, err = run(capsys, "gb", "x", "--vars", "x",
                             "--ring", f"Z/{modulus}")
        assert code == 2 and out == ""
        assert "not a prime power" in err

    def test_strong_pseudoprime_ring_exit2(self, capsys):
        # 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
        code, out, err = run(capsys, "gb", "x^2+1", "--vars", "x", "--ring",
                             "Z/318665857834031151167461^2")
        assert code == 2 and out == ""
        assert "not prime" in err

    def test_field_degree_cap_exit2(self, capsys):
        with alarm(10):
            code, out, err = run(capsys, "gb", "--vars", "x", "--ring",
                                 "GF(2^1000)", "x")
        assert code == 2 and out == ""
        assert "degree 1000 exceeds the cap 64" in err

    def test_field_size_cap_exit2(self, capsys):
        with alarm(10):
            code, out, err = run(capsys, "gb", "--vars", "x", "--ring",
                                 "GF(1000003^64)", "x")
        assert code == 2 and out == ""
        assert "1280 exceeds the cap 256" in err

    @pytest.mark.parametrize("spec", ["GF(2^64)", "GF(3^64)"])
    def test_fields_within_size_cap(self, capsys, spec):
        with alarm(30):
            doc = run_json(capsys, "gb", "--vars", "x", "--ring", spec,
                           "x^2 - 1")
        assert doc["size"] == 1

    def test_large_prime_field(self, capsys):
        # no x^4 + c is irreducible over GF(1000003), and the search skips
        # all of them
        with alarm(10):
            doc = run_json(capsys, "gb", "--vars", "x", "--ring",
                           "GF(1000003^4)", "x^2 - 1")
        assert doc["size"] == 1

    def test_modulus_search_cap_exit2(self, capsys, monkeypatch):
        # GF(23^7) tests 104 candidates for its modulus
        from bsdkit import rings
        monkeypatch.setattr(rings, "MAX_MODULUS_CANDIDATES", 103)
        code, out, err = run(capsys, "gb", "--vars", "x", "--ring",
                             "GF(23^7)", "x")
        assert code == 2 and out == ""
        assert "first 103 candidates tested" in err

    def test_parse_error_exit2(self, capsys):
        code, out, _ = run(capsys, "gb", "--vars", "x", "--ring", "ZZ",
                           "x + + 1")
        assert code == 2 and out == ""


# ---------------------------------------------------------------------------
# the polynomial parser refuses deep nesting and exponent overflow with a
# ParseError on every route: exit 2, one line on stderr

TOO_DEEP = ["(" * 1200 + "x" + ")" * 1200, "x*" + "-" * 1200 + "x",
            "(" * 3000 + "x" + ")" * 3000]
OVERFLOW = "x^40000*x^40000"
PARSE_LIMITS = [(text, "nesting depth exceeds the cap 100")
                for text in TOO_DEEP] + [(OVERFLOW, "exponent overflow in")]


def _refused_in_one_line(code, out, err, message):
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", PARSE_LIMITS,
                         ids=["parens", "minus", "parens3000", "overflow"])
def test_parse_limit_function_exit2(capsys, text, message):
    _refused_in_one_line(*run(capsys, "vanishing-order",
                              fixture_path("sect31.json"), "--component",
                              "D0", "--function", text), message)


@pytest.mark.parametrize("text, message", PARSE_LIMITS,
                         ids=["parens", "minus", "parens3000", "overflow"])
def test_parse_limit_gb_exit2(capsys, text, message):
    _refused_in_one_line(*run(capsys, "gb", "--vars", "x,y", text), message)


@pytest.mark.parametrize("text, message", PARSE_LIMITS,
                         ids=["parens", "minus", "parens3000", "overflow"])
def test_parse_limit_model_equation_exit2(tmp_path, capsys, text, message):
    bad = _malformed(tmp_path, "sect31.json", ("patches", 0, "equations", 0),
                     text)
    _refused_in_one_line(*run(capsys, "vanishing-order", bad, "--component",
                              "D0", "--function", "2"), message)


# ---------------------------------------------------------------------------
# extend-field

class TestExtendField:
    def test_quadratic(self, capsys):
        doc = run_json(capsys, "extend-field", "--ell", "2", "--p", "2",
                       "--seed", "1", "--iters", "10")
        assert doc["degree"] == 2
        assert [c % 2 for c in doc["defining_poly"]] == [1, 1, 1]

    def test_registry_degrees(self, capsys):
        doc = run_json(capsys, "extend-field", "--ell", "2,3", "--p", "2",
                       "--seed", "1", "--iters", "5")
        assert doc["degree"] == 6
        assert sorted(int(d) for d in doc["registry"]) == [1, 2, 3, 6]

    def test_moderate_prime(self, capsys):
        # x^3 + c is never irreducible over GF(521): 3 does not divide 520
        with alarm(10):
            doc = run_json(capsys, "extend-field", "--ell", "3", "--p",
                           "521", "--seed", "1", "--iters", "5")
        assert doc["degree"] == 3
        assert doc["registry"]["3"]["defining_poly"] == [7, 1, 0, 1]

    def test_deterministic(self, capsys):
        a = run_json(capsys, "extend-field", "--ell", "2", "--p", "3",
                     "--seed", "7", "--iters", "20")
        b = run_json(capsys, "extend-field", "--ell", "2", "--p", "3",
                     "--seed", "7", "--iters", "20")
        assert a == b

    def test_wrong_witness_exit3(self, capsys, monkeypatch):
        # the registry's check is the one check of each witness
        from bsdkit.fieldtower import FieldTower
        from bsdkit.rings import QQ, up
        monkeypatch.setattr(FieldTower, "embed",
                            lambda self, sub, node: up(QQ, (1,))
                            if sub.degree > 1 else ())
        code, out, err = run(capsys, "extend-field", "--ell", "2,3",
                             "--p", "2", "--seed", "1")
        assert (code, out) == (3, "")
        assert "failed verification" in err

    def test_work_counts(self, capsys, monkeypatch):
        # machine-independent counts of one small tower: Ben-Or's test
        # stops each candidate at its smallest factor and an irreducible
        # one at rung n/2 (one up_powmod call a rung), and each embedding
        # witness is composed once, when the registry is built
        from bsdkit import fieldtower, rings
        calls = {"up_powmod": 0, "_compose_mod": 0}

        def count(module, name):
            orig = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return orig(*args)
            monkeypatch.setattr(module, name, counted)

        count(rings, "up_powmod")
        count(fieldtower, "_compose_mod")
        run_json(capsys, "extend-field", "--ell", "2,3", "--p", "2",
                 "--seed", "1", "--iters", "0")
        assert calls == {"up_powmod": 7, "_compose_mod": 8}


# ---------------------------------------------------------------------------
# numeric flags out of range: exit 2, nothing on stdout, the flag on stderr

PERIOD = ("period", "genus2_p2.json", "--matrix-file", "matrix_g2.json")
VANISHING = ("vanishing-order", "sect31.json", "--component", "D0",
             "--function", "x+y")
BAD_NUMBERS = [
    (("extend-field", "--ell", "2,x", "--p", "3"), "--ell"),
    (("extend-field", "--ell", "2", "--p", "3", "--iters", "-3"), "--iters"),
    (PERIOD + ("--tol", "-1"), "--tol"),
    (PERIOD + ("--tol", "nan"), "--tol"),
    (PERIOD + ("--tol", "inf"), "--tol"),
    (PERIOD + ("--tol", "2"), "--tol"),
    (VANISHING + ("--budget", "-3"), "--budget"),
    (VANISHING + ("--budget", "0"), "--budget"),
    (VANISHING + ("--truncate", "0"), "--truncate"),
]


@pytest.mark.parametrize("argv, flag", BAD_NUMBERS,
                         ids=[f"{f} {a[a.index(f) + 1]}"
                              for a, f in BAD_NUMBERS])
def test_bad_numeric_flag_exit2(capsys, argv, flag):
    argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("flag", ["--truncate", "--budget"])
def test_threshold_above_cap_exits_before_the_model_loads(
        monkeypatch, capsys, tmp_path, flag):
    # --truncate R picks ZZ/2^(floor(R/8)+1) on this model; R = 10^8 ran
    # for more than 20 s before the cap
    path = tmp_path / "c2_k8.json"
    path.write_text(json.dumps(C2_K8))
    argv = ["vanishing-order", str(path), "--component", "D0",
            "--function", "x+y", flag]

    def refuse(path):
        raise AssertionError("the model was loaded")

    monkeypatch.setattr(bsdkit.cli, "load_model", refuse)
    with alarm(10):
        code, out, err = run(capsys, *argv, "100000000")
    assert (code, out) == (2, "")
    assert err == (f"error: {flag} 100000000 exceeds the cap "
                   f"{MAX_ORDER_BUDGET}\n")
    monkeypatch.undo()
    assert run_json(capsys, *argv, str(MAX_ORDER_BUDGET)) == {
        "order": 1, "exact": True}


def test_tol_zero_answers(capsys):
    argv = [fixture_path(a) if a.endswith(".json") else a for a in PERIOD]
    assert run_json(capsys, *argv, "--tol", "0")["precision"] == "0.0"


# ---------------------------------------------------------------------------
# BSDKIT_GB_BUDGET: read per call, at least 1

SECT31_ORDER_OF_2 = ("vanishing-order", "sect31.json", "--component", "D0",
                     "--function", "2")


def _sect31_order_of_2(capsys):
    return run(capsys, *(fixture_path(a) if a.endswith(".json") else a
                         for a in SECT31_ORDER_OF_2))


def test_gb_budget_holds_for_one_call(capsys, monkeypatch):
    import bsdkit.groebner as groebner
    default = groebner.DEFAULT_MAX_PAIRS
    monkeypatch.setenv("BSDKIT_GB_BUDGET", "1")
    code, out, err = _sect31_order_of_2(capsys)
    assert (code, out) == (3, "")
    assert "pair count exceeds cap 1" in err
    monkeypatch.delenv("BSDKIT_GB_BUDGET")
    code, out, err = _sect31_order_of_2(capsys)
    assert code == 0, err
    assert json.loads(out) == {"order": 2, "exact": True}
    assert groebner.DEFAULT_MAX_PAIRS == default


@pytest.mark.parametrize("value", ["0", "-5"])
def test_gb_budget_below_one_exit2(capsys, monkeypatch, value):
    monkeypatch.setenv("BSDKIT_GB_BUDGET", value)
    code, out, err = _sect31_order_of_2(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: BSDKIT_GB_BUDGET ")


def test_gb_budget_not_an_integer_exit2(capsys, monkeypatch):
    monkeypatch.setenv("BSDKIT_GB_BUDGET", "12k")
    assert _sect31_order_of_2(capsys) == (
        2, "", "error: BSDKIT_GB_BUDGET must be an integer, got '12k'\n")


# ---------------------------------------------------------------------------
# one parser per process: no default, namespace or budget leaks between calls

def test_parser_built_once():
    assert build_parser() is build_parser()


# (argv, BSDKIT_GB_BUDGET or None); at --ell 2,2 the seed changes the
# answer, so a --seed 5 left behind in the parser would show
REUSE_SEQUENCE = [
    (("vanishing-order", "sect31.json", "--function", "2"), None),
    (("tamagawa", "cycle5.json"), None),
    (("extend-field", "--ell", "2,2", "--p", "3", "--seed", "5"), None),
    (("extend-field", "--ell", "2,2", "--p", "3"), None),
    (SECT31_ORDER_OF_2, "1"),
    (SECT31_ORDER_OF_2, None),
]


def _alone(argv, budget):
    """Exit code and stdout of one CLI call in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "BSDKIT_GB_BUDGET"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bsdkit.__file__))
    if budget is not None:
        env["BSDKIT_GB_BUDGET"] = budget
    proc = subprocess.run([sys.executable, "-m", "bsdkit.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    return proc.returncode, proc.stdout


def test_calls_in_one_process_match_calls_alone(capsys, monkeypatch):
    got = []
    for argv, budget in REUSE_SEQUENCE:
        argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
        if budget is None:
            monkeypatch.delenv("BSDKIT_GB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("BSDKIT_GB_BUDGET", budget)
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse refuses a missing flag
            code = exc.code
        got.append((code, capsys.readouterr().out))
        assert got[-1] == _alone(argv, budget), argv
    assert [code for code, _ in got] == [2, 0, 0, 0, 3, 0]
    assert got[2][1] != got[3][1]


# ---------------------------------------------------------------------------
# malformed files: exit 2, nothing on stdout, the JSON path on stderr

DELETE = object()

# (fixture, JSON path to change, new value or DELETE, path named in stderr)
MALFORMED = [
    # JSON types; a float or a bool is never an integer
    ("cycle5.json", ("p",), 5.0, ".p must be an integer >= 2"),
    ("cycle5.json", ("special_fibre", "components", 3, "multiplicity"), 1.0,
     ".special_fibre.components[3].multiplicity must be an integer >= 1"),
    ("cycle5.json", ("special_fibre", "intersections", 0, 0), -2.0,
     ".special_fibre.intersections[0][0] must be an integer"),
    ("cycle5.json", ("special_fibre", "components", 0, "multiplicity"), True,
     ".special_fibre.components[0].multiplicity must be an integer >= 1"),
    ("cycle5.json", ("special_fibre", "components", 1, "id"), 1,
     ".special_fibre.components[1].id must be a string"),
    ("cycle5.json", ("special_fibre",), [],
     ".special_fibre must be an object"),
    ("cycle5.json", ("special_fibre", "intersections"), {},
     ".special_fibre.intersections must be a list"),
    ("genus2_p2.json", ("patches", 0, "equations", 0), None,
     ".patches[0].equations[0] must be a string"),
    # required keys, optional keys, unknown keys
    ("cycle5.json", ("p",), DELETE, ".p is missing"),
    ("cycle5.json", ("special_fibre", "frobenius"), DELETE,
     ".special_fibre.frobenius is missing"),
    ("genus2_p2.json", ("charts", 0, "generator_denominator"), DELETE,
     ".charts[0].generator_denominator is missing"),
    ("cycle5.json", ("q",), 7, ".q is not a known key"),
    ("genus2_p2.json", ("differentials", 1, "order"), 1,
     ".differentials[1].order is not a known key"),
    # minimums
    ("cycle5.json", ("p",), 1, ".p must be an integer >= 2"),
    ("genus2_p2.json", ("genus",), 0, ".genus must be an integer >= 1"),
    ("cycle5.json", ("special_fibre", "components", 2, "multiplicity"), 0,
     ".special_fibre.components[2].multiplicity must be an integer >= 1"),
    ("genus2_p2.json", ("charts", 0, "sample_points", 1, "field_degree"), 0,
     ".charts[0].sample_points[1].field_degree must be an integer >= 1"),
    ("cycle5.json", ("real_components",), 0,
     ".real_components must be an integer >= 1"),
    # minItems
    ("genus2_p2.json", ("patches", 0, "variables"), [],
     ".patches[0].variables must have length >= 1"),
    ("cycle5.json", ("special_fibre", "components"), [],
     ".special_fibre.components must have length >= 1"),
    # the base enum
    ("genus2_p2.json", ("differentials", 0, "base"), "dw",
     ".differentials[0].base must be one of dx, dy, dz"),
    # exactly two strings per period-matrix entry
    ("genus2_p2.json", ("period_matrix",), [[["1.0", "0.0", "0.0"]]],
     ".period_matrix[0][0] must have length 2"),
    ("genus2_p2.json", ("period_matrix",), [[["1.0", 0]]],
     ".period_matrix[0][0][1] must be a string"),
    # arbitrary-key maps: coords to an integer or an integer list,
    # frobenius to strings
    ("genus2_p2.json", ("charts", 0, "sample_points", 0, "coords", "x"), 1.5,
     ".charts[0].sample_points[0].coords.x must be an integer"),
    ("genus2_p2.json", ("charts", 0, "sample_points", 0, "coords", "y"),
     [1, "0"], ".charts[0].sample_points[0].coords.y[1] must be an integer"),
    ("genus2_p2.json", ("charts", 0, "sample_points", 0, "modulus"), [1.0],
     ".charts[0].sample_points[0].modulus[0] must be an integer"),
    ("cycle5.json", ("special_fibre", "frobenius", "C2"), 2,
     ".special_fibre.frobenius.C2 must be a string"),
    # sample-point coordinates that do not fit their field
    ("genus2_p2.json", ("charts", 0, "sample_points", 1, "coords", "x"),
     [1, 1], ".charts[0].sample_points[1].coords.x must be an integer "
     "(field_degree 1)"),
    ("genus2_p2.json", ("charts", 0, "sample_points", 1),
     {"field_degree": 2, "coords": {"x": 1, "y": [1, 1, 1]}},
     ".charts[0].sample_points[1].coords.y must have length <= 2 "
     "(field_degree 2)"),
    # matrix files
    ("matrix_g2.json", ("real_components",), DELETE,
     ".real_components is missing"),
    ("matrix_g2.json", ("genus",), 2.0, ".genus must be an integer >= 1"),
    ("matrix_g2.json", ("period_matrix", 3, 1), ["0.75"],
     ".period_matrix[3][1] must have length 2"),
    ("matrix_g2.json", ("p",), 2, ".p is not a known key"),
]


def _malformed(tmp_path, fixture, path, value):
    with open(fixture_path(fixture)) as fh:
        doc = json.load(fh)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    bad = tmp_path / fixture
    bad.write_text(json.dumps(doc))
    return str(bad)


@pytest.mark.parametrize("fixture, path, value, message", MALFORMED,
                         ids=[m[3].split()[0] for m in MALFORMED])
def test_malformed_file_names_the_field(tmp_path, capsys, fixture, path,
                                        value, message):
    bad = _malformed(tmp_path, fixture, path, value)
    if fixture.startswith("matrix"):
        argv = ["period", fixture_path("genus2_p2.json"),
                "--matrix-file", bad]
        where = f"matrix file {bad}"
    else:
        argv = ["tamagawa", bad]
        where = f"model file {bad}"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {where}{message}\n"


# ---------------------------------------------------------------------------
# well-shaped files refused by a parser or a check: each through the
# command that reads that fixture

COMMANDS = {
    "sect31.json": lambda path: ["vanishing-order", path, "--component",
                                 "D0", "--function", "2"],
    "cycle5.json": lambda path: ["tamagawa", path],
    "genus2_p2.json": lambda path: ["period", path, "--matrix-file",
                                    fixture_path("matrix_g2.json")],
    "matrix_g2.json": lambda path: ["period", fixture_path("genus2_p2.json"),
                                    "--matrix-file", path],
}


def _duplicate_ids(doc):
    doc["special_fibre"]["components"][1]["id"] = "C0"
    del doc["special_fibre"]["frobenius"]["C1"]


REFUSED = [
    ("sect31.json", lambda d: d["patches"].append(d["patches"][0]), 2,
     "duplicate patch id 'U'"),
    ("sect31.json", lambda d: d["patches"][0].update(variables=["x", "x"]),
     2, "patch 'U' repeats a variable"),
    ("cycle5.json", lambda d: d["special_fibre"]["intersections"].pop(), 2,
     "intersection matrix must be 5x5"),
    ("cycle5.json", lambda d: d["special_fibre"]["frobenius"].update(C9="C0"),
     2, "frobenius references an unknown component id"),
    ("cycle5.json", _duplicate_ids, 3, "duplicate component ids"),
    ("sect31.json",
     lambda d: d["special_fibre"]["components"][0].update(patch="V"), 2,
     "component 'D0' references missing patch 'V'"),
    ("sect31.json",
     lambda d: d["special_fibre"]["components"][0].update(prime_ideal=[]), 2,
     "component 'D0' has no prime_ideal"),
    ("sect31.json", lambda d: d["patches"][0].update(equations=[]), 2,
     "patch 'U' has no equations"),
    ("genus2_p2.json", lambda d: d.pop("genus"), 2,
     "period pipeline needs a genus field"),
    ("genus2_p2.json",
     lambda d: d["charts"].append(dict(d["charts"][0], component="D9")), 2,
     "chart references unknown component 'D9'"),
    ("genus2_p2.json",
     lambda d: d["charts"][0]["sample_points"][0]["coords"].pop("y"), 2,
     "sample point in chart 'D0' misses variable 'y'"),
    ("genus2_p2.json", lambda d: d["differentials"][0].update(patch="V"), 2,
     "differential references missing patch 'V'"),
    ("genus2_p2.json", lambda d: d["differentials"].pop(), 2,
     "expected 2 differentials, got 1"),
    ("matrix_g2.json", lambda d: d["period_matrix"][0][0].__setitem__(0, "a"),
     2, "bad period matrix entry: could not convert string to float: 'a'"),
    ("matrix_g2.json", lambda d: d["period_matrix"].pop(), 2,
     "period matrix must be 4x2"),
]


@pytest.mark.parametrize("fixture, edit, exit_code, message", REFUSED,
                         ids=[m[3] for m in REFUSED])
def test_refused_file_names_the_fault(tmp_path, capsys, fixture, edit,
                                      exit_code, message):
    with open(fixture_path(fixture)) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *COMMANDS[fixture](str(path)))
    assert (code, out, err) == (exit_code, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["gb", "--vars", "x", "--ring", "QQ", "x"],
     "unknown ring spec 'QQ' (use ZZ, Z/p^e, or GF(p^k))"),
    (["gb", "--vars", " , ", "x"], "--vars must name at least one variable"),
    (["extend-field", "--ell", ",", "--p", "2"],
     "--ell must list at least one prime"),
])
def test_refused_flag_names_the_fault(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["gb", "--vars", "x", "--order", "deglex", "x"],
    ["gb", "--vars", "x"]], ids=["unknown-order", "no-generator"])
def test_gb_arguments_refused_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# contract: stdout is JSON exactly when exit code is 0

def test_stdout_json_contract(capsys, tmp_path):
    cases = [
        (["tamagawa", fixture_path("cycle5.json")], 0),
        (["tamagawa", fixture_path("asym.json")], 3),
        (["tamagawa", fixture_path("missing.json")], 2),
    ]
    for argv, want in cases:
        code, out, _ = run(capsys, *argv)
        assert code == want
        if code == 0:
            json.loads(out)
        else:
            assert out == ""
