"""cli module: commands, exit codes, JSON output contract."""

import json

import pytest

from bsdkit.cli import main

from conftest import fixture_path


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

    def test_function_in_J_exit3(self, capsys):
        code, out, err = run(capsys, "vanishing-order",
                             fixture_path("sect31.json"),
                             "--component", "D0",
                             "--function", "y^2 - x^2 + 2*x + 2")
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

    def test_unknown_component_exit2(self, capsys):
        code, _, _ = run(capsys, "vanishing-order",
                         fixture_path("sect31.json"),
                         "--component", "D9", "--function", "2")
        assert code == 2

    def test_truncated_ring_kills_function(self, tmp_path, capsys):
        # y^8 - x^8 + 2x + 2, xz = 2: D0 has multiplicity 8, so ord(4) = 16;
        # --truncate 9 runs over ZZ/2^2, where 4 = 0
        model = {
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
        path = tmp_path / "c2_k8.json"
        path.write_text(json.dumps(model))
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

    def test_bad_ring_exit2(self, capsys):
        code, _, _ = run(capsys, "gb", "--vars", "x", "--ring", "Z/6", "x")
        assert code == 2

    def test_strong_pseudoprime_ring_exit2(self, capsys):
        # 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
        code, out, err = run(capsys, "gb", "x^2+1", "--vars", "x", "--ring",
                             "Z/318665857834031151167461^2")
        assert code == 2 and out == ""
        assert "not prime" in err

    def test_parse_error_exit2(self, capsys):
        code, out, _ = run(capsys, "gb", "--vars", "x", "--ring", "ZZ",
                           "x + + 1")
        assert code == 2 and out == ""


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

    def test_deterministic(self, capsys):
        a = run_json(capsys, "extend-field", "--ell", "2", "--p", "3",
                     "--seed", "7", "--iters", "20")
        b = run_json(capsys, "extend-field", "--ell", "2", "--p", "3",
                     "--seed", "7", "--iters", "20")
        assert a == b


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
