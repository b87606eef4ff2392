"""End-to-end checks of the command surface.

Covers the exit-code contract (0 success, 2 usage, 3 math-domain, 4 parse),
byte-identical JSON across reruns, table/JSON agreement, stdin via "-", and
validation of every JSON envelope against the committed schema.
"""

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

import apolar.cli
from apolar.cli import main

_SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "cli_schema.json"
_VALIDATOR = Draft7Validator(json.loads(_SCHEMA_PATH.read_text()))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    """Run with --json, validate the envelope, and return (code, doc)."""
    code, out, _ = run(capsys, *argv, "--json")
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    problems = [e.message for e in _VALIDATOR.iter_errors(doc)]
    assert problems == []
    return code, doc


def table_rows(out):
    rows = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        rows[key.rstrip()] = value
    return rows


class TestDocumentedExamples:
    def test_annihilate_recovers_the_plane_curve_ideal(self, capsys):
        code, doc = run_json(
            capsys, "annihilate", "--ring", "QQ[x,y]", "--inverse", "x^-2+y^-3"
        )
        assert code == 0
        assert doc["result"]["generators"] == ["x^2 - y^3", "x*y"]
        assert doc["result"]["quotient_dim"] == 5
        assert doc["ring"] == {"field": "QQ", "variables": ["x", "y"], "weights": [1, 1]}
        assert doc["provenance"] == {"seed": None, "bound": 5, "bound_limited": False}

    def test_annihilate_runs_backwards(self, capsys):
        code, doc = run_json(
            capsys, "annihilate", "--ring", "QQ[x,y]", "--ideal", "x^2 - y^3, x*y"
        )
        assert code == 0
        assert doc["result"]["generators"] == ["x^-2 + y^-3"]

    def test_annihilate_of_a_monomial_complete_intersection(self, capsys):
        code, doc = run_json(
            capsys,
            "annihilate", "--ring", "QQ[x,y]", "--ideal", "x^3, y^3", "--bound", "6",
        )
        assert code == 0
        assert doc["result"]["generators"] == ["x^-2*y^-2"]
        assert doc["result"]["generator_degrees"] == [-4]
        assert doc["result"]["hilbert"] == {"offset": 0, "values": [1, 2, 3, 2, 1]}

    def test_iset_vectors_and_permissibility(self, capsys):
        code, doc = run_json(
            capsys, "iset", "--ring", "GF(101)[x,y,z]", "--socle", "3:1,4:2"
        )
        assert code == 0
        result = doc["result"]
        assert result["hI"] == [
            [3, {"offset": 0, "values": [1, 3, 6, 7, 2]}],
            [4, {"offset": 0, "values": [1, 3, 6, 6, 2]}],
        ]
        assert result["betaI"] == [[3, 19], [4, 18]]
        assert result["permissible"] is True
        assert result["v"] == 3
        assert result["b1"] == 3
        assert result["failing_clause"] is None

    def test_dims_of_a_two_socle_degree_type(self, capsys):
        code, doc = run_json(capsys, "dims", "--socle", "2:1,3:1", "--r", "5")
        assert code == 0
        result = doc["result"]
        assert result["H"] == 43
        assert result["R"] == 9
        assert result["F"] == 52
        assert result["elementary"] == 57
        assert result["principal"] == 65
        assert result["small_component"] is True
        assert result["length"] == 13

    def test_assoc_graded_of_an_inhomogeneous_dual(self, capsys):
        code, doc = run_json(
            capsys, "assoc-graded", "--ring", "QQ[x,y]", "--inverse", "x^-2 + y^-3"
        )
        assert code == 0
        result = doc["result"]
        assert result["graded_ideal_generators"] == ["x^2", "x*y", "y^4"]
        assert result["dual_generator_count"] == 2
        assert result["socle"] == {"offset": 1, "values": [1, 0, 1]}
        assert result["level"] is False
        assert result["gorenstein"] is False

    def test_gorenstein_ambient_quotient(self, capsys):
        code, doc = run_json(
            capsys,
            "construct", "gorenstein-ambient",
            "--r", "3", "--e", "2", "--forms", "X1+X2+X3, X2+2*X3",
        )
        assert code == 0
        result = doc["result"]
        assert result["h"] == {"offset": 0, "values": [1, 3, 6, 7, 5, 2]}
        assert result["wstar"] == {
            "offset": -6,
            "values": [1, 1, 1, -2, -2, -2, 1],
        }
        assert result["n"] == -3
        assert result["matches_prediction"] is True
        assert result["type"] == {"offset": 5, "values": [2]}

    def test_seeded_random_compressed_draw(self, capsys):
        code, doc = run_json(
            capsys,
            "construct", "random",
            "--ring", "GF(101)[x,y,z]", "--socle", "3:1,4:2", "--seed", "11",
        )
        assert code == 0
        result = doc["result"]
        assert result["compressed"] is True
        assert result["attempt"] == 0
        assert result["hilbert"] == {"offset": 0, "values": [1, 3, 6, 7, 2]}
        assert result["type"] == {"offset": 3, "values": [1, 2]}
        assert doc["provenance"]["seed"] == 11


class TestEnvelope:
    def test_json_is_byte_identical_across_runs(self, capsys):
        argv = ("iset", "--ring", "GF(101)[x,y,z]", "--socle", "3:1,4:2", "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seeded_runs_are_reproducible(self, capsys):
        argv = (
            "construct", "random",
            "--ring", "GF(13)[x,y]", "--socle", "4:1", "--seed", "5", "--json",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_table_and_json_agree(self, capsys):
        argv = ("hilbert", "--ring", "QQ[x,y]", "--ideal", "x^2, x*y, y^3")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = table_rows(out)
        _, doc = run_json(capsys, *argv)
        assert rows["hilbert"] == "(1, 2, 1)"
        assert doc["result"]["hilbert"] == {"offset": 0, "values": [1, 2, 1]}
        assert rows["provenance.bound"] == str(doc["provenance"]["bound"])
        assert rows["provenance.bound_limited"] == "false"
        assert rows["provenance.seed"] == "none"
        assert rows["ring"] == "QQ[x, y]"

    def test_stdin_dash_reads_generators(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("x^2, x*y, y^3"))
        _, from_stdin = run_json(
            capsys, "hilbert", "--ring", "QQ[x,y]", "--ideal", "-"
        )
        _, direct = run_json(
            capsys, "hilbert", "--ring", "QQ[x,y]", "--ideal", "x^2, x*y, y^3"
        )
        assert from_stdin == direct

    def test_unseeded_random_draw_reports_the_seed_it_used(self, capsys):
        argv = ("construct", "random", "--ring", "GF(101)[x,y,z]", "--socle", "3:1,4:2", "--json")
        _, unseeded, _ = run(capsys, *argv)
        _, seeded, _ = run(capsys, *argv, "--seed", "0")
        assert json.loads(unseeded)["provenance"]["seed"] == 0
        assert unseeded == seeded

    def test_module_entry_point_matches_in_process_output(self, capsys):
        argv = ["dims", "--socle", "2:1,3:1", "--r", "5", "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "apolar.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        _, out, _ = run(capsys, *argv)
        assert proc.stdout == out


class TestExitCodes:
    def test_usage_error_for_both_sides(self, capsys):
        code, doc = run_json(
            capsys,
            "annihilate", "--ring", "QQ[x,y]", "--ideal", "x", "--inverse", "x^-1",
        )
        assert code == 2
        assert doc["error"]["code"] == 2
        assert "exactly one of" in doc["error"]["message"]

    def test_usage_error_for_missing_ring(self, capsys):
        code, doc = run_json(capsys, "hilbert", "--ideal", "x^2")
        assert code == 2
        assert doc["error"]["message"] == "this command needs --ring"

    def test_unknown_command_is_exit_2(self, capsys):
        code, out, _ = run(capsys, "no-such-command")
        assert code == 2
        assert out == ""

    def test_insufficient_bound_is_exit_3(self, capsys):
        # the default bound (2 + max generator degree) cannot certify that
        # QQ[x,y]/(x^3, y^3) is Artinian, and the tool refuses to guess
        code, doc = run_json(
            capsys, "annihilate", "--ring", "QQ[x,y]", "--ideal", "x^3, y^3"
        )
        assert code == 3
        assert doc["error"]["code"] == 3
        assert "raise the bound" in doc["error"]["message"]

    def test_empty_socle_type_is_exit_3(self, capsys):
        code, doc = run_json(capsys, "iset", "--ring", "QQ[x,y]", "--socle", "")
        assert code == 3
        assert doc == {
            "error": {"code": 3, "message": "socle type is empty", "values": []}
        }

    def test_parse_error_is_exit_4_with_offset(self, capsys):
        code, doc = run_json(
            capsys, "annihilate", "--ring", "QQ[x,y]", "--inverse", "x^-2 + q"
        )
        assert code == 4
        assert doc["error"] == {
            "code": 4, "message": "unknown variable 'q'", "offset": 7
        }

    def test_bad_ring_spec_is_exit_4(self, capsys):
        code, doc = run_json(capsys, "hilbert", "--ring", "GF(9)[x]", "--ideal", "x")
        assert code == 4
        assert "not prime" in doc["error"]["message"]

    def test_large_prime_field_is_accepted_at_once(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "hilbert", "--ring", "GF(2305843009213693951)[x,y]", "--ideal", "x,y"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["ring"]["field"] == "GF(2305843009213693951)"

    def test_characteristic_of_64_bits_or_more_is_exit_4(self, capsys):
        code, doc = run_json(
            capsys, "hilbert", "--ring", "GF(18446744073709551629)[x]", "--ideal", "x"
        )
        assert code == 4
        assert "2^64" in doc["error"]["message"]

    def test_table_mode_errors_go_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "annihilate", "--ring", "QQ[x,y]", "--ideal", "x^3, y^3"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    # inputs that once escaped as a ValueError traceback with exit 1
    DOMAIN_INPUTS = {
        "annihilate-inverse-bound-0":
            ("annihilate", "--ring", "QQ[x,y]", "--inverse", "x^-2+y^-1", "--bound", "0"),
        "annihilate-ideal-bound-0":
            ("annihilate", "--ring", "QQ[x,y]", "--ideal", "x^2+y,y^2", "--bound", "0"),
        "assoc-graded-bound-0":
            ("assoc-graded", "--ring", "QQ[x,y]", "--inverse", "x^-2+y^-1", "--bound", "0"),
        "koszul-degree-0":
            ("series", "koszul", "--h", "1,2", "--hq", "1", "--degrees", "0", "--n", "3"),
        "froberg-ci-0": ("series", "froberg", "--base-h", "1,3,6", "--ci", "0", "--n", "3"),
        "power-sum-point-arity":
            ("construct", "power-sum", "--ring", "QQ[x,y]", "--points", "1,0,3",
             "--scalars", "1", "--a", "2", "--s", "2"),
        "linkage-ambient-all-zero":
            ("linkage", "--ring", "QQ[x,y]", "--ambient", "0, 0", "--ideal", "x"),
    }

    @pytest.mark.parametrize("argv", DOMAIN_INPUTS.values(), ids=DOMAIN_INPUTS.keys())
    def test_domain_inputs_exit_3_without_traceback(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 3
        assert set(doc) == {"error"} and doc["error"]["code"] == 3
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestSchemaSweep:
    """Every subcommand's JSON output validates against the committed schema.

    run_json validates internally, so each call here is an assertion.
    """

    SUCCESS = [
        ("socle", "--ring", "QQ[x,y]", "--ideal", "x^2, y^3"),
        ("socle", "--ring", "QQ[x,y]", "--inverse", "x^-1*y^-2"),
        ("profile", "--ring", "QQ[x,y]", "--inverse", "x^-3 + y^-3, x^-1*y^-1"),
        ("linkage", "--ring", "QQ[x,y]", "--ideal", "x, y^3",
         "--ambient", "x^3, y^3", "--bound", "6"),
        ("tangents", "--ring", "QQ[x,y]", "--ideal", "x^2, x*y, y^3"),
        ("construct", "power-sum", "--ring", "QQ[x,y]",
         "--points", "1,0;0,1;1,1", "--scalars", "1,1,1",
         "--a", "4", "--s", "4"),
        ("construct", "prnonempty", "--r", "2", "--e", "3",
         "--socle", "3:1,5:1", "--n", "-2"),
        ("series", "wstar", "--ambient-h", "1,3,6,7,6,3,1", "--a", "6",
         "--socle", "3:1"),
        ("series", "froberg", "--base-h", "1,3,6,10,15,21", "--ci", "2,2",
         "--forms", "3", "--n", "6"),
        ("series", "koszul", "--h", "1,2,2,1", "--hq", "1,2,1",
         "--degrees", "2", "--n", "4"),
    ]

    FAILING = [
        ("annihilate", "--ring", "QQ[x,y]", "--ideal", "x^3, y^3"),
        ("annihilate", "--ring", "QQ[x,y]", "--inverse", "x^-2 + q"),
        ("hilbert", "--ideal", "x^2"),
        ("construct", "power-sum", "--ring", "QQ[x,y]",
         "--points", "1,0;0,1", "--scalars", "1,1", "--a", "4", "--s", "9"),
    ]

    @pytest.mark.parametrize("argv", SUCCESS, ids=lambda a: " ".join(a[:2]))
    def test_success_envelopes_validate(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert set(doc) == {"ring", "result", "provenance"}

    @pytest.mark.parametrize("argv", FAILING, ids=lambda a: " ".join(a[:2]))
    def test_error_envelopes_validate(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code in (2, 3, 4)
        assert set(doc) == {"error"}
        assert doc["error"]["code"] == code


class TestGoldenBytes:
    """Exact --json output of the filtered paths, the tangent profile, the
    multilevel profile, linkage and the socle, weighted rings among them."""

    GOLDEN = [
        (
            ("annihilate", "--ring", "QQ[x,y,z]",
             "--inverse", "x^-3 + y^-2*z^-1 + 2*x^-1*z^-1 + y^-2"),
            '{"provenance":{"bound":5,"bound_limited":false,"seed":null},'
            '"result":{"generators":["x*y","x*z - 2*y^2*z","z^2","x^3 - y^2*z","y^3"],'
            '"quotient_dim":8},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("annihilate", "--ring", "GF(101)[x,y,z]",
             "--inverse", "x^-2*y^-1*z^-1 + 3*y^-3 + x^-2 + z^-1"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"generators":["y^2 + 98*x^2*z","z^2","x^3"],"quotient_dim":12},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("annihilate", "--ring", "QQ[x,y,z]", "--ideal", "x^2 - y, x*y, y^2, z^2, x*z"),
            '{"provenance":{"bound":4,"bound_limited":false,"seed":null},'
            '"result":{"generators":["y^-1 + x^-2","z^-1"],"quotient_dim":4},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("annihilate", "--ring", "GF(101)[x,y,z]",
             "--ideal", "x*y + z, x*z - y^2, y*z, x^3, z^2 + y^3", "--bound", "6"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"generators":["y^-2 + x^-1*z^-1 + 100*x^-2*y^-1"],"quotient_dim":6},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("assoc-graded", "--ring", "QQ[x,y,z]", "--inverse", "x^-2*y^-2 + z^-3 + x^-1*y^-1"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"dual_generator_count":2,"gorenstein":false,'
            '"graded_ideal_generators":["x*z","y*z","x^3","y^3","z^3"],"level":false,'
            '"quotient_hilbert":{"offset":0,"values":[1,3,4,2,1]},'
            '"socle":{"offset":2,"values":[1,0,1]}},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("assoc-graded", "--ring", "GF(101)[x,y,z]",
             "--inverse", "x^-4 + 2*y^-2*z^-2 + x^-1*y^-2 + z^-2"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"dual_generator_count":1,"gorenstein":true,'
            '"graded_ideal_generators":["x*y","x*z","y^3","z^3","x^4 + 50*y^2*z^2"],'
            '"level":true,"quotient_hilbert":{"offset":0,"values":[1,3,4,3,1]},'
            '"socle":{"offset":4,"values":[1]}},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("assoc-graded", "--ring", "GF(101)[x,y:2,z]",
             "--inverse", "x^-4 + y^-2 + x^-1*z^-2 + z^-1", "--bound", "7"),
            '{"provenance":{"bound":7,"bound_limited":false,"seed":null},'
            '"result":{"dual_generator_count":2,"gorenstein":false,'
            '"graded_ideal_generators":["z^2","x^2*z","x*y","y*z","x^4 + 100*y^2"],'
            '"level":false,"quotient_hilbert":{"offset":0,"values":[1,2,3,1,1]},'
            '"socle":{"offset":2,"values":[1,0,1]}},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,2,1]}}',
        ),
        (
            ("tangents", "--ring", "GF(101)[x,y,z]",
             "--inverse", "x^-3*y^-1+2*y^-2*z^-2+x^-1*z^-3+5*y^-4"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"dims":[[-3,0],[-2,0],[-1,21],[0,14],[1,7]],'
            '"generator_degrees":[3,3,3,3,3,3,3],"negative_total":21,"socle_degree":4,'
            '"tnt":false},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("tangents", "--ring", "QQ[x,y:2]", "--ideal", "x^3,y^2+x^2*y", "--bound", "9"),
            '{"provenance":{"bound":9,"bound_limited":false,"seed":null},'
            '"result":{"dims":[[-4,1],[-3,2],[-2,3],[-1,3],[0,2],[1,1]],'
            '"generator_degrees":[3,4],"negative_total":9,"socle_degree":4,"tnt":false},'
            '"ring":{"field":"QQ","variables":["x","y"],"weights":[1,2]}}',
        ),
        (
            ("profile", "--ring", "QQ[x,y,z]", "--inverse", "x^-4+y^-2*z^-2,x^-1*y^-2,z^-2"),
            '{"provenance":{"bound":null,"bound_limited":false,"seed":null},'
            '"result":{"rows":[[0,{"offset":0,"values":[1,3,5,4,1]}],'
            '[1,{"offset":0,"values":[1,3,5,4,1]}],[2,{"offset":0,"values":[1,3,5,4,1]}],'
            '[3,{"offset":0,"values":[1,3,5,4,1]}],[4,{"offset":0,"values":[1,3,4,3,1]}],'
            '[5,{"offset":0,"values":[]}]],"socle_degree":4,'
            '"type_from_profile":{"offset":3,"values":[1,1]}},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("linkage", "--ring", "GF(101)[x,y,z]", "--ideal", "x+2*z,y^2+x*y",
             "--ambient", "x^2,y^3,z^3", "--bound", "7"),
            '{"provenance":{"bound":7,"bound_limited":false,"seed":null},'
            '"result":{"double_link_returns_input":true,"generator_degrees":[3],'
            '"is_cyclic":true,"link_generators":["x^2","x*y*z + 2*x*z^2 + 99*y*z^2","y^3","z^3"],'
            '"quotient_hilbert":{"offset":0,"values":[1,3,5,4,1]}},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("socle", "--ring", "GF(101)[x,y:2,z]", "--ideal", "x^3,y^2,z^2,x*y+3*z*x^2",
             "--bound", "10"),
            '{"provenance":{"bound":10,"bound_limited":false,"seed":null},'
            '"result":{"gorenstein":false,"level":true,"socle":{"offset":3,"values":[2]},'
            '"socle_degree":3},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,2,1]}}',
        ),
        (
            ("annihilate", "--ring", "QQ[x,y,z]", "--inverse", "x^-3*y^-1+z^-4,x^-1*y^-2"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"generator_degrees":[2,2,3,4,4,4],'
            '"generators":["x*z","y*z","y^3","x^4","x^3*y - z^4","x^2*y^2"],'
            '"hilbert":{"offset":0,"values":[1,3,4,4,1]}},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("annihilate", "--ring", "QQ[x,y:2]", "--inverse", "x^-3+x^-1*y^-1", "--bound", "6"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"generator_degrees":[2,4],"generators":["x^2 - y","x^4"],'
            '"hilbert":{"offset":0,"values":[1,1,1,1]}},'
            '"ring":{"field":"QQ","variables":["x","y"],"weights":[1,2]}}',
        ),
        (
            ("tangents", "--ring", "GF(101)[x,y:2,z]", "--inverse", "x^-4+y^-2+z^-4",
             "--bound", "8"),
            '{"provenance":{"bound":8,"bound_limited":false,"seed":null},'
            '"result":{"dims":[[-4,0],[-3,2],[-2,5],[-1,8],[0,7],[1,4],[2,1]],'
            '"generator_degrees":[2,3,3,4,4],"negative_total":15,"socle_degree":4,'
            '"tnt":false},'
            '"ring":{"field":"GF(101)","variables":["x","y","z"],"weights":[1,2,1]}}',
        ),
        (
            ("socle", "--ring", "QQ[x,y,z]", "--ideal", "x^2-y*z,y^2-x*z,z^2-x*y,x*y*z",
             "--bound", "6"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"gorenstein":false,"level":true,"socle":{"offset":3,"values":[2]},'
            '"socle_degree":3},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("tangents", "--ring", "QQ[x,y,z]",
             "--inverse", "x^-3*y^-1-2*y^-2*z^-2+x^-1*z^-3+3*y^-4"),
            '{"provenance":{"bound":6,"bound_limited":false,"seed":null},'
            '"result":{"dims":[[-3,0],[-2,0],[-1,21],[0,14],[1,7]],'
            '"generator_degrees":[3,3,3,3,3,3,3],"negative_total":21,"socle_degree":4,'
            '"tnt":false},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            ("linkage", "--ring", "QQ[x,y]", "--ideal", "x-2*y,y^3", "--ambient", "x^3,y^4",
             "--bound", "8"),
            '{"provenance":{"bound":8,"bound_limited":false,"seed":null},'
            '"result":{"double_link_returns_input":true,"generator_degrees":[3],'
            '"is_cyclic":true,"link_generators":["x^3","x^2*y + 2*x*y^2 + 4*y^3"],'
            '"quotient_hilbert":{"offset":0,"values":[1,2,3,2,1]}},'
            '"ring":{"field":"QQ","variables":["x","y"],"weights":[1,1]}}',
        ),
        (
            # the default bound skips the zero generator
            ("linkage", "--ring", "QQ[x,y]", "--ideal", "0,x", "--ambient", "x^2,y^2"),
            '{"provenance":{"bound":4,"bound_limited":false,"seed":null},'
            '"result":{"double_link_returns_input":true,"generator_degrees":[1],'
            '"is_cyclic":true,"link_generators":["x","y^2"],'
            '"quotient_hilbert":{"offset":0,"values":[1,1]}},'
            '"ring":{"field":"QQ","variables":["x","y"],"weights":[1,1]}}',
        ),
        (
            ("annihilate", "--ring", "QQ[x,y,z]", "--ideal", "x^2-y*z,y^3,z^3,x*y^2",
             "--bound", "7"),
            '{"provenance":{"bound":7,"bound_limited":false,"seed":null},'
            '"result":{"generator_degrees":[-4,-4],'
            '"generators":["y^-2*z^-2 + x^-2*y^-1*z^-1 + x^-4","x^-1*y^-1*z^-2 + x^-3*z^-1"],'
            '"hilbert":{"offset":0,"values":[1,3,5,4,2]}},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
        (
            # pins the " - x^-2" text of a QQ dual coefficient of -1
            ("annihilate", "--ring", "QQ[x,y,z]", "--ideal", "x^2+y,y^2+z,z^2+x*y"),
            '{"provenance":{"bound":4,"bound_limited":false,"seed":null},'
            '"result":{"generators":["y^-1 - x^-2"],"quotient_dim":3},'
            '"ring":{"field":"QQ","variables":["x","y","z"],"weights":[1,1,1]}}',
        ),
    ]

    @staticmethod
    def _ids(table):
        """Command, ring and input flag; an entry that would repeat an earlier
        id carries its input as well."""
        ids = []
        for argv, _ in table:
            short = " ".join(argv[:4])
            ids.append(" ".join(argv[:5]) if short in ids else short)
        return ids

    @pytest.mark.parametrize("argv, expected", GOLDEN, ids=_ids(GOLDEN))
    def test_json_bytes(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == expected + "\n"

    def test_weighted_default_bound_certifies_the_quotient(self, capsys):
        """Dual generators, graded or one inhomogeneous, default to the socle
        degree + 1 + the largest weight, which certifies an Artinian quotient
        on a weighted ring: the bytes of the explicit --bound 6 and --bound 7
        entries, and the tangent profile of the --bound 8 entry."""
        golden = dict(self.GOLDEN)
        argv = ("annihilate", "--ring", "QQ[x,y:2]", "--inverse", "x^-3+x^-1*y^-1")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == golden[argv + ("--bound", "6")] + "\n"
        argv = ("assoc-graded", "--ring", "GF(101)[x,y:2,z]",
                "--inverse", "x^-4 + y^-2 + x^-1*z^-2 + z^-1")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == golden[argv + ("--bound", "7")] + "\n"
        argv = ("tangents", "--ring", "GF(101)[x,y:2,z]", "--inverse", "x^-4+y^-2+z^-4")
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["result"] == json.loads(golden[argv + ("--bound", "8")])["result"]


def test_cli_holds_no_linear_algebra():
    """The command line parses and emits; every elimination lives below it."""
    assert not {"echelon", "kernel", "rref", "Subspace"} & set(vars(apolar.cli))
