import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsearch.cli import main, parse_strips, system_from_text, system_to_text
from svsearch.errors import UsageError
from svsearch.ffield import prime_field
from svsearch.mpoly import MPoly, monomials
from svsearch.sampler import SystemSpec
from svsearch.zdsolve import BACKENDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_system_file(tmp_path, doc_or_text, name="system.json"):
    path = tmp_path / name
    text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
    path.write_text(text)
    return str(path)


def test_gen_is_deterministic_and_valid(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--q", "31", "--r", "5", "--s", "2", "--d", "3", "--seed", "7")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--q", "31", "--r", "5", "--s", "2", "--d", "3", "--seed", "7")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["q"] == 31 and len(doc["polynomials"]) == 2
    system = system_from_text(out1)
    assert all(f.degree <= 3 for f in system.polys)


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "--q", "31", "--r", "3", "--s", "1", "--d", "2", "--seed", "0")
    assert code == 2
    assert "error" in err


def test_system_file_roundtrip_byte_identical():
    ctx = prime_field(5)
    f = MPoly.from_terms(3, [((0, 1, 0), 1), ((1, 0, 0), 2)], ctx)
    g = MPoly.from_terms(3, [((0, 0, 2), 3), ((0, 0, 0), 4)], ctx)
    system = SystemSpec(ctx, 3, 2, 2, (f, g))
    text = system_to_text(system)
    again = system_to_text(system_from_text(text))
    assert text == again


def test_system_file_tolerates_any_term_order():
    text = json.dumps(
        {
            "q": 5,
            "r": 3,
            "s": 2,
            "d": 2,
            "polynomials": [
                [{"c": 1, "e": [0, 0, 0]}, {"c": 2, "e": [0, 2, 0]}],
                [{"c": 1, "e": [0, 0, 1]}],
            ],
        }
    )
    system = system_from_text(text)
    assert system.polys[0].terms[0][0] == (0, 2, 0)  # canonical order restored


def test_system_file_validation():
    base = {
        "q": 5,
        "r": 3,
        "s": 2,
        "d": 2,
        "polynomials": [[{"c": 1, "e": [0, 0, 0]}], [{"c": 1, "e": [0, 0, 1]}]],
    }
    bad_coeff = json.loads(json.dumps(base))
    bad_coeff["polynomials"][0][0]["c"] = 0
    with pytest.raises(UsageError):
        system_from_text(json.dumps(bad_coeff))
    bad_deg = json.loads(json.dumps(base))
    bad_deg["polynomials"][0][0]["e"] = [2, 1, 0]
    with pytest.raises(UsageError):
        system_from_text(json.dumps(bad_deg))
    dup = json.loads(json.dumps(base))
    dup["polynomials"][0] = [{"c": 1, "e": [0, 0, 0]}, {"c": 2, "e": [0, 0, 0]}]
    with pytest.raises(UsageError):
        system_from_text(json.dumps(dup))
    with pytest.raises(UsageError):
        system_from_text("not json")


def test_solve_success_and_exit_codes(capsys, tmp_path):
    doc = {
        "q": 5,
        "r": 3,
        "s": 2,
        "d": 2,
        "polynomials": [
            [{"c": 1, "e": [0, 1, 0]}],  # X2
            [{"c": 1, "e": [0, 0, 1]}, {"c": 4, "e": [1, 0, 0]}],  # X3 - X1
        ],
    }
    path = make_system_file(tmp_path, doc)
    code, out, _ = run_cli(capsys, "solve", "--system", path, "--strips", "2")
    assert code == 0
    outcome = json.loads(out)
    assert outcome["status"] == "success"
    assert outcome["point"] == [0, 2]


def test_solve_failure_exit_code(capsys, tmp_path):
    doc = {
        "q": 3,
        "r": 3,
        "s": 2,
        "d": 2,
        "polynomials": [
            [{"c": 1, "e": [0, 2, 0]}, {"c": 1, "e": [0, 0, 0]}],  # X2^2 + 1
            [{"c": 1, "e": [0, 0, 1]}],
        ],
    }
    path = make_system_file(tmp_path, doc)
    code, out, _ = run_cli(capsys, "solve", "--system", path, "--seed", "3")
    assert code == 1
    assert json.loads(out)["status"] == "failure"


def test_solve_duplicate_strips_usage_error(capsys, tmp_path):
    doc = {
        "q": 3,
        "r": 3,
        "s": 2,
        "d": 2,
        "polynomials": [[{"c": 1, "e": [0, 1, 0]}], [{"c": 1, "e": [0, 0, 1]}]],
    }
    path = make_system_file(tmp_path, doc)
    code, _, err = run_cli(capsys, "solve", "--system", path, "--strips", "1;1")
    assert code == 2 and "error" in err


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--system", "/nonexistent.json")
    assert code == 2


VALID_DOC = {
    "q": 3,
    "r": 3,
    "s": 2,
    "d": 2,
    "polynomials": [[{"c": 1, "e": [0, 1, 0]}], [{"c": 1, "e": [0, 0, 1]}]],
}


@pytest.mark.parametrize(
    "polynomials",
    [
        [[{"e": [0, 1, 0]}], [{"c": 1, "e": [0, 0, 1]}]],  # a term with no "c"
        5,  # not a list
    ],
    ids=["term_without_c", "polynomials_not_a_list"],
)
def test_solve_malformed_system_file_usage_error(capsys, tmp_path, polynomials):
    path = make_system_file(tmp_path, dict(VALID_DOC, polynomials=polynomials))
    code, _, err = run_cli(capsys, "solve", "--system", path, "--seed", "0")
    assert code == 2 and err.startswith("error:")


def test_solve_system_path_is_directory(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--system", str(tmp_path))
    assert code == 2 and err.startswith("error:")


def test_solve_non_integer_strips_usage_error(capsys, tmp_path):
    path = make_system_file(tmp_path, VALID_DOC)
    code, _, err = run_cli(capsys, "solve", "--system", path, "--strips", "a,b,c")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("hstar", ["0", "-3"])
def test_solve_nonpositive_hstar_usage_error(capsys, tmp_path, hstar):
    path = make_system_file(tmp_path, VALID_DOC)
    code, _, err = run_cli(capsys, "solve", "--system", path, "--hstar", hstar)
    assert code == 2 and err.startswith("error:")


def test_experiment_nonpositive_hstar_usage_error(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "experiment", "--q", "5", "--r", "3", "--s", "2", "--d", "2",
        "--trials", "2", "--seed", "0", "--hstar", "0", "--out", str(out_dir),
    )
    assert code == 2 and err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_nonpositive_workers_usage_error(capsys, tmp_path, workers):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "experiment", "--q", "5", "--r", "3", "--s", "2", "--d", "2",
        "--trials", "2", "--seed", "0", "--workers", workers, "--out", str(out_dir),
    )
    assert code == 2 and err.startswith("error:")
    assert not out_dir.exists()


def test_solve_capacity_exit_code(capsys, tmp_path):
    doc = {
        "q": 4099,
        "r": 3,
        "s": 2,
        "d": 2,
        "polynomials": [[{"c": 1, "e": [0, 1, 0]}], [{"c": 1, "e": [0, 0, 1]}]],
    }
    path = make_system_file(tmp_path, doc)
    code, _, err = run_cli(capsys, "solve", "--system", path, "--seed", "0")
    assert code == 3 and "capacity" in err


SLOT_CAP_PROBES = {
    "gen_r12_d12": ["gen", "--q", "31", "--r", "12", "--s", "2", "--d", "12", "--seed", "1"],
    "gen_r40_d40": ["gen", "--q", "31", "--r", "40", "--s", "2", "--d", "40", "--seed", "1"],
    "experiment_r12_d12": ["experiment", "--q", "31", "--r", "12", "--s", "2", "--d", "12",
                           "--trials", "2", "--seed", "1", "--workers", "2"],
    "solve_file_r12_d12": ["solve", "--seed", "0"],
    "count_points_file_r12_d12": ["oracle", "count-points", "--strip", "0,0,0,0,0,0,0,0,0,0"],
}


@pytest.mark.parametrize("probe", sorted(SLOT_CAP_PROBES))
def test_slot_cap_is_capacity_within_a_second(capsys, tmp_path, probe):
    # C(24, 12) = 2.7M slots per polynomial: refused before monomials(12, 12) enumerates
    argv = SLOT_CAP_PROBES[probe] + ["--out", str(tmp_path / "out")] * probe.startswith("experiment")
    if "file" in probe:
        doc = {"q": 31, "r": 12, "s": 2, "d": 12, "polynomials": [[{"c": 1, "e": [12] + [0] * 11}], []]}
        argv += ["--system", make_system_file(tmp_path, doc)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("capacity:") and len(err.splitlines()) == 1


def test_count_points_above_log_tables_is_capacity_within_a_second(capsys, tmp_path):
    # X^8 + X over GF(8) is counted up to degree 8 = 2^24 points: GF(2^18)
    # at degree 6 already has no log tables for the grid scan
    doc = {"q": 8, "r": 1, "s": 1, "d": 8, "polynomials": [[{"c": 1, "e": [8]}, {"c": 1, "e": [1]}]]}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "count-points", "--system", make_system_file(tmp_path, doc))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("capacity:") and len(err.splitlines()) == 1


def _term(e, c):
    return {"c": c, "e": list(e)}


@st.composite
def cli_cases(draw):
    """argv for solve or count-points on a system file: a valid small
    system, or one with a single fault."""
    solve = draw(st.booleans())
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    r = draw(st.integers(3 if solve else 1, 4))
    s = draw(st.integers(2, r - 1) if solve else st.integers(1, r))
    d = draw(st.integers(2 if solve else 1, 3))
    exps = monomials(r, d)
    term = st.builds(_term, st.sampled_from(exps), st.integers(1, q - 1))
    polys = [draw(st.lists(term, max_size=4, unique_by=lambda t: tuple(t["e"]))) for _ in range(s)]
    doc = {"q": q, "r": r, "s": s, "d": d, "polynomials": polys}
    poly = draw(st.sampled_from(polys))
    fault = draw(st.sampled_from(
        ["none", "missing", "not_integer", "bad_exponents", "bad_coefficient", "duplicate", "count", "slot_cap"]
    ))
    if fault == "missing":
        if poly and draw(st.booleans()):
            del poly[0][draw(st.sampled_from(["c", "e"]))]
        else:
            del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "not_integer":
        bad = draw(st.sampled_from(["x", None, [1], {"c": 1}, 2.5, "1e3"]))
        if poly and draw(st.booleans()):
            poly[0][draw(st.sampled_from(["c", "e"]))] = bad
        else:
            doc[draw(st.sampled_from(sorted(doc)))] = bad
    elif fault == "bad_exponents":
        e = draw(st.sampled_from([[-1] + [0] * (r - 1), [0] * (r + 1), [1] * (r + 1)]))
        poly.append(_term(e, 1))
    elif fault == "bad_coefficient":
        poly.append(_term([0] * r, draw(st.sampled_from([0, -1, q, q + 1]))))
    elif fault == "duplicate":
        poly.extend([_term([0] * r, 1)] * 2)
    elif fault == "count" and draw(st.booleans()):
        polys.append([])
    elif fault == "count":
        polys.pop()
    elif fault == "slot_cap":
        doc.update(r=12, s=2, d=12, polynomials=[[_term([12] + [0] * 11, 1)], []])
    strip = ",".join(str(draw(st.integers(0, q - 1))) for _ in range(max(r - s, 1)))
    if solve:
        argv = ["solve", "--seed", str(draw(st.integers(0, 9))), "--backend", draw(st.sampled_from(BACKENDS))]
    else:
        argv = ["oracle", "count-points"] + ["--strip", strip] * (s < r or draw(st.booleans()))
    return doc, argv


@settings(max_examples=80, deadline=None)
@given(cli_cases())
def test_cli_exit_codes_on_generated_system_files(tmp_path_factory, case):
    doc, argv = case
    path = tmp_path_factory.mktemp("cli") / "system.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with patch("svsearch.mc.Pool", side_effect=AssertionError("no worker process")), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--system", str(path)])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:" if code == 2 else "capacity:")
        assert len(err.getvalue().splitlines()) == 1
    else:
        json.loads(out.getvalue())


def test_gen_solve_pipeline(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--q", "31", "--r", "4", "--s", "2", "--d", "2", "--seed", "11")
    assert code == 0
    path = make_system_file(tmp_path, out)
    code, out2, _ = run_cli(capsys, "solve", "--system", path, "--seed", "1", "--certify")
    assert code in (0, 1)
    outcome = json.loads(out2)
    assert "certificates" in outcome


def test_experiment_writes_identical_files(capsys, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out_dir, workers in ((out1, "1"), (out2, "2")):
        code, _, _ = run_cli(
            capsys,
            "experiment",
            "--q", "13", "--r", "4", "--s", "2", "--d", "2",
            "--trials", "30", "--seed", "9",
            "--workers", workers,
            "--out", str(out_dir),
        )
        assert code == 0
    csv1 = (out1 / "trials.csv").read_bytes()
    csv2 = (out2 / "trials.csv").read_bytes()
    assert csv1 == csv2
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["parameters"]["trials"] == 30
    assert "comparisons" in summary


def test_theory_command(capsys):
    code, out, _ = run_cli(capsys, "theory", "--q", "2", "--r", "3", "--s", "2", "--d", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["first_strip"]["lower"] == "5/8"
    assert rep["first_strip"]["upper"] == "11/16"
    code, out, _ = run_cli(capsys, "theory", "--q", "101", "--r", "4", "--s", "2", "--d", "6")
    rep = json.loads(out)
    assert abs(rep["failure"]["center_float"] - 0.049778) < 1e-5
    assert any(abs(v["float"] - 0.6321) < 1e-3 for v in rep["mu_table"].values())


def test_theory_number_past_digit_limit_is_capacity(capsys):
    # at q = 10^9 + 7, d = 60 a Fraction has more digits than str() converts
    code, out, err = run_cli(capsys, "theory", "--q", "1000000007", "--r", "5", "--s", "2", "--d", "60")
    assert code == 3 and out == ""
    assert err.startswith("capacity:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "6", "--r", "3", "--s", "2", "--d", "2"],
        ["--q", "5", "--r", "3", "--s", "2", "--d", "1"],
        ["--q", "5", "--r", "2", "--s", "3", "--d", "2"],
    ],
    ids=["q_not_prime_power", "d_one", "s_above_r"],
)
def test_theory_bad_parameters_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "theory", *argv)
    assert code == 2 and err.startswith("error:") and out == ""


def test_oracle_p1(capsys):
    code, out, _ = run_cli(capsys, "oracle", "p1-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["p1"] == "175/256"
    assert 5 / 8 <= doc["p1_float"] <= 11 / 16


def test_oracle_p1_capacity_exit(capsys):
    code, out, _ = run_cli(capsys, "oracle", "p1-exhaustive", "--q", "3", "--r", "4", "--s", "2", "--d", "2")
    assert code == 0 and json.loads(out)["p1"] == "347257/531441"
    code, _, err = run_cli(capsys, "oracle", "p1-exhaustive", "--q", "5", "--r", "3", "--s", "2", "--d", "2")
    assert code == 3 and err.startswith("capacity:")


@pytest.mark.parametrize(
    "argv",
    [
        ["p1-exhaustive", "--q", "2", "--r", "3", "--s", "0", "--d", "2"],
        ["p1-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "0"],
        ["p1-exhaustive", "--q", "2", "--r", "2", "--s", "2", "--d", "2"],
        ["p1-exhaustive", "--q", "6", "--r", "3", "--s", "2", "--d", "2"],
        ["sk-exhaustive", "--q", "2", "--r", "4", "--s", "2", "--d", "1", "--strips", "0,0;0,1;1,0;1,1"],
    ],
    ids=["s_zero", "d_zero", "s_equals_r", "q_not_prime_power", "too_many_strips"],
)
def test_oracle_bad_parameters_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, "oracle", *argv)
    assert code == 2 and err.startswith("error:")


def test_oracle_sk(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "sk-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "2", "--strips", "0;1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m_invertible"] is True
    code, out, _ = run_cli(
        capsys, "oracle", "sk-exhaustive", "--q", "2", "--r", "4", "--s", "2", "--d", "1", "--strips", "0,0;0,1"
    )
    doc = json.loads(out)
    assert doc["m_invertible"] is False
    assert "M singular" in doc["note"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sk-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "2"],
        ["count-points"],
        ["p1-exhaustive", "--r", "3", "--s", "2", "--d", "2"],
    ],
    ids=["sk_without_strips", "count_points_without_system", "p1_without_q"],
)
def test_oracle_missing_argument_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, "oracle", *argv)
    assert code == 2 and err.startswith("error:")


def test_oracle_count_points(capsys, tmp_path):
    doc = {
        "q": 2,
        "r": 2,
        "s": 2,
        "d": 2,
        "polynomials": [
            [{"c": 1, "e": [2, 0]}, {"c": 1, "e": [1, 0]}, {"c": 1, "e": [0, 0]}],
            [{"c": 1, "e": [0, 1]}],
        ],
    }
    path = make_system_file(tmp_path, doc)
    code, out, _ = run_cli(capsys, "oracle", "count-points", "--system", path)
    assert code == 0
    assert json.loads(out)["distinct_geometric_points"] == 2


def test_parse_strips():
    ctx = prime_field(5)
    assert parse_strips("2,3;4,0", 2, ctx) == [(2, 3), (4, 0)]
    with pytest.raises(UsageError):
        parse_strips("2,3;2,3", 2, ctx)
    with pytest.raises(UsageError):
        parse_strips("2", 2, ctx)
    with pytest.raises(UsageError):
        parse_strips("7", 1, ctx)


def test_extension_field_pipeline(capsys, tmp_path):
    # prime-power orders work end to end; outcome elements serialize as
    # coefficient tuples over extension fields
    code, out, _ = run_cli(capsys, "gen", "--q", "4", "--r", "3", "--s", "2", "--d", "2", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert all(1 <= term["c"] <= 3 for poly in doc["polynomials"] for term in poly)
    path = make_system_file(tmp_path, out)
    code, out2, _ = run_cli(capsys, "solve", "--system", path, "--seed", "2")
    assert code in (0, 1)
    outcome = json.loads(out2)
    for strip in outcome["strips"]:
        for element in strip:
            assert isinstance(element, list) and len(element) == 2


def test_oracle_count_points_with_strip(capsys, tmp_path):
    # underdetermined input: specialize onto a strip first; X1 := 0 leaves
    # (X2^2 + X2 + 1, X3), whose zeros are the conjugate pair in GF(4)
    doc = {
        "q": 2,
        "r": 3,
        "s": 2,
        "d": 2,
        "polynomials": [
            [{"c": 1, "e": [0, 2, 0]}, {"c": 1, "e": [0, 1, 0]}, {"c": 1, "e": [0, 0, 0]}],
            [{"c": 1, "e": [0, 0, 1]}],
        ],
    }
    path = make_system_file(tmp_path, doc)
    code, out, _ = run_cli(capsys, "oracle", "count-points", "--system", path, "--strip", "0")
    assert code == 0
    assert json.loads(out)["distinct_geometric_points"] == 2
    code, _, err = run_cli(capsys, "oracle", "count-points", "--system", path)
    assert code == 2 and "strip" in err
