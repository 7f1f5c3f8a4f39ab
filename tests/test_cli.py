import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
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
    # numbers are JSON integers: a float, bool or string is refused, not truncated
    for path, bad in [(("q",), 5.9), (("d",), 2.0), (("s",), True), (("r",), "3"), ((0, 0, "c"), 1.5),
                      ((0, 0, "c"), True), ((0, 0, "c"), "1"), ((1, 0, "e"), [0, 2.7, 0]),
                      ((1, 0, "e"), [0, 0, True]), ((1, 0, "e"), ["0", "0", "1"])]:
        doc = json.loads(json.dumps(base))
        *keys, last = path
        node = doc["polynomials"] if keys else doc
        for k in keys:
            node = node[k]
        node[last] = bad
        with pytest.raises(UsageError, match="JSON integer"):
            system_from_text(json.dumps(doc))


def test_solve_refuses_non_integer_numbers(capsys, tmp_path):
    doc = {"q": 5.9, "r": 3, "s": 2, "d": 2,
           "polynomials": [[{"c": 1.5, "e": [0, 0, 0]}], [{"c": True, "e": [0, 2.7, 0]}]]}
    code, out, err = run_cli(capsys, "solve", "--strips", "2", "--system", make_system_file(tmp_path, doc))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


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


def test_experiment_aborted_trials_exit_with_one_capacity_line(capsys, tmp_path):
    # GF(4099)^2 is past the exhaustive grid's cap: every trial aborts
    argv = ["experiment", "--q", "4099", "--r", "4", "--s", "2", "--d", "2", "--trials", "2", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 3 and out == ""
    assert err == "capacity: 2 of 2 trials aborted\n"
    assert json.loads((tmp_path / "summary.json").read_text())["aborted"] == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--q", "10000000000000061", "--r", "4", "--s", "2", "--d", "2", "--seed", "0"],
        ["theory", "--q", "2305843009213693951", "--r", "4", "--s", "2", "--d", "3"],  # 2^61 - 1
    ],
    ids=["gen_prime_1e16", "theory_mersenne_61"],
)
def test_prime_order_above_2_40_is_capacity_within_a_second(capsys, argv):
    # factor stops at divisors of 2^20, so a prime q above 2^40 is refused at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
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
        bad = draw(st.sampled_from(["x", None, [0.5], {"c": 1}, 2.5, 5.0, "1e3", "2", True, False]))
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
    return doc, argv, fault


@settings(max_examples=80, deadline=None)
@given(cli_cases())
def test_cli_exit_codes_on_generated_system_files(tmp_path_factory, case):
    doc, argv, fault = case
    path = tmp_path_factory.mktemp("cli") / "system.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with patch("svsearch.mc.Pool", side_effect=AssertionError("no worker process")), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--system", str(path)])
    assert code in (0, 1, 2, 3)
    if fault == "not_integer":
        assert code == 2
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:" if code == 2 else "capacity:")
        assert len(err.getvalue().splitlines()) == 1
    else:
        json.loads(out.getvalue())


COMMAND_FAULTS = {
    "gen": ["s_ge_r", "d_low", "q", "slot_cap"],
    "experiment": ["s_ge_r", "d_low", "q", "slot_cap", "hstar", "workers"],
    "theory": ["s_ge_r", "d_low", "q", "slot_cap"],
    "p1-exhaustive": ["s_ge_r", "d_low", "q", "slot_cap"],
    "sk-exhaustive": ["s_ge_r", "d_low", "q", "slot_cap", "malformed", "short", "long", "duplicate", "outside"],
}


@st.composite
def command_cases(draw):
    """argv for gen, experiment, theory or an exhaustive oracle with small
    valid parameters, or with one fault, and the exit codes it may give."""
    command = draw(st.sampled_from(sorted(COMMAND_FAULTS)))
    oracle = command.endswith("-exhaustive")
    fault = draw(st.sampled_from(COMMAND_FAULTS[command])) if draw(st.booleans()) else "none"
    sk = command == "sk-exhaustive"
    q = draw(st.sampled_from([2, 3, 4] if sk else [2, 3, 4, 5, 7, 8, 9]))
    r = draw(st.integers(3, 4 if sk else 5))
    s = draw(st.integers(2, r - 1))
    d = draw(st.integers(1 if oracle else 2, 2 if sk else 3))
    expected = {0, 3} if oracle else {0}  # an oracle may pass the 2^26 enumeration cap
    if fault == "s_ge_r":
        s, expected = draw(st.integers(r, r + 1)), {2}
    elif fault == "d_low":
        d, expected = draw(st.integers(-1, 0 if oracle else 1)), {2}
    elif fault == "q":
        q, expected = draw(st.sampled_from([-3, 0, 1, 6, 10, 12])), {2}
    elif fault == "slot_cap":
        # C(r + d, r) > 2^16; theory only reports the count, and p1 is computed at r = s + 1
        r, s, d = draw(st.sampled_from([(12, 2, 12), (40, 2, 40), (9, 3, 16)]))
        expected = {"theory": {0}, "p1-exhaustive": {0, 3}}.get(command, {3})
    argv = ["oracle", command] if oracle else [command]
    argv += ["--q", str(q), "--r", str(r), "--s", str(s), "--d", str(d)]
    if command in ("gen", "experiment"):
        argv += ["--seed", str(draw(st.integers(0, 9)))]
    if command == "experiment":
        backend = draw(st.sampled_from(BACKENDS))
        hstar = draw(st.integers(1, min(3, max(q, 2) ** max(r - s, 0))))
        workers = draw(st.integers(1, 3))
        if fault == "hstar":
            hstar, expected = draw(st.integers(-1, 0)), {2}
        elif fault == "workers":
            workers, expected = draw(st.integers(-2, 0)), {2}
        elif fault == "none" and backend == "resultant" and s != 2:
            expected = {3}  # refused before any trial: the resultant backend supports s = 2 only
        argv += ["--trials", str(draw(st.integers(1, 3))), "--backend", backend,
                 "--hstar", str(hstar), "--workers", str(workers)] + ["--certify"] * draw(st.booleans())
    if sk:
        m = max(r - s, 1)
        pool = list(itertools.islice(itertools.product(range(max(q, 2)), repeat=m), 64))
        strips = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max(1, min(r - s + 1, 3)), unique=True))
        strips = [list(a) for a in strips]
        if fault in ("malformed", "short", "long", "duplicate", "outside"):
            expected = {2}
        if fault == "short":
            strips[0].pop()
        elif fault == "long":
            strips[0].append(0)
        elif fault == "duplicate":
            strips.append(strips[0])
        elif fault == "outside":
            strips[0][0] = q
        text = ";".join(",".join(map(str, a)) for a in strips)
        if fault == "malformed":
            text = draw(st.sampled_from(["x", text + ";y", text.replace(",", ".", 1) if m > 1 else "0.5", "1,,x"]))
        argv += ["--strips", text]
    return argv, expected


@settings(max_examples=120, deadline=None)
@given(command_cases())
# a usage fault (hstar 0) comes before the capacity refusal of the resultant backend at s = 3
@example(case=(["experiment", "--q", "2", "--r", "4", "--s", "3", "--d", "2", "--seed", "0", "--trials", "1",
                "--backend", "resultant", "--hstar", "0", "--workers", "1"], {2}))
def test_cli_exit_codes_on_every_command(tmp_path_factory, case):
    argv, expected = case
    if argv[0] == "experiment":
        argv = argv + ["--out", str(tmp_path_factory.mktemp("experiment"))]
    out, err = io.StringIO(), io.StringIO()
    with patch("svsearch.mc.Pool", side_effect=AssertionError("no worker process")), \
            patch("svsearch.mc.os.cpu_count", return_value=1), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in expected, (argv, err.getvalue())
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:" if code == 2 else "capacity:")
        assert len(err.getvalue().splitlines()) == 1
    elif argv[0] != "experiment":
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


def test_oracle_sk_checks_shape_before_strips(capsys):
    # s >= r leaves no strip coordinates: the shape rule speaks first
    code, out, err = run_cli(capsys, "oracle", "sk-exhaustive", "--q", "2", "--r", "3", "--s", "4", "--d", "2",
                             "--strips", "0")
    assert (code, out, err) == (2, "", "error: need 1 < s < r, got s=4, r=3\n")


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["p1-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "2",
          "--strips", "0;0;0", "--system", "nofile", "--strip", "x"], "--strip, --strips, --system"),
        (["p1-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "2", "--strips", "0;1"], "--strips"),
        (["sk-exhaustive", "--q", "2", "--r", "3", "--s", "2", "--d", "2", "--strips", "0;1", "--strip", "0"], "--strip"),
        (["count-points", "--system", "nofile", "--q", "2"], "--q"),
        (["count-points", "--system", "nofile", "--strip", "0", "--strips", "0;1"], "--strips"),
    ],
    ids=["p1_with_every_other", "p1_with_strips", "sk_with_strip", "count_points_with_q", "count_points_with_strips"],
)
def test_oracle_extra_argument_usage_error(capsys, argv, extra):
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert code == 2 and out == ""
    assert err == f"error: oracle {argv[0]} does not take {extra}\n"


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
    with pytest.raises(UsageError, match="must have 2 coordinates"):
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


def test_oracle_count_points_strip_rules(capsys, tmp_path):
    # one strip for an underdetermined system, none for a square one
    under = {"q": 2, "r": 3, "s": 2, "d": 2, "polynomials": [[{"c": 1, "e": [0, 1, 0]}], [{"c": 1, "e": [0, 0, 1]}]]}
    square = {"q": 2, "r": 2, "s": 2, "d": 2, "polynomials": [[{"c": 1, "e": [1, 0]}], [{"c": 1, "e": [0, 1]}]]}
    for doc, strip in ((under, "0;1"), (under, "0;0"), (under, "0,1"), (square, "0"), (square, "")):
        path = make_system_file(tmp_path, doc)
        code, out, err = run_cli(capsys, "oracle", "count-points", "--system", path, "--strip", strip)
        assert code == 2 and out == "", (doc["r"], strip)
        assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, _ = run_cli(capsys, "oracle", "count-points", "--system", make_system_file(tmp_path, square))
    assert code == 0 and json.loads(out) == {"distinct_geometric_points": 1}
