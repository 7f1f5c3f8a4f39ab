import json

import pytest

from svsearch.errors import UsageError
from svsearch.ffield import field_for_order, prime_field
from svsearch.mpoly import MPoly
from svsearch.sampler import RngStream, SystemSpec, sample_system
from svsearch.svs import run_svs, verify_solution


def P(nvars, terms, ctx):
    return MPoly.from_terms(nvars, terms, ctx)


def test_explicit_strip_success():
    c5 = prime_field(5)
    f = P(3, [((0, 1, 0), 1)], c5)  # X2
    g = P(3, [((0, 0, 1), 1), ((1, 0, 0), 4)], c5)  # X3 - X1
    system = SystemSpec(c5, 3, 2, 2, (f, g))
    out = run_svs(system, strips=[(2,)])
    assert out.status == "success"
    assert out.strip_index == 1
    assert out.point == (0, 2)
    assert verify_solution(system, out.strip, out.point)


def test_failure_after_all_strips():
    c3 = prime_field(3)
    f = P(3, [((0, 2, 0), 1), ((0, 0, 0), 1)], c3)  # X2^2 + 1: no rational root
    g = P(3, [((0, 0, 1), 1)], c3)
    system = SystemSpec(c3, 3, 2, 2, (f, g))
    out = run_svs(system, rng=RngStream(1, 0))
    assert out.status == "failure"
    assert out.strips_tried == 2  # h* = r - s + 1
    assert out.strip_index is None and out.point is None


def test_origin_always_solves():
    c7 = prime_field(7)
    f = P(3, [((0, 1, 0), 1)], c7)
    g = P(3, [((0, 0, 1), 1)], c7)
    system = SystemSpec(c7, 3, 2, 2, (f, g))
    for strip in ((0,), (3,), (6,)):
        out = run_svs(system, strips=[strip])
        assert out.status == "success" and out.strip_index == 1
        assert out.point == (0, 0)


def test_explicit_strip_validation():
    c5 = prime_field(5)
    system = sample_system(c5, 3, 2, 2, RngStream(2, 0))
    with pytest.raises(UsageError):
        run_svs(system, strips=[(1,), (1,)])
    with pytest.raises(UsageError, match="must have 1 coordinates"):  # the wording of every strip entry point
        run_svs(system, strips=[(1, 2)])
    with pytest.raises(UsageError):
        run_svs(system, strips=[(5,)])  # not an element of GF(5)
    with pytest.raises(UsageError):
        run_svs(system)  # no strip source
    with pytest.raises(UsageError):
        run_svs(system, strips=[(1,)], rng=RngStream(0, 0))  # both sources


def test_replay_identical_serialization():
    c31 = prime_field(31)
    for trial in range(30):
        system = sample_system(c31, 5, 2, 3, RngStream(71, trial))
        outs = []
        for _ in range(2):
            rng = RngStream(71, 10_000 + trial)
            out = run_svs(system, rng=rng)
            outs.append(json.dumps(out.to_dict(system), sort_keys=True))
        assert outs[0] == outs[1]


def test_monotonicity_prepending_solving_strip():
    c5 = prime_field(5)
    f = P(3, [((0, 1, 0), 1), ((1, 0, 0), 4)], c5)  # X2 - X1
    g = P(3, [((0, 0, 1), 1)], c5)  # X3
    system = SystemSpec(c5, 3, 2, 2, (f, g))
    base = run_svs(system, strips=[(2,), (3,)])
    assert base.status == "success" and base.strip_index == 1 and base.point == (2, 0)
    # prepend another solving strip: it wins and contributes its own zero
    out = run_svs(system, strips=[(4,), (2,), (3,)])
    assert out.strip_index == 1
    assert out.strip == (4,)
    assert out.point == (4, 0)


def test_backend_independence_status_and_index():
    rng = RngStream(303, 0)
    for trial in range(120):
        q = (2, 3, 4, 5, 7, 9, 11, 13, 16)[rng.next_below(9)]
        ctx = field_for_order(q)
        system = sample_system(ctx, 4, 2, 2, RngStream(303, 1000 + trial))
        exh = run_svs(system, rng=RngStream(303, 2000 + trial), backend="exhaustive")
        res = run_svs(system, rng=RngStream(303, 2000 + trial), backend="resultant")
        assert exh.status == res.status
        assert exh.strip_index == res.strip_index
        if exh.status == "success":
            assert verify_solution(system, exh.strip, exh.point)
            assert verify_solution(system, res.strip, res.point)


def test_soundness_mixed_parameters_small():
    rng = RngStream(404, 0)
    for trial in range(300):
        q = (2, 3, 5, 7, 8, 9)[rng.next_below(6)]
        ctx = field_for_order(q)
        r = 3 + rng.next_below(2)
        s = 2 + rng.next_below(r - 2)
        d = 2 + rng.next_below(2)
        system = sample_system(ctx, r, s, d, RngStream(404, 1000 + trial))
        out = run_svs(system, rng=RngStream(404, 50_000 + trial))
        if out.status == "success":
            assert verify_solution(system, out.strip, out.point)
        assert len(set(out.strips)) == len(out.strips)


def test_hstar_override_and_budget():
    c5 = prime_field(5)
    f = P(3, [((0, 2, 0), 1), ((0, 0, 0), 2)], c5)  # X2^2 + 2: roots? 2 is a non-residue mod 5
    g = P(3, [((0, 0, 1), 1)], c5)
    system = SystemSpec(c5, 3, 2, 2, (f, g))
    out = run_svs(system, rng=RngStream(5, 0), hstar=4)
    assert out.status == "failure" and out.strips_tried == 4
    out1 = run_svs(system, rng=RngStream(5, 0), hstar=1)
    assert out1.strips_tried == 1
    assert out1.strips == out.strips[:1]  # prefix consistency across budgets


def test_strip_budget_checked_on_both_paths():
    c5 = prime_field(5)
    system = sample_system(c5, 4, 2, 2, RngStream(7, 0))
    strips = [(0, 1), (2, 3)]
    assert run_svs(system, strips=strips, hstar=2).hstar == 2
    for hstar in (0, -1, 3):  # outside [1, 2] explicit strips
        with pytest.raises(UsageError, match="must lie in"):
            run_svs(system, strips=strips, hstar=hstar)
    with pytest.raises(UsageError, match="must be >= 1"):  # sampler.check_strip_budget
        run_svs(system, rng=RngStream(7, 1), hstar=0)


def test_certificates_on_request():
    c7 = prime_field(7)
    system = sample_system(c7, 3, 2, 2, RngStream(6, 3))
    out = run_svs(system, rng=RngStream(6, 4), certify=True)
    assert out.certificates is not None
    assert len(out.certificates) == out.strips_tried
    plain = run_svs(system, rng=RngStream(6, 4))
    assert plain.certificates is None
    ctx = prime_field(5)
    sys3 = sample_system(ctx, 5, 3, 2, RngStream(6, 5))
    with pytest.raises(UsageError):
        run_svs(sys3, rng=RngStream(6, 6), certify=True)


def test_verify_solution_examples():
    c5 = prime_field(5)
    f = P(3, [((0, 1, 0), 1)], c5)
    g = P(3, [((0, 0, 1), 1)], c5)
    system = SystemSpec(c5, 3, 2, 2, (f, g))
    assert verify_solution(system, (1,), (0, 0))
    f2 = P(3, [((0, 1, 0), 1), ((0, 0, 0), 4)], c5)  # X2 - 1
    system2 = SystemSpec(c5, 3, 2, 2, (f2, g))
    assert not verify_solution(system2, (1,), (0, 0))
    with pytest.raises(UsageError):
        verify_solution(system, (1, 2), (0, 0))
