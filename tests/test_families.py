"""Structured family generators: composition, predictions, serialization."""
from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import pytest

from listsched import families
from listsched.families import (
    FAMILY_TAGS,
    gen_class1,
    gen_class2,
    gen_faigle,
    gen_graham_tight,
    generate,
    save_family,
)
from listsched.harness import competitive_ratio
from listsched.model import Instance, Time, load_instance
from listsched.online import Lsa, online_makespan, run_online
from listsched.oracle import graham_bracket, opt_exact


def test_job_counts():
    for m in range(2, 31):
        assert len(gen_class1(m).instance) == (m - 1) ** 2 + 1
        assert len(gen_class2(m).instance) == m * (m - 1) + 1
        assert len(gen_graham_tight(m).instance) == m * (m - 1) + 1
    for m in range(4, 31):
        assert len(gen_faigle(m).instance) == 2 * m + 1


def test_graham_bracket_gives_every_familys_predictions():
    """On each family at every m up to 100, Graham's bracket (lb, ub) of
    the lane column is the predicted optimum and the predicted greedy
    makespan, which greedy meets on the listed order. So ub/lb gives the
    paper's bounds: 2 - 2/m on class1, 2 - (m^2 - m + 1)/m^2 on class2."""
    for m in range(2, 101):
        for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
            fam = gen(m)
            lanes = fam.instance.lanes
            lb, ub = map(lanes.time, graham_bracket(lanes.sizes, m))
            assert lb == fam.predicted_opt, (fam.family_tag, m)
            assert ub == fam.predicted_lsa, (fam.family_tag, m)
            assert ub == online_makespan(fam.instance, fam.worst_order), (fam.family_tag, m)
            if gen is gen_class1:
                assert ub / lb == 2 - Fraction(2, m)
            elif gen is gen_class2:
                assert ub / lb == 2 - Fraction(m * m - m + 1, m * m)


def test_small_machine_counts_rejected():
    for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
        for m in (-1, 0, 1):
            with pytest.raises(ValueError):
                gen(m)
    with pytest.raises(ValueError):
        generate("class1", 1)


def test_composition_and_listed_order():
    fam = gen_class1(4)
    sizes = [j.size for j in fam.instance.jobs]
    assert sizes == [Time(1)] * 9 + [Time(4)]
    assert fam.instance.job_ids == tuple(range(1, 11))
    assert fam.worst_order.permutation == tuple(range(1, 11))

    fam = gen_class2(2)
    assert [j.size for j in fam.instance.jobs] == [Time(1), Time(1), Time(4)]

    fam = gen_graham_tight(3)
    assert [j.size for j in fam.instance.jobs] == [Time(1)] * 6 + [Time(3)]

    fam = gen_faigle(2)
    assert [j.size for j in fam.instance.jobs] == [Time(1), Time(1), Time(2)]
    assert fam.family_tag == "faigle_m2"

    fam = gen_faigle(3)
    assert [j.size for j in fam.instance.jobs] == [
        Time(1), Time(1), Time(1), Time(3), Time(3), Time(3), Time(6),
    ]
    assert fam.family_tag == "faigle_m3"

    fam = gen_faigle(5)
    assert fam.family_tag == "faigle_sqrt2"
    sizes = [j.size for j in fam.instance.jobs]
    assert sizes == [Time(1)] * 5 + [Time(1, 1)] * 5 + [Time(2, 2)]


def test_every_family_tag_is_reachable():
    seen = {
        gen_class1(3).family_tag,
        gen_class2(3).family_tag,
        gen_graham_tight(3).family_tag,
        gen_faigle(2).family_tag,
        gen_faigle(3).family_tag,
        gen_faigle(4).family_tag,
    }
    assert seen == set(FAMILY_TAGS)


def test_predictions_match_execution():
    for m in (2, 3, 4, 5, 8, 16, 33, 64, 100):
        for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
            fam = gen(m)
            sched, _ = run_online(fam.instance, fam.worst_order)
            assert sched.makespan == fam.predicted_lsa, (fam.family_tag, m)
            result = opt_exact(fam.instance)
            assert result.is_exact, (fam.family_tag, m)
            assert result.value == fam.predicted_opt, (fam.family_tag, m)


@pytest.mark.parametrize("m", [150, 300])
def test_unit_run_families_at_scale(m):
    """Up to 89,700 unit jobs: the greedy makespan on the listed order,
    with either tie-break, and the optimum match the closed forms."""
    closed_forms = {
        gen_class1: (2 * m - 2, m),
        gen_class2: (m - 1 + m * m, m * m),
        gen_graham_tight: (2 * m - 1, m),
    }
    for gen, (greedy_makespan, optimum) in closed_forms.items():
        fam = gen(m)
        for tie_break in ("low", "high"):
            makespan = online_makespan(fam.instance, fam.worst_order, Lsa(tie_break))
            assert makespan == Time(greedy_makespan), (fam.family_tag, tie_break)
        assert opt_exact(fam.instance).value == Time(optimum), fam.family_tag


def test_run_built_families_equal_from_sizes_of_their_expanded_runs(monkeypatch):
    """A family's instance, built from its (count, size) runs, is the one
    from_sizes builds from the sizes the runs expand to, column for column,
    at every m up to 100."""
    runs_of = []
    from_runs = Instance._from_runs

    def recording(runs, machines):
        runs_of.append(runs)
        return from_runs(runs, machines)

    monkeypatch.setattr(Instance, "_from_runs", recording)
    for m in range(2, 101):
        for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
            built = gen(m).instance
            sizes = [size for count, size in runs_of.pop() for _ in range(count)]
            want = Instance.from_sizes(sizes, m)
            assert built.job_ids == want.job_ids, (gen, m)
            assert built.sizes == want.sizes and built.lanes == want.lanes, (gen, m)
            assert built == want and hash(built) == hash(want), (gen, m)
            assert repr(built) == repr(want), (gen, m)


@pytest.mark.parametrize("bad", [0, Fraction(0), Time(0), "0", 1.0, 0.0])
def test_a_bad_run_size_is_refused_as_from_sizes_refuses_it(bad):
    """A zero size names the first job of its run, and a float is refused
    as inexact, with from_sizes's exception and message."""
    runs = [(3, 1), (2, bad), (1, 5), (2, bad)]
    sizes = [size for count, size in runs for _ in range(count)]
    with pytest.raises((ValueError, TypeError)) as want:
        Instance.from_sizes(sizes, 2)
    with pytest.raises(want.type) as got:
        Instance._from_runs(runs, 2)
    assert str(got.value) == str(want.value)
    if want.type is ValueError:
        assert str(got.value) == "job 4 must have positive size"


def test_scoring_class2_peaks_under_100_bytes_a_job():
    """Building and scoring class2 at m=300 (89,701 jobs) allocates under
    100 bytes a job at its peak, the cap's premise (about 73 here)."""
    competitive_ratio(gen_class2(3).instance, family_tag="class2")  # warm up
    tracemalloc.start()
    try:
        fam = gen_class2(300)
        report = competitive_ratio(fam.instance, family_tag="class2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.alg_makespan == fam.predicted_lsa
    assert peak < 100 * len(fam.instance), peak / len(fam.instance)


def test_machine_counts_too_large_for_a_family_are_refused():
    for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
        with pytest.raises(ValueError, match="too large"):
            gen(10**20)
    # m = 30,000 asks for about 9*10^8 unit jobs: refused before the list
    # of sizes is built, while faigle's 2m + 1 jobs still fit
    for gen in (gen_class1, gen_class2, gen_graham_tight):
        with pytest.raises(ValueError, match="m=30000 is too large"):
            gen(30_000)
    assert len(gen_faigle(30_000).instance) == 60_001


def test_family_cap_counts_every_job(monkeypatch):
    monkeypatch.setattr(families, "_MAX_JOBS", 13)
    assert len(gen_class1(4).instance) == 10
    assert len(gen_class2(4).instance) == len(gen_graham_tight(4).instance) == 13
    assert len(gen_faigle(6).instance) == 13
    refused = ((gen_class1, 5), (gen_class2, 5), (gen_graham_tight, 5), (gen_faigle, 7))
    for gen, m in refused:
        with pytest.raises(ValueError, match="too large"):
            gen(m)


def test_generate_dispatch():
    assert generate("class1", 3).family_tag == "class1"
    assert generate("faigle", 7).family_tag == "faigle_sqrt2"
    with pytest.raises(ValueError):
        generate("bartal", 3)


def test_save_family_round_trip(tmp_path):
    fam = gen_faigle(4)
    instance_path, sidecar_path = save_family(fam, tmp_path)
    assert instance_path.name == "faigle_sqrt2_m4.txt"
    assert load_instance(instance_path) == fam.instance

    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["family_tag"] == "faigle_sqrt2"
    assert sidecar["machines"] == 4
    assert sidecar["predicted_lsa"] == "4 + 3 r2"
    assert sidecar["predicted_opt"] == "2 + 2 r2"
    assert sidecar["worst_order"] == list(range(1, 10))
    assert [j["size"] for j in sidecar["jobs"]][:4] == ["1", "1", "1", "1"]
    assert sidecar["jobs"][-1]["size"] == "2 + 2 r2"

    first = sidecar_path.read_bytes()
    save_family(fam, tmp_path)
    assert sidecar_path.read_bytes() == first


def test_failed_save_family_leaves_old_files_and_no_temp(tmp_path, monkeypatch):
    fam = gen_faigle(4)
    instance_path, sidecar_path = save_family(fam, tmp_path)
    before = sorted(tmp_path.iterdir())
    sidecar = sidecar_path.read_bytes()
    monkeypatch.setattr(families, "family_sidecar", lambda family: "{\ud800}")
    with pytest.raises(UnicodeEncodeError):  # fails while writing the sidecar
        save_family(fam, tmp_path)
    assert sidecar_path.read_bytes() == sidecar
    assert load_instance(instance_path) == fam.instance
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("machines", [2.0, 2.5, Fraction(3), "3"])
def test_generators_refuse_a_non_int_machine_count_first(machines, monkeypatch):
    # no size or prediction is built: Time would fail with another message
    monkeypatch.setattr(families, "Time", None)
    message = f"machine count must be an int, not {machines!r}"
    for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
        with pytest.raises(TypeError) as raised:
            gen(machines)
        assert str(raised.value) == message
    for name in ("class1", "class2", "graham_tight", "faigle"):
        with pytest.raises(TypeError) as raised:
            generate(name, machines)
        assert str(raised.value) == message


@pytest.mark.parametrize("machines", [1, 0, -3])
def test_generators_refuse_a_small_machine_count_first(machines, monkeypatch):
    # no size or prediction is built: Time(2 * m - 2) would say "negative quantity"
    monkeypatch.setattr(families, "Time", None)
    message = f"machine count must be >= 2, got {machines}"
    for gen in (gen_class1, gen_class2, gen_graham_tight, gen_faigle):
        with pytest.raises(ValueError) as raised:
            gen(machines)
        assert str(raised.value) == message
