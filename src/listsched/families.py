"""Adversarial job families with known greedy and optimal makespans.

Each generator returns the instance, the arrival order that drives greedy
least-loaded assignment to its worst makespan, and the closed-form
predictions for that worst makespan and for the optimum. Unit jobs come
first in ascending id order; the single large job arrives last (the greedy
worst case needs the machines evenly loaded before the big job lands).
Each generator checks m before it computes any size or prediction from it.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .model import (
    ArrivalOrder,
    Instance,
    Time,
    _check_count,
    _write_atomic,
    format_instance,
    format_time,
)

__all__ = [
    "FAMILY_TAGS",
    "GeneratedFamily",
    "gen_class1",
    "gen_class2",
    "gen_graham_tight",
    "gen_faigle",
    "generate",
    "family_sidecar",
    "save_family",
]

FAMILY_TAGS = (
    "class1",
    "class2",
    "graham_tight",
    "faigle_m2",
    "faigle_m3",
    "faigle_sqrt2",
)


class GeneratedFamily(NamedTuple):
    """An instance bundled with its predicted values; its listed order is
    the adversarial one."""

    instance: Instance
    family_tag: str
    predicted_lsa: Time
    predicted_opt: Time

    @property
    def worst_order(self) -> ArrivalOrder:
        return ArrivalOrder.as_listed(self.instance)


# Building and scoring a family peaks at about 17 bytes a job (tracemalloc,
# class2 at m=300 and m=1000; a Tier-1 test holds it under 20), so this
# cap, checked before any job is built, keeps one under 1 GB.
_MAX_JOBS = 10_000_000


def _listed(runs: list, m: int, tag: str, lsa: Time, opt: Time) -> GeneratedFamily:
    """The family listing its (count, size) runs; counted before it is
    built, and built from the runs, with no list of every job's size."""
    jobs = sum(count for count, _ in runs)
    if jobs > _MAX_JOBS:
        raise ValueError(
            f"m={m} is too large: {tag} lists {jobs} jobs, more than {_MAX_JOBS}"
        )
    return GeneratedFamily(Instance._from_runs(runs, m), tag, lsa, opt)


def gen_class1(m: int) -> GeneratedFamily:
    """(m-1)^2 unit jobs then one job of size m.

    Greedy on the listed order leaves one machine at m-1 and the rest at
    m-2, then the big job lands on a least-loaded machine: makespan 2m-2.
    The optimum parks the big job alone and balances the units: m.
    """
    _check_count("machine count", m, 2)
    runs = [((m - 1) * (m - 1), 1), (1, m)]
    return _listed(runs, m, "class1", Time(2 * m - 2), Time(m))


def gen_class2(m: int) -> GeneratedFamily:
    """m(m-1) unit jobs then one job of size m^2.

    Greedy balances the units to m-1 per machine before the big job:
    makespan m-1+m^2. The optimum is m^2 (big job alone, units at m each).
    """
    _check_count("machine count", m, 2)
    runs = [(m * (m - 1), 1), (1, m * m)]
    return _listed(runs, m, "class2", Time(m - 1 + m * m), Time(m * m))


def gen_graham_tight(m: int) -> GeneratedFamily:
    """m(m-1) unit jobs then one job of size m: greedy hits exactly (2-1/m)x.

    Greedy loads every machine to m-1, then adds m: makespan 2m-1 against
    an optimum of m, meeting the general greedy guarantee with equality.
    """
    _check_count("machine count", m, 2)
    runs = [(m * (m - 1), 1), (1, m)]
    return _listed(runs, m, "graham_tight", Time(2 * m - 1), Time(m))


def gen_faigle(m: int) -> GeneratedFamily:
    """Historical lower-bound sequences for greedy list scheduling.

    m=2: (1,1,2), ratio 3/2. m=3: (1,1,1,3,3,3,6), ratio 5/3. m>=4: m unit
    jobs, m jobs of size 1+sqrt(2), one job of size 2+2*sqrt(2); greedy
    ends at 4+3*sqrt(2) versus an optimum of 2+2*sqrt(2), ratio about
    1.7071 independent of m. The listed order is the adversarial one.
    """
    _check_count("machine count", m, 2)
    if m == 2:
        return _listed([(2, 1), (1, 2)], 2, "faigle_m2", Time(3), Time(2))
    if m == 3:
        return _listed([(3, 1), (3, 3), (1, 6)], 3, "faigle_m3", Time(10), Time(6))
    runs = [(m, Time(1)), (m, Time(1, 1)), (1, Time(2, 2))]
    return _listed(runs, m, "faigle_sqrt2", Time(4, 3), Time(2, 2))


_GENERATORS = {
    "class1": gen_class1,
    "class2": gen_class2,
    "graham_tight": gen_graham_tight,
    "faigle": gen_faigle,
}


def generate(family: str, m: int) -> GeneratedFamily:
    """Dispatch on the family name: class1, class2, graham_tight, faigle."""
    try:
        generator = _GENERATORS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(_GENERATORS)}"
        ) from None
    return generator(m)


def family_sidecar(family: GeneratedFamily) -> str:
    """JSON sidecar with the tag, predictions, and adversarial order."""
    instance = family.instance
    payload = {
        "family_tag": family.family_tag,
        "machines": instance.machines,
        "jobs": [
            {"id": job_id, "size": size}
            for job_id, size in zip(instance.job_ids, map(format_time, instance.sizes))
        ],
        "worst_order": list(family.worst_order.permutation),
        "predicted_lsa": format_time(family.predicted_lsa),
        "predicted_opt": format_time(family.predicted_opt),
    }
    return json.dumps(payload, indent=2) + "\n"


def save_family(
    family: GeneratedFamily,
    directory: Union[str, Path],
    stem: Optional[str] = None,
) -> tuple[Path, Path]:
    """Write the instance file and its JSON sidecar; return both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if stem is None:
        stem = f"{family.family_tag}_m{family.instance.machines}"
    instance_path = directory / f"{stem}.txt"
    sidecar_path = directory / f"{stem}.json"
    _write_atomic(instance_path, format_instance(family.instance))
    _write_atomic(sidecar_path, family_sidecar(family))
    return instance_path, sidecar_path
