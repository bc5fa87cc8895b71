"""Numbers quoted in README.md against the computations that yield them.

Each check finds one phrase of the README, recomputes the deterministic
numbers in it (rounds and ``WorkCounter`` visits per (n + m)), and fails
when the text and the computation disagree, rounded as quoted.  A wall
time cannot be recomputed; it is checked against the ``BENCH_*.json``
file and key it cites.
"""

import json
import os
import re

from dsreduce.generators import path
from dsreduce.pipeline import WorkCounter
from dsreduce.reducer import Variant, reduce_iterate
from dsreduce.state import ReductionState
from test_iterate import hub_path_extra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def readme_text():
    """The README with its line breaks and indentation folded to single
    spaces, so a phrase may wrap anywhere."""
    with open(README, encoding="utf-8") as fh:
        return " ".join(fh.read().split())


def quoted(pattern):
    """The groups of the one match of ``pattern`` in the README."""
    found = re.findall(pattern, readme_text())
    assert len(found) == 1, (pattern, found)
    return found[0]


def numbers(listing):
    """'1, 2 and 3' as ['1', '2', '3']."""
    return re.split(r", | and ", listing)


def same(text, value):
    """Whether ``value`` rounds to ``text`` at the number of decimals
    ``text`` shows."""
    places = len(text.partition(".")[2])
    return f"{value:.{places}f}" == text


def iterate_extra(g):
    """Rounds and visits per (n + m) of ``reduce --rule extra --iterate``."""
    work = WorkCounter()
    rep = reduce_iterate(ReductionState(g), Variant.EXTRA, work=work)
    return rep.rounds, work.visits / (g.n + g.m)


def test_long_path_visits_per_edge():
    first, n1, second, n2 = quoted(
        r"reduces in linear total work: ([\d.]+) visits per \(n \+ m\) "
        r"at n = (\d+) and ([\d.]+) at n = (\d+)"
    )
    for text, n in ((first, n1), (second, n2)):
        _rounds, per_nm = iterate_extra(path(int(n)))
        assert same(text, per_nm), (n, text, per_nm)


def test_hub_path_rounds_and_visits():
    lengths, rounds, visits = map(numbers, quoted(
        r"L = ([\d, and]+?) take ([\d, and]+?) rounds and "
        r"([\d., and]+?) visits per \(n \+ m\)"
    ))
    assert lengths[:3] == ["1001", "2000", "4001"], lengths
    assert len(lengths) == len(rounds) == len(visits), (lengths, rounds, visits)
    for length, want_rounds, want_visits in zip(lengths, rounds, visits):
        rep, per_nm, _applied = hub_path_extra(int(length))
        assert rep.rounds == int(want_rounds), (length, rep.rounds)
        assert same(want_visits, per_nm), (length, want_visits, per_nm)


def test_hub_path_apply_visits():
    # one of the runs above, which test_apply_work_on_the_hub_path reads too
    text, length = quoted(
        r"apply costs ([\d.]+) visits per \(n \+ m\) on the hub path at "
        r"L = (\d+)"
    )
    assert length == "2000", length
    _rep, _per_nm, applied = hub_path_extra(int(length))
    assert same(text, applied), (text, applied)


def test_wall_times_match_the_benchmark_keys_they_cite():
    # Each time quoted as "<value> µs (`BENCH_<n>.json` key `<a.b>`)" must
    # be that key's value in that file, rounded as quoted; the per-round
    # time of the chains corpus is quoted so, next to its parent's, and
    # so are greedy_best_of's times per powerlaw instance, in one process
    # and forked.
    cited = re.findall(
        r"([\d.]+) µs \(`(BENCH_\d+\.json)` key `([\w.]+)`\)", readme_text()
    )
    keys = {(fname, key) for _text, fname, key in cited}
    assert {
        ("BENCH_35.json", "per_round_us.change"),
        ("BENCH_35.json", "per_round_us.parent"),
        ("BENCH_38.json", "best_of_us.powerlaw_sequential"),
        ("BENCH_38.json", "best_of_us.powerlaw_forked"),
    } <= keys, cited
    for text, fname, key in cited:
        with open(os.path.join(ROOT, fname), encoding="utf-8") as fh:
            value = json.load(fh)
        for part in key.split("."):
            assert isinstance(value, dict) and part in value, (fname, key)
            value = value[part]
        assert same(text, value), (fname, key, text, value)
