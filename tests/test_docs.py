"""Numbers quoted in README.md against the computations that yield them.

Each check finds one phrase of the README, recomputes the deterministic
numbers in it (rounds and ``WorkCounter`` visits per (n + m)), and fails
when the text and the computation disagree, rounded as quoted.  Wall
times are not checked here.
"""

import os
import re

from dsreduce.generators import path
from dsreduce.pipeline import WorkCounter
from dsreduce.reducer import Variant, reduce_iterate
from dsreduce.state import ReductionState
from test_iterate import with_hub

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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
        got_rounds, per_nm = iterate_extra(with_hub(path(int(length)), 3))
        assert got_rounds == int(want_rounds), (length, got_rounds)
        assert same(want_visits, per_nm), (length, want_visits, per_nm)
