import io
import random
import tracemalloc

import pytest

from dsreduce.generators import gnp, path
from dsreduce.graphio import (
    REPORT_FIELDS,
    FormatError,
    read_edge_list,
    read_gr,
    read_graph,
    read_sidecar,
    write_gr,
    write_report_csv,
    write_sidecar,
)


def parse_gr(text):
    return read_gr(io.StringIO(text))


def test_gr_roundtrip():
    for seed in (1, 2, 3):
        g = gnp(25, 0.2, seed=seed)
        buf = io.StringIO()
        write_gr(g, buf)
        back = parse_gr(buf.getvalue())
        assert back.n == g.n and back.m == g.m
        assert list(back.edges()) == list(g.edges())


def test_gr_accepts_comments_and_any_problem_tag():
    g = parse_gr("c hello\np whatever 3 2\nc mid\n1 2\n2 3\n")
    assert g.n == 3 and g.m == 2


def test_gr_header_errors():
    with pytest.raises(FormatError, match="line 1.*header needs"):
        parse_gr("p ds 3\n")
    with pytest.raises(FormatError, match="line 1: header needs 'p <kind> <n> <m>'"):
        parse_gr("p ds 3 2 5\n1 2\n")
    with pytest.raises(FormatError, match="line 2: duplicate header"):
        parse_gr("p ds 2 0\np ds 2 0\n")
    with pytest.raises(FormatError, match="non-numeric header"):
        parse_gr("p ds three 2\n")
    with pytest.raises(FormatError, match="negative header"):
        parse_gr("p ds -1 0\n")
    with pytest.raises(FormatError, match="missing 'p' header"):
        parse_gr("c only a comment\n")


def test_gr_edge_errors():
    with pytest.raises(FormatError, match="line 1: edge before header"):
        parse_gr("1 2\n")
    with pytest.raises(FormatError, match="line 2: expected two endpoints"):
        parse_gr("p ds 3 1\n1 2 3\n")
    with pytest.raises(FormatError, match="line 2: non-numeric endpoint"):
        parse_gr("p ds 3 1\n1 x\n")
    with pytest.raises(FormatError, match="outside 1..3"):
        parse_gr("p ds 3 1\n0 2\n")
    with pytest.raises(FormatError, match="outside 1..3"):
        parse_gr("p ds 3 1\n1 4\n")
    with pytest.raises(FormatError, match="more edges than the header"):
        parse_gr("p ds 3 1\n1 2\n2 3\n")
    with pytest.raises(FormatError, match="truncated"):
        parse_gr("p ds 3 2\n1 2\n")


def test_gr_deduplicates_and_drops_loops():
    g = parse_gr("p ds 3 3\n1 2\n2 1\n3 3\n")
    assert g.m == 1
    assert g.has_edge(0, 1)


def test_edge_list_reader():
    g = read_edge_list(io.StringIO("0 1\n1 2\nc note\n2 0\n"))
    assert g.n == 3 and g.m == 3
    with pytest.raises(FormatError, match="negative vertex id"):
        read_edge_list(io.StringIO("0 -2\n"))
    with pytest.raises(FormatError, match="line 1: expected two"):
        read_edge_list(io.StringIO("0\n"))


def test_edge_list_infers_n_from_max_id():
    g = read_edge_list(io.StringIO("0 9\n"))
    assert g.n == 10 and g.m == 1


def test_edge_list_header_roundtrip():
    g = gnp(20, 0.2, seed=4)
    buf = io.StringIO()
    write_gr(g, buf, base=0)
    back = read_edge_list(io.StringIO("c lead\n" + buf.getvalue()))
    assert back.n == g.n and list(back.edges()) == list(g.edges())
    # the header keeps trailing isolated vertices
    assert read_edge_list(io.StringIO("p ds 5 1\n0 1\n")).n == 5


def test_edge_list_header_errors():
    with pytest.raises(FormatError, match="line 2: vertex id outside 0..2"):
        read_edge_list(io.StringIO("p ds 3 1\n1 3\n"))
    with pytest.raises(FormatError, match="line 2: header must lead"):
        read_edge_list(io.StringIO("0 1\np ds 2 1\n"))
    with pytest.raises(FormatError, match="line 2: header must lead"):
        read_edge_list(io.StringIO("p ds 2 0\np ds 2 0\n"))
    with pytest.raises(FormatError, match="header declares 2 edges, file holds 1"):
        read_edge_list(io.StringIO("p ds 3 2\n0 1\n"))
    with pytest.raises(FormatError, match="line 1: non-numeric header"):
        read_edge_list(io.StringIO("p ds x 1\n"))
    with pytest.raises(FormatError, match="line 1: header needs 'p <kind> <n> <m>'"):
        read_edge_list(io.StringIO("p ds 3 2 5\n0 1\n"))


def test_read_graph_dispatches_on_extension(tmp_path):
    g = path(5)
    grf = tmp_path / "a.gr"
    with open(grf, "w") as fh:
        write_gr(g, fh)
    got, base = read_graph(str(grf))
    assert base == 1 and got.m == 4

    elf = tmp_path / "b.el"
    elf.write_text("0 1\n1 2\n")
    got, base = read_graph(str(elf))
    assert base == 0 and got.n == 3


def test_sidecar_roundtrip():
    buf = io.StringIO()
    write_sidecar(
        buf,
        fixed=[4, 9],
        covered=[2],
        mapping=[(1, 3), (2, 7)],
        solution=[4, 9, 3],
    )
    got = read_sidecar(io.StringIO(buf.getvalue()))
    assert got["fixed"] == [4, 9]
    assert got["covered"] == [2]
    assert got["map"] == [(1, 3), (2, 7)]
    assert got["solution"] == [4, 9, 3]


def test_sidecar_without_solution_section():
    buf = io.StringIO()
    write_sidecar(buf, fixed=[], covered=[], mapping=[])
    got = read_sidecar(io.StringIO(buf.getvalue()))
    assert got["solution"] == []
    assert "solution:" not in buf.getvalue()


def test_sidecar_errors():
    with pytest.raises(FormatError, match="data before any section"):
        read_sidecar(io.StringIO("7\n"))
    with pytest.raises(FormatError, match="non-numeric id"):
        read_sidecar(io.StringIO("fixed:\nx\n"))
    with pytest.raises(FormatError, match="map lines hold two ids"):
        read_sidecar(io.StringIO("map:\n1 2 3\n"))
    with pytest.raises(FormatError, match="line 2: section header map: must stand"):
        read_sidecar(io.StringIO("fixed:\nmap: 1 2\n"))


def test_report_csv_header_and_rows():
    rows = [
        {
            "instance": "a.gr",
            "n": 5,
            "m": 4,
            "variant": "linear",
            "rounds": 1,
            "fixed": 2,
            "removed_nodes": 2,
            "removed_edges": 4,
            "time_build_ms": 0.1,
            "time_reduce_ms": 0.2,
        }
    ]
    buf = io.StringIO()
    write_report_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "instance,n,m,variant,rounds,fixed,removed_nodes,"
        "removed_edges,time_build_ms,time_reduce_ms"
    )
    assert lines[1].startswith("a.gr,5,4,linear,1,2,2,4,")
    assert REPORT_FIELDS == lines[0].split(",")


def adjacency(g):
    return g.n, g.m, g.adj


# Each case gives the reader's input and either the graph it yields, as
# (n, m, adjacency lists), or a pattern its FormatError message matches.
GR_TABLE = [
    # two-token lines that are not edges
    ("p ds 3 1\nc 1\n1 2\n", (3, 1, [[1], [0], []])),
    ("p ds 3 1\np 1\n", "^line 2: duplicate header$"),
    ("p 1\n", r"^line 1: header needs 'p <kind> <n> <m>'$"),
    ("x y\n", "^line 1: edge before header$"),
    ("1 2\np ds 3 1\n", "^line 1: edge before header$"),
    ("p ds 3 1\nx 2\n", "^line 2: non-numeric endpoint$"),
    ("p ds 3 1\n2 x\n", "^line 2: non-numeric endpoint$"),
    # the range check comes before the edge count check
    ("p ds 3 1\n1 2\n1 9\n", r"^line 3: vertex id outside 1\.\.3$"),
    ("p ds 3 1\n1 2\n0 1\n", r"^line 3: vertex id outside 1\.\.3$"),
    ("p ds 3 1\n1 2\n2 3\n", "^line 3: more edges than the header declares$"),
    ("p ds 3 0\n1 2\n", "^line 2: more edges than the header declares$"),
    ("p ds 3 2\n1 2\n", "^truncated file: 1 of 2 edges present$"),
    # ids are read as int() reads them
    ("p ds 3 1\n+1 2\n", (3, 1, [[1], [0], []])),
    ("p ds 3 1\n１ ３\n", (3, 1, [[2], [], [0]])),
    ("p ds 1_2 1\n1_0 2\n", (12, 1, [[]] + [[9]] + [[]] * 7 + [[1]] + [[]] * 2)),
    ("p ds 3 1\n1 -2\n", r"^line 2: vertex id outside 1\.\.3$"),
    ("p ds 3 1\n1 2.0\n", "^line 2: non-numeric endpoint$"),
    # whitespace variants
    ("p ds 3 2\r\n1 2\r\n\r\n2\t3\r\n", (3, 2, [[1], [0, 2], [1]])),
    ("p\tds 3 1\n \x0c1\x0b2 \n", (3, 1, [[1], [0], []])),
    ("p ds 3 1\n1 2 \x0c 3\n", "^line 2: expected two endpoints$"),
    # one edge in both orientations, and a loop
    ("p ds 3 3\n2 1\n1 2\n3 3\n", (3, 1, [[1], [0], []])),
    ("p ds 1 1\n1 1\n", (1, 0, [[]])),
    ("p ds 1 1\n2 2\n", r"^line 2: vertex id outside 1\.\.1$"),
    # a bare comment marker, then a three-token line
    ("p ds 3 1\nc\n1 x y\n", "^line 3: expected two endpoints$"),
    ("c\n1 x y\n", "^line 2: edge before header$"),
    ("", "^missing 'p' header$"),
]

EL_TABLE = [
    ("0 1\nc 1\n", (2, 1, [[1], [0]])),
    ("p ds 3 1\np 1\n", "^line 2: header must lead the file$"),
    ("0 1\np 1\n", "^line 2: header must lead the file$"),
    ("p 1\n", r"^line 1: header needs 'p <kind> <n> <m>'$"),
    ("x y\n", "^line 1: non-numeric endpoint$"),
    ("0 y\n", "^line 1: non-numeric endpoint$"),
    # the range check is per line, the edge count is checked at the end
    ("p ds 3 1\n0 1\n0 5\n", r"^line 3: vertex id outside 0\.\.2$"),
    ("p ds 3 1\n0 1\n1 2\n", "^header declares 1 edges, file holds 2$"),
    ("p ds 3 2\n0 1\n", "^header declares 2 edges, file holds 1$"),
    ("p ds 3 1\n-1 5\n", "^line 2: negative vertex id$"),
    ("5 -1\n", "^line 1: negative vertex id$"),
    ("+0 2\n", (3, 1, [[2], [], [0]])),
    ("０ ２\n", (3, 1, [[2], [], [0]])),
    ("1_0 0\n", (11, 1, [[10]] + [[]] * 9 + [[0]])),
    ("0 1\r\n\r\n1\t2\r\n", (3, 2, [[1], [0, 2], [1]])),
    (" \x0c0\x0b1 \n", (2, 1, [[1], [0]])),
    ("0 1 \x0c 2\n", "^line 1: expected two endpoints$"),
    ("1 0\n0 1\n2 2\n", (3, 1, [[1], [0], []])),
    ("3 3\n", (4, 0, [[], [], [], []])),
    ("c\n0 x y\n", "^line 2: expected two endpoints$"),
    ("", (0, 0, [])),
]


@pytest.mark.parametrize(
    "reader, text, want",
    [(read_gr, t, w) for t, w in GR_TABLE] + [(read_edge_list, t, w) for t, w in EL_TABLE],
    ids=[f"gr{i}" for i in range(len(GR_TABLE))] + [f"el{i}" for i in range(len(EL_TABLE))],
)
def test_reader_table(reader, text, want):
    if isinstance(want, str):
        with pytest.raises(FormatError, match=want):
            reader(io.StringIO(text))
    else:
        g = reader(io.StringIO(text))
        g.validate()
        assert adjacency(g) == want


def test_read_gr_peak_memory_stays_near_the_graph():
    # G(n=6000, m=12000), lines shuffled and half of them flipped
    rng = random.Random(7)
    n, m = 6000, 12000
    pairs = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    lines = [f"{v + 1} {u + 1}\n" if rng.random() < 0.5 else f"{u + 1} {v + 1}\n"
             for u, v in sorted(pairs)]
    rng.shuffle(lines)
    buf = io.StringIO(f"p ds {n} {m}\n" + "".join(lines))
    del lines, pairs
    tracemalloc.start()
    try:
        g = read_gr(buf)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == n and g.m == m
    assert peak <= 2 * retained, (peak, retained)
