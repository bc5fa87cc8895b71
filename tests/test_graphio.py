import io
import random
import tracemalloc

import pytest

from conftest import read_sidecar
from dsreduce import graphio
from dsreduce.generators import gnp, path
from dsreduce.graph import CheckedEnds
from dsreduce.graphio import (
    REPORT_FIELDS,
    FormatError,
    read_edge_list,
    read_gr,
    read_graph,
    write_gr,
    write_report_csv,
    write_sidecar,
)
from dsreduce.oracle import check_graph, read_instance_reference


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
    with pytest.raises(FormatError, match="^line 1: non-numeric header counts$"):
        parse_gr("p ds -1 0\n")
    with pytest.raises(FormatError, match="missing 'p' header"):
        parse_gr("c only a comment\n")
    with pytest.raises(FormatError, match="missing 'p' header"):
        parse_gr("\n \n\t\n")


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
    with pytest.raises(FormatError, match="^line 1: header declares 2 edges, file holds 1$"):
        parse_gr("p ds 3 2\n1 2\n")


def test_gr_deduplicates_and_drops_loops():
    g = parse_gr("p ds 3 3\n1 2\n2 1\n3 3\n")
    assert g.m == 1
    assert 1 in g.adj[0]


def test_edge_list_reader():
    g = read_edge_list(io.StringIO("0 1\n1 2\nc note\n2 0\n"))
    assert g.n == 3 and g.m == 3
    with pytest.raises(FormatError, match="^line 1: non-numeric endpoint$"):
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
    with pytest.raises(FormatError, match="line 2: duplicate header"):
        read_edge_list(io.StringIO("p ds 2 0\np ds 2 0\n"))
    with pytest.raises(FormatError, match="^line 1: header declares 2 edges, file holds 1$"):
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
    # ids are ASCII digits, as in instances
    for bad in ("+1", "-1", "1_0", "\u0661", "\uff11"):
        with pytest.raises(FormatError, match="^line 3: non-numeric id$"):
            read_sidecar(io.StringIO(f"fixed:\n1\n{bad}\n"))
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
    ("p ds 3 2\n1 2\n", "^line 1: header declares 2 edges, file holds 1$"),
    # ids and counts are ASCII digits: no sign, underscore or other digits
    ("p ds 3 1\n+1 2\n", "^line 2: non-numeric endpoint$"),
    ("p ds 3 1\n１ ３\n", "^line 2: non-numeric endpoint$"),
    ("p ds 1_2 1\n1_0 2\n", "^line 1: non-numeric header counts$"),
    ("p ds 3 1\n1 -2\n", "^line 2: non-numeric endpoint$"),
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
    ("p ds 3 1\np 1\n", "^line 2: duplicate header$"),
    ("0 1\np 1\n", "^line 2: header must lead the file$"),
    ("p 1\n", r"^line 1: header needs 'p <kind> <n> <m>'$"),
    ("x y\n", "^line 1: non-numeric endpoint$"),
    ("0 y\n", "^line 1: non-numeric endpoint$"),
    # the range check comes before the edge count check, as in .gr
    ("p ds 3 1\n0 1\n0 5\n", r"^line 3: vertex id outside 0\.\.2$"),
    ("p ds 3 1\n0 1\n1 2\n", "^line 3: more edges than the header declares$"),
    ("p ds 3 2\n0 1\n", "^line 1: header declares 2 edges, file holds 1$"),
    ("p ds 3 1\n-1 5\n", "^line 2: non-numeric endpoint$"),
    ("5 -1\n", "^line 1: non-numeric endpoint$"),
    ("+0 2\n", "^line 1: non-numeric endpoint$"),
    ("０ ２\n", "^line 1: non-numeric endpoint$"),
    ("1_0 0\n", "^line 1: non-numeric endpoint$"),
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
    base = 1 if reader is read_gr else 0
    assert outcome(reader, text) == outcome(reference(base), text)
    if isinstance(want, str):
        with pytest.raises(FormatError, match=want):
            reader(io.StringIO(text))
    else:
        g = reader(io.StringIO(text))
        check_graph(g)
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
    # one int object per vertex id, shared by every adjacency entry
    assert retained <= 1_100_000, retained


def test_read_gr_id_table_follows_the_ids_not_the_header():
    # the per-vertex lists follow the header; the bulk path adds nothing
    # of that size, here where the only edge names vertices 1 and 2
    tracemalloc.start()
    try:
        g = read_gr(io.StringIO("p ds 100000 1\n1 2\n"))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 100_000 and g.m == 1
    assert peak <= 1.1 * retained, (peak, retained)


def outcome(reader, text):
    """(n, m, adj, deg) of the graph ``reader`` makes of ``text``, or the
    message of its FormatError."""
    try:
        g = reader(io.StringIO(text))
    except FormatError as exc:
        return str(exc)
    return g.n, g.m, g.adj, g.deg


def reference(base):
    """The line-by-line grammar of ``oracle``, as a reader for ``base``."""
    return lambda stream: read_instance_reference(stream, base)


def edge_lines(n, count, seed):
    """``count`` canonical edge lines on ids 1..n, loops and repeats
    included."""
    rng = random.Random(seed)
    return [f"{rng.randint(1, n)} {rng.randint(1, n)}\n" for _ in range(count)]


# 12,000 lines of about 10 characters: more than 6 chunks of 16 KiB.  The
# line at K starts past the third chunk; in the file it is line K + 2.
BIG_N = 5000
LINES = edge_lines(BIG_N, 12_000, 17)
K = len(LINES) // 2


def gr_text(lines, m=len(LINES), head=None):
    return (head or f"p ds {BIG_N} {m}\n") + "".join(lines)


def replaced(line):
    return LINES[:K] + [line] + LINES[K + 1:]


def inserted(line):
    return LINES[:K] + [line] + LINES[K:]


def no_line_by_line(monkeypatch):
    def per_line(*_args):
        raise AssertionError("a chunk of a canonical file read line by line")

    monkeypatch.setattr(graphio, "_lines", per_line)


def spy_line_by_line(monkeypatch):
    """The texts handed to ``graphio._lines``, as the reader runs."""
    texts = []
    real = graphio._lines

    def per_line(text, *args):
        texts.append(text)
        return real(text, *args)

    monkeypatch.setattr(graphio, "_lines", per_line)
    return texts


def test_read_gr_takes_the_bulk_path_on_canonical_text(monkeypatch, tmp_path):
    assert len(gr_text(LINES[:K])) > 3 * graphio._CHUNK
    texts = [gr_text(LINES), "p ds 3 0\n", "p ds 0 0\n"]
    # leading zeros on the first edge move every chunk boundary, so some
    # line ends exactly at a boundary and others straddle one
    texts += [gr_text(["0" * pad + LINES[0]] + LINES[1:]) for pad in range(12)]
    texts += [gr_text(LINES, head=f"p\tx {BIG_N}  {len(LINES)} \n")]
    # PACE-style files open with comments
    texts += ["c\n" + gr_text(LINES), "c made by\n  c  a generator\n" + gr_text(LINES)]
    # blank or whitespace-only lines before the header, alone or among comments
    texts += ["\n" + gr_text(LINES), " \n\t\r\n" + gr_text(LINES)]
    texts += ["\nc made by\n\n" + gr_text(LINES), "\n\np ds 3 0\n"]
    # JSON refuses leading zeros: a middle chunk is split and parsed by int()
    texts += [gr_text(replaced("00" + LINES[K]))]
    want = [outcome(reference(1), t) for t in texts]
    no_line_by_line(monkeypatch)
    assert [outcome(read_gr, t) for t in texts] == want
    # a file opened by path reads CRLF line ends as newlines
    crlf = tmp_path / "crlf.gr"
    crlf.write_bytes(gr_text(LINES).replace("\n", "\r\n").encode())
    g, _base = read_graph(str(crlf))
    assert (g.n, g.m, g.adj, g.deg) == want[0]


def el_text(lines, head=""):
    """``lines`` as 0-based edges after ``head``."""
    return head + "".join(f"{int(u) - 1} {int(v) - 1}\n" for u, v in map(str.split, lines))


def test_read_edge_list_takes_the_bulk_path_on_canonical_text(monkeypatch, tmp_path):
    header = f"p ds {BIG_N} {len(LINES)}\n"
    texts = [el_text(LINES), el_text(LINES, header), "0 1\n", "p ds 3 0\n", ""]
    # the first edge line of a file without header joins the first chunk
    texts += ["c made by\n\n" + el_text(LINES), "c\n" + el_text(LINES, header)]
    texts += [el_text(LINES).replace("\n", "\n0", 1)]  # leading zeros on line 2
    want = [outcome(reference(0), t) for t in texts]
    no_line_by_line(monkeypatch)
    assert [outcome(read_edge_list, t) for t in texts] == want
    elf = tmp_path / "crlf.el"
    elf.write_bytes(texts[0].replace("\n", "\r\n").encode())
    g, base = read_graph(str(elf))
    assert base == 0 and (g.n, g.m, g.adj, g.deg) == want[0]


# Texts whose doubtful chunk, if any, is read line by line; both readers
# must give the reference's graph or message
NEAR_CANONICAL = {
    "non-numeric-id": gr_text(replaced("1 x\n")),
    "three-ids": gr_text(replaced("1 2 3\n")),
    "one-id": gr_text(replaced("7\n")),
    "one-id-after-a-space": gr_text(replaced(" 7\n")),
    "one-id-before-a-space": gr_text(replaced("7 \n")),
    # two one-id lines and one line too many: still 2m ids
    "two-one-id-lines": gr_text(LINES[:K] + ["7 \n", " 8\n"] + LINES[K + 1:]),
    "id-0": gr_text(replaced("0 1\n")),
    "id-n-+-1-second": gr_text(replaced(f"1 {BIG_N + 1}\n")),
    "id-n-+-1-first": gr_text(replaced(f"{BIG_N + 1} 1\n")),
    "second-header": gr_text(inserted("p ds 5 5\n")),
    "comment": gr_text(inserted("c a comment\n")),
    "bare-comment": gr_text(inserted("c\n")),
    "blank-line": gr_text(inserted("\n")),
    "plus-sign": gr_text(replaced("+1 2\n")),
    "underscore": gr_text(replaced("1_0 2\n")),
    "full-width-digits": gr_text(replaced("１ ２\n")),
    "tab": gr_text(replaced("1\t2\n")),
    "two-spaces": gr_text(replaced("1  2\n")),
    "leading-space": gr_text(replaced(" 1 2\n")),
    "one-CRLF": gr_text(replaced("1 2\r\n")),
    "form-feed": gr_text(replaced("1\x0c2\n")),
    "vertical-tab": gr_text(replaced("1 2\x0b\n")),
    "all-CRLF": gr_text([line.replace("\n", "\r\n") for line in LINES]),
    "leading-zeros": gr_text(["00" + line for line in LINES]),
    "leading-zeros-past-the-third-chunk": gr_text(replaced("00" + LINES[K])),
    "no-final-newline": gr_text(LINES)[:-1],
    "trailing-space": gr_text(LINES) + " ",
    "trailing-blank-line": gr_text(LINES) + "\n",
    "trailing-edge-without-newline": gr_text(LINES) + "1 2",
    "one-edge-too-many": gr_text(LINES, m=len(LINES) - 1),
    "one-edge-too-few": gr_text(LINES, m=len(LINES) + 1),
    "last-edge-missing": gr_text(LINES[:-1]),
    "header-n-with-plus": gr_text(LINES, head=f"p ds +{BIG_N} {len(LINES)}\n"),
    "header-m-full-width": gr_text(LINES, head=f"p ds {BIG_N} ５\n"),
    "header-n-superscript": gr_text(LINES, head=f"p ds ² {len(LINES)}\n"),
    "header-n-too-small": gr_text(LINES, head=f"p ds {BIG_N - 1} {len(LINES)}\n"),
    "header-of-five-tokens": gr_text(LINES, head=f"p ds {BIG_N} {len(LINES)} 0\n"),
    "comment-first": "c first\n" + gr_text(LINES),
    "two-comments-first": "c first\nc\n" + gr_text(LINES),
    "three-comments-first": "c 1\n\tc 2\nc 3 \n" + gr_text(LINES),
    "comments-first-and-after-the-header": "c first\n" + gr_text(["c after\n"] + LINES),
    "comment-first-and-one-mid-file": "c first\nc second\n" + gr_text(inserted("c mid\n")),
    "comment-first-then-an-error": "c first\n" + gr_text(replaced("1 x\n")),
    "comment-first-then-a-blank-line": "c first\n\n" + gr_text(LINES),
    "comment-word-first": "cc first\n" + gr_text(LINES),
    "comments-only": "c first\nc second\n",
    "blank-lines-only": "\n \n\t\n",
    "comment-first-without-newline": "c first",
    "header-joined-to-an-edge": gr_text(["1 2"] + LINES),
}


# Chunk sizes of the differential tests.  Chunks of 16 characters or
# fewer hold a line or less, so only the short texts of the soup test
# take them; the 12,000-line texts here run at the last two.
CHUNKS = [4, 8, 16, 64, graphio._CHUNK]


@pytest.mark.parametrize("text", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL.keys())
def test_read_gr_bulk_path_matches_per_line_reader(text, monkeypatch):
    want = [outcome(reference(base), text) for base in (1, 0)]
    for chunk in CHUNKS[3:]:
        monkeypatch.setattr(graphio, "_CHUNK", chunk)
        assert [outcome(read_gr, text), outcome(read_edge_list, text)] == want


@pytest.mark.parametrize(
    "text, message",
    [
        (gr_text(replaced("1 x\n")), f"line {K + 2}: non-numeric endpoint"),
        (gr_text(replaced("0 1\n")), f"line {K + 2}: vertex id outside 1..{BIG_N}"),
        (gr_text(inserted("p ds 5 5\n")), f"line {K + 2}: duplicate header"),
        (gr_text(LINES, m=len(LINES) - 1),
         f"line {len(LINES) + 1}: more edges than the header declares"),
        (gr_text(LINES, m=len(LINES) + 1),
         f"line 1: header declares {len(LINES) + 1} edges, file holds {len(LINES)}"),
    ],
)
def test_read_gr_reports_the_line_past_the_first_chunks(text, message, monkeypatch):
    assert outcome(reference(1), text) == message
    for chunk in CHUNKS[3:]:
        monkeypatch.setattr(graphio, "_CHUNK", chunk)
        assert outcome(read_gr, text) == message
    assert outcome(read_edge_list, text) == outcome(reference(0), text)


class CountedReads(io.StringIO):
    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_read_gr_bulk_path_stops_at_the_first_chunk_past_m():
    stream = CountedReads(gr_text(LINES, m=1))
    with pytest.raises(FormatError, match="^line 3: more edges than the header declares$"):
        read_gr(stream)
    assert stream.reads == 1


class Unseekable(io.StringIO):
    def seekable(self):
        return False

    def tell(self):
        raise OSError("unseekable")


def test_read_gr_reads_unseekable_streams_in_bulk(monkeypatch):
    text = gr_text(LINES)
    want = outcome(reference(1), text)
    no_line_by_line(monkeypatch)
    g = read_gr(Unseekable(text))
    assert (g.n, g.m, g.adj, g.deg) == want


def test_read_gr_reads_on_after_a_file_was_iterated(tmp_path, monkeypatch):
    # after next() a text file refuses tell(); the reader needs none
    grf = tmp_path / "g.gr"
    grf.write_text("c lead\n" + gr_text(LINES))
    no_line_by_line(monkeypatch)
    with open(grf) as fh:
        next(fh)
        g = read_gr(fh)
    assert (g.n, g.m, g.adj, g.deg) == outcome(reference(1), gr_text(LINES))


def test_read_graph_reads_only_the_chunk_with_a_comment_line_by_line(tmp_path, monkeypatch):
    # a byte-order mark, universal newlines and a comment past the first
    # chunks: one chunk goes line by line, the others are read whole
    grf = tmp_path / "g.gr"
    lines = [line.replace("\n", "\r\n") for line in inserted("c note\n")]
    grf.write_bytes(("\ufeff" + gr_text(lines)).encode("utf-8"))
    texts = spy_line_by_line(monkeypatch)
    got, base = read_graph(str(grf))
    want = outcome(reference(1), gr_text(inserted("c note\n")))
    assert base == 1 and (got.n, got.m, got.adj, got.deg) == want
    assert len(texts) == 1 and "\nc note\n" in texts[0], [len(t) for t in texts]


def test_readers_hand_load_check_their_checked_ids(monkeypatch):
    # Every chunk, whole or line by line, range-checks each id as it is
    # parsed, so the reader hands the ids to ``graphio.load_check`` as
    # ``CheckedEnds``, which skips the second test; the graph is still
    # built inside that call.
    seen = []
    real = graphio.load_check

    def spy(n, edges):
        seen.append(type(edges))
        return real(n, edges)

    monkeypatch.setattr(graphio, "load_check", spy)
    text = "p ds 4 3\n1 2\n2 3\n4 4\n"
    bulk = read_gr(io.StringIO(text))
    per_line = read_gr(io.StringIO(text.replace("2 3", "c mid\n2\t3")))
    edge_list = read_edge_list(io.StringIO("0 1\n1 2\n3 3\n"))
    assert seen == [CheckedEnds] * 3
    for g in (bulk, per_line, edge_list):
        assert (g.n, g.m, g.adj) == (4, 2, [[1], [0, 2], [1], []])
