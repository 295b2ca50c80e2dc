import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ispaces as I
from ispaces.cli import MAX_POINTS, SpaceFileError, format_ispace, load, main, parse_point_set, save_ispace
from ispaces.search import CensusReport

from conftest import deadline, space_strategy


@pytest.fixture
def l3_file(tmp_path):
    path = tmp_path / "L3.ispace"
    path.write_text("ispace v1\npoints 3\ntriple 0 1 2\n")
    return str(path)


@pytest.fixture
def k23_file(tmp_path):
    path = tmp_path / "k23.graph"
    body = "graph v1\nvertices 5\n" + "".join(
        f"edge {u} {v}\n" for u, v in I.complete_bipartite_graph(2, 3).edges()
    )
    path.write_text(body)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.qpoints"
    path.write_text(
        "qpoints v1\ndim 2\npoint 0 0\npoint 4 0\npoint 0 4\npoint 1 1\npoint 2 0\n"
    )
    return str(path)


class TestLoading:
    def test_ispace_completion(self, l3_file, l3):
        assert load(l3_file).table == l3.table

    def test_ispace_symmetric_partner_added(self, tmp_path):
        path = tmp_path / "s.ispace"
        path.write_text("ispace v1\npoints 3\ntriple 2 1 0\n")
        space = load(str(path))
        assert space.holds(0, 1, 2) and space.holds(2, 1, 0)

    def test_comments_and_blank_lines(self, tmp_path, l3):
        path = tmp_path / "c.ispace"
        path.write_text("# chain\nispace v1\n\npoints 3  # three\ntriple 0 1 2\n")
        assert load(str(path)).table == l3.table

    def test_thinness_breach_reports_line(self, tmp_path):
        path = tmp_path / "bad.ispace"
        path.write_text("ispace v1\npoints 2\ntriple 0 1 0\n")
        with pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == 3 and "thinness" in str(exc.value)

    def test_out_of_range_id_reports_line(self, tmp_path):
        path = tmp_path / "bad.ispace"
        path.write_text("ispace v1\npoints 2\ntriple 0 1 2\n")
        with pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == 3

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "x.spc"
        path.write_text("whatever v9\n")
        with pytest.raises(SpaceFileError, match="unrecognized header"):
            load(str(path))

    def test_missing_file(self):
        with pytest.raises(SpaceFileError, match="cannot read"):
            load("/nonexistent/nope.ispace")

    def test_graph_k23(self, k23_file, k23):
        assert load(k23_file).table == k23.table

    def test_graph_loop_reports_line(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("graph v1\nvertices 2\nedge 0 0\n")
        with pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == 3 and "loop" in str(exc.value)

    def test_graph_disconnected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("graph v1\nvertices 4\nedge 0 1\nedge 2 3\n")
        with pytest.raises(SpaceFileError, match="connected"):
            load(str(path))

    def test_qpoints_triangle(self, triangle_file, triangle):
        assert load(triangle_file).table == triangle.table

    def test_qpoints_fractions(self, tmp_path):
        path = tmp_path / "q.qpoints"
        path.write_text("qpoints v1\ndim 1\npoint 1/3\npoint 2/3\npoint 1\n")
        space = load(str(path))
        assert space.table == I.linear_order_space(3).table

    def test_qpoints_duplicate_reports_line(self, tmp_path):
        path = tmp_path / "q.qpoints"
        path.write_text("qpoints v1\ndim 2\npoint 0 0\npoint 2/2 1\npoint 1 1\n")
        with pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == 5 and "duplicate" in str(exc.value)

    def test_qpoints_bad_coordinate(self, tmp_path):
        path = tmp_path / "q.qpoints"
        path.write_text("qpoints v1\ndim 1\npoint 1/0\n")
        with pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == 3

    @pytest.mark.parametrize("token", ["1e10000000", "1e2", "1E2", "0.25", ".5", "2/4e1", "1_000", "\u0663", "+-1", "1/"])
    def test_qpoints_only_integers_and_fractions(self, tmp_path, token):
        path = tmp_path / "q.qpoints"
        path.write_text(f"qpoints v1\ndim 2\npoint 0 0\npoint 1 {token}\n", encoding="utf-8")
        with deadline(5), pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == 4 and exc.value.message == f"bad rational coordinate: Invalid literal for Fraction: {token!r}"


class TestHeaders:
    @pytest.mark.parametrize("text, line, message", [
        ("ispace v1\n", None, "expected 'points N'"),
        ("ispace v1\nvertices 3\n", 2, "expected 'points N'"),
        ("ispace v1\npoints 3 4\n", 2, "expected 'points N'"),
        ("ispace v1\npoints x\n", 2, "point count must be an integer, got 'x'"),
        ("ispace v1\npoints 0\n", 2, "point count must be at least 1"),
        ("graph v1\n\n# c\nvertices -2\n", 4, "vertex count must be at least 1"),
        ("graph v1\nvertices 1.5\n", 2, "vertex count must be an integer, got '1.5'"),
        ("qpoints v1\npoints 2\n", 2, "expected 'dim D'"),
        ("qpoints v1\ndim 0\n", 2, "dimension must be at least 1"),
    ])
    def test_header_errors(self, tmp_path, text, line, message):
        path = tmp_path / "h.txt"
        path.write_text(text)
        with pytest.raises(SpaceFileError) as exc:
            load(str(path))
        assert exc.value.line == line and exc.value.message == message

    @pytest.mark.parametrize("text", [
        f"ispace v1\npoints {MAX_POINTS + 1}\n",
        "ispace v1\npoints 3000\n",
        "graph v1\nvertices 300000000\nedge 0 1\n",
    ])
    def test_count_above_bound_rejected_at_its_line(self, tmp_path, text):
        path = tmp_path / "big.txt"
        path.write_text(text)
        with deadline(5), pytest.raises(SpaceFileError, match="exceeds the limit") as exc:
            load(str(path))
        assert exc.value.line == 2

    def test_count_at_bound_loads(self, tmp_path):
        path = tmp_path / "bound.ispace"
        path.write_text(f"ispace v1\npoints {MAX_POINTS}\n")
        with deadline(30):
            assert load(str(path)).n == MAX_POINTS

    def test_collinear_points_at_bound_load(self, tmp_path):
        # 256 points on one line, listed out of order: the loader builds the
        # table ray by ray, not by n^3 betweenness tests
        coords = [(i * 97) % MAX_POINTS for i in range(MAX_POINTS)]
        path = tmp_path / "line.qpoints"
        path.write_text("qpoints v1\ndim 2\n" + "".join(f"point {k} {-2 * k}\n" for k in coords))
        ends = f"{coords.index(0)},{coords.index(MAX_POINTS - 1)}"
        src = str(Path(I.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with deadline(30):
            proc = subprocess.run(
                [sys.executable, "-m", "ispaces", "hull", str(path), "--set", ends, "--format", "structured"],
                capture_output=True, text=True, env=env,
            )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["result"] == list(range(MAX_POINTS))

    def test_over_large_file_exits_two_without_traceback(self, tmp_path):
        path = tmp_path / "big.graph"
        path.write_text("graph v1\nvertices 300000000\nedge 0 1\n")
        src = str(Path(I.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ispaces", "check", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {path}:2: vertex count 300000000 exceeds the limit of {MAX_POINTS}"
        ]

    @pytest.mark.parametrize("name, text, message", [
        ("exp.qpoints", "qpoints v1\ndim 1\npoint 0\npoint 1e10000000\n",
         "4: bad rational coordinate: Invalid literal for Fraction: '1e10000000'"),
        ("many.qpoints", "qpoints v1\ndim 1\n" + "".join(f"point {i}\n" for i in range(MAX_POINTS + 1)),
         f"{MAX_POINTS + 3}: point count exceeds the limit of {MAX_POINTS}"),
    ])
    def test_bad_qpoints_exit_two_without_traceback(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        src = str(Path(I.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ispaces", "check", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {path}:{message}"]


def _loaded_after(code, *modules):
    """Which of ``modules`` are in sys.modules after a fresh interpreter runs ``code``
    (on stderr, since a command prints its report on stdout)."""
    src = str(Path(I.__file__).resolve().parents[1])
    code += f"\nimport sys; print(sorted(m for m in {modules!r} if m in sys.modules), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def test_cli_import_skips_dataclasses_and_inspect():
    # Every command pays its module imports at start-up; the value classes are
    # built by base.record, so neither module is needed.
    assert _loaded_after("import ispaces.cli", "dataclasses", "inspect") == "[]"


_LAYERS = (
    "ispaces.core", "ispaces.search", "ispaces.sliced", "ispaces.properties", "ispaces.closure", "ispaces.models",
    "fractions",
)
#: What a sliced census (every batch of at least 2^n spaces) never loads: it builds no space.
_NO_SPACE = ("ispaces.core", "ispaces.properties", "ispaces.closure", "ispaces.models", "fractions")
_K23 = str(Path(__file__).resolve().parent / "golden" / "k23.graph")


@pytest.mark.parametrize("code, modules", [
    ("import ispaces", _LAYERS),
    ("import ispaces.cli", _LAYERS),
    (f"from ispaces.cli import main; main(['check', {_K23!r}])", ("ispaces.search", "ispaces.sliced", "fractions")),
    ("from ispaces.cli import main; main(['verify', '--theorem', 'antisymmetry', '--n', '5', '--samples', '50'])",
     _NO_SPACE),
    ("from ispaces.cli import main; main(['verify', '--theorem', 'transitivity', '--n', '4', '--exhaustive'])",
     _NO_SPACE),
    ("import ispaces; ispaces.CapExceededError", ("ispaces.core",)),
], ids=["package", "cli", "check", "sliced-census", "exhaustive-census", "budget-error"])
def test_command_loads_only_its_layers(code, modules):
    # the package resolves its exports on first access, the CLI imports each
    # layer in the command that runs it, and the model-free primitives live in base
    assert _loaded_after(code, *modules) == "[]"


class TestLazyExports:
    def test_every_export_is_the_defining_module_attribute(self):
        for name in I.__all__:
            module = importlib.import_module(f"ispaces.{I._EXPORTS[name]}")
            assert getattr(I, name) is getattr(module, name), name

    def test_dir_lists_every_export(self):
        assert set(I.__all__) <= set(dir(I))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
            I.nonsense


def _run_module(*argv):
    src = str(Path(I.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "ispaces", *argv], capture_output=True, text=True, env=env, timeout=60,
    )


class TestIntegersPastTheDigitLimit:
    """Integers of more than 4,300 decimal digits, which ``str`` refuses, print in a fixed form."""

    def test_enumerate_space_count(self):
        proc = _run_module("enumerate", "--n", "33", "--allow-large", "--format", "structured")
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["spaces"] == "2^16368"

    def test_search_encoding(self, tmp_path):
        proc = _run_module(
            "search", "--ns", "40", "--want-not", "point-transitive", "--max-spaces", "1", "--density", "0.5",
            "--format", "structured",
        )
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        path = tmp_path / "found.ispace"
        path.write_text(doc["ispace"])
        encoding = I.FreeOrbitEncoding(40).encode(load(str(path)))
        assert encoding.bit_length() > 64 and doc["encoding"] == hex(encoding)


_FORMATS = {"ispace": ("points", "triple", 3), "graph": ("vertices", "edge", 2), "qpoints": ("dim", "point", None)}
_JUNK = st.sampled_from(["x", "", "1.5", "-1", "1/0", "3/-4", "+2", "1e2", "triple", "#"])
_COORDS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "+3", "4/2"])
#: Tokens ``Fraction`` takes but the qpoints grammar does not; the last would
#: keep ``Fraction`` busy for seconds.
_NOT_COORDS = st.one_of(
    st.sampled_from(["0.25", "-1.5", ".5", "2.", "1e2", "1E-3", "-2e+4", "1_0", "1e10000000"]),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10**9, 10**9)),
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 99)),
)


@st.composite
def loader_files(draw):
    """Text in one of the three formats: a header, a count line and body
    lines, each either well formed or broken the way a hand-written file can
    be (wrong keyword, bad count, out-of-range id, junk tokens)."""
    kind = draw(st.sampled_from(sorted(_FORMATS)))
    keyword, body_keyword, arity = _FORMATS[kind]
    keyword = draw(st.sampled_from([keyword] * 4 + ["points", "dim", "edge"]))
    count = draw(st.one_of(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
        st.integers(-3, 0),
        st.integers(MAX_POINTS + 1, 10**9),
        st.sampled_from(["x", "2.0", "1/2", "3 4", ""]),
    ))
    size = count if isinstance(count, int) and 1 <= count <= 5 else 3
    lines = [f"{kind} v1", f"{keyword} {count}"]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            tokens = draw(st.lists(_JUNK | st.integers(-2, 6).map(str), max_size=5))
            lines.append(" ".join([draw(st.sampled_from(["triple", "edge", "point", "#", "?"])), *tokens]))
        elif arity is None:
            coord = draw(st.sampled_from([_COORDS] * 4 + [_NOT_COORDS]))
            lines.append(" ".join(["point", *draw(st.lists(coord, min_size=size, max_size=size))]))
        else:
            ids = draw(st.lists(st.integers(0, size), min_size=arity, max_size=arity))
            lines.append(" ".join([body_keyword, *map(str, ids)]))
    return "\n".join(lines) + "\n"


class TestLoaderFuzz:
    @given(loader_files())
    @settings(max_examples=300)
    def test_space_or_file_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        path.write_text(text)
        try:
            with deadline(5):
                space = load(str(path))
        except SpaceFileError:
            return
        # every loader builds a valid table, so no axiom check can fail
        assert I.axiom_violations(space.table) == []
        # and a qpoints file holds only integer and p/q coordinates
        bodies = [line.split("#", 1)[0].split() for line in text.splitlines()[2:]]
        assert not any("." in t or "e" in t or "E" in t for body in bodies if body[:1] == ["point"] for t in body)


class TestRoundTrip:
    @given(space_strategy(max_n=5))
    @settings(max_examples=60)
    def test_save_load_identical(self, tmp_path_factory, space):
        path = tmp_path_factory.mktemp("rt") / "space.ispace"
        save_ispace(space, str(path))
        assert load(str(path)).table == space.table

    def test_format_is_minimal(self, l3):
        assert format_ispace(l3) == "ispace v1\npoints 3\ntriple 0 1 2\n"

    def test_large_space_formats_in_bounded_memory(self, tmp_path):
        # the orbit encoding of 64 points would hold n^3-bit masks per orbit
        space = I.geodesic_space_from_graph(I.path_graph(64))
        tracemalloc.start()
        try:
            text = format_ispace(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20
        path = tmp_path / "p64.ispace"
        path.write_text(text)
        assert load(str(path)) == space


class TestParsePointSet:
    def test_forms(self):
        assert parse_point_set("-", 4).mask == 0
        assert parse_point_set("0,2", 4).members == {0, 2}

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_point_set("0,spam", 4)
        with pytest.raises(ValueError):
            parse_point_set("7", 4)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_VERIFY = ("verify", "--theorem", "transitivity", "--n")
#: The report of ``verify --theorem transitivity --n 1 --exhaustive``.
_VERIFY_N1 = (
    "command: verify\ntheorem: transitivity\nn: 1\npopulation: exhaustive n=1\nspaces: 1\n"
    "hypothesis_excluded: 0\ncondition_counts:\n"
    + "".join(f"  C{i}: 1\n" for i in range(1, 10))
    + "vector_counts:\n  TTTTTTTTT: 1\nviolations: 0\n"
)


class TestCommands:
    def test_check_all_true(self, capsys, l3_file):
        code, out, _ = run_cli(capsys, "check", l3_file, "--properties", "all")
        assert code == 0
        assert "stiff: true" in out and "C9: true" in out and "D5: true" in out

    def test_check_selected(self, capsys, k23_file):
        code, out, _ = run_cli(capsys, "check", k23_file, "--properties", "interval-convex,C8")
        assert code == 0
        assert "interval-convex: false" in out
        assert "C8: false" in out
        assert "point-transitive" not in out

    @pytest.mark.parametrize("edges, estimate", [
        ([(i, i + 1) for i in range(9)], "1073741824"),
        ([(0, j) for j in range(1, 9)], "134217728"),
    ])
    def test_check_skips_semigroup_conditions_past_the_budget(self, capsys, tmp_path, edges, estimate):
        # P_10 and K_{1,8}: 8^10 and 8^9 subset triples
        path = tmp_path / "model.graph"
        path.write_text(f"graph v1\nvertices {len(edges) + 1}\n" + "".join(f"edge {u} {v}\n" for u, v in edges))
        with deadline(10):
            code, out, _ = run_cli(capsys, "check", str(path), "--format", "structured")
        doc = json.loads(out)
        assert code == 0 and doc["flags"]["C4"] is None and doc["flags"]["C5"] is None
        assert all(doc["flags"][f"C{i}"] is True for i in (1, 2, 3, 6, 7, 8, 9))
        for name in ("C4", "C5"):
            assert f"takes an estimated {estimate} steps, over the work budget" in doc["notes"][name]

    def test_check_convex_closure_system_without_moore_check(self, capsys, tmp_path):
        # no free triples: all 2^14 subsets are convex, and the k^2 Moore
        # check on them would take seconds
        path = tmp_path / "free14.ispace"
        path.write_text("ispace v1\npoints 14\n")
        with deadline(5):
            code, out, _ = run_cli(capsys, "check", str(path), "--properties", "interval-convex,antiexchange")
        assert code == 0 and "interval-convex: true" in out and "antiexchange: true" in out

    def test_check_selected_notes_only(self, capsys, tmp_path):
        space = next(s for s in I.enumerate_spaces(4) if I.interval_transitivity_witness(s) is not None)
        path = tmp_path / "nit.ispace"
        save_ispace(space, str(path))
        code, out, _ = run_cli(capsys, "check", str(path), "--properties", "C1,stiff", "--format", "structured")
        doc = json.loads(out)
        assert code == 0 and list(doc["flags"]) == ["stiff", "C1"] and doc["notes"] == {}
        code, out, _ = run_cli(capsys, "check", str(path), "--properties", "D1", "--format", "structured")
        assert "antisymmetry-conditions" in json.loads(out)["notes"]

    def test_check_unknown_property(self, capsys, l3_file):
        code, out, err = run_cli(capsys, "check", l3_file, "--properties", "stiff,nope")
        assert code == 2 and out == "" and err.startswith("error: unknown property 'nope'")

    def test_check_structured_matches_human(self, capsys, k23_file):
        code, human, _ = run_cli(capsys, "check", k23_file)
        code2, structured, _ = run_cli(capsys, "check", k23_file, "--format", "structured")
        assert code == code2 == 0
        doc = json.loads(structured)
        for name, value in doc["flags"].items():
            rendered = "skipped" if value is None else str(bool(value)).lower()
            assert f"{name}: {rendered}" in human
        for name in doc["witnesses"]:
            assert name in human

    def test_interval(self, capsys, k23_file):
        code, out, _ = run_cli(capsys, "interval", k23_file, "2", "3")
        assert code == 0 and "result: {0,1,2,3}" in out

    def test_set_interval(self, capsys, l3_file):
        code, out, _ = run_cli(capsys, "set-interval", l3_file, "--A", "0", "--C", "1,2")
        assert code == 0 and "result: {0,1,2}" in out
        code, out, _ = run_cli(capsys, "set-interval", l3_file, "--A", "-", "--C", "1,2")
        assert code == 0 and "result: {}" in out

    def test_hull(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "hull", triangle_file, "--set", "0,1,2")
        assert code == 0 and "result: {0,1,2,4}" in out

    def test_order_point(self, capsys, l3_file):
        code, out, _ = run_cli(capsys, "order", l3_file, "--point", "0")
        assert code == 0
        assert "partial_order: true" in out and "rows: 111 011 001" in out

    def test_order_set(self, capsys, l3_file):
        code, out, _ = run_cli(capsys, "order", l3_file, "--set", "0,1")
        assert code == 0 and "reflexive: true" in out

    @pytest.mark.parametrize("argv, message", [
        (("interval", "{k23}", "2", "5"), "point id 5 out of range [0, 5)"),
        (("interval", "{k23}", "-1", "0"), "point id -1 out of range [0, 5)"),
        (("order", "{l3}", "--point", "3"), "point id 3 out of range [0, 3)"),
        (("order", "{l3}", "--point", "-2"), "point id -2 out of range [0, 3)"),
    ], ids=["interval-high", "interval-negative", "order-high", "order-negative"])
    def test_point_id_out_of_range_exits_two(self, capsys, k23_file, l3_file, argv, message):
        argv = [t.format(k23=k23_file, l3=l3_file) for t in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_order_requires_one_base(self, capsys, l3_file):
        code, _, err = run_cli(capsys, "order", l3_file)
        assert code == 2 and "exactly one" in err

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0 and "spaces: 8" in out
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--list")
        assert out.count("encoding:") == 8
        # a count of up to 64 bits is printed in full, a wider one as 2^k
        code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--allow-large")
        assert code == 0 and f"spaces: {2 ** 60}\n" in out
        code, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--allow-large")
        assert code == 0 and "spaces: 2^105\n" in out

    def test_enumerate_counts_without_the_encoding(self, capsys, monkeypatch):
        # the encoding of n points costs n^3 time and memory, and only --list reads it
        def refuse(n):
            raise AssertionError(f"enumerate built the encoding of {n} points")

        monkeypatch.setattr("ispaces.search.FreeOrbitEncoding", refuse)
        code, out, err = run_cli(capsys, "enumerate", "--n", "150", "--allow-large", "--format", "structured")
        assert (code, err) == (0, "") and json.loads(out)["spaces"] == "2^1653900"

    def test_enumerate_cap(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "5")
        assert code == 2 and "work budget" in err and "--allow-large" in err

    def test_verify_exhaustive(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "transitivity", "--n", "3", "--exhaustive"
        )
        assert code == 0
        assert "spaces: 8" in out and "violations: 0" in out

    def test_verify_allow_large_forces_semigroup_conditions(self, capsys):
        # 1025 * 8^5 subset triples are just over the work budget
        args = ("verify", "--theorem", "transitivity", "--n", "5", "--samples", "1025", "--seed", "7",
                "--format", "structured")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["skipped"] == ["C4", "C5"]
        code, out, _ = run_cli(capsys, *args, "--allow-large")
        doc = json.loads(out)
        assert code == 0 and doc["skipped"] == [] and doc["violations"] == 0
        assert sum(doc["vector_counts"].values()) == 1025

    @pytest.mark.parametrize("theorem", ["transitivity", "antisymmetry"])
    def test_verify_allow_large_lifts_the_subset_budget(self, capsys, theorem):
        # one space is fewer than 2^17, so it is checked alone, and
        # 2^17 * 17^2 subset steps are over the budget; at density 1 every
        # triple holds and the space has 19 convex sets, so the run is short
        args = ("verify", "--theorem", theorem, "--n", "17", "--samples", "1", "--density", "1",
                "--format", "structured")
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "" and "2^17 subsets" in err and "--allow-large" in err
        code, out, _ = run_cli(capsys, *args, "--allow-large")
        doc = json.loads(out)
        assert code == 0 and doc["spaces"] == 1 and doc["violations"] == 0
        assert doc["hypothesis_excluded"] == 0 and sum(doc["vector_counts"].values()) == 1

    def test_verify_triple_budget_removed(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--theorem", "transitivity", "--n", "3", "--exhaustive", "--triple-budget", "0"
        )
        assert code == 2 and out == "" and "--triple-budget" in err

    def test_verify_sampled_with_workers(self, capsys):
        args = ("verify", "--theorem", "antisymmetry", "--n", "4", "--samples", "40", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args, "--workers", "1", "--format", "structured")
        code2, out2, _ = run_cli(capsys, *args, "--workers", "4", "--format", "structured")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_below_one_rejected(self, capsys):
        for value in ("0", "-3", "two"):
            code, out, err = run_cli(
                capsys, "verify", "--theorem", "transitivity", "--n", "3", "--exhaustive",
                "--workers", value,
            )
            assert code == 2 and out == "" and "--workers" in err
            code, _, err = run_cli(capsys, "search", "--workers", value)
            assert code == 2 and "--workers" in err

    def test_closed_stdout_exits_quietly(self):
        # the listing (~350 kB) outgrows the pipe buffer, so the writer is
        # still writing when the reader closes its end
        src = str(Path(I.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ispaces", "enumerate", "--n", "4", "--list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert first == b"command: enumerate\n"
        assert err == b""
        assert code == 1

    def test_verify_needs_population(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "transitivity", "--n", "3")
        assert code == 2 and "exactly one" in err

    def test_verify_rejects_degenerate_population(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "transitivity", "--n", "0", "--exhaustive")
        assert code == 2 and "at least one point" in err
        code, _, err = run_cli(
            capsys, "verify", "--theorem", "transitivity", "--n", "3", "--samples", "-4"
        )
        assert code == 2 and "nonnegative" in err

    @pytest.mark.parametrize("argv, expected", [
        ((*_VERIFY, "0", "--samples", "5"), (2, "", "error: need at least one point\n")),
        ((*_VERIFY, "0", "--exhaustive"), (2, "", "error: need at least one point\n")),
        (("enumerate", "--n", "0"), (2, "", "error: need at least one point\n")),
        ((*_VERIFY, "3", "--samples", "-4"), (2, "", "error: count must be nonnegative, got -4\n")),
        ((*_VERIFY, "3", "--samples", "5", "--seed", "-10"),
         (2, "", "error: seed must be nonnegative, got -10\n")),
        (("search", "--want", "stiff", "--max-spaces", "3", "--seed", "-10"),
         (2, "", "error: seed must be nonnegative, got -10\n")),
        ((*_VERIFY, "3", "--samples", "5", "--density", "1.5"),
         (2, "", "error: density must be in [0, 1], got 1.5\n")),
        ((*_VERIFY, "3", "--samples", "5", "--density", "nan"),
         (2, "", "error: density must be in [0, 1], got nan\n")),
        (("search", "--want", "stiff", "--max-spaces", "3", "--density", "1.5"),
         (2, "", "error: density must be in [0, 1], got 1.5\n")),
        (("search", "--want", "stiff", "--max-spaces", "3", "--density", "nan"),
         (2, "", "error: density must be in [0, 1], got nan\n")),
        ((*_VERIFY, "1", "--exhaustive", "--seed", "-3"), (0, _VERIFY_N1, "")),
        (("check", "{l3}", "--properties", "nonsense"),
         (2, "", "error: unknown property 'nonsense'; known: antiexchange, antimatroid, combinatorial, "
          "interval-antisymmetric, interval-convex, interval-transitive, point-antisymmetric, "
          "point-transitive, stiff\n")),
        (("search", "--max-spaces", "-1"), (2, "", "error: max_spaces must be nonnegative\n")),
        ((*_VERIFY, "3", "--samples", "5", "--density", "abc"),
         (2, "", "error: bad density 'abc': expected a number in [0, 1] or 'sweep'\n")),
        (("order", "/nonexistent.ispace"), (2, "", "error: order needs exactly one of --point ID or --set LIST\n")),
        (("order", _K23, "--point", "0", "--set", "1"),
         (2, "", "error: order needs exactly one of --point ID or --set LIST\n")),
        (("search", "--want", "stiff", "--ns", "3,x"),
         (2, "", "error: bad --ns '3,x': expected comma-separated sizes\n")),
    ], ids=["verify-n0-samples", "verify-n0-exhaustive", "enumerate-n0", "verify-negative-samples",
            "verify-negative-seed", "search-negative-seed", "verify-density-high", "verify-density-nan",
            "search-density-high", "search-density-nan", "exhaustive-ignores-seed", "check-unknown-property",
            "search-negative-max-spaces", "verify-density-text", "order-no-flag-missing-file",
            "order-both-flags", "search-ns-text"])
    def test_rejected_input_exact_output(self, capsys, l3_file, argv, expected):
        # each input is checked where the library reads it; the CLI prints the library's message
        assert run_cli(capsys, *(t.format(l3=l3_file) for t in argv)) == expected

    @pytest.mark.parametrize("argv, seed", [
        (("verify", "--theorem", "antisymmetry", "--n", "4", "--samples", "20", "--seed", "-10"), -10),
        (("search", "--want", "stiff", "--ns", "5", "--max-spaces", "3", "--seed", "-1"), -1),
    ], ids=["verify", "search"])
    def test_negative_seed_exits_two(self, capsys, argv, seed):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: seed must be nonnegative, got {seed}\n")

    def test_verify_exit_one_on_violations(self, capsys, monkeypatch):
        broken = CensusReport(
            theorem="transitivity", n=3, population="exhaustive n=3", total=8,
            hypothesis_excluded=0, skipped=(),
            condition_counts=(("C1", 7),), vector_counts=(("TTTTTTTTT", 7),),
            violations=(I.EquivalenceViolation(3, 3, (True,) * 8 + (False,)),),
        )
        monkeypatch.setattr("ispaces.search.verify_transitivity_theorem", lambda *a, **k: broken)
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "transitivity", "--n", "3", "--exhaustive"
        )
        assert code == 1 and "violations: 1" in out

    def test_search_found(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "search", "--want", "stiff", "--want-not", "interval-convex",
            "--max-spaces", "5000",
        )
        assert code == 0 and "found: true" in out
        # the structured report identifies the space; it reloads from the
        # emitted ispace body and has the requested property split
        code, doc_out, _ = run_cli(
            capsys, "search", "--want", "stiff", "--want-not", "interval-convex",
            "--max-spaces", "5000", "--format", "structured",
        )
        doc = json.loads(doc_out)
        path = tmp_path / "found.ispace"
        path.write_text(doc["ispace"])
        space = load(str(path))
        assert I.FreeOrbitEncoding(doc["n"]).encode(space) == doc["encoding"]
        assert I.stiffness_witness(space) is None and I.interval_convexity_witness(space) is not None

    def test_search_not_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--want", "interval-transitive",
            "--want-not", "point-transitive", "--max-spaces", "100",
        )
        assert code == 0 and "found: false" in out

    def test_search_over_budget_gives_no_override_advice(self, capsys):
        # search has no --allow-large, so its budget error names none
        code, out, err = run_cli(
            capsys, "search", "--ns", "17", "--max-spaces", "1", "--want", "antiexchange", "--density", "1",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: enumerating the 2^17 subsets takes an estimated 37879808 steps, "
            "over the work budget of 33554432\n"
        )

    def test_search_unknown_property(self, capsys):
        code, _, err = run_cli(capsys, "search", "--want", "nonsense", "--max-spaces", "5")
        assert code == 2 and "unknown property" in err

    def test_bad_set_flag(self, capsys, l3_file):
        code, _, err = run_cli(capsys, "hull", l3_file, "--set", "0,x")
        assert code == 2 and "bad point set" in err

    def test_search_rejects_degenerate_sizes(self, capsys):
        code, _, err = run_cli(capsys, "search", "--ns", "0,3", "--max-spaces", "5")
        assert code == 2 and "at least one point" in err

    @pytest.mark.parametrize("ns", ["0", "-2"])
    def test_search_checks_every_size_before_scanning(self, capsys, ns):
        # with no candidates to scan, no population is built for the size
        code, out, err = run_cli(capsys, "search", "--want", "stiff", "--ns", ns, "--max-spaces", "0")
        assert (code, out, err) == (2, "", "error: need at least one point\n")

    @pytest.mark.parametrize("ns", ["", ","])
    def test_search_rejects_empty_sizes(self, capsys, ns):
        code, out, err = run_cli(capsys, "search", "--want", "stiff", "--ns", ns, "--max-spaces", "5")
        assert code == 2 and out == "" and err == "error: ns must list at least one size\n"

    @pytest.mark.parametrize("names", ["", ",", " , "])
    def test_check_rejects_empty_property_list(self, capsys, l3_file, names):
        code, out, err = run_cli(capsys, "check", l3_file, "--properties", names)
        assert code == 2 and out == "" and err == "error: no property names given\n"

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "verify", "--help")[0] == 0

    def test_file_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.ispace"
        path.write_text("ispace v1\npoints 2\ntriple 0 1 0\n")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2 and "thinness" in err

    def test_undecodable_file_exits_two(self, capsys, tmp_path):
        # a UTF-16 byte-order mark is not UTF-8
        path = tmp_path / "bom.ispace"
        path.write_bytes(b"\xff\xfeispace v1\npoints 2\n")
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text: byte 0 cannot be decoded\n"

    @pytest.mark.parametrize("text, where", [
        ("# only a comment\n\n", ": empty file"),
        ("graph v1\nvertices 2\nedge 0\n", ":3: expected 'edge u v', got 'edge 0'"),
        ("graph v1\nvertices 2\nvertex 0 1\n", ":3: expected 'edge u v', got 'vertex 0 1'"),
        ("graph v1\nvertices 3\nedge 0 3\n", ":3: vertex id 3 out of range [0, 3)"),
        ("ispace v1\npoints 3\ntriple 0 1\n", ":3: expected 'triple a x c', got 'triple 0 1'"),
        ("qpoints v1\ndim 1\n" + "".join(f"point {i}\n" for i in range(MAX_POINTS + 1)),
         f":{MAX_POINTS + 3}: point count exceeds the limit of {MAX_POINTS}"),
    ], ids=["empty", "edge-one-vertex", "edge-keyword", "vertex-out-of-range", "triple-two-ids", "many-qpoints"])
    def test_file_error_exact_output(self, capsys, tmp_path, text, where):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert run_cli(capsys, "check", str(path)) == (2, "", f"error: {path}{where}\n")
