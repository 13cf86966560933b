"""Command-line front end: subcommands, report formats, exit codes."""

import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

import dowker
from dowker import (Relation, betti_gf2, collapse_core, enumerate_simplices,
                    format_step_log, gen_sphere_cube, gen_sphere_uv, gen_torus_grid,
                    parse_toplex_file, reduce)
from dowker import cli
from _util import FAN_TOPLEXES, betti_dense_reference, fan_relation

FAN_TEXT = "".join(" ".join(t) + "\n" for t in FAN_TOPLEXES)
TETRA_OFF = ("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
             "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def gen_file(tmp_path, name, *args):
    out = tmp_path / name
    assert cli.main(["gen", *args, "--output", str(out)]) == 0
    return str(out)


def run_fresh(code, *args):
    """Stdout of `code` run in a new interpreter that imports this dowker."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dowker.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


# ----------------------------------------------------------------------
# gen

def test_gen_torus_file(tmp_path):
    path = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    lines = open(path).read().splitlines()
    assert len(lines) == 32


def test_gen_simplex_boundary(tmp_path):
    path = gen_file(tmp_path, "b.toplex", "simplex-boundary", "--n", "2")
    lines = open(path).read().splitlines()
    assert len(lines) == 4
    assert all(len(l.split()) == 3 for l in lines)


def test_gen_uv_sphere_to_stdout(capsys):
    assert cli.main(["gen", "sphere-uv", "--slices", "24", "--stacks", "21"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 960


def test_gen_bad_params():
    assert cli.main(["gen", "torus", "--m", "1", "--n", "4"]) == 1


# ----------------------------------------------------------------------
# reduce

def test_reduce_sphere_with_betti_check(tmp_path, capsys):
    src = gen_file(tmp_path, "sphere.toplex", "sphere-cube")
    out = tmp_path / "reduced.rel"
    log = tmp_path / "steps.log"
    code = cli.main(["reduce", "--input", src, "--format", "toplex",
                     "--check-betti", "--output", str(out), "--log", str(log)])
    assert code == 0
    report = capsys.readouterr().out
    assert "input: 8 rows 12 cols" in report
    assert "betti-before: 1 0 1" in report
    assert "betti-after: 1 0 1" in report
    assert "betti: preserved" in report
    reduced = Relation.from_text(out.read_text())
    assert reduced.is_column_irreducible()
    assert betti_gf2(reduced.toplexes(), 2) == (1, 0, 1)
    steps = log.read_text().splitlines()
    assert len(steps) == 8 - reduced.nrows
    assert all(l.startswith("STEP ") and " merge " in l for l in steps)


def test_reduce_single_toplex(tmp_path, capsys):
    src = write(tmp_path, "one.toplex", "a b c\n")
    out = tmp_path / "r.rel"
    assert cli.main(["reduce", "--input", src, "--format", "toplex",
                     "--output", str(out)]) == 0
    reduced = Relation.from_text(out.read_text())
    assert reduced.shape == (1, 1)


def test_reduce_simplex_boundary_unchanged(tmp_path, capsys):
    src = gen_file(tmp_path, "b.toplex", "simplex-boundary", "--n", "2")
    assert cli.main(["reduce", "--input", src, "--format", "toplex"]) == 0
    report = capsys.readouterr().out
    assert "steps: 0" in report
    assert "output: 4 rows 4 cols" in report


def test_reduce_json_report(tmp_path, capsys):
    src = gen_file(tmp_path, "s.toplex", "sphere-cube")
    assert cli.main(["reduce", "--input", src, "--format", "toplex",
                     "--check-betti", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows_before"] == 8 and report["cols_before"] == 12
    assert report["betti_preserved"] is True
    assert report["tests"] <= report["budget"]
    _, stats, _ = reduce(Relation.from_toplexes(gen_sphere_cube()))
    assert (report["delta_max"], report["epsilon_max"]) \
        == (stats.delta_max_seen, stats.epsilon_max_seen)


@pytest.mark.parametrize("args", [("torus", "--m", "12", "--n", "16"),
                                  ("sphere-uv", "--slices", "24", "--stacks", "21"),
                                  ("simplex-boundary", "--n", "8")])
def test_reduce_json_maxima_are_the_librarys(tmp_path, capsys, args):
    # the CLI reduces without the histories; the maxima it prints are the
    # library's, which are the largest values the histories hold
    src = gen_file(tmp_path, "in.toplex", *args)
    assert cli.main(["reduce", "--input", src, "--format", "toplex", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    with open(src, encoding="utf-8") as fh:
        _, stats, _ = reduce(Relation.from_toplexes(parse_toplex_file(fh.read())))
    assert (report["delta_max"], report["epsilon_max"]) \
        == (stats.delta_max_seen, stats.epsilon_max_seen) \
        == (max(stats.delta_max_history), max(stats.epsilon_max_history))


def test_reduce_accepts_rel_format(tmp_path, capsys):
    src = write(tmp_path, "fan.rel", fan_relation().to_text())
    assert cli.main(["reduce", "--input", src, "--format", "rel",
                     "--check-betti"]) == 0
    assert "betti: preserved" in capsys.readouterr().out


def test_reduce_accepts_off_format(tmp_path, capsys):
    src = write(tmp_path, "tetra.off", TETRA_OFF)
    code = cli.main(["reduce", "--input", src, "--format", "off", "--check-betti"])
    assert code == 0
    report = capsys.readouterr().out
    assert "input: 4 rows 4 cols" in report
    assert "steps: 0" in report
    assert "betti: preserved" in report


def test_reduce_normalizes_reducible_input(tmp_path, capsys):
    # a column contained in another is dropped before reducing
    src = write(tmp_path, "red.rel",
                Relation(["a", "b"], ["p", "q"], [[0, 1], [1]]).to_text())
    assert cli.main(["reduce", "--input", src, "--format", "rel"]) == 0
    assert "input: 2 rows 1 cols" in capsys.readouterr().out


def test_reduce_outputs_are_byte_identical(tmp_path, capsys):
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    outs, logs, reports = [], [], []
    for tag in ("a", "b"):
        out, log = tmp_path / f"{tag}.rel", tmp_path / f"{tag}.log"
        assert cli.main(["reduce", "--input", src, "--format", "toplex",
                         "--output", str(out), "--log", str(log)]) == 0
        reports.append(capsys.readouterr().out)
        outs.append(out.read_bytes())
        logs.append(log.read_bytes())
    assert outs[0] == outs[1]
    assert logs[0] == logs[1]
    assert reports[0].splitlines()[:5] == reports[1].splitlines()[:5]  # all but time


def test_reduce_output_refused_keeps_the_earlier_file(tmp_path, capsys):
    # the reduced relation keeps the label #b, which the text format cannot
    # hold; the target must not be emptied before that is known
    src = write(tmp_path, "hash.toplex", "a #b\nc #b\na c\n")
    out = tmp_path / "out.rel"
    earlier = fan_relation().to_text()
    out.write_text(earlier)
    assert cli.main(["reduce", "--input", src, "--format", "toplex",
                     "--output", str(out)]) == 1
    assert "'#b' cannot be written as a text token" in capsys.readouterr().err
    assert out.read_text() == earlier


def test_reduce_unopenable_target_fails_before_the_run(tmp_path, capsys, monkeypatch):
    # a --log that cannot be opened, or an --output in a missing directory,
    # exits 1 before reduce runs, and an existing --output keeps its bytes
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(cli, "reduce", recording)
    src = write(tmp_path, "fan.toplex", FAN_TEXT)
    out = tmp_path / "out.rel"
    earlier = b"earlier\r\nbytes"
    out.write_bytes(earlier)
    missing = tmp_path / "missing"
    new = tmp_path / "new.rel"
    for extra in (["--output", str(out), "--log", str(missing / "x.log")],
                  ["--output", str(missing / "o.rel"), "--log", str(tmp_path / "x.log")],
                  ["--output", str(out), "--log", str(tmp_path)],
                  ["--output", str(new), "--log", str(missing / "x.log")]):
        assert cli.main(["reduce", "--input", src, "--format", "toplex", "--check-betti",
                         *extra]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert out.read_bytes() == earlier
    # the check creates nothing, so a run that fails later leaves no new file
    assert not missing.exists() and not new.exists()
    assert not (tmp_path / "x.log").exists()
    hashed = write(tmp_path, "hash.toplex", "a #b\nc #b\na c\n")
    assert cli.main(["reduce", "--input", hashed, "--format", "toplex",
                     "--output", str(new)]) == 1
    assert "cannot be written" in capsys.readouterr().err
    assert not new.exists()
    calls.clear()
    # with both targets writable the run goes ahead and replaces the output
    assert cli.main(["reduce", "--input", src, "--format", "toplex",
                     "--output", str(out), "--log", str(tmp_path / "x.log")]) == 0
    assert len(calls) == 1
    assert out.read_text() == reduce(fan_relation())[0].to_text()


def test_reduce_betti_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    calls = []

    def lying_oracle(tops, max_dim, size_cap=None):
        calls.append(1)
        return (1, 0, 0) if len(calls) == 1 else (2, 0, 0)

    monkeypatch.setattr(cli, "betti_gf2", lying_oracle)
    src = write(tmp_path, "one.toplex", "a b\n")
    code = cli.main(["reduce", "--input", src, "--format", "toplex", "--check-betti"])
    assert code == 2
    assert "betti: CHANGED" in capsys.readouterr().out


def test_oracle_takes_the_relation_itself(tmp_path, capsys, monkeypatch):
    # betti and reduce --check-betti hand the oracle the relation's own column
    # tuples: no label tuples are made on the way
    seen = []

    def recording(tops, *args, **kwargs):
        seen.append(type(tops))
        return betti_gf2(tops, *args, **kwargs)

    def refused(self):
        raise AssertionError("toplexes() called")

    monkeypatch.setattr(cli, "betti_gf2", recording)
    monkeypatch.setattr(Relation, "toplexes", refused)
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "5")
    rel = tmp_path / "t.rel"
    assert cli.main(["reduce", "--input", src, "--format", "toplex", "--check-betti",
                     "--output", str(rel)]) == 0
    assert "betti: preserved" in capsys.readouterr().out
    for args in (["--input", src], ["--input", str(rel), "--format", "rel"]):
        assert cli.main(["betti", *args]) == 0
        assert capsys.readouterr().out.strip() == "1 2 1"
    assert seen == [Relation] * 4


# ----------------------------------------------------------------------
# betti

def test_betti_torus(tmp_path, capsys):
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    assert cli.main(["betti", "--input", src]) == 0
    assert capsys.readouterr().out.strip() == "1 2 1"


def test_betti_point_default_dim(tmp_path, capsys):
    src = write(tmp_path, "p.toplex", "a\n")
    assert cli.main(["betti", "--input", src]) == 0
    assert capsys.readouterr().out.strip() == "1 0 0"


def test_betti_max_dim_override(tmp_path, capsys):
    src = write(tmp_path, "p.toplex", "a\n")
    assert cli.main(["betti", "--input", src, "--max-dim", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_betti_preserved_for_fan(tmp_path, capsys):
    src = write(tmp_path, "fan.toplex", FAN_TEXT)
    out = tmp_path / "fan.rel"
    assert cli.main(["reduce", "--input", src, "--format", "toplex",
                     "--output", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["betti", "--input", src]) == 0
    before = capsys.readouterr().out.strip()
    assert cli.main(["betti", "--input", str(out), "--format", "rel"]) == 0
    after = capsys.readouterr().out.strip()
    assert before == after == "1 2 0"


def test_betti_does_not_import_numpy(tmp_path):
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    out = run_fresh("import sys\n"
                    "from dowker.cli import main\n"
                    "assert main(['betti', '--input', sys.argv[1]]) == 0\n"
                    "print('numpy' in sys.modules)\n", src)
    assert out.splitlines() == ["1 2 1", "False"]


def test_betti_peak_rss_bounded(tmp_path):
    # 33.6k simplices; a dense boundary matrix of the 2-simplices alone is 138 MB.
    # The wrapper's only child is the betti run, so RUSAGE_CHILDREN is its peak.
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "60", "--n", "80")
    out = run_fresh("import resource, subprocess, sys\n"
                    "subprocess.run([sys.executable, '-m', 'dowker.cli', 'betti',\n"
                    "                '--input', sys.argv[1]], check=True)\n"
                    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n", src)
    betti, maxrss = out.splitlines()
    assert betti == "1 2 1"
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    kib = int(maxrss) // (1024 if sys.platform == "darwin" else 1)
    assert kib < 100 * 1024


def test_betti_peak_rss_bounded_on_135k_simplices(tmp_path):
    # torus 150x150: 22.5k vertices, 67.5k edges, 45k triangles.  A boundary
    # column must take memory by its faces, not by the count one dimension
    # down.  The wrapper's only child is the betti run.
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "150", "--n", "150")
    out = run_fresh("import resource, subprocess, sys\n"
                    "subprocess.run([sys.executable, '-m', 'dowker.cli', 'betti',\n"
                    "                '--input', sys.argv[1]], check=True)\n"
                    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n", src)
    betti, maxrss = out.splitlines()
    assert betti == "1 2 1"
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    kib = int(maxrss) // (1024 if sys.platform == "darwin" else 1)
    assert kib < 120 * 1024


def test_betti_huge_max_dim_pads_zeros_in_bounded_memory(tmp_path):
    # the levels stop at the largest toplex, so a million dimensions cost
    # only the printed zeros.  The wrapper's only child is the betti run.
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    out = run_fresh("import resource, subprocess, sys\n"
                    "subprocess.run([sys.executable, '-m', 'dowker.cli', 'betti',\n"
                    "                '--input', sys.argv[1], '--max-dim', '1000000'],\n"
                    "               check=True, timeout=60)\n"
                    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n", src)
    betti, maxrss = out.rsplit("\n", 2)[:2]
    assert betti + "\n" == "1 2 1" + " 0" * 999_998 + "\n"
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    kib = int(maxrss) // (1024 if sys.platform == "darwin" else 1)
    assert kib < 64 * 1024


def test_betti_max_dim_beyond_the_cap_exits_3(tmp_path):
    # max_dim + 1 Betti numbers would not fit the default cap of 5M.  The
    # children get a 1 GiB address space, so allocating per dimension fails
    # with MemoryError (exit 1) instead of taking the machine's memory.
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dowker.__file__)))
    env.pop("DOWKER_SIZE_CAP", None)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    t0 = time.perf_counter()
    for cmd in (["betti", "--input", src],
                ["reduce", "--format", "toplex", "--input", src, "--check-betti"]):
        proc = subprocess.run([sys.executable, "-m", "dowker.cli", *cmd,
                               "--max-dim", "1000000000"],
                              env=env, timeout=60, capture_output=True, text=True,
                              preexec_fn=limit_memory)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:") and not proc.stdout
    assert time.perf_counter() - t0 < 20


def test_ingestion_peak_rss_bounded():
    # torus 150x150 (22.5k vertices, 45k triangles), its text built in the
    # child; the incidence must take memory by its ones, not rows x columns.
    # The wrapper's only child is the ingestion, so RUSAGE_CHILDREN is its peak.
    child = ("from dowker import Relation, parse_toplex_file\n"
             "m = n = 150\n"
             "def v(i, j):\n"
             "    return f'g{i % m}_{j % n}'\n"
             "lines = []\n"
             "for i in range(m):\n"
             "    for j in range(n):\n"
             "        a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)\n"
             "        lines += [f'{a} {b} {c}', f'{a} {c} {d}']\n"
             "r = Relation.from_toplexes(parse_toplex_file('\\n'.join(lines)))\n"
             "assert r.shape == (22500, 45000)\n")
    maxrss = run_fresh("import resource, subprocess, sys\n"
                       "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
                       "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n",
                       child)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    kib = int(maxrss) // (1024 if sys.platform == "darwin" else 1)
    assert kib < 150 * 1024


def test_toplex_load_traces_at_most_3_6_mib(tmp_path):
    # the load numbers the names line by line and keeps no toplex's names:
    # on torus 60x80 (9,600 lines) its traced peak is 3.15-3.26 MiB on
    # CPython 3.10-3.13, against 4.87-5.17 MiB while the load built a
    # ToplexList of name tuples
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "60", "--n", "80")
    tracemalloc.start()
    try:
        r = cli._load_relation(src, "toplex")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.shape == (4800, 9600)
    assert peak <= 3.6 * 2**20


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_betti_of_a_loaded_rel_traces_at_most_3_7_mib(tmp_path):
    # the oracle takes the relation's columns and lets the relation go
    # before it enumerates, and the .rel rows are read as a stream: the
    # traced peak on torus 60x80 is 3.45 MiB on CPython 3.11-3.13, against
    # 4.80-4.91 MiB while the oracle held the relation through the
    # enumeration and the load listed every line (5.48 MiB on 3.10 either
    # way, where the caller's stack keeps the relation)
    src = write(tmp_path, "t.rel", Relation.from_toplexes(gen_torus_grid(60, 80)).to_text())
    tracemalloc.start()
    try:
        betti = betti_gf2(cli._load_relation(src, "rel"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti == (1, 2, 1)
    assert peak <= 3.7 * 2**20


# ----------------------------------------------------------------------
# check

def test_check_cone(tmp_path, capsys):
    src = write(tmp_path, "cone.toplex", "a b c d\n")
    assert cli.main(["check", "--input", src]) == 0
    out = capsys.readouterr().out
    assert "column-irreducible: yes" in out
    assert "strong-collapsible: yes (core 1x1)" in out


def test_check_simplex_boundary(tmp_path, capsys):
    src = gen_file(tmp_path, "b.toplex", "simplex-boundary", "--n", "2")
    assert cli.main(["check", "--input", src]) == 0
    assert "strong-collapsible: no (core 4x4)" in capsys.readouterr().out


def test_check_fan_star_submatrix(tmp_path, capsys):
    r = fan_relation()
    sub = r.restrict_to_columns(set(r.row(2)) | set(r.row(3))).relation
    src = write(tmp_path, "star.rel", sub.to_text())
    assert cli.main(["check", "--input", src, "--format", "rel"]) == 0
    assert "strong-collapsible: yes" in capsys.readouterr().out


def test_check_reducible_relation(tmp_path, capsys):
    src = write(tmp_path, "red.rel",
                Relation(["a", "b"], ["p", "q"], [[0, 1], [1]]).to_text())
    assert cli.main(["check", "--input", src, "--format", "rel"]) == 0
    assert "column-irreducible: no" in capsys.readouterr().out


# ----------------------------------------------------------------------
# exit codes

def test_missing_file_exits_1(capsys):
    assert cli.main(["betti", "--input", "/nonexistent/x.toplex"]) == 1


def test_parse_error_exits_1(tmp_path, capsys):
    src = write(tmp_path, "bad.toplex", "a b\n\n")
    assert cli.main(["betti", "--input", src]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_rel_exits_1(tmp_path, capsys):
    src = write(tmp_path, "bad.rel", "not a relation\n")
    assert cli.main(["betti", "--input", src, "--format", "rel"]) == 1


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # exit 2 means a Betti mismatch under --check-betti, never a bad command line
    src = write(tmp_path, "t.toplex", "a b\n")
    for argv in (["betti", "--input", src, "--max-dim", "abc"],
                 ["reduce", "--input", src], ["gen", "cube"], []):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dowker") and "error:" in err
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: dowker")


@pytest.mark.parametrize("name,text,argv,message", [
    ("t.toplex", "a b\n", ["betti", "--max-dim", "-1"], "max_dim must be >= 0"),
    ("t.toplex", "a b\n", ["reduce", "--format", "toplex", "--check-betti", "--max-dim", "-1"],
     "max_dim must be >= 0"),
    ("n.off", "OFF\n-3 1\n", ["betti", "--format", "off"], "line 2: negative count"),
], ids=["betti-max-dim", "reduce-check-betti-max-dim", "off-negative-count"])
def test_bad_values_exit_1_naming_the_fault(tmp_path, capsys, name, text, argv, message):
    src = write(tmp_path, name, text)
    assert cli.main(argv[:1] + ["--input", src] + argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fmt,text,message", [
    # comment lines count in a line number
    ("toplex", "a b\n# c\n\nc d\n", "line 3: blank line in toplex file"),
    ("toplex", "a b\nc d\ne f e\n", "line 3: vertex repeated within a toplex"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n", "line 6: face index 9 out of range"),
    ("rel", "2 1\na b\n", "expected a size line and two label lines"),
    ("rel", "1 3\na\np q r\n2 0\n", "line 4: column indices must be strictly ascending"),
    ("rel", "1 3\na\np q r\n0 3\n", "line 4: column index out of range"),
    ("rel", "2 1\na b\np\n0\n\n", "line 5: empty row"),
    ("rel", "1 1\na\np\n0 x\n", "line 4: row line must list column indices"),
    # a wrong row-line count is reported before a bad row, with fewer lines
    # than rows and with more
    ("rel", "3 1\na b c\np\nx\n0\n", "expected 3 row lines, got 2"),
    ("rel", "1 1\na\np\nx\n0\n", "expected 1 row lines, got 2"),
], ids=["toplex-blank-after-comment", "toplex-repeated-vertex", "off-face-out-of-range",
        "rel-short", "rel-row-order", "rel-row-range", "rel-empty-row", "rel-row-not-int",
        "rel-count-before-bad-row", "rel-count-before-bad-row-extra-line"])
def test_malformed_inputs_exit_1_with_the_faults_line(tmp_path, capsys, fmt, text, message):
    # the readers meet each line once and name the first fault as they meet it
    src = write(tmp_path, f"bad.{fmt}", text)
    for command in ("betti", "check", "reduce"):
        assert cli.main([command, "--input", src, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_size_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOWKER_SIZE_CAP", "5")
    src = write(tmp_path, "big.toplex", "a b c d e f g\n")
    assert cli.main(["betti", "--input", src]) == 3
    assert "error:" in capsys.readouterr().err


def test_gen_over_the_size_cap_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOWKER_SIZE_CAP", "1000")
    out = tmp_path / "x"
    # 42 facets of 41 vertices: 1722 incidences
    assert cli.main(["gen", "simplex-boundary", "--n", "40", "--output", str(out)]) == 3
    assert "cap 1000" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["gen", "torus", "--m", "20", "--n", "20", "--output", str(out)]) == 3
    assert not out.exists()
    # parameters are checked before the size
    assert cli.main(["gen", "torus", "--m", "1", "--n", "1000000"]) == 1
    # 32 facets of 31 vertices: 992 incidences, under the cap
    assert cli.main(["gen", "simplex-boundary", "--n", "30", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 32


def test_size_cap_rejects_bad_values(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "edge.toplex", "a b\n")
    for value in ("abc", "-5", "-1", "0", "0" * 5000):
        monkeypatch.setenv("DOWKER_SIZE_CAP", value)
        assert cli.main(["betti", "--input", src]) == 1
        assert "DOWKER_SIZE_CAP" in capsys.readouterr().err


def test_size_cap_takes_a_cap_of_any_length(tmp_path, capsys, monkeypatch):
    # int() refuses more than 4300 digits, which is no reason to refuse a cap
    monkeypatch.setenv("DOWKER_SIZE_CAP", "1" * 5000)
    assert cli._size_cap() == (10 ** 5000 - 1) // 9
    out = tmp_path / "torus.toplex"
    assert cli.main(["gen", "torus", "--m", "3", "--n", "3", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 18
    # nor to refuse a fixture over it other than by exit code 3: str() refuses
    # the cap too, so the message must not format it with str()
    big = tmp_path / "big.toplex"
    m = "1" + "0" * 3000
    assert cli.main(["gen", "torus", "--m", m, "--n", m, "--output", str(big)]) == 3
    assert f"exceeds cap {'1' * 5000}\n" in capsys.readouterr().err
    assert not big.exists()
    # leading zeros and surrounding blanks, over a 1000-digit boundary
    monkeypatch.setenv("DOWKER_SIZE_CAP", " " + "0" * 2999 + "17 ")
    assert cli._size_cap() == 17


# ----------------------------------------------------------------------
# the cyclic garbage collector

def test_commands_run_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return betti_gf2(*args, **kwargs)

    monkeypatch.setattr(cli, "betti_gf2", recording)
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    assert gc.isenabled()
    assert cli.main(["reduce", "--input", src, "--format", "toplex", "--check-betti"]) == 0
    assert cli.main(["betti", "--input", src]) == 0
    assert capsys.readouterr().out.endswith("betti: preserved\n1 2 1\n")
    assert seen == [False] * 3
    assert gc.isenabled()


def test_main_restores_the_callers_collector_state(tmp_path, capsys, monkeypatch):
    src = gen_file(tmp_path, "t.toplex", "torus", "--m", "4", "--n", "4")
    bad = write(tmp_path, "bad.toplex", "a b\n\n")
    calls = []

    def lying_oracle(*args, **kwargs):
        calls.append(1)
        return (1, 0, 0) if len(calls) % 2 else (2, 0, 0)

    def failing(*args, **kwargs):
        raise RuntimeError("boom")

    runs = [(["betti", "--input", src], 0), (["betti", "--input", bad], 1),
            (["betti", "--input", src, "--max-dim", "abc"], 1), (["--help"], 0)]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in runs:
                assert cli.main(argv) == code
                assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setenv("DOWKER_SIZE_CAP", "5")
                assert cli.main(["betti", "--input", src]) == 3
                assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setattr(cli, "betti_gf2", lying_oracle)
                assert cli.main(["reduce", "--input", src, "--format", "toplex",
                                 "--check-betti"]) == 2
                assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setattr(cli, "reduce", failing)
                with pytest.raises(RuntimeError, match="boom"):
                    cli.main(["reduce", "--input", src, "--format", "toplex"])
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.fixture
def collector_paused():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("toplexes", [gen_torus_grid(20, 30), gen_sphere_uv(24, 21)],
                         ids=["torus-20x30", "sphere-uv-24x21"])
def test_bulk_builders_leave_no_reference_cycles(toplexes, collector_paused):
    # main pauses the collector because what the commands build is acyclic:
    # reference counting alone frees each builder's result and scratch
    r = Relation.from_toplexes(toplexes)
    rel_text, toplex_text = r.to_text(), toplexes.to_text()
    builders = {
        "from_text": lambda: Relation.from_text(rel_text),
        "from_toplexes": lambda: Relation.from_toplexes(parse_toplex_file(toplex_text)),
        "betti_gf2": lambda: betti_gf2(r, 2),
        "enumerate_simplices": lambda: enumerate_simplices(r, 2),
        "reduce": lambda: format_step_log(reduce(r)[2]),
        "collapse_core": lambda: collapse_core(r),
        "to_text": r.to_text,
    }
    gc.collect()
    for name, build in builders.items():
        build()
        assert gc.collect() == 0, name


def test_main_leaves_as_many_cycles_on_a_large_input_as_on_a_small_one(
        tmp_path, capsys, collector_paused):
    # the cycles a run leaves are argparse's parser, not the data
    left = []
    for m, n in ((4, 4), (40, 50)):
        src = gen_file(tmp_path, f"t{m}.toplex", "torus", "--m", str(m), "--n", str(n))
        gc.collect()
        assert cli.main(["reduce", "--input", src, "--format", "toplex",
                         "--check-betti", "--json"]) == 0
        left.append(gc.collect())
    assert left[0] == left[1], left
    capsys.readouterr()


# ----------------------------------------------------------------------
# mutated input

# a quad and a triangle
QUAD_OFF = ("OFF\n5 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 2 0\n"
            "4 0 1 2 3\n3 1 4 2\n")

FUZZ_SEEDS = {
    "rel": [fan_relation().to_text(), Relation.from_toplexes(gen_sphere_cube()).to_text(),
            "3 4\na b c\np q r s\n0 1\n0 1 2\n2 3\n"],
    "toplex": [FAN_TEXT, gen_sphere_cube().to_text(), gen_torus_grid(3, 3).to_text()],
    "off": [TETRA_OFF, QUAD_OFF],
}

# what a mutation puts in: comment and blank lines, and tokens that are
# counts, indices or names out of place, too long for int(), or characters
# that split a line or a word
FUZZ_LINES = ["", "   ", "\t", "# a comment", "  # indented", "#"]
FUZZ_TOKENS = ["0", "1", "3", "-1", "x", "#x", "1.5", "OFF", "9" * 5000, "99999999",
               "\x0c", "\u00a0", "\u2028"]


def mutate(rng, text):
    """`text` with one to three of its lines inserted, deleted or replaced:
    by a comment or blank line, or by a line of tokens drawn from the text's
    own words and from FUZZ_TOKENS; or with one word of a line replaced."""
    lines = text.splitlines()
    words = text.split() + FUZZ_TOKENS
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines) + 1)
        op = rng.choice(("insert", "delete", "replace", "word"))
        if op == "delete" or i == len(lines) and op != "insert":
            del lines[i - 1:i]
            continue
        if op == "word" and lines[i].split():
            line = lines[i].split()
            line[rng.randrange(len(line))] = rng.choice(words)
        elif rng.random() < 0.4:
            line = [rng.choice(FUZZ_LINES)]
        else:
            line = [rng.choice(words) for _ in range(rng.randint(1, 4))]
        lines[i:i + (op != "insert")] = [" ".join(line)]
    return "\n".join(lines) + "\n" * rng.randint(0, 1)


def mutate_rel_body(rng, text):
    """`text`, a relation with no comments, with one to three edits that keep
    its size line true: a row line replaced by an in-range index list (out of
    order one time in five), two row lines swapped, or two labels of one label
    line swapped."""
    lines = text.splitlines()
    ncols = int(lines[0].split()[1])
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("row", "swap", "label"))
        if op == "row":
            idx = rng.sample(range(ncols), rng.randint(1, min(ncols, 4)))
            if rng.random() >= 0.2:
                idx.sort()
            lines[rng.randrange(3, len(lines))] = " ".join(map(str, idx))
        elif op == "swap":
            i, j = rng.randrange(3, len(lines)), rng.randrange(3, len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            k = rng.choice((1, 2))
            labels = lines[k].split()
            i, j = rng.randrange(len(labels)), rng.randrange(len(labels))
            labels[i], labels[j] = labels[j], labels[i]
            lines[k] = " ".join(labels)
    return "\n".join(lines) + "\n"


def outcome_fault(code, err, source, reduced=None):
    """Why an outcome breaks the exit-code contract, or None: exit 0; exit 1
    or 3 with an `error:` line and no traceback; exit 2 only from a reduce
    whose output, at path `reduced`, really has other Betti numbers than its
    input, the (path, format) pair `source`, by the dense reference."""
    if code == 0:
        return None
    if code in (1, 3):
        if "Traceback" in err or not any(l.startswith("error:") for l in err.splitlines()):
            return f"exit {code} without a plain error line: {err!r}"
        return None
    if code == 2 and reduced is not None:
        before = cli._load_relation(*source).toplexes()
        after = Relation.from_text(open(reduced).read()).toplexes()
        if betti_dense_reference(before, 2) != betti_dense_reference(after, 2):
            return None
    return f"exit {code}: {err!r}"


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    # DOWKER_FUZZ_TEXTS mutated texts per format (100 by default)
    count = int(os.environ.get("DOWKER_FUZZ_TEXTS", "100"))
    path, reduced = str(tmp_path / "input"), str(tmp_path / "reduced.rel")
    commands = {"reduce": ["--check-betti", "--json", "--output", reduced],
                "betti": [], "check": []}
    texts = []
    for fmt, seeds in FUZZ_SEEDS.items():
        rng = random.Random(f"fuzz-{fmt}")
        texts += [(fmt, mutate(rng, rng.choice(seeds))) for _ in range(count)]
    # body edits come from their own stream, so the texts above stay the same
    rng = random.Random("fuzz-rel-body")
    texts += [("rel-body", mutate_rel_body(rng, rng.choice(FUZZ_SEEDS["rel"])))
              for _ in range(count)]
    faults = []
    exits = {}
    for kind, text in texts:
        fmt = kind.split("-")[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command, extra in commands.items():
            try:
                code = cli.main([command, "--input", path, "--format", fmt, *extra])
            except Exception as exc:
                faults.append((kind, command, text, repr(exc)))
                capsys.readouterr()
                continue
            finally:
                if not gc.isenabled():
                    faults.append((kind, command, text, "collector left paused"))
                    gc.enable()
            err = capsys.readouterr().err
            exits[kind, code] = exits.get((kind, code), 0) + 1
            fault = outcome_fault(code, err, (path, fmt),
                                  reduced if command == "reduce" else None)
            if fault:
                faults.append((kind, command, text, fault))
    assert not faults, faults[:3]
    # the line edits reach both the parsers' refusals and whole runs, and the
    # body edits reach whole runs more often than the line edits of .rel text
    line_exits = {code: sum(n for (k, c), n in exits.items() if c == code and k != "rel-body")
                  for code in (0, 1)}
    assert line_exits[0] > count and line_exits[1] > count
    assert exits.get(("rel-body", 0), 0) > exits.get(("rel", 0), 0), exits
