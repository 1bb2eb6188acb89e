"""Command-line interface: output format, determinism, and exit codes."""

import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votermodel
from votermodel import cli
from votermodel import montecarlo as mc
from votermodel import observables as ob
from votermodel import propagator as pg
from votermodel import spectral as sp
from votermodel import topology as tp
from votermodel import validate as vl


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    return lines[0], lines[1:]


def test_import_leaves_scipy_out():
    # scipy is imported only for quadrature of a callable Green's density
    src = str(Path(votermodel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, votermodel.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestSpectrum:
    def test_n4_exact(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "4")
        assert code == 0
        header, rows = data_rows(out)
        assert header == "k,lambda,c_0,c_1,c_2,c_3,c_4"
        assert rows[0] == "0,1,1,0,0,0,0"
        assert rows[1] == "1,1,0,0,0,0,1"
        assert rows[2] == "2,5/6,3/10,-1/5,-1/5,-1/5,3/10"
        assert len(rows) == 5

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--mode", "float")
        assert code == 0
        _, rows = data_rows(out)
        assert "/" not in rows[2]

    def test_provenance_lines(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--n", "3")
        assert out.startswith("# votermodel spectrum")
        assert "# n=3" in out

    def test_invalid_population(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "1")
        assert code == 2
        assert "error" in err


class TestPropagate:
    def test_methods_agree(self, capsys):
        _, out_s, _ = run(
            capsys, "propagate", "--n", "8", "--init", "delta:4", "--steps", "15"
        )
        _, out_d, _ = run(
            capsys, "propagate", "--n", "8", "--init", "delta:4", "--steps", "15",
            "--method", "direct",
        )
        assert data_rows(out_s)[1] == data_rows(out_d)[1]

    def test_crosscheck_recorded(self, capsys):
        _, out, _ = run(
            capsys, "propagate", "--n", "10", "--init", "uniform", "--steps", "5"
        )
        line = next(ln for ln in out.splitlines() if "crosscheck_max_abs_diff" in ln)
        assert float(line.split("=")[1]) <= 1e-12

    def test_auto_float_for_large_m(self, capsys):
        _, out, _ = run(
            capsys, "propagate", "--n", "12", "--init", "delta:6", "--steps", "100000"
        )
        assert "# mode=float" in out

    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "propagate", "--n", "4", "--init", "delta:2", "--steps", "1",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert "1,1/3" in path.read_text()

    def test_init_from_file(self, tmp_path, capsys):
        dist = tmp_path / "a0.txt"
        dist.write_text("0 1/2 0 1/2 0\n")
        code, out, _ = run(
            capsys, "propagate", "--n", "4", "--init", f"file:{dist}", "--steps", "0"
        )
        assert code == 0
        assert data_rows(out)[1][1] == "1,1/2"

    def test_rejects_bad_init(self, capsys):
        code, _, err = run(
            capsys, "propagate", "--n", "4", "--init", "nonsense", "--steps", "1"
        )
        assert code == 2
        assert "init" in err


class TestMoments:
    def test_exact_equals_oracle(self, capsys):
        args = ("moments", "--n", "10", "--init", "delta:5", "--p", "3")
        _, out_e, _ = run(capsys, *args, "--method", "exact")
        _, out_o, _ = run(capsys, *args, "--method", "oracle")
        vals_e = [row.split(",")[2] for row in data_rows(out_e)[1]]
        vals_o = [row.split(",")[2] for row in data_rows(out_o)[1]]
        assert vals_e == vals_o
        assert len(vals_e) == 3

    def test_consensus_start_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "moments", "--n", "6", "--init", "delta:0", "--p", "1"
        )
        assert code == 2
        assert "interior" in err

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_rejects_order_below_one(self, capsys, p):
        code, out, err = run(capsys, "moments", "--n", "6", "--init", "delta:3", "--p", p)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("votermodel: error:")
        assert "--p must be >= 1" in lines[0]

    def test_float_overflow_fails_fast(self, capsys):
        # c^(N)_j = (-1)^(N-j) C(N, j) has the largest entries of any pair
        # and leaves the double range first; pair k = N is built first
        code, out, err = run(capsys, "moments", "--n", "1100", "--init", "uniform", "--p", "1")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("votermodel: error:")
        assert "eigenvector component (N=1100, k=1100)" in lines[0]
        assert "exceeds the double-precision range" in lines[0]
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("moments", "--n", "1100", "--init", "uniform", "--p", "2"),
    ("local-times", "--n", "1100", "--init", "uniform"),
    ("propagate", "--n", "1100", "--init", "uniform", "--steps", "3"),
], ids=lambda argv: argv[0])
def test_overflow_advice_works(capsys, argv):
    # followed, the advice answers past ORACLE_LIMIT (moments --method oracle
    # takes the same limit rule as local-times)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    advice = err.strip().split("; rerun with ")[1].split()
    code, out, _ = run(capsys, *argv, *advice)
    assert code == 0
    assert data_rows(out)[1]


class TestLocalTimes:
    def test_exact_equals_oracle(self, capsys):
        args = ("local-times", "--n", "6", "--init", "delta:3")
        _, out_e, _ = run(capsys, *args, "--method", "exact")
        _, out_o, _ = run(capsys, *args, "--method", "oracle")
        assert data_rows(out_e)[1] == data_rows(out_o)[1]

    def test_greens_uniform_is_flat(self, capsys):
        _, out, _ = run(
            capsys, "local-times", "--n", "10", "--init", "uniform",
            "--method", "greens",
        )
        header, rows = data_rows(out)
        assert header == "rho,M"
        assert all(float(row.split(",")[1]) == pytest.approx(5.0) for row in rows)

    @pytest.mark.parametrize("n", ["1", "-5"])
    def test_greens_rejects_invalid_population(self, capsys, n):
        code, out, err = run(
            capsys, "local-times", "--n", n, "--init", "uniform", "--method", "greens"
        )
        assert code == 2
        assert out == ""
        assert "population size" in err

    def test_greens_rejects_file_init(self, capsys):
        code, _, _ = run(
            capsys, "local-times", "--n", "10", "--init", "file:x", "--method", "greens"
        )
        assert code == 2


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        argv = (
            "simulate", "--topology", "complete:20", "--init", "delta:10",
            "--runs", "5", "--seed", "3", "--pmax", "2",
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.runs.csv").read_bytes() == (tmp_path / "b.runs.csv").read_bytes()

    def test_run_level_file_schema(self, tmp_path, capsys):
        argv = (
            "simulate", "--topology", "complete:16", "--init", "density:0.5",
            "--runs", "4", "--seed", "11", "--pmax", "1",
            "--out", str(tmp_path / "m.csv"),
        )
        assert run(capsys, *argv)[0] == 0
        header, rows = data_rows((tmp_path / "m.runs.csv").read_text())
        assert header == "replica,steps,censored,fixated,initial_count"
        assert len(rows) == 4
        assert all(row.split(",")[4] == "8" for row in rows)

    def test_default_complete_output_is_local_times(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--topology", "complete:10", "--init", "delta:5",
            "--runs", "30", "--seed", "2",
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == "j,mean_visits,stderr"
        assert len(rows) == 9

    def test_er_normalization_recorded(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--topology", "er:20,0.4", "--init", "density:0.5",
            "--runs", "10", "--seed", "6", "--pmax", "2", "--normalize",
        )
        assert code == 0
        norm_line = next(ln for ln in out.splitlines() if ln.startswith("# normalize="))
        assert 0 < float(norm_line.split("=")[1]) < 1

    def test_bipartite_group_split(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--topology", "bipartite:8,2", "--init", "delta:5",
            "--runs", "5", "--seed", "4", "--pmax", "1",
        )
        assert code == 0
        assert "p,T_p" in out

    @pytest.mark.parametrize("topology", ["complete:10", "bipartite:6,4"])
    @pytest.mark.parametrize("rho", ["inf", "-inf", "1e400", "nan", "1.5"])
    def test_rejects_density_outside_unit_interval(self, capsys, topology, rho):
        code, out, err = run(
            capsys, "simulate", "--topology", topology, "--init", f"density:{rho}",
            "--runs", "1", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0] == (
            f"votermodel: error: density must lie in [0, 1], got {float(rho)}"
        )

    def test_bad_topology(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--topology", "ring:9", "--init", "uniform",
            "--runs", "1", "--seed", "0",
        )
        assert code == 2
        assert "topology" in err

    def test_duplicate_edge_file_rejected(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("3 3\n0 1\n0 1\n1 2\n")
        code, _, err = run(
            capsys, "simulate", "--topology", f"file:{graph}", "--init", "delta:1",
            "--runs", "1", "--seed", "0",
        )
        assert code == 2
        assert "duplicate edge" in err

    def test_unconnectable_graph_exit_code(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--topology", "er:60,0.005", "--init", "density:0.5",
            "--runs", "1", "--seed", "0",
        )
        assert code == 1
        assert "no connected" in err


class TestValidate:
    def test_passing_check_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(vl, "CORE_CHECKS", (vl.check_uniform_local_time,))
        code, out, _ = run(capsys, "validate", "--suite", "core")
        assert code == 0
        _, rows = data_rows(out)
        assert rows[0].startswith("uniform-local-time,pass")

    def test_injected_fault_exits_one(self, capsys, monkeypatch):
        from votermodel import propagator as pg

        good = pg.transition_rates

        def broken(N, mode=None):
            vals = good(N, mode if mode is not None else "exact")
            return tuple(-v for v in vals)  # wrong sign: detailed balance broken

        monkeypatch.setattr(vl.pg, "transition_rates", broken)
        monkeypatch.setattr(vl, "CORE_CHECKS", (vl.check_spectral_correctness,))
        code, out, _ = run(capsys, "validate", "--suite", "core")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["validate", "--suite", "bogus"])
        capsys.readouterr()


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc("injected failure")

    return raiser


MOMENTS = ("moments", "--n", "6", "--init", "delta:3", "--p", "2")
SIMULATE = ("simulate", "--init", "delta:3", "--runs", "2", "--seed", "0")


#: (exception, function patched to raise it, command, exit code)
CONTRACT = [
    (sp.InvalidPopulationError, (sp, "build_decomposition"), ("spectrum", "--n", "4"), 2),
    (sp.NormalizationError, (sp, "to_coordinates"), MOMENTS, 2),
    (sp.NumericOverflowError, (sp, "build_decomposition"),
     ("spectrum", "--n", "4", "--mode", "float"), 2),
    (pg.OracleLimitError, (pg, "dense_oracle"),
     ("propagate", "--n", "4", "--init", "delta:2", "--steps", "1", "--method", "direct"), 2),
    (ob.UndefinedMomentError, (ob, "moments_oracle"), MOMENTS + ("--method", "oracle"), 2),
    (mc.UnsupportedObservableError, (mc, "simulate"),
     SIMULATE + ("--topology", "complete:6"), 2),
    (tp.GraphGenerationError, (tp, "generate_er"), SIMULATE + ("--topology", "er:6,0.5"), 1),
    (cli.UsageError, (cli, "_parse_init_distribution"), MOMENTS, 2),
    # raised by the real input: Fraction("1/0") in a file: init spec
    (ZeroDivisionError, None, ("moments", "--n", "4", "--init", "ZERO_DEN", "--p", "1"), 2),
]


@pytest.mark.parametrize(
    "exc, target, argv, code", CONTRACT, ids=[row[0].__name__ for row in CONTRACT]
)
def test_error_contract(exc, target, argv, code, tmp_path, monkeypatch, capsys):
    init = tmp_path / "a0.txt"
    init.write_text("1/0 1 0 0 0\n")
    argv = [f"file:{init}" if a == "ZERO_DEN" else a for a in argv]
    if target is not None:
        monkeypatch.setattr(*target, _raise(exc))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("votermodel: error:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Fuzzed init and topology specs
# ---------------------------------------------------------------------------

#: population sizes stay small, so that no example allocates a large graph
SIZES = st.integers(min_value=-2, max_value=40)
FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "0.5", "1", "1e400", "-1e400", "nan", "inf", "-inf", "", "x"]),
)
GARBAGE = st.text(max_size=12)
INITS = st.one_of(
    SIZES.map("delta:{}".format),
    FLOAT_TEXT.map("density:{}".format),
    st.just("uniform"),
    st.just("file:INIT"),
    st.just("file:MISSING"),
    GARBAGE.map("delta:{}".format),
    GARBAGE,
)
# link probabilities avoid tiny positive values, whose retry budget runs long
LINK_P = st.sampled_from(["0.1", "0.3", "1", "0", "-0.5", "1.5", "nan", "inf", "1e400", "x"])
TOPOLOGIES = st.one_of(
    SIZES.map("complete:{}".format),
    st.tuples(SIZES, SIZES).map(lambda t: f"bipartite:{t[0]},{t[1]}"),
    st.tuples(SIZES, LINK_P).map(lambda t: f"er:{t[0]},{t[1]}"),
    st.just("file:GRAPH"),
    st.just("file:MISSING"),
    GARBAGE.map("complete:{}".format),
    GARBAGE,
)
TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "1/3", "1/0", "0.5", "nan", "1e400", "x"])
FILE_TEXT = st.lists(
    st.lists(TOKENS, max_size=4).map(" ".join), max_size=6
).map("\n".join)
GRAPH_TEXT = st.tuples(SIZES, st.integers(min_value=-1, max_value=6), FILE_TEXT).map(
    lambda t: f"{t[0]} {t[1]}\n{t[2]}"
)


@st.composite
def commands(draw):
    init = f"--init={draw(INITS)}"
    command = draw(st.sampled_from(["moments", "local-times", "simulate"]))
    if command == "simulate":
        argv = ["simulate", f"--topology={draw(TOPOLOGIES)}", init, "--runs=2",
                f"--seed={draw(st.integers(min_value=0, max_value=9))}"]
        argv += draw(st.sampled_from([[], ["--pmax=2"], ["--pmax=1", "--normalize"]]))
    elif command == "moments":
        argv = ["moments", f"--n={draw(SIZES)}", init,
                f"--p={draw(st.integers(min_value=-1, max_value=3))}",
                f"--method={draw(st.sampled_from(['exact', 'asymptotic', 'oracle']))}"]
    else:
        argv = ["local-times", f"--n={draw(SIZES)}", init,
                f"--method={draw(st.sampled_from(['exact', 'oracle', 'greens']))}"]
    return argv, draw(FILE_TEXT), draw(GRAPH_TEXT)


@given(commands())
@settings(max_examples=250, deadline=None)
def test_fuzzed_specs_keep_the_error_contract(case):
    argv, init_text, graph_text = case
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "INIT").write_text(init_text)
        Path(tmp, "GRAPH").write_text(graph_text)
        argv = [a.replace("file:", f"file:{tmp}{os.sep}") if "=file:" in a else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("votermodel: error:")
    assert "Traceback" not in err.getvalue()
