"""Command-line interface: output format, determinism, and exit codes."""

import pytest

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

    def test_float_overflow_fails_fast(self, capsys):
        # C(N, j) in the consensus pair k = 1 is the first coefficient to
        # leave the double range; it is rounded before any interior pair
        code, out, err = run(capsys, "moments", "--n", "1100", "--init", "uniform", "--p", "1")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("votermodel: error:")
        assert "b-coefficient (N=1100, k=1)" in lines[0]
        assert "exceeds the double-precision range" in lines[0]
        assert "Traceback" not in err


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
