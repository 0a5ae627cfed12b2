import csv
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.io

import rcur
from rcur.bench import exp1_instance, exp1_sweep, exp4_instance, exp4_run
from rcur.cli import run
from rcur.cur import deim_cur
from rcur.gsvd import gsvd
from rcur.io import read_matrix, write_csv, write_matrix
from rcur.synth import subgroup_data


@pytest.fixture()
def pair(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 12))
    b = rng.standard_normal((20, 12))
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, a)
    write_matrix(pb, b)
    return a, b, str(pa), str(pb)


@pytest.fixture()
def triplet(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((16, 10))
    b = rng.standard_normal((16, 30))
    g = rng.standard_normal((24, 10))
    paths = []
    for name, mat in [("a", a), ("b", b), ("g", g)]:
        path = tmp_path / f"{name}.mtx"
        write_matrix(path, mat)
        paths.append(str(path))
    return a, b, g, paths


@pytest.fixture()
def exp1_pair(tmp_path):
    _, e, a_e = exp1_instance(600, 80, 0.1, 0)
    pa, pe = tmp_path / "ae.mtx", tmp_path / "e.csv"
    write_matrix(pa, a_e)
    write_csv(pe, e)
    return a_e, e, str(pa), str(pe)


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gsvd_command_writes_factors(pair, tmp_path):
    a, b, pa, pb = pair
    prefix = str(tmp_path / "out")
    assert run(["gsvd", "--a", pa, "--b", pb, "--out-prefix", prefix]) == 0
    u = read_matrix(f"{prefix}_U.mtx")
    y = read_matrix(f"{prefix}_Y.mtx")
    rows = read_report(f"{prefix}_vals.csv")
    assert u.shape == (30, 12)
    assert len(rows) == 12
    gamma = np.array([float(r["gamma"]) for r in rows])
    beta = np.array([float(r["beta"]) for r in rows])
    assert np.allclose(gamma**2 + beta**2, 1.0, atol=1e-10)
    assert y.shape == (12, 12)


def test_rsvd_command(triplet, tmp_path):
    a, b, g, (pa, pb, pg) = triplet
    prefix = str(tmp_path / "rsvd")
    code = run(["rsvd", "--a", pa, "--b", pb, "--g", pg,
                "--out-prefix", prefix])
    assert code == 0
    z = read_matrix(f"{prefix}_Z.mtx")
    v = read_matrix(f"{prefix}_V.mtx")
    assert z.shape == (16, 16)
    assert v.shape == (24, 24)
    rows = read_report(f"{prefix}_vals.csv")
    vals = np.array([[float(r[c]) for c in ("alpha", "beta", "gamma")]
                     for r in rows])
    assert np.allclose((vals**2).sum(axis=1), 1.0, atol=1e-10)


def test_cur_command(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 15))
    pa = tmp_path / "a.csv"
    np.savetxt(pa, a, delimiter=",")
    report = tmp_path / "cur.csv"
    assert run(["cur", "--a", str(pa), "--report", str(report), "-k", "5"]) == 0
    (row,) = read_report(report)
    assert float(row["err_a"]) < 1e-8
    assert len(row["indices_p"].split(";")) == 5


def test_gcur_command_deterministic_and_randomized(pair, tmp_path):
    _, _, pa, pb = pair
    r1 = tmp_path / "det.csv"
    r2 = tmp_path / "rand.csv"
    assert run(["gcur", "--a", pa, "--b", pb, "--report", str(r1),
                "-k", "4"]) == 0
    assert run(["gcur", "--a", pa, "--b", pb, "--report", str(r2),
                "-k", "4", "--randomized", "--method", "ldeim",
                "--khat", "2", "--seed", "3"]) == 0
    (det,) = read_report(r1)
    (rand,) = read_report(r2)
    assert det["seed"] == "" and rand["seed"] == "3"
    assert set(det) == {"method", "k", "khat", "p", "seed", "err_a", "err_b",
                        "wall_ms", "indices_p", "indices_s_a", "indices_s_b"}
    assert 0.0 <= float(rand["err_a"]) <= 2.0


def test_rsvd_cur_command(triplet, tmp_path):
    _, _, _, (pa, pb, pg) = triplet
    report = tmp_path / "rc.csv"
    code = run(["rsvd-cur", "--a", pa, "--b", pb, "--g", pg,
                "--report", str(report), "-k", "4", "--randomized",
                "--seed", "1"])
    assert code == 0
    (row,) = read_report(report)
    for col in ("indices_p", "indices_p_b", "indices_s", "indices_s_g"):
        assert len(row[col].split(";")) == 4
    assert "err_g" in row


def test_reports_byte_identical_apart_from_wall_ms(pair, tmp_path):
    _, _, pa, pb = pair
    r1, r2 = tmp_path / "one.csv", tmp_path / "two.csv"
    argv = ["gcur", "--a", pa, "--b", pb, "-k", "4", "--randomized",
            "--seed", "9"]
    assert run(argv + ["--report", str(r1)]) == 0
    assert run(argv + ["--report", str(r2)]) == 0
    (a_row,), (b_row,) = read_report(r1), read_report(r2)
    a_row.pop("wall_ms")
    b_row.pop("wall_ms")
    assert a_row == b_row


def _plateau_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, [w for w in caught if "plateau" in str(w.message)]


def test_sketched_ldeim_gcur_does_not_warn_about_unsketched_pairs(exp1_pair,
                                                                  tmp_path):
    # khat + p = 15 < k = 20: the gammas past the sketch width are zero by
    # construction, but L-DEIM reads only the first khat + p pairs
    _, _, pa, pe = exp1_pair
    code, caught = _plateau_warnings(
        ["gcur", "--a", pa, "--b", pe, "-k", "20", "--method", "ldeim",
         "--randomized", "--report", str(tmp_path / "r.csv")])
    assert code == 0
    assert caught == []


def test_tiny_generalized_values_still_warn(exp1_pair, tmp_path):
    a_e, e, pa, _ = exp1_pair
    pe = tmp_path / "e_big.mtx"
    write_matrix(pe, 1e15 * e)
    code, caught = _plateau_warnings(
        ["gcur", "--a", pa, "--b", str(pe), "-k", "5",
         "--report", str(tmp_path / "r.csv")])
    assert code == 0
    assert len(caught) == 1


def _report_without_wall_ms(path):
    lines = Path(path).read_text().splitlines()
    drop = lines[0].split(",").index("wall_ms")
    return [[f for i, f in enumerate(line.split(",")) if i != drop]
            for line in lines]


def test_reports_identical_across_blas_thread_counts(exp1_pair, tmp_path):
    _, _, pa, pe = exp1_pair
    src = str(Path(rcur.__file__).resolve().parents[1])
    for extra in ([], ["--method", "ldeim", "--randomized", "--seed", "2"]):
        reports = []
        for threads in ("1", "2"):
            report = tmp_path / f"r{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "rcur.cli", "gcur", "--a", pa,
                 "--b", pe, "-k", "10", *extra, "--report", str(report)],
                env=env, check=True)
            reports.append(_report_without_wall_ms(report))
        assert reports[0] == reports[1]


def test_synth_command(tmp_path):
    prefix = str(tmp_path / "sl")
    assert run(["synth", "--kind", "sparse-lowrank", "--m", "50", "--n", "20",
                "--out-prefix", prefix]) == 0
    assert read_matrix(f"{prefix}_A.mtx").shape == (50, 20)
    prefix2 = str(tmp_path / "tp")
    assert run(["synth", "--kind", "toeplitz-pair", "--m", "60", "--n", "15",
                "--eps", "0.1", "--out-prefix", prefix2]) == 0
    a = read_matrix(f"{prefix2}_A.mtx")
    e = read_matrix(f"{prefix2}_E.mtx")
    ae = read_matrix(f"{prefix2}_AE.mtx")
    assert np.allclose(a + e, ae)


@pytest.mark.parametrize("kind,flags", [
    ("toeplitz-pair", ["--m", "20", "--n", "5", "--eps", "nan"]),
    ("toeplitz-pair", ["--m", "20", "--n", "5", "--eps", "-0.1"]),
    ("bfg-triplet", ["--l", "120", "--d", "60", "--m", "30", "--eps", "inf"]),
], ids=["toeplitz-nan", "toeplitz-negative", "bfg-inf"])
def test_synth_refuses_a_bad_epsilon_and_writes_nothing(tmp_path, capsys,
                                                        kind, flags):
    code = run(["synth", "--kind", kind, *flags,
                "--out-prefix", str(tmp_path / "t")])
    assert code == 1
    assert "epsilon must be >= 0 and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind,flags,names,generate", [
    ("bfg-triplet", ["--l", "120", "--d", "60", "--m", "30", "--eps", "0.1"],
     ("A", "AE", "B", "G"), lambda: exp4_instance(120, 60, 30, 0.1, 3)),
    ("subgroup", ["--m", "20", "--d", "5"], ("target", "background"),
     lambda: subgroup_data(20, 5, seed=3)),
], ids=["bfg-triplet", "subgroup"])
def test_synth_writes_what_the_generator_returns(tmp_path, kind, flags, names,
                                                 generate):
    prefix = str(tmp_path / "s")
    assert run(["synth", "--kind", kind, *flags, "--seed", "3",
                "--out-prefix", prefix]) == 0
    assert sorted(x.name for x in tmp_path.iterdir()) == sorted(
        f"s_{name}.mtx" for name in names)
    for name, want in zip(names, generate()):
        got = read_matrix(f"{prefix}_{name}.mtx")
        assert got.shape == want.shape
        assert np.array_equal(got, want), name


def test_bench_exp1_command(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(["bench", "exp1", "--m", "120", "--n", "30", "--eps", "0.1",
                "--kmax", "4", "--kstep", "2", "--seeds", "1",
                "--out", str(out)])
    assert code == 0
    rows = read_report(out)
    assert {r["method"] for r in rows} == {"cur", "gcur", "r-deim-gcur",
                                           "r-ldeim-gcur"}
    assert {r["k"] for r in rows} == {"2", "4"}
    # the header is the keys bench puts in every row
    assert list(rows[0]) == list(exp1_sweep(120, 30, 0.1, [2], seeds=[0])[0])


def test_bench_exp4_command(tmp_path):
    out = tmp_path / "bench4.csv"
    code = run(["bench", "exp4", "--l", "100", "--d", "50", "--m", "30",
                "-k", "4", "--eps", "0.1", "-p", "10", "--seeds", "1",
                "--out", str(out)])
    assert code == 0
    rows = read_report(out)
    assert len(rows) == 3
    assert list(rows[0]) == list(exp4_run(100, 50, 30, 4, 0.1, 10, seeds=[0])[0])


@pytest.mark.parametrize("argv", [
    ["exp1", "--m", "120", "--n", "30", "--eps", "0.1", "--kmax", "4"],
    ["exp4", "--l", "100", "--d", "50", "--m", "30", "-k", "4", "--eps", "0.1",
     "-p", "10"],
], ids=["exp1", "exp4"])
def test_empty_bench_sweep_exits_one_and_writes_nothing(tmp_path, capsys,
                                                        argv):
    out = tmp_path / "bench.csv"
    code = run(["bench", *argv, "--seeds", "0", "--out", str(out)])
    assert code == 1
    assert "no rows" in capsys.readouterr().err
    assert not out.exists()


def test_randomized_gsvd_and_rsvd_follow_method(tmp_path, widths):
    # L-DEIM at khat = 2, p = 1 sketches khat + p = 3 columns, not k + p;
    # A is square so the RSVD floor m - n + 1 = 1 leaves the width alone,
    # and the RSVD draws only its sketch of B^T U_1 (G is factored by QR)
    rng = np.random.default_rng(3)
    a, b, g = (str(tmp_path / f"{name}.mtx") for name in "abg")
    for path, shape in [(a, (8, 8)), (b, (8, 20)), (g, (12, 8))]:
        write_matrix(path, rng.standard_normal(shape))
    flags = ["--randomized", "--method", "ldeim", "-k", "4", "--khat", "2",
             "-p", "1", "--out-prefix", str(tmp_path / "o")]
    assert run(["gsvd", "--a", a, "--b", g, *flags]) == 0
    assert widths == [3]
    widths.clear()
    assert run(["rsvd", "--a", a, "--b", b, "--g", g, *flags]) == 0
    assert widths == [3]


def test_numerical_failure_exits_one(tmp_path, capsys):
    a = np.zeros((6, 4))
    b = np.zeros((5, 4))
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, a)
    write_matrix(pb, b)
    code = run(["gsvd", "--a", str(pa), "--b", str(pb),
                "--out-prefix", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_rsvd_of_b_deficient_outside_range_a_exits_one(tmp_path, capsys):
    # u^T B = 0 for a unit u orthogonal to range(A): outside the RSVD's
    # contract, so a typed error and no factor files
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    u = np.linalg.qr(np.hstack([a, np.ones((6, 1))]))[0][:, 4]
    b = rng.standard_normal((6, 10))
    paths = []
    for name, mat in (("a", a), ("b", b - np.outer(u, u @ b)),
                      ("g", rng.standard_normal((8, 4)))):
        paths += [f"--{name}", str(tmp_path / f"{name}.mtx")]
        write_matrix(paths[-1], mat)
    for extra in ([], ["-k", "2", "--randomized"]):
        code = run(["rsvd", *paths, "--out-prefix", str(tmp_path / "o"),
                    *extra])
        assert code == 1
        assert "rank deficient" in capsys.readouterr().err
        assert list(tmp_path.glob("o_*")) == []


def test_randomized_gsvd_of_a_short_b_exits_one(tmp_path, capsys):
    # B 45x50 has fewer rows than columns: a shape error, no factor files
    rng = np.random.default_rng(6)
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, rng.standard_normal((100, 50)))
    write_matrix(pb, rng.standard_normal((45, 50)))
    code = run(["gsvd", "--a", str(pa), "--b", str(pb), "-k", "10",
                "--randomized", "--out-prefix", str(tmp_path / "o")])
    assert code == 1
    assert "at least 50 rows" in capsys.readouterr().err
    assert list(tmp_path.glob("o_*")) == []


def test_gcur_of_dependent_columns_exits_one(tmp_path, capsys):
    # at k = n every column is selected, so a repeated column makes C
    # rank deficient: a typed rank refusal and no report
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 8))
    a[:, 5] = a[:, 2]
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(pa, a)
    write_matrix(pb, rng.standard_normal((20, 8)))
    report = tmp_path / "r.csv"
    assert run(["gcur", "--a", str(pa), "--b", str(pb), "-k", "8",
                "--report", str(report)]) == 1
    assert "rank deficient" in capsys.readouterr().err
    assert not report.exists()


def test_complex_matrix_exits_one(tmp_path, capsys):
    # casting would drop the imaginary part and report on the real part
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
    pa = tmp_path / "a.mtx"
    scipy.io.mmwrite(pa, a)
    with pytest.raises(ValueError, match="must be real"):
        deim_cur(scipy.io.mmread(pa), 3)
    report = tmp_path / "cur.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["cur", "--a", str(pa), "-k", "3", "--report", str(report)])
    assert code == 1
    assert "must be real" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flags", [
    ["-k", "0"], ["-k", "-2"], ["-k", "3", "--method", "ldeim", "--khat", "0"],
], ids=["k=0", "k=-2", "khat=0"])
def test_cur_bad_rank_exits_one(flags, tmp_path, capsys):
    pa = tmp_path / "a.csv"
    np.savetxt(pa, np.random.default_rng(3).standard_normal((50, 20)),
               delimiter=",")
    report = tmp_path / "cur.csv"
    assert run(["cur", "--a", str(pa), "--report", str(report), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


def test_missing_file_exits_one(tmp_path, capsys):
    code = run(["gsvd", "--a", str(tmp_path / "nope.mtx"),
                "--b", str(tmp_path / "nope.mtx"),
                "--out-prefix", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two(pair, ci_inputs, tmp_path):
    _, _, pa, pb = pair
    # every --randomized run sketches to a width set by -k
    for argv in (["gsvd", "--a", pa, "--b", pb],
                 ["rsvd", "--a", ci_inputs["t_ae"], "--b", ci_inputs["t_b"],
                  "--g", ci_inputs["t_g"]]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out-prefix", str(tmp_path / "o"), "--randomized"])
        assert exc.value.code == 2
    assert list(tmp_path.glob("o_*")) == []
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    # deim_cur never sketches, so cur takes no sketch flags
    for flag in (["--randomized"], ["-p", "3"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(["cur", "--a", pa, "--report", str(tmp_path / "r.csv"),
                 "-k", "2", *flag])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def ci_inputs(tmp_path_factory):
    """A 200x30 exp1 pair and the CI smoke run's exp4 triplet, as files."""
    root = tmp_path_factory.mktemp("ci")
    _, e, a_e = exp1_instance(200, 30, 0.1, 3)
    _, t_ae, t_b, t_g = exp4_instance(120, 60, 30, 0.1, 3)
    paths = {}
    for name, mat in [("ae", a_e), ("e", e), ("t_ae", t_ae), ("t_b", t_b),
                      ("t_g", t_g)]:
        paths[name] = str(root / f"{name}.mtx")
        write_matrix(paths[name], mat)
    return paths


def _command(name, paths, k):
    inputs = {"cur": ["--a", paths["ae"]],
              "gcur": ["--a", paths["ae"], "--b", paths["e"]],
              "rsvd-cur": ["--a", paths["t_ae"], "--b", paths["t_b"],
                           "--g", paths["t_g"]]}[name]
    return [name, *inputs, "-k", str(k)]


@pytest.mark.parametrize("method,khat", [("deim", "6"), ("ldeim", "3")])
@pytest.mark.parametrize("command", ["cur", "gcur", "rsvd-cur"])
def test_report_khat_is_what_the_selection_read(ci_inputs, tmp_path, command,
                                                method, khat):
    # k for DEIM, the L-DEIM budget ceil(k/2) on a deterministic run, and
    # min(k, khat + p) on a randomized one: every column the sketch paid
    # for, so the default p = 5 reads all k = 6 and p = 0 reads the budget
    runs = [([], khat)]
    if command != "cur":
        runs += [(["--randomized", "--seed", "4"], "6"),
                 (["--randomized", "--seed", "4", "-p", "0"], khat)]
    for extra, read in runs:
        report = tmp_path / "r.csv"
        argv = _command(command, ci_inputs, 6) + ["--method", method, *extra]
        assert run(argv + ["--report", str(report)]) == 0
        (row,) = read_report(report)
        assert row["khat"] == read, extra


@pytest.mark.parametrize("command", ["cur", "gcur", "rsvd-cur"])
def test_khat_without_ldeim_is_a_usage_error(ci_inputs, tmp_path, command):
    report = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        run(_command(command, ci_inputs, 6) + ["--khat", "2",
                                               "--report", str(report)])
    assert exc.value.code == 2
    assert not report.exists()


@pytest.mark.parametrize("command", ["gcur", "rsvd-cur"])
def test_deterministic_run_reads_no_sketch_flags(ci_inputs, tmp_path,
                                                 command):
    # -p is read only with --randomized, so a value SketchConfig would
    # refuse cannot fail a deterministic run
    report = tmp_path / "r.csv"
    argv = _command(command, ci_inputs, 6) + ["-p", "-1", "--seed", "5"]
    assert run(argv + ["--report", str(report)]) == 0
    (row,) = read_report(report)
    assert row["p"] == "" and row["seed"] == ""


REPORT_HEADERS = {
    "cur": "method,k,khat,p,seed,err_a,err_b,wall_ms,indices_p,indices_s",
    "gcur": "method,k,khat,p,seed,err_a,err_b,wall_ms,"
            "indices_p,indices_s_a,indices_s_b",
    "rsvd-cur": "method,k,khat,p,seed,err_a,err_b,err_g,wall_ms,"
                "indices_p,indices_p_b,indices_s,indices_s_g",
}


@pytest.mark.parametrize("command", list(REPORT_HEADERS))
def test_report_columns_in_order(ci_inputs, tmp_path, command):
    report = tmp_path / "r.csv"
    assert run(_command(command, ci_inputs, 4) + ["--report", str(report)]) == 0
    assert report.read_text().splitlines()[0] == REPORT_HEADERS[command]
    (row,) = read_report(report)
    if command == "cur":
        # deim_cur never sketches and factors A alone
        assert row["p"] == row["seed"] == row["err_b"] == ""


@pytest.mark.parametrize("command,inputs,files,header", [
    ("gsvd", ("ae", "e"), "UVY", "gamma,beta,ratio"),
    ("rsvd", ("t_ae", "t_b", "t_g"), "ZWUV", "alpha,beta,gamma"),
], ids=["gsvd", "rsvd"])
def test_factor_files_and_value_columns(ci_inputs, tmp_path, command, inputs,
                                        files, header):
    flags = [x for name, flag in zip(inputs, ("--a", "--b", "--g"))
             for x in (flag, ci_inputs[name])]
    for extra in ([], ["-k", "4", "--randomized"]):
        out = tmp_path / ("rand" if extra else "det")
        out.mkdir()
        assert run([command, *flags, *extra,
                    "--out-prefix", str(out / "o")]) == 0
        assert sorted(x.name for x in out.iterdir()) == sorted(
            [f"o_{x}.mtx" for x in files] + ["o_vals.csv"])
        assert (out / "o_vals.csv").read_text().splitlines()[0] == header


def test_gsvd_ratio_column_is_the_factors_ratio(ci_inputs, tmp_path):
    prefix = str(tmp_path / "o")
    assert run(["gsvd", "--a", ci_inputs["ae"], "--b", ci_inputs["e"],
                "--out-prefix", prefix]) == 0
    ratio = gsvd(read_matrix(ci_inputs["ae"]), read_matrix(ci_inputs["e"])).ratio
    assert [row["ratio"] for row in read_report(f"{prefix}_vals.csv")] == [
        format(x, ".12g") for x in ratio]


@pytest.fixture(scope="module")
def toeplitz_pair(tmp_path_factory):
    """File prefix of a 600x80 exp1 pair (seed 3) written by ``rcur synth``."""
    prefix = str(tmp_path_factory.mktemp("tp") / "tp")
    assert run(["synth", "--kind", "toeplitz-pair", "--m", "600", "--n", "80",
                "--eps", "0.1", "--seed", "3", "--out-prefix", prefix]) == 0
    return prefix


def _columns(path, names):
    rows = read_report(path)
    return [np.array([float(row[name]) for row in rows]) for name in names]


def test_gsvd_files_rebuild_the_pair(toeplitz_pair, tmp_path):
    # the 600x80 A-block is tall: U comes from qr_stack and an 80x80 SVD.
    # V = Q_B Z / beta is orthonormal only to about eps / beta_min^2
    # (2.6e-10 here, beta_min 1.3e-3); _vals.csv holds 12 digits
    a, b = (read_matrix(f"{toeplitz_pair}_{x}.mtx") for x in ("AE", "E"))
    prefix = str(tmp_path / "g")
    assert run(["gsvd", "--a", f"{toeplitz_pair}_AE.mtx",
                "--b", f"{toeplitz_pair}_E.mtx", "--out-prefix", prefix]) == 0
    u, v, y = (read_matrix(f"{prefix}_{x}.mtx") for x in "UVY")
    gamma, beta = _columns(f"{prefix}_vals.csv", ("gamma", "beta"))
    eye = np.eye(y.shape[0])
    assert np.linalg.norm(u.T @ u - eye) <= 1e-10
    assert np.linalg.norm(v.T @ v - eye) <= 1e-9
    assert np.linalg.norm(u * gamma @ y.T - a) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(v * beta @ y.T - b) <= 1e-12 * np.linalg.norm(b)


def test_rsvd_files_rebuild_the_triplet(ci_inputs, tmp_path):
    # U and V are completed to orthogonal matrices; A and G are reproduced
    # to roundoff, B only to 3.3e-7 here, as U_1 is orthonormal only to
    # about eps / beta_min^2 (the strict xfail
    # test_b_reconstructed_to_roundoff_on_the_exp4_triplet records it)
    a, b, g = (read_matrix(ci_inputs[x]) for x in ("t_ae", "t_b", "t_g"))
    prefix = str(tmp_path / "r")
    assert run(["rsvd", "--a", ci_inputs["t_ae"], "--b", ci_inputs["t_b"],
                "--g", ci_inputs["t_g"], "--out-prefix", prefix]) == 0
    z, w, u, v = (read_matrix(f"{prefix}_{x}.mtx") for x in "ZWUV")
    alpha, beta, gamma = _columns(f"{prefix}_vals.csv",
                                  ("alpha", "beta", "gamma"))
    (m, n), norm = a.shape, np.linalg.norm
    b_diag = np.concatenate([beta, np.ones(m - n)])
    assert norm(u.T @ u - np.eye(u.shape[1])) <= 1e-10
    assert norm(v.T @ v - np.eye(v.shape[1])) <= 1e-10
    assert norm(z[:, :n] * alpha @ w.T - a) <= 1e-10 * norm(a)
    assert norm(v[:, :n] * gamma @ w.T - g) <= 1e-10 * norm(g)
    assert norm(z * b_diag @ u[:, :m].T - b) <= 1e-5 * norm(b)


def test_ldeim_extends_a_narrow_sketch_to_k_indices(toeplitz_pair, tmp_path):
    # khat + p = 5 < k: the GSVD forms 5 columns, which L-DEIM extends to
    # 10 distinct indices on each side
    report = tmp_path / "extend.csv"
    assert run(["gcur", "--a", f"{toeplitz_pair}_AE.mtx",
                "--b", f"{toeplitz_pair}_E.mtx", "-k", "10", "--method",
                "ldeim", "--khat", "2", "-p", "3", "--randomized", "--seed",
                "4", "--report", str(report)]) == 0
    (row,) = read_report(report)
    for name in ("p", "s_a", "s_b"):
        assert len(set(row[f"indices_{name}"].split(";"))) == 10, name
