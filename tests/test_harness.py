import os

import numpy as np
import pytest

from blockmpc import qp_solver, rti
from blockmpc.cli import main as cli_main
from blockmpc.harness import (
    ConfigError,
    SchemeConfig,
    bench_condensing,
    compare_schemes,
    config_echo,
    load_config,
    run_closed_loop,
    summary_text,
    timing_summary,
    write_outputs,
    _plant_step,
)
from blockmpc.integrator import IntegrationDivergedError
from blockmpc.model import PendulumParams, pendulum_rhs
from oracles import numpy_plant_step, seeded_pendulum_states

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CFG = os.path.join(ROOT, "configs", "pendulum.cfg")

BENCH_LENGTHS = (1, 2, 3, 4, 5, 5, 15, 15, 15, 15)
M42_INDICES = (list(range(25)) + [26, 28, 32, 35, 37, 40, 42, 44, 46, 48, 50,
                                  52, 55, 60, 65, 70, 75, 80])


def short_cfg(scheme="A", sim_time=1.25, **kw):
    return SchemeConfig(scheme=scheme, sim_time=sim_time, **kw).validate()


# --- config parsing -----------------------------------------------------------

def test_load_default_config_file():
    cfg = load_config(DEFAULT_CFG)
    assert cfg.scheme == "C"
    assert cfg.N == 80 and cfg.Ts == 0.025
    assert cfg.block_lengths == BENCH_LENGTHS
    echo = config_echo(cfg)
    assert any(line == "block_indices = 0,1,3,6,10,15,20,35,50,65,80" for line in echo)


def test_meta_version_comes_from_package():
    tomllib = pytest.importorskip("tomllib")
    import blockmpc
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "blockmpc.__version__"}
    line = config_echo(SchemeConfig())[-1]
    assert line == f"version = {pyproject['project']['name']} {blockmpc.__version__}"
    assert line == "version = blockmpc 0.1.0"


def test_block_indices_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scheme = C\nN = 80\nblock_indices = 0,1,3,6,10,15,20,35,50,65,80\n")
    cfg = load_config(str(p))
    assert cfg.block_lengths == BENCH_LENGTHS


def test_conflicting_indices_and_lengths(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scheme = C\nN = 80\nblock_lengths = 80\n"
                 "block_indices = 0,1,3,6,10,15,20,35,50,65,80\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_cli_rejects_repeated_key(tmp_path, capsys):
    # the last of the repeated lines used to win, and the run exited 0
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("sim_time = 0.25\nscheme = C\nsim_time = 0.5\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: line 3: key 'sim_time' repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the two spellings of one block partition are no repeat when they agree
    cfg_file.write_text("scheme = C\nblock_lengths = 1,2,3,4,5,5,15,15,15,15\n"
                        "block_indices = 0,1,3,6,10,15,20,35,50,65,80\n")
    assert load_config(str(cfg_file)).block_lengths == BENCH_LENGTHS


def test_lengths_must_sum_to_N(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scheme = C\nN = 80\nblock_lengths = 1,2,3,4,5,5,15,15,15,14\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_scheme_B_m42_grid(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scheme = B\nN = 80\ngrid_indices = "
                 + ",".join(str(i) for i in M42_INDICES) + "\n")
    cfg = load_config(str(p))
    assert len(cfg.grid_lengths) == 42
    assert sum(cfg.grid_lengths) == 80


def test_unknown_key_rejected_with_line_number(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scheme = A\nbogus_key = 7\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(p))


def test_bad_value_reports_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("Ts = fast\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(p))


@pytest.mark.parametrize("text, message", [
    ("N 80\n", "line 1: expected 'key = value'"),
    ("block_indices = 1, 3, 80\n", "line 1: cannot parse value for 'block_indices': "
                                   "index vector must start at 0"),
    ("block_indices = 0, 3, 2, 80\n", "line 1: cannot parse value for 'block_indices': "
                                      "index vector must be strictly increasing"),
], ids=["no-equals", "indices-not-from-0", "indices-not-increasing"])
def test_cli_rejects_malformed_line_and_bad_indices(tmp_path, capsys, text, message):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    SchemeConfig(x0=(0.0, 3.0, 0.0, 0.0)),
    SchemeConfig(scheme="B", Ts=0.05, N=40, block_lengths=(10, 10, 20), grid_lengths=(5, 5, 10, 20),
                 q_diag=(1.0, 2.0, 0.5, 0.25), r_diag=(0.5,), qn_diag=(3.0, 4.0, 0.2, 0.125),
                 m1=0.2, m2=1.5, l=0.6, g=9.8, x_lo=(-1.5, -10.0, -np.inf, -5.0),
                 x_hi=(1.5, 10.0, np.inf, 5.0), u_lo=(-15.0,), u_hi=(12.5,),
                 x0=(0.1, 3.0, -0.5, 0.25), sim_time=2.5, plant_substeps=5, qp_tol=1e-6,
                 qp_max_iter=50, seed=7),
], ids=["default", "every-field-changed"])
def test_config_echo_loads_back(tmp_path, cfg):
    echo = [line for line in config_echo(cfg.validate()) if not line.startswith("version")]
    p = tmp_path / "echo.cfg"
    p.write_text("\n".join(echo) + "\n")
    assert load_config(str(p)) == cfg


def test_scheme_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="D").validate()
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="C", block_lengths=(40, 39)).validate()
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="B", grid_lengths=(40, 39)).validate()
    assert SchemeConfig(scheme="B", grid_lengths=(40, 40)).validate()


# --- closed loop ----------------------------------------------------------------

def test_empty_run_metadata_only(tmp_path):
    log = run_closed_loop(short_cfg(sim_time=0.0))
    assert len(log) == 0
    write_outputs(log, str(tmp_path))
    for name in ("traj.csv", "kkt.csv", "timing.csv"):
        lines = (tmp_path / name).read_text().strip().splitlines()
        assert len(lines) == 1  # header only
    assert (tmp_path / "meta.txt").exists()


def test_row_count_matches_sim_time():
    log = run_closed_loop(short_cfg(sim_time=0.5))
    assert len(log) == 20
    assert log.t[0] == 0.0
    assert log.t[-1] == pytest.approx(19 * 0.025)


def test_scheme_A_equals_unit_block_C():
    log_a = run_closed_loop(short_cfg("A"))
    log_c = run_closed_loop(short_cfg("C", block_lengths=tuple([1] * 80)))
    assert len(log_a) == len(log_c) == 50
    xa = np.array(log_a.x)
    xc = np.array(log_c.x)
    ua = np.array(log_a.u)
    uc = np.array(log_c.u)
    assert np.abs(xa - xc).max() < 1e-9
    assert np.abs(ua - uc).max() < 1e-9
    ka = np.array([[r.stationarity, r.eq_residual, r.ineq_violation] for r in log_a.kkt])
    kc = np.array([[r.stationarity, r.eq_residual, r.ineq_violation] for r in log_c.kkt])
    assert np.abs(ka - kc).max() < 1e-9


def test_applied_input_matches_post_step_head():
    from blockmpc.harness import build_controller
    cfg = short_cfg("C", sim_time=0.25)
    ctrl = build_controller(cfg)
    x = np.array(cfg.x0)
    state = ctrl.initial_state(x)
    for _ in range(5):
        prep = ctrl.prepare(state, x)
        u, state = ctrl.feedback(state, prep, x)
        assert np.array_equal(u, state.traj.us[0])
        from blockmpc.harness import _plant_step
        from blockmpc.model import PendulumParams, pendulum_rhs
        params = PendulumParams()
        x = _plant_step(lambda xv, uv: pendulum_rhs(xv, uv, params), x, u,
                        cfg.Ts, cfg.plant_substeps)


def test_determinism_bit_identical_outputs(tmp_path):
    cfg = short_cfg("C", sim_time=1.0)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    write_outputs(run_closed_loop(cfg), str(d1))
    write_outputs(run_closed_loop(cfg), str(d2))
    for name in ("traj.csv", "kkt.csv"):
        assert (d1 / name).read_text() == (d2 / name).read_text()
    # timing.csv may differ in wall-clock columns, but structure matches
    t1 = (d1 / "timing.csv").read_text().splitlines()
    t2 = (d2 / "timing.csv").read_text().splitlines()
    assert len(t1) == len(t2) and t1[0] == t2[0]


def test_csv_round_trip_12_digits(tmp_path):
    cfg = short_cfg("A", sim_time=0.5)
    log = run_closed_loop(cfg)
    write_outputs(log, str(tmp_path))
    lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "x0", "x1", "x2", "x3", "u0"]
    for i, line in enumerate(lines[1:]):
        vals = [float(tok) for tok in line.split(",")]
        logged = [log.t[i]] + list(log.x[i]) + list(log.u[i])
        for got, want in zip(vals, logged):
            assert got == pytest.approx(want, rel=1e-11, abs=1e-300)


def test_timing_csv_sums_match_summary(tmp_path):
    cfg = short_cfg("A", sim_time=0.5)
    log = run_closed_loop(cfg)
    write_outputs(log, str(tmp_path))
    rows = [line.split(",") for line in
            (tmp_path / "timing.csv").read_text().strip().splitlines()[1:]]
    col_sum = {name: sum(float(r[i]) for r in rows)
               for i, name in enumerate(["step", "shooting_ms", "condensing_ms",
                                         "qp_ms", "total_ms", "qp_iters"])}
    summ = timing_summary(log)
    for phase, col in (("shooting", "shooting_ms"), ("condensing", "condensing_ms"),
                       ("qp", "qp_ms"), ("total", "total_ms")):
        assert col_sum[col] == pytest.approx(summ[phase]["sum"], rel=1e-9)
    text = "\n".join(summary_text(log))
    assert f"samples = {len(log)}" in text


def test_constraints_honored_in_short_run():
    log = run_closed_loop(short_cfg("C", sim_time=2.0))
    for x, u in zip(log.x, log.u):
        assert abs(x[0]) <= 2.0 + 1e-6
        assert abs(u[0]) <= 20.0 + 1e-6
    assert not any(log.flags)


@pytest.mark.parametrize("x0", [(-0.10503637338540753, 3.211915522797722, 0.0, 0.0),
                                (-0.14857191889232016, 3.1411593710538623, 0.0, 0.0)])
def test_short_track_cold_start_solves(x0):
    # On a +-0.5 m track these starts give a first QP whose violated rows are
    # nearly dependent; every sample must still solve without an abort.
    cfg = short_cfg("C", sim_time=0.1, x0=x0, x_lo=(-0.5, -np.inf, -np.inf, -np.inf),
                    x_hi=(0.5, np.inf, np.inf, np.inf))
    log = run_closed_loop(cfg)
    assert log.aborted is None and len(log) == 4
    assert log.qp_status == ["solved"] * 4


def test_scheme_A_swingup_solves_meet_kkt_and_restart_warm(monkeypatch):
    # The first samples of a scheme-A swing-up change their active set the
    # most and set the latency tail.  Every captured QP must meet its KKT
    # conditions and re-solve from its own working set in one iteration.
    seen = []

    def recording(qp, **kw):
        sol = qp_solver.solve_qp(qp, **kw)
        seen.append((qp, kw, sol))
        return sol

    monkeypatch.setattr(rti, "solve_qp", recording)
    log = run_closed_loop(short_cfg("A", sim_time=0.3))
    assert len(seen) == len(log) == 12 and max(s.iterations for _, _, s in seen) > 5
    for qp, kw, sol in seen:
        assert sol.status == "solved"
        rows = qp.Crows @ sol.z + qp.cvec
        scale = max(1.0, np.abs(qp.g).max())
        assert rows.max() < 1e-8 and np.all(sol.z <= qp.ub + 1e-8) and np.all(sol.z >= qp.lb - 1e-8)
        assert min(sol.lam_rows.min(), sol.lam_lb.min(), sol.lam_ub.min()) >= -1e-12
        assert np.abs(sol.lam_rows * rows).max(initial=0.0) < 1e-8 * scale
        stat = qp.H @ sol.z + qp.g + qp.Crows.T @ sol.lam_rows + sol.lam_ub - sol.lam_lb
        assert np.abs(stat).max() < 1e-9 * scale
        re = qp_solver.solve_qp(qp, warm=sol.ws, tol=kw["tol"])
        assert re.start == "warm" and re.iterations <= 1
        assert np.abs(re.z - sol.z).max() < 1e-12


# --- bench ---------------------------------------------------------------------

def test_bench_condensing_counts_and_scaling(tmp_path):
    rows = bench_condensing(nx=4, nu=1, M_fixed=5, N_list=[10, 20], reps=2, seed=1)
    assert [r["N"] for r in rows] == [10, 20]
    assert rows[1]["hhat_mults"] / rows[0]["hhat_mults"] == pytest.approx(2.0, abs=0.25)
    # naive pipeline grows ~quadratically
    ratio = rows[1]["naive_mults"] / rows[0]["naive_mults"]
    assert 3.0 <= ratio <= 5.0
    from blockmpc.harness import write_bench
    write_bench(rows, str(tmp_path))
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_bench_requires_divisible_N():
    with pytest.raises(ValueError):
        bench_condensing(nx=4, nu=1, M_fixed=10, N_list=[25], reps=1)


def test_bench_unit_blocks_counts_agree_within_constant():
    # with M = N both pipelines do the same O(N^2) work up to bookkeeping
    rows = bench_condensing(nx=4, nu=1, M_fixed=20, N_list=[20], reps=1, seed=2)
    ratio = rows[0]["naive_mults"] / rows[0]["tailored_mults"]
    assert 1.0 <= ratio <= 3.0


def test_bench_paper_point_count_ratio():
    # N = 80, M = 10: tailored/naive multiply ratio is of order M/N
    rows = bench_condensing(nx=4, nu=1, M_fixed=10, N_list=[80], reps=1, seed=3)
    ratio = rows[0]["tailored_mults"] / rows[0]["naive_mults"]
    assert 0.125 / 2.5 <= ratio <= 0.125 * 2.5


# --- compare and CLI --------------------------------------------------------------

def test_compare_writes_summary(tmp_path):
    cfg = short_cfg("A", sim_time=0.25)
    logs = compare_schemes(cfg, str(tmp_path))
    assert set(logs) == {"A", "B", "C"}
    for scheme in "ABC":
        assert (tmp_path / f"scheme_{scheme}" / "traj.csv").exists()
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_cli_simulate(tmp_path, capsys):
    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text("scheme = C\nsim_time = 0.25\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--scheme", "A",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "traj.csv").exists()
    out = capsys.readouterr().out
    assert "samples = 10" in out
    # scheme override recorded in the effective config echo
    meta = (tmp_path / "out" / "meta.txt").read_text()
    assert "scheme = A" in meta


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_linalg_error_aborts_run_with_exit_1(tmp_path, capsys, monkeypatch, command):
    # LinAlgError subclasses ValueError; it must abort the run, not read as a bad config (2)
    calls = []

    def failing(qp, **kw):
        calls.append(len(calls))
        if len(calls) > 3:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return qp_solver.solve_qp(qp, **kw)

    monkeypatch.setattr(rti, "solve_qp", failing)
    log = run_closed_loop(short_cfg("C", sim_time=0.25))
    assert len(log) == 3 and log.t == [0.0, 0.025, 0.05]
    assert log.aborted == "linear algebra failure: Matrix is not positive definite"
    (tmp_path / "short.cfg").write_text("sim_time = 0.25\n")
    calls.clear()
    rc = cli_main([command, "--config", str(tmp_path / "short.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 1
    out = capsys.readouterr()
    assert "aborted = linear algebra failure" in out.out and "samples = 3" in out.out
    prefix = "error: run aborted" if command == "simulate" else "error: scheme A run aborted"
    assert f"{prefix}: linear algebra failure: Matrix is not positive definite" in out.err


PLANT = lambda x, u: pendulum_rhs(x, u, PendulumParams())


def test_plant_step_matches_numpy_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for x in seeded_pendulum_states(22, 40):
        u = rng.uniform(-20.0, 20.0, size=1)
        assert np.array_equal(_plant_step(PLANT, x, u, 0.025, 10),
                              numpy_plant_step(PLANT, x, u, 0.025, 10)), \
            "math.sin/math.cos (libm) and np.sin/np.cos round differently on this machine"


def test_plant_divergence_raises_integration_error():
    # theta_dot = 1e160 overflows to inf, and math.sin(inf) raises ValueError
    x = np.array([0.0, np.pi, 0.0, 1e160])
    with pytest.raises(IntegrationDivergedError, match="plant state diverged"):
        _plant_step(PLANT, x, np.zeros(1), 0.025, 10)


def test_cli_diverging_initial_trajectory_exits_3(tmp_path, capsys):
    cfg_file = tmp_path / "diverge.cfg"
    cfg_file.write_text("x0 = 0, 3.14, 0, 1e160\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error: integration diverged at shooting node 0" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings on the way
def test_cli_trajectory_divergence_aborts_run_with_exit_1(tmp_path, capsys):
    # the start lies outside the tight cart bounds: every QP is infeasible, and the steps
    # applied regardless grow until the trajectory update overflows
    cfg_file = tmp_path / "diverge.cfg"
    cfg_file.write_text("x_lo = -0.05, -inf, -inf, -inf\nx_hi = 0.05, inf, inf, inf\n"
                        "x0 = 0.2, 3.14159265358979312, 0, 0\nsim_time = 1.0\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert len((tmp_path / "o" / "traj.csv").read_text().splitlines()) == 1 + 7
    assert "error: run aborted: trajectory update diverged" in capsys.readouterr().err


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("nonsense = 1\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["x0 =", "q_diag =", "u_lo = -20, -20", "x_lo = -2"])
def test_cli_rejects_vector_of_wrong_length(tmp_path, capsys, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scheme = C\n{line}\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and line.split()[0] in err


@pytest.mark.parametrize("line, rule", [pytest.param(line, rule, id=line) for line, rule in [
    ("sim_time = inf", "finite"), ("x0 = nan, 0, 0, 0", "finite"), ("m1 = nan", "finite"),
    ("qp_tol = nan", "finite"), ("Ts = nan", "finite"),
    ("m1 = -0.1", "positive"), ("l = 0", "positive"), ("r_diag = 0", "positive"),
    ("qp_tol = -1", "positive"), ("q_diag = -1, 10, 0.1, 0.1", "nonnegative"),
    ("qn_diag = 10, 10, -0.1, 0.1", "nonnegative"), ("qp_max_iter = -5", "nonnegative")]])
def test_cli_rejects_non_finite_value(tmp_path, capsys, line, rule):
    # each used to run on: an OverflowError, a "diverged" exit 3 or 1, or a message naming no key;
    # out-of-range values exited 2 naming no key, 1 as an aborted run, or ran on with defaults
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scheme = C\n{line}\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"line 2: {line.split()[0]} must be {rule}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["u_lo = 30", "u_lo = inf", "x_lo = 3, -inf, -inf, -inf"])
def test_cli_rejects_crossed_bounds(tmp_path, capsys, line):
    # each used to pass validate() and exit 2 with a message naming neither key nor line
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scheme = C\n{line}\n")
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    key = line.split()[0]
    assert f"line 2: {key} must not exceed {key[0]}_hi" in capsys.readouterr().err


def test_config_bounds_may_be_infinite_but_not_nan():
    assert SchemeConfig(u_hi=(np.inf,)).validate()
    with pytest.raises(ConfigError, match="u_hi must not be NaN"):
        SchemeConfig(u_hi=(np.nan,)).validate()


@pytest.mark.parametrize("field, value", [
    ("x0", (0.0,)), ("q_diag", ()), ("u_lo", (-20.0, -20.0)), ("x_lo", (-2.0,)),
])
def test_direct_config_rejects_vector_of_wrong_length(field, value):
    # SchemeConfig built in code, not read from a file: validate() checks the lengths
    with pytest.raises(ConfigError, match=field):
        run_closed_loop(SchemeConfig(sim_time=0.05, **{field: value}))


@pytest.mark.parametrize("text, line", [
    ("scheme = C\nblock_indices =\n", 2),
    ("scheme = C\nN = 80\nblock_lengths = 40.5, 40.4\n", 3),
    ("scheme = B\ngrid_lengths = 0, 80\n", 2),
], ids=["empty-indices", "fractional-lengths", "zero-length"])
def test_cli_rejects_bad_block_vector(tmp_path, capsys, text, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    rc = cli_main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"line {line}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_bench(tmp_path, capsys):
    rc = cli_main(["bench-condense", "--nx", "3", "--nu", "1", "--M", "5",
                   "--N", "10,20", "--reps", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["N=10", "N=20"]
    for line, row in zip(lines, rows[1:]):
        # the count criterion 2 gates, as bench.csv has it
        hhat = row.split(",")[header.index("hhat_mults")]
        assert line.split()[-1] == f"hhat_mults={hhat}"


@pytest.mark.parametrize("flag, value, message", [
    *(pytest.param(flag, "0", f"{flag[2:]} must be at least 1, got 0", id=flag)
      for flag in ("--nx", "--nu", "--M", "--reps", "--N")),
    pytest.param("--N", ",", "N must list at least one interval count", id="--N-empty")])
def test_cli_bench_rejects_argument_below_one(tmp_path, capsys, flag, value, message):
    # --M 0 used to end in a ZeroDivisionError traceback, --nx 0 in a 0-multiply report,
    # --N 0 in a message naming no N, and --N , in a bench.csv of only its header
    args = {"--nx": "3", "--nu": "1", "--M": "5", "--reps": "1", "--N": "10"}
    args[flag] = value
    rc = cli_main(["bench-condense", "--out", str(tmp_path)]
                  + [tok for item in args.items() for tok in item])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def test_cli_compare_validates_every_scheme_before_running(tmp_path, capsys):
    # scheme A used to run and write scheme_A/ before B's grid_lengths were rejected
    cfg_file = tmp_path / "n40.cfg"
    cfg_file.write_text("scheme = A\nN = 40\nsim_time = 0.25\n")
    rc = cli_main(["compare", "--config", str(cfg_file), "--out", str(tmp_path / "cmp")])
    assert rc == 2
    assert "error: grid_lengths sum to 80, expected N = 40" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_cli_compare(tmp_path):
    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text("sim_time = 0.25\n")
    rc = cli_main(["compare", "--config", str(cfg_file), "--out", str(tmp_path / "cmp")])
    assert rc == 0
    assert (tmp_path / "cmp" / "summary.csv").exists()
