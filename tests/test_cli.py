"""Command line scenarios, artifact contracts, and studies."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smflow import cli
from smflow import flow_direct as fd
from smflow import frame_reduction as fr
from smflow.spectral import SpectralGrid


def write_config(tmp_path, name="config.json", **sections):
    base = {
        "target": {"kind": "round_sphere"},
        "domain": {"kind": "circle", "n": 32},
        "init": {"kind": "perturbed_latitude", "alpha": np.pi / 4,
                 "eps": 0.05, "m": 2},
        "time": {"t_final": 0.003},
        "output": {"dir": "out"},
    }
    base.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=smflow.")
    head = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    cols = lines[head].split(",")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[head + 1:]])
    return cols, data


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SMFLOW_OUT", str(tmp_path))
    return tmp_path


class TestRunScenario:
    def test_artifacts_schema_and_summary(self, workdir):
        cfg = write_config(workdir, diagnostics={"cadence": 3,
                                                 "snapshot_cadence": 0,
                                                 "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = workdir / "out"
        for name in ("config.json", "timeseries.csv", "summary.json",
                     "holonomy.json", "snapshot_000000.csv"):
            assert (out / name).exists()
        cols, data = read_csv(out / "timeseries.csv")
        assert cols == list(cli.TIMESERIES_COLUMNS)
        assert np.all(np.diff(data[:, 0]) > 0)
        assert np.all(np.isfinite(data))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == cli.SCHEMA_SUMMARY
        assert summary["passed"] is True
        for key in ("nonfinite_count", "nonmonotone_time_count",
                    "cross_error_max", "twist_residual_max",
                    "untwisted_periodicity_max"):
            assert summary["invariants"][key]["passed"] is True
        hol = json.loads((out / "holonomy.json").read_text())
        assert hol["schema"] == cli.SCHEMA_HOLONOMY == "smflow.holonomy.v2"
        assert set(hol) == {"schema", "matrix", "theta_transport", "theta_ode",
                            "theta_gauss_bonnet"}
        mat = np.array([[re + 1j * im for re, im in row]
                        for row in hol["matrix"]])
        assert mat.shape == (1, 1)
        assert abs(abs(mat[0, 0]) - 1.0) < 1e-10

    def test_config_echo_can_be_rerun(self, workdir):
        cfg = write_config(workdir)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        echo = workdir / "out" / "config.json"
        reloaded = cli.load_config(str(echo))
        assert reloaded["domain"]["n"] == 32

    def test_seed_is_no_configuration_key(self, workdir, capsys):
        """No run reads a seed: --set seed is an unknown key, while a config
        echoed with the former seed leaf still runs."""
        assert cli.main(["run", "--set", "seed=1"]) == 2
        assert "unknown configuration key 'seed'" in capsys.readouterr().err
        cfg = json.loads(write_config(workdir).read_text())
        (workdir / "old.json").write_text(json.dumps({**cfg, "seed": 0}))
        assert cli.main(["run", "--config", str(workdir / "old.json")]) == 0
        assert "seed" not in json.loads((workdir / "out" / "config.json").read_text())

    def test_deterministic_byte_identical(self, workdir):
        coupled = write_config(workdir)
        # autonomous at cadence 1: every step's loop comes from the evolution
        autonomous = write_config(
            workdir, name="autonomous.json", reduction={"mode": "autonomous"},
            time={"t_final": 0.001},
            diagnostics={"cadence": 1, "snapshot_cadence": 1, "l4_window": 8})
        warped = write_config(
            workdir, name="warped.json", reduction={"mode": "autonomous"},
            target={"kind": "warped_sphere"}, time={"t_final": 0.001},
            diagnostics={"cadence": 1, "snapshot_cadence": 1, "l4_window": 8})
        for cfg in (coupled, autonomous, warped):
            a, b = (workdir / f"{cfg.stem}-{tag}" for tag in "ab")
            for run in (a, b):
                assert cli.main(["run", "--config", str(cfg),
                                 "--set", f"output.dir={run.name}"]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            assert {"timeseries.csv", "summary.json", "holonomy.json"} <= set(names)
            snaps = [name for name in names if name.startswith("snapshot_")]
            assert len(snaps) >= (2 if cfg is coupled else 4)
            for name in names:
                if name != "config.json":  # echoes output.dir
                    assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_numerical_failure_exits_3_with_summary(self, workdir, capsys):
        # the constant preset sits on the north pole, where the azimuthal
        # reference frame of the holonomy is singular
        cfg = write_config(workdir, init={"kind": "constant"})
        assert cli.main(["run", "--config", str(cfg)]) == 3
        assert "numerical or geometric failure" in capsys.readouterr().err
        summary = json.loads((workdir / "out" / "summary.json").read_text())
        assert summary["schema"] == cli.SCHEMA_SUMMARY
        assert summary["passed"] is False
        assert summary["error"]["type"] == "SingularChartError"
        assert "singular" in summary["error"]["message"]

    def test_autonomous_reconstructs_each_state_once(self, workdir,
                                                     monkeypatch):
        from smflow import frame_reduction as fr

        calls = []
        rebuild = fr.reconstruct_loop
        monkeypatch.setattr(fr, "reconstruct_loop",
                            lambda *a, **kw: calls.append(1) or rebuild(*a, **kw))
        # warped: two per step inside the evolution (start and predictor
        # states), plus one for the final state; round: K is one number, so
        # only the loops that rows read, those of states 1..3
        for target, expected in (("round_sphere", 3), ("warped_sphere", 7)):
            calls.clear()
            cfg = write_config(workdir, target={"kind": target},
                               reduction={"mode": "autonomous"},
                               time={"dt": 1e-5, "t_final": 3e-5},
                               diagnostics={"cadence": 1, "snapshot_cadence": 1,
                                            "l4_window": 8},
                               output={"dir": target})
            assert cli.main(["run", "--config", str(cfg)]) == 0
            summary = json.loads((workdir / target / "summary.json").read_text())
            assert summary["metrics"]["n_steps"] == 3
            assert len(list((workdir / target).glob("snapshot_*"))) == 4
            assert len(calls) == expected, target

    @pytest.mark.parametrize("target,expected,curvatures",
                             [("warped_sphere", 25, 11), ("round_sphere", 7, 0)],
                             ids=["warped_sphere", "round_sphere"])
    def test_autonomous_derivatives_per_run(self, workdir, monkeypatch,
                                            target, expected, curvatures):
        """A 3-step autonomous run with a row per step reads the energy,
        holonomy_ode and rate of each row from the loop state the
        evolution's snapshot rated (row 0: the initial loop, the final row:
        one fresh reconstruction), so u_x, K and K_x of a loop are taken
        once; the holonomy payload reads u_x from the final state too, and
        each snapshot takes Phi_x at the base node alone, without a full
        derivative of phi. Each row and the payload equal the public routes
        on the loop of its snapshot, to the bit; the payload's matrix is the
        closed form and the Magnus product integral to 1e-14."""
        from smflow import flow_direct as fd
        from smflow.geometry import WarpedSphere
        from smflow.holonomy import (connection_matrix_samples, diagonal_holonomy,
                                     holonomy_ode, holonomy_rate, product_integral)
        from smflow.spectral import SpectralGrid

        calls, k_calls = [], []
        derivatives = SpectralGrid.derivatives
        curvature = WarpedSphere.gaussian_curvature

        def counting(self, *args, **kwargs):
            calls.append(1)
            return derivatives(self, *args, **kwargs)

        def counting_k(self, *args):
            k_calls.append(1)
            return curvature(self, *args)

        monkeypatch.setattr(SpectralGrid, "derivatives", counting)
        monkeypatch.setattr(WarpedSphere, "gaussian_curvature", counting_k)
        cfg = write_config(workdir, target={"kind": target},
                           reduction={"mode": "autonomous"},
                           time={"dt": 1e-5, "t_final": 3e-5},
                           diagnostics={"cadence": 1, "snapshot_cadence": 1,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert (len(calls), len(k_calls)) == (expected, curvatures)
        surface, grid = cli._materialize(cli.load_config(str(cfg)))[:2]
        cols, data = read_csv(workdir / "out" / "timeseries.csv")
        assert data.shape[0] == 4
        for k, row in enumerate(data):
            _, snap = read_csv(workdir / "out" / f"snapshot_{k:06d}.csv")
            pts = snap[:, 1:1 + surface.point_dim]
            state = fd.LoopState(grid=grid, surface=surface, points=pts)
            theta = row[cols.index("theta_transport")]
            assert row[cols.index("energy")] == fd.energy(state)
            assert row[cols.index("theta_ode")] == cli.lift_to_branch(
                holonomy_ode(surface, grid, pts), theta)
            assert row[cols.index("theta_rate")] == holonomy_rate(surface, grid, pts)
        hol = json.loads((workdir / "out" / "holonomy.json").read_text())
        mat = np.array([[re + 1j * im for re, im in row] for row in hol["matrix"]])
        assert np.array_equal(mat, diagonal_holonomy(fd.LoopState(grid, surface, pts)))
        assert np.abs(mat - product_integral(
            connection_matrix_samples(surface, grid, pts), grid.period)).max() <= 1e-14

    @pytest.mark.parametrize("target", ["warped_sphere", "round_sphere"])
    def test_autonomous_run_rates_each_loop_once(self, workdir, monkeypatch, target):
        """A 3-step autonomous run takes the holonomy rate of every loop it
        rebuilds and of the initial loop that row 0 reads: on the warped
        sphere 8 times, twice per step in the evolution (the start and the
        predictor state) and once for the final reconstruction; on the round
        sphere, whose rate is 0 wherever no loop is rebuilt, 4 times (states
        1..3 and the initial loop). Each other row reuses its snapshot's rate."""
        from smflow import frame_reduction as fr
        from smflow import holonomy

        calls = []

        def counting(loop):
            calls.append(1)
            return holonomy._holonomy_rate(loop)

        for module in (fr, cli):
            if hasattr(module, "_holonomy_rate"):
                monkeypatch.setattr(module, "_holonomy_rate", counting)
        cfg = write_config(workdir, target={"kind": target},
                           reduction={"mode": "autonomous"},
                           time={"dt": 1e-5, "t_final": 3e-5},
                           diagnostics={"cadence": 1, "snapshot_cadence": 0,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(calls) == {"warped_sphere": 8, "round_sphere": 4}[target]

    @pytest.mark.parametrize("target,expected",
                             [("warped_sphere", 27), ("round_sphere", 19)],
                             ids=["warped_sphere", "round_sphere"])
    def test_coupled_derivatives_per_run(self, workdir, derivative_calls, target,
                                         expected):
        """A 3-step coupled run makes only the evolution's derivative
        calls: the holonomy payload reads u_x from the final state."""
        cfg = write_config(workdir, target={"kind": target},
                           time={"dt": 1e-5, "t_final": 3e-5},
                           diagnostics={"cadence": 1, "snapshot_cadence": 1,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(derivative_calls) == expected

    def test_coupled_run_computes_theta_ode_once_per_state(self, workdir,
                                                            monkeypatch):
        """The timeseries and the holonomy payload read holonomy_ode from
        the coupled result: one call per state, which also lifts the initial
        transport angle, and none in the command line layer. The coupled
        driver takes the angle through the private route that reuses the
        state's u_x."""
        from smflow import frame_reduction as fr
        from smflow.holonomy import holonomy_ode as ode

        calls = {"fr": 0}

        def counting(layer, route):
            def wrapped(*args):
                calls[layer] += 1
                return route(*args)
            return wrapped

        monkeypatch.setattr(fr, "_holonomy_ode", counting("fr", fr._holonomy_ode))
        assert not hasattr(cli, "_holonomy_ode")  # the command line has no route to call
        cfg = write_config(workdir, time={"dt": 1e-4, "t_final": 3e-4})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert calls == {"fr": 4}  # 3 steps, 4 states
        cols, data = read_csv(workdir / "out" / "timeseries.csv")
        surface, grid, loop, dt, n_steps = cli._materialize(cli.load_config(str(cfg)))
        res = fr.coupled_evolve(loop, dt, n_steps)
        final = ode(surface, grid, res.final_state.points)
        assert res.theta_ode[-1] == final
        theta_ode = data[-1, cols.index("theta_ode")]
        assert theta_ode == fr.lift_to_branch(final, res.theta[-1])
        hol = json.loads((workdir / "out" / "holonomy.json").read_text())
        assert hol["theta_ode"] == theta_ode
        # the payload's matrix is the closed form of the final state to the
        # bit, and the Magnus product integral to 1e-14
        from smflow import holonomy

        pts = res.final_state.points
        samples = holonomy.connection_matrix_samples(surface, grid, pts)
        mat = np.array([[re + 1j * im for re, im in row] for row in hol["matrix"]])
        assert np.array_equal(mat, holonomy.diagonal_holonomy(fd.LoopState(grid, surface, pts)))
        assert np.abs(mat - holonomy.product_integral(samples, grid.period)).max() <= 1e-14

    @pytest.mark.parametrize("target,mode", [
        ("round_sphere", "coupled"), ("round_sphere", "autonomous"),
        ("warped_sphere", "coupled"), ("warped_sphere", "autonomous"),
        ("hyperbolic_disk", "coupled"), ("flat_torus", "coupled")])
    def test_run_builds_no_magnus_cells(self, workdir, monkeypatch, target, mode):
        """A run on every target, in each mode it allows, completes with the
        Magnus cells refused: holonomy.json's matrix is the closed form of
        the final loop (the last snapshot's points), to the bit."""
        from smflow import holonomy

        def refuse(*args, **kwargs):
            raise AssertionError("a run built Magnus cells")

        monkeypatch.setattr(holonomy, "_magnus_cells", refuse)
        init = ({"kind": "perturbed_latitude", "alpha": 1.0, "eps": 0.05, "m": 2}
                if target.endswith("sphere") else {"kind": "fourier", "offset": [0.1, -0.05]})
        cfg = write_config(workdir, target={"kind": target}, init=init,
                           reduction={"mode": mode}, time={"dt": 1e-4, "t_final": 3e-4},
                           diagnostics={"cadence": 1, "snapshot_cadence": 0,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        surface, grid = cli._materialize(cli.load_config(str(cfg)))[:2]
        _, snap = read_csv(workdir / "out" / "snapshot_000003.csv")
        pts = snap[:, 1:1 + surface.point_dim]
        hol = json.loads((workdir / "out" / "holonomy.json").read_text())
        mat = np.array([[re + 1j * im for re, im in row] for row in hol["matrix"]])
        assert np.array_equal(mat, holonomy.diagonal_holonomy(fd.LoopState(grid, surface, pts)))

    @pytest.mark.parametrize("mode", ["coupled", "autonomous"])
    def test_phi_l4_recomputed_from_snapshots(self, workdir, mode):
        """phi_l4 = (D * period * mean |phi|^4)^(1/4) over a trailing window
        of l4_window fields, D the span of their times (1 when it is zero).
        The window runs over steps in both modes, whatever the cadence; every
        value is recomputed from the snapshots, written at every step, with
        rows at every second step."""
        cfg = write_config(workdir, reduction={"mode": mode},
                           time={"dt": 1e-5, "t_final": 9e-5},
                           diagnostics={"cadence": 2, "snapshot_cadence": 1,
                                        "l4_window": 2})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        grid = cli._materialize(cli.load_config(str(cfg)))[1]
        out = workdir / "out"
        snaps = []
        for k in range(10):
            path = out / f"snapshot_{k:06d}.csv"
            cols, data = read_csv(path)
            t = float(path.read_text().splitlines()[1].split("=")[1])
            snaps.append((t, data[:, cols.index("phi_re")]
                          + 1j * data[:, cols.index("phi_im")]))
        cols, data = read_csv(out / "timeseries.csv")
        rows = [0, 2, 4, 6, 8, 9]
        assert list(data[:, 0]) == [snaps[k][0] for k in rows]
        for i, k in enumerate(rows):
            window = [snaps[j] for j in ([k - 1, k] if k else [k])]
            duration = window[-1][0] - window[0][0]
            block = np.abs(np.array([phi for _, phi in window])) ** 4
            want = ((duration if duration > 0.0 else 1.0) * grid.period
                    * np.mean(block)) ** 0.25
            assert data[i, cols.index("phi_l4")] == want, (mode, k)

    @pytest.mark.parametrize("mode", ["coupled", "autonomous"])
    def test_cadence_chooses_only_the_written_rows(self, workdir, mode):
        """A cadence-3 run writes rows 0, 3, 6, 9 and 10 of the cadence-1
        run byte for byte, and the same summary, holonomy and snapshots: the
        swept angle, the L4 window and every invariant run over states."""
        cfg = write_config(
            workdir, reduction={"mode": mode}, target={"kind": "warped_sphere"},
            init={"kind": "perturbed_latitude", "alpha": 1.0, "eps": 0.1, "m": 3},
            time={"dt": 1e-4, "t_final": 1e-3},
            diagnostics={"cadence": 1, "snapshot_cadence": 0, "l4_window": 4})
        runs = {}
        for cadence in (1, 3):
            out = workdir / f"cadence{cadence}"
            assert cli.main(["run", "--config", str(cfg), "--set", f"output.dir={out.name}",
                             "--set", f"diagnostics.cadence={cadence}"]) == 0
            runs[cadence] = out
        every, sparse = ((runs[c] / "timeseries.csv").read_text().splitlines()
                         for c in (1, 3))
        head = every.index(",".join(cli.TIMESERIES_COLUMNS)) + 1
        assert len(every) == head + 11
        assert sparse == every[:head] + [every[head + k] for k in (0, 3, 6, 9, 10)]
        names = sorted(p.name for p in runs[1].iterdir())
        assert names == sorted(p.name for p in runs[3].iterdir())
        for name in set(names) - {"config.json", "timeseries.csv"}:
            assert (runs[1] / name).read_bytes() == (runs[3] / name).read_bytes(), name

    def test_invariant_broken_between_written_rows_fails_the_run(self, workdir,
                                                                monkeypatch, capsys):
        """An energy spike at state 3 of a run that writes every second row
        reaches energy_drift_rel, and the run exits 1."""
        energy = fd.energy
        monkeypatch.setattr(fd, "energy", lambda state: energy(state) * (
            2.0 if abs(state.time - 3e-4) < 5e-5 else 1.0))
        cfg = write_config(workdir, time={"dt": 1e-4, "t_final": 6e-4},
                           diagnostics={"cadence": 2, "snapshot_cadence": 0,
                                        "l4_window": 4})
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "[FAIL] energy_drift_rel" in capsys.readouterr().out
        summary = json.loads((workdir / "out" / "summary.json").read_text())
        assert summary["invariants"]["energy_drift_rel"]["value"] > 0.99
        _, data = read_csv(workdir / "out" / "timeseries.csv")
        assert list(data[:, 0]) == pytest.approx([0.0, 2e-4, 4e-4, 6e-4])
        assert np.abs(data[:, 1] / data[0, 1] - 1.0).max() < 1e-6

    @pytest.mark.parametrize("mode", ["coupled", "autonomous"])
    def test_nan_energy_between_written_rows_fails_the_run(self, workdir, monkeypatch,
                                                          capsys, mode):
        """A NaN energy at state 3 of a run that writes every second row is
        one nonfinite value and makes energy_drift_rel NaN, since the
        running maximum keeps a NaN as ndarray.max does; the run exits 1.
        Both modes' generators feed the one loop and fold."""
        from smflow import frame_reduction as fr

        for name in ("coupled_steps", "autonomous_steps"):
            def nan_energy_at_state_3(*args, steps=getattr(fr, name)):
                for k, *rest, step in steps(*args):
                    yield k, *rest, step._replace(energy=np.nan) if k == 3 else step

            monkeypatch.setattr(fr, name, nan_energy_at_state_3)
        cfg = write_config(workdir, reduction={"mode": mode},
                           time={"dt": 1e-4, "t_final": 6e-4},
                           diagnostics={"cadence": 2, "snapshot_cadence": 0,
                                        "l4_window": 4})
        assert cli.main(["run", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] nonfinite_count" in out and "[FAIL] energy_drift_rel" in out
        inv = json.loads((workdir / "out" / "summary.json").read_text())["invariants"]
        assert inv["nonfinite_count"]["value"] == 1
        assert np.isnan(inv["energy_drift_rel"]["value"])
        assert inv["a_norm_drift_rel"]["passed"]
        cols, data = read_csv(workdir / "out" / "timeseries.csv")
        assert list(data[:, 0]) == pytest.approx([0.0, 2e-4, 4e-4, 6e-4])
        if mode == "autonomous":  # an autonomous run has no cross error
            assert np.isnan(data[:, cols.index("cross_error")]).all()
            data = data[:, :cols.index("cross_error")]
        assert np.isfinite(data).all()

    @pytest.mark.parametrize("mode", ["coupled", "autonomous"])
    def test_failed_run_keeps_what_it_reached(self, workdir, monkeypatch, mode):
        """A run that raises BlowUpSuspectedError at state 3 exits 3 and
        leaves the timeseries rows of states 0-2, the snapshots it reached
        and a summary.json that holds the error."""
        from smflow.errors import BlowUpSuspectedError

        energy = fd.energy

        def blow_up_at_state_3(state):
            if abs(state.time - 3e-4) < 5e-5:
                raise BlowUpSuspectedError("guard", {"t": state.time})
            return energy(state)

        monkeypatch.setattr(fd, "energy", blow_up_at_state_3)
        cfg = write_config(workdir, reduction={"mode": mode},
                           time={"dt": 1e-4, "t_final": 6e-4},
                           diagnostics={"cadence": 1, "snapshot_cadence": 1,
                                        "l4_window": 4})
        assert cli.main(["run", "--config", str(cfg)]) == 3
        out = workdir / "out"
        _, data = read_csv(out / "timeseries.csv")
        assert list(data[:, 0]) == pytest.approx([0.0, 1e-4, 2e-4])
        assert sorted(p.name for p in out.glob("snapshot_*")) == [
            f"snapshot_{k:06d}.csv" for k in range(3)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["error"]["type"] == "BlowUpSuspectedError"
        assert not (out / "holonomy.json").exists()

    def test_non_finite_flow_step_exits_3(self, workdir, monkeypatch):
        """A flow velocity kernel that returns NaN trips the RK4 step's
        non-finite guard: the run exits 3 and summary.json names
        BlowUpSuspectedError."""
        from smflow import geometry as geo

        def nan_kernel(surface, grid):
            def kernel(u, out):
                out[...] = np.nan
                return out
            return kernel

        monkeypatch.setattr(geo.SurfaceModel, "velocity_kernel", nan_kernel)
        assert cli.main(["run", "--set", "domain.n=16", "--set", "time.t_final=1e-4"]) == 3
        summary = json.loads((workdir / "smflow-run" / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["error"]["type"] == "BlowUpSuspectedError"
        assert "non-finite values after time step" in summary["error"]["message"]

    @pytest.mark.parametrize("mode,n,short,long,snapshot_cadence,bound", [
        pytest.param("coupled", 128, 50, 400, 0, 16, id="coupled-128-50-400"),
        pytest.param("coupled", 128, 50, 400, 1, 16, id="coupled-128-50-400-snapshots"),
        pytest.param("autonomous", 32, 20, 120, 0, 1024, id="autonomous-32-20-120"),
        pytest.param("autonomous", 32, 20, 120, 1, 1024,
                     id="autonomous-32-20-120-snapshots")])
    def test_memory_does_not_grow_with_run_length(self, workdir, mode, n, short, long,
                                                  snapshot_cadence, bound):
        """The traced peak of a run, less what the trace still holds when
        the run returns, grows by less than the bound per step, also with a
        snapshot at every step: a run writes its rows as they come, folds the
        invariants, and holds at most SNAPSHOT_BATCH snapshots, so a coupled
        run keeps nothing per state (it kept 171 B per step, and 8 KB with
        every snapshot). Both lengths exceed the batch. An untraced run of
        the longer length first fills the caches and the interpreter's free
        lists. tracemalloc counts an object in a free list as allocated, and
        how many traced objects the free lists held moved the bare peak by
        up to 10 KB between identical runs (its growth read -1 to 38 B per
        step); what a run leaves traced moves with it, and the difference
        read 0.7 to 6.5 B per step. Memory a run keeps beyond itself, such as
        a module-level cache, is therefore not read here. The cyclic
        collector is off while tracing: a run makes no reference cycles per
        state, and when the collector ran moved the peak by several KB. The
        autonomous bound is wider: its short runs still read a warm-up
        transient of about 100 B per step (-0.7 B per step from 500 to 3,000
        steps), and tracing slows its per-cell reconstruction about 35
        times."""
        import gc
        import tracemalloc

        from smflow import flow_direct as fd
        from smflow import frame_reduction as fr
        from smflow.geometry import round_sphere
        from smflow.spectral import SpectralGrid

        assert short > cli.SNAPSHOT_BATCH

        def config(steps):
            return cli.load_config(None, [
                f"domain.n={n}", "time.dt=1e-5", f"time.t_final={steps * 1e-5!r}",
                f"reduction.mode={mode}", f"output.dir=run{steps}",
                f"diagnostics.snapshot_cadence={snapshot_cadence}"])

        def peak(steps):
            cfg = config(steps)
            gc.disable()
            tracemalloc.start()
            try:
                cli.run_scenario(cfg)
                left, top = tracemalloc.get_traced_memory()
                return top - left
            finally:
                tracemalloc.stop()
                gc.enable()

        cli.run_scenario(config(long))
        growth = (peak(long) - peak(short)) / (long - short)
        assert growth < bound, growth
        loop = fd.initial_loop(round_sphere(1.0), SpectralGrid(32), "latitude")
        res = fr.coupled_evolve(loop, fd.admissible_dt(loop), 4)
        arrays = [v for v in vars(res).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 12 and all(a.ndim == 1 for a in arrays)

    def test_t_zero_single_row_and_snapshot(self, workdir):
        cfg = write_config(workdir, time={"t_final": 0.0})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = workdir / "out"
        _, data = read_csv(out / "timeseries.csv")
        assert data.shape[0] == 1 and data[0, 0] == 0.0
        assert sorted(p.name for p in out.glob("snapshot_*")) == [
            "snapshot_000000.csv"]

    def test_great_circle_run_is_stationary(self, workdir):
        cfg = write_config(workdir, init={"kind": "great_circle"},
                           time={"t_final": 0.1},
                           diagnostics={"cadence": 64, "snapshot_cadence": 0,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((workdir / "out" / "summary.json").read_text())
        assert summary["metrics"]["cross_error_max"] <= 1e-6
        drift = abs(summary["metrics"]["energy_final"]
                    - summary["metrics"]["energy_initial"])
        assert drift / summary["metrics"]["energy_initial"] <= 1e-8

    def test_latitude_snapshot_matches_precession(self, workdir):
        alpha = np.pi / 4
        cfg = write_config(workdir, domain={"kind": "circle", "n": 64},
                           init={"kind": "latitude", "alpha": alpha},
                           time={"t_final": 0.01},
                           diagnostics={"cadence": 50, "snapshot_cadence": 0,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = workdir / "out"
        snaps = sorted(out.glob("snapshot_*"))
        cols, data = read_csv(snaps[-1])
        t = float(snaps[-1].read_text().splitlines()[1].split("=")[1])
        x = data[:, 0]
        omega = 4 * np.pi**2 * np.cos(alpha)
        phase = 2 * np.pi * x + omega * t
        exact = np.stack([np.sin(alpha) * np.cos(phase),
                          np.sin(alpha) * np.sin(phase),
                          np.full_like(x, np.cos(alpha))], axis=-1)
        assert np.abs(data[:, 1:4] - exact).max() <= 1e-5

    def test_autonomous_mode(self, workdir):
        cfg = write_config(workdir, reduction={"mode": "autonomous"},
                           time={"t_final": 0.002},
                           diagnostics={"cadence": 4, "snapshot_cadence": 0,
                                        "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((workdir / "out" / "summary.json").read_text())
        assert summary["passed"] is True
        assert "cross_error_max" not in summary["invariants"]
        cols, data = read_csv(workdir / "out" / "timeseries.csv")
        cross = data[:, cols.index("cross_error")]
        assert np.all(np.isnan(cross))
        assert np.all(np.isfinite(data[:, :8]))

    def test_line_domain_run(self, workdir):
        from smflow import frame_reduction as fr
        from smflow.spectral import SpectralGrid

        cfg = write_config(
            workdir,
            target={"kind": "hyperbolic_disk"},
            domain={"kind": "line", "n": 64, "half_width": 6.0},
            init={"kind": "fourier", "coeffs": [[2, 0.1, 0.0], [1, 0.0, 0.08]],
                  "offset": [0.1, 0.2], "envelope_sigma": 0.8},
            time={"t_final": 0.002},
            diagnostics={"cadence": 4, "snapshot_cadence": 0, "l4_window": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        cols, data = read_csv(workdir / "out" / "timeseries.csv")
        assert np.all(data[:, cols.index("theta_transport")] == 0.0)
        hol = json.loads((workdir / "out" / "holonomy.json").read_text())
        assert hol["matrix"] is None
        # the summary reads the threshold at which the edge guard fires, and
        # the cross error the line grid's own tolerance
        summary = json.loads((workdir / "out" / "summary.json").read_text())
        inv, metrics = summary["invariants"], summary["metrics"]
        assert inv["edge_decay_max"]["threshold"] == fr.EDGE_DECAY_MAX == 1e-6
        line = SpectralGrid(64, "line", 6.0)
        assert metrics["solver_tolerance"] == fr.solver_tolerance(line, metrics["dt"])
        assert inv["cross_error_max"]["threshold"] == 10.0 * metrics["solver_tolerance"]


def _rowwise_write_csv(path, schema, columns, rows, comments=()):
    """The reference writer: every value formatted on its own."""
    lines = [f"# schema={schema}"]
    lines.extend(comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cli._fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _rowwise_write_snapshot(path, t, grid, points, big_phi, small_phi):
    d = points.shape[1]
    columns = (["x"] + [f"u{j}" for j in range(d)]
               + ["Phi_re", "Phi_im", "phi_re", "phi_im", "Phi_abs"])
    rows = []
    for j in range(grid.n):
        row = [grid.nodes[j], *points[j],
               big_phi[j].real, big_phi[j].imag,
               small_phi[j].real, small_phi[j].imag, abs(big_phi[j])]
        rows.append(row)
    _rowwise_write_csv(path, cli.SCHEMA_SNAPSHOT, columns, rows,
                       comments=[f"# t={cli._fmt(t)}"])


class TestArtifactWriters:
    @pytest.mark.parametrize("target", ["round_sphere", "hyperbolic_disk"])
    def test_snapshot_matches_rowwise_writer(self, tmp_path, target):
        from smflow import flow_direct as fd
        from smflow.geometry import hyperbolic_disk, round_sphere
        from smflow.spectral import SpectralGrid

        grid = SpectralGrid(256)
        if target == "round_sphere":
            loop = fd.initial_loop(round_sphere(1.0), grid, "perturbed_latitude",
                                   alpha=np.pi / 3, eps=0.1, m=2)
        else:
            loop = fd.initial_loop(hyperbolic_disk(), grid, "fourier",
                                   coeffs=[[1, 0.1, 0.12], [2, 0.03, 0.03]])
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.uniform(-8, 3, size=(2, grid.n))
        big_phi = scale[0] * (rng.standard_normal(grid.n)
                              + 1j * rng.standard_normal(grid.n))
        small_phi = scale[1] * np.exp(1j * rng.uniform(0, 2 * np.pi, grid.n))
        t = 1.0 / 3.0
        cli._write_snapshot(tmp_path / "a.csv", t, grid, loop.points,
                            big_phi, small_phi)
        _rowwise_write_snapshot(tmp_path / "b.csv", t, grid, loop.points,
                                big_phi, small_phi)
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        assert len(text.splitlines()) == grid.n + 3
        assert text.splitlines()[2].count(",") == loop.points.shape[1] + 5

    def test_timeseries_with_nan_column_matches_rowwise_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = [[k * 1e-5, *(10.0 ** rng.uniform(-17, 4, size=7)), np.nan]
                for k in range(9)]
        rows[3][2] = -0.0
        cli._write_csv(tmp_path / "a.csv", cli.SCHEMA_TIMESERIES,
                       cli.TIMESERIES_COLUMNS, rows)
        _rowwise_write_csv(tmp_path / "b.csv", cli.SCHEMA_TIMESERIES,
                           cli.TIMESERIES_COLUMNS, rows)
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        assert all(line.endswith(",nan") for line in text.splitlines()[2:])


class TestConfigValidation:
    def test_all_violations_listed(self, workdir, capsys):
        cfg = write_config(workdir, target={"kind": "donut"},
                           domain={"kind": "strip", "n": 20},
                           time={"t_final": -1.0})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "target.kind" in err
        assert "domain.kind" in err
        assert "domain.n" in err
        assert "t_final" in err

    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_unreadable_config_path_is_a_config_error(self, workdir, capsys, command):
        """A --config path that exists but cannot be read as a file (here a
        directory) exits 2 with a config error, not an OSError traceback."""
        argv = [command, "--config", str(workdir)]
        if command == "converge":
            argv += ["--levels", "16,32,64"]
        assert cli.main(argv) == 2
        assert "config error: config file cannot be read" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["coupled", "autonomous"])
    def test_step_count_is_bounded(self, workdir, capsys, monkeypatch, mode):
        """MAX_STEPS steps run; one more is a time.t_final config error
        (exit 2), in the autonomous mode too, which keeps no per-step
        series and would otherwise run without end on t_final=1e300."""
        monkeypatch.setattr(cli, "MAX_STEPS", 3)
        argv = ["run", "--set", "domain.n=16", "--set", "time.dt=1e-4",
                "--set", f"reduction.mode={mode}"]
        assert cli.main([*argv, "--set", "time.t_final=3e-4"]) == 0
        assert cli.main([*argv, "--set", "time.t_final=4e-4"]) == 2
        assert ("config error: time.t_final=0.0004 asks for t_final / dt = 4 steps, "
                "more than MAX_STEPS = 3") in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ("domain=5", "domain must be an object"),
        ("init=7", "init must be an object"),
        ("target.warp=3", "target.warp must be an object"),
        ("target.kind.x=1", "target.kind must not be an object")])
    def test_set_cannot_change_a_section_into_a_value(self, workdir, capsys,
                                                      override, message):
        """An override goes through the config-file merge: a usage error
        (exit 2) that names the key, not an exception."""
        cfg = write_config(workdir)
        assert cli.main(["run", "--config", str(cfg), "--set", override]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["set", "file"])
    def test_unhashable_target_kind_is_a_config_error(self, workdir, capsys,
                                                      route):
        if route == "set":
            argv = ["--config", str(write_config(workdir)),
                    "--set", "target.kind=[1]"]
        else:
            argv = ["--config", str(write_config(workdir, target={"kind": [1]}))]
        assert cli.main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert "config error: target.kind must be one of" in err
        assert "got [1]" in err

    @pytest.mark.parametrize("route", ["set", "file"])
    @pytest.mark.parametrize("text, kind", [("[1]", [1]), ("cube", "cube")],
                             ids=["list", "name"])
    def test_unknown_target_kind_is_the_only_error(self, workdir, capsys,
                                                   route, text, kind):
        """The init presets depend on the target, so an unknown target
        skips their check instead of rejecting the valid sphere preset."""
        if route == "set":
            argv = ["--config", str(write_config(workdir)),
                    "--set", f"target.kind={text}"]
        else:
            argv = ["--config", str(write_config(workdir, target={"kind": kind}))]
        assert cli.main(["run", *argv]) == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("config error:")]
        assert len(errors) == 1
        assert errors[0].startswith("config error: target.kind must be one of")
        assert errors[0].endswith(f"got {kind!r}")

    @pytest.mark.parametrize("route", ["set", "file"])
    def test_misspelt_init_key_is_named(self, workdir, capsys, route):
        if route == "set":
            argv = ["--set", "init.alpah=0.3"]
        else:
            argv = ["--config", str(write_config(workdir, init={
                "kind": "latitude", "alpah": 0.3}))]
        assert cli.main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration key 'init.alpah'" in err

    @pytest.mark.parametrize("sets", [
        ["init.kind=constant"],
        ["init.kind=fourier", "init.colat_coeffs=[[2,0.1,0.0]]"],
        ["target.kind=hyperbolic_disk", "init.kind=fourier",
         "init.coeffs=[[1,0.1,0.1]]", "init.offset=[0.1,0.0]"],
        ["init.kind=perturbed_latitude", "init.alpha=0.8", "init.eps=0.05",
         "init.m=3"]])
    def test_every_preset_parameter_is_accepted(self, workdir, sets):
        """The default alpha rides into presets that ignore it."""
        cfg = cli.load_config(None, sets)  # raises on a rejected key
        assert "alpha" in cfg["init"]

    def test_init_keys_are_the_initial_loop_keywords(self):
        """The CLI accepts the keyword-only parameters of initial_loop, and
        initial_loop itself refuses any other keyword."""
        from smflow.geometry import round_sphere
        from smflow.spectral import SpectralGrid

        assert cli._INIT_PARAMS == ("point", "alpha", "eps", "m", "colat_coeffs",
                                    "azimuth_coeffs", "coeffs", "envelope_sigma",
                                    "offset")
        with pytest.raises(TypeError, match="alpah"):
            fd.initial_loop(round_sphere(), SpectralGrid(16), "latitude", alpah=0.3)

    @pytest.mark.parametrize("route", ["set", "file"])
    @pytest.mark.parametrize("items, key", [
        ({"time.t_final": np.nan}, "time.t_final"),
        ({"time.dt": np.nan}, "time.dt"),
        ({"init.alpha": np.nan}, "init.alpha"),
        ({"target.radius": np.nan}, "target.radius"),
        ({"time.t_final": np.inf}, "time.t_final"),
        ({"init.kind": "perturbed_latitude", "init.m": 2.5}, "init.m"),
        ({"init.kind": "constant", "init.point": [0, 0, 0]}, "point"),
        ({"init.alpha": "nan"}, "init.alpha"),
        ({"target.radius": True}, "target.radius"),
        ({"init.kind": "perturbed_latitude", "init.m": True}, "init.m"),
        ({"time.t_final": 1e308}, "time.t_final"),
        ({"target.kind": "warped_sphere", "target.warp.center": [0, 0, 0]},
         "target.warp.center"),
        ({"target.kind": "hyperbolic_disk", "init.kind": "fourier",
          "init.offset": [0.1]}, "init.offset"),
        ({"target.kind": "hyperbolic_disk", "init.kind": "constant",
          "init.point": [2, 0]}, "the constant initial loop leaves the target")],
        ids=["t_final-nan", "dt-nan", "alpha-nan", "radius-nan",
             "t_final-inf", "m-fraction", "point-zero", "alpha-string",
             "radius-bool", "m-bool", "t_final-overflowing-steps",
             "center-zero", "offset-short", "point-off-disk"])
    def test_unusable_number_is_a_config_error(self, workdir, capsys, route,
                                               items, key):
        """NaN and +-Infinity, strings and bools where a number is read, a
        fractional m, a point with no projection or off the disk and a step
        count past the float range: each exits 2 naming the key, with no
        traceback."""
        if route == "set":  # json.dumps writes nan and inf as NaN, Infinity
            argv = [arg for k, v in items.items()
                    for arg in ("--set", f"{k}={json.dumps(v)}")]
        else:
            user = {}
            for dotted, value in items.items():
                *path, leaf = dotted.split(".")
                section = user
                for part in path:
                    section = section.setdefault(part, {})
                section[leaf] = value
            cfg = workdir / "unusable.json"
            cfg.write_text(json.dumps(user))
            argv = ["--config", str(cfg)]
        assert cli.main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}" in err
        assert "Traceback" not in err

    def test_output_dir_stays_under_the_output_root(self, workdir, capsys,
                                                    monkeypatch):
        """output.dir is a relative path with no '..' part: an absolute path
        or one that climbs out of SMFLOW_OUT is refused and nothing is
        written."""
        root = workdir / "root"
        monkeypatch.setenv("SMFLOW_OUT", str(root))
        for bad in (str(workdir / "abs"), "../up", "a/../../up"):
            assert cli.main(["run", "--set", "time.t_final=0",
                             "--set", f"output.dir={bad}"]) == 2
            assert "config error: output.dir" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == []
        assert cli.main(["run", "--set", "time.t_final=0",
                         "--set", "output.dir=a/b"]) == 0
        assert (root / "a" / "b" / "summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--set", "time.t_final=0"],
        ["converge", "--set", "time.t_final=1e-4", "--levels", "16,32,64"],
        ["check", "holonomy"]], ids=["run", "converge", "check"])
    def test_output_root_naming_a_file_is_a_config_error(self, workdir, capsys,
                                                        monkeypatch, argv):
        """SMFLOW_OUT naming a regular file ends every command in one config
        error line and exit 2, before any work: no flow step, no coupled
        run and no check suite starts, and the file is left alone."""
        root = workdir / "plain_file"
        root.write_text("kept\n")
        monkeypatch.setenv("SMFLOW_OUT", str(root))

        def refuse(*args, **kwargs):
            raise AssertionError("work began before the output root was checked")

        for module, name in ((cli, "run_suite"), (cli.fd, "evolve"),
                             (cli.fr, "coupled_evolve"), (cli.fr, "coupled_steps")):
            monkeypatch.setattr(module, name, refuse)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output directory {root}")
        assert err.count("\n") == 1
        assert root.read_text() == "kept\n"

    def test_output_dir_naming_a_file_is_a_config_error(self, workdir, capsys):
        (workdir / "taken").write_text("")
        assert cli.main(["run", "--set", "time.t_final=0",
                         "--set", "output.dir=taken"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output directory {workdir / 'taken'}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["run", "--set", "time"],
                     "override 'time' is not of the form key=value", id="override-without-equals"),
        pytest.param(["run", "--config", "missing.json"],
                     "config file not found: missing.json", id="missing-file"),
        pytest.param(["run", "--config", "broken.json"],
                     "config file is not valid JSON: ", id="non-json-file"),
        pytest.param(["run", "--config", "list.json"],
                     "config file must contain a JSON object", id="non-object-file"),
        pytest.param(["run", "--set", "target.kind=hyperbolic_disk", "--set", "init.kind=latitude"],
                     "init.kind must be one of ('constant', 'fourier') for target "
                     "'hyperbolic_disk'; got 'latitude'", id="init-kind-of-another-target"),
        pytest.param(["run", "--set", "target.kind=flat_torus", "--set", "init.kind=fourier",
                      "--set", "reduction.mode=autonomous"],
                     "reduction.mode 'autonomous' requires an embedded sphere target on the "
                     "circle domain", id="autonomous-on-a-chart-target"),
        pytest.param(["run", "--set", "domain.kind=line", "--set", "reduction.mode=autonomous"],
                     "reduction.mode 'autonomous' requires an embedded sphere target on the "
                     "circle domain", id="autonomous-on-the-line"),
        pytest.param(["converge", "--set", "time.t_final=0", "--levels", "16,32,64"],
                     "time.t_final must be positive for a convergence study",
                     id="study-without-time"),
        pytest.param(["converge", "--levels", "16:1,32,64"],
                     "level n=16: time.dt=1.000000e+00 exceeds the stability limit",
                     id="study-level-refused"),
        pytest.param(["converge", "--set", "study.error=reference", "--levels", "16,64,32"],
                     "reference study needs every n to divide the finest (32); 64 does not",
                     id="reference-levels-not-dividing")])
    def test_refusal_exits_2_with_its_message(self, workdir, capsys, monkeypatch,
                                              argv, message):
        """Each refusal of a configuration, file or study before any work is
        a config error: exit 2, its message on stderr and nothing written."""
        monkeypatch.chdir(workdir)
        (workdir / "broken.json").write_text("{")
        (workdir / "list.json").write_text("[1, 2]")
        assert cli.main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["broken.json", "list.json"]

    def test_unwritable_output_directory_is_a_config_error(self, workdir, capsys,
                                                          monkeypatch):
        """An output directory that exists but may not be written exits 2
        before any work. The permission is refused through os.access, which
        grants root every mode bit."""
        locked = workdir / "locked"
        locked.mkdir()
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            False if Path(path) == locked else access(path, mode)))
        assert cli.main(["run", "--set", "output.dir=locked"]) == 2
        assert (capsys.readouterr().err
                == f"config error: output directory {locked} is not writable\n")
        assert not any(locked.iterdir())

    def test_unknown_key_rejected(self, workdir, capsys):
        cfg = write_config(workdir, truncation={"order": 4})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "truncation" in capsys.readouterr().err

    def test_stability_bound_enforced(self, workdir, capsys):
        cfg = write_config(workdir, time={"t_final": 0.001, "dt": 1.0})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "stability limit" in capsys.readouterr().err

    def test_set_override_types(self, workdir):
        cfg = write_config(workdir)
        parsed = cli.load_config(str(cfg), ["domain.n=128",
                                            "init.eps=0.01",
                                            "init.kind=latitude"])
        assert parsed["domain"]["n"] == 128
        assert parsed["init"]["eps"] == 0.01
        assert parsed["init"]["kind"] == "latitude"

    def test_parser_is_built_once_and_overrides_do_not_leak(self, workdir,
                                                             monkeypatch):
        cfg = write_config(workdir, time={"t_final": 0.0})
        monkeypatch.setattr(cli, "build_parser", None)  # main must not rebuild
        assert cli.main(["run", "--config", str(cfg), "--set", "output.dir=a",
                         "--set", "domain.n=64"]) == 0
        assert cli.main(["run", "--config", str(cfg), "--set", "output.dir=b"]) == 0
        assert cli.main(["run", "--config", str(cfg)]) == 0
        for name, n in (("a", 64), ("b", 32), ("out", 32)):
            echo = json.loads((workdir / name / "config.json").read_text())
            assert echo["domain"]["n"] == n
            assert echo["output"]["dir"] == name

    def test_float_formatting_round_trips(self):
        for v in (1 / 3, 0.1, 2e-17, 123456.789012345, np.pi):
            assert float(cli._fmt(v)) == v


# --set texts for every leaf of the configuration table: values that pass
# its row, and values that fail it whatever else is set. Passing values keep
# a run to at most four steps at domain.n <= 32.
_SET_TEXTS = {
    "target.kind": (("round_sphere", "warped_sphere", "hyperbolic_disk",
                     "flat_torus"), ("cube", "[1]")),
    "target.radius": (("0.5", "2"), ("0", "-1", "nan")),
    "target.warp.amplitude": (("-0.2", "0.3"), ('"x"', "nan")),
    "target.warp.width": (("0.3", "1"), ("0",)),
    "target.warp.center": (("[0,1,1]", "[1,0,0]"),
                           ("[0,0,0]", "[0,1]", '["a",0,1]', "[0,NaN,1]")),
    "domain.kind": (("circle", "line"), ("strip",)),
    "domain.n": (("16", "32"), ("20", "8", "16.0")),
    "domain.half_width": (("4", "8.0"), ("0",)),
    "init.kind": (("constant", "great_circle", "latitude", "perturbed_latitude",
                   "fourier"), ("spiral",)),
    "init.point": (("[0,0.6,0.8]", "[0.2,-0.1]", "[0,0,0]"), ('"x"', '[1,"a"]')),
    "init.alpha": (("0.8", "-1"), ('"x"', "nan")),
    "init.eps": (("0.05", "0"), ('"a"', "nan")),
    "init.m": (("2", "-3"), ("2.5",)),
    "init.colat_coeffs": (("[[2,0.1,0.0]]", "[]"),
                          ("[[1,2]]", "5", "[[1.5,0.1,0]]")),
    "init.azimuth_coeffs": (("[[1,0.05,0.0]]",), ('[[1,0.1,"b"]]',)),
    "init.coeffs": (("[[1,0.1,0.1]]", "[[2,0.1,0.0],[1,0.0,0.08]]",
                     "[[1,0.9,0.9]]"), ('[[1,"a",0]]',)),
    "init.envelope_sigma": (("0.8",), ('"w"', "0")),
    "init.offset": (("[0.1,0.2]",), ("[0.1]",)),
    "time.dt": (("0", "5e-5", "1.0"), ("-1",)),
    "time.t_final": (("0", "1e-4", "2e-4", "1e308"), ("-1",)),
    "reduction.mode": (("coupled", "autonomous"), ("both",)),
    "diagnostics.cadence": (("1", "2"), ("0",)),
    "diagnostics.snapshot_cadence": (("0", "1"), ("-1",)),
    "diagnostics.l4_window": (("1", "8"), ("0",)),
    "output.dir": (("run", "a/b"), ("../x", "a/../../x", '""')),
    "study.error": (("auto", "cross"), ("exact",)),
}
# fail every row: a bool, null, NaN, a literal past the float range, an object
_NOT_A_VALUE = ("true", "null", "NaN", "1e400", '{"a": 1}')


@st.composite
def _override_sets(draw):
    """(key, --set text, refused) items on distinct keys; refused marks a
    value that fails its row, drawn for about one item in four."""
    keys = draw(st.lists(st.sampled_from(sorted(_SET_TEXTS)), unique=True,
                         max_size=4))
    items = []
    for key in keys:
        passing, failing = _SET_TEXTS[key]
        refused = draw(st.integers(0, 3)) == 0
        texts = failing + _NOT_A_VALUE if refused else passing
        items.append((key, draw(st.sampled_from(texts)), refused))
    return items


def _refusing(*pairs):
    """Pinned items from (key, text) pairs: the last one must be refused."""
    return [(key, text, i == len(pairs) - 1) for i, (key, text) in enumerate(pairs)]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_override_sets())
@example(_refusing(("init.alpha", "nan")))
@example(_refusing(("init.alpha", '"x"')))
@example(_refusing(("init.alpha", "null")))
@example(_refusing(("init.kind", "perturbed_latitude"), ("init.eps", '"a"')))
@example(_refusing(("init.kind", "fourier"), ("init.colat_coeffs", "[[1,2]]")))
@example(_refusing(("init.kind", "fourier"), ("init.colat_coeffs", "5")))
@example(_refusing(("init.kind", "constant"), ("init.point", '"x"')))
@example(_refusing(("target.kind", "hyperbolic_disk"), ("init.kind", "fourier"),
                   ("init.coeffs", '[[1,"a",0]]')))
@example(_refusing(("target.kind", "hyperbolic_disk"), ("init.kind", "fourier"),
                   ("init.envelope_sigma", '"w"')))
@example(_refusing(("target.kind", "warped_sphere"),
                   ("target.warp.center", '["a",0,1]')))
@example(_refusing(("target.kind", "warped_sphere"),
                   ("target.warp.center", "[0,0,0]")))
@example(_refusing(("time.t_final", "1e400")))
@example(_refusing(("target.radius", "1e400")))
@example(_refusing(("init.alpha", "1e400")))
@example(_refusing(("time.t_final", "1e308")))
@example(_refusing(("time.t_final", "1e300")))
@example(_refusing(("reduction.mode", "autonomous"), ("time.t_final", "1e300")))
@example(_refusing(("time.dt", "1e-9"), ("time.t_final", "1")))
@example(_refusing(("diagnostics.cadence", "true")))
@example(_refusing(("target.radius", "true")))
@example(_refusing(("init.kind", "perturbed_latitude"), ("init.m", "true")))
@example(_refusing(("target.kind", "hyperbolic_disk"), ("init.kind", "fourier"),
                   ("init.offset", "[0.1]")))
@example(_refusing(("output.dir", "../x")))
def test_every_override_set_runs_or_is_refused(items):
    """Any set of --set overrides over the configuration table's keys, on top
    of a small run, either runs or is refused: the exit code is 0, 2 or 3,
    or 1 with a failed invariant in summary.json, and no exception escapes
    cli.main. A refused value exits 2 with a config error naming its key."""
    argv = ["run", "--set", "domain.n=16", "--set", "time.t_final=1e-4"]
    for key, text, _ in items:
        argv += ["--set", f"{key}={text}"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp) / "out"  # a climbing output.dir stays inside tmp
        mp.setenv("SMFLOW_OUT", str(root))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        refused = [key for key, _, bad in items if bad]
        if refused:
            assert code == 2, (code, err.getvalue())
            for key in refused:
                assert f"config error: {key}" in err.getvalue()
        elif code == 1:
            out_dir = dict((k, t) for k, t, _ in items).get("output.dir", "smflow-run")
            summary = json.loads((root / out_dir / "summary.json").read_text())
            assert not all(item["passed"] for item in summary["invariants"].values())
        else:
            assert code in (0, 2, 3), code


class TestConvergeCommand:
    def test_analytic_temporal_orders(self, workdir):
        cfg = write_config(workdir, domain={"kind": "circle", "n": 16},
                           init={"kind": "latitude", "alpha": np.pi / 4},
                           time={"t_final": 0.2},
                           output={"dir": "study"})
        levels = "16:7.8125e-4,16:3.90625e-4,16:1.953125e-4,16:9.765625e-5"
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", levels]) == 0
        cols, data = read_csv(workdir / "study" / "convergence.csv")
        orders = data[1:, cols.index("order")]
        assert np.all(orders >= 3.8)
        assert data[-1, cols.index("error")] < 1e-11

    def test_analytic_study_on_a_sphere_of_radius_two(self, workdir):
        """The latitude preset on a sphere of radius r precesses as r times
        the unit-sphere solution, at the same rate: the analytic study of a
        radius-2 run converges."""
        cfg = write_config(workdir, target={"kind": "round_sphere", "radius": 2.0},
                           domain={"kind": "circle", "n": 16},
                           init={"kind": "latitude", "alpha": np.pi / 4},
                           time={"t_final": 0.05}, study={"error": "analytic"},
                           output={"dir": "study"})
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", "16,32,64"]) == 0
        cols, data = read_csv(workdir / "study" / "convergence.csv")
        assert np.all(data[1:, cols.index("order")] >= 3.8)
        assert data[-1, cols.index("error")] < 1e-11

    def test_analytic_error_column_scales_with_the_radius(self, workdir):
        """The radius-2 latitude study is twice the unit one, points and
        closed form alike, so its analytic error column is twice the unit
        study's at every level. Scaling by a power of two is exact in binary
        floating point: the measured deviation is 0 at t_final 0.01, 0.05
        and 0.2, over spatial and temporal levels and at radius 0.5 too, so
        the column must be twice the other exactly."""
        columns = []
        for radius in (1.0, 2.0):
            assert cli.main(["converge", "--set", f"target.radius={radius}",
                             "--set", "init.kind=latitude", "--set", "time.t_final=0.05",
                             "--set", "study.error=analytic",
                             "--set", f"output.dir=r{radius}", "--levels", "16,32,64"]) == 0
            cols, data = read_csv(workdir / f"r{radius}" / "convergence.csv")
            columns.append(data[:, cols.index("error")])
        assert np.all(columns[0] > 0.0)
        assert np.array_equal(columns[1], 2.0 * columns[0])

    def test_auto_error_is_analytic_on_a_sphere_of_radius_two(self, workdir):
        assert cli.main(["converge", "--set", "target.radius=2",
                         "--set", "init.kind=latitude", "--set", "time.t_final=0.005",
                         "--set", "output.dir=study", "--levels", "16,32,64"]) == 0
        text = (workdir / "study" / "convergence.csv").read_text()
        assert "# error=analytic" in text.splitlines()

    @pytest.mark.parametrize("override", ["target.kind=warped_sphere",
                                          "domain.kind=line"])
    def test_analytic_study_needs_the_round_sphere_on_the_circle(
            self, workdir, capsys, override):
        assert cli.main(["converge", "--set", "study.error=analytic",
                         "--set", "time.t_final=0.01", "--set", override,
                         "--levels", "16,32,64"]) == 2
        assert ("config error: study.error 'analytic' requires the latitude preset "
                "on a round_sphere target") in capsys.readouterr().err

    def test_autonomous_study_runs_the_autonomous_route(self, workdir):
        """Each level runs the route of reduction.mode: on the warped sphere
        the autonomous reference errors are not the coupled ones, and each
        level's points are the final loop of fr.autonomous_steps."""
        errors = {}
        for mode in ("coupled", "autonomous"):
            assert cli.main(["converge", "--set", "target.kind=warped_sphere",
                             "--set", "study.error=reference", "--set", "time.t_final=0.002",
                             "--set", f"reduction.mode={mode}", "--set", f"output.dir={mode}",
                             "--levels", "16,32,64"]) == 0
            cols, data = read_csv(workdir / mode / "convergence.csv")
            errors[mode] = data[:, cols.index("error")]
        assert np.all(errors["autonomous"][:2] > 10.0 * errors["coupled"][:2])
        surface = cli._TARGETS["warped_sphere"](cli.load_config()["target"])
        finals = []
        for n, dt, n_steps in data[[0, 2]][:, [cols.index(c) for c in ("n", "dt", "n_steps")]]:
            loop = fd.initial_loop(surface, SpectralGrid(int(n)), "latitude", alpha=np.pi / 4)
            for _, final, *_ in fr.autonomous_steps(loop, dt, int(n_steps)):
                pass
            finals.append(final.points)
        assert errors["autonomous"][0] == np.abs(finals[0] - finals[1][::4]).max()

    def test_autonomous_study_has_no_cross_error(self, workdir, capsys):
        assert cli.main(["converge", "--set", "reduction.mode=autonomous",
                         "--set", "study.error=cross", "--levels", "16,32,64"]) == 2
        assert ("config error: study.error 'cross' requires reduction.mode 'coupled'"
                in capsys.readouterr().err)

    def test_cross_error_orders(self, workdir):
        cfg = write_config(workdir, time={"t_final": 0.003},
                           output={"dir": "study"})
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", "16,32,64"]) == 0
        cols, data = read_csv(workdir / "study" / "convergence.csv")
        assert np.all(data[1:, cols.index("order")] >= 1.8)

    def test_requires_three_levels(self, workdir, capsys):
        cfg = write_config(workdir)
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", "16,32"]) == 2
        assert "3 levels" in capsys.readouterr().err

    def test_nonmonotone_rejected(self, workdir, capsys):
        cfg = write_config(workdir)
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", "32,16,64"]) == 2
        assert "monotonically" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["16:nan,32,64", "16:-1e-4,32,64"])
    def test_level_dt_follows_the_time_dt_rule(self, workdir, capsys, levels):
        """A level's dt goes through the same table as time.dt."""
        cfg = write_config(workdir)
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", levels]) == 2
        assert "config error: level n=16: time.dt must be" in capsys.readouterr().err

    @pytest.mark.parametrize("levels,message", [
        ("16.0,32,64", "level n=16.0: domain.n must be a power of two >= 16; got 16.0"),
        ("x:1e-4,32,64", "level n=x: domain.n must be a power of two >= 16; got 'x'"),
        ("16:1e-4:2,32,64", "level n=16: time.dt must be a number >= 0")])
    def test_level_goes_through_the_configuration_table(self, workdir, capsys,
                                                        levels, message):
        """A level's N and dt are domain.n and time.dt overrides, refused by
        the table's rules under the level's prefix."""
        assert cli.main(["converge", "--levels", levels]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_identical_grids_zero_error_rows(self, workdir):
        cfg = write_config(workdir, study={"error": "reference"},
                           output={"dir": "study"})
        assert cli.main(["converge", "--config", str(cfg),
                         "--levels", "32,32,32"]) == 0
        cols, data = read_csv(workdir / "study" / "convergence.csv")
        assert np.all(data[:, cols.index("error")] == 0.0)


class TestCheckCommand:
    def test_json_report_written(self, workdir):
        assert cli.main(["check", "strichartz", "--seed", "3"]) == 0
        report = json.loads((workdir / "check_strichartz.json").read_text())
        assert report["schema"] == cli.SCHEMA_CHECKS
        assert report["passed"] is True
        assert report["seed"] == 3
        assert len(report["results"]) >= 4
        for item in report["results"]:
            assert item["value"] <= item["threshold"]

    def test_check_holonomy_passes(self, workdir):
        assert cli.main(["check", "holonomy"]) == 0
        report = json.loads((workdir / "check_holonomy.json").read_text())
        assert report["schema"] == cli.SCHEMA_CHECKS
        assert report["suite"] == "holonomy" and report["passed"] is True
        names = {item["name"] for item in report["results"]}
        assert {"matrix_unitarity", "matrix_base_independence"} <= names
        for item in report["results"]:
            assert item["passed"] is True
            assert item["value"] <= item["threshold"]

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "strichartz", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer; got -1" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "bogus"])
        assert exc.value.code == 2

    def test_run_suite_refuses_an_unknown_name(self):
        """The parser offers only known suites; run_suite itself refuses
        any other name with a config error listing them."""
        from smflow.checks import run_suite
        from smflow.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown check suite 'bogus'; expected one of"):
            run_suite("bogus")


def test_import_loads_no_scipy():
    """scipy is a test oracle only: importing the package, its command line
    and its check suites loads no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, smflow, smflow.cli, smflow.checks\n"
            "assert smflow.__file__.startswith(sys.argv[1]), smflow.__file__\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
