import copy
import json
import os

import numpy as np
import pytest

from mdthm import cli
from mdthm.mdmesh import build_cartesian_fractured, refine
from mdthm.scenarios import drivers
from mdthm.scenarios.config import parse_config
from mdthm.scenarios.errors import ErrorReport, compare_states
from mdthm.scenarios.output import snapshot_fields, write_vtk
from mdthm.scenarios.setup import build_scenario
from mdthm.system import time_loop

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "fractured_convergence.json")


def tiny_raw(every=1):
    """One fracture on an 8x4 grid: steady compression, then two short
    transient phases of two steps each."""
    with open(CONFIG, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["mesh"].update(nx=8, ny=4, refinement=0, fractures=[[[0.5, 0.5], [1.5, 0.5]]])
    compression, pressurise, cooling = (copy.deepcopy(p) for p in raw["phases"])
    pressurise.update(duration=12.5, dt=6.25, dt_init=0.0)
    cooling.update(duration=20.0, dt=10.0, dt_init=0.0)
    raw["phases"] = [compression, pressurise, cooling]
    raw["output"] = {"every": every}
    return raw


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return drivers.run(parse_config(tiny_raw()), out_dir=str(out)), str(out)


class TestRunOutput:
    def test_initial_state_is_snapshot_zero(self, tiny_run, tmp_path):
        result, out = tiny_run
        scn = build_scenario(parse_config(tiny_raw()))
        fields = snapshot_fields(scn.assembler, scn.state)
        for sd in scn.mdg.subdomains:
            path = tmp_path / f"initial_{sd.id}.vtk"
            write_vtk(path, sd, fields[sd.id])
            written = os.path.join(out, "vtk", f"subdomain_{sd.id}_step_00000.vtk")
            with open(written, encoding="utf-8") as fh:
                assert fh.read() == path.read_text(encoding="utf-8")

    def test_one_snapshot_per_step_plus_initial(self, tiny_run):
        result, out = tiny_run
        names = os.listdir(os.path.join(out, "vtk"))
        n_sd = len(result.scenario.mdg.subdomains)
        assert len(result.records) == 5
        assert len(names) == n_sd * (len(result.records) + 1)

    def test_output_every_honoured(self, tmp_path):
        result = drivers.run(parse_config(tiny_raw(every=2)), out_dir=str(tmp_path))
        steps = sorted({name.split("_step_")[1] for name in os.listdir(tmp_path / "vtk")})
        assert len(result.records) == 5
        assert steps == ["00000.vtk", "00002.vtk", "00004.vtk"]


class TestAbsoluteTime:
    def test_time_never_decreases_across_phases(self, tiny_run):
        result, out = tiny_run
        times = [r.time for r in result.records]
        assert times == pytest.approx([0.0, 6.25, 12.5, 22.5, 32.5])
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = [step["time_s"] for step in json.load(fh)["steps"]]
        assert summary == times
        series = np.loadtxt(os.path.join(out, "timeseries.csv"), delimiter=",",
                            skiprows=1, usecols=0)
        assert np.all(np.diff(series) >= 0.0)

    def test_end_state_unchanged(self, tiny_run):
        # phase by phase with phase-relative clocks, as the loads see them
        result, _ = tiny_run
        scn = build_scenario(parse_config(tiny_raw()))
        for phase_cfg, phase_spec in zip(scn.cfg.phases, scn.phases):
            time_loop(scn.assembler, scn.state, [phase_spec],
                      scn.load_provider(phase_cfg), scn.loop_options)
        assert np.array_equal(scn.state.current, result.scenario.state.current)


class TestCommandLine:
    def test_dilation_comparison_writes_profiles(self, tmp_path):
        raw = tiny_raw()
        raw["phases"] = raw["phases"][:1]  # the steady compression only
        out = tmp_path / "out"
        assert cli.main(["dilation", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        tables = [np.loadtxt(out / f"dilation_model_{m}.csv", delimiter=",", skiprows=1,
                             ndmin=2) for m in (0, 1, 2)]
        for table in tables:
            assert table.shape == tables[0].shape and table.shape[0] > 0
            # fracture_id, x_m, jump_t_m, jump_n_m, aperture_m, state
            assert np.array_equal(table[:, :2], tables[0][:, :2])
            assert np.all(table[:, 4] > 0.0)
            assert set(table[:, 5]) <= {0.0, 1.0, 2.0}

    def test_convergence_study_writes_errors_and_orders(self, tmp_path):
        raw = tiny_raw()
        raw["mesh"].update(nx=4, ny=2)
        raw["phases"] = raw["phases"][:1]  # the steady compression only
        out = tmp_path / "out"
        assert cli.main(["converge", "--levels", "3", "--config",
                         write_config(tmp_path, raw), "--out", str(out)]) == 0
        with open(out / "convergence.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["levels"] == [0, 1]
        # the fracture's tractions are weighted too
        assert all("sd1:lam" in table for table in payload["errors"])
        assert len(payload["orders"]["sd1:lam"]) == 1

    def test_unknown_solver_key_rejected(self, tmp_path, capsys):
        raw = tiny_raw()
        raw["solver"]["c_num"] = 1e10
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solver.c_num" in capsys.readouterr().err


class TestErrorNorms:
    """compare_states and observed_orders on nested Cartesian grids with one
    fracture; the finest grid is the reference."""

    @staticmethod
    def nested(levels):
        base = build_cartesian_fractured(4, 4, [((0.25, 0.5), (0.75, 0.5))])
        return [base] + [refine(base, 2**k) for k in range(1, levels)]

    def test_constant_offset_gives_offset_over_scale(self):
        grids = self.nested(3)

        def fields(mdg, offset):
            n = mdg.matrix.num_cells
            return {(0, "p"): np.full(n, 5.0 + offset),
                    (0, "u"): np.vstack([np.full(n, offset), np.zeros(n)]),
                    (1, "p"): np.full(mdg.subdomains[1].num_cells, 5.0 + offset)}

        for mdg in grids[:-1]:
            errs = compare_states(mdg, grids[-1], fields(mdg, 0.0), fields(grids[-1], 3.0),
                                  {"p": 2.0, "u": 6.0})
            assert errs == pytest.approx({(0, "p"): 1.5, (0, "u"): 0.5, (1, "p"): 1.5},
                                         rel=1e-12)

    def test_injected_linear_field_converges_at_first_order(self):
        # the error of an injected cellwise linear field, sqrt(H^2 - h^2) /
        # sqrt(12) per unit slope for coarse spacing H and reference
        # spacing h, halves with H
        grids = self.nested(5)

        def fields(mdg):
            return {(idx, "p"): sd.cell_centers[0].copy()
                    for idx, sd in enumerate(mdg.subdomains)}

        report = ErrorReport()
        for level, mdg in enumerate(grids[:-1]):
            report.levels.append(level)
            report.errors.append(compare_states(mdg, grids[-1], fields(mdg),
                                                fields(grids[-1]), {"p": 1.0}))
        orders = report.observed_orders()
        assert set(orders) == {(0, "p"), (1, "p")}
        for seq in orders.values():
            assert len(seq) == 3
            assert all(abs(order - 1.0) < 0.2 for order in seq)
