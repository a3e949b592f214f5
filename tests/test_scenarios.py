import copy
import dataclasses
import json
import os

import numpy as np
import pytest

from mdthm import cli
from mdthm.contact import ContactError
from mdthm.mdmesh import build_cartesian_fractured, split_cells
from mdthm.scenarios import drivers
from mdthm.scenarios.config import ConfigError, parse_config
from mdthm.scenarios.errors import ErrorReport, compare_states
from mdthm.scenarios.output import RunWriter, snapshot_fields, write_vtk
from mdthm.constitutive import MaterialSet, fluid_density
from mdthm.scenarios.setup import build_scenario, hydrostatic_pressure, mech_values
from mdthm.system import NonConvergence, newton, time_loop, timeloop

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

    def test_snapshots_equal_write_vtk(self, tmp_path, monkeypatch):
        # the writer formats each subdomain's geometry once; every snapshot
        # must still be the bytes that write_vtk gives for its state
        checked = []

        class CheckedWriter(RunWriter):
            def write_snapshot(self, state, time):
                super().write_snapshot(state, time)
                fields = snapshot_fields(self.assembler, state)
                for sd in self.assembler.mdg.subdomains:
                    ref = tmp_path / "ref.vtk"
                    write_vtk(ref, sd, fields[sd.id])
                    name = f"subdomain_{sd.id}_step_{self.count:05d}.vtk"
                    with open(os.path.join(self.out_dir, "vtk", name), "rb") as fh:
                        assert fh.read() == ref.read_bytes(), name
                    checked.append(name)

        monkeypatch.setattr(drivers, "RunWriter", CheckedWriter)
        raw = tiny_raw()
        raw["mesh"]["fractures"].append([[0.75, 0.25], [1.25, 0.75]])
        result = drivers.run(parse_config(raw), out_dir=str(tmp_path / "run"))
        dims = {sd.dim for sd in result.scenario.mdg.subdomains}
        assert dims == {0, 1, 2}
        assert len(checked) == len(result.scenario.mdg.subdomains) * (len(result.records) + 1)

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


def read_vtk_scalars(path, name) -> np.ndarray:
    """One cell scalar field of a legacy ASCII VTK file written by write_vtk."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = int(next(line for line in lines if line.startswith("CELL_DATA")).split()[1])
    start = lines.index(f"SCALARS {name} double 1") + 2  # past LOOKUP_TABLE
    return np.array([float(v) for v in lines[start:start + n]])


class TestContactOutput:
    def test_snapshots_hold_the_converged_contact_state(self, tiny_run):
        # snapshot k holds the contact state that Newton converged with in
        # step k: its slip counted from the state after step k - 1
        result, out = tiny_run
        scn = build_scenario(parse_config(tiny_raw()))
        states = [scn.state.current.copy()]
        for idx, phase in enumerate(scn.cfg.phases):
            time_loop(scn.assembler, scn.state, phase, scn.load_provider(idx), scn.newton,
                      observer=lambda rec, state: states.append(state.current.copy()))
        assert np.array_equal(states[-1], result.scenario.state.current)
        asm = scn.assembler
        assert len(states) == len(result.records) + 1
        for k in range(1, len(states)):
            contact = asm.fracture_state(states[k], states[k - 1]).contact
            for sd in asm.fractures:
                path = os.path.join(out, "vtk", f"subdomain_{sd.id}_step_{k:05d}.vtk")
                written = read_vtk_scalars(path, "contact_state")
                assert np.array_equal(written, split_cells(asm.mdg.grids[1], contact)[sd.id]), \
                    (sd.id, k)

    def test_point_aperture_is_the_mean_of_its_branches(self, tmp_path):
        # a diagonal fracture crosses the horizontal one of tiny_raw at (1, 0.5)
        raw = tiny_raw()
        raw["mesh"]["fractures"].append([[0.75, 0.25], [1.25, 0.75]])
        raw["phases"] = raw["phases"][:2]
        result = drivers.run(parse_config(raw), out_dir=str(tmp_path))
        mdg = result.scenario.mdg
        (point,) = mdg.subdomains_of_dim(0)
        # the fracture cells next to the point, one per incident interface
        branches = [(i.high_id, int(mdg.subdomains[i.high_id].face_cells[0, i.high_faces[0]]))
                    for i in mdg.interfaces if i.low_id == point.id]
        assert len(branches) == 4

        def aperture(sd_id, k):
            path = tmp_path / "vtk" / f"subdomain_{sd_id}_step_{k:05d}.vtk"
            return read_vtk_scalars(path, "aperture")

        for k in range(len(result.records) + 1):
            expected = np.mean([aperture(sd_id, k)[cell] for sd_id, cell in branches])
            assert aperture(point.id, k) == pytest.approx([expected], rel=1e-15), k


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
        for idx, phase in enumerate(scn.cfg.phases):
            time_loop(scn.assembler, scn.state, phase, scn.load_provider(idx), scn.newton)
        assert np.array_equal(scn.state.current, result.scenario.state.current)


    def test_failure_names_the_run_clock(self, tiny_run, monkeypatch):
        # the second cooling step fails; the failure and the records kept
        # name the times that summary.json gives the steps around it
        _, out = tiny_run
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            times = [step["time_s"] for step in json.load(fh)["steps"]]
        solve, cooling = timeloop.newton_solve, []

        def failing(assembler, state, dt, *args, **kwargs):
            report = solve(assembler, state, dt, *args, **kwargs)
            if dt == 10.0:  # the cooling steps of tiny_raw
                cooling.append(dt)
                if len(cooling) == 2:
                    return dataclasses.replace(report, converged=False, failure="forced")
            return report

        monkeypatch.setattr(timeloop, "newton_solve", failing)
        with pytest.raises(NonConvergence) as err:
            drivers.run(parse_config(tiny_raw()))
        assert str(err.value) == (f"step from t={times[3]:.6g} to t={times[4]:.6g} "
                                  "(phase 'cooling') failed: forced")
        assert [rec.time for rec in err.value.history] == [times[3]]


class TestPhaseLoads:
    def test_ramp_starts_from_the_phase_before(self):
        # the third phase repeats the first verbatim; its ramp must start
        # from the second phase's boundary values, not from the first's
        raw = tiny_raw()
        first = raw["phases"][1]
        first["ramp"] = 6.25
        second = copy.deepcopy(first)
        second["mech"]["top"]["displacement"] = [6e-4, -3e-4]
        raw["phases"] = [first, second, copy.deepcopy(first)]
        scn = build_scenario(parse_config(raw))
        phases = scn.cfg.phases
        assert phases[2] == phases[0]
        expected = mech_values(scn, phases[1])
        assert not np.array_equal(expected, mech_values(scn, phases[0]))
        loads = scn.load_provider(2)(0.0, 0.0)
        assert np.array_equal(loads.bc_mech_prev, expected)
        assert np.array_equal(loads.bc_mech, expected)


class TestSources:
    AT = (0.9, 0.55)  # 0.05 above the fracture of tiny_raw

    def wells(self, subdomain=None, fractures=True):
        raw = tiny_raw()
        if not fractures:
            raw["mesh"]["fractures"] = []
        source = {"at": list(self.AT), "rate": 1e-6, "temperature": 300.0}
        if subdomain is not None:
            source["subdomain"] = subdomain
        raw["phases"][1]["sources"] = [source]
        scn = build_scenario(parse_config(raw))
        assert scn.well_cells[0] == {}
        return scn, scn.well_cells[1]

    @staticmethod
    def nearest(grid, at):
        return int(np.argmin(np.hypot(*(grid.cell_centers - np.array(at)[:, None]))))

    @pytest.mark.parametrize("subdomain, fractures, dim", [
        ("fracture", True, 1), ("matrix", True, 2), (None, True, 1), (None, False, 2)])
    def test_well_lands_in_nearest_cell_of_its_dimension(self, subdomain, fractures, dim):
        scn, wells = self.wells(subdomain, fractures)
        assert list(wells) == [dim]
        rates, t_inj = wells[dim]
        cell = self.nearest(scn.mdg.grids[dim], self.AT)
        assert np.flatnonzero(rates).tolist() == [cell]
        assert rates[cell] == 1e-6 and t_inj[cell] == 300.0

    @pytest.mark.parametrize("source, fractures, field", [
        ({"subdomain": "matrx"}, True, "subdomain"),
        ({"at": [50.0, -40.0], "subdomain": "matrix"}, True, "at"),
        ({"at": [2.5, 0.5]}, True, "at"),
        ({"subdomain": "fracture"}, False, "subdomain")],
        ids=["unknown-subdomain", "matrix-outside", "auto-outside", "no-fracture"])
    def test_bad_source_is_named(self, source, fractures, field):
        raw = tiny_raw()
        if not fractures:
            raw["mesh"]["fractures"] = []
        raw["phases"][1]["sources"] = [{"at": [0.2, 0.2], "rate": -1e-6},
                                       dict({"at": list(self.AT), "rate": -1e-6}, **source)]
        with pytest.raises(ConfigError, match=rf"^phases\[1\]\.sources\[1\]\.{field}: "):
            build_scenario(parse_config(raw))

    def test_injection_needs_a_temperature(self):
        raw = tiny_raw()
        raw["phases"][2]["sources"] = [{"at": [0.2, 0.2], "rate": -1e-6},
                                       {"at": list(self.AT), "rate": 1e-6}]
        with pytest.raises(ConfigError, match=r"phases\[2\]\.sources\[1\]\.temperature"):
            parse_config(raw)


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

    def test_damping_threshold_is_not_a_setting(self):
        for key in ("damping_threshold", "damping"):
            raw = tiny_raw()
            raw["solver"][key] = 0.1
            with pytest.raises(ConfigError, match=rf"^solver\.{key}: "):
                parse_config(raw)

    def test_stimulation_equilibration_runs(self, tmp_path):
        # the steady equilibration of the stimulation experiment: a
        # compressible fluid under gravity, at rest at 350 K
        with open(os.path.join(os.path.dirname(CONFIG), "stimulation_cooling.json"),
                  encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["phases"] = raw["phases"][:1]
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
        matrix_T = read_vtk_scalars(out / "vtk" / "subdomain_0_step_00001.vtk", "temperature")
        assert matrix_T.size > 0
        assert np.all((349.0 <= matrix_T) & (matrix_T <= 351.0))

    def test_penetration_at_a_converged_state_is_nonconvergence(self, tmp_path, capsys,
                                                               monkeypatch):
        # a converged state that violates nonpenetration fails its step: the
        # run exits 2 and names the step and the fracture
        def penetrated(assembler, x):
            raise ContactError(f"nonpositive aperture on fracture subdomain "
                               f"{assembler.fractures[0].id} at a converged state")

        monkeypatch.setattr(newton, "_check_apertures", penetrated)
        raw = tiny_raw()
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "steady phase 'compression'" in err
        assert "nonpositive aperture on fracture subdomain 1 " in err

    def test_block_enclosed_by_fractures_rejected(self, tmp_path, capsys):
        # a closed square of fractures cuts the matrix in two: the inner
        # block touches no mechanics Dirichlet face, and K would be singular
        raw = tiny_raw()
        corners = [[0.5, 0.25], [1.0, 0.25], [1.0, 0.75], [0.5, 0.75]]
        raw["mesh"]["fractures"] = [[a, b] for a, b in zip(corners, corners[1:] + corners[:1])]
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "a block of 8 matrix cells, one centred at (" in err
        x, y = map(float, err.split("centred at (")[1].split(")")[0].split(","))
        assert 0.5 < x < 1.0 and 0.25 < y < 0.75
        assert "needs every block of the matrix held by such a face" in err

    def test_unknown_solver_key_rejected(self, tmp_path, capsys):
        raw = tiny_raw()
        raw["solver"]["c_num"] = 1e10
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solver.c_num" in capsys.readouterr().err

    @pytest.mark.parametrize("path, spoil", [
        ("phases[1].dt", lambda raw: raw["phases"][1].update(dt="6.25s")),
        ("mesh.refinement", lambda raw: raw["mesh"].update(refinement="one")),
        ("mesh.refinement", lambda raw: raw["mesh"].update(refinement=1.5)),
        ("phases[1].sources[0].rate",
         lambda raw: raw["phases"][1].update(sources=[{"at": [1.0, 0.25], "rate": None}])),
        ("initial.temperature", lambda raw: raw["initial"].update(temperature="hot")),
        ("mesh.box[0][0]", lambda raw: raw["mesh"].update(box=[["a", 0], [2, 1]])),
        ("mesh.fractures[0][1]",
         lambda raw: raw["mesh"].update(fractures=[[[0.5, 0.5], "x"]])),
        ("mesh.fractures[0]", lambda raw: raw["mesh"].update(fractures=[[[0.5, 0.5]]])),
        ("phases[1].sources[0].at",
         lambda raw: raw["phases"][1].update(sources=[{"at": 5, "rate": 0.0}])),
        ("phases[1].mech.top.displacement",
         lambda raw: raw["phases"][1]["mech"]["top"].update(displacement=0.1)),
        ("phases[1].mech.left.stress",
         lambda raw: raw["phases"][1]["mech"]["left"].update(stress=[1.0, 0.0, 1.0])),
        ("materials.porosity", lambda raw: raw["materials"].update(porosity="0.1")),
        ("materials.gravity", lambda raw: raw["materials"].update(gravity=9.81)),
        ("materials.porosity_weights_solid",
         lambda raw: raw["materials"].update(porosity_weights_solid="yes")),
        ("phases[1].steady", lambda raw: raw["phases"][1].update(steady="no")),
    ])
    def test_bad_number_named(self, tmp_path, capsys, path, spoil):
        raw = tiny_raw()
        spoil(raw)
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{path}: must be" in capsys.readouterr().err


class TestHydrostaticPressure:
    @staticmethod
    def config(**materials):
        mat = MaterialSet(gravity=(0.0, -9.81), reference_pressure=1e5, **materials)
        return parse_config(dict(tiny_raw(), materials=dataclasses.asdict(mat)))

    def test_gradient_is_the_compressible_weight(self):
        cfg = self.config()
        mat = cfg.materials
        y = np.linspace(-3000.0, 500.0, 36)
        p = hydrostatic_pressure(cfg, y)
        # complex step: dp/dy to roundoff
        h = 1e-20
        dp_dy = hydrostatic_pressure(cfg, y + 1j * h).imag / h
        rho_g = fluid_density(p, mat.reference_temperature, mat) * mat.gravity[1]
        assert np.abs(dp_dy / rho_g - 1.0).max() < 1e-12
        assert hydrostatic_pressure(cfg, 0.0) == mat.reference_pressure

    def test_incompressible_limit_is_linear(self):
        y = np.linspace(-3000.0, 0.0, 7)
        gaps = []
        for k_f in (2.5e9, 2.5e11, 2.5e13):
            cfg = self.config(bulk_fluid=k_f)
            mat = cfg.materials
            linear = mat.reference_pressure + mat.density_fluid_ref * mat.gravity[1] * y
            gaps.append(np.abs(hydrostatic_pressure(cfg, y) - linear).max()
                        / np.abs(linear - mat.reference_pressure).max())
        # the relative gap is rho_ref |g_y y| / (2 K_f) to leading order
        assert np.allclose(gaps, [1e3 * 9.81 * 3000.0 / (2.0 * k) for k in (2.5e9, 2.5e11, 2.5e13)],
                           rtol=0.02)


class TestErrorNorms:
    """compare_states and observed_orders on nested Cartesian grids with one
    fracture; the finest grid is the reference."""

    @staticmethod
    def nested(levels):
        return [build_cartesian_fractured(4 * 2**k, 4 * 2**k, [((0.25, 0.5), (0.75, 0.5))])
                for k in range(levels)]

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
