import copy
import dataclasses
import json
import os

import numpy as np
import pytest
from test_mdmesh import msh_quad_mesh, write_msh

from mdthm import cli
from mdthm.contact import ContactError
from mdthm.mdmesh import SubdomainGrid, build_lattice, split_cells
from mdthm.scenarios import drivers
from mdthm.scenarios.config import ConfigError, parse_config
from mdthm.scenarios.errors import compare_states, observed_orders
from mdthm.scenarios.output import (RunWriter, snapshot_fields, vtk_geometry, write_csv,
                                    write_vtk)
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
        fields = snapshot_fields(scn.assembler, scn.state.current, scn.state.prev_step)
        for sd in scn.mdg.subdomains:
            path = tmp_path / f"initial_{sd.id}.vtk"
            write_vtk(path, sd, fields[sd.id])
            written = os.path.join(out, "vtk", f"subdomain_{sd.id}_step_00000.vtk")
            with open(written, encoding="utf-8") as fh:
                assert fh.read() == path.read_text(encoding="utf-8")

    def test_snapshots_equal_write_vtk(self, tmp_path, monkeypatch):
        # observe writes the field table that it reads the jumps from; every
        # snapshot after a step must be the bytes that write_vtk gives for
        # the field table of its state
        checked = []

        class CheckedWriter(RunWriter):
            def observe(self, record, state):
                super().observe(record, state)
                fields = snapshot_fields(self.assembler, state.current, state.prev_step)
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
        assert len(checked) == len(result.scenario.mdg.subdomains) * len(result.records)

    def test_point_is_one_vertex_cell(self):
        assert vtk_geometry(SubdomainGrid(
            0, np.array([[0.5], [0.75]]), (np.array([0, 1]), np.array([0])),
            np.zeros((0, 0), dtype=int), np.zeros((2, 0), dtype=int))) == [
            "POINTS 1 double", "0.5 0.75 0.0", "CELLS 1 2", "1 0", "CELL_TYPES 1", "1"]

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


# signed zero, the smallest subnormal and normal, the largest float, a
# repeating fraction, a large integer and a plain one
EXTREMES = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     1 / 3, 1e16, 300.0])


class TestWriterRoundTrip:
    # compared as int64 bits, so that -0.0 must come back as -0.0
    def test_vtk_fields_read_back_bit_for_bit(self, tmp_path):
        sd = build_lattice("cartesian", EXTREMES.size, 1).matrix
        path = tmp_path / "extremes.vtk"
        write_vtk(path, sd, {"scalar": EXTREMES, "vector": np.vstack([EXTREMES, -EXTREMES])})
        assert np.array_equal(read_vtk_scalars(path, "scalar").view(np.int64),
                              EXTREMES.view(np.int64))
        lines = path.read_text(encoding="utf-8").splitlines()
        start = lines.index("VECTORS vector double") + 1
        vectors = np.array([[float(v) for v in line.split(" ")]
                            for line in lines[start:start + EXTREMES.size]])
        expected = np.column_stack([EXTREMES, -EXTREMES, np.zeros(EXTREMES.size)])
        assert np.array_equal(vectors.view(np.int64), expected.view(np.int64))

    def test_csv_column_reads_back_bit_for_bit(self, tmp_path):
        path = tmp_path / "extremes.csv"
        write_csv(path, "index,value", [np.arange(EXTREMES.size), EXTREMES])
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert header == "index,value"
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(EXTREMES.size)]
        values = np.array([float(row.split(",")[1]) for row in rows])
        assert np.array_equal(values.view(np.int64), EXTREMES.view(np.int64))


class TestContactOutput:
    def test_snapshots_hold_the_converged_contact_state(self, tiny_run):
        # snapshot k holds the contact state that Newton converged with in
        # step k: its slip counted from the state after step k - 1
        result, out = tiny_run
        scn = build_scenario(parse_config(tiny_raw()))
        states = [scn.state.current.copy()]
        for idx, phase in enumerate(scn.cfg.phases):
            time_loop(scn.assembler, scn.state, phase, scn.load_provider(idx), scn.newton,
                      scn.solver, observer=lambda rec, state: states.append(state.current.copy()))
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
        # the fracture cells next to the point, one per incident interface,
        # as (fracture id, cell of the fracture)
        tips, fractures = mdg.mortars[1], mdg.grids[1]
        branches = [(sd_id, c - start)
                    for c in tips.hi[tips.lo == mdg.grids[0].cell_start[point.id]].tolist()
                    for sd_id, start in fractures.cell_start.items()
                    if 0 <= c - start < mdg.subdomains[sd_id].num_cells]
        assert len(branches) == 4

        def aperture(sd_id, k):
            path = tmp_path / "vtk" / f"subdomain_{sd_id}_step_{k:05d}.vtk"
            return read_vtk_scalars(path, "aperture")

        for k in range(len(result.records) + 1):
            expected = np.mean([aperture(sd_id, k)[cell] for sd_id, cell in branches])
            assert aperture(point.id, k) == pytest.approx([expected], rel=1e-15), k


class TestFixedContactSetStall:
    # Two-way dilation stalls with a fixed contact set (open/stick/glide
    # 0/1/5 on every late iterate): the scaled increment stays at 0.177 up
    # to the iteration cap, while zero- and one-way dilation converge in 9
    # iterations. ROADMAP item 1's safeguard is to make model 2 converge.
    @pytest.mark.parametrize("model", [0, 1, pytest.param(2, marks=pytest.mark.xfail(
        strict=True, raises=NonConvergence,
        reason="ROADMAP item 1: semismooth Newton stalls with a fixed contact set"))])
    def test_compression_converges(self, model):
        raw = tiny_raw()
        raw["mesh"]["fractures"].append([[1.0, 0.25], [1.0, 0.75]])
        raw["phases"] = raw["phases"][:1]
        raw["dilation_model"] = model
        (record,) = drivers.run(parse_config(raw)).records
        assert record.newton.converged


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
            time_loop(scn.assembler, scn.state, phase, scn.load_provider(idx), scn.newton,
                      scn.solver)
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
        assert all("sd1:traction" in table for table in payload["errors"])
        assert len(payload["orders"]["sd1:traction"]) == 1

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
        ("phases[1].steady", lambda raw: raw["phases"][1].update(steady="no")),
        ("phases[1].sources", lambda raw: raw["phases"][1].update(sources=5)),
        # Python's json writes and reads NaN and Infinity
        pytest.param("initial.temperature",
                     lambda raw: raw["initial"].update(temperature=float("nan")),
                     id="initial.temperature-nan"),
        pytest.param("initial.temperature",
                     lambda raw: raw["initial"].update(temperature=float("inf")),
                     id="initial.temperature-inf"),
        pytest.param("initial.temperature",
                     lambda raw: raw["initial"].update(temperature=-float("inf")),
                     id="initial.temperature-minus-inf"),
        pytest.param("initial.temperature",
                     lambda raw: raw["initial"].update(temperature=10**400),
                     id="initial.temperature-overflow"),
        pytest.param("mesh.box", lambda raw: raw["mesh"].update(box=[[2, 1], [0, 0]]),
                     id="mesh.box-inverted"),
        pytest.param("mesh.box", lambda raw: raw["mesh"].update(box=[[0, 0], [2, 0]]),
                     id="mesh.box-flat"),
        # a JSON boolean is not an integer, though Python's bool is an int
        pytest.param("dilation_model", lambda raw: raw.update(dilation_model=True),
                     id="dilation_model-true"),
        pytest.param("mesh.nx", lambda raw: raw["mesh"].update(nx=True), id="mesh.nx-true"),
        pytest.param("mesh.ny", lambda raw: raw["mesh"].update(ny=False), id="mesh.ny-false"),
    ])
    def test_bad_number_named(self, tmp_path, capsys, path, spoil):
        raw = tiny_raw()
        spoil(raw)
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{path}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("path, spoil", [
        ("materials", lambda raw: raw.update(materials=5)),
        ("initial", lambda raw: raw.update(initial=5)),
        ("boundary_types", lambda raw: raw.update(boundary_types=5)),
        ("solver", lambda raw: raw.update(solver=5)),
        ("output", lambda raw: raw.update(output=5)),
        ("phases[1].mech", lambda raw: raw["phases"][1].update(mech=5)),
        ("phases[1].flow", lambda raw: raw["phases"][1].update(flow=5)),
        ("phases[1].heat", lambda raw: raw["phases"][1].update(heat=5)),
        ("phases[1].mech.top", lambda raw: raw["phases"][1]["mech"].update(top=5)),
        ("phases[1].sources[0]", lambda raw: raw["phases"][1].update(sources=[5])),
    ])
    def test_section_not_an_object_named(self, tmp_path, capsys, path, spoil):
        raw = tiny_raw()
        spoil(raw)
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{path}: must be an object, not 5" in capsys.readouterr().err


# two fractures crossing at the centre of a 4 x 4 quad mesh, off the boundary
GMSH_CROSSING = [("FRACTURE_A", [((1, 2), (2, 2)), ((2, 2), (3, 2))]),
                 ("FRACTURE_B", [((2, 1), (2, 2)), ((2, 2), (2, 3))])]
HORIZONTAL_LINE = [("FRACTURE_A", [((0, 1), (1, 1)), ((1, 1), (2, 1))])]


class TestGmshRun:
    @staticmethod
    def gmsh_raw(tmp_path, body):
        raw = tiny_raw()
        raw["mesh"] = {"kind": "gmsh", "path": str(write_msh(tmp_path, body))}
        return raw

    def test_crossing_fractures_run_to_the_end(self, tmp_path):
        raw = self.gmsh_raw(tmp_path, msh_quad_mesh(GMSH_CROSSING, n=4))
        mdg = build_scenario(parse_config(raw)).mdg
        assert [sd.dim for sd in mdg.subdomains] == [2, 1, 1, 0]
        assert mdg.grids[1].num_cells == 4 and mdg.mortars[1].size == 4
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
        with open(out / "summary.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["steps"]) == 5
        assert (out / "vtk" / "subdomain_3_step_00005.vtk").exists()

    @pytest.mark.parametrize("spoil, named", [
        (lambda body: body.replace(" 5 6 9 8\n", " 5 6 99 8\n"),
         "element line '6 3 2 10 10 5 6 99 8' names undeclared node 99"),
        (lambda body: body.replace("\n5 0.5 0.5 0\n", "\n5 0.5\n"),
         "node line '5 0.5' does not hold an id and x, y coordinates"),
        (lambda body: body.replace("\n1 1 2 11 11 4 5\n", "\n1 1 2 11 11 4\n"),
         "element line '1 1 2 11 11 4' has 1 nodes where type 1 has 2"),
        (lambda body: body.replace('\n1 11 "FRACTURE_A"\n', '\nx 11 "FRACTURE_A"\n'),
         "physical name line 'x 11 \"FRACTURE_A\"' does not start with a dimension and a tag"),
    ], ids=["undeclared-node", "short-node-line", "short-line-element", "bad-physical-name"])
    def test_malformed_mesh_is_a_configuration_error(self, tmp_path, capsys, spoil, named):
        body = msh_quad_mesh(HORIZONTAL_LINE)
        assert spoil(body) != body
        raw = self.gmsh_raw(tmp_path, spoil(body))
        code = cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"configuration error: {raw['mesh']['path']}: {named}\n")


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
        return [build_lattice("cartesian", 4 * 2**k, 4 * 2**k, [((0.25, 0.5), (0.75, 0.5))])
                for k in range(levels)]

    def test_constant_offset_gives_offset_over_scale(self):
        grids = self.nested(3)

        def fields(mdg, offset):
            n = mdg.matrix.num_cells
            return {0: {"pressure": np.full(n, 5.0 + offset),
                        "displacement": np.vstack([np.full(n, offset), np.zeros(n)]),
                        "aperture": np.full(n, offset)},
                    1: {"pressure": np.full(mdg.subdomains[1].num_cells, 5.0 + offset)}}

        for mdg in grids[:-1]:
            errs = compare_states(mdg, grids[-1], fields(mdg, 0.0), fields(grids[-1], 3.0),
                                  {"pressure": 2.0, "displacement": 6.0})
            # a field without a weight is not compared
            assert errs == pytest.approx({"sd0:pressure": 1.5, "sd0:displacement": 0.5,
                                          "sd1:pressure": 1.5}, rel=1e-12)

    def test_injected_linear_field_converges_at_first_order(self):
        # the error of an injected cellwise linear field, sqrt(H^2 - h^2) /
        # sqrt(12) per unit slope for coarse spacing H and reference
        # spacing h, halves with H
        grids = self.nested(5)

        def fields(mdg):
            return {sd.id: {"pressure": sd.cell_centers[0].copy()} for sd in mdg.subdomains}

        orders = observed_orders([compare_states(mdg, grids[-1], fields(mdg),
                                                 fields(grids[-1]), {"pressure": 1.0})
                                  for mdg in grids[:-1]])
        assert set(orders) == {"sd0:pressure", "sd1:pressure"}
        for seq in orders.values():
            assert len(seq) == 3
            assert all(abs(order - 1.0) < 0.2 for order in seq)
