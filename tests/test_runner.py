import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsplice.chain as chain
import spinsplice.runner as runner
from spinsplice.cli import main
from spinsplice.control import KINDS, polynomial_cut
from spinsplice.dynamics import MAX_TAYLOR_TERMS, integration_grid, taylor_plan
from spinsplice.optimize import best_of, bfgs_maximize
from spinsplice.process import ObjectiveSpec, build_objective, prepare_process
from spinsplice.reproduce import PIPELINES, reproduce
from spinsplice.runner import MODES, ConfigError, execute, parse_config, read_config

from oracles import centre_and_half_width, dense_hamiltonian


def evolve_config(tmp_path, **overrides):
    data = {
        "mode": "evolve",
        "chain": {"n_spins": 4, "topology": "ring", "exchange": 1.0, "field": 2.0},
        "process": "cut",
        "schedule": {"kind": "polynomial_cut", "T": 0.5, "params": [5.0, -3.0]},
        "n_steps": 40,
        "out_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return data


def occupied_block(psi0, images):
    """Orthonormal columns spanning the block a state occupies: its sector,
    split by the reflection ``images`` (site i goes to images[i - 1]) into
    (e_a +- e_Ra) / sqrt 2 and e_a, with the state's own parity."""
    n = len(images)
    mirror = [sum(1 << (n - images[i - 1]) for i in range(1, n + 1) if (s >> (n - i)) & 1) for s in range(psi0.size)]
    downs = np.array([bin(s).count("1") for s in range(psi0.size)])
    (k,) = set(downs[np.abs(psi0) > 0])
    (sign,) = {round(float((psi0[mirror[s]] / psi0[s]).real)) for s in np.flatnonzero(np.abs(psi0) > 0)}
    columns = []
    for a in np.flatnonzero(downs == k):
        if a < mirror[a] or (a == mirror[a] and sign == 1):
            column = np.zeros(psi0.size)
            column[a] += 1.0
            column[mirror[a]] += sign
            columns.append(column / np.linalg.norm(column))
    return np.stack(columns, axis=1)


def mode_config(mode, tmp_path, **overrides):
    """A valid N = 4 config for any mode, with small counts."""
    data = evolve_config(tmp_path, mode=mode, n_steps=12)
    data.update({
        "optimize": {"optimizer": {"max_iterations": 1, "multi_start": {"per_axis": 2}}},
        "sweep": {"sweep": {"times": [0.3, 0.5]}, "optimizer": {"max_iterations": 1}},
        "landscape": {"landscape": {"axes": [
            {"param_index": 0, "min": -2.0, "max": 2.0, "resolution": 2},
            {"param_index": 1, "min": -2.0, "max": 2.0, "resolution": 2},
        ]}, "optimizer": {"max_iterations": 1}},
        "noise": {"noise": {"strengths": [0.0, 0.5], "window": 0.1, "realizations": 2, "seed": 3}},
        "two_spin": {
            "chain": {"n_spins": 4, "topology": "open", "field": 2.1, "cut_bonds": [[2, 3]]},
            "schedule": {"kind": "pulse", "T": 0.6, "params": [-5.4, 4.1]},
        },
    }.get(mode, {}))
    data.update(overrides)
    return data


def separate_runs(config, duration, process):
    """One ``bfgs_maximize`` run per start of the config, at the duration,
    each on its own objective calls."""
    spec = ObjectiveSpec(chain=config.chain, kind=config.schedule.kind, duration=duration,
                         n_free_params=len(config.schedule.params), target=config.target,
                         n_steps=config.n_steps, direction=config.process)
    objective, _ = build_objective(spec, process)
    options = {k: v for k, v in config.optimizer.items() if k != "multi_start"}
    return [bfgs_maximize(objective, x0, **options) for x0 in runner._starts(config)]


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigValidation:
    def test_minimal_evolve_config(self, tmp_path):
        config = parse_config(evolve_config(tmp_path))
        assert config.mode == "evolve"
        assert config.target == "cut"
        assert config.n_steps == 40
        assert config.chain.cut_bonds == frozenset({(1, 2), (1, 4)})

    def test_a_field_the_mode_lacks_is_no_attribute(self, tmp_path):
        config = parse_config(evolve_config(tmp_path))
        assert getattr(config, "sweep", None) is None
        assert not hasattr(config, "sweep")

    def test_mode_required(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"chain": {"n_spins": 3}})

    def test_field_is_required(self, tmp_path, capsys):
        # no default field is safe: at field 0 the default one-site cut
        # detaches a block with a degenerate ground state
        data = mode_config("optimize", tmp_path, chain={"n_spins": 4}, schedule={"T": 0.5, "params": [1, 1]})
        assert main(["optimize", "--config", write_config(tmp_path / "config.json", data)]) == 2
        assert capsys.readouterr().err == "config error: chain.field: required\n"

    def test_small_chain_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="chain.n_spins"):
            parse_config(evolve_config(tmp_path, chain={"n_spins": 1}))

    def test_nonpositive_duration_rejected(self, tmp_path):
        bad = evolve_config(tmp_path)
        bad["schedule"]["T"] = 0.0
        with pytest.raises(ConfigError, match="schedule.T"):
            parse_config(bad)

    def test_duration_key_rejected(self, tmp_path):
        data = evolve_config(tmp_path)
        data["schedule"] = {"kind": "polynomial_cut", "duration": 0.5, "params": []}
        with pytest.raises(ConfigError, match="^schedule.duration: unknown config key$"):
            parse_config(data)

    def test_bad_steps_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(evolve_config(tmp_path, n_steps=0))

    def test_recorded_evolve_is_bounded(self, tmp_path):
        # samples (n_steps + 1) x 2^12 values: 12 207 x 4096 <= 5e7 < 12 208 x 4096
        ring12 = {"n_spins": 12, "topology": "ring", "field": 2.0}
        assert parse_config(evolve_config(tmp_path, chain=ring12, n_steps=12_206)).n_steps == 12_206
        with pytest.raises(ConfigError, match="^n_steps: a recorded evolve of 12208 samples"):
            parse_config(evolve_config(tmp_path, chain=ring12, n_steps=12_207))
        # a pulse train records one sample per pulse edge, whatever n_steps; small chains keep the step cap
        pulses = {"kind": "pulse", "T": 0.6, "params": [1.0] * 100}
        parse_config(evolve_config(tmp_path, chain=ring12, schedule=pulses, n_steps=100_000))
        parse_config(evolve_config(tmp_path, chain=dict(ring12, n_spins=8), n_steps=100_000))

    def test_empty_cut_set_rejected(self, tmp_path):
        bad = evolve_config(tmp_path)
        bad["chain"]["cut_bonds"] = []
        with pytest.raises(ConfigError, match="chain.cut_bonds"):
            parse_config(bad)

    def test_landscape_axis_out_of_range(self, tmp_path):
        data = evolve_config(tmp_path, mode="landscape")
        data["landscape"] = {
            "axes": [
                {"param_index": 0, "min": -1, "max": 1, "resolution": 3},
                {"param_index": 5, "min": -1, "max": 1, "resolution": 3},
            ]
        }
        with pytest.raises(ConfigError, match=r"landscape.axes\[1\].param_index"):
            parse_config(data)

    def test_landscape_axes_must_differ(self, tmp_path):
        data = evolve_config(tmp_path, mode="landscape")
        axis = {"param_index": 0, "min": -1, "max": 1, "resolution": 3}
        data["landscape"] = {"axes": [axis, dict(axis)]}
        with pytest.raises(ConfigError, match="different parameters"):
            parse_config(data)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(evolve_config(tmp_path, typo_field=1))

    def test_section_must_match_mode(self, tmp_path):
        data = evolve_config(tmp_path)
        data["noise"] = {"strengths": [0.1], "window": 0.1}
        with pytest.raises(ConfigError, match="noise: section not allowed"):
            parse_config(data)

    def test_schedule_direction_must_match_process(self, tmp_path):
        data = evolve_config(tmp_path, process="stitch")
        with pytest.raises(ConfigError, match="schedule.direction"):
            parse_config(data)

    @pytest.mark.parametrize("direction", [None, "cut", "stitch"])
    @pytest.mark.parametrize("process", ["cut", "stitch"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_schedule_direction_rule(self, tmp_path, kind, process, direction):
        """A pulse train drives the process's direction; every other kind
        drives its own.  A config direction must agree with both, and the
        echo always records the process's."""
        own = {"polynomial_cut": "cut", "sine_cut": "cut", "polynomial_stitch": "stitch", "pulse": None}[kind]
        schedule = {"kind": kind, "T": 0.5, "params": [5.0, -3.0]}
        if direction is not None:
            schedule["direction"] = direction
        data = evolve_config(tmp_path, process=process, schedule=schedule)
        drive = direction or own or process
        if own not in (None, drive):
            error = f"schedule: {kind} schedules have direction {own!r}, got {drive!r}"
        elif drive != process:
            error = f"schedule.direction: schedule is a {drive!r} drive but the process is {process!r}"
        else:
            config = parse_config(data)
            assert config.schedule.direction == config.data["schedule"]["direction"] == process
            return
        with pytest.raises(ConfigError) as caught:
            parse_config(data)
        assert str(caught.value) == error

    def test_sweep_times_validated(self, tmp_path):
        data = evolve_config(tmp_path, mode="sweep")
        data["sweep"] = {"times": []}
        with pytest.raises(ConfigError, match="sweep.times"):
            parse_config(data)
        data["sweep"] = {"times": [0.5, -1.0]}
        with pytest.raises(ConfigError, match="sweep.times"):
            parse_config(data)

    def test_noise_options_validated(self, tmp_path):
        data = evolve_config(tmp_path, mode="noise")
        data["noise"] = {"strengths": [0.5], "window": -0.1}
        with pytest.raises(ConfigError, match="noise.window"):
            parse_config(data)
        data["noise"] = {"strengths": [0.5], "window": 0.1, "realizations": 1}
        with pytest.raises(ConfigError, match="noise.realizations"):
            parse_config(data)

    def test_workers_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="^workers: unknown config key$"):
            parse_config(evolve_config(tmp_path, workers=1))

    @pytest.mark.parametrize("mode", MODES)
    def test_echo_round_trip(self, tmp_path, mode):
        config = parse_config(mode_config(mode, tmp_path))
        assert parse_config(config.data) == config

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(read_config(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(read_config(path))


class TestRunners:
    def test_evolve_outputs_and_determinism(self, tmp_path, capsys):
        first = parse_config(evolve_config(tmp_path, out_dir=str(tmp_path / "a")))
        second = parse_config(evolve_config(tmp_path, out_dir=str(tmp_path / "b")))
        execute(first)
        execute(second)
        out = capsys.readouterr().out
        assert "final f_C" in out
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["version"]
        assert "trajectory.csv" in manifest["outputs"]

    @pytest.mark.parametrize("mode", MODES)
    def test_manifest_reproduces_outputs(self, tmp_path, mode, capsys):
        config = parse_config(mode_config(mode, tmp_path, out_dir=str(tmp_path / "orig")))
        execute(config)
        manifest = json.loads((tmp_path / "orig" / "manifest.json").read_text())
        echoed = dict(manifest["config"])
        echoed["out_dir"] = str(tmp_path / "replay")
        execute(parse_config(echoed))
        replay = json.loads((tmp_path / "replay" / "manifest.json").read_text())
        assert manifest["outputs"] == replay["outputs"]
        # one output format in every mode
        cell = re.compile(r"^-?\d\.\d{15}e[+-]\d{2,3}$")
        for name in [*manifest["outputs"], "manifest.json"]:
            text = (tmp_path / "orig" / name).read_text()
            if name.endswith(".json"):
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
                continue
            header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("# ")]
            assert rows, name
            for row in rows:
                assert len(row) == len(header), (name, row)
                for column, value in zip(header, row):
                    assert column in ("status", "M") or cell.match(value), (name, column, value)

    def test_evolve_manifest_reports_health(self, tmp_path, monkeypatch):
        config = parse_config(evolve_config(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            execute(config)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        health = manifest["health"]
        assert set(health) == {"block_dims", "norm_error", "min_gap", "degenerate_samples",
                               "max_norm_dt", "taylor_matvecs", "value_blocks", "vector_blocks"}
        # the ground state of the 4-ring fills one parity half of its sector
        process = prepare_process(config.chain, config.process)
        assert health["block_dims"] == [occupied_block(process.psi0, (1, 4, 3, 2)).shape[1]]
        assert health["block_dims"][0] < max(math.comb(4, k) for k in range(5))
        assert 0.0 <= health["norm_error"] < 1e-12
        # the health echo leaves the trajectory bytes and their hash alone
        eigh, lowest_vectors = np.linalg.eigh, chain._lowest_vectors
        lone_solves, tie_eigh, solving = [], [], []

        def counted_lowest(stack, *args):  # one lone ground a matrix, by inverse iteration or eigh
            lone_solves.append(len(stack))
            solving.append(True)
            try:
                return lowest_vectors(stack, *args)
            finally:
                solving.pop()

        def counted_eigh(a, *args, **kwargs):  # each matrix of a stacked call counts
            if not solving:
                tie_eigh.extend([np.shape(a)[-2:]] * math.prod(np.shape(a)[:-2]))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(chain, "_lowest_vectors", counted_lowest)
        _, record = process.run(config.schedule, config.n_steps)
        monkeypatch.undo()
        expected = runner.write_csv(tmp_path / "expected.csv", runner.TRAJECTORY_COLUMNS, zip(
            record.times, record.g_values, record.f_c, record.f_g,
            record.purity_a, record.entropy_a, record.entropy_b, record.gap,
        ))
        csv_bytes = (out / "trajectory.csv").read_bytes()
        assert csv_bytes == expected.read_bytes()
        assert manifest["outputs"] == {"trajectory.csv": hashlib.sha256(csv_bytes).hexdigest()}
        assert health["min_gap"] == float(record.gap.min())
        assert health["degenerate_samples"] == int(record.degenerate_flags.sum())
        assert health["max_norm_dt"] == record.max_norm_dt
        assert health["taylor_matvecs"] == record.taylor_matvecs
        # every ground vector of the run is a recorder sample's: a lone
        # ground's block solved on its own, or an eigh of each block of a tie;
        # at least one per sample, at most every block of every sample
        samples, n_blocks = len(record.times), len(process.propagator.blocks)
        assert health["vector_blocks"] == record.vector_blocks == sum(lone_solves) + len(tie_eigh)
        assert tie_eigh and sum(lone_solves) == samples - health["degenerate_samples"]
        assert samples <= health["vector_blocks"] <= samples * n_blocks
        # the blocks whose energies the samples took: at least the ground block's
        assert health["value_blocks"] == record.value_blocks
        assert health["vector_blocks"] <= health["value_blocks"] <= samples * n_blocks

    @pytest.mark.parametrize("schedule", [
        {"kind": "polynomial_cut", "T": 0.5, "params": [5.0, -3.0]},
        {"kind": "pulse", "T": 0.5, "params": [0.3, -2.0, 1.5]},
    ])
    def test_evolve_health_counts_work(self, tmp_path, schedule):
        config = parse_config(evolve_config(tmp_path, schedule=schedule))
        with contextlib.redirect_stdout(io.StringIO()):
            execute(config)
        health = json.loads((tmp_path / "out" / "manifest.json").read_text())["health"]
        # the largest (r0 + |g| rv) dt over the steps, r0 and rv the spectral
        # half-widths of the dense operators restricted to the block of the
        # initial state: its sector's half of one parity under the reflection
        # through site 1
        basis = occupied_block(prepare_process(config.chain, config.process).psi0, (1, 4, 3, 2))
        assert health["block_dims"] == [basis.shape[1]]
        (_, r0), (_, rv) = (centre_and_half_width(basis.T @ op @ basis) for op in dense_hamiltonian(config.chain))
        grid = integration_grid(config.schedule, config.n_steps)
        g = config.schedule.values(0.5 * (grid[:-1] + grid[1:]))
        expected = float(np.max((r0 + np.abs(g) * rv) * np.diff(grid)))
        assert health["max_norm_dt"] == pytest.approx(expected, rel=1e-12)
        # every step within the term budget applies its Taylor plan, of either kind
        orders, substeps = taylor_plan((r0 + np.abs(g) * rv) * np.diff(grid))
        work = orders * substeps
        assert health["taylor_matvecs"] == work[work <= MAX_TAYLOR_TERMS].sum() > 0

    def test_optimize_writes_report(self, tmp_path, capsys):
        data = evolve_config(tmp_path, mode="optimize")
        data["schedule"]["params"] = [0.0, 0.0]
        data["optimizer"] = {"max_iterations": 4}
        execute(parse_config(data))
        report = json.loads((tmp_path / "out" / "optimization.json").read_text())
        assert report["final_value"] >= report["initial_value"] - 1e-12
        assert len(report["trace"]) == report["iterations"] + 1
        assert "optimized fidelity" in capsys.readouterr().out

    def test_sweep_schema(self, tmp_path, capsys):
        data = evolve_config(tmp_path, mode="sweep")
        data["sweep"] = {"times": [0.2, 0.4], "optimize": False}
        execute(parse_config(data))
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "T,f_baseline,f_opt,param_1,param_2,status"
        assert len(lines) == 3
        assert lines[1].endswith("baseline")

    def test_sweep_with_optimization_row(self, tmp_path):
        data = evolve_config(tmp_path, mode="sweep")
        data["sweep"] = {"times": [0.3]}
        data["optimizer"] = {"max_iterations": 2}
        result = execute(parse_config(data))
        (duration, baseline, optimized, params, status) = result["rows"][0]
        assert optimized >= baseline - 1e-9
        assert status in ("converged", "max_iterations", "stalled")
        assert len(params) == 2

    def test_sweep_starts_at_schedule_params(self, tmp_path, capsys):
        data = evolve_config(tmp_path, mode="sweep")
        data["sweep"] = {"times": [0.3, 0.5]}
        data["optimizer"] = {"max_iterations": 0}
        config = parse_config(data)
        result = execute(config)
        process = prepare_process(config.chain, "cut")
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        for (duration, _, f_opt, params, _), line in zip(result["rows"], lines):
            assert f_opt == process.fidelity(polynomial_cut(duration, (5.0, -3.0)), config.n_steps)
            assert params == (5.0, -3.0)
            assert line.split(",")[3:5] == [f"{5.0:.15e}", f"{-3.0:.15e}"]

    def test_sweep_runs_every_duration_and_start_in_lockstep(self, tmp_path):
        data = evolve_config(tmp_path, mode="sweep")
        data["sweep"] = {"times": [0.3, 0.5]}
        data["optimizer"] = {"max_iterations": 3, "multi_start": {"per_axis": 2}}
        config = parse_config(data)
        result = execute(config)
        process = prepare_process(config.chain, "cut")
        separate = []
        for duration, _, f_opt, params, status in result["rows"]:
            reports = separate_runs(config, duration, process)
            best = best_of(reports)
            assert status == best.status
            assert abs(f_opt - best.final_value) <= 1e-12
            assert np.abs(np.subtract(params, best.final_params)).max() <= 1e-6
            separate += reports
        # the sweep's rounds are those of its longest run, not their sum
        health = json.loads((tmp_path / "out" / "manifest.json").read_text())["health"]
        assert health == result["health"]
        assert health["rounds"] == max(r.rounds for r in separate)
        assert health["evaluations"] == sum(r.evaluations for r in separate)

    @pytest.mark.parametrize("mode", ["optimize", "landscape"])
    def test_optimize_and_landscape_report_health(self, tmp_path, mode):
        # one start: the manifest's health is the report's own work
        data = mode_config(mode, tmp_path, out_dir=str(tmp_path / "one"), optimizer={"max_iterations": 3})
        report = execute(parse_config(data))["report"]
        health = json.loads((tmp_path / "one" / "manifest.json").read_text())["health"]
        assert health == {"rounds": report.rounds, "evaluations": report.evaluations}
        assert health["rounds"] > 0
        # two starts per parameter: the best of separate runs, and all their work
        data["out_dir"] = str(tmp_path / "four")
        data["optimizer"]["multi_start"] = {"per_axis": 2}
        config = parse_config(data)
        result = execute(config)
        separate = separate_runs(config, config.schedule.duration, prepare_process(config.chain, "cut"))
        assert len(separate) == 4
        best, report = best_of(separate), result["report"]
        assert (report.status, report.iterations) == (best.status, best.iterations)
        assert abs(report.final_value - best.final_value) <= 1e-12
        assert np.abs(np.subtract(report.final_params, best.final_params)).max() <= 1e-6
        health = json.loads((tmp_path / "four" / "manifest.json").read_text())["health"]
        assert health == result["health"]
        assert health["rounds"] == max(r.rounds for r in separate)
        assert health["evaluations"] == sum(r.evaluations for r in separate)

    def test_zero_gradient_optimize_stops_after_one_round(self, tmp_path):
        # a gradient step too small to move the fidelity gives a zero
        # gradient, which meets tolerance 0: the start is the result
        data = mode_config("optimize", tmp_path, n_steps=8)
        data["schedule"]["params"] = [3.0, -2.0]
        data["optimizer"] = {"grad_step": 1e-300, "tolerance": 0.0, "max_iterations": 50}
        assert main(["optimize", "--config", write_config(tmp_path / "config.json", data)]) == 0
        health = json.loads((tmp_path / "out" / "manifest.json").read_text())["health"]
        assert health == {"rounds": 1, "evaluations": 5}
        report = json.loads((tmp_path / "out" / "optimization.json").read_text())
        assert (report["status"], report["iterations"], report["final_params"]) == ("converged", 0, [3.0, -2.0])

    def test_landscape_outputs(self, tmp_path):
        data = evolve_config(tmp_path, mode="landscape")
        data["schedule"]["params"] = [0.0, 0.0]
        data["landscape"] = {
            "axes": [
                {"param_index": 0, "min": -2.0, "max": 2.0, "resolution": 3},
                {"param_index": 1, "min": -2.0, "max": 2.0, "resolution": 3},
            ]
        }
        data["optimizer"] = {"max_iterations": 2}
        execute(parse_config(data))
        out = tmp_path / "out"
        lines = (out / "landscape.csv").read_text().splitlines()
        assert lines[3] == "p1,p2,fidelity"
        assert len(lines) == 4 + 9
        marker = json.loads((out / "optimum.json").read_text())
        assert set(marker) == {"optimum_params", "optimum_value", "status", "grid_max"}

    def test_noise_zero_strength_row_and_determinism(self, tmp_path):
        data = evolve_config(tmp_path, mode="noise")
        data["n_steps"] = 30
        data["noise"] = {"strengths": [0.0, 0.8], "window": 0.1,
                         "realizations": 4, "seed": 99}
        config = parse_config(data)
        result = execute(config)
        zero_row, noisy_row = result["rows"]
        from spinsplice.process import prepare_process

        process = prepare_process(config.chain, "cut")
        clean = process.fidelity(config.schedule, 30)
        assert zero_row["mean_fc"] == pytest.approx(clean, abs=1e-12)
        assert zero_row["std_fc"] == 0.0
        assert noisy_row["M"] == 4
        first_bytes = (tmp_path / "out" / "noise.csv").read_bytes()
        execute(config)
        assert (tmp_path / "out" / "noise.csv").read_bytes() == first_bytes
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        draws = manifest["seeds"]["realizations"]
        assert len(draws) == 2 * 4
        assert set(draws[0]) == {"seed", "dt", "dg"}

    def test_two_spin_defaults(self, tmp_path, capsys):
        config = parse_config({"mode": "two_spin", "out_dir": str(tmp_path / "ts"),
                               "n_steps": 60})
        result = execute(config)
        assert result["result"]["block_sites"] == [1, 2]
        assert 0.0 <= result["result"]["baseline_f_c"] <= 1.0
        assert 0.0 <= result["result"]["controlled_f_c"] <= 1.0
        assert (tmp_path / "ts" / "two_spin.json").is_file()


class TestCli:
    def test_evolve_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(evolve_config(tmp_path)))
        assert main(["evolve", "--config", str(path)]) == 0
        assert "final f_C" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        ring4 = {"n_spins": 4, "topology": "ring", "field": 2.0}
        noise = mode_config("noise", tmp_path)["noise"]
        bad = [
            ("chain.n_spins", evolve_config(tmp_path, chain={"n_spins": 1})),
            ("chain.exchange", evolve_config(tmp_path, chain=dict(ring4, exchange=math.inf))),
            ("chain.field", evolve_config(tmp_path, chain=dict(ring4, field=math.nan))),
            ("chain.spin_cap", evolve_config(tmp_path, chain=dict(ring4, spin_cap=20))),
            ("chain.cut_bonds", evolve_config(tmp_path, chain=dict(ring4, cut_bonds=[[1, 2]]))),
            ("chain.cut_bonds", evolve_config(tmp_path, chain=dict(ring4, cut_bonds=[[2, 2]]))),  # a site to itself
            ("chain.cut_bonds", evolve_config(  # not a bond of an open chain
                tmp_path, chain=dict(ring4, topology="open", cut_bonds=[[1, 3]]))),
            ("chain.n_spins", evolve_config(tmp_path, chain=dict(ring4, n_spins=2))),  # a ring needs 3 spins
            ("schedule.params[0]", evolve_config(
                tmp_path, schedule={"kind": "polynomial_cut", "T": 0.5, "params": [math.nan, 1.0]})),
            ("schedule.T", evolve_config(tmp_path, schedule={"kind": "polynomial_cut", "T": math.inf})),
            ("n_steps", evolve_config(tmp_path, n_steps=True)),
            ("workers", evolve_config(tmp_path, workers=True)),
            ("schedule.duration", evolve_config(
                tmp_path, schedule={"kind": "polynomial_cut", "duration": 0.5, "params": []})),
            ("out_dir", evolve_config(tmp_path, out_dir=5)),
            ("noise.realizations", mode_config("noise", tmp_path, noise=dict(noise, realizations="x"))),
            ("noise.seed", mode_config("noise", tmp_path, noise=dict(noise, seed=-1))),
            ("noise.strengths[0]", mode_config("noise", tmp_path, noise=dict(noise, strengths=[-1]))),
            ("optimizer.tolerance", mode_config("optimize", tmp_path, optimizer={"tolerance": "abc"})),
            ("optimizer.multi_start", mode_config("optimize", tmp_path, optimizer={"multi_start": "yes"})),
            ("schedule.params", mode_config(  # nothing to optimize
                "optimize", tmp_path, schedule={"kind": "polynomial_cut", "T": 0.5, "params": []})),
            ("optimizer.multi_start.per_axis", mode_config(
                "optimize", tmp_path, schedule={"kind": "polynomial_cut", "T": 0.5, "params": [0.0] * 4},
                optimizer={"multi_start": {"per_axis": 10}})),  # 10^4 starts
            ("noise.window", mode_config("noise", tmp_path, schedule={"kind": "polynomial_cut", "T": 0.6, "params": []},
                                         noise=dict(noise, window=1e-6))),  # 6 10^5 windows
            # bounds on the work a config asks for: each is rejected before any allocation
            ("schedule.params", mode_config(
                "optimize", tmp_path, schedule={"kind": "polynomial_cut", "T": 0.5, "params": [0.0] * 50_000})),
            ("sweep.times", mode_config("sweep", tmp_path, sweep={"times": [0.3] * 1001, "optimize": False})),
            ("sweep.times", mode_config("sweep", tmp_path, sweep={"times": [0.3] * 251},
                                        optimizer={"multi_start": {"per_axis": 2}})),  # 251 x 4 starts
            ("noise", mode_config("noise", tmp_path, noise=dict(noise, strengths=[1.0], window=5e-5,
                                                                 realizations=10_000))),
            ("noise.strengths", mode_config("noise", tmp_path, noise=dict(noise, strengths=[0.0] * 101))),
            # bounds on one fidelities call: schedules x (2^N + grid points), each
            # input here is within every other bound
            ("landscape.axes", mode_config(
                "landscape", tmp_path, chain=dict(ring4, n_spins=12), n_steps=100_000,
                landscape={"axes": [{"param_index": k, "min": -2.0, "max": 2.0, "resolution": 100}
                                    for k in range(2)]})),  # 10^4 grids of 10^5 points
            ("noise", mode_config("noise", tmp_path, chain=dict(ring4, n_spins=12), noise=dict(
                noise, strengths=[1.0] * 100, window=0.5, realizations=10_000))),  # 10^6 states of 2^12
            ("n_steps", evolve_config(tmp_path, chain=dict(ring4, n_spins=12), n_steps=100_000)),  # recorded
            ("sweep.times", mode_config(
                "sweep", tmp_path, n_steps=300, sweep={"times": [0.3] * 1000},
                schedule={"kind": "polynomial_cut", "T": 0.5, "params": [0.0] * 100})),  # 201 000 columns
        ]
        runs = [(field, [data["mode"], "--config", write_config(tmp_path / f"c{k}.json", data)])
                for k, (field, data) in enumerate(bad)]
        noise_path = write_config(tmp_path / "noise.json", mode_config("noise", tmp_path))
        evolve_path = write_config(tmp_path / "evolve.json", evolve_config(tmp_path))
        runs += [
            ("n_steps", ["reproduce", "table1", "--out", str(tmp_path), "--steps", "-5"]),
            ("n_steps", ["reproduce", "table1", "--out", str(tmp_path), "--steps", "0"]),
            ("noise.seed", ["noise", "--config", noise_path, "--seed", "-3"]),
            ("seed", ["reproduce", "fig7", "--out", str(tmp_path), "--seed", "-1"]),
            ("seed", ["evolve", "--config", evolve_path, "--seed", "-3"]),
            ("seed", ["reproduce", "table1", "--out", str(tmp_path), "--seed", "9"]),
            ("config", ["reproduce", "table1", "--out", str(tmp_path), "--config", str(tmp_path / "nope.json")]),
        ]
        array = write_config(tmp_path / "array.json", [evolve_config(tmp_path)])  # not a JSON object
        runs.append(("config", ["evolve", "--config", array]))
        deep = tmp_path / "deep.json"  # json.loads raises RecursionError, not ValueError
        deep.write_text("[" * 200_000 + "]" * 200_000)
        runs.append(("config", ["optimize", "--config", str(deep)]))
        for k, (field, override) in enumerate((("process", "stitch"), ("target", "ground"))):
            two_spin = mode_config("two_spin", tmp_path, **{field: override})
            runs.append((field, ["two-spin", "--config", write_config(tmp_path / f"t{k}.json", two_spin)]))
        one_spin = {"mode": "two_spin", "chain": {"n_spins": 4, "field": 2.1}}  # default cut detaches site 1
        runs.append(("chain.cut_bonds", ["two-spin", "--config", write_config(tmp_path / "t2.json", one_spin)]))
        for field, argv in runs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1, err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_mode_mismatch_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        data = evolve_config(tmp_path, mode="sweep")
        data["sweep"] = {"times": [0.5]}
        path.write_text(json.dumps(data))
        assert main(["evolve", "--config", str(path)]) == 2

    def test_degeneracy_exit_code(self, tmp_path, capsys, monkeypatch):
        # zero field leaves the detached spin without a unique ground state
        data = evolve_config(tmp_path)
        data["chain"] = {"n_spins": 3, "topology": "open", "field": 0.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["evolve", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

        def eigensolver_failure(config, process):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(runner.RUNNERS, "evolve", eigensolver_failure)
        path.write_text(json.dumps(evolve_config(tmp_path)))
        assert main(["evolve", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        data = evolve_config(tmp_path, out_dir=str(blocker / "sub"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["evolve", "--config", str(path)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(evolve_config(tmp_path, n_steps=40)))
        out = tmp_path / "override"
        assert main(["evolve", "--config", str(path), "--out", str(out), "--steps", "25"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_steps"] == 25

    def test_two_spin_without_config(self, tmp_path, capsys):
        assert main(["two-spin", "--out", str(tmp_path / "ts"), "--steps", "40"]) == 0
        assert (tmp_path / "ts" / "two_spin.json").is_file()

    def test_reproduce_table1_smoke(self, tmp_path, capsys):
        # coarse grid keeps this a smoke test; published numbers need 300 steps
        assert main(["reproduce", "table1", "--out", str(tmp_path), "--steps", "20"]) == 0
        out = tmp_path / "table1"
        assert (out / "sweep.csv").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "table1.gp").is_file()

    def test_pipelines_share_no_state(self, tmp_path):
        # the same pipeline run concurrently and serially emits identical data
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(reproduce, "table1", tmp_path / f"par{k}", n_steps=20)
                for k in range(2)
            ]
            for f in futures:
                f.result()
        reproduce("table1", tmp_path / "serial", n_steps=20)
        reference = (tmp_path / "serial" / "table1" / "sweep.csv").read_bytes()
        for k in range(2):
            assert (tmp_path / f"par{k}" / "table1" / "sweep.csv").read_bytes() == reference

    def test_reproduce_module_is_not_shadowed(self):
        # the package exports the reproduce module, not the function of that name
        import spinsplice
        import spinsplice.reproduce as module

        assert module is spinsplice.reproduce
        assert module.PIPELINES is PIPELINES and module.reproduce is reproduce

    @pytest.mark.parametrize("target", sorted(PIPELINES))
    def test_reproduce_manifests_replay(self, tmp_path, target, capsys):
        # every run a target writes is an ordinary run: its echoed config
        # parses and re-running it gives the same output hashes
        reproduce(target, tmp_path / "orig", n_steps=4)
        manifests = sorted((tmp_path / "orig").rglob("manifest.json"))
        assert manifests
        for k, path in enumerate(manifests):
            manifest = json.loads(path.read_text())
            echoed = dict(manifest["config"], out_dir=str(tmp_path / f"replay{k}"))
            execute(parse_config(echoed))
            replay = json.loads((tmp_path / f"replay{k}" / "manifest.json").read_text())
            assert manifest["outputs"] == replay["outputs"], path


BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "x", None, 10**7, 10**400, 1e300]),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-6),
)


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


@st.composite
def mutated_configs(draw):
    """A valid small config for a random mode with one leaf set to a bad value."""
    mode = draw(st.sampled_from(MODES))
    data = mode_config(mode, Path(), n_steps=draw(st.integers(1, 20)), out_dir="out")
    if "optimizer" in data:
        data["optimizer"]["max_iterations"] = draw(st.integers(0, 2))
    if mode == "landscape":
        for axis in data["landscape"]["axes"]:
            axis["resolution"] = draw(st.integers(2, 3))
    if mode == "noise":
        data["noise"]["realizations"] = draw(st.integers(2, 3))
    *parents, key = draw(st.sampled_from(list(_leaves(data))))
    node = data
    for parent in parents:
        node = node[parent]
    node[key] = draw(BAD_VALUES)
    return mode, data


# An example that takes longer than this breaks the contract as surely as a
# traceback: every config is bounded, and these ones are small.
EXAMPLE_SECONDS = 20.0
# every object-valued entry of each mode's small config
SECTION_VALUES = [value for mode in MODES for value in mode_config(mode, Path()).values() if isinstance(value, dict)]
OTHER_VALUES = st.sampled_from([None, [], {}, "x", 3, 2.5, True, [{"n_spins": 4}]])


def assert_cli_contract(workdir, argv):
    """Run the CLI in ``workdir``: exit 0, 2, 3 or 4, no traceback, and
    one line on stderr for a failure (none on success), within the time
    limit.  An argument parser error exits through SystemExit."""
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # a mutated out_dir is relative to the working directory
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    assert time.perf_counter() - start < EXAMPLE_SECONDS, argv
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in stderr.getvalue()
    assert len(stderr.getvalue().splitlines()) == (0 if code == 0 else 1), stderr.getvalue()


def fuzz_dir(tmp_path_factory):
    workdir = tmp_path_factory.getbasetemp() / "fuzz"  # one directory for all examples
    workdir.mkdir(exist_ok=True)
    return workdir


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutated_configs())
def test_fuzzed_config_keeps_exit_code_contract(tmp_path_factory, case):
    mode, data = case
    workdir = fuzz_dir(tmp_path_factory)
    assert_cli_contract(workdir, [mode.replace("_", "-"), "--config", write_config(workdir / "config.json", data)])


def _sections(data):
    """(path, object) of every object in a config, the top level included."""
    yield (), data
    for key, value in data.items():
        if isinstance(value, dict):
            for path, inner in _sections(value):
                yield (key, *path), inner


@st.composite
def restructured_configs(draw):
    """A valid small config for a random mode, changed in its structure: a
    top-level key dropped, written twice (JSON keeps the last copy) or
    given another type, or a key of any mode's config moved into one of its
    objects.  Returns the mode and the config file's text."""
    mode = draw(st.sampled_from(MODES))
    data = mode_config(mode, Path(), n_steps=draw(st.integers(1, 8)), out_dir="out")
    if mode == "noise":
        data["noise"]["realizations"] = 2
    change = draw(st.sampled_from(["drop", "duplicate", "retype", "move"]))
    key = draw(st.sampled_from(sorted(data)))
    if change == "drop":
        del data[key]
    elif change == "retype":
        data[key] = draw(OTHER_VALUES)
    elif change == "duplicate":
        again = draw(st.one_of(st.just(data[key]), OTHER_VALUES, st.sampled_from(SECTION_VALUES)))
        return mode, json.dumps(data)[:-1] + f", {json.dumps(key)}: {json.dumps(again)}}}"
    else:
        other = mode_config(draw(st.sampled_from(MODES)), Path())
        source_path, source = draw(st.sampled_from([s for s in _sections(other) if s[1]]))
        moved = draw(st.sampled_from(sorted(source)))
        sections = dict(_sections(data))
        target = sections[draw(st.sampled_from(sorted(sections)))]
        sections.get(source_path, {}).pop(moved, None)
        target[moved] = source[moved]
    return mode, json.dumps(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(restructured_configs())
def test_restructured_config_keeps_exit_code_contract(tmp_path_factory, case):
    mode, text = case
    workdir = fuzz_dir(tmp_path_factory)
    (workdir / "config.json").write_text(text)
    assert_cli_contract(workdir, [mode.replace("_", "-"), "--config", str(workdir / "config.json")])


@st.composite
def reproduce_arguments(draw):
    """``reproduce`` with a target (or a wrong one) and its flags: a few
    steps or a bad count, a seed or a bad one, a config it must refuse, and
    an output directory that may be a file."""
    argv = ["reproduce", draw(st.sampled_from([*sorted(PIPELINES), "fig4", ""]))]
    argv += ["--steps", draw(st.sampled_from(["1", "2", "0", "-3", "100001", "2.5", "x"]))]
    argv += draw(st.sampled_from([[], ["--seed", "7"], ["--seed", str(2**64)], ["--seed", "-1"], ["--seed", "x"]]))
    argv += draw(st.sampled_from([[], ["--config", "config.json"]]))
    argv += ["--out", draw(st.sampled_from(["out", "config.json"]))]
    return argv


@settings(max_examples=40, deadline=None, derandomize=True)
@given(reproduce_arguments())
def test_fuzzed_reproduce_keeps_exit_code_contract(tmp_path_factory, argv):
    workdir = fuzz_dir(tmp_path_factory)
    (workdir / "config.json").write_text("{}")
    assert_cli_contract(workdir, argv)
