import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinsplice.chain import ChainSpec, DegeneracyError, _sector_hamiltonian, ground_state
from spinsplice.cli import main
from spinsplice.control import (
    ControlSchedule,
    apply_noise,
    linear_baseline,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
)
from spinsplice.dynamics import cut_fidelity, propagate, reduce_density
from spinsplice.optimize import LandscapeAxis, bfgs_steps, finite_difference_gradient, scan_landscape
from spinsplice.process import DEFAULT_SELECTION_OFFSET, ObjectiveSpec, build_objective, prepare_process
from spinsplice.reproduce import reproduce
from spinsplice.runner import ConfigError

from oracles import dense_hamiltonian


class TestPrepareProcess:
    def test_single_spin_cut_targets(self):
        process = prepare_process(ChainSpec(4, "open", 1.0, 2.0), "cut")
        assert process.a_sites == (1,)
        assert process.b_sites == (2, 3, 4)
        # detached spin in a positive field points down
        assert abs(process.phi_0a[1]) == pytest.approx(1.0)
        assert abs(np.linalg.norm(process.psi0) - 1.0) < 1e-12

    def test_degenerate_start_resolved_toward_weaker_bond(self):
        # the two-spin chain at field 2 starts degenerate; the selection rule
        # must land on the unique ground state of the slightly weakened bond
        process = prepare_process(ChainSpec(2, "open", 1.0, 2.0), "cut")
        assert process.start_degenerate
        assert abs(process.psi0[3]) == pytest.approx(1.0, abs=1e-9)

    def test_seven_ring_start_is_degenerate(self):
        process = prepare_process(ChainSpec(7, "ring", 1.0, 2.0), "cut")
        assert process.start_degenerate
        h = sum(dense_hamiltonian(process.chain))
        resid = np.linalg.norm(h @ process.psi0 - (process.psi0.conj() @ h @ process.psi0) * process.psi0)
        assert resid < 1e-9

    @pytest.mark.parametrize("n_spins", [7, 9])
    def test_tied_start_lies_in_one_block(self, n_spins):
        # the tie spans both parities of a sector and the nudged reference
        # lies in one: the other keeps not even round-off, so propagate
        # evolves one block
        process = prepare_process(ChainSpec(n_spins, "ring", 1.0, 2.0), "cut")
        assert process.start_degenerate
        amplitudes = [block.amplitudes(process.psi0) for block in process.propagator.blocks]
        assert sum(bool(np.any(a)) for a in amplitudes) == 1

    def test_stitch_starts_from_disconnected_ground(self):
        process = prepare_process(ChainSpec(4, "open", 1.0, 2.0), "stitch")
        h0, _ = dense_hamiltonian(process.chain)
        w = np.linalg.eigvalsh(h0)
        energy = (process.psi0.conj() @ h0 @ process.psi0).real
        assert energy == pytest.approx(w[0], abs=1e-10)

    def test_stitch_final_target_for_seven_ring(self):
        # the joint ground state at full coupling is degenerate for this ring;
        # the final target must still be a resolved eigenvector
        process = prepare_process(ChainSpec(7, "ring", 1.0, 2.2), "stitch")
        assert process.final_degenerate
        h = sum(dense_hamiltonian(process.chain))
        w = np.linalg.eigvalsh(h)
        energy = (process.final_ground.conj() @ h @ process.final_ground).real
        assert energy == pytest.approx(w[0], abs=1e-8)

    def test_direction_mismatch_rejected(self):
        process = prepare_process(ChainSpec(3, "open", 1.0, 2.0), "cut")
        with pytest.raises(ValueError, match="direction"):
            process.fidelity(polynomial_stitch(0.5), 50)

    def test_block_with_degenerate_ground_rejected(self):
        # without a field the detached spin has no preferred orientation
        with pytest.raises(DegeneracyError, match="detached block"):
            prepare_process(ChainSpec(3, "open", 1.0, 0.0), "cut")

    @pytest.mark.parametrize("field", [2.0, -0.7])
    @pytest.mark.parametrize("topology", ["open", "ring"])
    def test_lone_spin_target_is_the_spin_along_the_field(self, topology, field):
        # the detached spin's two 1x1 blocks, up at +field and down at
        # -field, assembled like any other block: the lower one's eigh
        # vector, exactly 1 on the one basis state
        process = prepare_process(ChainSpec(5, topology, 1.0, field), "cut")
        assert process.a_sites == (1,)
        expected = np.zeros(2)
        expected[int(field > 0)] = np.linalg.eigh(np.array([[-abs(field)]]))[1][0, 0]
        assert process.phi_0a.dtype == expected.dtype and process.phi_0a.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("field", [2.0, -0.7, 0.0])
    def test_lone_spin_blocks_are_float(self, field):
        # with no bond and no field there is no term at all: the blocks are
        # float64 zeros all the same
        blocks, h, v = _sector_hamiltonian(1, [], frozenset(), 1.0, field)
        assert [b.states.tolist() for b in blocks] == [[0], [1]]
        assert all(m.dtype == np.float64 for m in (*h, *v))
        assert [m.tolist() for m in h] == [[[field]], [[-field]]] and [m.tolist() for m in v] == [[[0.0]], [[0.0]]]

    @pytest.mark.parametrize("topology", ["open", "ring"])
    def test_lone_spin_without_field_exits_3(self, topology, tmp_path, capsys):
        config = {"mode": "evolve", "chain": {"n_spins": 4, "topology": topology, "field": 0.0},
                  "schedule": {"T": 0.5, "params": [1.0, 1.0]}, "out_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["evolve", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: the detached block (1,) has a degenerate ground state; "
            "the cut fidelity target is not unique\n")

    @pytest.mark.parametrize("direction", ["cut", "stitch"])
    @pytest.mark.parametrize("spec", [
        ChainSpec(6, "ring", 1.0, 2.0), ChainSpec(7, "open", 1.0, 2.0), ChainSpec(8, "ring", 1.0, 2.0),
        ChainSpec(7, "open", 1.0, 2.0, frozenset({(3, 4)})),
    ], ids=["ring6", "open7", "ring8", "open7_cut34"])
    def test_endpoint_states_are_the_eigh_vectors(self, spec, direction):
        # psi0, final_ground and phi_0a bitwise the lowest np.linalg.eigh
        # vector of the ground block, embedded: the bits of the endpoint
        # states move the optimizer's rounds downstream
        process = prepare_process(spec, direction)
        prop = process.propagator

        def eigh_ground(blocks, matrices):
            lowest = [np.linalg.eigvalsh(m)[:2] for m in matrices]
            b = int(np.argmin([w[0] for w in lowest]))
            assert all(w[0] > lowest[b][0] + 1e-6 for k, w in enumerate(lowest) if k != b)
            assert lowest[b].size == 1 or lowest[b][1] > lowest[b][0] + 1e-6
            out = np.zeros(sum(block.size for block in blocks))
            blocks[b].embed(np.linalg.eigh(matrices[b])[1][:, 0], out)
            return out

        ends = (1.0, 0.0) if direction == "cut" else (0.0, 1.0)
        for state, g in zip((process.psi0, process.final_ground), ends):
            expected = eigh_ground(prop.blocks, [h + g * v for h, v in zip(prop.h0, prop.v)]).astype(complex)
            assert state.tobytes() == expected.tobytes()
        order = {site: k + 1 for k, site in enumerate(process.a_sites)}
        inner = [(order[i], order[j]) for i, j in spec.bonds() if (i, j) not in spec.cut_bonds and i in order and j in order]
        blocks, h_a, _ = _sector_hamiltonian(len(order), inner, frozenset(), spec.exchange, spec.field)
        assert process.phi_0a.tobytes() == eigh_ground(blocks, h_a).tobytes()


def _arrays(obj):
    """Every numpy array held by obj's attributes, one level of lists deep."""
    for value in vars(obj).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray):
                yield item


class TestBlockOnlyProcess:
    def test_no_full_space_matrix_is_kept(self):
        process = prepare_process(ChainSpec(8, "ring", 1.0, 2.0), "cut")
        full = (2**8, 2**8)
        held = [*_arrays(process), *_arrays(process.propagator)]
        assert held
        assert all(a.shape != full for a in held)

    def test_no_full_space_matrix_is_allocated(self):
        # one dense 1024 x 1024 float64 operator alone is 8 MiB
        tracemalloc.start()
        try:
            prepare_process(ChainSpec(10, "ring", 1.0, 2.0), "cut")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    @pytest.mark.parametrize("spec,direction", [
        (ChainSpec(2, "open", 1.0, 2.0), "cut"),
        (ChainSpec(7, "ring", 1.0, 2.0), "cut"),
        (ChainSpec(7, "ring", 1.0, 2.2), "cut"),
        (ChainSpec(7, "ring", 1.0, 2.2), "stitch"),
    ])
    def test_states_match_dense_selection(self, spec, direction):
        # the parity blocks give what ground_state gives on the plain sectors
        # of the assembled matrices with the nudged reference, up to a sign.
        # A degenerate selection follows the nudged ground state, whose
        # eigenvector the plain sectors resolve only to round-off over the
        # nudge's splitting (about 1e-10 here; the parity blocks put the two
        # nudged levels in different blocks): such states agree as rays.
        process = prepare_process(spec, direction)
        h0, v = dense_hamiltonian(spec)
        inward = -DEFAULT_SELECTION_OFFSET if direction == "cut" else DEFAULT_SELECTION_OFFSET
        g_start = 1.0 if direction == "cut" else 0.0
        g_end = 1.0 - g_start
        start = ground_state(h0 + g_start * v, h0 + (g_start + inward) * v)
        final = ground_state(h0 + g_end * v, h0 + (g_end - inward) * v)
        for state, expected in ((process.psi0, start), (process.final_ground, final)):
            overlap = expected.state.conj() @ state
            assert abs(abs(overlap) - 1.0) <= 1e-12
            if not expected.degenerate:
                assert np.abs(state - np.sign(overlap.real) * expected.state).max() <= 1e-12
        assert (process.start_degenerate, process.final_degenerate) == (start.degenerate, final.degenerate)


class TestFerromagnetShortcut:
    def test_sudden_cut_is_perfect(self):
        process = prepare_process(ChainSpec(4, "open", -1.0, 2.0), "cut")
        sudden = pulse_train(0.5, (0.0,))  # one step straight to zero coupling
        assert process.fidelity(sudden, 1) == pytest.approx(1.0, abs=1e-8)
        assert process.fidelity(linear_baseline(0.01), 50) == pytest.approx(1.0, abs=1e-8)


SCORED = {
    "ring6": (ChainSpec(6, "ring", 1.0, 2.0), "cut"),
    "open6": (ChainSpec(6, "open", 1.0, 2.0), "cut"),
    "ring7_stitch": (ChainSpec(7, "ring", 1.0, 2.0), "stitch"),
}
SCORED_STEPS = 60


@pytest.fixture(scope="module", params=sorted(SCORED))
def scored_process(request):
    return prepare_process(*SCORED[request.param])


def mixed_schedules(direction, count, seed):
    """Smooth, pulse and noisy schedules in turn, of mixed durations."""
    rng = np.random.default_rng(seed)
    smooth = polynomial_cut if direction == "cut" else polynomial_stitch
    out = []
    for k in range(count):
        duration = float(rng.uniform(0.3, 1.0))
        if k % 3 == 0:
            out.append(smooth(duration, rng.uniform(-20.0, 20.0, 2)))
        elif k % 3 == 1:
            out.append(pulse_train(duration, rng.uniform(-3.0, 3.0, 4), direction))
        else:
            out.append(apply_noise(smooth(duration, rng.uniform(-20.0, 20.0, 2)),
                                   window=0.05, strength=1.0, seed=int(rng.integers(2**32))))
    return out


class TestStackedScoring:
    """``fidelities`` scores one stack; each value is bitwise the score of
    its own column of the same ``propagate`` call."""

    @staticmethod
    def per_column(process, schedules, target):
        states, _ = propagate(process.propagator, schedules, process.psi0, SCORED_STEPS)
        if target == "cut":
            return [cut_fidelity(reduce_density(psi, process.a_sites, process.chain.n_spins), process.phi_0a)
                    for psi in states.T]
        return [float(abs(process.final_ground.conj() @ psi)) for psi in states.T]

    @pytest.mark.parametrize("target", ["cut", "ground"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["smooth", "pulse", "noisy"])
    def test_one_column(self, scored_process, target, position):
        schedules = [mixed_schedules(scored_process.direction, 3, 5)[position]]
        scores = scored_process.fidelities(schedules, SCORED_STEPS, target)
        assert scores.shape == (1,)
        assert np.array_equal(scores, self.per_column(scored_process, schedules, target))

    @pytest.mark.parametrize("target", ["cut", "ground"])
    def test_no_columns(self, scored_process, target):
        scores = scored_process.fidelities([], SCORED_STEPS, target)
        assert scores.shape == (0,) and scores.dtype == float

    @pytest.mark.parametrize("target", ["cut", "ground"])
    def test_many_columns(self, scored_process, target):
        schedules = mixed_schedules(scored_process.direction, 33, 6)
        scores = scored_process.fidelities(schedules, SCORED_STEPS, target)
        assert scores.shape == (33,)
        assert np.array_equal(scores, self.per_column(scored_process, schedules, target))


class TestObjective:
    def test_zero_params_give_baseline(self):
        chain = ChainSpec(4, "ring", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=0.5,
                             n_free_params=2, n_steps=80)
        objective, process = build_objective(spec)
        assert objective(np.zeros(2)) == pytest.approx(
            process.fidelity(linear_baseline(0.5), 80), abs=1e-12
        )

    def test_deterministic_and_bounded(self):
        chain = ChainSpec(3, "open", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="sine_cut", duration=0.4,
                             n_free_params=2, n_steps=60)
        objective, _ = build_objective(spec)
        params = np.array([0.3, -0.2])
        first, second = objective(params), objective(params)
        assert first == second
        assert 0.0 <= first <= 1.0

    def test_param_count_enforced(self):
        chain = ChainSpec(3, "open", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=0.4,
                             n_free_params=2)
        with pytest.raises(ValueError, match="parameters"):
            spec.schedule_for([1.0])

    def test_ground_target_for_stitch(self):
        chain = ChainSpec(3, "open", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_stitch", duration=0.5,
                             n_free_params=2, target="ground", n_steps=60,
                             direction="stitch")
        objective, process = build_objective(spec)
        value = objective(np.zeros(2))
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(
            process.fidelity(linear_baseline(0.5, "stitch"), 60, "ground"), abs=1e-12
        )


class TestOptimizedTrajectoryCharacter:
    def test_less_adiabatic_midway_but_better_at_the_end(self):
        # the tuned drive sacrifices instantaneous ground-state tracking
        # during the evolution and still delivers a higher final cut fidelity
        process = prepare_process(ChainSpec(6, "ring", 1.0, 2.0), "cut")
        _, lin = process.run(linear_baseline(0.6), 300)
        _, opt = process.run(polynomial_cut(0.6, (54.3, -36.3)), 300)
        assert np.allclose(lin.times, opt.times)
        dips = opt.f_g - lin.f_g
        assert dips.min() < -0.1
        assert opt.f_c[-1] > lin.f_c[-1] + 0.1


class TestPublishedLandscapeGeometry:
    def test_gradient_small_at_published_optimum(self):
        spec = ObjectiveSpec(chain=ChainSpec(6, "ring", 1.0, 2.0), kind="polynomial_cut",
                             duration=0.6, n_free_params=2, n_steps=300)
        objective, _ = build_objective(spec)
        grad = finite_difference_gradient(objective, np.array([54.3, -36.3]), 0.1)
        assert np.abs(grad).max() < 0.05

    def test_sine_high_fidelity_region_below_slope_lines(self):
        # wherever the sine control scores high, both boundary slopes of g(t)
        # are negative, which pins the region under two straight lines
        spec = ObjectiveSpec(chain=ChainSpec(6, "ring", 1.0, 2.0), kind="sine_cut",
                             duration=0.6, n_free_params=2, n_steps=300)
        objective, _ = build_objective(spec)
        axes = (LandscapeAxis(0, -0.9, 0.9, 9), LandscapeAxis(1, -0.9, 0.45, 9))
        grid = scan_landscape(objective, axes)
        intercept = 1.0 / (2.0 * np.pi)
        high = 0.9
        count = 0
        for i, b1 in enumerate(axes[0].grid()):
            for j, b2 in enumerate(axes[1].grid()):
                if grid.values[i, j] >= high:
                    count += 1
                    assert b2 < intercept - b1 / 2.0
                    assert b2 < intercept + b1 / 2.0
        assert count > 0  # the threshold actually selects an island

    def test_landscape_origin_matches_baseline(self):
        chain = ChainSpec(4, "ring", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=0.4,
                             n_free_params=2, n_steps=60)
        objective, process = build_objective(spec)
        axes = (LandscapeAxis(0, -1.0, 1.0, 3), LandscapeAxis(1, -1.0, 1.0, 3))
        grid = scan_landscape(objective, axes)
        baseline = process.fidelity(linear_baseline(0.4), 60)
        assert grid.values[1, 1] == pytest.approx(baseline, abs=1e-12)


RING4 = ChainSpec(4, "ring", 1.0, 2.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: reduce_density(np.full(16, 0.25), [0], 4), ValueError, "keep_sites [0] outside 1..4"),
    (lambda: prepare_process(RING4).fidelities([polynomial_cut(0.5)], 10, target="nope"), ValueError,
     "target must be one of ('cut', 'ground'), got 'nope'"),
    (lambda: prepare_process(RING4, "sideways"), ValueError, "direction must be 'cut' or 'stitch', got 'sideways'"),
    (lambda: ControlSchedule("pulse", 1.0, (1.0,), "sideways"), ValueError,
     "direction must be 'cut' or 'stitch', got 'sideways'"),
    (lambda: LandscapeAxis(-1, 0.0, 1.0, 2), ValueError, "param_index must be >= 0, got -1"),
    (lambda: next(bfgs_steps(np.zeros(2), grad_step=0)), ValueError, "step must be positive, got 0"),
    (lambda: ObjectiveSpec(RING4, "polynomial_cut", 0.5, 2, target="nope"), ValueError,
     "target must be one of ('cut', 'ground'), got 'nope'"),
    (lambda: ObjectiveSpec(RING4, "polynomial_cut", 0.5, 0), ValueError, "n_free_params must be >= 1"),
    (lambda: ObjectiveSpec(RING4, "polynomial_cut", 0.5, 2, n_steps=0), ValueError, "n_steps must be >= 1"),
    (lambda: build_objective(ObjectiveSpec(RING4, "polynomial_cut", 0.5, 2), prepare_process(RING4, "stitch")),
     ValueError, "prepared process direction does not match the objective"),
    (lambda: reproduce("fig99"), ConfigError,
     "reproduce: unknown target 'fig99'; choose from ['fig3', 'fig6', 'fig7', 'fig8', 'fig9', 'table1']"),
], ids=["reduce_density_site_0", "fidelities_target", "prepare_process_direction", "schedule_direction",
        "landscape_axis_index", "bfgs_grad_step", "objective_target", "objective_params", "objective_steps",
        "objective_direction", "reproduce_target"])
def test_library_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_readme_quick_start_prints_what_it_claims(capsys):
    # the README's first python block, run as written; every `# ~x` comment on
    # a print line must match the numbers that line prints, to the digits shown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints) == 4
    number = r"-?\d+\.\d+"
    for line, out in zip(prints, printed):
        claimed = re.findall(number, line.partition("# ~")[2])
        got = [float(x) for x in re.findall(number, out)]
        assert claimed and len(got) == len(claimed), (line, out)
        for c, g in zip(claimed, got):
            assert abs(g - float(c)) <= 0.5 * 10.0 ** -len(c.partition(".")[2]), (line, out)
