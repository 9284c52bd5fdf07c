import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_pure_state
from quidlab.encode import EncoderConfig, encode_batch
from quidlab.noise import NoiseModel
from quidlab.pqc import (
    PRESETS,
    PqcTemplate,
    TemplateGate,
    apply_pqc,
    apply_pqc_stack,
    build_template,
    load_template,
    save_template,
    z_observables,
)
from quidlab.simcore import DensityMatrix, expect_z_stack, ground_state


@pytest.mark.parametrize(
    "name,n,layers,expected",
    [
        ("pqc1", 4, 1, 8),  # 2n rotations
        ("pqc1", 8, 2, 32),  # 2nL
        ("pqc6", 4, 1, 28),  # 4n + n(n-1): two rotation blocks + all-to-all CRX
        ("pqc6", 4, 2, 56),
        ("pqc8", 4, 1, 19),  # 4n + (n-1): two rotation blocks + paired CRX
        ("pqc8", 5, 1, 24),
    ],
)
def test_preset_param_counts(name, n, layers, expected):
    tpl = build_template(name, n, layers)
    assert tpl.param_count == expected
    assert sum(1 for g in tpl.gates if g.slot is not None) == expected


def test_pqc6_entangler_is_all_to_all():
    tpl = build_template("pqc6", 4, 1)
    crx = [g.targets for g in tpl.gates if g.gate == "CRX"]
    assert len(crx) == 12
    assert len(set(crx)) == 12  # every ordered pair once
    assert all(c != t for c, t in crx)


def test_unknown_or_too_small():
    with pytest.raises(ValueError):
        build_template("pqc9", 4, 1)
    with pytest.raises(ValueError):
        build_template("pqc6", 1, 1)
    with pytest.raises(ValueError):
        build_template("pqc1", 4, 0)


@pytest.mark.parametrize("name", ["pqc1", "pqc6", "pqc8"])
def test_zero_angles_are_identity(name, rng):
    tpl = build_template(name, 3, 2)
    rho = DensityMatrix(3, random_pure_state(rng, 3))
    out = apply_pqc(rho, tpl, np.zeros(tpl.param_count))
    assert np.max(np.abs(out.data - rho.data)) <= 1e-10


@pytest.mark.parametrize("name", ["pqc1", "pqc6", "pqc8"])
def test_purity_preserved_without_noise(name, rng):
    tpl = build_template(name, 3, 1)
    rho = DensityMatrix(3, random_pure_state(rng, 3))
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    out = apply_pqc(rho, tpl, theta)
    assert out.purity() == pytest.approx(rho.purity(), abs=1e-9)
    out.validate()


def test_noise_strictly_reduces_purity_on_pure_input(rng):
    tpl = build_template("pqc1", 2, 1)
    rho = DensityMatrix(2, random_pure_state(rng, 2))
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    out = apply_pqc(rho, tpl, theta, NoiseModel.from_error_rate(0.05))
    assert out.purity() < rho.purity()
    out.validate()


def test_parameter_length_mismatch():
    tpl = build_template("pqc1", 2, 1)
    with pytest.raises(ValueError):
        apply_pqc(ground_state(2), tpl, np.zeros(tpl.param_count + 1))


def test_registry_roundtrip(tmp_path):
    for name in ("pqc1", "pqc6", "pqc8"):
        tpl = build_template(name, 4, 2)
        path = tmp_path / f"{name}.json"
        save_template(tpl, path)
        loaded = load_template(path)
        assert loaded == tpl
        assert loaded.gates == tpl.gates


def test_layers_use_fresh_slots():
    tpl = build_template("pqc8", 4, 3)
    slots = [g.slot for g in tpl.gates if g.slot is not None]
    assert sorted(slots) == list(range(tpl.param_count))
    assert tpl.param_count == 3 * 19


def test_slot_invariant_enforced():
    gates = (
        TemplateGate("RX", (0,), slot=0),
        TemplateGate("RZ", (0,), slot=0),  # duplicate slot
    )
    with pytest.raises(ValueError):
        PqcTemplate("bad", 1, 1, gates, 2)
    with pytest.raises(ValueError):
        TemplateGate("RX", (0,), slot=1, angle=0.5)


def test_fixed_angle_entries_apply():
    gates = (
        TemplateGate("RX", (0,), slot=0),
        TemplateGate("RX", (0,), angle=np.pi / 2),
    )
    tpl = PqcTemplate("custom", 1, 1, gates, 1)
    out = apply_pqc(ground_state(1), tpl, np.array([np.pi / 2]))
    # two quarter-turns = RX(pi): |0> -> |1>
    assert np.allclose(np.diag(out.data).real, [0.0, 1.0], atol=1e-12)


READOUT_NOISE = {
    "noiseless": None,
    "p=0.05": NoiseModel.from_error_rate(0.05),
    # non-unital damping on the entangling gate only: a wrong adjoint order shows
    "crx-damping": NoiseModel(per_gate={"crx": (("amplitude_damping", 0.3),)}),
}


def schrodinger_z(states, tpl, theta, model):
    """<Z_q> of every state pushed forward through the template: the oracle."""
    out = apply_pqc_stack(states, tpl, theta, model)
    return np.column_stack([expect_z_stack(out, q, tpl.n_qubits) for q in range(tpl.n_qubits)])


def heisenberg_z(states, tpl, theta, model):
    """Tr(rho O_q) against the pulled-back observables."""
    return np.einsum("bij,qji->bq", states, z_observables(tpl, theta, model)).real


@pytest.mark.parametrize("noise", list(READOUT_NOISE))
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("name", PRESETS)
def test_heisenberg_readout_matches_kraus_forward(name, layers, noise, rng):
    model = READOUT_NOISE[noise]
    for n in range(1 if name == "pqc1" else 2, 6):
        tpl = build_template(name, n, layers)
        theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
        angle = encode_batch(rng.uniform(0, 2 * np.pi, (3, 2 * n)), EncoderConfig("angle", n, 2), model)
        amplitude = encode_batch(rng.uniform(0.1, 1.0, (3, 1 << n)), EncoderConfig("amplitude", n), model)
        for states in (angle, amplitude):
            got = heisenberg_z(states, tpl, theta, model)
            assert np.max(np.abs(got - schrodinger_z(states, tpl, theta, model))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_heisenberg_readout_property(data):
    name = data.draw(st.sampled_from(PRESETS))
    n = data.draw(st.integers(2, 3))
    tpl = build_template(name, n, data.draw(st.integers(1, 2)))
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    theta = np.array(data.draw(st.lists(angle, min_size=tpl.param_count, max_size=tpl.param_count)))
    p = data.draw(st.floats(0.0, 1.0))
    model = NoiseModel.from_error_rate(p) if p else None
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    states = np.stack([random_density_matrix(rng, n) for _ in range(4)])
    got = heisenberg_z(states, tpl, theta, model)
    assert np.max(np.abs(got - schrodinger_z(states, tpl, theta, model))) <= 1e-12
