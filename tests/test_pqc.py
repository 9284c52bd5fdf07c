import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_stack, density_factors, density_from_pauli, pauli_strings
from conftest import random_density_matrix, random_pure_state
from quidlab.encode import EncoderConfig, _encode_factors, _expand, _kron_factors
from quidlab.noise import NoiseModel, noise_superop
from quidlab.pqc import (
    _READOUT_PEAK,
    PRESETS,
    PqcTemplate,
    TemplateGate,
    _light_cones,
    _pull_back,
    _readout_factors,
    _rotation_maps,
    _trig_coefficients,
    apply_pqc_stack,
    build_template,
    z_expectations,
)
from quidlab.simcore import (DensityMatrix, _layouts, apply_superop_stack, contract_superop,
                             expect_z_stack, gate_matrix, pauli_form)


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
    with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 12\]"):  # no encoder fits more
        build_template("pqc1", 13, 1)


@pytest.mark.parametrize("name", ["pqc1", "pqc6", "pqc8"])
def test_zero_angles_are_identity(name, rng):
    tpl = build_template(name, 3, 2)
    rho = random_pure_state(rng, 3)[None]
    out = apply_pqc_stack(rho, tpl, np.zeros(tpl.param_count))
    assert np.max(np.abs(out - rho)) <= 1e-10


@pytest.mark.parametrize("name", ["pqc1", "pqc6", "pqc8"])
def test_purity_preserved_without_noise(name, rng):
    tpl = build_template(name, 3, 1)
    rho = random_pure_state(rng, 3)
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    out = DensityMatrix(3, apply_pqc_stack(rho[None], tpl, theta)[0])
    assert out.purity() == pytest.approx(DensityMatrix(3, rho).purity(), abs=1e-9)
    out.validate()


def test_noise_strictly_reduces_purity_on_pure_input(rng):
    tpl = build_template("pqc1", 2, 1)
    rho = random_pure_state(rng, 2)
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    [out] = apply_pqc_stack(rho[None], tpl, theta, NoiseModel.from_error_rate(0.05))
    out = DensityMatrix(2, out)
    assert out.purity() < DensityMatrix(2, rho).purity()
    out.validate()


def test_parameter_length_mismatch():
    tpl = build_template("pqc1", 2, 1)
    with pytest.raises(ValueError):
        apply_pqc_stack(basis_stack(2, 0), tpl, np.zeros(tpl.param_count + 1))


def test_registry_roundtrip():
    # a template through its JSON text and back, as a checkpoint's template block goes
    for name in ("pqc1", "pqc6", "pqc8"):
        tpl = build_template(name, 4, 2)
        loaded = PqcTemplate.from_json(json.loads(json.dumps(tpl.to_json())))
        assert loaded == tpl
        assert loaded.gates == tpl.gates
    # every preset gate binds a slot, which to_json writes
    assert all(set(e) == {"gate", "targets", "slot"} for e in tpl.to_json()["gates"])


def test_layers_use_fresh_slots():
    tpl = build_template("pqc8", 4, 3)
    slots = [g.slot for g in tpl.gates if g.slot is not None]
    assert sorted(slots) == list(range(tpl.param_count))
    assert tpl.param_count == 3 * 19


def test_slot_invariant_enforced():
    # a preset binds each slot once, and its size fields are integers, not booleans
    for name in PRESETS:
        tpl = PqcTemplate(name, 3, 2)
        assert sorted(g.slot for g in tpl.gates) == list(range(tpl.param_count))
    for field in ("n_qubits", "layers"):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=field):
                PqcTemplate("pqc1", **{"n_qubits": 1, "layers": 1, field: bad})


READOUT_NOISE = {
    "noiseless": None,
    "p=0.05": NoiseModel.from_error_rate(0.05),
    # non-unital damping on the entangling gate only: a wrong adjoint order shows
    "crx-damping": NoiseModel(per_gate={"crx": (("amplitude_damping", 0.3),)}),
    # different noise on the two single-qubit gates the readout fuses: a wrong
    # multiplication order in the fusion shows
    "rx-damping-rz-depolarizing": NoiseModel(
        per_gate={"rx": (("amplitude_damping", 0.3),), "rz": (("depolarizing", 0.2),)}
    ),
}


def schrodinger_z(states, tpl, theta, model):
    """<Z_q> of every state pushed forward through the template: the oracle."""
    out = apply_pqc_stack(states, tpl, theta, model)
    return np.column_stack([expect_z_stack(out, q, tpl.n_qubits) for q in range(tpl.n_qubits)])


def heisenberg_z(states, tpl, theta, model):
    """Tr(rho O_q) against the pulled-back observables, the states one dense factor."""
    return z_expectations((states,), tpl, theta, model)


def factored_inputs(n, rng, model):
    """Factored stacks of 3 rows as the encoders give them (angle factors in Pauli form):
    angle, amplitude filling every qubit, amplitude with padding."""
    angle = EncoderConfig("angle", n, 2)
    yield _encode_factors(rng.uniform(0, 2 * np.pi, (3, 2 * n)), angle, model)
    amplitude = EncoderConfig("amplitude", n)
    yield _encode_factors(rng.uniform(0.1, 1.0, (3, 1 << n)), amplitude, model)
    if n > 1:  # two features fill one data qubit; the other n - 1 are tau factors
        yield _encode_factors(rng.uniform(0.1, 1.0, (3, 2)), amplitude, model)


def cone_z(factors, tpl, theta, model):
    """z_expectations on the encoder's factors as density matrices, and _pull_back on them
    as the classifier hands them over."""
    got = z_expectations(density_factors(factors), tpl, theta, model)
    assert np.max(np.abs(_pull_back(_readout_factors(factors, tpl), tpl, theta, model)
                         - got)) <= 1e-12
    return got


def test_readout_refuses_density_factors(rng):
    # complex factors are density matrices, not the Pauli forms _pull_back reads; as they
    # are the amplitude encoder's, _readout_factors converts them
    factors = _encode_factors(rng.uniform(0.1, 1.0, (3, 4)), EncoderConfig("amplitude", 2), None)
    tpl = build_template("pqc1", 2)
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    with pytest.raises(ValueError, match="Pauli form"):
        _pull_back(factors, tpl, theta, None)
    got = _pull_back(_readout_factors(factors, tpl), tpl, theta, None)
    assert np.max(np.abs(got - z_expectations(factors, tpl, theta))) <= 1e-12


@pytest.mark.parametrize("noise", list(READOUT_NOISE))
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("name", PRESETS)
def test_heisenberg_readout_matches_kraus_forward(name, layers, noise, rng):
    # dense states (one factor) and the encoders' factored stacks, two points at once
    model = READOUT_NOISE[noise]
    for n in range(1 if name == "pqc1" else 2, 6):
        tpl = build_template(name, n, layers)
        thetas = rng.uniform(-np.pi, np.pi, (2, tpl.param_count))
        for factors in factored_inputs(n, rng, model):
            states = _expand(factors)
            want = np.stack([schrodinger_z(states, tpl, theta, model) for theta in thetas])
            assert np.max(np.abs(heisenberg_z(states, tpl, thetas, model) - want)) <= 1e-12
            assert np.max(np.abs(cone_z(factors, tpl, thetas, model) - want)) <= 1e-12


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


@pytest.mark.parametrize("noise", list(READOUT_NOISE))
def test_point_stack_readout_equals_one_point_at_a_time(noise, rng):
    # bit for bit, on dense states and on factored ones (pqc1 reads one grouped stack)
    model = READOUT_NOISE[noise]
    states = np.stack([random_density_matrix(rng, 3) for _ in range(4)])
    for tpl in [build_template(name, 3, 2) for name in PRESETS]:
        thetas = rng.uniform(-np.pi, np.pi, (3, tpl.param_count))
        for factors in [(states,)] + list(map(density_factors, factored_inputs(3, rng, model))):
            stacked = z_expectations(factors, tpl, thetas, model)
            assert stacked.shape == (3, len(factors[-1]), 3)
            single = np.stack([z_expectations(factors, tpl, theta, model) for theta in thetas])
            assert np.array_equal(stacked, single)


def test_zero_noise_readout_is_bit_identical_to_noiseless(rng):
    states = np.stack([random_density_matrix(rng, 3) for _ in range(4)])
    for name in PRESETS:
        tpl = build_template(name, 3, 2)
        theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
        clean = heisenberg_z(states, tpl, theta, None)
        zero = heisenberg_z(states, tpl, theta, NoiseModel.from_error_rate(0.0))
        assert np.array_equal(zero, clean)


def test_readout_noise_cache_keeps_levels_apart(rng):
    tpl = build_template("pqc6", 3)
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    states = np.stack([random_density_matrix(rng, 3) for _ in range(4)])
    for p in (0.05, 0.1, 0.05):
        model = NoiseModel.from_error_rate(p)
        got = heisenberg_z(states, tpl, theta, model)
        assert np.max(np.abs(got - schrodinger_z(states, tpl, theta, model))) <= 1e-12


@pytest.mark.parametrize("name,contractions", [("pqc1", 4), ("pqc6", 20)])
def test_readout_fuses_gates_into_few_contractions(name, contractions, monkeypatch):
    import quidlab.pqc as pqc

    calls = []
    contract = pqc.contract_superop
    monkeypatch.setattr(pqc, "contract_superop", lambda *a: calls.append(a) or contract(*a))
    tpl = build_template(name, 4)
    states = np.stack([random_density_matrix(np.random.default_rng(0), 4)])
    heisenberg_z(states, tpl, np.zeros(tpl.param_count), NoiseModel.from_error_rate(0.05))
    assert len(calls) == contractions


@pytest.mark.parametrize("name,n,cones", [
    ("pqc1", 5, {(q,): (q,) for q in range(5)}),
    ("pqc6", 4, {(0, 1, 2, 3): (0, 1, 2, 3)}),
    # the last CRX layer pairs (2, 1), the one before (1, 0) and (3, 2)
    ("pqc8", 4, {(0, 1): (0,), (0, 1, 2, 3): (1, 2), (2, 3): (3,)}),
])
def test_light_cones_of_the_presets(name, n, cones):
    tpl = build_template(name, n, 1)
    found = {span: qubits for span, qubits, _gates in _light_cones(tpl, (1,) * n)}
    assert found == cones  # on single-qubit factors a register is its cone


def test_narrow_cones_read_out_without_expanding(rng):
    # twelve single-qubit factors: no dense register is built for pqc1 or one-layer pqc8
    model = NoiseModel.from_error_rate(0.05)
    factors = _encode_factors(rng.uniform(0, 2 * np.pi, (3, 12)), EncoderConfig("angle", 12), model)
    for name in ("pqc1", "pqc8"):
        tpl = build_template(name, 12, 1)
        assert [f.shape for f in _readout_factors(factors, tpl)] == [f.shape for f in factors]
        assert max(len(span) for span, _, _ in _light_cones(tpl, (1,) * 12)) <= 4
        theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
        z = z_expectations(density_factors(factors), tpl, theta, model)
        assert z.shape == (3, 12) and np.all(np.abs(z) <= 1.0)


def test_light_cone_readout_refuses_states_of_another_register_size(rng):
    factors = _encode_factors(rng.uniform(0, 2 * np.pi, (2, 3)), EncoderConfig("angle", 3), None)
    tpl = build_template("pqc1", 4)
    with pytest.raises(ValueError, match="3 qubits but template wants 4"):
        z_expectations(factors, tpl, np.zeros(tpl.param_count))


@pytest.mark.parametrize("noise", list(READOUT_NOISE))
@pytest.mark.parametrize("name", ["RX", "RZ", "CRX", "CRZ"])
def test_plan_coefficients_give_each_gates_adjoint_map(name, noise, rng):
    # the plan's trigonometric coefficients against R^T, the adjoint's Pauli transfer matrix:
    # R_ab = Tr(sigma_a N(U sigma_b U^dag)) / 2^k for the gate and its noise, from explicit
    # Kraus sums on explicit Pauli strings, laid out as simcore.pauli_form lays out a vector
    model = READOUT_NOISE[noise]
    k = len(name) - 1
    coeffs = _trig_coefficients(name, noise_superop(model.entries_for(name) if model else (), k))
    thetas = np.concatenate([[0.0, np.pi, -np.pi, 2 * np.pi, 1e3], rng.uniform(-9, 9, 16)])
    maps = _rotation_maps(thetas[:, None], ((name, np.array([0]), coeffs),))[name][:, 0]
    strings = pauli_strings(k).reshape(4**k, 1 << k, 1 << k)
    kraus = [[np.kron(np.kron(np.eye(1 << q), op), np.eye(1 << (k - 1 - q))) for op in ch.operators]
             for q in range(k) for ch in (model.channels_for(name) if model else ())]
    for theta, got in zip(thetas, maps):
        u = gate_matrix(name, theta)
        want = np.empty((4**k, 4**k))
        for b, sigma in enumerate(strings):
            out = u @ sigma @ u.conj().T
            for ops in kraus:  # channels in order, after the gate
                out = sum(op @ out @ op.conj().T for op in ops)
            traces = np.einsum("aij,ji->a", strings, out) / (1 << k)
            assert np.max(np.abs(traces.imag)) <= 1e-12
            want[:, b] = traces.real
        assert np.max(np.abs(got - want.T)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_form_round_trips_through_explicit_pauli_strings(n, rng):
    # s_a = Tr(sigma_a rho) against explicit Pauli strings, and rho = sum_a s_a sigma_a / 2^n
    rho = np.stack([random_density_matrix(rng, n) for _ in range(3)])
    strings = pauli_strings(n)
    traces = np.einsum("hlij,bji->bhl", strings, rho)
    assert np.max(np.abs(traces.imag)) <= 1e-15
    form = pauli_form(rho)
    assert form.dtype == float and form.shape == rho.shape
    assert np.max(np.abs(form - traces.real)) <= 1e-15
    assert np.max(np.abs(pauli_form(-1j * rho))) <= 1e-15  # the imaginary part it drops
    assert np.max(np.abs(density_from_pauli(form) - rho)) <= 1e-15


def two_copy_contraction(stack, sop, targets, n):
    """The contraction that restores the axis order after every map: transpose-copy, matmul,
    transpose-copy back. The oracle for the carried layouts."""
    lead, n_points = stack.shape[:-2], sop.ndim - 2
    rows = [len(lead) + q for q in targets]
    front = list(range(n_points)) + rows + [q + n for q in rows]
    perm = front + [a for a in range(len(lead) + 2 * n) if a not in front]
    t = stack.reshape(lead + (2,) * (2 * n)).transpose(perm)
    moved = t.shape
    t = sop @ t.reshape(moved[:n_points] + (4 ** len(targets), -1))
    return t.reshape(moved).transpose(np.argsort(perm)).reshape(stack.shape)


def test_layouts_carried_across_blocks_match_restoring_after_each(rng):
    # contract_superop in the plan's carried axis orders, restored once at the end, and
    # apply_superop_stack, against the oracle; targets out of order and apart, and maps
    # with no, point, and point and group leading axes
    m, P, G = 4, 3, 2
    blocks = [((3, 1), 1), ((0,), 0), ((2,), 2), ((0, 3), 2), ((1, 2), 0), ((2, 0), 1)]
    leads = {0: (), 1: (P,), 2: (P, G)}
    shape = (P, G, 1 << m, 1 << m)
    obs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    perms, final = _layouts(tuple(blocks), m, 2)
    carried, stepped, want = obs.reshape((P, G) + (2,) * (2 * m)), obs, obs
    for (targets, lead), perm in zip(blocks, perms):
        d = (4 ** len(targets),) * 2
        sop = rng.standard_normal(leads[lead] + d) + 1j * rng.standard_normal(leads[lead] + d)
        carried = contract_superop(carried, sop, perm, len(targets))
        stepped = apply_superop_stack(stepped, sop, targets, m)
        want = two_copy_contraction(want, sop, targets, m)
        assert np.max(np.abs(stepped - want)) <= 1e-12 * np.max(np.abs(want))
    got = carried.transpose(final).reshape(shape)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_readout_plan_lookup_builds_nothing_for_an_equal_template(monkeypatch, rng):
    import pickle

    import quidlab.pqc as pqc

    model = NoiseModel.from_error_rate(0.05)
    factors = density_factors(_encode_factors(rng.uniform(0, 2 * np.pi, (3, 8)),
                                              EncoderConfig("angle", 4, 2), model))
    tpl = build_template("pqc6", 4)
    theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
    first = z_expectations(factors, tpl, theta, model)
    built = pqc._readout_plan.cache_info().misses
    compared = []
    eq = TemplateGate.__eq__
    monkeypatch.setattr(TemplateGate, "__eq__", lambda a, b: compared.append(a) or eq(a, b))
    for again in (build_template("pqc6", 4), pickle.loads(pickle.dumps(tpl))):  # equal, not tpl
        assert again is not tpl and again == tpl and hash(again) == hash(tpl)
        assert np.array_equal(z_expectations(factors, again, theta, model), first)
    assert pqc._readout_plan.cache_info().misses == built
    assert compared == []
    assert build_template("pqc6", 4, 2) != tpl and build_template("pqc8", 4) != tpl


@pytest.mark.parametrize("name", ["pqc6", "pqc8"])
@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("points", [1, 2])
def test_dense_readout_peaks_within_the_capacity_factor(name, n, points, rng):
    # _check_readout sizes a group at _READOUT_PEAK times its observable and state stacks
    import tracemalloc

    model = NoiseModel.from_error_rate(0.05)
    tpl = build_template(name, n)
    factors = _encode_factors(rng.uniform(0, 2 * np.pi, (1, n)), EncoderConfig("angle", n), model)
    states = (_kron_factors(factors),)  # Pauli forms: one dense group of n observables, one row
    theta = rng.uniform(-np.pi, np.pi, (points, tpl.param_count))
    _pull_back(states, tpl, theta, model)  # the plan, built once
    tracemalloc.start()
    try:
        _pull_back(states, tpl, theta, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured at most 3.16x, pqc6 at 6 qubits and two points, where the rotation maps weigh most
    assert peak + states[0].nbytes <= _READOUT_PEAK * 8 * 4**n * (points * n + 1), peak
