import itertools
import math

import numpy as np
import pytest

from zenosim import report
from zenosim.ghz import (
    GhzDiagnostics,
    entangling_time,
    ghz_fidelity,
    rotation_pulse,
    run_ghz_protocol,
)
from zenosim.cli import main
from zenosim.linalg import mat_exp
from zenosim.models import SIGMA_X, SIGMA_Y, build_ghz_hamiltonian

from oracles import qubit_permutation_operator, taylor_expm

COUPLING_GRID = [(0.02, 0.005), (0.03, 0.01), (0.01, -0.01)]


def basis_state(index: int, dim: int = 8) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestRotationPulse:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_pulse("x", 0.0), np.eye(8), atol=1e-15)

    def test_y_half_pi_gives_uniform_superposition(self):
        psi = rotation_pulse("y", math.pi / 2) @ basis_state(0)
        np.testing.assert_allclose(psi, np.full(8, 1 / math.sqrt(8)), atol=1e-12)
        assert np.max(np.abs(psi.imag)) <= 1e-12
        assert np.min(psi.real) > 0

    def test_full_turn_is_minus_identity(self):
        # each spinor picks up -1 under a 2*pi rotation, three qubits give (-1)^3
        np.testing.assert_allclose(rotation_pulse("x", 2 * math.pi), -np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("axis,theta", [("x", 0.7), ("y", -1.3), ("x", math.pi / 2)])
    def test_unitary_and_kron_factorized(self, axis, theta):
        u = rotation_pulse(axis, theta)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
        sigma = SIGMA_X if axis == "x" else SIGMA_Y
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        single = c * np.eye(2) - 1j * s * sigma
        np.testing.assert_allclose(u, np.kron(np.kron(single, single), single), atol=1e-12)
        # bit for bit the Kronecker product of the pulse's own single-qubit factor
        factor = mat_exp(sigma, -0.5j * theta)
        assert np.array_equal(bits(u), bits(np.kron(np.kron(factor, factor), factor)))

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            rotation_pulse("z", 0.5)


class TestEntanglingTime:
    def test_reference_value(self):
        assert abs(entangling_time(0.02, 0.005) - math.pi / 0.03) <= 1e-12

    def test_symmetric_in_couplings(self):
        assert entangling_time(0.02, 0.005) == entangling_time(0.005, 0.02)

    def test_scaling(self):
        assert entangling_time(0.04, 0.01) == pytest.approx(
            entangling_time(0.02, 0.005) / 2, rel=1e-14
        )

    def test_rejects_equal_couplings(self):
        with pytest.raises(ValueError):
            entangling_time(0.02, 0.02)

    def test_rejects_a_non_finite_coupling(self):
        with pytest.raises(ValueError, match="couplings must be finite"):
            entangling_time(math.nan, 0.0)

    @pytest.mark.parametrize("g,g_tilde", [(1e-320, 0.0), (1e308, -1e308)])
    def test_rejects_a_time_past_the_float_range(self, g, g_tilde, capsys):
        # pi / (2|g - g_tilde|) is inf for the first pair and 0 for the second;
        # the couplings alone decide it, so the CLI rejects them as a config error
        with pytest.raises(ValueError, match="not finite and positive"):
            entangling_time(g, g_tilde)
        assert main(["ghz", f"--g={g!r}", f"--g-tilde={g_tilde!r}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: entangling time") and f"g = {g!r}" in err


class TestProtocol:
    @pytest.mark.parametrize("g,g_tilde", COUPLING_GRID)
    def test_fidelity_is_one(self, g, g_tilde):
        _, diag = run_ghz_protocol(g, g_tilde)
        assert diag.fidelity >= 1.0 - 1e-9

    @pytest.mark.parametrize("g,g_tilde", COUPLING_GRID)
    def test_against_brute_force_propagator(self, g, g_tilde):
        psi, _ = run_ghz_protocol(g, g_tilde)
        h = build_ghz_hamiltonian(np.zeros((3, 3)), g, g_tilde)
        u_int = taylor_expm(h, -1j * entangling_time(g, g_tilde), terms=60)
        reference = (
            rotation_pulse("x", math.pi / 2)
            @ u_int
            @ rotation_pulse("y", math.pi / 2)
            @ basis_state(0)
        )
        np.testing.assert_allclose(psi, reference, atol=1e-12)

    def test_state_is_bitwise_that_of_kron_pulses_applied_to_000(self):
        rng = np.random.default_rng(2008)
        pairs = COUPLING_GRID + (10.0 ** rng.uniform(-4.0, 0.0, size=(20, 2))
                                 * rng.choice([-1.0, 1.0], size=(20, 2))).tolist()

        def pulse(sigma):
            s = mat_exp(sigma, -0.5j * (math.pi / 2))
            return np.kron(np.kron(s, s), s)

        for g, g_tilde in pairs:
            psi, _ = run_ghz_protocol(g, g_tilde)
            h = build_ghz_hamiltonian(np.zeros((3, 3)), g, g_tilde)
            u_int = mat_exp(h, -1j * entangling_time(g, g_tilde))
            reference = pulse(SIGMA_X) @ (u_int @ (pulse(SIGMA_Y) @ basis_state(0)))
            assert np.array_equal(bits(psi), bits(reference)), (g, g_tilde)

    def test_intermediate_state_is_uniform(self):
        psi = rotation_pulse("y", math.pi / 2) @ basis_state(0)
        assert ghz_fidelity(psi).uniformity_deviation <= 1e-12

    def test_no_weight_outside_ghz_pair(self):
        psi, _ = run_ghz_protocol(0.02, 0.005)
        assert np.max(np.abs(psi[1:7])) <= 1e-9

    def test_final_state_permutation_invariant(self):
        psi, _ = run_ghz_protocol(0.02, 0.005)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 0, 1)):
            p = qubit_permutation_operator(perm)
            np.testing.assert_allclose(p @ psi, psi, atol=1e-10)

    def test_propagates_divergent_time_error(self):
        with pytest.raises(ValueError):
            run_ghz_protocol(0.01, 0.01)


class TestGhzFidelity:
    def test_perfect_ghz(self):
        psi = (basis_state(0) + basis_state(7)) / math.sqrt(2)
        diag = ghz_fidelity(psi)
        assert diag.fidelity == pytest.approx(1.0, abs=1e-15)

    def test_phase_of_the_pair_does_not_matter(self):
        psi = (basis_state(0) + 1j * basis_state(7)) / math.sqrt(2)
        assert ghz_fidelity(psi).fidelity == pytest.approx(1.0, abs=1e-15)

    def test_product_state(self):
        assert ghz_fidelity(basis_state(0)).fidelity == pytest.approx(0.5, abs=1e-15)

    def test_uniform_state(self):
        psi = np.full(8, 1 / math.sqrt(8), dtype=complex)
        diag = ghz_fidelity(psi)
        assert diag.fidelity == pytest.approx(0.25, abs=1e-14)
        assert diag.uniformity_deviation <= 1e-15

    def test_diagnostics_ranges_on_protocol_grid(self):
        for g, g_tilde in COUPLING_GRID:
            _, diag = run_ghz_protocol(g, g_tilde)
            assert isinstance(diag, GhzDiagnostics)
            assert 0.0 <= diag.fidelity <= 1.0
            assert 0.0 <= diag.uniformity_deviation <= 7 / 8
            assert -math.pi <= diag.global_phase <= math.pi

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            ghz_fidelity(np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ghz_fidelity(np.full(8, 0.5, dtype=complex) * 2)

    def test_rejects_a_non_finite_state(self):
        with pytest.raises(ValueError, match="non-finite"):
            ghz_fidelity([np.nan] + [0.0] * 7)


class TestThreeLevelRegister:
    """27 amplitudes, three levels per qubit: |111> sits at index 13."""

    computational = [0, 1, 3, 4, 9, 10, 12, 13]

    def test_perfect_ghz(self):
        psi = (basis_state(0, 27) + basis_state(13, 27)) / math.sqrt(2)
        assert ghz_fidelity(psi).fidelity == pytest.approx(1.0, abs=1e-15)

    def test_uniform_over_the_computational_states(self):
        psi = sum(basis_state(k, 27) for k in self.computational) / math.sqrt(8)
        diag = ghz_fidelity(psi)
        assert diag.uniformity_deviation <= 1e-15
        assert diag.fidelity == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("dim", [1, 9, 26])
    def test_rejects_a_length_that_is_not_a_cube(self, dim):
        with pytest.raises(ValueError, match=r"d\*\*3"):
            ghz_fidelity(basis_state(0, dim))

    def test_csv_labels_are_the_level_digits(self, tmp_path):
        out = tmp_path / "out.csv"
        report._emit_ghz_csv(basis_state(13, 27), out)
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            "".join(digits) for digits in itertools.product("012", repeat=3)]
        assert rows[13] == "111,1,0,1"
