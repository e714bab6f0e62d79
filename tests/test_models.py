import math

import numpy as np
import pytest

from zenosim.ghz import run_ghz_protocol
from zenosim.linalg import mat_exp
from zenosim.models import (
    build_ghz_hamiltonian,
    build_three_level,
    build_tunneling,
    build_two_level,
)

from oracles import (
    brute_force_three_qubit_h,
    build_three_level_ideal,
    kron_three_qubit_h,
    qubit_permutation_operator,
)

OMEGA, PHI_Y, ETA = 0.05, -math.pi / 2, -0.2


class TestTwoLevel:
    def test_zero_coupling(self):
        np.testing.assert_array_equal(build_two_level(0.0), np.zeros((2, 2)))

    def test_unit_coupling(self):
        np.testing.assert_array_equal(
            build_two_level(1.0), np.array([[0, 1], [1, 0]], dtype=complex)
        )

    def test_hermitian_and_traceless(self):
        h = build_two_level(0.37)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-15
        assert h.trace() == 0


class TestThreeLevel:
    def test_y_drive_matrix(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        s2 = math.sqrt(2.0)
        expected = np.array(
            [
                [0, -0.05j, 0],
                [0.05j, 0, -0.05 * s2 * 1j],
                [0, 0.05 * s2 * 1j, -0.2],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_zero_drive_is_diagonal(self):
        np.testing.assert_array_equal(
            build_three_level(0.0, 0.3, ETA), np.diag([0.0, 0.0, ETA]).astype(complex)
        )

    def test_zero_phase_gives_real_offdiagonals(self):
        h = build_three_level(0.07, 0.0, ETA)
        assert np.max(np.abs(h.imag)) <= 1e-15

    def test_phase_periodicity(self):
        h1 = build_three_level(0.05, 0.4, ETA)
        h2 = build_three_level(0.05, 0.4 + 2 * math.pi, ETA)
        np.testing.assert_allclose(h1, h2, atol=1e-12)


class TestThreeLevelIdeal:
    def test_differs_only_in_leak_coupling(self):
        full = build_three_level(OMEGA, PHI_Y, ETA)
        ideal = build_three_level_ideal(OMEGA, ETA)
        diff = full - ideal
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = mask[2, 1] = True
        assert np.max(np.abs(diff[~mask])) <= 1e-15
        assert np.min(np.abs(diff[mask])) > 0.05

    def test_no_leakage_from_computational_subspace(self):
        ideal = build_three_level_ideal(OMEGA, ETA)
        psi = np.array([1, 0, 0], dtype=complex)
        for t in (0.7, 5.0, 31.0):
            p3 = abs((mat_exp(ideal, -1j * t) @ psi)[2]) ** 2
            assert p3 <= 1e-20

    def test_commutes_with_projector(self):
        ideal = build_three_level_ideal(OMEGA, ETA)
        p = np.diag([1, 1, 0])
        np.testing.assert_allclose(ideal @ p, p @ ideal, atol=1e-15)


class TestTunneling:
    def test_gamma_zero_matches_y_drive(self):
        np.testing.assert_array_equal(
            build_tunneling(OMEGA, ETA, 0.0), build_three_level(OMEGA, PHI_Y, ETA)
        )

    def test_decay_entry(self):
        h = build_tunneling(0.05, ETA, 40.0)
        assert h[2, 2] == ETA - 20j

    def test_anti_hermitian_part(self):
        h = build_tunneling(0.05, ETA, 40.0)
        anti = 0.5 * (h - h.conj().T)
        np.testing.assert_allclose(anti, np.diag([0, 0, -20j]), atol=1e-15)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            build_tunneling(0.05, ETA, -1.0)


class TestGhzHamiltonian:
    def test_all_zero(self):
        h = build_ghz_hamiltonian(np.zeros((3, 3)), 0.0, 0.0)
        np.testing.assert_array_equal(h, np.zeros((8, 8)))

    def test_ground_expectation_of_zz(self):
        # three aligned pairs, each ZZ giving +1, at half weight each
        g_tilde = 0.013
        h = build_ghz_hamiltonian(np.zeros((3, 3)), 0.0, g_tilde)
        assert abs(h[0, 0] - 1.5 * g_tilde) <= 1e-15

    def test_matches_brute_force_construction(self):
        rng = np.random.default_rng(21)
        vecs = rng.normal(scale=0.1, size=(3, 3))
        h = build_ghz_hamiltonian(vecs, 0.02, 0.005)
        np.testing.assert_allclose(
            h, brute_force_three_qubit_h(vecs, 0.02, 0.005), atol=1e-14
        )

    def test_coupling_matrix_is_bitwise_the_kronecker_sum(self):
        # The three pairs of acceptance criterion 7, signed zeros, subnormals,
        # equal couplings, then seeded pairs over 14 decades and both signs.
        pairs = [(0.02, 0.005), (0.03, 0.01), (0.01, -0.01), (0.0, 0.0), (-0.0, 0.5),
                 (-0.0, -0.0), (5e-324, 0.01), (3e-323, -7e-324), (0.02, 0.02)]
        rng = np.random.default_rng(2008)
        magnitudes = 10.0 ** rng.uniform(-12.0, 2.0, size=(200, 2))
        pairs += (magnitudes * rng.choice([-1.0, 1.0], size=(200, 2))).tolist()

        def bits(h):
            return np.stack([h.real.view(np.uint64), h.imag.view(np.uint64)])

        zero = np.zeros((3, 3))
        differ = [(g, g_tilde) for g, g_tilde in pairs
                  if not np.array_equal(bits(build_ghz_hamiltonian(zero, g, g_tilde)),
                                        bits(kron_three_qubit_h(zero, g, g_tilde)))]
        assert differ == []

    def test_driven_matrix_matches_the_kronecker_sum(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            vecs = rng.uniform(-1.0, 1.0, size=(3, 3))
            g, g_tilde = rng.uniform(-1.0, 1.0, size=2)
            h = build_ghz_hamiltonian(vecs, g, g_tilde)
            assert np.max(np.abs(h - kron_three_qubit_h(vecs, g, g_tilde))) <= 1e-15

    def test_symmetric_two_excitation_eigenvector(self):
        h = brute_force_three_qubit_h(np.zeros((3, 3)), 0.02, 0.005)
        v = np.zeros(8, dtype=complex)
        v[[3, 5, 6]] = 1.0 / math.sqrt(3.0)  # |011>, |101>, |110>
        hv = h @ v
        lam = np.vdot(v, hv)
        assert np.linalg.norm(hv - lam * v) <= 1e-12
        hv2 = build_ghz_hamiltonian(np.zeros((3, 3)), 0.02, 0.005) @ v
        np.testing.assert_allclose(hv2, hv, atol=1e-14)

    def test_permutation_invariance_with_equal_drives(self):
        vec = np.array([0.1, 0.2, -0.05])
        h = build_ghz_hamiltonian(np.tile(vec, (3, 1)), 0.02, 0.005)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 0, 1)):
            p = qubit_permutation_operator(perm)
            np.testing.assert_allclose(p.conj().T @ h @ p, h, atol=1e-13)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_ghz_hamiltonian(np.zeros((2, 3)), 0.0, 0.0)

    def test_rejects_non_finite_drives(self):
        drives = np.zeros((3, 3))
        drives[1, 2] = np.nan
        with pytest.raises(ValueError, match="omega_vecs has non-finite entries"):
            build_ghz_hamiltonian(drives, 0.02, 0.005)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_two_level(0.37),
        lambda: build_three_level(0.05, 0.8, ETA),
        lambda: build_three_level_ideal(0.05, ETA),
        lambda: build_tunneling(0.05, ETA, 0.0),
        lambda: build_ghz_hamiltonian(np.full((3, 3), 0.03), 0.02, 0.005),
    ],
)
def test_builders_return_hermitian(builder):
    h = builder()
    assert np.max(np.abs(h - h.conj().T)) <= 1e-15


@pytest.mark.parametrize("build,message", [
    (lambda: build_two_level(math.nan), "v must be finite, got nan"),
    (lambda: build_three_level(0.05, math.inf, ETA), "phi must be finite, got inf"),
    (lambda: build_tunneling(0.05, ETA, math.nan), "gamma must be finite, got nan"),
    (lambda: run_ghz_protocol(math.nan, 0.0), "g must be finite, got nan"),
], ids=["two_level", "three_level", "tunneling", "ghz"])
def test_builders_reject_non_finite_parameters(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
