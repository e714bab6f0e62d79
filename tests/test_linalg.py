import numpy as np
import pytest

from zenosim.linalg import apply, is_hermitian, kron, mat_exp

from oracles import taylor_expm

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def unit_disk_matrix(rng, dim: int) -> np.ndarray:
    radius = np.sqrt(rng.uniform(size=(dim, dim)))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(dim, dim))
    return radius * np.exp(1j * angle)


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = unit_disk_matrix(rng, dim)
    return 0.5 * (a + a.conj().T)


class TestMatExp:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(
            mat_exp(np.zeros((3, 3)), -1j), np.eye(3), atol=1e-15
        )
        np.testing.assert_allclose(
            mat_exp(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-15
        )

    def test_sigma_y_quarter_rotation(self):
        # exp(-i theta sigma_y) = cos(theta) I - i sin(theta) sigma_y
        theta = np.pi / 4
        c, s = np.cos(theta), np.sin(theta)
        expected = np.array([[c, -s], [s, c]], dtype=complex)
        np.testing.assert_allclose(mat_exp(SIGMA_Y, -1j * theta), expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_taylor_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        a = unit_disk_matrix(rng, 3)
        np.testing.assert_allclose(mat_exp(a, -1j), taylor_expm(a, -1j), atol=1e-10)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_hermitian_propagator_is_unitary(self, t):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        u = mat_exp(h, -1j * t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_forward_backward_is_identity(self, t):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 3)
        prod = mat_exp(h, -1j * t) @ mat_exp(h, 1j * t)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-10)

    def test_exponent_additivity(self):
        rng = np.random.default_rng(9)
        for a in (random_hermitian(rng, 3), unit_disk_matrix(rng, 3)):
            s1, s2 = -0.4j, 0.25 + 0.1j
            lhs = mat_exp(a, s1) @ mat_exp(a, s2)
            np.testing.assert_allclose(lhs, mat_exp(a, s1 + s2), atol=1e-9)

    def test_norm_preserved_under_hermitian_evolution(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 3)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        out = apply(mat_exp(h, -1j * 2.3), psi)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_rejects_non_finite_entries(self):
        bad = np.array([[0, np.inf], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            mat_exp(bad, 1.0)
        with pytest.raises(ValueError):
            mat_exp(np.eye(2), complex(np.nan, 0.0))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_phase_past_the_float_range(self):
        assert np.all(np.isfinite(mat_exp(np.diag([1e15, 0.0]), -1j)))
        h = np.diag([1e308, 0.0])
        # finite, but the last place of the phase 1e308 is far more than a radian
        with pytest.raises(ValueError, match="has no digit left"):
            mat_exp(h, -1j)
        with pytest.raises(ValueError, match="past the float range"):
            mat_exp(h, -2j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,s", [
        ([[1e308, 1], [0, -1j]], -5j),              # s*A overflows
        ([[1.7e308, 1.7e308], [0, -1j]], 1.0),      # the norm of s*A overflows
        ([[1, 1], [0, -1j]], 1e300),                # the squared-up result overflows
        ([[1.5e308, 0], [0, -1j]], 1.0),            # so does exp(1.5e308)
        (np.eye(2), 1000.0),                        # Hermitian: exp(1000) overflows
    ], ids=["product", "norm", "squaring", "result", "hermitian"])
    def test_rejects_an_exponential_past_the_float_range(self, a, s):
        with pytest.raises(ValueError, match="past the float range"):
            mat_exp(a, s)

    @pytest.mark.filterwarnings("error")
    def test_scales_a_norm_above_2_to_the_1022(self):
        # the scaling factor 2**-1025 is subnormal, but 2**1025 is past the float range
        expected = np.diag([0.0, np.exp(1j)])
        np.testing.assert_allclose(mat_exp([[1.5e308, 0], [0, -1j]], -1.0), expected,
                                   atol=1e-15)


class TestApply:
    def test_identity(self):
        psi = np.array([0.6, 0.8j])
        np.testing.assert_array_equal(apply(np.eye(2), psi), psi)

    def test_permutation(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_array_equal(apply(swap, [1, 0]), np.array([0, 1], dtype=complex))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        u = unit_disk_matrix(rng, 3)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        expected = np.array(
            [sum(u[i, j] * psi[j] for j in range(3)) for i in range(3)]
        )
        np.testing.assert_allclose(apply(u, psi), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(np.eye(3), [1, 0])


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_on_first_qubit(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        e0 = np.zeros(4)
        e0[0] = 1.0
        out = apply(kron(sx, np.eye(2)), e0)
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(12)
        a, b = unit_disk_matrix(rng, 2), unit_disk_matrix(rng, 2)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = apply(kron(a, b), np.kron(u, v))
        rhs = np.kron(a @ u, b @ v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_associativity(self):
        rng = np.random.default_rng(13)
        a, b, c = (unit_disk_matrix(rng, 2) for _ in range(3))
        np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.zeros((2, 3)), np.eye(2))


class TestIsHermitian:
    def test_detects_hermitian(self):
        assert is_hermitian(np.array([[1.0, 2j], [-2j, 3.0]]))

    def test_detects_non_hermitian(self):
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
