import numpy as np
import pytest

from flagcurv.homspace import build_space, SubalgebraSpec
from flagcurv.liealg import build_lie_algebra, _quat_to_real
from flagcurv.minkowski import make_norm
from flagcurv.curvature import flag_curvature
from flagcurv import numdiff
from flagcurv.flatfinder import (
    ExampleParameterError,
    construct_example_flat,
    example1_speed_separation,
    extremal_unit_vector,
    generic_flat_search,
    verify_closure_claims,
)

S = SubalgebraSpec


@pytest.fixture(scope="module")
def ex1():
    return construct_example_flat(1, {"p": 2, "q": 1})


@pytest.fixture(scope="module")
def ex2():
    return construct_example_flat(2)


@pytest.fixture(scope="module")
def ex3():
    return construct_example_flat(3, {"p": 2, "q": 1})


@pytest.fixture(scope="module")
def ex4():
    return construct_example_flat(4)


@pytest.fixture(scope="module")
def ex5():
    return construct_example_flat(5)


@pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex3", "ex4", "ex5"])
def test_catalog_flags_certify_flat(fixture, request):
    ex = request.getfixturevalue(fixture)
    for flag in ex.flags:
        cert = flag_curvature(ex.space, flag.norm, flag.u, flag.v)
        assert cert.verdict == "zero_flag"
        assert abs(cert.curvature) < 1e-7
        assert max(cert.zero_residuals) < 1e-8


@pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex3", "ex4", "ex5"])
def test_certificates_reverify_with_halved_step(fixture, request):
    ex = request.getfixturevalue(fixture)
    flag = ex.flags[0]
    cert = flag_curvature(
        ex.space, flag.norm, flag.u, flag.v, gram_step=numdiff.DEFAULT_STEP / 2
    )
    assert cert.verdict == "zero_flag"
    assert abs(cert.curvature) < 1e-6


@pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex5"])
def test_closure_claims_pass(fixture, request):
    ex = request.getfixturevalue(fixture)
    report = verify_closure_claims(ex)
    assert report, "constructions with an auxiliary subspace must carry claims"
    for entry in report:
        assert entry["passes"], entry


def test_closure_negative_control(ex1):
    wrong = ex1.m_prime[:-2]  # drop one root plane
    report = verify_closure_claims(ex1, m_prime=wrong)
    assert any(entry["residual"] > 1e-3 for entry in report)


def test_narrow_target_for_the_second_vector_fails(ex2):
    # the tempting smaller closure target for v omits the rotation line;
    # the verifier records that residual alongside the correct claim
    report = verify_closure_claims(ex2)
    v_claim = [e for e in report if e["vector"] == "v"][0]
    assert v_claim["passes"]
    assert v_claim["narrow_residual"] > 1e-3
    assert "note" in v_claim


def test_example1_parameter_validation():
    for bad in ({"p": 2, "q": 2}, {"p": 1, "q": 2}, {"p": 0, "q": -1}):
        with pytest.raises(ExampleParameterError):
            construct_example_flat(1, bad)
    for excluded in ((1, 0), (1, 1), (3, -1)):
        with pytest.raises(ExampleParameterError, match="excludes"):
            construct_example_flat(1, {"p": excluded[0], "q": excluded[1]})
    # (1,-1) already violates the sign constraint
    with pytest.raises(ExampleParameterError):
        construct_example_flat(1, {"p": 1, "q": -1})


def test_example3_parameter_validation():
    with pytest.raises(ExampleParameterError):
        construct_example_flat(3, {"p": 4, "q": 2})
    with pytest.raises(ExampleParameterError):
        construct_example_flat(3, {"p": 1, "q": 2})
    with pytest.raises(ExampleParameterError, match="excludes"):
        construct_example_flat(3, {"p": 3, "q": 1})
    with pytest.raises(ExampleParameterError):
        construct_example_flat(7)


def test_example1_speed_separation_diagnostic():
    assert example1_speed_separation(2, 1)["separated"]
    # at (1,1) the distinguished summand shares its speed with the rest
    diag = example1_speed_separation(1, 1)
    assert not diag["separated"]
    assert diag["speeds"]["plane_summand"] in diag["speeds"]["rest"]


def test_example4_auxiliary_action(ex4):
    for flag in ex4.flags:
        assert flag.aux["pole_reversal_residual"] < 1e-12
        assert flag.aux["gram_preservation_residual"] < 1e-8
    assert ex4.flags[0].aux["speeds"] == [1, 7, 6, 2, 3, 5, 4, 2]


def test_example5_block_action(ex5):
    eigs = ex5.flags[0].aux["block_rotation_eigenvalues"]
    m0 = np.array([complex(z["re"], z["im"]) if isinstance(z, dict) else complex(z) for z in eigs["m0"]]) \
        if isinstance(eigs["m0"][0], dict) else np.asarray(eigs["m0"], dtype=complex)
    m1 = np.asarray(eigs["m1"], dtype=complex)
    m2 = np.asarray(eigs["m2"], dtype=complex)
    assert np.abs(m0 - 1.0).max() < 1e-9
    assert np.abs(m1 + 1.0).max() < 1e-9
    target = np.exp(1j * np.pi / 3)
    for z in m2:
        assert min(abs(z - target), abs(z - target.conjugate())) < 1e-9
    assert ex5.notes["decomposition_dims"] == [3, 4, 4]


def test_extremal_stationarity(ex2):
    for flag in ex2.flags:
        assert flag.aux["extremal"]["stationarity"] < 1e-8
        assert flag.aux["alignment_residual"] < 1e-10


def test_extremal_on_one_dimensional_subspace(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=1)
    sub = np.zeros((1, sp2_circle21.dim_m))
    sub[0, 0] = 1.0
    u, info = extremal_unit_vector(F, sub, seed=0)
    assert abs(F.value(u) - 1.0) < 1e-12
    assert info["stationarity"] < 1e-10


def test_extremal_isotropic_restriction(sp2_circle21):
    # restricted to a single root plane every quartic norm here is round,
    # so every unit vector is stationary
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=1)
    sl = sp2_circle21.root_plane_slice((2, 0))
    sub = np.zeros((2, sp2_circle21.dim_m))
    sub[0, sl[0]] = 1.0
    sub[1, sl[0] + 1] = 1.0
    u, info = extremal_unit_vector(F, sub, seed=4)
    assert info["stationarity"] < 1e-10


def test_search_finds_the_catalog3_orbit(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3)
    assert generic_flat_search(sp2_circle21, F, budget=0, seed=0) == []
    certs = generic_flat_search(sp2_circle21, F, budget=60, seed=0)
    flats = [c for c in certs if c.verdict == "zero_flag"]
    assert len(flats) >= 1
    # the certified flags live on the distinguished pair of planes
    for cert in flats:
        cert2 = flag_curvature(sp2_circle21, F, cert.u, cert.v)
        assert cert2.verdict == "zero_flag"


def test_search_determinism(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3)
    a = generic_flat_search(sp2_circle21, F, budget=40, seed=7)
    b = generic_flat_search(sp2_circle21, F, budget=40, seed=7)
    assert len(a) == len(b)
    for c1, c2 in zip(a, b):
        assert np.allclose(c1.u, c2.u) and np.allclose(c1.v, c2.v)
        assert c1.verdict == c2.verdict


def test_search_empty_when_no_commuting_pairs():
    g = build_lie_algebra("su", 2)
    X = build_space(g, [])
    F = make_norm("riemannian", {}, X, seed=0)
    certs = generic_flat_search(X, F, budget=20, seed=1)
    assert [c for c in certs if c.verdict == "zero_flag"] == []


def test_search_on_symmetric_space(sp2):
    # u(2) inside sp(2): complex entries among the quaternions
    n, zero = 2, np.zeros((2, 2), dtype=complex)
    mats = []
    for (i, j, val) in ((0, 0, 1j), (1, 1, 1j)):
        A = zero.copy()
        A[i, j] = val
        mats.append(_quat_to_real(A, zero))
    A = zero.copy(); A[0, 1] = 1.0; A[1, 0] = -1.0
    mats.append(_quat_to_real(A, zero))
    A = zero.copy(); A[0, 1] = 1j; A[1, 0] = 1j
    mats.append(_quat_to_real(A, zero))
    X = build_space(sp2, [S.explicit(mats)])
    assert X.dim_m == 6
    F = make_norm("riemannian", {"q": np.eye(X.dim_m)}, X, seed=0)
    certs = generic_flat_search(X, F, budget=15, seed=2)
    assert any(c.verdict == "zero_flag" for c in certs)


@pytest.mark.parametrize(
    "example_id,params",
    [(1, {"p": 3, "q": 2}), (1, {"p": 2, "q": -1}), (3, {"p": 4, "q": 1}), (3, {"p": 5, "q": 2})],
)
def test_catalog_certifies_across_parameters(example_id, params):
    ex = construct_example_flat(example_id, params, epsilons=(0.1,), seed=11, u_angle=1.1, v_angle=-2.0)
    flag = ex.flags[0]
    cert = flag_curvature(ex.space, flag.norm, flag.u, flag.v)
    assert cert.verdict == "zero_flag"
    assert max(cert.zero_residuals) < 1e-8


def test_search_on_orthogonal_family():
    # a block quotient with no fully commuting pairs yields nothing, while a
    # deep circle quotient certifies flats
    so7 = build_lie_algebra("so", 7)
    X = build_space(so7, [S.block(1, 2, 3, 4, 5)])
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, X, seed=1)
    certs = generic_flat_search(X, F, budget=25, seed=3)
    assert [c for c in certs if c.verdict == "zero_flag"] == []

    so6 = build_lie_algebra("so", 6)
    X2 = build_space(so6, [S.circle(1, 2, 0)])
    F2 = make_norm("quartic_perturbed", {"epsilon": 0.1}, X2, seed=2)
    certs2 = generic_flat_search(X2, F2, budget=12, seed=4)
    assert any(c.verdict == "zero_flag" for c in certs2)
