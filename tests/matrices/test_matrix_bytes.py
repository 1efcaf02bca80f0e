"""The bytes of every matrix a :class:`MatrixSpec` can build.

Each digest is SHA-256 over the CSR ``data``, ``indices`` and ``indptr``
arrays and the right-hand side ``b``, recorded at commit ``acf98ef``,
when three modules still built the Laplacians.  A change to how a
matrix is built that moves one of its bits fails here, before it can
move a fingerprint.  ``indices``/``indptr`` are cast to int64 first:
SciPy picks the index dtype, and it reaches no result bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.campaign.spec import MATRIX_FAMILIES, MatrixSpec
from repro.config import DEFAULT_SEED
from repro.matrices.suite import PAPER_MATRICES

#: ``(family, params, rhs_seed) -> (sparse=True digest, sparse=False digest)``.
PARAMETRIC = {
    ("laplacian1d", (("n", 37),), DEFAULT_SEED): (
        "96b72fb6538d5d95a0e21f29437fd20a0c6d05d996eac90cf8e749396cffd447",
        "7921f36eb5816c64185cfddd3f289f993f9b8ef40c144b05c555ba59cec2d08a"),
    ("laplacian2d", (("nx", 7), ("ny", 5)), DEFAULT_SEED): (
        "302932f083f83d38df18c872d9f536a757695a8c40a4ddf300776935bb51cf66",
        "ba310d27d01f28b0be44782c7a1d713e54457bca715217e5c1efcc923650714c"),
    ("laplacian2d", (("nx", 6),), DEFAULT_SEED): (
        "77060cdd1378481e8a16b90e0c33b66adc00d72d096f3b307ba463128800e134",
        "f1873dea9f215f5b03571538355dd283eded468da8d5c42d4c41d9fb8fd0e979"),
    ("poisson2d", (("nx", 7), ("ny", 5)), DEFAULT_SEED): (
        "302932f083f83d38df18c872d9f536a757695a8c40a4ddf300776935bb51cf66",
        "ba310d27d01f28b0be44782c7a1d713e54457bca715217e5c1efcc923650714c"),
    ("poisson2d", (("nx", 6),), 11): (
        "d79d297b27e3ccb20a40d7242e805ce8c80637f14caea9e5cee533bd3291bf50",
        "4913b680384a2dfa3e2ad7b5135144382f4947c64306ceb7b6d2e3dd07245711"),
    ("poisson3d27", (("nx", 4),), DEFAULT_SEED): (
        "f5909eef4a06ea78e1a92651ba799dabed3be936c99cc082a53a1e65f4549ff5",
        "b8ed8f5f17ef1ec1647d8166c2d4adad475657b74ed7e78921359159d172b91f"),
    # the seedless ``b = A·1`` of the Figure 5 calibration
    ("poisson3d27", (("nx", 4),), None): (
        "2b09fdfea052cf3856df1819474f2fa4f9dc22c61c41a1ceb23a964e2bb6e319",
        "2b09fdfea052cf3856df1819474f2fa4f9dc22c61c41a1ceb23a964e2bb6e319"),
}

#: ``suite name -> (sparse=True digest, sparse=False digest)``.
SUITE = {
    "af_shell8": (
        "f1b6735a929e07808b8be4b62bf506ff93c7f5ba5c11ebf39ebb7d949553cb5b",
        "830889870e613c5e2b89d7e295db15d100be0f92a39f8a9290ced19094a8df94"),
    "cfd2": (
        "4b4ca133436b838e0bde6ee6126cf925c3b73e4bb7feac3b6a62460e5b3f474b",
        "250fbff09921aaff72df1fdd75a6c36d34700b839c5b006d66d32cc148f7a21f"),
    "consph": (
        "d78ad9df65f1d255352d28aa3d748d5f8671136e9a88bcffefa2c6eeaa6e2d52",
        "5b29ac3d3e75e4869f1eda3fd0cfb79554d75548e87ece183f1046c829569c1b"),
    "Dubcova3": (
        "6bda8551bc89cab987cabfff54024a92d7dd4f7a300c4d9a4695f128b8c2d3d8",
        "1dae99ddc020459df1ee3fd6eb2cdc9a9039a25ffe926b0f67fb400bf495922a"),
    "ecology2": (
        "fb0baf7a7eebe5252fd2346f051087f8f88f22ae1ac67f79d8cc249d37f0f085",
        "1c8f96d540213c0b1f24cc0b57d2b1b1a2e19ab84ac9088c26be12d65ba24208"),
    "parabolic_fem": (
        "8d5fb7af9f79c2be8eb8e89bc061b173f62255eb02ac6b24072d628be5610118",
        "8eac64ddf070e7d6ac144e9d48725a45f738cee35611ad70c2647ed85e363bbe"),
    "qa8fm": (
        "a7cc5714dd2f71409a29f4203d90bc75fa58d3107feb59d2acf45acd7c8cb8d8",
        "d893c2279acc07fa05c45e339fb7c61539d785319d649992b39ef36a4e0b6d1e"),
    "thermal2": (
        "ee2a88ff6c5a1daef418e496b3c8765e2dbebf7ff4cc4e55652f51e091bab748",
        "3a875e348491920e0ba8244fbfe609f99d43ad655828a77b5771047397cdd18c"),
    "thermomech": (
        "c02f33a04317c2dc21fca9e969ed6ed00235b64978d03f73452b58b8fd91ad8f",
        "d324ce38efeeb30b5e69e607bb6a3ce58f05963e0d20d3d1ac5513016945082c"),
}


def matrix_digest(spec: MatrixSpec) -> str:
    A, b = spec.build()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(A.data, dtype=np.float64).tobytes())
    digest.update(np.asarray(A.indices, dtype=np.int64).tobytes())
    digest.update(np.asarray(A.indptr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(b, dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_every_family_and_suite_matrix_is_pinned():
    assert {family for family, _, _ in PARAMETRIC} | {"suite"} \
        == set(MATRIX_FAMILIES)
    assert set(SUITE) == set(PAPER_MATRICES)


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "scipy"])
@pytest.mark.parametrize("family,params,rhs_seed", list(PARAMETRIC))
def test_parametric_bytes(family, params, rhs_seed, sparse):
    spec = MatrixSpec(family=family, params=params, sparse=sparse,
                      rhs_seed=rhs_seed)
    expected = PARAMETRIC[(family, params, rhs_seed)][0 if sparse else 1]
    assert matrix_digest(spec) == expected


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "scipy"])
@pytest.mark.parametrize("name", list(SUITE))
def test_suite_bytes(name, sparse):
    expected = SUITE[name][0 if sparse else 1]
    assert matrix_digest(MatrixSpec.suite(name, sparse=sparse)) == expected
