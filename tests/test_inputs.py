"""Each input is refused once, where it enters, by one shared rule with one wording:
reports.require_positive for a size, reports.require_square for a matrix. The
library raises ValueError; the command line exits 2 with that wording on one
"error:" line."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import entbasis
from entbasis import (
    AntilinearOp,
    EntangledBasis,
    cyclic_latin_square,
    fourier_hadamard,
    is_hadamard,
    omega,
    operator_schmidt,
    theta_n,
    validate_latin_square,
    vector_from_operator,
)
from entbasis.cli import main
from entbasis.fileio import basis_from_obj, load_basis, save_json

SIZE_SITES = {
    "omega": (omega, "dimension"),
    "fourier_hadamard": (fourier_hadamard, "order"),
    "cyclic_latin_square": (cyclic_latin_square, "order"),
    "theta_n": (theta_n, "factor count"),
    "basis_from_obj": (lambda n: basis_from_obj({"dim": n, "operators": []}), "dim"),
    "EntangledBasis": (lambda n: EntangledBasis(n, np.zeros((0, 0, 0))), "dim"),
}

SQUARE_SITES = {
    "vector_from_operator": (vector_from_operator, "operator"),
    "operator_schmidt": (operator_schmidt, "operator"),
    "AntilinearOp": (AntilinearOp, "antilinear operator"),
    "is_hadamard": (is_hadamard, "Hadamard candidate"),
    "validate_latin_square": (validate_latin_square, "Latin square"),
}


@pytest.mark.parametrize("site", sorted(SIZE_SITES))
def test_size_below_one_refused_with_one_wording(site):
    build, what = SIZE_SITES[site]
    with pytest.raises(ValueError, match="^%s must be at least 1, got 0$" % what):
        build(0)


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
@pytest.mark.parametrize("site", sorted(SQUARE_SITES))
def test_non_square_refused_with_one_wording(site, shape):
    build, what = SQUARE_SITES[site]
    with pytest.raises(ValueError, match="^%s must be square$" % what):
        build(np.zeros(shape, dtype=int))


@pytest.mark.parametrize("argv, message", [
    (["gen", "--dim", "0"], "dim must be at least 1, got 0"),
    (["check", "clifford", "--count", "4"], "generator count must be odd and positive, got 4"),
], ids=["gen", "clifford"])
def test_cli_refusal_exits_2_with_the_shared_wording(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: %s\n" % message


def test_empty_basis_is_refused_where_it_is_made(tmp_path, capsys):
    with pytest.raises(ValueError, match="^dim must be at least 1, got 0$"):
        EntangledBasis(0, np.zeros((0, 0, 0), dtype=complex))
    path = tmp_path / "empty.json"
    save_json({"dim": 0, "operators": []}, path)
    with pytest.raises(ValueError, match="^dim must be at least 1, got 0$"):
        load_basis(path)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: dim must be at least 1, got 0\n"


# one child at a time, capped at 2 GiB of address space before entbasis is imported: a
# sampled check's violations array of 10^12 doubles cannot be allocated there. Uncapped,
# with overcommit on, the allocation may succeed and the check would run for hours
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from entbasis.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("suite", ["bell-all", "det-criterion"])
def test_allocation_the_machine_cannot_make_exits_2(suite):
    src = os.path.dirname(os.path.dirname(entbasis.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "check", suite, "--trials", "1000000000000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert re.fullmatch(r"error: [^\n]+\n", run.stderr), run.stderr
