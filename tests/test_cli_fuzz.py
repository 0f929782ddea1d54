"""Fuzzed command lines: `gen --construction custom` input files and the numeric flags.

Whatever the files hold and whatever text a numeric flag gets, `main`
returns 0, 1 or 2, or argparse exits with 2; no exception escapes, so no
traceback is printed. Sizes stay small: dims and trial counts are bounded
below, and `check clifford --count` is fuzzed up to the largest count the
command accepts (order 2^((N-1)/2) = 256 at N = 17, under a second).
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entbasis import cyclic_latin_square, fourier_basis, fourier_hadamard  # noqa: E402
from entbasis.cli import MAX_CLIFFORD_COUNT, main  # noqa: E402
from entbasis.fileio import dump_basis, matrix_to_obj, save_json  # noqa: E402
from test_fileio_fuzz import json_values, matrix_objects, numbers  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, deadline=None)


def _exit_code(argv):
    """main(argv)'s return value, or the code argparse exits with; output is dropped,
    and a warning, which would print to stderr, is raised as an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-fuzz")
    with open(path / "f2.json", "w") as fh:
        dump_basis(fourier_basis(2), fh)
    save_json(matrix_to_obj(np.eye(4)[[0, 1, 3, 2]]), path / "cnot.json")
    return path


# ---- gen --construction custom ----

@st.composite
def hadamard_objects(draw, d):
    """A d x d complex Hadamard matrix with random phases, maybe with one entry
    changed, or any matrix object or JSON value."""
    kind = draw(st.sampled_from(["hadamard", "hadamard", "edited", "matrix", "json"]))
    if kind == "matrix":
        return draw(matrix_objects())
    if kind == "json":
        return draw(json_values)
    phases = np.array(draw(st.lists(st.floats(0, 1), min_size=2 * d, max_size=2 * d)))
    h = (np.exp(2j * np.pi * phases[:d])[:, None] * fourier_hadamard(d)
         * np.exp(2j * np.pi * phases[d:])[None, :])
    obj = matrix_to_obj(h)
    if kind == "edited":
        obj["data"][draw(st.integers(0, d * d - 1))] = draw(
            st.lists(numbers, min_size=2, max_size=2) | json_values)
    return obj


@st.composite
def latin_objects(draw, d):
    """None (no --latin), a Latin square of order d with permuted rows and columns,
    either bare or as {"table": ...}, a random integer table, or any JSON value."""
    kind = draw(st.sampled_from(["none", "latin", "table", "integers", "json"]))
    if kind == "none":
        return None
    if kind == "json":
        return draw(json_values)
    if kind == "integers":
        rows = st.lists(st.integers(-2, d + 1) | st.integers(2**62, 2**70), min_size=d - 1,
                        max_size=d + 1)
        return draw(st.lists(rows, min_size=d - 1, max_size=d + 1))
    rows, cols = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    table = cyclic_latin_square(d)[rows][:, cols].tolist()
    return {"table": table} if kind == "table" else table


@st.composite
def custom_gen_inputs(draw):
    d = draw(st.integers(1, 4))
    count = draw(st.sampled_from([1, 1, d, d, 2]))
    hadamards = draw(st.lists(hadamard_objects(d), min_size=count, max_size=count))
    return d, hadamards, draw(latin_objects(d))


@SETTINGS
@hypothesis.given(inputs=custom_gen_inputs())
# entries too large for H H^dag, which once printed numpy overflow warnings
@hypothesis.example(inputs=(2, [{"rows": 2, "cols": 2, "data": [[1e300, 0]] * 4}], None))
def test_gen_custom_exit_code_on_any_files(inputs, workdir):
    d, hadamards, latin = inputs
    argv = ["gen", "--dim", str(d), "--construction", "custom", "--hadamard"]
    for k, obj in enumerate(hadamards):
        path = workdir / ("h%d.json" % k)
        path.write_text(json.dumps(obj))
        argv.append(str(path))
    if latin is not None:
        (workdir / "latin.json").write_text(json.dumps(latin))
        argv += ["--latin", str(workdir / "latin.json")]
    out = workdir / "custom.json"
    out.unlink(missing_ok=True)
    code = _exit_code(argv + ["--out", str(out)])
    assert code in (0, 2)
    # a basis gen writes is one verify accepts
    assert code != 0 or _exit_code(["verify", str(out)]) == 0


# ---- numeric flags ----

def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# argparse reads int flags with int() and --tol with float(), which also take
# whitespace, underscores and any Unicode digits; text that parses is left out,
# so that no drawn string asks for a large run
non_numeric = st.text(max_size=8).filter(_not_a_number)
special = st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
                           "1e-400", "2.5", "0x10", "1e1", "", " "])

# the largest value each int flag is fuzzed with, and the commands it is given to
INT_FLAGS = {
    "--dim": (6, [["gen"], ["check", "universality", "--candidates", "2", "--trials", "5"]]),
    "--trials": (50, [["check", "bell-all"], ["check", "det-criterion"],
                      ["check", "universality"],
                      ["check", "universality", "--dim", "3", "--candidates", "2"]]),
    "--candidates": (5, [["check", "universality", "--dim", "3", "--trials", "5"]]),
    "--count": (MAX_CLIFFORD_COUNT, [["check", "clifford"]]),
}


@st.composite
def int_flag_lines(draw):
    flag = draw(st.sampled_from(sorted(INT_FLAGS)))
    bound, commands = INT_FLAGS[flag]
    value = draw(st.integers(-3, bound).map(str) | special | non_numeric)
    return draw(st.sampled_from(commands)) + ["%s=%s" % (flag, value)]


TOL_COMMANDS = [
    ["gen", "--dim", "2"],
    ["gen", "--dim", "3", "--construction", "sylvester"],
    ["verify", "{f2}"],
    ["factorize", "{cnot}"],
    ["check", "bell-all", "--trials", "5"],
    ["check", "bell-all", "--basis", "{f2}", "--trials", "5"],
    ["check", "det-criterion", "--trials", "5"],
    ["check", "universality", "--trials", "5"],
    ["check", "universality", "--dim", "3", "--candidates", "2", "--trials", "5"],
    ["check", "clifford", "--count", "5"],
]


@st.composite
def tol_lines(draw):
    value = draw(st.floats().map(repr) | st.integers(-3, 3).map(str) | special | non_numeric)
    return draw(st.sampled_from(TOL_COMMANDS)) + ["--tol=%s" % value]


@SETTINGS
@hypothesis.given(argv=int_flag_lines() | tol_lines())
def test_numeric_flag_exit_code(argv, workdir):
    # "--flag=value", so that a value starting with "-" is not taken for an option
    files = {"f2": workdir / "f2.json", "cnot": workdir / "cnot.json"}
    argv = [arg.format(**files) if arg.startswith("{") else arg for arg in argv]
    assert _exit_code(argv) in (0, 1, 2)


def test_clifford_count_bound():
    # counts above the bound would build generators of order 2^((N-1)/2) >= 512
    # and are refused before anything is built
    assert _exit_code(["check", "clifford", "--count", str(MAX_CLIFFORD_COUNT)]) == 0
    for count in (MAX_CLIFFORD_COUNT + 2, 101, 10**30 + 1):
        assert _exit_code(["check", "clifford", "--count", str(count)]) == 2
