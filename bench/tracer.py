"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of the `entbasis` modules by rebinding
every module-level name that refers to them, in the defining module and in
each module that imported them (for example `entbasis.bell.factor_local` and
`entbasis.cli.save_json`). Calls that go through those names are timed;
nothing under `src/` is edited.

Spans are folded into per-layer counters as they close instead of being
kept: one pass of a sampled-check workload opens tens of thousands of them.
A layer's self time is its spans' duration minus the time their child spans
cover. A span opened directly inside a span of the same layer (for example
`haar_unitary` inside `haar_special_unitary`) is merged into it, so `calls`
counts entries into the layer.
"""

import functools
import os
import sys
import time

# layer name -> (module, function) pairs whose calls it records
LAYERS = {
    "linalg.haar": [("linalg", "haar_unitary"), ("linalg", "haar_special_unitary")],
    "linalg.random_orthogonal": [("linalg", "random_orthogonal")],
    "linalg.tensor": [("linalg", "tensor")],
    "factorize.factor_local": [("factorize", "factor_local")],
    "factorize.operator_schmidt": [("factorize", "operator_schmidt")],
    "bell.check": [
        ("bell", "check_bell_condition"),
        ("bell", "check_universality"),
        ("bell", "universality_search"),
        ("bell", "check_det_criterion_agreement"),
    ],
    "bell.det_criterion": [("bell", "det_criterion")],
    "bell.bell_matrix": [("bell", "bell_matrix")],
    "entangled.verify_unitary_basis": [("entangled", "verify_unitary_basis")],
    "entangled.verify_entangled_basis": [("entangled", "verify_entangled_basis")],
    "entangled.is_max_entangled": [("entangled", "is_max_entangled")],
    "entangled.shift_multiply_basis": [("entangled", "shift_multiply_basis")],
    "entangled.vector_map": [
        ("entangled", "vector_from_operator"),
        ("entangled", "operator_from_vector"),
        ("entangled", "basis_matrix"),
    ],
    "hadamard.validate": [("hadamard", "is_hadamard"), ("hadamard", "validate_latin_square")],
    "fileio.encode": [("fileio", "basis_to_obj"), ("fileio", "save_json")],
    "fileio.decode": [("fileio", "load_json"), ("fileio", "basis_from_obj")],
    "clifford.clifford_check": [("clifford", "clifford_check")],
    "cli.main": [("cli", "main")],
}


def _path_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Installs span wrappers into the loaded `entbasis` modules."""

    def __init__(self):
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {"bell.witnesses": 0, "fileio.bytes_written": 0, "fileio.bytes_read": 0}

    def _after(self, layer, fname, args, kwargs, result, outermost):
        """Counters measured where the work happens."""
        if layer == "bell.check" and outermost:
            self.counts["bell.witnesses"] += len(getattr(result, "witnesses", ()))
        elif fname == "save_json":
            self.counts["fileio.bytes_written"] += _path_size(_arg(args, kwargs, 1, "path"))

    def _wrap(self, layer, fname, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = not stack or stack[-1][0] != layer
            if outermost:
                self.calls[layer] += 1
            if fname == "load_json":
                self.counts["fileio.bytes_read"] += _path_size(_arg(args, kwargs, 0, "path"))
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            self._after(layer, fname, args, kwargs, result, outermost)
            return result

        return span

    def install(self):
        """Rebind every reference to a traced function; returns missing names."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "entbasis" or name.startswith("entbasis."))]
        missing = []
        for layer, targets in LAYERS.items():
            for modname, fname in targets:
                home = sys.modules.get("entbasis." + modname)
                fn = getattr(home, fname, None)
                if fn is None:
                    missing.append("%s.%s" % (modname, fname))
                    continue
                wrapper = self._wrap(layer, fname, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._saved.append((module, attr, fn))
        return missing

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def snapshot(self):
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = self.calls[layer]
            if layer != "bell.bell_matrix":
                out[layer + ".self_s"] = self.self_s[layer]
        out.update(self.counts)
        factor_calls = self.calls["factorize.factor_local"]
        out["factorize.svd_per_factor"] = (
            self.calls["factorize.operator_schmidt"] / factor_calls if factor_calls else 0.0
        )
        return out
