"""Span tracing of sepmetrics from outside the package.

The library has no tracing of its own, so the benchmark replaces each public
function of every ``sepmetrics`` module with a timing wrapper. A function is
reachable under several names (``dsp.istft`` is also ``adversary.istft``,
``linalg.solve_spd`` is also ``legacy.solve_spd`` and ``metrics.solve_spd``,
``metrics.si_sdr`` also sits in the ``metrics._METRICS`` table), and a wrapper
bound to only one of them would read as zero calls. :func:`patched` therefore
rebinds every module-level name and every module-level dict entry that refers
to a wrapped function, and then rescans to prove that no unwrapped reference
is left.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import math
import os
import sys
import time

import numpy as np
import scipy.linalg


class BindingError(RuntimeError):
    """A wrapper is not bound where callers resolve the function."""


def _containers():
    """Every namespace through which sepmetrics code resolves a function."""
    found = [scipy.linalg.__dict__]
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "sepmetrics" or name.startswith("sepmetrics.")):
            continue
        namespace = vars(module)
        found.append(namespace)
        found.extend(v for v in namespace.values() if type(v) is dict)
    return found


@contextlib.contextmanager
def patched(replacements: dict):
    """Bind ``replacements[f]`` at every name that refers to ``f``; undo on exit."""
    by_id = {id(f): (f, g) for f, g in replacements.items()}
    undo = []
    try:
        for namespace in _containers():
            for key, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    undo.append((namespace, key, value))
        stale = [f"{key} -> {value.__module__}.{value.__qualname__}"
                 for namespace in _containers()
                 for key, value in namespace.items()
                 if id(value) in by_id and by_id[id(value)][0] is value]
        if stale:
            raise BindingError("unwrapped references left: " + ", ".join(stale))
        yield
    finally:
        for namespace, key, value in reversed(undo):
            namespace[key] = value


def public_functions():
    """``{"<module>.<function>": function}`` for every sepmetrics module."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("sepmetrics."):
            continue
        short = name.split(".", 1)[1]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == name
                    and not attr.startswith("_")):
                out[f"{short}.{attr}"] = value
    if not out:
        raise BindingError("no sepmetrics modules are loaded")
    return out


def _samples(x) -> np.ndarray:
    return np.ascontiguousarray(getattr(x, "samples", x), dtype=np.float64)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.int64(a.size).tobytes())
        h.update(a.data)
    return h.digest()


class Tracer:
    """Per-function span totals plus counts computed at the same boundaries.

    ``calls``, ``busy`` and ``self_s`` are keyed by ``<module>.<function>``.
    Self time is busy time minus the time covered by wrapped callees. Work
    done by the counters themselves is booked under ``trace.hooks`` so that
    it is not charged to any library function.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {
            "linalg.factorizations": 0,
            "linalg.jitter_retries": 0,
            "linalg.cholesky_flops": 0,
            "legacy.gram_bytes": 0,
            "legacy.projections_reused": 0,
            "metrics.permutations_scored": 0,
            "dsp.frames": 0,
            "adversary.iterations": 0,
            "audio.bytes_read": 0,
        }
        self.top_busy = 0.0
        self._open: list[float] = []
        self._seen_projections: set[bytes] = set()

    def _book(self, name: str, busy: float, covered: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + busy
        self.self_s[name] = self.self_s.get(name, 0.0) + busy - covered
        if self._open:
            self._open[-1] += busy
        else:
            self.top_busy += busy

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._book(name, time.perf_counter() - start, self._open.pop())
                if hook is not None:
                    start = time.perf_counter()
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result, error)
                    self._book("trace.hooks", time.perf_counter() - start, 0.0)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public sepmetrics function and scipy's Cholesky factor."""
        targets = public_functions()
        targets["linalg.cho_factor"] = scipy.linalg.cho_factor
        with patched({fn: self.wrap(name, fn) for name, fn in targets.items()}):
            yield

    def check_additive(self, wall_s: float) -> None:
        """Self times must add up to the top-level spans, which fit in the pass."""
        total_self = sum(self.self_s.values())
        if not math.isclose(total_self, self.top_busy, rel_tol=1e-9, abs_tol=1e-9):
            raise BindingError(
                f"self times sum to {total_self!r} s but top-level spans to {self.top_busy!r} s")
        if self.top_busy > wall_s:
            raise BindingError(
                f"top-level spans ({self.top_busy:.6f} s) exceed the pass ({wall_s:.6f} s)")

    def check_calls(self, expected: dict[str, int]) -> None:
        wrong = {name: (self.calls.get(name, 0), n) for name, n in expected.items()
                 if self.calls.get(name, 0) != n}
        if wrong:
            raise BindingError("call counts (got, expected): " + repr(wrong))

    def computed(self) -> dict[str, float]:
        """Counts derived from arguments and results; identical on every pass."""
        out = dict(self.counts)
        out["linalg.cholesky_flops"] = self.counts["linalg.cholesky_flops"] / 3
        projections = self.calls.get("legacy.fir_project", 0)
        out["legacy.ref_reuse_share"] = (
            self.counts["legacy.projections_reused"] / projections if projections else 0.0)
        del out["legacy.projections_reused"]
        return out


def _cho_factor(tr, args, result, error):
    n = int(np.shape(args["a"])[0])
    tr.counts["linalg.factorizations"] += 1
    tr.counts["linalg.cholesky_flops"] += n ** 3  # divided by 3 on report
    if isinstance(error, np.linalg.LinAlgError):
        tr.counts["linalg.jitter_retries"] += 1


def _fir_project(tr, args, result, error):
    sources = [_samples(args["reference"])] + [_samples(x) for x in args["interferers"]]
    taps = int(args["cfg"].taps)
    tr.counts["legacy.gram_bytes"] += (taps * len(sources)) ** 2 * 8
    key = _digest(*sources) + np.int64(taps).tobytes()
    if key in tr._seen_projections:
        tr.counts["legacy.projections_reused"] += 1
    tr._seen_projections.add(key)


def _evaluate_permuted(tr, args, result, error):
    tr.counts["metrics.permutations_scored"] += math.factorial(len(args["references"]))


def _stft(tr, args, result, error):
    if result is not None:
        tr.counts["dsp.frames"] += int(result.frames.shape[0])


def _istft(tr, args, result, error):
    tr.counts["dsp.frames"] += int(args["spec"].frames.shape[0])


def _optimize(tr, args, result, error):
    if result is not None:
        tr.counts["adversary.iterations"] += len(result.trajectory) - 1


def _read_wav(tr, args, result, error):
    if error is None:
        tr.counts["audio.bytes_read"] += os.path.getsize(args["path"])


_HOOKS = {
    "linalg.cho_factor": _cho_factor,
    "legacy.fir_project": _fir_project,
    "metrics.evaluate_permuted": _evaluate_permuted,
    "dsp.stft": _stft,
    "dsp.istft": _istft,
    "adversary.optimize": _optimize,
    "audio.read_wav": _read_wav,
}
