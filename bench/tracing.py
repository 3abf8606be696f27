"""Spans around calls into h4approx, and cProfile totals by module file.

Spans are recorded from outside the library: the traced run replaces public
functions in the h4approx module namespaces with thin wrappers for the
duration of one pass and restores them afterwards.  Nothing under src/ is
edited.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Library functions that get a span in the traced pass, by defining module.
SPANNED_FUNCTIONS = {
    "rosen_cf": ["rosen_digits", "dual_rosen_digits", "rosen_convergents", "dual_rosen_convergents"],
    "best_approx": ["best_approximations", "oracle_best_approximations", "legendre_classify"],
    "uniform_approx": ["uniform_sequence", "k_exact", "k_numeric", "dirichlet_sweep", "optimality_check"],
    "h4_expansion": ["detect_period"],
}
SPANNED_METHODS = {
    "exact_field": [("Surd", "decimal"), ("QRt2", "decimal")],
    "cli": [("Output", "render")],
}


class NullTracer:
    """Stands in for Tracer in untraced passes; spans cost one call."""

    job: Any = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL = NullTracer()


class Tracer:
    """Spans as [name, start, end, parent index, job id], nested by a stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.fracs_returned = 0
        self.job: Any = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A span around each call made inside a job; calls from the output
        checks, which run between jobs, pass straight through."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "best_approx.best_approximations":
                self.fracs_returned += len(out)
            return out

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every spanned function and method wherever h4approx refers
        to it (module globals, the CLI command table, class attributes)."""
        undo: list[tuple[Any, str, Any, bool]] = []
        mods = {n: m for n, m in sys.modules.items() if n == "h4approx" or n.startswith("h4approx.")}
        try:
            for modname, names in SPANNED_FUNCTIONS.items():
                home = mods[f"h4approx.{modname}"]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapper = self.wrap(orig, f"{modname}.{fname}")
                    for mod in mods.values():
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                undo.append((mod, attr, orig, False))
                                setattr(mod, attr, wrapper)
            for modname, pairs in SPANNED_METHODS.items():
                home = mods[f"h4approx.{modname}"]
                for cls_name, meth in pairs:
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig, False))
                    setattr(cls, meth, self.wrap(orig, f"{modname}.{cls_name}.{meth}"))
            commands = mods["h4approx.cli"].COMMANDS
            for cmd, fn in list(commands.items()):
                undo.append((commands, cmd, fn, True))
                commands[cmd] = self.wrap(fn, "cli.command")
            yield
        finally:
            for owner, attr, orig, is_item in reversed(undo):
                if is_item:
                    owner[attr] = orig
                else:
                    setattr(owner, attr, orig)

    def total(self, *names: str) -> float:
        """Time covered by spans with any of `names`, nested ones counted once."""
        wanted = set(names)
        total = 0.0
        for rec in self.spans:
            if rec[0] in wanted and not self._has_ancestor(rec, *wanted):
                total += rec[2] - rec[1]
        return total

    def _child_time(self) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[3] is not None:
                out[rec[3]] += rec[2] - rec[1]
        return out

    def self_time(self, *names: str) -> float:
        """Span time minus the time covered by each span's direct children."""
        child_time = self._child_time()
        return sum(
            rec[2] - rec[1] - child_time[i]
            for i, rec in enumerate(self.spans)
            if rec[0] in names
        )

    def _has_ancestor(self, rec: list, *names: str) -> bool:
        parent = rec[3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> dict:
        """Spans plus per-name totals, in a JSON-ready form."""
        child_time = self._child_time()
        by_name: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            agg = by_name.setdefault(rec[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += rec[2] - rec[1]
            agg["self_s"] += rec[2] - rec[1] - child_time[i]
        return {
            "by_name": by_name,
            "spans": [
                {"name": r[0], "start": r[1], "end": r[2], "parent": r[3], "job": r[4]}
                for r in self.spans
            ],
        }


# --- cProfile totals ---------------------------------------------------------

def code_key(fn: Callable) -> tuple[str, int, str]:
    """The label cProfile gives a Python function."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class ProfileTotals:
    """Self time by module file and call counts, from a pstats dict.

    Time spent in code that has no file under the package (builtins such as
    gcd, dataclass-generated __init__ methods, stdlib Fraction and Decimal)
    is charged to the package modules that called it, in proportion to the
    cumulative time each caller spent in it.
    """

    def __init__(self, stats: dict, package_dir: str) -> None:
        self.stats = stats
        self.package_dir = os.path.normpath(package_dir) + os.sep
        self._share_memo: dict[tuple, dict[str, float]] = {}

    def module_of(self, func: tuple) -> str | None:
        path = func[0]
        if path.startswith(self.package_dir):
            return os.path.splitext(path[len(self.package_dir):])[0]
        return None

    def _shares(self, func: tuple, visiting: set) -> dict[str, float]:
        if func in self._share_memo:
            return self._share_memo[func]
        mod = self.module_of(func)
        if mod is not None:
            return {mod: 1.0}
        if func in visiting or func not in self.stats:
            return {}
        visiting.add(func)
        callers = self.stats[func][4]
        weight = sum(c[3] for c in callers.values())
        out: dict[str, float] = defaultdict(float)
        if weight > 0:
            for caller, c in callers.items():
                for m, s in self._shares(caller, visiting).items():
                    out[m] += s * c[3] / weight
        visiting.discard(func)
        self._share_memo[func] = dict(out)
        return self._share_memo[func]

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            for mod, share in self._shares(func, set()).items():
                out[mod] += tt * share
        return dict(out)

    def calls_by_module(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for func, (_cc, nc, _tt, _ct, _callers) in self.stats.items():
            mod = self.module_of(func)
            if mod is not None:
                out[mod] += nc
        return dict(out)

    def calls(self, *fns: Callable | None) -> int:
        """Total calls of the given functions (None entries are skipped)."""
        return sum(self.stats.get(code_key(fn), (0, 0))[1] for fn in fns if fn is not None)

    def calls_from(self, callee: Callable | None, caller: Callable | None) -> int:
        """Calls of `callee` made directly by `caller`."""
        if callee is None or caller is None:
            return 0
        entry = self.stats.get(code_key(callee))
        if entry is None:
            return 0
        return entry[4].get(code_key(caller), (0,))[0]
