"""Inputs, statistics and result plumbing shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOOLS = os.path.join(ROOT, "tools")
#: Where runs leave spans, full results and the work-counter ledger.
OUT = os.path.join(ROOT, ".perfbench")

#: Seed kept out of tuning; a speed claim must also hold on it.
HELD_OUT_SEED = 90210

#: Incidents are drawn from one fixed crime-like city (the layout of
#: ``load_dataset("crime", seed=0)``); the run seed picks which of its
#: incidents are observed and in what order. The work per frame or tile
#: then depends on the code and the seed's draw, not on a new city
#: layout per seed.
POOL_SIZE = 200_000
N_POINTS = 20_000

#: Likewise the map's traffic is fixed: which tiles are hot and every
#: viewing session (target tile and pans). Each seed therefore renders
#: its own incidents, and its own τ, along the same viewing path.
MAP_SEED = 0


def require_program() -> None:
    """Exit non-zero unless the checkout holds the program and its tools."""
    missing = [
        path
        for path in (os.path.join(SRC, "repro", "__init__.py"),
                     os.path.join(TOOLS, "loadgen.py"),
                     os.path.join(TOOLS, "_client.py"))
        if not os.path.isfile(path)
    ]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)
    for path in (SRC, TOOLS):
        if path not in sys.path:
            sys.path.insert(0, path)


def incident_order(seed: int) -> Tuple[Any, Any]:
    """``(pool, order)``: the city's incidents and the seed's draw order."""
    import numpy as np

    from repro.data.synthetic import load_dataset

    pool = load_dataset("crime", n=POOL_SIZE, seed=0)
    order = np.random.default_rng(seed).permutation(POOL_SIZE)
    return pool, order


def incidents(seed: int, n: int = N_POINTS) -> Any:
    """The first ``n`` incidents the seed observes."""
    pool, order = incident_order(seed)
    return pool[order[:n]]


def environment(seed: int) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    import numpy as np

    from repro.core.backends import numba_available, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": resolve_backend(None).name,
        "numba": bool(numba_available()),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def code_digest() -> str:
    """SHA-256 over the program and benchmark sources."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), os.path.dirname(os.path.abspath(__file__))):
        for folder, _dirs, files in sorted(os.walk(base)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Timing:
    """A named timing: its samples, as ``(start, seconds)`` pairs on the
    ``time.perf_counter`` clock, and the quantile reported."""

    def __init__(self, name: str, spans: Iterable[Tuple[float, float]], q: float = 0.5) -> None:
        self.name = name
        self.spans = list(spans)
        self.q = q

    @property
    def samples(self) -> List[float]:
        return [seconds for _start, seconds in self.spans]

    @property
    def value(self) -> float:
        if self.q == 0.5:
            return statistics.median(self.samples)
        return percentile(self.samples, self.q)

    def scaled(self, host: "HostSpeed") -> "Timing":
        """The same timing at the reference host speed, each sample
        scaled by the host's speed around it."""
        return Timing(self.name, [
            (start, seconds * host.around(start, start + seconds))
            for start, seconds in self.spans
        ], self.q)


#: Median time of one :class:`HostSpeed` sample on the reference host
#: (Intel Xeon at 2.1 GHz, 2 vCPUs, numpy backend). Gated timings are
#: reported at this host speed.
REFERENCE_SAMPLE_S = 0.022


class HostSpeed:
    """How fast the host runs right now, from a fixed numpy kernel.

    On a shared VM the host's speed drifts by a quarter or more in
    phases of minutes, so the median of a 35 s run depends on the phase
    it fell in. Every workload takes short bursts of this kernel
    between its operations, never while one is in flight. The kernel
    is the benchmark's own code, so a change to the program cannot move
    it. Dividing each timing by the kernel samples taken around it and
    multiplying by :data:`REFERENCE_SAMPLE_S` reports it at the reference
    host's speed; the raw timings are printed beside the scaled ones.

    The kernel mixes the two kinds of work the program does: whole-array
    numpy arithmetic, and many numpy calls on small slices, where the
    interpreter's overhead dominates. Of the kernels tried, this mix
    tracked the drift of all three frame kinds best.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._queries = rng.random((48, 1, 2))
        self._points = rng.random((1, 3000, 2))
        self._rows = rng.random((4096, 2))
        #: Bursts of samples in the order taken; each sample is a
        #: ``(start, seconds)`` pair.
        self.bursts: List[List[Tuple[float, float]]] = []

    @property
    def samples(self) -> List[float]:
        return [seconds for burst in self.bursts for _start, seconds in burst]

    def sample(self, count: int = 2) -> None:
        """Take a burst of ``count`` samples.

        One sample runs the kernel once on each vCPU this process may
        use, pinning the calling thread to each in turn, and keeps the
        mean time. On a shared host the vCPUs' speeds differ at the same
        moment (by up to 40% on the reference host), and the program's
        work spreads over all of them: tiles render in worker threads,
        and tiles-zoom in another process.
        """
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        burst = []
        try:
            for _ in range(count):
                start = time.perf_counter()
                for cpu in cpus or [None]:
                    if cpu is not None:
                        os.sched_setaffinity(0, {cpu})
                    self._kernel()
                burst.append((start, (time.perf_counter() - start) / max(len(cpus), 1)))
        finally:
            if cpus:
                os.sched_setaffinity(0, cpus)
        self.bursts.append(burst)

    def _kernel(self) -> None:
        """Pairwise squared distances, Gaussian weights and their row
        sums, three times over; then the same for 64-row slices against
        one query, slice by slice."""
        import numpy as np

        for _ in range(3):
            distances = ((self._queries - self._points) ** 2).sum(-1)
            np.exp(-3.0 * distances).sum(1)
        centre = np.array([0.5, 0.5])
        for row in range(0, self._rows.shape[0] - 64, 8):
            near = ((self._rows[row:row + 64] - centre) ** 2).sum(1)
            np.exp(-near).sum()
            np.minimum(near, 0.3).max()

    @property
    def factor(self) -> float:
        """Reference speed over the whole run's speed: multiply a time by it."""
        return REFERENCE_SAMPLE_S / statistics.median(self.samples)

    def around(self, start: float, end: float) -> float:
        """Reference speed over the speed around ``[start, end]``: from the
        burst taken last before it and the burst taken first after it.

        The drift also moves within a run, and scaling each operation by
        its neighbours followed it more closely than one factor per run.
        """
        before = [burst for burst in self.bursts if burst[0][0] < start][-1:]
        after = [burst for burst in self.bursts if burst[0][0] >= end][:1]
        near = [seconds for burst in before + after for _at, seconds in burst]
        return REFERENCE_SAMPLE_S / statistics.median(near) if near else self.factor


class Ledger:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def op(self, problems: Optional[List[str]] = None) -> None:
        """Count one operation; ``problems`` non-empty marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:3])

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def check_counters(workload: str, seed: int, counters: Dict[str, int]) -> List[str]:
    """Compare the deterministic work counters with an earlier run's.

    The first run of a (workload, seed, code) triple records its
    counters under ``.perfbench/counters``; every later run of the same
    triple must reproduce them exactly.
    """
    folder = os.path.join(OUT, "counters")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-seed{seed}.json")
    code = code_digest()
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier.get("code") == code:
            changed = sorted(
                key for key in set(earlier["counters"]) | set(counters)
                if earlier["counters"].get(key) != counters.get(key)
            )
            if changed:
                return [
                    f"work counters differ from an earlier run of seed {seed}: "
                    + ", ".join(
                        f"{key} {earlier['counters'].get(key)} -> {counters.get(key)}"
                        for key in changed
                    )
                ]
            return []
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"code": code, "counters": counters}, handle, indent=1, sort_keys=True)
    return []


def save_json(kind: str, name: str, payload: Dict[str, Any]) -> str:
    folder = os.path.join(OUT, kind)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=float)
    return path
