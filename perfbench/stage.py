"""Run one titlemap CLI stage in this (fresh) interpreter and report on it.

    python3 perfbench/stage.py <job.json>

The job names the checkout root, the stage, its config file, whether to
trace, the speed probe to use, and where to write the result. The stage is
timed from the import of `titlemap.cli` to the return of `titlemap.cli.main`;
numpy is imported first, outside the timed region, since it is not the
package's own start-up cost.

A fixed speed probe runs just before the stage and just after it, in the
same process, and an untraced stage is also sampled while it runs: every
`SAMPLE_INTERVAL_S` a timer signal runs a probe a tenth as long. The shared
host's speed drifts by a factor of two over seconds to minutes; the caller
scales the stage time by the mean speed of these samples to cancel that
drift. The samples' own time is taken out of the stage time. Probe times are
reported as the time of the full probe at the sampled speed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import signal
import sys
import time


PROBE_STEPS = 20000
SAMPLE_STEPS = PROBE_STEPS // 10
SAMPLE_INTERVAL_S = 0.5


def _python_work(steps: int) -> float:
    """Short Python loops building character-gram sets, and tiny numpy dot
    products: the work of the syntactic view, the graph and Poincare stages."""
    import numpy as np

    words = [f"senior title {i} engineer" for i in range(64)]
    v = np.linspace(-1.0, 1.0, 32)
    acc = 0.0
    for i in range(steps):
        word = words[i & 63]
        acc += len({word[j:j + 3] for j in range(len(word) - 2)}) + float(np.dot(v, v))
    return acc


def _numpy_work(steps: int) -> float:
    """Small matrix products and elementwise ops on batch-sized arrays: the
    work of the training step's tape."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 32 * 128).reshape(32, 128)
    w = np.linspace(-0.1, 0.1, 128 * 64).reshape(128, 64)
    b = np.linspace(0.5, 1.5, 32 * 64).reshape(32, 64)
    acc = 0.0
    for _ in range(steps // 4):
        acc += float((np.tanh(a @ w) * b).sum())
    return acc


PROBES = {"python": _python_work, "numpy": _numpy_work}


def probe(kind: str, steps: int = PROBE_STEPS) -> float:
    """Seconds for the `kind` probe, scaled to `PROBE_STEPS` steps. The
    collector is off so the heap the stage left behind does not count."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = PROBES[kind](steps)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if not math.isfinite(acc):
        raise RuntimeError("probe result is not finite")
    return elapsed * PROBE_STEPS / steps


class Sampler:
    """Runs a short probe on every tick of a wall-clock interval timer while
    the stage runs. Signal handlers run between bytecodes of the main thread,
    so a sample never interrupts the stage inside a call."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler, taken out of the stage time

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe(self.kind, SAMPLE_STEPS))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run(job: dict) -> dict:
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (outside the timed region)

    import tracing

    kind = job["probe"]
    probe_before = probe(kind)
    sampler = Sampler(kind)
    t0 = time.perf_counter()
    with sampler:
        import titlemap.cli as cli

    import_s = time.perf_counter() - t0 - sampler.spent
    package = os.path.dirname(os.path.abspath(cli.__file__))
    if package != os.path.join(os.path.abspath(src), "titlemap"):
        raise RuntimeError(f"titlemap imported from {package}, not from {src}")

    argv = [job["stage"], "--config", job["config"]]
    result: dict = {"stage": job["stage"], "import_s": import_s}
    if job["trace"]:
        rec = tracing.Recorder(job["stage"])
        installed = tracing.install(rec)
        try:
            token = rec.open(f"cli.{job['stage']}")
            t1 = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                main_s = time.perf_counter() - t1
                rec.close(token)
        finally:
            tracing.restore(installed)
        result.update(
            spans=rec.spans,
            counts=dict(rec.counts),
            samples=dict(rec.samples),
            distinct={k: len(v) for k, v in rec.distinct.items()},
        )
    else:
        spent = sampler.spent
        t1 = time.perf_counter()
        with sampler:
            code = cli.main(argv)
        main_s = time.perf_counter() - t1 - (sampler.spent - spent)
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")
    result.update(
        exit_code=code,
        main_s=main_s,
        probe_s=[probe_before, *sampler.samples, probe(kind)],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    tmp = job["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
