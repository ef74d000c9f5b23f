"""Per-layer metrics from an in-process traced run of a workload's ops.

The ops run through ``cobweb.cli.main(argv)`` in this process, with stdout
sent to a byte counter.  Wrappers installed from outside the package record
a span (name, start, end, parent span, op) around every public function of
the six layer modules, at every module binding of it: ``from .sequences
import f_binomial`` copies the function into ``pnfposet``, ``cli`` and
``verify``, so patching ``sequences`` alone would miss their calls.  Leaf
functions whose bodies take well under a microsecond get call counters
instead of spans, because a span on each of their millions of calls would
more than double the run time.  A span's self time is its duration minus
the time its child spans cover.

Untraced and traced passes alternate until the time is up, with at least
two traced passes.  Every count must repeat exactly from one traced pass to
the next, and the tracing overhead is reported as traced over untraced wall
time.  The spans of the last traced pass are written to ``.work``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads

LAYERS = ("sequences", "pnfposet", "gridposet", "oracle", "verify", "cli")
COUNTED = frozenset({"sequences.seq_eval", "gridposet.grid_rank", "gridposet.grid_leq"})
SUITES = (
    "check_grid_counting",
    "check_grid_chains",
    "check_grid_order_laws",
    "check_pnf_census",
    "check_pnf_identities",
    "check_pnf_chain_products",
    "check_fbinom_algebra",
    "check_gcd_morphism",
)
HANDLERS = ("cmd_seq", "cmd_fbinom", "cmd_grid", "cmd_pnf", "cmd_verify", "cmd_export")


class ByteCounter:
    """A text stream that keeps only the number of bytes written to it."""

    def __init__(self) -> None:
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


class Tracer:
    """Spans, self times and counts of one traced pass."""

    def __init__(self, sequences, oracle) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, op index)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[list] = []  # [span index, seconds covered by children]
        self._sequence_errors = (sequences.NonIntegralError, sequences.AdmissibilityError)
        self._guard_error = oracle.ScaleLimitError
        self._last_error = None

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            self._open.append([index, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._raised(name, exc)
                raise
            finally:
                end = perf_counter()
                _, covered = self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                self.spans[index] = (name, start, end, parent, self.op)
                self.calls[name] += 1
                self.total_s[name] += end - start
                self.self_s[name] += end - start - covered
            self._returned(name, result)
            return result

        return traced

    def counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._raised(name, exc)
                raise

        return counted

    def _raised(self, name: str, exc: Exception) -> None:
        # one error passes through several sequence-layer frames; count it once
        if isinstance(exc, self._sequence_errors) and exc is not self._last_error:
            self._last_error = exc
            self.counts["sequences.errors"] += 1
        if name == "oracle.enumerate_maximal_chains" and isinstance(exc, self._guard_error):
            self.counts["oracle.enumerate_maximal_chains.guard_hits"] += 1

    def _returned(self, name: str, result) -> None:
        if name == "gridposet.grid_elements":
            self.counts["gridposet.grid_elements.items"] += len(result)
        elif name == "oracle.build_pnf_hasse":
            self.counts["oracle.build_pnf_hasse.vertices"] += len(result)
        elif name == "oracle.enumerate_maximal_chains":
            self.counts["oracle.enumerate_maximal_chains.chains"] += result.chain_count
            self.counts["oracle.enumerate_maximal_chains.completed"] += 1
        elif name.startswith("verify.check_"):
            self.counts["verify.cases"] += result.cases
            self.counts["verify.skipped"] += result.skipped

    def install(self) -> list[tuple]:
        """Wrap every public layer function at every binding in the package."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cobweb.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not attr.startswith("_"):
                        name = f"{layer}.{attr}"
                        wrap = self.counter if name in COUNTED else self.span
                        wrappers[id(obj)] = (obj, wrap(name, obj))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name == "cobweb" or module_name.startswith("cobweb."):
                for attr, obj in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(obj), (None, None))
                    if original is obj:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, obj))
        return patched

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls, counts = self.calls, self.counts
        attempted = calls["oracle.enumerate_maximal_chains"]
        completed = counts["oracle.enumerate_maximal_chains.completed"]
        out = {
            "sequences.seq_eval.calls": (calls["sequences.seq_eval"], "count"),
            "sequences.f_binomial.calls": (calls["sequences.f_binomial"], "count"),
            "sequences.f_binomial.self_s": (self.self_s["sequences.f_binomial"], "s"),
            "sequences.errors": (counts["sequences.errors"], "count"),
            "pnfposet.pnf_bell.calls": (calls["pnfposet.pnf_bell"], "count"),
            "pnfposet.self_s": (
                sum(v for k, v in self.self_s.items() if k.startswith("pnfposet.")), "s"
            ),
            "gridposet.grid_elements.items": (counts["gridposet.grid_elements.items"], "count"),
            "gridposet.grid_whitney.self_s": (self.self_s["gridposet.grid_whitney"], "s"),
            "gridposet.grid_bell.self_s": (self.self_s["gridposet.grid_bell"], "s"),
            "gridposet.grid_chain_count.self_s": (self.self_s["gridposet.grid_chain_count"], "s"),
            "gridposet.grid_rank.calls": (calls["gridposet.grid_rank"], "count"),
            "gridposet.grid_leq.calls": (calls["gridposet.grid_leq"], "count"),
            "oracle.build_grid_hasse.self_s": (self.self_s["oracle.build_grid_hasse"], "s"),
            "oracle.build_pnf_hasse.vertices": (counts["oracle.build_pnf_hasse.vertices"], "count"),
            "oracle.enumerate_maximal_chains.self_s": (
                self.self_s["oracle.enumerate_maximal_chains"], "s"
            ),
            "oracle.enumerate_maximal_chains.chains": (
                counts["oracle.enumerate_maximal_chains.chains"], "count"
            ),
            "oracle.enumerate_maximal_chains.guard_hits": (
                counts["oracle.enumerate_maximal_chains.guard_hits"], "count"
            ),
            "oracle.enumerate_maximal_chains.useful_ratio": (
                completed / attempted if attempted else 0.0, "ratio"
            ),
        }
        for suite in SUITES:
            out[f"verify.{suite}.s"] = (self.total_s[f"verify.{suite}"], "s")
        out["verify.cases"] = (counts["verify.cases"], "count")
        out["verify.skipped"] = (counts["verify.skipped"], "count")
        for handler in HANDLERS:
            out[f"cli.{handler}.self_s"] = (self.self_s[f"cli.{handler}"], "s")
        out["cli.bytes_out"] = (counts["cli.bytes_out"], "B")
        return out


def run_pass(cli, ops: list[workloads.Op], bfile: Path, tracer: Tracer | None = None):
    """Run every op through ``cli.main``; return the wall time and exit codes.

    An exception that escapes ``main`` is recorded as ``"traceback"``.
    """
    codes = []
    stdout, stderr = sys.stdout, sys.stderr
    start = perf_counter()
    for index, op in enumerate(ops):
        bfile.unlink(missing_ok=True)
        argv = [str(bfile) if a == workloads.BFILE else a for a in op.argv]
        sink = ByteCounter()
        sys.stdout, sys.stderr = sink, ByteCounter()
        if tracer:
            tracer.op = index
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # uncaught in the program: a traceback and exit 1
            code = "traceback"
        finally:
            sys.stdout, sys.stderr = stdout, stderr
        if tracer:
            written = bfile.stat().st_size if bfile.exists() else 0
            tracer.counts["cli.bytes_out"] += sink.bytes + written
        codes.append(code)
    return perf_counter() - start, codes


def load_cli(src: Path):
    sys.path.insert(0, str(src))
    cli = importlib.import_module("cobweb.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"cobweb was imported from {cli.__file__}, not from {src}")
    return cli


def per_layer(name: str, seed: int, seconds: float, src: Path, work: Path) -> tuple:
    """(correct, attempted, failed, metrics) of alternating in-process passes."""
    cli = load_cli(src)
    ops = workloads.build(name, seed)
    work.mkdir(exist_ok=True)
    bfile = work / "bfile"
    untraced, traced, tracers, code_lists = [], [], [], []
    start = perf_counter()
    while len(tracers) < 2 or perf_counter() - start < seconds:
        wall, codes = run_pass(cli, ops, bfile)
        untraced.append(wall)
        code_lists.append(codes)
        tracer = Tracer(sys.modules["cobweb.sequences"], sys.modules["cobweb.oracle"])
        patched = tracer.install()
        try:
            wall, codes = run_pass(cli, ops, bfile, tracer)
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)
        traced.append(wall)
        tracers.append(tracer)
        code_lists.append(codes)

    runs = [t.metrics() for t in tracers]
    repeated = True
    for key, (value, unit) in runs[0].items():
        if unit != "s" and any(run[key][0] != value for run in runs[1:]):
            sys.stderr.write(f"{key} differs between traced passes: {[r[key][0] for r in runs]}\n")
            repeated = False
    metrics = {
        key: (statistics.median(run[key][0] for run in runs) if unit == "s" else value, unit)
        for key, (value, unit) in runs[0].items()
    }
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead"] = (metrics["trace.traced_s"][0] / metrics["trace.untraced_s"][0], "ratio")

    expected = [2 if op.kind == "usage" else 0 for op in ops]
    failed = sum(c != e for codes in code_lists for c, e in zip(codes, expected))
    wrong = any(
        (op.kind == "usage" and c == 0) or (op.kind == "verify" and c == 1)
        for codes in code_lists
        for op, c in zip(ops, codes)
    )
    consistent = all(codes == code_lists[0] for codes in code_lists)
    with open(work / f"spans-{name}.jsonl", "w") as out:
        for span in tracers[-1].spans:
            out.write(json.dumps(span) + "\n")
    print(
        f"{name} seed {seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"in-process passes of {len(ops)} ops, {failed} of {len(ops) * len(code_lists)} "
        f"failed, {len(tracers[-1].spans)} spans, tracing overhead "
        f"{metrics['trace.overhead'][0]:.2f}x"
    )
    return repeated and consistent and not wrong, len(ops) * len(code_lists), failed, metrics
