"""logtrees benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload runs in this process: it
drives ``logtrees.cli.main(argv)`` in-process with outputs written to a
temporary directory under ``.perfbench/``, repeating the workload's command
list in passes for about ``--seconds`` seconds (at least two passes).  The
outputs of the first pass are checked outside the timed region, and every
later pass must reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics (median pass time, set-up time
of a fresh interpreter, peak resident memory).  ``--trace 1`` times
untraced passes as above, then runs two traced passes and reports the
per-layer metrics of the first.  The second traced pass repeats the first
(with ``--threads 1`` on Monte Carlo workloads) and must reproduce its
outputs and its work counters exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment.  The full record, with the spans of a traced run, goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
from workloads import PHASES, WORKLOADS, Check, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5


@dataclass
class Pass:
    wall: float
    outputs: dict[str, str]
    codes: dict[str, int]
    seconds: dict[str, float]     # per command label

    @property
    def bytes_out(self) -> int:
        return sum(len(text.encode()) for text in self.outputs.values())

    def digests(self) -> dict[str, str]:
        return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in self.outputs.items()}


def load_program():
    """Import the package from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import logtrees.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import logtrees from {SRC}: {exc}")
    if SRC.resolve() not in Path(logtrees.cli.__file__).resolve().parents:
        raise SystemExit(f"logtrees imported from {logtrees.cli.__file__}, not from {SRC}")
    return logtrees.cli


def run_pass(cli, commands: list[Command], workdir: Path) -> Pass:
    """Run each command once through ``cli.main``; the whole pass is timed."""
    workdir.mkdir(parents=True)
    codes, seconds = {}, {}
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cmd in commands:
            t0 = time.perf_counter()
            codes[cmd.label] = cli.main(["-o", str(workdir / cmd.label), *cmd.argv])
            seconds[cmd.label] = time.perf_counter() - t0
    wall = time.perf_counter() - started
    outputs = {cmd.label: (workdir / cmd.label).read_text()
               if (workdir / cmd.label).exists() else "" for cmd in commands}
    return Pass(wall, outputs, codes, seconds)


def timed_passes(cli, commands, scratch: Path, seconds: float) -> list[Pass]:
    """At least two passes, then more while the next one would end within
    ``seconds``.  Machine speed can drift over tens of seconds, so a longer
    window steadies the median more than shorter passes would."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(cli, commands, scratch / f"pass{len(passes)}"))
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + passes[-1].wall > seconds:
            return passes


def setup_seconds(imports: tuple[str, ...]) -> float:
    """Median time from a fresh interpreter to the workload's modules loaded."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import logtrees.cli, {', '.join(imports)}")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def same_outputs(name: str, first: Pass, other: Pass) -> Check:
    differ = sorted(k for k, v in first.digests().items() if other.digests().get(k) != v)
    return Check(name, not differ, f"differs: {differ}" if differ else "")


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "logtrees").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def one_thread(commands: list[Command]) -> list[Command]:
    """The same commands with every ``--threads`` set to 1."""
    out = []
    for cmd in commands:
        argv = list(cmd.argv)
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
        out.append(Command(cmd.label, cmd.phase, tuple(argv)))
    return out


def phase_seconds(commands: list[Command], passes: list[Pass]) -> dict[str, float]:
    """Median over passes of the time of each phase; 0 for phases not run."""
    out = dict.fromkeys(PHASES, 0.0)
    for phase in {c.phase for c in commands}:
        out[phase] = statistics.median(
            sum(p.seconds[c.label] for c in commands if c.phase == phase) for p in passes)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    workload = WORKLOADS[name]
    for module in workload.imports:
        __import__(module)
    commands = workload.commands(seed)
    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "argv": [list(c.argv) for c in commands]}
    try:
        setup = None if trace else setup_seconds(workload.imports)
        passes = timed_passes(cli, commands, scratch, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first = passes[0]
        checks = [Check(f"{label} exit 0", code == 0, f"exit {code}")
                  for label, code in first.codes.items()]
        checks += [same_outputs(f"pass {i} reproduces pass 0", first, p)
                   for i, p in enumerate(passes[1:], 1)]
        wall = statistics.median(p.wall for p in passes)
        if trace:
            layers, traced_wall, extra, record["spans"] = traced_passes(
                cli, commands, scratch, first)
            layers["trace.overhead_frac"] = traced_wall / wall - 1.0
            layers.update(phase_seconds(commands, passes))
            checks += extra
            metrics = {k: metric(v, tracing.UNITS[k]) for k, v in layers.items()}
        else:
            metrics = {"wall_s": metric(wall, "s"), "setup_s": metric(setup, "s"),
                       "peak_rss_mb": metric(peak_rss_mb, "MB")}
        if all(code == 0 for code in first.codes.values()):
            try:
                checks += workload.check(first.outputs)
            except Exception as exc:  # malformed output fails the run's checks
                checks.append(Check("outputs parse", False, repr(exc)))
        record["passes"] = [{"wall": p.wall, "commands": p.seconds} for p in passes]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(not c.ok for c in checks)
    record["checks"] = [vars(c) for c in checks]
    record["failed_frac"] = failed / len(checks)
    record["environment"] = environment()
    record["result"] = {"correct": failed == 0, "attempted": len(checks),
                        "failed": failed, "metrics": metrics}
    return record


def traced_passes(cli, commands, scratch: Path, untraced: Pass):
    """Two traced passes.  Returns the per-layer metrics and wall time of the
    first, the checks that compare the passes, and the first pass's spans."""
    results, checks = [], []
    threaded = any("--threads" in c.argv for c in commands)
    for i, cmds in enumerate((commands, one_thread(commands))):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            p = run_pass(cli, cmds, scratch / f"traced{i}")
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers["cli.bytes_out"] = p.bytes_out
        results.append((p, layers, tracer))
    (a, layers, tracer), (b, layers_b, _) = results
    checks.append(same_outputs("traced pass reproduces untraced pass", untraced, a))
    probe = "--threads 1 reproduces --threads 2" if threaded \
        else "second traced pass reproduces the first"
    checks.append(same_outputs(probe, a, b))
    counters = ("moments.exact_cells", "moments.float_cells", "treesim.splits",
                "fixpoint.draws", "roots.roots_found", "asymptotics.points", "cli.bytes_out")
    differ = [k for k in counters if layers[k] != layers_b[k]]
    checks.append(Check("work counters repeat", not differ, f"differ: {differ}"))
    layers["treesim.thread_speedup"] = b.wall / a.wall if threaded else 0.0
    return layers, a.wall, checks, tracer.dump()


def run_all(args) -> dict:
    """Each workload in its own process; prints one line per metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, m in result["metrics"].items():
            print(f"{name:16s} {key:28s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}/{key}"] = m
        print(f"{name:16s} {'failed/attempted':28s} {result['failed']}/{result['attempted']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out = STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    print(f"checks: {record['result']['attempted'] - record['result']['failed']}"
          f"/{record['result']['attempted']} passed, failed_frac {record['failed_frac']}")
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
