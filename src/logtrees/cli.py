"""Deterministic command-line front end.

Every run is fully determined by its flags, all of which but the
execution-only ones are echoed into the output header; wall time goes to
stderr so repeated runs with the same seed are byte-identical.  Each
subcommand is one entry of ``COMMANDS``; ``_write_run`` alone writes the
header, and ``main`` alone opens the output and maps exceptions to exit
codes: 0 success, 1 internal error, 2 usage, 3 regime mismatch,
4 acceptance failure.  A reader that closes stdout early ends the run
with exit 0 and nothing on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .families import (
    FIXED_POINT_MAPS,
    PERIODIC_KINDS,
    Family,
    FamilyInstance,
    RegimeMismatchError,
)

_EXIT_INTERNAL = 1
_EXIT_USAGE = 2
_EXIT_REGIME = 3
_EXIT_ACCEPTANCE = 4


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, complex):
        return _json_value({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        inner = ",".join(f"{_json_value(str(k))}:{_json_value(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def dump_json(obj: dict) -> str:
    """Stable-order JSON with floats at 17 significant digits."""
    return _json_value(obj) + "\n"


# flags that steer how a run executes or where it writes, never its result:
# not part of the run identity echoed into the output
EXECUTION_ONLY = ("config", "output", "threads", "trace_out", "pool_out")


class AcceptanceFailure(Exception):
    """A criterion of the acceptance suite failed (exit 4)."""


def _write_run(fh, args, body) -> None:
    """Write one run: a JSON payload (dict) after its ``meta``, or a CSV
    body (a function writing it to a stream) after the ``# logtrees`` /
    ``# config:`` header.  Both echo the run identity: the command and
    every argument of its parser in parser order (the order argparse fills
    the namespace in), minus the execution-only ones and those not set."""
    config = {k: v for k, v in vars(args).items() if k not in EXECUTION_ONLY and v is not None}
    if isinstance(body, dict):
        meta = {"tool": "logtrees", "version": __version__, "config": config}
        fh.write(dump_json({"meta": meta, **body}))
        return
    echo = " ".join(f"{k}={v}" for k, v in config.items())
    fh.write(f"# logtrees {__version__}\n# config: {echo}\n")
    body(fh)


def _instance(args) -> FamilyInstance:
    return FamilyInstance(Family(args.family), args.param)


def _create(path: str):  # open(path, "w"); a path it cannot write is a usage error
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path: str) -> None:
    """Refuse, before a run and without creating it, a path ``_create``
    could not open: it must be a writable file, or new in a writable
    directory."""
    target = path if os.path.exists(path) else os.path.join(os.path.dirname(path), ".")
    try:
        os.stat(target)  # a missing directory, or a file where one should be
        code = (errno.EISDIR if os.path.isdir(path)
                else 0 if os.access(target, os.W_OK) else errno.EACCES)
    except OSError as exc:
        code = exc.errno
    if code:
        raise ValueError(f"cannot write {path}: {os.strerror(code)}")


# ---------------------------------------------------------------------------
# subcommands: each returns its JSON payload, or a function that writes its
# CSV body to a stream, after the work that can fail is done
# ---------------------------------------------------------------------------

def cmd_roots(args) -> dict:
    from .roots import classify_regime, quadtree_exponents, solve_spectrum

    spec = solve_spectrum(_instance(args), precision=args.precision)
    if spec.instance.split_law is None:
        qe = quadtree_exponents(spec)
        fields = {"alpha_hat": qe.alpha_hat, "beta_hat": qe.beta_hat}
    else:
        fields = {
            "degree": spec.degree,
            "roots": [complex(r) for r in spec.roots],
            "principal_root": complex(spec.principal_root),
            "alpha": spec.alpha,
            "beta": spec.beta,
            "certified_error": spec.certified_error,
        }
    regime = classify_regime(spec)
    return {"family": args.family, "parameter": args.param, **fields,
            "covariance_phase": regime.covariance_phase.value,
            "distribution_phase": regime.distribution_phase.value}


def _m_range(args) -> range:
    if args.m_to < args.m_from:
        raise ValueError(f"--to {args.m_to} is below --from {args.m_from}")
    return range(args.m_from, args.m_to + 1)


def cmd_table_alpha(args):
    from .families import mary
    from .roots import solve_spectrum

    lines = ["m,alpha,beta\n"]
    for m in _m_range(args):
        spec = solve_spectrum(mary(m))
        lines.append(f"{m},{_fmt_float(spec.alpha)},{_fmt_float(spec.beta)}\n")
    return lambda fh: fh.writelines(lines)


def cmd_table_c2(args):
    from .asymptotics import REFERENCE_C2C1, REFERENCE_C2C1_TOL, c2_minus_phi_c1
    from .families import mary
    from .roots import solve_spectrum

    lines = ["m,c2_minus_phi_c1,reference,match\n"]
    for m in _m_range(args):
        val = c2_minus_phi_c1(solve_spectrum(mary(m)))
        ref = REFERENCE_C2C1.get(m)
        if ref is None:
            lines.append(f"{m},{_fmt_float(val)},,\n")
        else:
            ok = abs(val - float(ref)) / float(ref) <= REFERENCE_C2C1_TOL
            lines.append(f"{m},{_fmt_float(val)},{ref.numerator}/{ref.denominator},"
                         f"{'yes' if ok else 'no'}\n")
    return lambda fh: fh.writelines(lines)


def cmd_constants(args) -> dict:
    from .asymptotics import constants

    return constants(_instance(args)).to_dict()


def cmd_moments(args):
    from .moments import MomentTable, UnsupportedTableError, mean_tables, second_moment_tables

    inst = _instance(args)
    try:
        table = second_moment_tables(inst, args.nmax, args.mode)
    except UnsupportedTableError:
        # quadtree: means only
        means = mean_tables(inst, args.nmax, args.mode)
        table = MomentTable(inst, args.nmax, args.mode, dict(zip(inst.row_names, means)))
    # a float table at the cap is megabytes of text: stream it, row by row
    return table.write_csv


def cmd_simulate(args) -> dict:
    from .treesim import monte_carlo

    return monte_carlo(_instance(args), args.n, args.reps, args.seed,
                       threads=args.threads).to_dict()


def cmd_corr_profile(args):
    from .treesim import corr_profile

    grid = [int(x) for x in args.grid.split(",")]
    rows = corr_profile(_instance(args), grid, args.reps, args.seed,
                        threads=args.threads)
    lines = ["n,stat,empirical,stderr,predicted,regime\n"]
    for row in rows:
        pred = "" if row["predicted"] is None else _fmt_float(row["predicted"])
        lines.append(f"{row['n']},{row['stat']},{_fmt_float(row['empirical'])},"
                     f"{_fmt_float(row['stderr'])},{pred},{row['regime']}\n")
    return lambda fh: fh.writelines(lines)


def cmd_fixpoint(args) -> dict:
    from .fixpoint import diagnose, fixed_point_spec, iterate

    for path in (args.trace_out, args.pool_out):
        if path:
            _check_writable(path)
    spec = fixed_point_spec(_instance(args), args.map)
    pool = iterate(spec, args.pool, args.gens, args.seed, threads=args.threads)
    diag = diagnose(pool) if spec.bivariate else {
        "map_kind": spec.map_kind, "generation": pool.generation,
        "pool": len(pool.x), **pool.moments()}
    if args.trace_out:
        with _create(args.trace_out) as fh:
            _write_run(fh, args, pool.write_trace_csv)
    if args.pool_out:
        with _create(args.pool_out) as fh:
            pool.write_pool_csv(fh)
    return {"diagnostics": diag}


def cmd_periodic(args):
    from .asymptotics import periodic

    inst = FamilyInstance(PERIODIC_KINDS[args.kind], args.param)
    cplus = None if (args.cplus_re, args.cplus_im) == (None, None) else complex(
        1.0 if args.cplus_re is None else args.cplus_re,
        0.0 if args.cplus_im is None else args.cplus_im)
    pf = periodic(args.kind, inst, cplus=cplus)
    return lambda fh: pf.write_csv(fh, points=args.points)


def cmd_verify(args):
    from .acceptance import run_acceptance

    def write(fh):
        if not all(r.passed for r in run_acceptance(quick=args.quick, stream=fh)):
            raise AcceptanceFailure("acceptance suite failed")
    return write


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

def _int_from(lo: int):  # argparse type: an int >= lo; a smaller one is a usage error
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)
    return parse


def _finite(text: str) -> float:  # argparse type: a float that is neither nan nor infinite
    if not math.isfinite(float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return float(text)


_FAMILIES = [f.value for f in Family]
_PARAM = ("--param", dict(type=int, required=True))
_FAMILY = (("--family", dict(choices=_FAMILIES, required=True)), _PARAM)
_SEED = ("--seed", dict(type=int, default=1))
# the CPUs this process may use (all of them where affinity is not exposed)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_THREADS = ("--threads", dict(type=_int_from(1), default=_CPUS,
                              help="worker threads (default: the CPUs this process may use)"))

# name: (body, help, arguments as (flag, add_argument keywords))
COMMANDS = {
    "roots": (cmd_roots, "indicial spectrum as JSON",
              (*_FAMILY, ("--precision", dict(type=_int_from(64), default=64)))),
    "table-alpha": (cmd_table_alpha, "alpha/beta table as CSV",
                    (("--from", dict(dest="m_from", type=_int_from(3), default=3)),
                     ("--to", dict(dest="m_to", type=_int_from(3), default=26)))),
    "table-c2": (cmd_table_c2, "c2 - phi c1 with reference rationals",
                 (("--from", dict(dest="m_from", type=_int_from(3), default=3)),
                  ("--to", dict(dest="m_to", type=_int_from(3), default=30)))),
    "constants": (cmd_constants, "closed-form constants as JSON", _FAMILY),
    "moments": (cmd_moments, "moment table as CSV",
                (*_FAMILY, ("--nmax", dict(type=_int_from(0), required=True)),
                 ("--mode", dict(choices=("exact", "float"), default="exact")))),
    "simulate": (cmd_simulate, "Monte Carlo statistics as JSON",
                 (*_FAMILY, ("--n", dict(type=int, required=True)),
                  ("--reps", dict(type=int, required=True)), _SEED, _THREADS)),
    "corr-profile": (cmd_corr_profile, "empirical vs predicted profile CSV",
                     (*_FAMILY, ("--grid", dict(required=True, help="comma-separated sizes")),
                      ("--reps", dict(type=int, required=True)), _SEED, _THREADS)),
    "fixpoint": (cmd_fixpoint, "population-dynamics fixed point",
                 (("--map", dict(required=True, choices=FIXED_POINT_MAPS)),
                  ("--family", dict(choices=_FAMILIES, default="mary")), _PARAM,
                  ("--pool", dict(type=_int_from(1000), default=100_000)),
                  ("--gens", dict(type=_int_from(1), default=30)), _SEED, _THREADS,
                  ("--trace-out", dict(help="write the moment-trace CSV here")),
                  ("--pool-out", dict(help="write the final pool CSV here")))),
    "periodic": (cmd_periodic, "periodic-factor samples as CSV",
                 (("--kind", dict(required=True, choices=PERIODIC_KINDS)),
                  _PARAM,
                  ("--points", dict(type=_int_from(1), default=1024)),
                  ("--cplus-re", dict(type=_finite, help="default 1")),
                  ("--cplus-im", dict(type=_finite, help="default 0")))),
    "verify": (cmd_verify, "run the acceptance suite",
               (("--quick", dict(action="store_true",
                                 help="reduced sizes; smoke mode, not the binding gate")),)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="logtrees",
        description="moment asymptotics and limit laws of random search trees")
    ap.add_argument("--config", help="key=value file with flag defaults")
    ap.add_argument("-o", "--output", help="output path (default: stdout)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return ap


def _apply_config_file(argv: list[str], ap: argparse.ArgumentParser) -> list[str]:
    """Config precedence: flags > key=value config file > defaults.  The file
    contributes flags that are absent from the command line; a flag counts
    as present in both the ``--flag value`` and ``--flag=value`` forms, and
    ``-o`` as ``--output``.  A key set to true becomes a bare switch and one
    set to false is dropped.  ``output``, an option of the main parser, goes
    before the subcommand.  The file is named by ``--config``."""
    pre = argparse.ArgumentParser(prog=ap.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    present = {a.partition("=")[0] if a.startswith("--") else "--output"
               for a in argv if a.startswith(("--", "-o"))}
    head, extra = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            value = value.strip()
            if flag in present or value.lower() == "false":
                continue
            (head if flag == "--output" else extra).extend(
                [flag] if value.lower() == "true" else [flag, value])
    return head + argv + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(_apply_config_file(argv, ap))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    code = 0
    try:
        if args.output:  # refused before the run, without creating the file
            _check_writable(args.output)
        body = COMMANDS[args.command][0](args)
        with _create(args.output) if args.output else contextlib.nullcontext(sys.stdout) as fh:
            _write_run(fh, args, body)
            fh.flush()  # a reader that stopped shows here, not at exit
    except BrokenPipeError:
        # the reader stopped (``| head``): no error.  Point stdout at the null
        # device so the interpreter's last flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except AcceptanceFailure:
        code = _EXIT_ACCEPTANCE
    except RegimeMismatchError as exc:
        print(f"regime mismatch: {exc}", file=sys.stderr)
        return _EXIT_REGIME
    except (ValueError, ArithmeticError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    print(f"# wall-time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
