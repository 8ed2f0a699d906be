"""Deterministic command-line front end.

Every run is fully determined by its flags (echoed into the output header);
wall time goes to stderr so repeated runs with the same seed are
byte-identical.  Exit codes: 0 success, 1 internal error, 2 usage,
3 regime mismatch, 4 acceptance failure.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time
from fractions import Fraction

from . import __version__
from .families import Family, FamilyInstance
from .asymptotics import RegimeMismatchError

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


def _config_echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _csv_header(args, keys) -> str:
    cfg = " ".join(f"{k}={getattr(args, k)}" for k in keys if getattr(args, k, None) is not None)
    return f"# logtrees {__version__}\n# config: {cfg}\n"


@contextlib.contextmanager
def _output(args):
    if args.output:
        with open(args.output, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text)


def _instance(args) -> FamilyInstance:
    return FamilyInstance(Family(args.family), args.param)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    from .roots import classify_regime, quadtree_exponents, solve_spectrum

    meta = {"tool": "logtrees", "version": __version__,
            "config": _config_echo(args, ("command", "family", "param", "precision"))}
    if args.family == "quadtree":
        qe = quadtree_exponents(args.param)
        regime = classify_regime(qe)
        payload = {
            "meta": meta,
            "family": "quadtree",
            "parameter": args.param,
            "alpha_hat": qe.alpha_hat,
            "beta_hat": qe.beta_hat,
            "covariance_phase": regime.covariance_phase.value,
            "distribution_phase": regime.distribution_phase.value,
        }
        _emit(args, dump_json(payload))
        return 0
    spec = solve_spectrum(_instance(args), precision=args.precision)
    regime = classify_regime(spec)
    payload = {
        "meta": meta,
        "family": args.family,
        "parameter": args.param,
        "degree": spec.degree,
        "roots": [complex(r) for r in spec.roots],
        "principal_root": complex(spec.principal_root),
        "alpha": spec.alpha,
        "beta": spec.beta,
        "certified_error": spec.certified_error,
        "covariance_phase": regime.covariance_phase.value,
        "distribution_phase": regime.distribution_phase.value,
    }
    _emit(args, dump_json(payload))
    return 0


def cmd_table_alpha(args) -> int:
    from .families import mary
    from .roots import solve_spectrum

    lines = [_csv_header(args, ("command", "m_from", "m_to"))]
    lines.append("m,alpha,beta\n")
    for m in range(args.m_from, args.m_to + 1):
        spec = solve_spectrum(mary(m))
        lines.append(f"{m},{_fmt_float(spec.alpha)},{_fmt_float(spec.beta)}\n")
    _emit(args, "".join(lines))
    return 0


def cmd_table_c2(args) -> int:
    from .asymptotics import REFERENCE_C2C1, c2_minus_phi_c1
    from .families import mary
    from .roots import solve_spectrum

    lines = [_csv_header(args, ("command", "m_from", "m_to"))]
    lines.append("m,c2_minus_phi_c1,reference,match\n")
    for m in range(args.m_from, args.m_to + 1):
        val = c2_minus_phi_c1(solve_spectrum(mary(m)))
        ref = REFERENCE_C2C1.get(m)
        if ref is None:
            lines.append(f"{m},{_fmt_float(val)},,\n")
        else:
            ok = abs(val - float(ref)) <= 1e-9 * float(ref)
            lines.append(f"{m},{_fmt_float(val)},{ref.numerator}/{ref.denominator},"
                         f"{'yes' if ok else 'no'}\n")
    _emit(args, "".join(lines))
    return 0


def cmd_constants(args) -> int:
    from .asymptotics import constants

    c = constants(_instance(args))
    payload = {"meta": {"tool": "logtrees", "version": __version__,
                        "config": _config_echo(args, ("command", "family", "param"))}}
    payload.update(c.to_dict())
    _emit(args, dump_json(payload))
    return 0


def cmd_moments(args) -> int:
    from .moments import MomentTable, UnsupportedTableError, mean_tables, second_moment_tables

    inst = _instance(args)
    try:
        table = second_moment_tables(inst, args.nmax, args.mode)
    except UnsupportedTableError:
        # quadtree: means only
        means = mean_tables(inst, args.nmax, args.mode)
        table = MomentTable(inst, args.nmax, args.mode, dict(zip(inst.row_names, means)))
    # a float table at the cap is megabytes of text: stream it, row by row
    with _output(args) as fh:
        fh.write(_csv_header(args, ("command", "family", "param", "nmax", "mode")))
        table.write_csv(fh)
    return 0


def cmd_simulate(args) -> int:
    from .treesim import monte_carlo

    stats = monte_carlo(_instance(args), args.n, args.reps, args.seed,
                        threads=args.threads)
    # --threads steers execution only and never the result, so it is not
    # part of the run identity echoed here (outputs stay byte-identical)
    payload = {
        "meta": {"tool": "logtrees", "version": __version__,
                 "config": _config_echo(args, ("command", "family", "param", "n",
                                               "reps", "seed"))},
    }
    payload.update(stats.to_dict())
    _emit(args, dump_json(payload))
    return 0


def cmd_corr_profile(args) -> int:
    from .treesim import corr_profile

    grid = [int(x) for x in args.grid.split(",")]
    rows = corr_profile(_instance(args), grid, args.reps, args.seed,
                        threads=args.threads)
    lines = [_csv_header(args, ("command", "family", "param", "grid", "reps",
                                "seed"))]
    lines.append("n,stat,empirical,stderr,predicted,regime\n")
    for row in rows:
        pred = "" if row["predicted"] is None else _fmt_float(row["predicted"])
        lines.append(f"{row['n']},{row['stat']},{_fmt_float(row['empirical'])},"
                     f"{_fmt_float(row['stderr'])},{pred},{row['regime']}\n")
    _emit(args, "".join(lines))
    return 0


def cmd_fixpoint(args) -> int:
    from .fixpoint import diagnose, fixed_point_spec, iterate

    inst = _instance(args)
    spec = fixed_point_spec(inst, args.map)
    pool = iterate(spec, args.pool, args.gens, args.seed,
                   full_bivariate=args.full_bivariate)
    diag = diagnose(pool) if spec.bivariate else {
        "map_kind": spec.map_kind, "generation": pool.generation,
        "pool": len(pool.x), **pool.moments()}
    payload = {
        "meta": {"tool": "logtrees", "version": __version__,
                 "config": _config_echo(args, ("command", "map", "family", "param",
                                               "pool", "gens", "seed"))},
        "diagnostics": diag,
    }
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(_csv_header(args, ("command", "map", "family", "param",
                                        "pool", "gens", "seed")))
            pool.write_trace_csv(fh)
    if args.pool_out:
        with open(args.pool_out, "w") as fh:
            pool.write_pool_csv(fh)
    _emit(args, dump_json(payload))
    return 0


def cmd_periodic(args) -> int:
    from .asymptotics import periodic
    from .families import fbbst, mary, quadtree

    fam = {"F1": mary, "F2": mary, "Frho": mary,
           "G1": fbbst, "G2": fbbst, "P1": quadtree, "P2": quadtree}[args.kind]
    pf = periodic(args.kind, fam(args.param),
                  cplus=complex(args.cplus_re, args.cplus_im))
    buf = io.StringIO()
    buf.write(_csv_header(args, ("command", "kind", "param", "points")))
    pf.write_csv(buf, points=args.points)
    _emit(args, buf.getvalue())
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(quick=args.quick, stream=sys.stdout)
    return 0 if all(r.passed for r in results) else _EXIT_ACCEPTANCE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_family(p, default=None):
    p.add_argument("--family", choices=[f.value for f in Family],
                   default=default, required=default is None)
    p.add_argument("--param", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="logtrees",
        description="moment asymptotics and limit laws of random search trees")
    ap.add_argument("--config", help="key=value file with flag defaults")
    ap.add_argument("-o", "--output", help="output path (default: stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="indicial spectrum as JSON")
    _add_family(p)
    p.add_argument("--precision", type=int, default=64)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("table-alpha", help="alpha/beta table as CSV")
    p.add_argument("--from", dest="m_from", type=int, default=3)
    p.add_argument("--to", dest="m_to", type=int, default=26)
    p.set_defaults(fn=cmd_table_alpha)

    p = sub.add_parser("table-c2", help="c2 - phi c1 with reference rationals")
    p.add_argument("--from", dest="m_from", type=int, default=3)
    p.add_argument("--to", dest="m_to", type=int, default=30)
    p.set_defaults(fn=cmd_table_c2)

    p = sub.add_parser("constants", help="closed-form constants as JSON")
    _add_family(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("moments", help="moment table as CSV")
    _add_family(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("simulate", help="Monte Carlo statistics as JSON")
    _add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("corr-profile", help="empirical vs predicted profile CSV")
    _add_family(p)
    p.add_argument("--grid", required=True, help="comma-separated sizes")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_corr_profile)

    p = sub.add_parser("fixpoint", help="population-dynamics fixed point")
    p.add_argument("--map", required=True, choices=(
        "uniK", "TN_periodic", "TNprime_normal", "Tmed_periodic",
        "Tmed_normal", "Tquad_periodic", "Tquad_normal"))
    _add_family(p, default="mary")
    p.add_argument("--pool", type=int, default=100_000)
    p.add_argument("--gens", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--full-bivariate", action="store_true")
    p.add_argument("--trace-out", help="write the moment-trace CSV here")
    p.add_argument("--pool-out", help="write the final pool CSV here")
    p.set_defaults(fn=cmd_fixpoint)

    p = sub.add_parser("periodic", help="periodic-factor samples as CSV")
    p.add_argument("--kind", required=True,
                   choices=("F1", "F2", "Frho", "G1", "G2", "P1", "P2"))
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--cplus-re", type=float, default=1.0)
    p.add_argument("--cplus-im", type=float, default=0.0)
    p.set_defaults(fn=cmd_periodic)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes; smoke mode, not the binding gate")
    p.set_defaults(fn=cmd_verify)

    return ap


def _apply_config_file(argv: list[str], ap: argparse.ArgumentParser) -> list[str]:
    """Config precedence: flags > key=value config file > defaults.  The file
    contributes flags that are absent from the command line; a flag counts
    as present in both the ``--flag value`` and ``--flag=value`` forms.  A
    key set to true becomes a bare switch and one set to false is dropped.
    The file itself is named by ``--config path`` or ``--config=path``."""
    idx = next((i for i, a in enumerate(argv) if a.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    if "=" in argv[idx]:
        path = argv[idx].partition("=")[2]
    elif idx + 1 == len(argv):
        ap.error("argument --config: expected one argument")
    else:
        path = argv[idx + 1]
    present = {a.partition("=")[0] for a in argv if a.startswith("--")}
    extra = []
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
            extra.extend([flag] if value.lower() == "true" else [flag, value])
    return argv + extra


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
    try:
        code = args.fn(args)
    except RegimeMismatchError as exc:
        print(f"regime mismatch: {exc}", file=sys.stderr)
        return _EXIT_REGIME
    except (ValueError, ArithmeticError, NotImplementedError) as exc:
        from .roots import IndeterminateRegimeError

        if isinstance(exc, IndeterminateRegimeError):
            print(f"regime mismatch: {exc}", file=sys.stderr)
            return _EXIT_REGIME
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    print(f"# wall-time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
