"""Command-line surface: computation dispatch, persistence and caching.

Exit codes come from one table, ``EXIT_CODES``, that the command group
applies to the library's exceptions: it prints the message as one line on
stderr and exits with the code of the most specific class listed.

* 0 success;
* 2 ``ValueError`` (bad input, a pole of a series, a cache entry or
  ``--output`` file that cannot be written), ``SeriesDivergenceError``,
  ``PrecisionCapError`` (the requested bits plus the bits lost to
  cancellation exceed ``analytic.MAX_WORKING_BITS``) and
  ``asymptotics.NoTableEntry`` (a regime request past its table);
* 3 ``RouteDisagreement``: two routes, a cached payload and its recomputation,
  or a regime check disagree;
* 4 ``InsufficientOrderError``: insufficient series order.

Any other exception is a fault of the program and propagates.  Results are
emitted as deterministic JSON (sorted keys, decimal-string numbers) or flat
CSV for coefficient tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
import time
from functools import lru_cache

import click

import gwp1
from gwp1 import analytic, asymptotics, correlators, resolvent
from gwp1.analytic import (PrecisionCapError, PrecisionContext, RouteDisagreement,
                           SeriesDivergenceError)
from gwp1.correlators import CorrelatorKey, InsufficientOrderError

EXIT_CODES = {
    InsufficientOrderError: 4,
    RouteDisagreement: 3,
    ValueError: 2,
    SeriesDivergenceError: 2,
    PrecisionCapError: 2,
    asymptotics.NoTableEntry: 2,
}

CACHE_ENV = "GWP1_CACHE_DIR"


def _default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "gwp1")


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the package's python sources and tables, so that a
    changed program never reads payloads an older one wrote."""
    root = os.path.dirname(gwp1.__file__)
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [os.path.join(dirpath, f) for f in filenames if f.endswith((".py", ".json"))]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _cache_key(command: str, params: dict) -> str:
    canon = json.dumps({"command": command, "params": params, "version": gwp1.__version__,
                        "sources": _source_digest()},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _cache_read(cache_dir: str, key: str):
    path = os.path.join(cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except ValueError:
        return None  # corrupt file: a miss, recomputed and overwritten
    if not isinstance(entry, dict) or not isinstance(entry.get("payload"), str):
        return None  # JSON of the wrong shape: also a miss
    return entry["payload"]


def _cache_write(cache_dir: str, key: str, payload: str):
    entry = {"key": key, "created_at": time.time(), "payload": payload}
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError as exc:
        raise ValueError(f"cannot write the cache entry under {cache_dir}: "
                         f"{exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(ctx_obj, payload: str):
    out = ctx_obj.get("output")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write the output file {out}: {exc.strerror or exc}") from exc
    else:
        click.echo(payload, nl=False)
        if not payload.endswith("\n"):
            click.echo()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _run_cached(ctx, command: str, params: dict, compute):
    """Dispatch with content-addressed caching and the verify mode."""
    obj = ctx.obj
    key = _cache_key(command, params)
    cache_dir = obj["cache_dir"]
    use_cache = not obj["no_cache"]
    cached = _cache_read(cache_dir, key) if (use_cache or obj["verify_cache"]) else None
    if cached is not None and use_cache and not obj["verify_cache"]:
        _emit(obj, cached)
        return
    payload = compute()
    if obj["verify_cache"] and cached is not None and cached != payload:
        raise RouteDisagreement("cache verification failed: stored payload differs")
    if use_cache:
        _cache_write(cache_dir, key, payload)
    _emit(obj, payload)


def _csv_from_series(series_json: dict) -> str:
    lines = ["index,coeff"]
    for t in series_json["terms"]:
        powers = " ".join(str(p) for p in t["powers"])
        coeff = t["coeff"] if isinstance(t["coeff"], str) else json.dumps(t["coeff"])
        lines.append(f'"{powers}","{coeff}"')
    return "\n".join(lines) + "\n"


class _Group(click.Group):
    """The command group; its ``invoke`` is the one place that turns an
    exception of ``EXIT_CODES`` into its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            click.echo(str(exc), err=True)
            raise SystemExit(next(EXIT_CODES[c] for c in type(exc).__mro__
                                  if c in EXIT_CODES))


@click.group(cls=_Group)
@click.option("--precision-bits", type=int, default=128, show_default=True,
              help="working precision for numeric commands (>= 53)")
@click.option("--cache-dir", type=click.Path(), default=None,
              help=f"cache directory (default ~/.cache/gwp1, or ${CACHE_ENV})")
@click.option("--no-cache", is_flag=True, help="bypass the result cache")
@click.option("--verify-cache", is_flag=True,
              help="recompute and compare against any cached payload")
@click.option("--output", type=click.Path(), default=None, help="write result to a file")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.pass_context
def main(ctx, precision_bits, cache_dir, no_cache, verify_cache, output, fmt):
    """Exact and arbitrary-precision computation of stationary sphere
    invariants and their analytic counterparts."""
    if precision_bits < 53:
        raise ValueError("precision must be at least 53 bits")
    ctx.ensure_object(dict)
    ctx.obj.update(
        precision_bits=precision_bits,
        cache_dir=cache_dir or _default_cache_dir(),
        no_cache=no_cache,
        verify_cache=verify_cache,
        output=output,
        fmt=fmt,
    )


@main.command("resolvent")
@click.option("--route", type=click.Choice(["recursion", "closed-form", "both"]),
              default="closed-form", show_default=True)
@click.option("--order", type=int, required=True)
@click.pass_context
def resolvent_cmd(ctx, route, order):
    """Matrix resolvent series by either exact route (or their comparison)."""
    if order < 1:
        raise ValueError("order must be >= 1")

    def compute():
        if route == "both":
            report = resolvent.cross_check_routes(order)
            if not report.ok:
                raise RouteDisagreement(f"route disagreement: {report.detail}")
            return _dumps(report.to_json())
        if route == "recursion":
            data = resolvent.recursion_resolvent(order).to_json("recursion")
        else:
            data = resolvent.closed_form_M(order).to_json("closed-form")
        return _dumps(data)

    _run_cached(ctx, "resolvent", {"route": route, "order": order}, compute)


@main.command("correlator")
@click.option("--k", type=int, required=True)
@click.option("--orders", required=True, help="comma-separated per-variable orders")
@click.option("--region", default=None, help="comma-separated variable ordering")
@click.pass_context
def correlator_cmd(ctx, k, orders, region):
    """Multi-point generating series through the given inverse orders."""
    orders_t = tuple(int(x) for x in orders.split(","))
    region_t = tuple(int(x) for x in region.split(",")) if region else None
    if k < 2:
        raise ValueError("k must be >= 2")

    def compute():
        data = correlators.f_k_series(k, orders_t, region_t).to_json()
        if ctx.obj["fmt"] == "csv":
            return _csv_from_series(data["series"])
        return _dumps(data)

    _run_cached(ctx, "correlator",
                {"k": k, "orders": list(orders_t), "region": list(region_t) if region_t else None,
                 "fmt": ctx.obj["fmt"]},
                compute)


@main.command("invariant")
@click.option("--k", type=int, required=True)
@click.option("--i", "insertions", required=True, help="comma-separated descendant ladders")
@click.option("--g", type=int, required=True)
@click.option("--m", type=int, default=0, show_default=True)
@click.option("--d", type=int, default=None, help="expected degree (validated if given)")
@click.pass_context
def invariant_cmd(ctx, k, insertions, g, m, d):
    """One stationary invariant, exact."""
    ins = tuple(int(x) for x in insertions.split(","))
    key = CorrelatorKey(k=k, insertions=ins, g=g, m=m, d=d)

    def compute():
        return _dumps(correlators.extract_invariant(key).to_json())

    _run_cached(ctx, "invariant",
                {"k": k, "insertions": list(ins), "g": g, "m": m, "d": d}, compute)


@main.command("one-point")
@click.option("--order", type=int, required=True)
@click.option("--route", type=click.Choice(["production", "oracle", "both"]),
              default="production", show_default=True)
@click.pass_context
def one_point_cmd(ctx, order, route):
    """One-point series by the production formula or its oracle."""
    if order < 2:
        raise ValueError("order must be >= 2")

    def compute():
        if route == "both":
            a = correlators.one_point_series(order)
            b = correlators.one_point_series_oracle(order)
            if a != b:
                raise RouteDisagreement("one-point routes disagree")
            data = {"routes_agree": True, "series": a.to_json()}
        elif route == "oracle":
            data = {"series": correlators.one_point_series_oracle(order).to_json()}
        else:
            data = {"series": correlators.one_point_series(order).to_json()}
        if ctx.obj["fmt"] == "csv":
            return _csv_from_series(data["series"])
        return _dumps(data)

    _run_cached(ctx, "one-point", {"order": order, "route": route, "fmt": ctx.obj["fmt"]},
                compute)


# (fewest, most) complex arguments per eval op; Hk takes k >= 2 points and s
EVAL_ARITY = {"G": (2, 2), "Gt": (2, 2), "j": (2, 2), "J": (2, 2), "B": (2, 2),
              "D": (3, 3), "Dstar": (3, 3), "H1": (2, 2), "H1star": (2, 2),
              "Hk": (3, None)}


def _parse_complex(ctx, txt: str):
    """One argument as a complex number of the mpmath context ``ctx``, read
    from its digits at the context's precision.  Each part must be finite
    and inside binary64 range, where the series guards and walks work."""
    text = re.sub(r"i(?!nf)", "j", txt.replace(" ", ""))  # the unit, not the i of "inf"
    try:
        z = ctx.mpc(ctx.convert(text))
    except AttributeError:  # mpmath's complex-string parser found no match
        raise ValueError(f"cannot read {txt!r} as a complex number") from None
    for part in (z.real, z.imag):
        if not ctx.isfinite(part) or abs(part) > sys.float_info.max:
            raise ValueError(f"{txt!r} is not finite or lies beyond binary64 range")
    return z


def _echo(ctx, x) -> str:
    """The text of an argument: Python's repr when binary64 holds it exactly,
    else its value to the decimal precision of ``ctx``."""
    return repr(float(x)) if ctx.mpf(float(x)) == x else ctx.nstr(x, ctx.dps)


@main.command("eval")
@click.option("--op", type=click.Choice(list(EVAL_ARITY)), required=True)
@click.option("--args", "args_", required=True,
              help="semicolon-separated complex arguments, e.g. '0.3;1.1'")
@click.option("--route", default=None, help="trace|factorized (Hk), series|product|both (D)")
@click.pass_context
def eval_cmd(ctx, op, args_, route):
    """Numeric evaluation of the analytic objects at the chosen precision."""
    texts = [v for v in args_.split(";") if v.strip()]
    fewest, most = EVAL_ARITY[op]
    if len(texts) < fewest or (most is not None and len(texts) > most):
        want = f"{fewest}" if fewest == most else f"at least {fewest}"
        raise ValueError(f"bad arguments: {op} takes {want} arguments, got {len(texts)}")
    if route is not None and op not in ("D", "Hk"):
        raise ValueError(f"bad arguments: --route applies to D and Hk only, not {op}")

    def compute():
        pc = PrecisionContext(ctx.obj["precision_bits"])
        cx = pc.ctx
        digits = int(pc.bits * 0.301) + 2
        try:
            vals = [_parse_complex(cx, v) for v in texts]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad arguments: {exc}") from exc
        diagnostics = {}
        err_bound = None
        with analytic.precision_log() as log:
            if op in ("G", "Gt", "j", "H1", "J"):
                fn = {"G": analytic.hyper_G, "Gt": analytic.hyper_Gt,
                      "j": analytic.bessel_j_mod, "H1": analytic.h_1,
                      "J": analytic.bessel_J}[op]
                value, err_bound = fn(pc, *vals)
            elif op == "B":
                B = analytic.matrix_B(pc, *vals)
                diagnostics["det"] = cx.nstr(abs(B.det()), 8)
                diagnostics["entries"] = [
                    {"re": cx.nstr(e.real, digits), "im": cx.nstr(e.imag, digits)}
                    for e in B.entries()
                ]
                value = B.trace()
            elif op == "D":
                value = analytic.kernel_D(pc, *vals, route=route or "both")
            elif op == "Dstar":
                value = analytic.kernel_Dstar(pc, *vals)
            elif op == "H1star":
                value = analytic.h_1_star(pc, *vals)
            else:  # Hk
                value = analytic.h_k(pc, vals[:-1], vals[-1], route=route or "trace")
        value = cx.mpc(value)
        return _dumps({
            "op": op,
            "args": [{"re": _echo(cx, v.real), "im": _echo(cx, v.imag)} for v in vals],
            "precision_bits": pc.bits,
            "working_bits": max(log.working_bits, pc.bits),
            "bits_lost": log.bits_lost,
            "route": route,
            "value": {"re": cx.nstr(value.real, digits), "im": cx.nstr(value.imag, digits)},
            "err_bound": cx.nstr(err_bound, 8) if err_bound is not None else None,
            "diagnostics": diagnostics,
        })

    _run_cached(ctx, "eval",
                {"op": op, "args": args_, "route": route,
                 "precision_bits": ctx.obj["precision_bits"]},
                compute)


@main.command("regime")
@click.option("--name", type=click.Choice(["q0", "einf", "eps0", "qinf", "debye"]),
              required=True)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--dmax", type=int, default=2, show_default=True)
@click.option("--gmax", type=int, default=1, show_default=True)
@click.pass_context
def regime_cmd(ctx, name, k, dmax, gmax):
    """Asymptotic-regime coefficients (exact regimes) or verification
    reports (numeric regimes), checked against the table files."""
    if k < 1 or dmax < 0 or gmax < 0:
        raise ValueError("k >= 1, dmax >= 0, gmax >= 0 required")
    order = dmax if name in ("q0", "qinf") else gmax

    def compute():
        if name in ("q0", "einf"):
            data, field, matches, uncompared = asymptotics.table_match(name, k, order)
            if not all(matches.values()):
                other = "the table" if field == "table_match" else "the one-point oracle"
                raise RouteDisagreement(f"derived coefficients disagree with {other}")
            payload = data.to_json()
            payload[field] = matches
            payload["pass"] = True
            if uncompared:  # indices past the table: derived, but checked by no route
                payload["uncompared"] = uncompared
            return _dumps(payload)
        rep = asymptotics.numeric_check(name, k, order)
        if not rep.passed:
            raise RouteDisagreement(f"regime verification failed: {rep.to_json()}")
        return _dumps(rep.to_json())

    # the key holds what the regime reads: debye reads neither k nor an order
    params = {"name": name} if name == "debye" else {"name": name, "k": k, "order": order}
    _run_cached(ctx, "regime", params, compute)


@main.command("selftest")
@click.pass_context
def selftest_cmd(ctx):
    """Run every acceptance criterion and emit a JSON report."""
    from gwp1 import acceptance
    from gwp1.exprtree import TableEntryError

    try:
        results = acceptance.run_all(echo=lambda line: click.echo(line, err=True))
    except TableEntryError as exc:
        raise ValueError(f"table data error: {exc}") from exc
    report = _dumps({"results": [r.to_json() for r in results]})
    _emit(ctx.obj, report)
    failed = sum(not r.passed for r in results)
    if failed:
        raise RouteDisagreement(f"selftest: {failed} of {len(results)} checks failed")


if __name__ == "__main__":
    main()
