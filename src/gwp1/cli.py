"""Command-line surface: computation dispatch, persistence and caching.

Exit codes: 0 success, 2 validation error (a pole of a series included), a
precision beyond the working cap (``analytic.PrecisionCapError``: the
requested bits plus the bits lost to cancellation exceed
``analytic.MAX_WORKING_BITS``) or a cache entry or ``--output`` file that
cannot be written, 3 numerical route disagreement, 4
insufficient series order.  Results are emitted as
deterministic JSON (sorted keys, decimal-string numbers) or flat CSV for
coefficient tables.
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
import mpmath

import gwp1
from gwp1 import analytic, asymptotics, correlators, resolvent
from gwp1.analytic import PrecisionCapError, PrecisionContext, RouteDisagreement
from gwp1.correlators import CorrelatorKey, InsufficientOrderError

EXIT_VALIDATION = 2
EXIT_ROUTE_DISAGREEMENT = 3
EXIT_INSUFFICIENT_ORDER = 4

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


def _write_failed(what: str, path: str, exc: OSError):
    click.echo(f"cannot write {what} {path}: {exc.strerror or exc}", err=True)
    sys.exit(EXIT_VALIDATION)


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
        _write_failed("the cache entry under", cache_dir, exc)
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
            _write_failed("the output file", out, exc)
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
        click.echo("cache verification failed: stored payload differs", err=True)
        sys.exit(EXIT_ROUTE_DISAGREEMENT)
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


@click.group()
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
        click.echo("precision must be at least 53 bits", err=True)
        sys.exit(EXIT_VALIDATION)
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
        click.echo("order must be >= 1", err=True)
        sys.exit(EXIT_VALIDATION)

    def compute():
        if route == "both":
            report = resolvent.cross_check_routes(order)
            if not report.ok:
                click.echo(f"route disagreement: {report.detail}", err=True)
                sys.exit(EXIT_ROUTE_DISAGREEMENT)
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
    try:
        orders_t = tuple(int(x) for x in orders.split(","))
        region_t = tuple(int(x) for x in region.split(",")) if region else None
        if k < 2:
            raise ValueError("k must be >= 2")
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_VALIDATION)

    def compute():
        try:
            fk = correlators.f_k_series(k, orders_t, region_t)
        except InsufficientOrderError as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_INSUFFICIENT_ORDER)
        except ValueError as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_VALIDATION)
        data = fk.to_json()
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
    try:
        ins = tuple(int(x) for x in insertions.split(","))
        key = CorrelatorKey(k=k, insertions=ins, g=g, m=m, d=d)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_VALIDATION)

    def compute():
        try:
            result = correlators.extract_invariant(key)
        except InsufficientOrderError as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_INSUFFICIENT_ORDER)
        return _dumps(result.to_json())

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
        click.echo("order must be >= 2", err=True)
        sys.exit(EXIT_VALIDATION)

    def compute():
        if route == "both":
            a = correlators.one_point_series(order)
            b = correlators.one_point_series_oracle(order)
            if a != b:
                click.echo("one-point routes disagree", err=True)
                sys.exit(EXIT_ROUTE_DISAGREEMENT)
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
        click.echo(f"bad arguments: {op} takes {want} arguments, got {len(texts)}", err=True)
        sys.exit(EXIT_VALIDATION)
    if route is not None and op not in ("D", "Hk"):
        click.echo(f"bad arguments: --route applies to D and Hk only, not {op}", err=True)
        sys.exit(EXIT_VALIDATION)

    def compute():
        pc = PrecisionContext(ctx.obj["precision_bits"])
        cx = pc.ctx
        digits = int(pc.bits * 0.301) + 2
        try:
            vals = [_parse_complex(cx, v) for v in texts]
        except (TypeError, ValueError) as exc:
            click.echo(f"bad arguments: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        diagnostics = {}
        err_bound = None
        try:
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
        except RouteDisagreement as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_ROUTE_DISAGREEMENT)
        except (ValueError, analytic.SeriesDivergenceError, PrecisionCapError) as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_VALIDATION)
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
        click.echo("k >= 1, dmax >= 0, gmax >= 0 required", err=True)
        sys.exit(EXIT_VALIDATION)
    lams = [5, 7, 9]
    if name in ("eps0", "qinf") and k > len(lams):
        click.echo(f"{name} is checked at lam = 5, 7, 9: k <= 3 required", err=True)
        sys.exit(EXIT_VALIDATION)

    def compute():
        if name in ("q0", "einf"):
            # the q0 table starts at d = 1 and has no k = 1 entries (the
            # one-point coefficients are checked against their oracle); the
            # einf table starts at g = 0
            expand, table_entry, index, order, first = {
                "q0": (asymptotics.expand_q0, asymptotics.q0_table_entry, "d", dmax, 1),
                "einf": (asymptotics.expand_eps_inf, asymptotics.einf_table_entry, "g", gmax, 0),
            }[name]
            if name == "q0" and k == 1:
                data = expand(k, order)
                field, other = "oracle_match", "the one-point oracle"
                matches = asymptotics.onepoint_oracle_match(data)
                uncompared = []
            else:
                field, other = "table_match", "the table"
                targets = {}
                for i in range(first, order + 1):
                    try:
                        targets[i] = table_entry(k, i)
                    except KeyError:
                        continue
                data = expand(k, order) if targets else None
                matches = {str(i): bool(data.coefficient(i) == t) for i, t in targets.items()}
                uncompared = [i for i in range(first, order + 1) if i not in targets]
            if not matches:
                click.echo(f"nothing to compare: {other} has no {name} entry for k={k} and "
                           f"{first} <= {index} <= {order}", err=True)
                sys.exit(EXIT_VALIDATION)
            if not all(matches.values()):
                click.echo(f"derived coefficients disagree with {other}", err=True)
                sys.exit(EXIT_ROUTE_DISAGREEMENT)
            payload = data.to_json()
            payload[field] = matches
            payload["pass"] = True
            if uncompared:  # indices past the table: derived, but checked by no route
                payload["uncompared"] = uncompared
            return _dumps(payload)
        F = mpmath.mpf
        if name == "debye":
            rep = asymptotics.debye_check([40, 80], 0.6)
        else:
            try:
                if name == "eps0":
                    rep = asymptotics.verify_eps0(k, gmax, lams[:k], 1,
                                                  [F(1) / 8, F(1) / 16, F(1) / 32])
                else:
                    rep = asymptotics.verify_q_inf(k, dmax, lams[:k], 400 / (6 * mpmath.pi),
                                                   [10**4, 4 * 10**4])
            except KeyError as exc:  # past the table: no entry for a g <= gmax or for dmax
                click.echo(exc.args[0], err=True)
                sys.exit(EXIT_VALIDATION)
        if not rep.passed:
            click.echo(f"regime verification failed: {rep.to_json()}", err=True)
            sys.exit(EXIT_ROUTE_DISAGREEMENT)
        return _dumps(rep.to_json())

    _run_cached(ctx, "regime", {"name": name, "k": k, "dmax": dmax, "gmax": gmax}, compute)


@main.command("selftest")
@click.option("--level", type=click.Choice(["quick", "full"]), default="quick",
              show_default=True)
@click.pass_context
def selftest_cmd(ctx, level):
    """Run the acceptance suite (quick tier < 30 s, full tier is the whole
    criteria list) and emit a JSON report."""
    from gwp1 import acceptance
    from gwp1.exprtree import TableEntryError

    try:
        results = acceptance.run_all(level, echo=lambda line: click.echo(line, err=True))
    except TableEntryError as exc:
        click.echo(f"table data error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    report = _dumps({"level": level, "results": [r.to_json() for r in results]})
    _emit(ctx.obj, report)
    if not all(r.passed for r in results):
        sys.exit(EXIT_ROUTE_DISAGREEMENT)


if __name__ == "__main__":
    main()
