"""Command line front end: normalize expressions, run verifications, emit traces.

Exit codes: 0 = verified/normalized, 1 = a verification falsified, 2 = usage,
parse or declaration error, or a reader that closed stdout early (reported on
nothing), 3 = internal error (any other exception, reported on one line of
stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import chow as C
from . import expr as E
from . import picard as P
from . import rewrite as R
from . import splitting as S
from . import suite as SU

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# the verify targets that read each option; the others refuse it
OPTION_READERS = {"--n": ("arr", "base-change", "km", "binomial", "mumford"),
                  "--p": ("arr", "base-change", "km", "tau", "binomial"),
                  "--rank": ("arr", "base-change", "tau"),
                  "--trace-json": ("arr", "base-change", "km")}


def load_declarations(path: str) -> tuple[E.SymbolTable, dict[str, int]]:
    """Line-oriented UTF-8 declarations: 'line L;' 'bundle E rank 2;' 'morphism f dim 1;'."""
    table = E.SymbolTable(space="X")
    morphisms: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as ex:
        raise E.ParseError(f"declarations are not UTF-8: {ex.reason}", ex.start) from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        if not stmt.endswith(";"):
            raise E.ExprError(f"declaration missing ';' on line {lineno}")
        words = stmt[:-1].split()
        try:
            # a number is a run of at most MAX_DIGITS ASCII digits: `int` also reads
            # '1_0', '+2' and other scripts' digits
            w = words[-1]
            n = int(w) if w.isascii() and w.isdigit() and len(w) <= E.MAX_DIGITS else -1
            if words[0] == "line" and len(words) == 2:
                table.declare_line(words[1])
            elif words[0] == "bundle" and len(words) == 4 and words[2] == "rank" and n >= 0:
                table.declare_bundle(words[1], n)
            elif words[0] == "morphism" and len(words) == 4 and words[2] == "dim" and n >= 0:
                morphisms[words[1]] = n
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise E.ExprError(f"bad declaration on line {lineno}: {stmt!r}") from None
        except E.SymbolError as ex:
            raise E.ExprError(f"bad declaration on line {lineno}: {ex}") from None
    return table, morphisms


def auto_declare(names: list[str], table: E.SymbolTable) -> None:
    """Declare each unseen name as a line symbol (no-decls mode; no morphism names)."""
    reserved = {"dual", "psi", "theta", "tau", "det", "pull", "det_rf", "O"}
    for name in names:
        if name not in reserved and name not in table:
            table.declare_line(name)


def cmd_normalize(args) -> int:
    text = args.expr
    table, morphisms = (load_declarations(args.decls) if args.decls
                        else (E.SymbolTable(space="X"), None))
    names, morphism_names = E.name_tokens(text)
    if args.n is not None and (args.decls or "det_rf" not in names):
        # the declarations give each morphism its dimension, and only det_rf has one
        print(f"error: normalize {'with --decls' if args.decls else 'without det_rf'} "
              "does not use --n", file=sys.stderr)
        return EXIT_USAGE
    if morphisms is None:
        # a morphism name never stands for a line as well
        auto_declare([name for name in names if name not in morphism_names], table)
    if "det_rf" not in names:
        ast = E.parse(text, table)
        cls = S.eval_expr(ast, S.SplitContext(table))
        if args.format == "json":
            print(json.dumps({"input": text, "normal_form": str(cls)}))
        else:
            print(str(cls))
        return EXIT_OK
    line, n = P.GradedLine(), 1 if args.n is None else args.n
    made: dict[str, P.Morphism] = {}  # one per name: det words over it share its context
    for mname, arg, exp in E.parse_det_line(text, table):
        if morphisms is not None and mname not in morphisms:
            raise E.SymbolError(f"undeclared morphism {mname!r}")
        if mname not in made:
            made[mname] = P.make_morphism(mname, morphisms[mname] if morphisms else n, table)
        line = line * (P.det_rf_atom(made[mname], arg) ** exp)
    line = P.normalize(line)
    rendered = f"{line.render()} | grade= {line.grade}"
    if args.format == "json":
        print(json.dumps({"input": text, "normal_form": rendered,
                          "trivial": line.is_trivial()}))
    else:
        print(rendered)
    return EXIT_OK


def _write_trace(trace: R.ProofTrace, args) -> None:
    if args.trace_json:
        with open(args.trace_json, "w", encoding="utf-8") as fh:
            fh.write(R.emit_trace(trace, "json"))


def cmd_verify(args) -> int:
    target = args.target
    n, p = 1 if args.n is None else args.n, 2 if args.p is None else args.p
    if target == "binomial":
        w = S.binomial_identity_check(n, p)
        if args.format == "json":
            print(json.dumps({"n": n, "p": p, "ok": w.ok, "quotient": str(w.quotient),
                              "lhs": str(w.lhs), "divisor": str(w.divisor)}))
        else:
            print(f"y*tilde(y) - p^(n(n+2)) = {w.lhs}")
            print(f"(y - p^n)^(n+2)        = {w.divisor}")
            print(f"quotient {w.quotient}, remainder {w.remainder}: "
                  f"{'ok' if w.ok else 'FAILED'}")
        return EXIT_OK if w.ok else EXIT_FALSIFIED

    if target == "tau":
        ranks = (args.rank,) if args.rank is not None else SU.TAU_RANKS
        ps = SU.TAU_PRIMES if args.p is None else (p,)
        results = [{"rank": rk, "p": q, "ok": tau == theta,
                    "witness": "" if tau == theta else str(tau - theta)}
                   for rk, q, tau, theta in SU.tau_grid(ranks, ps)]
        ok = all(r["ok"] for r in results)
        if args.format == "json":
            print(json.dumps(results))
        else:
            for r in results:
                print(f"rank {r['rank']} p {r['p']}: "
                      + ("equal" if r["ok"] else f"DIFFER by {r['witness']}"))
        return EXIT_OK if ok else EXIT_FALSIFIED

    if target == "mumford":
        value = C.mumford_exponent(n)
        if args.format == "json":
            print(json.dumps({"k": n, "exponent": str(value)}))
        else:
            print(value)
        return EXIT_OK if value == 6 * n * n - 6 * n + 1 else EXIT_FALSIFIED

    if target == "deligne":
        v = C.deligne_residual()
        if args.format == "json":
            print(json.dumps({"ok": v.ok,
                              "residual": {m: str(c) for m, c in v.residual.term_texts()},
                              "lhs": {m: str(c) for m, c in v.lhs.term_texts()}}))
        else:
            print(f"residual: {v.residual.render('f_!')}")
            print(f"both sides: {v.lhs.render('f_!')}" if v.ok
                  else f"rhs: {v.rhs.render('f_!')}")
        return EXIT_OK if v.ok else EXIT_FALSIFIED

    symbols = {"L": 1} if args.rank in (None, 1) else {"E": args.rank}
    e = R.geom_default_expr(symbols)

    if target == "arr":
        trace = R.verify_arr_identity(n, p, e, symbols)
    elif target == "base-change":
        trace = R.verify_base_change(n, p, e, symbols)
    elif target == "km":
        km = R.knudsen_mumford_expansion(n, p)
        trace = km.trace
        _write_trace(trace, args)
        if args.format == "json":
            print(json.dumps({"left_exponent": km.left_exponent,
                              "exponents": km.exponents,
                              "lambda_factors": km.lambda_factors,
                              "status": trace.status}))
        else:
            print(f"left exponent p^(n(n+2)+1) = {km.left_exponent}")
            for factor in km.lambda_factors:
                print(f"  {factor}")
            print(f"status: {trace.status}")
        return EXIT_OK if trace.verified else EXIT_FALSIFIED
    else:
        raise AssertionError(target)

    _write_trace(trace, args)
    print(R.emit_trace(trace, "json" if args.format == "json" else "text"))
    return EXIT_OK if trace.verified else EXIT_FALSIFIED


def cmd_suite(args) -> int:
    results = SU.run_suite(seed=args.seed)
    if args.format == "json":
        print(json.dumps([{"cell": r.cell, "description": r.description, "ok": r.ok,
                           "detail": r.detail, "seconds": round(r.seconds, 3)}
                          for r in results]))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.cell:<20} {r.seconds:6.2f}s  {r.detail}")
    failing = [r for r in results if not r.ok]
    if failing:
        if args.format != "json":
            print(f"failed: {', '.join(r.cell for r in failing)}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The grammar of every command, built on first use and shared by later calls.

    It holds no handler: `main` dispatches on `args.command`, and `parse_args`
    leaves the parser unchanged, so one call's options never reach the next.
    """
    ap = argparse.ArgumentParser(prog="adamsrr",
                                 description="determinant-level Adams-Riemann-Roch workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize", help="print the canonical normal form of an expression")
    norm.add_argument("expr", help="expression text, or det_rf(f, ...) factors")
    norm.add_argument("--decls", help="declarations file (strict mode)")
    norm.add_argument("--n", type=int,
                      help="relative dimension for det_rf without --decls (default 1)")
    norm.add_argument("--format", choices=("text", "json"), default="text")

    ver = sub.add_parser("verify", help="run one verification")
    ver.add_argument("target", choices=("arr", "base-change", "km", "tau",
                                        "mumford", "deligne", "binomial"))
    ver.add_argument("--n", type=int,
                     help="relative dimension, default 1 (for mumford: the power k)")
    ver.add_argument("--p", type=int,
                     help="the prime characteristic (default 2; tau: every prime of its grid)")
    ver.add_argument("--rank", type=int, help="rank of the test bundle (default: a line)")
    ver.add_argument("--trace-json", dest="trace_json", help="write the trace here")
    ver.add_argument("--format", choices=("text", "json"), default="text")

    run = sub.add_parser("suite", help="run the full verification matrix")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; may be called repeatedly in one process."""
    args = build_parser().parse_args(argv)
    for flag, readers in OPTION_READERS.items() if args.command == "verify" else ():
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.target not in readers:
            print(f"error: verify {args.target} does not use {flag}", file=sys.stderr)
            return EXIT_USAGE
    # an exact result may have more digits than `str(int)` gives by default: the limit
    # (from Python 3.10.7) holds for the options, and is restored for the caller
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    # looked up per call, so a replaced cmd_* takes effect
    command = {"normalize": cmd_normalize, "verify": cmd_verify, "suite": cmd_suite}[args.command]
    try:
        # in the try: `is_prime` refuses a p too large to decide
        if args.command == "verify" and args.p is not None and not R.is_prime(args.p):
            print(f"error: --p {args.p} is not prime", file=sys.stderr)
            return EXIT_USAGE
        if (getattr(args, "n", None) or 0) < 0:
            print("error: --n must be >= 0", file=sys.stderr)
            return EXIT_USAGE
        if getattr(args, "rank", None) is not None and args.rank < 1:
            print("error: --rank must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        code = command(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: what is still buffered, and whatever the
        # interpreter flushes at exit, goes to os.devnull instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (E.ExprError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as ex:
        message = " ".join(str(ex).split())
        print(f"internal error: {type(ex).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
