"""Command-line interface.

Every subcommand reads a machine (a file path or a bundled name), runs
one analysis and writes a deterministic report as an aligned table, CSV
or JSON.  Exit codes: 0 success, 2 parse error, 3 cap exceeded,
4 domain error.  An output file that cannot be written is exit 2 too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from .convalg import (PATTERN_CAP, AlgebraElement, Scalar, _frac_text,
                      format_element, format_scalar, parse_element, parse_shift)
from .errors import CapExceededError, DomainError, ParseError, excerpt
from .fixedpoints import (boundary_null_certificate, essential_freeness_report,
                          fixed_counts, fixed_counts_csv, hausdorff_witness,
                          is_dangerous, mu_fix_exact)
from .mealy import STATE_CAP, _is_numeral, parse_machine, parse_state_expr, state_cap
from .points import format_point, parse_point
from .traces import canonical_trace, isotropy_trace, rep_matrix

BUNDLED = ("grigorchuk", "adding", "lamplighter")


def _read_file(path: str, what: str) -> str:
    """Text of a file; one that cannot be read is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{what} file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{what} file {path!r}: not UTF-8 text") from None


def _load_machine(spec: str):
    """Return (machine, display name) from a path or a bundled name.  A
    file is read and parsed on every call; a bundled machine is parsed
    once per process, so later calls reuse its memos."""
    if os.path.exists(spec):
        return parse_machine(_read_file(spec, "machine")), os.path.basename(spec)
    name = spec[:-3] if spec.endswith(".gt") else spec
    if name in BUNDLED:
        return _bundled_machine(name), f"{name}.gt"
    raise ParseError(f"machine {spec!r}: no such file or bundled machine "
                     f"(bundled: {', '.join(BUNDLED)})")


@functools.cache
def _bundled_machine(name: str):
    """The bundled machine of that name, parsed once per process."""
    return parse_machine(resources.files("germtrace.data").joinpath(f"{name}.gt").read_text())


def _read_element(machine, spec: str) -> AlgebraElement:
    if os.path.exists(spec):
        spec = _read_file(spec, "element")
    return parse_element(machine, spec)


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _certificate_json(cert) -> dict:
    return {"depth": cert.depth, "checks": [list(c) for c in cert.checks],
            "holds": cert.holds}


def _scalar_json(s: Scalar) -> dict:
    return {"re": _frac_json(s.re), "im": _frac_json(s.im)}


def _float(f: Fraction) -> float:
    """f as a float; a value past the float range reads as inf or -inf."""
    try:
        return float(f)
    except OverflowError:
        return float("inf") if f > 0 else float("-inf")


def _scalar_float_text(s: Scalar) -> str:
    real, imag = s.re, s.im
    if not imag:
        return repr(_float(real))
    sign = "+" if imag > 0 else "-"
    return f"{_float(real)!r}{sign}{abs(_float(imag))!r}i"


def _table(rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [indent + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
            for r in rows]


def _printable(what: str, s: Scalar) -> Scalar:
    """s, once no part has more decimal digits than Python converts to text
    (a part of at most 3 * limit bits is below 8**limit < 10**limit)."""
    limit = sys.get_int_max_str_digits()
    for n in (*s.re.as_integer_ratio(), *s.im.as_integer_ratio()):
        if limit and abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit:
            raise ParseError(f"{what} has more than {limit} decimal digits, "
                             "too many to print")
    return s


def _element_text(elem: AlgebraElement, what: str = "element") -> str:
    for coeff in elem.terms.values():
        _printable(f"{what} coefficient", coeff)
    return format_element(elem)


def _element_json(text: str) -> list[dict]:
    return [dict(zip(("coeff", "shift"), line.split(None, 1)))
            for line in text.splitlines()]


def _machine_header(name: str, machine) -> str:
    return (f"machine: {name} ({machine.size} states, "
            f"alphabet {machine.alphabet_size})")


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _record(args, name: str, machine, fields, extra=None) -> str:
    """A report of (key, value) fields, booleans shown as yes or no: one
    line each after the machine header, one CSV row, or JSON with the
    machine's name and the entries built by extra's functions, which only
    JSON builds."""
    if args.format == "json":
        return _json_dump({"machine": name, **dict(fields),
                           **{key: build() for key, build in (extra or {}).items()}})
    shown = [(k, ("yes" if v else "no") if isinstance(v, bool) else v) for k, v in fields]
    if args.format == "csv":
        return "\n".join(map(",".join, zip(*shown))) + "\n"
    return "\n".join([_machine_header(name, machine), *(f"{k}: {v}" for k, v in shown)]) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _check_printable_depth(d: int, depth: int) -> None:
    """Reject a depth whose d**depth has more decimal digits than Python
    converts to text: the report prints counts and denominators that
    large.  2**depth > 10**(depth // 4), so a depth past four times the
    limit is rejected without computing the power."""
    limit = sys.get_int_max_str_digits()
    if limit and (depth > 4 * limit or d ** depth >= 10 ** limit):
        raise ParseError(f"depth {excerpt(str(depth))}: {d}^K would have more "
                         f"than {limit} decimal digits, too many to print")


def _cmd_fixmeasure(args, machine, name: str) -> str:
    state = parse_state_expr(machine, args.state)
    d = machine.alphabet_size
    _check_printable_depth(d, args.depth)
    counts = fixed_counts(state, args.depth)
    mu = mu_fix_exact(state)
    cert = boundary_null_certificate(state)
    bracket = all(
        Fraction(counts.interior[k], d ** k) <= mu <= Fraction(counts.fixed[k], d ** k)
        for k in range(counts.depth + 1))
    if args.format == "csv":
        return fixed_counts_csv(counts)
    if args.format == "json":
        return _json_dump({
            "machine": name,
            "alphabet": d,
            "state": args.state,
            "counts": {
                "k": list(range(counts.depth + 1)),
                "f": list(counts.fixed),
                "i": list(counts.interior),
                "P": list(counts.live),
            },
            "mu_fix": _frac_json(mu),
            "mu_fix_float": float(mu),
            "bracket_holds": bracket,
            "certificate": _certificate_json(cert),
        })
    lines = [_machine_header(name, machine), f"state: {args.state}", ""]
    rows = [["k", "f_k", "i_k", "P_k", "P_k/d^k"]]
    for k in range(counts.depth + 1):
        frac = Fraction(counts.live[k], d ** k)
        rows.append([str(k), str(counts.fixed[k]), str(counts.interior[k]),
                     str(counts.live[k]), f"{_frac_text(frac)} ({float(frac)!r})"])
    lines.extend(_table(rows))
    lines.append("")
    lines.append(f"mu_fix = {_frac_text(mu)} ({float(mu)!r}), "
                 "both as mu(Fix) and mu(int Fix)")
    lines.append(f"bracket i_k/d^k <= mu <= f_k/d^k at all computed k: "
                 f"{'yes' if bracket else 'NO'}")
    lines.append(f"decay certificate: depth p = {cert.depth}; "
                 f"P_(pk) <= (d^p-1)^k for k = 1..{len(cert.checks)}: "
                 f"{'PASS' if cert.holds else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cmd_essfree(args, machine, name: str) -> str:
    report = essential_freeness_report(machine)
    if args.format == "csv":
        lines = ["state,mu_num,mu_den,mu_float,cert_depth,cert_checks,cert_holds"]
        for (state, mu), cert in zip(report.rows, report.certificates):
            lines.append(f"{state},{mu.numerator},{mu.denominator},{float(mu)!r},"
                         f"{cert.depth},{len(cert.checks)},{cert.holds}")
        return "\n".join(lines) + "\n"
    if args.format == "json":
        return _json_dump({
            "machine": name,
            "rows": [{"state": state, "mu_fix": _frac_json(mu),
                      "mu_fix_float": float(mu),
                      "certificate": _certificate_json(cert)}
                     for (state, mu), cert in zip(report.rows, report.certificates)],
            "essentially_free": report.essentially_free,
            "topologically_free": report.topologically_free,
        })
    lines = [_machine_header(name, machine), ""]
    rows = [["state", "mu_fix", "float", "boundary-null certificate"]]
    for (state, mu), cert in zip(report.rows, report.certificates):
        rows.append([state, _frac_text(mu), repr(float(mu)),
                     f"{'PASS' if cert.holds else 'FAIL'} "
                     f"(p = {cert.depth}, {len(cert.checks)} checks)"])
    lines.extend(_table(rows))
    lines.append("")
    lines.append(f"essentially free: {'yes' if report.essentially_free else 'no'}")
    lines.append(f"topologically free: {'yes' if report.topologically_free else 'no'}")
    return "\n".join(lines) + "\n"


def _cmd_hausdorff(args, machine, name: str) -> str:
    witness = hausdorff_witness(machine)
    if witness is not None:
        state, point = machine.name_of(witness[0].state), format_point(witness[1])
    if args.format == "json":
        found = None if witness is None else {"state": state, "point": point}
        return _json_dump({"machine": name, "hausdorff": witness is None, "witness": found})
    if args.format == "csv":
        row = "yes,," if witness is None else f"no,{state},{point}"
        return f"hausdorff,witness_state,witness_point\n{row}\n"
    lines = [_machine_header(name, machine)]
    if witness is None:
        lines.append("hausdorff: yes (no state admits a boundary fixed point "
                     "with interiorizable restrictions)")
    else:
        lines += ["hausdorff: no", f"witness state: {state}", f"witness point: {point}"]
    return "\n".join(lines) + "\n"


def _cmd_dangerous(args, machine, name: str) -> str:
    point = parse_point(args.point, machine.alphabet_size)
    return _record(args, name, machine, [("point", format_point(point)),
                                         ("dangerous", is_dangerous(machine, point))])


def _cmd_trace(args, machine, name: str) -> str:
    elem = _read_element(machine, args.element)
    tau = _printable("canonical trace", canonical_trace(elem))
    phi = _printable("isotropy trace", isotropy_trace(elem))
    values = {"canonical trace": tau, "isotropy trace": phi,
              "difference": _printable("difference", tau - phi)}
    if args.format == "json":
        return _json_dump({"machine": name, "element": _element_json(_element_text(elem)),
                           **{k.replace(" ", "_"): _scalar_json(v) for k, v in values.items()}})
    rows = [(k, format_scalar(v), _scalar_float_text(v)) for k, v in values.items()]
    if args.format == "csv":
        return "functional,value,float\n" + "".join(
            f"{k.replace(' ', '_')},{v},{f}\n" for k, v, f in rows)
    lines = [_machine_header(name, machine), "element:"]
    lines.extend("  " + ln for ln in (_element_text(elem).splitlines() or ["0"]))
    lines.extend(f"{k:<15} = {v} ({f})" for k, v, f in rows)
    return "\n".join(lines) + "\n"


def _cmd_alg(args, machine, name: str) -> str:
    op = args.op
    if op in ("mult", "add"):
        if args.element1 is None or args.element2 is None:
            raise DomainError(f"alg {op} needs -e1 and -e2")
        e1 = _read_element(machine, args.element1)
        e2 = _read_element(machine, args.element2)
        result = e1 * e2 if op == "mult" else e1 + e2
        return _emit_element(args, name, machine, result)
    if args.element is None:
        raise DomainError(f"alg {op} needs -e")
    elem = _read_element(machine, args.element)
    if op == "adjoint":
        return _emit_element(args, name, machine, elem.adjoint())
    decide = elem.is_zero if op == "iszero" else elem.is_singular
    return _record(args, name, machine, [(f"is_{op[2:]}", decide(args.cap_patterns))],
                   {"element": lambda: _element_json(_element_text(elem))})


def _emit_element(args, name: str, machine, elem: AlgebraElement) -> str:
    text = _element_text(elem, {"mult": "product", "add": "sum"}.get(args.op, args.op))
    if args.format == "json":
        return _json_dump({"machine": name, "result": _element_json(text)})
    if args.format == "csv":
        return text + "\n" if text else "# zero element\n"
    lines = [_machine_header(name, machine), "result:"]
    lines.extend("  " + ln for ln in (text.splitlines() or ["0"]))
    return "\n".join(lines) + "\n"


def _germs_at(machine, x, text: str, flag: str) -> list:
    """Germs at x of the semicolon-separated shifts of one flag; a domain
    error names the offending part."""
    germs = []
    for part in filter(str.strip, text.split(";")):
        try:
            germs.append(parse_shift(machine, part).germ_at(x))
        except DomainError as exc:
            raise DomainError(f"{flag} part {excerpt(part.strip())}: {exc}") from None
    return germs


def _cmd_rep(args, machine, name: str) -> str:
    elem = _read_element(machine, args.element)
    x = parse_point(args.point, machine.alphabet_size)
    basis = _germs_at(machine, x, args.basis, "--basis")
    iso = _germs_at(machine, x, args.iso, "--iso")
    mat = rep_matrix(elem, x, basis, iso)
    for label, row in zip(mat.labels, mat.entries):
        for column, entry in zip(mat.labels, row):
            _printable(f"representation entry ({label}, {column})", entry)
    if args.format == "json":
        return _json_dump({
            "machine": name,
            "point": format_point(x),
            "labels": list(mat.labels),
            "entries": [[_scalar_json(s) for s in row] for row in mat.entries],
            "closed": mat.closed,
        })
    if args.format == "csv":
        lines = ["label," + ",".join(mat.labels)]
        for label, row in zip(mat.labels, mat.entries):
            lines.append(label + "," + ",".join(format_scalar(s) for s in row))
        lines.append(f"closed,{'yes' if mat.closed else 'no'}")
        return "\n".join(lines) + "\n"
    lines = [_machine_header(name, machine), f"point: {format_point(x)}"]
    rows = [[""] + list(mat.labels)]
    for label, row in zip(mat.labels, mat.entries):
        rows.append([label] + [format_scalar(s) for s in row])
    lines.extend(_table(rows))
    lines.append(f"closed: {'yes' if mat.closed else 'no'}")
    return "\n".join(lines) + "\n"


def _cmd_wordproblem(args, machine, name: str) -> str:
    verdict = parse_state_expr(machine, args.state).is_identity()
    return _record(args, name, machine, [("expression", args.state), ("identity", verdict)])


# ---------------------------------------------------------------------------
# wiring

def _int_at_least(text: str, least: int, what: str) -> int:
    """An optional '-' and ASCII decimal digits, read as an int >= least."""
    try:
        if not _is_numeral(text.removeprefix("-")):
            raise ValueError
        n = int(text)
    except ValueError:  # not a numeral, or more digits than int() converts
        raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"{what}, got {n}")
    return n


def _cap(text: str) -> int:
    return _int_at_least(text, 1, "cap must be positive")


def _depth(text: str) -> int:
    return _int_at_least(text, 0, "depth must be >= 0")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing never mutates
    it: each call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="germtrace",
        description="Exact fixed-point measures, germs and traces for "
                    "finite-state tree automorphisms.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, cap_states=True):
        p.add_argument("-m", "--machine", required=True,
                       help="machine file or bundled name "
                            "(grigorchuk, adding, lamplighter)")
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        p.add_argument("-o", "--output", help="write the report to a file")
        if cap_states:
            p.add_argument("--cap-states", type=_cap, default=STATE_CAP,
                           help="limit on the states of each product, inverse or "
                                "pattern graph built; for the state expression "
                                "itself, on the reduced words explored")

    p = sub.add_parser("fixmeasure", help="fixed-word counts and exact measure")
    p.add_argument("-s", "--state", required=True)
    p.add_argument("-K", "--depth", type=_depth, default=10)
    common(p)
    p.set_defaults(run=_cmd_fixmeasure)

    p = sub.add_parser("essfree", help="essential freeness report")
    common(p, cap_states=False)
    p.set_defaults(run=_cmd_essfree)

    p = sub.add_parser("hausdorff", help="Hausdorffness of the germ groupoid")
    common(p, cap_states=False)
    p.set_defaults(run=_cmd_hausdorff)

    p = sub.add_parser("dangerous", help="is the unit at a point a limit of non-units")
    p.add_argument("-x", "--point", required=True)
    common(p, cap_states=False)
    p.set_defaults(run=_cmd_dangerous)

    p = sub.add_parser("trace", help="canonical and isotropy traces of an element")
    p.add_argument("-e", "--element", required=True,
                   help="element text or file (one '<scalar> <state>:<u>><v>' per line)")
    common(p)
    p.set_defaults(run=_cmd_trace)

    p = sub.add_parser("alg", help="algebra operations on elements")
    p.add_argument("op", choices=("mult", "add", "adjoint", "iszero", "issingular"))
    p.add_argument("-e", "--element", help="element for unary ops")
    p.add_argument("-e1", "--element1", help="left element for binary ops")
    p.add_argument("-e2", "--element2", help="right element for binary ops")
    p.add_argument("--cap-patterns", type=_cap, default=PATTERN_CAP,
                   help="limit on explored coincidence-pattern states (iszero, issingular)")
    common(p)
    p.set_defaults(run=_cmd_alg)

    p = sub.add_parser("rep", help="truncated representation matrix")
    p.add_argument("-e", "--element", required=True)
    p.add_argument("-x", "--point", required=True)
    p.add_argument("--basis", required=True,
                   help="semicolon-separated shifts, e.g. 'e:>;b:>;c:>;d:>'")
    p.add_argument("--iso", default="",
                   help="semicolon-separated isotropy shifts forming a finite subgroup")
    common(p)
    p.set_defaults(run=_cmd_rep)

    p = sub.add_parser("wordproblem", help="decide whether a state expression is trivial")
    p.add_argument("-s", "--state", required=True,
                   help="expression over state names with *, ^-1, |word")
    common(p)
    p.set_defaults(run=_cmd_wordproblem)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with state_cap(getattr(args, "cap_states", STATE_CAP)):
            report = args.run(args, *_load_machine(args.machine))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"error: output file {args.output!r}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
