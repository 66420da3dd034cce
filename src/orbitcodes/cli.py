"""Command-line front end.

Subcommands: poly (irreducible | order | primitive | list), spread,
analyze, orbit, distance, selfcheck.  Exit codes: 0 success, 2 usage or
parse failure, 3 violated mathematical precondition, 4 verification
mismatch (including selfcheck failures).  A reader that closes stdout
while a command is still writing ends the run quietly with 0; a command
that has finished keeps its own code.  Output files are written completely
before anything is printed, so a failed write prints nothing to stdout.

Analysis results are emitted as a self-describing "key = value" document
(schema versioned, fixed key order, "-" for empty); parse_report inverts
render exactly.  One writer, _lines, prints every "key = value" line of
analyze, spread and orbit, each value rendered by _fmt.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from collections import namedtuple

from . import __version__, polyring
from .errors import DomainError, ParseError
from .fieldmap import ExtensionContext
from .gfq import DESK_SCALE_CAP, FieldSpec, _max_exponent, _prime_factors
from .matspace import Subspace, _check_text_field, format_matrix, parse_matrix
from .orbitcode import (AnalysisReport, _check_least_pairs, _check_oracle_budget,
                        _check_primitive, _check_spread_shape, _oracle_report,
                        _read_code_header, _read_code_words, analyze,
                        build_spread_start, check_sidon_condition,
                        find_sidon_subspace, format_code, generate_orbit,
                        min_distance_brute, min_distance_orbit)
from .polyring import (Poly, companion_matrix, format_poly, is_irreducible,
                       is_primitive, list_irreducibles, order_of_polynomial,
                       parse_poly, poly_powmod)


# -- report document ------------------------------------------------------

def _parse_opt_int(s):
    return None if s == "-" else int(s)


def _parse_bool(s):
    if s == "true":
        return True
    if s == "false":
        return False
    if s == "-":
        return None
    raise ParseError(f"expected a boolean, got {s!r}")


def _parse_int_tuple(s):
    return () if s == "-" else tuple(int(v) for v in s.split(","))


def _parse_pairs(s):
    if s == "-":
        return ()
    out = []
    for item in s.split(","):
        a, m = item.split(":")
        out.append((int(a), int(m)))
    return tuple(out)


#: The fields of a ReportDocument in key order, each with the parser of its
#: rendered value.  The _INDEXED fields are tuples rendered one "name.i"
#: line per entry, and their parser reads one entry.
_FIELDS = (
    ("schema", int),
    ("tool", str),
    ("mode", str),
    ("q", int),
    ("base_modulus", lambda s: None if s == "-" else s),
    ("poly", str),
    ("n", int),
    ("k", int),
    ("start", lambda s: tuple(s.split(";"))),
    ("group_order", int),
    ("membership", _parse_int_tuple),
    ("orbit_exponents", _parse_int_tuple),
    ("per_orbit_differences", _parse_pairs),
    ("merged_differences", _parse_pairs),
    ("stabilizer_shifts", _parse_int_tuple),
    ("predicted_cardinality", int),
    ("intersection_dim", int),
    ("predicted_distance", _parse_opt_int),
    ("all_orbits_distinct", _parse_bool),
    ("spread", _parse_bool),
    ("oracle_run", _parse_bool),
    ("verified_cardinality", _parse_opt_int),
    ("verified_distance", _parse_opt_int),
    ("verified_agrees", _parse_bool),
)
_INDEXED = ("orbit_exponents", "per_orbit_differences")


class ReportDocument(namedtuple("ReportDocument", [name for name, _ in _FIELDS])):
    """Round-trippable serialization of an AnalysisReport, an immutable
    named tuple whose values are what _FIELDS' parsers return."""

    __slots__ = ()

    @classmethod
    def from_analysis(cls, report: AnalysisReport, poly: Poly, start: Subspace,
                      base_modulus: Poly | None = None) -> "ReportDocument":
        """Fields named as in AnalysisReport are copied; the rest are set here."""
        derived = dict(
            schema=1,
            tool=f"orbitcodes {__version__}",
            base_modulus=format_poly(base_modulus) if base_modulus else None,
            poly=format_poly(poly),
            start=tuple(format_matrix(start.mat).split("\n")),
            per_orbit_differences=tuple(tuple(dm.items())
                                        for dm in report.per_orbit_differences),
            merged_differences=tuple(report.differences.items()),
            oracle_run=report.verified,
            verified_agrees=report.verification_ok,
        )
        shared = {name: getattr(report, name) for name, _ in _FIELDS
                  if name not in derived}
        return cls(**shared, **derived)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if not value:
            return "-"
        if isinstance(value[0], tuple):  # (residue, multiplicity) pairs
            return ",".join(f"{a}:{m}" for a, m in value)
        # the rows of a matrix are joined by ";", numbers by ","
        return (";" if isinstance(value[0], str) else ",").join(map(str, value))
    return str(value)


def _lines(pairs) -> str:
    """The one writer of "key = value" lines: a line per (key, value) pair."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def render_report(doc: ReportDocument) -> str:
    return _lines(pair for (name, _), value in zip(_FIELDS, doc) for pair in (
        [(f"{name}.{i}", sub) for i, sub in enumerate(value)] if name in _INDEXED
        else [(name, value)]))


def parse_report(text: str) -> ReportDocument:
    """Inverse of render_report."""
    raw: dict[str, str] = {}
    indexed: dict[str, list[tuple[str, str]]] = {name: [] for name in _INDEXED}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if " = " not in line:
            raise ParseError(f"report line {lineno} is not 'key = value'")
        key, value = line.split(" = ", 1)
        base, _, idx = key.partition(".")
        if base in indexed and idx:
            indexed[base].append((idx, value))
        else:
            raw[key] = value
    values = []
    for name, parse in _FIELDS:
        if name not in indexed and name not in raw:
            raise ParseError(f"report is missing key {name!r}")
        try:
            if name in indexed:
                entries = sorted((int(i), v) for i, v in indexed[name])
                values.append(tuple(parse(v) for _, v in entries))
            else:
                values.append(parse(raw[name]))
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"report key {name!r} has a malformed value") from None
    return ReportDocument(*values)


# -- shared option handling ------------------------------------------------

def _base_field(q: int, base_modulus: str | None) -> FieldSpec:
    """Resolve -q / --base-modulus into a base field."""
    if q < 2:
        raise DomainError(f"field order {q} is too small")
    # The cap comes first: it bounds the trial division below.
    if q > DESK_SCALE_CAP:
        raise DomainError(
            f"field order {q} exceeds the desk-scale cap {DESK_SCALE_CAP}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise DomainError(f"field order {q} is not a prime power")
    p = primes[0]
    r = _max_exponent(p, q)
    prime = FieldSpec(p)
    if r == 1:
        if base_modulus:
            raise ParseError("--base-modulus only applies to prime-power q")
        return prime
    if not base_modulus:
        raise ParseError(
            f"q = {q} = {p}^{r} requires --base-modulus (a degree-{r} "
            f"irreducible over GF({p}))")
    modulus = parse_poly(prime, base_modulus)
    if modulus.degree != r:
        raise DomainError(f"base modulus must have degree {r} for q = {q}")
    return prime.extend(modulus)


def _read_start(field: FieldSpec, args, degree: int) -> Subspace:
    """The starting subspace, whose rows must be independent vectors of
    length degree.  The shape is checked before the row reduction, which
    is cubic in the matrix size."""
    if args.start_rows is not None:  # an empty --start-rows is parsed, and refused
        text = args.start_rows.replace(";", "\n")
    else:
        with open(args.start, encoding="ascii") as handle:
            text = handle.read()
    mat = parse_matrix(field, text)
    if mat.ncols != degree:
        raise DomainError(f"start has {mat.ncols} columns but the polynomial "
                          f"has degree {degree}")
    if mat.nrows > degree:
        raise DomainError("starting rows are linearly dependent")
    u = Subspace(mat)
    if u.dim != mat.nrows:
        raise DomainError("starting rows are linearly dependent")
    return u


def _write_file(path: str, text: str) -> None:
    """Write text to path completely, before anything is printed.

    A regular file, or a new one, is replaced atomically: a temporary file
    beside the target that symlinks lead to, given the old file's mode (a
    new file gets what open(path, "w") would give), is renamed over it once
    complete.  Any other target is written in place: a device such as
    /dev/null, a pipe, a file with more than one hard link, or a file in a
    directory where no temporary file can be made.
    """
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    try:
        try:
            st = os.stat(target)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            if (not stat.S_ISREG(st.st_mode) or st.st_nlink > 1
                    or not os.access(directory, os.W_OK | os.X_OK)):
                with open(target, "w", encoding="ascii") as handle:
                    handle.write(text)
                return
            mode = stat.S_IMODE(st.st_mode)
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".orbitcodes-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # Name the file asked for, not the temporary or resolved one.
        raise OSError(exc.errno, exc.strerror, path) from None


def _field_args(sub, modulus_help="polynomial over the base field"):
    sub.add_argument("-q", type=int, required=True,
                     help="base field order (prime or prime power)")
    sub.add_argument("--base-modulus", metavar="POLY",
                     help="degree-r irreducible over Z_p defining F_q = F_{p^r}")
    sub.add_argument("-p", "--poly", required=True, metavar="POLY", help=modulus_help)


# -- commands ---------------------------------------------------------------

def _cmd_poly(args) -> int:
    field = _base_field(args.q, args.base_modulus)
    if args.action == "list":
        for f in list_irreducibles(field, args.n):
            print(format_poly(f))
        return 0
    f = parse_poly(field, args.polynomial)
    if args.action == "irreducible":
        print("true" if is_irreducible(f) else "false")
    elif args.action == "order":
        print(order_of_polynomial(f))
    else:  # primitive
        print("true" if is_primitive(f) else "false")
    return 0


def _cmd_spread(args) -> int:
    field = _base_field(args.q, args.base_modulus)
    _check_text_field(field)  # the start is printed in the matrix text format
    poly = parse_poly(field, args.poly)
    if args.n is not None and poly.degree != args.n:
        raise ParseError(f"polynomial degree {poly.degree} does not match -n {args.n}")
    _check_spread_shape(args.k, poly.degree)  # before the context's work
    q, n = field.order, poly.degree
    if args.verify:  # the words hold each of the q^n - 1 nonzero vectors once
        _check_oracle_budget((q ** n - 1) // (q ** args.k - 1), q, args.k)
    extension = field.extend(poly)

    # Refuse an oversized start on ord(p), before the logs.  A primitive p
    # holds it on one orbit; any other p is refused as build_spread_start does.
    def order():
        _check_primitive(polyring._order(poly) == q ** n - 1)
        return q ** n - 1
    _check_least_pairs(q, n, args.k, order)
    ctx = ExtensionContext(extension)
    start = build_spread_start(args.k, n, ctx)
    report = analyze(start, ctx)
    if args.verify or args.out:
        code = generate_orbit(start, companion_matrix(poly))
        if args.verify:
            report = _oracle_report(report, code)
        if args.out:
            _write_file(args.out, format_code(code))
    pairs = [("start", tuple(format_matrix(start.mat).split("\n"))),
             ("predicted_cardinality", report.predicted_cardinality),
             ("predicted_distance", report.predicted_distance), ("spread", report.spread)]
    if args.verify:
        pairs += [("verified_cardinality", report.verified_cardinality),
                  ("verified_distance", report.verified_distance),
                  ("verified_agrees", report.verification_ok)]
    if args.out:
        pairs.append(("export", args.out))
    sys.stdout.write(_lines(pairs))
    return 4 if args.verify and not report.verification_ok else 0


def _cmd_analyze(args) -> int:
    field = _base_field(args.q, args.base_modulus)
    poly = parse_poly(field, args.poly)
    start = _read_start(field, args, poly.degree)
    extension = field.extend(poly)
    if poly.coeffs[0]:  # refuse an oversized start before the logs (else the context does)
        _check_least_pairs(field.order, poly.degree, start.dim, lambda: polyring._order(poly))
    ctx = ExtensionContext(extension)
    report = analyze(start, ctx, verify=args.verify)
    base_mod = field.modulus if field.level > 0 else None
    doc = ReportDocument.from_analysis(report, poly, start, base_mod)
    text = render_report(doc)
    if args.out:
        _write_file(args.out, text)
    sys.stdout.write(text)
    return 4 if args.verify and not report.verification_ok else 0


def _cmd_orbit(args) -> int:
    field = _base_field(args.q, args.base_modulus)
    poly = parse_poly(field, args.poly)
    start = _read_start(field, args, poly.degree)
    code = generate_orbit(start, companion_matrix(poly))
    order = code.generator_order  # before the file, so a failure writes nothing
    _write_file(args.out, format_code(code))
    sys.stdout.write(_lines((("cardinality", len(code)), ("generator_order", order),
                             ("export", args.out))))
    return 0


def _cmd_distance(args) -> int:
    with open(args.file, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    field_of = functools.partial(_base_field, base_modulus=args.base_modulus)
    field, n, k, size = _read_code_header(lines, field_of)
    _check_oracle_budget(size, field.order, k)  # before any block is read
    words = _read_code_words(field, n, k, size, lines)
    del lines  # a list of every line of the file: not held while the oracle runs
    print(min_distance_brute(words))
    return 0


# -- selfcheck --------------------------------------------------------------

class _CheckFail(Exception):
    pass


def _expect(label, actual, expected):
    if actual != expected:
        raise _CheckFail(f"{label}: expected {expected}, got {actual}")
    return f"{label} = {expected}"


def _selfcheck_battery():
    f2 = FieldSpec(2)
    f3 = FieldSpec(3)
    p64 = parse_poly(f2, "x^6+x+1")
    p5 = parse_poly(f2, "x^4+x^3+x^2+x+1")
    p15a = parse_poly(f2, "x^4+x+1")
    p15b = parse_poly(f2, "x^4+x^3+1")

    def polynomial_orders():
        a = _expect("ord(x^4+x+1)", order_of_polynomial(p15a), 15)
        b = _expect("ord(x^4+x^3+1)", order_of_polynomial(p15b), 15)
        c = _expect("ord(x^4+x^3+x^2+x+1)", order_of_polynomial(p5), 5)
        d = _expect("ord(x^6+x+1)", order_of_polynomial(p64), 63)
        return "; ".join((a, b, c, d))

    def primitivity():
        _expect("primitive(x^6+x+1)", is_primitive(p64), True)
        _expect("primitive(x^4+x^3+1)", is_primitive(p15b), True)
        _expect("primitive(x^4+x^3+x^2+x+1)", is_primitive(p5), False)
        return "primitivity of degree-4 and degree-6 moduli"

    def irreducible_lists():
        _expect("degree-2 list", [format_poly(f) for f in list_irreducibles(f2, 2)],
                ["x^2+x+1"])
        _expect("degree-4 list", sorted(format_poly(f) for f in list_irreducibles(f2, 4)),
                ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"])
        return "irreducible polynomial enumeration over GF(2)"

    def companion_and_conjugacy():
        from .matspace import groups_conjugate, is_irreducible_matrix, matrix_order
        c = companion_matrix(parse_poly(f2, "x^2+x+1"))
        _expect("companion rows", format_matrix(c), "01\n11")
        _expect("companion irreducible", is_irreducible_matrix(c), True)
        _expect("ord(companion(x^4+x^3+x^2+x+1))", matrix_order(companion_matrix(p5)), 5)
        _expect("ord(companion(x^6+x+1))", matrix_order(companion_matrix(p64)), 63)
        _expect("conjugate(p1,p2)", groups_conjugate(p15a, p15b), True)
        _expect("conjugate(p1,p3)", groups_conjugate(p15a, p5), False)
        return "companion matrices, orders, conjugacy"

    def powmod_example():
        _expect("x^9 mod x^6+x+1", format_poly(poly_powmod(Poly.x(f2), 9, p64)),
                "x^4+x^3")
        return "extension arithmetic x^9 = x^4+x^3"

    def rref_example():
        m = parse_matrix(f2, "100000\n000110\n111100")
        r, rank = m.rref()
        _expect("rref", format_matrix(r), "100000\n011010\n000110")
        _expect("rank", rank, 3)
        m2 = parse_matrix(f2, "100000\n111000")
        _expect("canonical", format_matrix(Subspace(m2).mat), "100000\n011000")
        return "reduced row echelon canonical forms"

    def isomorphism_dictionary():
        ctx = ExtensionContext.from_modulus(p64)
        a = ctx.alpha
        _expect("field cardinality", ctx.field.order, 64)
        _expect("alpha^63 = 1", a ** 63 == ctx.field.one(), True)
        _expect("phi((000110))", ctx.phi([0, 0, 0, 1, 1, 0]), a ** 9)
        _expect("phi((100000))", ctx.phi([1, 0, 0, 0, 0, 0]), ctx.field.one())
        _expect("dlog(a^4+a^3)", ctx.dlog(a ** 4 + a ** 3), 9)
        _expect("dlog(a^2+a+1)", ctx.dlog(a ** 2 + a + ctx.field.one()), 26)
        return "phi and discrete logarithms in GF(64)"

    def diagram_commutes():
        for base, mod in ((f2, p64), (f3, parse_poly(f3, "x^3+2*x+1"))):
            ctx = ExtensionContext.from_modulus(mod)
            P = companion_matrix(mod)
            from .matspace import row_times_mat, vector_from_index
            n = mod.degree
            for i in range(base.order ** n):
                v = vector_from_index(base, n, i)
                if ctx.phi(row_times_mat(v, P)) != ctx.phi(v) * ctx.alpha:
                    raise _CheckFail(f"diagram fails at vector index {i} over {base!r}")
        return "phi(v P) = phi(v) alpha over GF(2^6) and GF(3^3)"

    def spread_k3():
        u = build_spread_start(3, 6, ExtensionContext.from_modulus(p64))
        _expect("start", format_matrix(u.mat), "100000\n011010\n000110")
        code = generate_orbit(u, companion_matrix(p64))
        _expect("cardinality", len(code), 9)
        _expect("distance", min_distance_brute(code), 6)
        _expect("orbit distance", min_distance_orbit(code), 6)
        return "3-dimensional spread in GF(2)^6"

    def spread_k2():
        ctx = ExtensionContext.from_modulus(p64)
        u = build_spread_start(2, 6, ctx)
        report = analyze(u, ctx, verify=True)
        _expect("cardinality", report.predicted_cardinality, 21)
        _expect("distance", report.predicted_distance, 4)
        _expect("smallest stabilizer shift", report.stabilizer_shifts[0], 21)
        _expect("oracle agreement", report.verification_ok, True)
        return "2-dimensional spread in GF(2)^6"

    def nonprimitive_example():
        ctx = ExtensionContext.from_modulus(p5)
        part = ctx.orbit_partition()
        _expect("orbit count", part.orbit_count, 3)
        _expect("orbit size", part.size, 5)
        u = Subspace(parse_matrix(f2, "1000\n0011"))
        report = analyze(u, ctx, verify=True)
        _expect("membership", tuple(sorted(report.membership)), (1, 1, 1))
        _expect("cardinality", report.predicted_cardinality, 5)
        _expect("distance", report.predicted_distance, 4)
        _expect("spread flag", report.spread, True)
        _expect("oracle agreement", report.verification_ok, True)
        return "non-primitive GF(16) orbit code"

    def distinct_difference_search():
        ctx = ExtensionContext.from_modulus(p64)
        u = find_sidon_subspace(ctx, 3)
        profile = ctx.exponent_profile(u)
        _expect("condition", check_sidon_condition(profile, 63), True)
        code = generate_orbit(u, companion_matrix(p64))
        _expect("cardinality", len(code), 63)
        _expect("distance", min_distance_brute(code), 4)
        return "all-distinct-differences subspace in G(3,6)"

    def conjugation_invariance():
        import random
        from .matspace import random_invertible
        from .orbitcode import conjugate_code
        rng = random.Random(7)
        u = build_spread_start(3, 6, ExtensionContext.from_modulus(p64))
        g = companion_matrix(p64)
        s = random_invertible(f2, 6, rng)
        v, h = conjugate_code(u, g, s)
        code = generate_orbit(v, h)
        _expect("cardinality", len(code), 9)
        _expect("distance", min_distance_brute(code), 6)
        return "conjugated spread keeps its parameters"

    return [
        ("polynomial-orders", polynomial_orders),
        ("primitivity", primitivity),
        ("irreducible-lists", irreducible_lists),
        ("companion-and-conjugacy", companion_and_conjugacy),
        ("powmod-example", powmod_example),
        ("rref-example", rref_example),
        ("isomorphism-dictionary", isomorphism_dictionary),
        ("diagram-commutes", diagram_commutes),
        ("spread-k3", spread_k3),
        ("spread-k2", spread_k2),
        ("nonprimitive-example", nonprimitive_example),
        ("distinct-difference-search", distinct_difference_search),
        ("conjugation-invariance", conjugation_invariance),
    ]


def _cmd_selfcheck(_args) -> int:
    failures = 0
    battery = _selfcheck_battery()
    for name, check in battery:
        try:
            detail = check()
        except _CheckFail as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}: {detail}")
    print(f"selfcheck: {len(battery) - failures} passed, {failures} failed")
    return 4 if failures else 0


# -- parser -----------------------------------------------------------------

@functools.cache  # built on the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcodes",
        description="Construct and analyze irreducible cyclic orbit codes.")
    parser.add_argument("--version", action="version",
                        version=f"orbitcodes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="polynomial predicates and enumeration")
    poly_sub = poly.add_subparsers(dest="action", required=True)
    for action, txt in (("irreducible", "test irreducibility"),
                        ("order", "least e with f | x^e - 1"),
                        ("primitive", "test primitivity")):
        ps = poly_sub.add_parser(action, help=txt)
        ps.add_argument("-q", type=int, required=True)
        ps.add_argument("--base-modulus", metavar="POLY")
        ps.add_argument("polynomial")
    pl = poly_sub.add_parser("list", help="all monic irreducibles of a degree")
    pl.add_argument("-q", type=int, required=True)
    pl.add_argument("--base-modulus", metavar="POLY")
    pl.add_argument("-n", type=int, required=True, help="degree")

    spread = sub.add_parser("spread", help="build a spread code")
    _field_args(spread, "primitive polynomial of degree n")
    spread.add_argument("-n", type=int, help="ambient dimension (default: degree of -p)")
    spread.add_argument("-k", type=int, required=True, help="codeword dimension, k | n")
    spread.add_argument("--verify", action="store_true",
                        help="cross-check the prediction by brute force")
    spread.add_argument("--out", metavar="FILE", help="write the code export file")

    an = sub.add_parser("analyze", help="predict cardinality and distance of an orbit")
    _field_args(an, "irreducible polynomial defining the group")
    group = an.add_mutually_exclusive_group(required=True)
    group.add_argument("--start", metavar="FILE", help="starting rows, matrix text format")
    group.add_argument("--start-rows", metavar="ROWS",
                       help="starting rows inline, ';'-separated")
    an.add_argument("--verify", action="store_true")
    an.add_argument("--out", metavar="FILE", help="also write the report to a file")

    orbit = sub.add_parser("orbit", help="generate an orbit and export it")
    _field_args(orbit, "irreducible polynomial defining the group")
    group = orbit.add_mutually_exclusive_group(required=True)
    group.add_argument("--start", metavar="FILE")
    group.add_argument("--start-rows", metavar="ROWS")
    orbit.add_argument("--out", metavar="FILE", required=True)

    dist = sub.add_parser("distance", help="minimum distance of an exported code")
    dist.add_argument("file")
    dist.add_argument("--base-modulus", metavar="POLY",
                      help="required when the file's q is a prime power")

    sub.add_parser("selfcheck", help="run the built-in example battery")
    return parser


_HANDLERS = {
    "poly": _cmd_poly,
    "spread": _cmd_spread,
    "analyze": _cmd_analyze,
    "orbit": _cmd_orbit,
    "distance": _cmd_distance,
    "selfcheck": _cmd_selfcheck,
}


def _drop_stdout() -> None:
    """The reader closed stdout: point it at the null device, so that the
    interpreter's final flush cannot raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        status = _HANDLERS[args.command](args)
    except BrokenPipeError:
        _drop_stdout()
        return 0
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()  # the handler finished, so its status stands
    return status


if __name__ == "__main__":
    sys.exit(main())
