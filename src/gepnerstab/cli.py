"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails (an identity check
or a stability claim does not hold), 2 on usage errors.  Every subcommand
can emit a machine-readable report with --json; exact values are
serialized losslessly ({d, coeffs} for cyclotomic numbers, "p/q" strings
for rationals).

Each subcommand imports the modules it uses inside its handler, so a cold
call compiles only those: table1 and classify never load the heart
lattices, and only stability and hn load the finite fields and quivers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .exactmath import CycloNum, ResourceLimitError, embed
from .mfcore import WeightedType


@dataclass
class Report:
    command: str
    inputs: dict
    results: object = None
    verification: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, CycloNum):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj
    raise TypeError(f"cannot serialize {type(obj)}")


def _numeric(x: CycloNum, precision: int) -> str:
    mid = embed(x, precision).midpoint()
    return f"{mid.real:+.12g}{mid.imag:+.12g}i"


def _render_cyclo(x: CycloNum) -> str:
    return repr(x)[len("CycloNum(") : -1]


def _parsed(convert, text: str, flag: str, form: str):
    """convert(text), or a ValueError that names the flag and the text."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} takes {form}, got {text!r}") from None


def _int_range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..")
    return int(lo), int(hi)


def _object_name(text: str) -> tuple[str, int]:
    """(name, point index) of an object written name or name(k); k defaults to 1."""
    name, paren, rest = text.partition("(")
    return name, int(rest.rstrip(")")) if paren else 1


def _emit(args, report: Report, lines: list[str], code: int = 0) -> int:
    if args.json:
        print(report.to_json())
    else:
        for line in lines:
            print(line)
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_table1(args) -> int:
    from .classify import table_rows

    rows = table_rows((2, 3, 4), 6)
    lines = [f"{'n':>2} {'eps':>4}  {'weights':<12} {'d':>2}  {'W':<32} X"]
    for r in rows:
        lines.append(
            f"{r['n']:>2} {r['epsilon']:>4}  {str(tuple(r['weights'])):<12} {r['d']:>2}  {r['W']:<32} {r['X']}"
        )
    report = Report("table1", {}, rows, verification=[f"{len(rows)} rows"])
    return _emit(args, report, lines)


def cmd_classify(args) -> int:
    from .classify import table_rows

    lo, hi = _parsed(_int_range, args.n, "--n", "a range lo..hi of integers")
    rows = table_rows(range(lo, hi + 1), args.dmax)
    lines = [
        f"({','.join(map(str, r['weights']))};{r['d']})  eps={r['epsilon']:>3}  W = {r['W']:<30}  X = {r['X']}"
        for r in rows
    ]
    return _emit(args, Report("classify", {"n": args.n, "dmax": args.dmax}, rows), lines)


def cmd_charge(args) -> int:
    from .geomcharge import ChClass, constants, mukai, solve_for_type, zg_geom

    wtype = WeightedType.parse(args.type)
    if wtype.n not in (3, 4):
        print("charge operates on curve/surface types (n = 3 or 4); "
              "use 'zg' for the point cases", file=sys.stderr)
        return 2
    comps = _parsed(
        lambda t: tuple(Fraction(v) for v in t.split(",")), args.cls, "--class", "rational coordinates r,c[,s]"
    )
    dim = 1 if wtype.n == 3 else 2
    e = ChClass(dim, comps)
    sol = solve_for_type(wtype)
    cst = constants(wtype)
    zdag = zg_geom(e, sol)
    zabs = cst.c_w * zdag
    results = {
        "type": str(wtype),
        "class": [str(c) for c in comps],
        "z_normalized": zdag,
        "z_absolute": zabs,
        "c_w": cst.c_w,
        "theta_w": cst.theta_w,
    }
    lines = [
        f"type {wtype}   class ({args.cls})",
        f"Z/C_W   = {_render_cyclo(zdag)}   ~ {_numeric(zdag, args.precision)}",
        f"Z       = {_render_cyclo(zabs)}   ~ {_numeric(zabs, args.precision)}",
        f"C_W     = {_render_cyclo(cst.c_w)}   on ray exp(i pi {cst.theta_w})",
    ]
    if dim == 2:
        from .hearts import lattice_for

        v = mukai(e, lattice_for(wtype).geometry.h_square)
        results["mukai"] = [str(v.v0), str(v.v1h), str(v.v2)]
        lines.append(f"Mukai   = ({v.v0}, {v.v1h}, {v.v2})")
    return _emit(args, Report("charge", {"type": args.type, "class": args.cls}, results), lines)


def cmd_zg(args) -> int:
    from .hearts import lattice_for, slope_mu, zg_class, zg_class_absolute

    wtype = WeightedType.parse(args.type)
    lat = lattice_for(wtype)
    v = _parsed(lambda t: tuple(int(x) for x in t.split(",")), args.cls, "--class", "integer coordinates")
    if len(v) != lat.rank:
        print(f"class needs {lat.rank} coordinates for basis {lat.basis}", file=sys.stderr)
        return 2
    zdag = zg_class(lat, v)
    zabs = zg_class_absolute(lat, v)
    mu = slope_mu(lat, v)
    results = {
        "type": str(wtype),
        "basis": list(lat.basis),
        "class": list(v),
        "z_normalized": zdag,
        "z_absolute": zabs,
        "slope": str(mu),
    }
    lines = [
        f"type {wtype}   basis {lat.basis}",
        f"class {v}",
        f"Z/C_W = {_render_cyclo(zdag)}   ~ {_numeric(zdag, args.precision)}",
        f"Z     = {_render_cyclo(zabs)}   ~ {_numeric(zabs, args.precision)}",
        f"slope = {mu}",
    ]
    return _emit(args, Report("zg", {"type": args.type, "class": args.cls}, results), lines)


def cmd_gepner_check(args) -> int:
    from .hearts import lattice_for, verify_gepner, window_property_report, zg_class

    wtype = WeightedType.parse(args.type)
    lat = lattice_for(wtype)
    ok = verify_gepner(lat)
    lines = []
    for j in range(lat.rank):
        e = tuple(1 if i == j else 0 for i in range(lat.rank))
        lines.append(
            f"  Z(tau [{lat.basis[j]}]) = zeta * Z([{lat.basis[j]}]) : "
            f"{_render_cyclo(zg_class(lat, lat.tau_apply(e)))}"
        )
    lines.append(f"Z o tau = zeta * Z: {'OK' if ok else 'FAIL'} ({lat.rank} basis vectors)")
    verification = [f"eigen identity: {'OK' if ok else 'FAIL'}"]
    window = window_property_report(lat)
    for label, cls, q in window:
        lines.append(f"  window: {label:<14} phase {q}  in (theta_d, theta_d + 1]")
    verification.append(f"window property: OK ({len(window)} generators)")
    report = Report(
        "gepner-check",
        {"type": args.type},
        {"basis": list(lat.basis), "theta": lat.theta, "theta_w": lat.theta_w},
        verification,
    )
    return _emit(args, report, lines, 0 if ok else 1)


def cmd_phases(args) -> int:
    from .geomcharge import constants
    from .hearts import finite_phases, lattice_for, phase_table, window_inequalities_hold

    wtype = WeightedType.parse(args.type)
    if wtype.n == 1 or (wtype.n == 2 and wtype.epsilon >= 0):
        table = finite_phases(wtype)
        results = {k: v for k, v in sorted(table.entries.items())}
        lines = [f"{k:<10} phase {v}" for k, v in sorted(table.entries.items())]
        lines.append(f"{len(table)} indecomposables (shift by [k] adds k)")
        return _emit(args, Report("phases", {"type": args.type}, results), lines)
    lat = lattice_for(wtype)
    if wtype.epsilon < 0:
        table = phase_table(lat)
        ineq = window_inequalities_hold(lat) if wtype.n == 2 else True
        results = {"theta": lat.theta, "theta_w": lat.theta_w, "phases": dict(table)}
        lines = [f"theta = {lat.theta}   theta_W = {lat.theta_w}"]
        lines += [f"{k:<10} phase {v}" for k, v in table.items()]
        lines.append(f"window inequalities: {'OK' if ineq else 'FAIL'}")
        return _emit(args, Report("phases", {"type": args.type}, results, [f"windows: {ineq}"]), lines, 0 if ineq else 1)
    report = Report("phases", {"type": args.type}, {"theta_w": constants(wtype).theta_w})
    return _emit(args, report, [f"theta_W = {constants(wtype).theta_w}"])


def _twist_of(text: str) -> int | None:
    """j for an object written C(j) with an integer j, else None."""
    if text.startswith("C(") and text.endswith(")"):
        try:
            return int(text[2:-1])
        except ValueError:
            pass
    return None


def cmd_ext(args) -> int:
    from .extcalc import ext_cc, ext_cm

    wtype = WeightedType.parse(args.type)
    if wtype.n != 2:
        print(f"ext needs a two-variable type, got {wtype}", file=sys.stderr)
        return 2
    src = args.src.strip()
    tgt = args.tgt.strip()
    j = _twist_of(src)
    if j is None:
        print(f"--from must be C(j) with an integer j, got {src!r}", file=sys.stderr)
        return 2
    if tgt.startswith("C("):
        j0 = _twist_of(tgt)
        if j0 is None:
            print(f"--to must be C(j) with an integer j, or point, got {tgt!r}", file=sys.stderr)
            return 2
        table = {i: ext_cc(wtype, j - j0, i) for i in range(4)}
        label = f"Hom^i(C({j}), C({j0}))"
    elif tgt in ("point", "PsiOx"):
        from .hearts import points_of

        points = points_of(wtype)
        if not 1 <= args.point <= len(points):
            print(f"--point must be in 1..{len(points)}", file=sys.stderr)
            return 2
        point = points[args.point - 1]
        table = {i: ext_cm(wtype, j, point, i)[0] for i in range(4)}
        label = f"Hom^i(C({j}), PsiO(p{args.point}))"
    else:
        print(f"--to must be C(j) with an integer j, or point, got {tgt!r}", file=sys.stderr)
        return 2
    lines = [label] + [f"  i = {i}: dim {d}" for i, d in table.items()]
    return _emit(
        args,
        Report("ext", {"type": args.type, "from": src, "to": tgt}, {str(k): v for k, v in table.items()}),
        lines,
    )


def _parse_primes(text: str, max_q: int) -> list[int] | None:
    """The listed primes, or None unless every entry is a prime <= max_q."""
    from .gfield import is_prime

    try:
        primes = [int(p) for p in text.split(",")]
    except ValueError:
        return None
    # the bound comes first: it keeps the primality test small
    return primes if all(p <= max_q and is_prime(p) for p in primes) else None


def cmd_stability(args) -> int:
    from .quiverrep import default_spec, is_stable, named_object, reduce_rep

    wtype = WeightedType.parse(args.type)
    primes = _parse_primes(args.primes, args.max_q)
    if primes is None:
        print(f"--primes takes primes up to --max-q ({args.max_q}), got {args.primes!r}", file=sys.stderr)
        return 2
    form = "a name with an optional integer point, as PsiOx(2)"
    name, point_index = _parsed(_object_name, args.object, "--object", form)
    obj = named_object(wtype, name, point_index=point_index)
    spec = default_spec(wtype)
    verdicts = []
    fields = []
    for p in primes:
        red = reduce_rep(obj, p, max_q=args.max_q)
        v = is_stable(red, spec)
        verdicts.append(v)
        fields.append(f"F_{p}" + (f" via {red.field.label()}" if red.field.k > 1 else ""))
    all_stable = all(v.ok for v in verdicts)
    status = verdicts[0].status if len({v.status for v in verdicts}) == 1 else "mixed"
    lines = [
        f"{args.object} on {wtype} [{spec.mode} order]: "
        f"{status} (verified over {', '.join(fields)})"
    ]
    notes = _object_notes(wtype, name)
    lines.extend(f"  note: {n}" for n in notes)
    for p, v in zip(primes, verdicts):
        lines.append(f"  p={p}: {v.status}, {v.checked} proper subrep classes checked"
                     + (f", witness {v.witness}" if v.witness else ""))
    results = {
        "object": args.object,
        "type": str(wtype),
        "mode": spec.mode,
        "class": list(obj.kclass()),
        "verdicts": [
            {"p": p, "status": v.status, "witness": list(v.witness) if v.witness else None}
            for p, v in zip(primes, verdicts)
        ],
    }
    report = Report("stability", {"type": args.type, "object": args.object}, results, notes=notes)
    return _emit(args, report, lines, 0 if all_stable else 1)


def _object_notes(wtype: WeightedType, name: str) -> list[str]:
    if name == "C2m1" and wtype.weights == (3, 1) and wtype.degree == 6:
        from .hearts import lattice_for, zg_class

        lat = lattice_for(wtype)
        adopted = tuple(-x for x in lat.class_of_c(2))
        z_adopted = zg_class(lat, adopted)
        truncated = (0,) + adopted[1:]
        z_trunc = zg_class(lat, truncated)
        return [
            f"adopted class {adopted}: forced by the residue filtration "
            f"(a C(1)-factor of multiplicity dim R_1 = 1) and by the eigen "
            f"identity, which pins Z/C_W = {_render_cyclo(z_adopted)}",
            f"truncated variant {truncated} (dim 0 at the C(1) vertex) has "
            f"Z/C_W = {_render_cyclo(z_trunc)} and fails the eigen identity; "
            f"both are printed here, only the adopted one is used",
        ]
    return []


def _fp_rep(data: dict, quiver, max_q: int) -> QuiverRep:
    """The representation in an "Fp" file; zero maps where the file gives none.

    A dimension key that is no vertex, a label that is no arrow, or a map
    whose shape does not match the dimensions, is a malformed file
    (ValueError), not a relation failure.
    """
    from .quiverrep import MAX_TOTAL_DIM, QuiverRep, bounded_field

    gf = bounded_field(int(data["p"]), quiver.conductor, max_q)
    dims = {v: int(data["dims"].get(v, 0)) for v in quiver.vertices}
    for v in data["dims"]:
        if v not in dims:
            raise ValueError(f"{v!r} is not a vertex of the {quiver.wtype} quiver")
    if min(dims.values()) < 0:
        raise ValueError(f"negative dimension in {dims}")
    if sum(dims.values()) > MAX_TOTAL_DIM:  # refused before the zero maps are built
        raise ResourceLimitError(f"total dimension {sum(dims.values())} exceeds {MAX_TOTAL_DIM}")
    arrows = {a.label: a for a in quiver.arrows}
    mats = {}
    for label, m in data.get("mats", {}).items():
        if label not in arrows:
            raise ValueError(f"{label!r} is not an arrow of the {quiver.wtype} quiver")
        a = arrows[label]
        mat = tuple(tuple(int(x) % gf.q for x in row) for row in m)
        if len(mat) != dims[a.tgt] or any(len(row) != dims[a.src] for row in mat):
            raise ValueError(f"map {label} ({a.src} -> {a.tgt}) must be a {dims[a.tgt]}x{dims[a.src]} matrix")
        mats[label] = mat
    for a in quiver.arrows:
        if a.label not in mats:
            mats[a.label] = tuple(tuple(0 for _ in range(dims[a.src])) for _ in range(dims[a.tgt]))
    return QuiverRep(quiver, gf, dims, mats)


def cmd_hn(args) -> int:
    from .hearts import ZeroChargeError, lattice_for
    from .quiverrep import StabilitySpec, default_spec, heart_quiver, hn_filtration

    try:
        with open(args.rep) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.rep}: {exc.strerror}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print("the representation file must hold a JSON object", file=sys.stderr)
        return 2
    type_str = args.type or data.get("type")
    if not type_str:
        print("need --type or a 'type' field in the representation file", file=sys.stderr)
        return 2
    wtype = WeightedType.parse(type_str)
    quiver = heart_quiver(wtype)
    if data.get("field") != "Fp":
        print("rep field must be 'Fp' with a prime p", file=sys.stderr)
        return 2
    try:
        rep = _fp_rep(data, quiver, args.max_q)
    except (KeyError, TypeError, AttributeError) as exc:
        print(f"malformed representation file: {exc!r}", file=sys.stderr)
        return 2
    if not rep.validate():
        print("representation violates the quiver relations", file=sys.stderr)
        return 1
    lat = lattice_for(wtype)
    spec = StabilitySpec(lat, args.mode) if args.mode else default_spec(wtype)
    try:
        res = hn_filtration(rep, spec)
    except ZeroChargeError as exc:
        print(f"error: {exc}; phase order is undefined on {wtype}, use --mode slope", file=sys.stderr)
        return 2
    lines = [f"HN filtration over {res.field_label} [{res.mode} order]:"]
    for dims, key in res.factors:
        shown = key if not hasattr(key, "approx") else f"phase~{key.approx():.4f}"
        lines.append(f"  factor {dims}  key {shown}")
    results = {"factors": [list(d) for d, _ in res.factors], "mode": res.mode}
    return _emit(args, Report("hn", {"type": type_str, "rep": args.rep}, results), lines)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose parse errors are one stderr line, with exit code 2.

    Its subcommand parsers are of the same class.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gepnerstab",
        description="Exact central charges, heart lattices and stability checks "
        "for graded matrix factorizations of weighted Fermat polynomials.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("table1", help="the reference classification (n=2..4, d<=6)")

    p = sub.add_parser("classify", help="enumerate admissible weight systems")
    p.add_argument("--n", default="2..4", help="range of variable counts, e.g. 2..4")
    p.add_argument("--dmax", type=int, default=6)

    p = sub.add_parser("charge", help="geometric central charge of a Chern class")
    p.add_argument("--type", required=True, help="weight system a_1,...,a_n:d")
    p.add_argument("--class", dest="cls", required=True, help="r,c[,s] coordinates")
    p.add_argument("--precision", type=int, default=53)

    p = sub.add_parser("zg", help="central charge of a heart K-class")
    p.add_argument("--type", required=True)
    p.add_argument("--class", dest="cls", required=True, help="integer coordinates")
    p.add_argument("--precision", type=int, default=53)

    p = sub.add_parser("gepner-check", help="verify the eigen identity on a heart lattice")
    p.add_argument("--type", required=True)

    p = sub.add_parser("phases", help="phase tables (finite hearts and eps<0 windows)")
    p.add_argument("--type", required=True)

    p = sub.add_parser("ext", help="graded Hom dimensions between heart generators")
    p.add_argument("--type", required=True)
    p.add_argument("--from", dest="src", required=True, help='e.g. "C(1)"')
    p.add_argument("--to", dest="tgt", required=True, help='"C(0)" or "point"')
    p.add_argument("--point", type=int, default=1)

    p = sub.add_parser("stability", help="finite-field stability check of a named object")
    p.add_argument("--type", required=True)
    p.add_argument("--object", required=True, help="C0|C1|C1m1|C2m1|PsiOx(j)|tauPsiOx(j)")
    p.add_argument("--primes", default="5,7")
    p.add_argument("--max-q", dest="max_q", type=int, default=130)

    p = sub.add_parser("hn", help="Harder-Narasimhan filtration of a representation")
    p.add_argument("--type", default=None, help="weight system; defaults to the file's 'type'")
    p.add_argument("--rep", required=True, help="JSON file with field/dims/mats[/type]")
    p.add_argument("--mode", choices=["phase", "slope"], default=None)
    p.add_argument("--max-q", dest="max_q", type=int, default=49)
    return ap


# Numbers whose cost grows without bound, each with its accepted range:
# GF(q) builds q x q tables (GF(361) takes about 0.02 s, GF(961) about
# 0.13 s, on a 2-CPU host with Python 3.11), and the trigonometric
# enclosures behind --precision cost at least quadratically in their
# bits, while fewer than 53 bits print wrong digits.
RANGES = (("max_q", "--max-q", 2, 361), ("precision", "--precision", 53, 4096))

HANDLERS = {
    "table1": cmd_table1,
    "classify": cmd_classify,
    "charge": cmd_charge,
    "zg": cmd_zg,
    "gepner-check": cmd_gepner_check,
    "phases": cmd_phases,
    "ext": cmd_ext,
    "stability": cmd_stability,
    "hn": cmd_hn,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for dest, flag, lo, hi in RANGES:
        value = getattr(args, dest, None)
        if value is not None and not lo <= value <= hi:
            print(f"{flag} must be in {lo}..{hi}, got {value}", file=sys.stderr)
            return 2
    try:
        return HANDLERS[args.cmd](args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
