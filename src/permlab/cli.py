"""Command line frontend: constructions, certificate checking, one-off
searches, verification campaigns with JSONL records and resume, and the
fixture suite, which replays the stored witnesses and runs the known
impossibilities (the exceptional sets of 3.12i/3.12ii among them).

Exit codes, shared by every subcommand:
  0  requested property holds / witness found
  1  definite negative (check failed, search exhausted, fixture mismatch)
  2  inconclusive (node budget exceeded)
  3  usage error (bad arguments, malformed files)

The default search budget is 10**8 nodes.  The PERMLAB_BUDGET environment
variable overrides it for the commands that take --budget (search, verify,
fixtures), and is read only when --budget is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import (
    Arrangement,
    GroundSet,
    _json_int,
    element_coords,
    element_from_coords,
    spec_from_dict,
    spec_to_dict,
)
from .conjectures import (
    CONJECTURE_IDS,
    VerificationRecord,
    counterexample_fixtures,
    golden_fixtures,
    instance,
    record_key,
    run_counterexample,
    verify_range,
)
from .constructions import (
    circular_distinct_diffs,
    coprime_circle_odd,
    mod_distinct_diffs,
    prime_circle_distinct_distances,
    qr_cycle,
    reduced_residue_cycle,
    repair_adjacent_sums,
    triple_sum_cycle,
    weighted_sum_cycle,
    zigzag_distances,
)
from .numtheory import PredicateSpec
from .search import (
    BRUTE_FORCE_MAX,
    DEFAULT_BUDGET,
    Constraint,
    PredicateClause,
    RainbowClause,
    brute_force_enumerate,
    check,
    search,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
# what reading a malformed or unreadable input file raises; all exit 3
_BAD_INPUT = (ValueError, KeyError, TypeError, AttributeError, OSError, json.JSONDecodeError)


def default_budget() -> int:
    raw = os.environ.get("PERMLAB_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        v = int(raw)
        if v < 1:
            raise ValueError
        return v
    except ValueError:
        raise SystemExit(f"PERMLAB_BUDGET must be a positive integer, got {raw!r}")


# --- file formats ------------------------------------------------------------


def arrangement_to_dict(arr: Arrangement) -> dict:
    return {
        "group": spec_to_dict(arr.spec),
        "shape": arr.shape,
        "elements": [element_coords(arr.spec, x) for x in arr.elements],
    }


def arrangement_from_dict(d: dict) -> Arrangement:
    spec = spec_from_dict(d["group"])
    elems = tuple(element_from_coords(spec, c) for c in d["elements"])
    return Arrangement(spec, d["shape"], elems)


def clause_to_dict(cl) -> dict:
    if isinstance(cl, RainbowClause):
        out = {"rainbow": cl.kind}
        if cl.modulus is not None:
            out["modulus"] = cl.modulus
        return out
    out = {
        "predicate": {"kind": cl.predicate.kind, "params": list(cl.predicate.params)},
        "labeler": cl.labeler,
    }
    if cl.a0 is not None:
        out["a0"] = cl.a0 if isinstance(cl.a0, int) else list(cl.a0)
    return out


def clause_from_dict(d: dict):
    if "rainbow" in d:
        return RainbowClause(d["rainbow"], d.get("modulus"))
    pred = PredicateSpec(d["predicate"]["kind"], tuple(d["predicate"].get("params", ())))
    a0 = d.get("a0")
    if a0 is not None:
        a0 = tuple(map(_json_int, a0)) if isinstance(a0, list) else _json_int(a0)
    return PredicateClause(pred, d["labeler"], a0=a0)


def constraint_to_dict(c: Constraint, spec) -> dict:
    out = {"clauses": [clause_to_dict(cl) for cl in c.clauses]}
    if c.first is not None:
        out["first"] = element_coords(spec, c.first)
    if c.last is not None:
        out["last"] = element_coords(spec, c.last)
    return out


def constraint_from_dict(d: dict, spec) -> Constraint:
    clauses = tuple(clause_from_dict(x) for x in d["clauses"])
    first = d.get("first")
    last = d.get("last")
    if first is not None:
        first = element_from_coords(spec, first)
    if last is not None:
        last = element_from_coords(spec, last)
    return Constraint(clauses, first=first, last=last)


def instance_from_dict(d: dict) -> tuple[GroundSet, str, Constraint]:
    spec = spec_from_dict(d["group"])
    ground = GroundSet(spec, tuple(element_from_coords(spec, c) for c in d["ground"]))
    constraint = constraint_from_dict(d["constraint"], spec)
    return ground, d["shape"], constraint


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --- construct ----------------------------------------------------------------


def _parse_elements(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(f"--elements must be comma-separated integers, got {raw!r}")


# each construction by name: the flag it reads, and its builder
_CONSTRUCTIONS = {
    "thm1.1": ("elements", lambda args: zigzag_distances(sorted(_parse_elements(args.elements)))),
    "cor1.1": ("n", lambda args: prime_circle_distinct_distances(args.n)),
    "thm1.2i": ("n", lambda args: circular_distinct_diffs(args.n)),
    "thm1.2ii": ("n", lambda args: mod_distinct_diffs(args.n)),
    "thm1.3": ("elements", lambda args: weighted_sum_cycle(_parse_elements(args.elements))),
    "thm1.4": ("elements", lambda args: triple_sum_cycle(_parse_elements(args.elements))),
    "thm1.5": ("n", lambda args: reduced_residue_cycle(args.n)),
    "thm1.6": ("q", lambda args: qr_cycle(args.q, args.op, args.target)),
    "rem1.2": ("elements", lambda args: repair_adjacent_sums(_parse_elements(args.elements))),
    "rem3.11": ("n", lambda args: coprime_circle_odd(args.n)),
}


def cmd_construct(args) -> int:
    flag, build = _CONSTRUCTIONS[args.what]
    if getattr(args, flag) is None:
        print(f"error: {args.what} needs --{flag}", file=sys.stderr)
        return EXIT_USAGE
    try:
        arr = build(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if arr is None:  # thm1.6 found no suitable generator
        print(json.dumps({
            "status": "not_found", "q": args.q, "op": args.op, "target": args.target,
            "reason": "no primitive element with the shifted square in the target class",
        }))
        return EXIT_NEGATIVE
    _emit(arrangement_to_dict(arr), args.out)
    return EXIT_OK


# --- check ---------------------------------------------------------------------


def _params_from_kv(pairs: list[str]) -> dict:
    params = {}
    for kv in pairs:
        if "=" not in kv:
            raise SystemExit(f"--params entries look like key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        params[k] = int(v)
    return params


def cmd_check(args) -> int:
    try:
        with open(args.arrangement, encoding="utf-8") as fh:
            arr = arrangement_from_dict(json.load(fh))
        if args.conjecture:
            inst = instance(args.conjecture, _params_from_kv(args.params or []))
            report = inst.check(arr)
        else:
            with open(args.constraint, encoding="utf-8") as fh:
                doc = json.load(fh)
            constraint = constraint_from_dict(
                doc["constraint"] if "constraint" in doc else doc, arr.spec
            )
            report = check(arr, constraint)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report.ok:
        print("pass")
        return EXIT_OK
    v = report.first
    print(f"fail: clause {v.clause_index} at positions {list(v.positions)}: {v.message}")
    return EXIT_NEGATIVE


# --- search ---------------------------------------------------------------------


def cmd_search(args) -> int:
    try:
        with open(args.instance, encoding="utf-8") as fh:
            ground, shape, constraint = instance_from_dict(json.load(fh))
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.all_small and len(ground) > BRUTE_FORCE_MAX:
        print(f"error: --all-small needs a ground set of at most {BRUTE_FORCE_MAX} elements",
              file=sys.stderr)
        return EXIT_USAGE
    out = search(ground, shape, constraint, args.budget)
    doc = {
        "status": out.status,
        "nodes": out.nodes,
        "elapsed_ms": out.elapsed_ms,
        "witness": [element_coords(ground.spec, x) for x in out.witness.elements]
        if out.witness
        else None,
    }
    if args.all_small:
        cnt, wits = brute_force_enumerate(ground, shape, constraint)
        doc["brute_force_count"] = cnt
        agree = (out.status == "witness") == (cnt > 0)
        doc["verdicts_agree"] = None if out.status == "budget" else agree
    print(json.dumps(doc, indent=2))
    if out.status == "witness":
        return EXIT_OK
    if out.status == "exhausted":
        return EXIT_NEGATIVE
    return EXIT_BUDGET


# --- verify ----------------------------------------------------------------------


def _resume_keys(path: str) -> tuple[set, bool]:
    """Keys of the complete records already on disk, and whether a header
    is among them.  The file is cut at its first broken line, a truncated
    final line included, so every record from there on is re-run.  A line
    that is valid JSON but neither a header nor a record raises ValueError
    (a usage error), and nothing is cut."""
    keys: set = set()
    header = False
    if not os.path.exists(path):
        return keys, header
    with open(path, "rb") as fh:
        data = fh.read()
    keep = 0
    # the last piece follows the last newline: empty, or a line cut short
    for number, line in enumerate(data.split(b"\n")[:-1], 1):
        if line.strip():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                break
            is_dict = isinstance(doc, dict)
            if is_dict and doc.get("type") == "header":
                header = True
            elif (is_dict and isinstance(doc.get("conjecture"), str)
                  and isinstance(doc.get("params"), dict)):
                keys.add(record_key(doc["conjecture"], doc["params"]))
            else:
                raise ValueError(f"{path}: line {number} is neither a header nor a record: "
                                 f"{line.decode(errors='replace')}")
        keep += len(line) + 1
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return keys, header


def cmd_verify(args) -> int:
    budget = args.budget
    if args.conjecture not in CONJECTURE_IDS:
        print(
            f"error: unknown conjecture {args.conjecture!r}; known ids:\n  "
            + "\n  ".join(CONJECTURE_IDS),
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.out:
        print("error: --resume needs --out", file=sys.stderr)
        return EXIT_USAGE
    skip: set = set()
    sink = None
    if args.out:
        has_header = False
        if args.resume:
            skip, has_header = _resume_keys(args.out)
        sink = open(args.out, "a", encoding="utf-8")
        if not has_header:
            header = {
                "type": "header",
                "conjecture": args.conjecture,
                "from": getattr(args, "from"),
                "to": args.to,
                "seed": args.seed,
                "budget": budget,
                "tool_version": __version__,
            }
            sink.write(json.dumps(header, sort_keys=True) + "\n")
            sink.flush()

    statuses = {"witness": 0, "exhausted": 0, "budget": 0, "skipped-precondition": 0}
    searched = 0
    try:
        for rec in verify_range(
            args.conjecture, getattr(args, "from"), args.to,
            budget=budget, jobs=args.jobs, seed=args.seed, skip_keys=skip,
        ):
            searched += 1
            statuses[rec.status] += 1
            line = json.dumps(rec.to_dict(), sort_keys=False)
            if sink:
                sink.write(line + "\n")
                sink.flush()
            else:
                print(line)
            if rec.status == "exhausted":
                print(
                    f"EXHAUSTED: no arrangement exists for {args.conjecture} {rec.params}"
                    " - this contradicts the statement under test",
                    file=sys.stderr,
                )
    finally:
        if sink:
            sink.close()
    print(
        f"{args.conjecture}: {searched} searched, {statuses['witness']} witness, "
        f"{statuses['exhausted']} exhausted, {statuses['budget']} budget, "
        f"{statuses['skipped-precondition']} skipped",
        file=sys.stderr,
    )
    if statuses["exhausted"]:
        return EXIT_NEGATIVE
    if statuses["budget"]:
        return EXIT_BUDGET
    return EXIT_OK


# --- fixtures ---------------------------------------------------------------------


def cmd_fixtures(args) -> int:
    sink = open(args.out, "w", encoding="utf-8") if args.out else None
    failures = 0
    for g in golden_fixtures():
        ok = g.passes()
        print(f"golden {g.name:35s} {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
        # a stored witness that fails its check proves nothing, so it gets
        # no record: the FAIL line and the exit code report it
        if sink and ok:
            arr = g.arrangement()
            rec = VerificationRecord(
                g.conjecture, g.params, "witness",
                [element_coords(arr.spec, x) for x in arr.elements],
                0, 0, note=f"stored witness {g.name}",
            )
            sink.write(json.dumps(rec.to_dict(), sort_keys=False) + "\n")
    for cid, params, expected in counterexample_fixtures():
        rec = run_counterexample(cid, params, args.budget)
        ok = rec.status == expected
        failures += 0 if ok else 1
        label = f"{cid} {json.dumps(params, sort_keys=True)}"
        print(f"fixture {label:50s} {rec.status:10s} {'PASS' if ok else 'FAIL'}")
        if sink:
            sink.write(json.dumps(rec.to_dict(), sort_keys=False) + "\n")
    if sink:
        sink.close()
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


# --- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="permlab",
        description="constructions and exact search for arrangements with "
        "constrained adjacent sums, differences and products",
    )
    top.add_argument("--version", action="version", version=f"permlab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run one of the named constructions")
    c.add_argument("what", choices=list(_CONSTRUCTIONS))
    c.add_argument("--n", type=int, help="size parameter")
    c.add_argument("--elements", help="comma-separated integers")
    c.add_argument("--q", type=int, help="field size (thm1.6)")
    c.add_argument("--op", choices=["sum", "diff"], default="sum")
    c.add_argument("--target", choices=["S", "T"], default="S")
    c.add_argument("--out", help="write the arrangement JSON here instead of stdout")
    c.set_defaults(fn=cmd_construct)

    k = sub.add_parser("check", help="check an arrangement against a constraint")
    k.add_argument("--arrangement", required=True)
    k.add_argument("--conjecture", help="catalog id providing the constraint")
    k.add_argument("--params", nargs="*", help="key=value instance parameters")
    k.add_argument("--constraint", help="constraint/instance JSON file")
    k.set_defaults(fn=cmd_check)

    s = sub.add_parser("search", help="run the kernel on an instance file")
    s.add_argument("--instance", required=True)
    s.add_argument("--budget", type=int)
    s.add_argument("--all-small", action="store_true",
                   help=f"also run the brute-force oracle (ground size <= {BRUTE_FORCE_MAX})")
    s.set_defaults(fn=cmd_search)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("--conjecture", required=True)
    v.add_argument("--from", type=int, default=1)
    v.add_argument("--to", type=int, default=10)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--budget", type=int)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", help="append records to this JSONL file")
    v.add_argument("--resume", action="store_true",
                   help="skip instances already recorded in --out")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("fixtures", help="replay the stored witness fixtures "
                                        "and known impossibilities")
    f.add_argument("--out", help="write records to this JSONL file")
    f.add_argument("--budget", type=int)
    f.set_defaults(fn=cmd_fixtures)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, but 2 means "budget" here;
        # --help and --version still exit 0
        if not exc.code:
            raise
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # only a command that takes --budget reads PERMLAB_BUDGET, so a bad
        # value fails no other command
        if vars(args).get("budget", 0) is None:
            args.budget = default_budget()
        elif vars(args).get("budget", 1) < 1:
            raise SystemExit("budget must be >= 1 node")
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        raise
    except (ValueError, OSError) as exc:
        # a bad value, or an --out that cannot be written: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
