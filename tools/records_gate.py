"""Records gate: run the record sweeps on this tree, or on two trees and
compare their records.

Usage, from the root of a source checkout::

    python tools/records_gate.py                      # this tree alone
    python tools/records_gate.py --against PATH       # this tree against PATH

The sweeps are listed in ``tools/records_sweeps.json`` (``--sweeps FILE``
picks another list).  Each tree runs in an interpreter of its own, with
``PYTHONPATH`` set to its ``src`` directory and bytecode writing off.

Against another tree the gate prints which sweeps are byte-identical, every
change of verdict (passed, skipped), reason, case list or exit code, and
each moved residual with its ratio, this tree's over the other's, both
sides floored at the double-precision epsilon so that a move between 0 and
round-off does not count.  For each sweep it also names the ``details`` keys
that its moved records of one case type (the case id without its sample)
added or removed.  It ends with the worst ratio, the count of moves
above 10x and the verdict of the gate.  The exit code is 1 when a verdict,
reason, case list or exit code changed or a residual moved by more than
10x, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TREE = HERE.parent
EPS = 2.0 ** -52
LIMIT = 10.0
HASH_TEXT = ("sha256 of json.dumps of the list of [sweep name, exit code, records] "
             "in sweep-list order, with json's default separators")


def run_sweeps(sweeps):
    """[name, exit code, records] of each sweep, run here with the rmx on
    sys.path.  The exit code is that of ``rmx verify``: 2 for a refused
    sweep, 1 when a case failed, else 0."""
    from rmx import RmxError, cli

    out = []
    for sweep in sweeps:
        args = dict(sweep["args"])
        for key in ("tau", "hbar"):
            if isinstance(args.get(key), str):
                args[key] = complex(args[key])
        saved = {name: getattr(cli, name) for name in sweep.get("patch", {})}
        for name, value in sweep.get("patch", {}).items():
            setattr(cli, name, value)
        try:
            report = cli.run_suites(**args)
            records, code = report["records"], 1 if report["summary"]["failed"] else 0
        except RmxError as exc:
            records, code = [f"{type(exc).__name__}: {exc}"], 2
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)
        out.append([sweep["name"], code, records])
    return out


def tree_results(tree, sweeps_file):
    """The sweeps of sweeps_file run on the tree at ``tree``, in a fresh
    interpreter that imports rmx from the tree's src."""
    src = Path(tree).resolve() / "src"
    if not (src / "rmx" / "__init__.py").is_file():
        raise SystemExit(f"error: no rmx sources under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run", str(sweeps_file),
         "--expect", str(src / "rmx")],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: the sweeps failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def digest(results):
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def floored_ratio(new, old):
    return max(new, EPS) / max(old, EPS)


def compare(ours, theirs):
    """(lines to print, whether the gate trips) for two trees' results."""
    lines, trips, same, moves = [], False, [], []
    for (name, code, records), (name_b, code_b, records_b) in zip(ours, theirs):
        if name != name_b:
            raise SystemExit(f"error: sweep lists differ: {name} against {name_b}")
        if json.dumps(records) == json.dumps(records_b) and code == code_b:
            same.append(name)
            continue
        if code != code_b:
            lines.append(f"  {name}: exit code {code_b} -> {code}")
            trips = True
        ids = [r["case_id"] for r in records if isinstance(r, dict)]
        ids_b = [r["case_id"] for r in records_b if isinstance(r, dict)]
        if ids != ids_b:
            lines.append(f"  {name}: case list changed ({len(ids_b)} -> {len(ids)} records)")
            trips = True
            continue
        moved, keys = 0, {}
        for a, b in zip(records, records_b):
            if a == b:
                continue
            moved += 1
            case = f"{name} {a['case_id']}"
            new, old = (set(r.get("details") or ()) for r in (a, b))
            added, removed = keys.setdefault(a["case_id"].rsplit("/", 1)[0], (set(), set()))
            added |= new - old
            removed |= old - new
            for key in ("passed", "skipped", "reason"):
                if a[key] != b[key]:
                    lines.append(f"  {case}: {key} {b[key]!r} -> {a[key]!r}")
                    trips = True
            if a["residual"] != b["residual"] and None not in (a["residual"], b["residual"]):
                ratio = floored_ratio(a["residual"], b["residual"])
                moves.append((max(ratio, 1 / ratio), case))
                lines.append(f"  {case}: residual {b['residual']:.3e} -> "
                             f"{a['residual']:.3e} ({ratio:.3g}x floored)")
        for kind, (added, removed) in keys.items():
            if added or removed:
                lines.append(f"  {name} {kind}: details keys added: "
                             f"{', '.join(sorted(added)) or 'none'}; removed: "
                             f"{', '.join(sorted(removed)) or 'none'}")
        lines.append(f"  {name}: {moved} of {len(records)} records moved")
    above = [case for ratio, case in moves if ratio > LIMIT]
    trips = trips or bool(above)
    worst = max(moves, default=(1.0, "none"))
    head = [f"byte-identical: {len(same)} of {len(ours)} sweeps"
            + (f" ({', '.join(same)})" if same else "")]
    tail = [f"moved residuals: {len(moves)}; worst ratio {worst[0]:.3g}x ({worst[1]}); "
            f"above {LIMIT:g}x: {len(above)}",
            f"gate: {'TRIPPED' if trips else 'passed'}"]
    return head + lines + tail, trips


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="PATH",
                        help="compare this tree's records with those of the tree at PATH")
    parser.add_argument("--sweeps", default=str(HERE / "records_sweeps.json"),
                        metavar="FILE", help="the sweep list (default: %(default)s)")
    parser.add_argument("--run", metavar="FILE", help=argparse.SUPPRESS)
    parser.add_argument("--expect", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.run:  # the child: run the sweeps here and print their results
        import rmx
        if Path(rmx.__file__).resolve().parent != Path(args.expect):
            raise SystemExit(f"error: imported rmx from {rmx.__file__}, not {args.expect}")
        sweeps = json.loads(Path(args.run).read_text())["sweeps"]
        json.dump(run_sweeps(sweeps), sys.stdout)
        return 0

    ours = tree_results(TREE, args.sweeps)
    count = sum(len(records) for _, _, records in ours)
    print(f"{len(ours)} sweeps, {count} records; hash: {HASH_TEXT}")
    print(f"  {TREE}: {digest(ours)}")
    if args.against is None:
        for name, code, records in ours:
            print(f"  {name}: {len(records)} records, exit code {code}")
        return 0
    theirs = tree_results(args.against, args.sweeps)
    print(f"  {Path(args.against).resolve()}: {digest(theirs)}")
    lines, trips = compare(ours, theirs)
    print("\n".join(lines))
    return 1 if trips else 0


if __name__ == "__main__":
    sys.exit(main())
