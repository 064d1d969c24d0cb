#!/usr/bin/env python
"""Docs guard: the README knob table must match ``fields(EngineConfig)``.

The README's "The federation engine" section carries one table of every
execution knob (name · default · flag · env · composes with).  The first
four columns are facts the code declares — in the field metadata of
:class:`repro.federated.engine.config.EngineConfig` — so this guard fails
when a knob is added, renamed, re-defaulted or re-flagged without the table
following (or the other way round).  The last column is prose and is not
checked.  A default cell may continue after the value (``` `None` (auto) ```).

It also walks the config chain ``EngineConfig`` ← ``FederatedConfig`` ←
``AdaFGLConfig`` ← ``ExperimentSettings`` (:func:`check_chain`): a class body
that annotates an inherited field must give it a different default (a
re-default), and an option declared outside the chain — a keyword of
``StoreFederatedTrainer`` — must not carry a name already declared elsewhere.
Every run prints ``declarations / distinct names``: the two are equal while
every option is declared exactly once.

Exit status: 0 when in step, 1 with a findings listing otherwise.  Needs no
install; CI runs it beside ``check_backend_dispatch.py``::

    python tools/check_knob_docs.py
"""

from __future__ import annotations

import inspect
import pathlib
import sys
from dataclasses import fields

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import ExperimentSettings  # noqa: E402
from repro.federated.engine import StoreFederatedTrainer  # noqa: E402
from repro.federated.engine.config import EngineConfig, cli_flag  # noqa: E402

HEADER = "| knob | default | flag | env | composes with |"


def _code(value) -> str:
    return "—" if value is None else f"`{value}`"


def declared_rows():
    """``(name, default, flag, env)`` cells as the table must show them."""
    return [(_code(knob.name), f"`{knob.default!r}`", _code(cli_flag(knob)),
             _code(knob.metadata["env"])) for knob in fields(EngineConfig)]


def documented_rows(readme: str):
    lines = readme.splitlines()
    if HEADER not in lines:
        return None
    rows = []
    for line in lines[lines.index(HEADER) + 2:]:  # skip the |---| rule
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")))
    return rows


def check(readme: str) -> list:
    """Findings (strings) for one README text; empty when in step."""
    documented = documented_rows(readme)
    if documented is None:
        return [f"README.md has no knob table (header: {HEADER})"]
    declared = declared_rows()
    known = {row[0] for row in declared}
    findings = [f"table row {row[0]} is not an EngineConfig field"
                for row in documented if row[0] not in known]
    by_name = {row[0]: row for row in documented}
    for name, default, flag, env in declared:
        row = by_name.get(name)
        if row is None:
            findings.append(f"EngineConfig.{name.strip('`')} has no table row")
        elif len(row) != 5:
            findings.append(f"{name}: expected 5 cells, found {len(row)}")
        else:
            if not row[1].startswith(default):
                findings.append(f"{name}: default is {default} in the code, "
                                f"{row[1]} in the table")
            for label, want, have in (("flag", flag, row[2]),
                                      ("env", env, row[3])):
                if have != want:
                    findings.append(f"{name}: {label} is {want} in the "
                                    f"code, {have} in the table")
    return findings


def check_chain(leaf=ExperimentSettings, outside=(StoreFederatedTrainer,)):
    """``(findings, declarations, re-defaults, distinct names)`` of the
    config chain ending in ``leaf`` plus the keywords ``outside`` add."""
    chain = [cls for cls in reversed(leaf.__mro__)
             if issubclass(cls, EngineConfig)]
    findings, seen, declarations, redefaults = [], {}, 0, 0
    for cls in chain:
        defaults = {knob.name: knob.default for knob in fields(cls)}
        for name in vars(cls).get("__annotations__", {}):
            if name not in seen:
                declarations += 1
            elif defaults[name] == seen[name][1]:
                findings.append(
                    f"{cls.__name__}.{name} re-declares the field of "
                    f"{seen[name][0]} with an unchanged default")
            else:
                redefaults += 1
            seen[name] = (cls.__name__, defaults[name])
    for cls in outside:
        for name in inspect.signature(cls.__init__).parameters:
            if name in ("self", "store", "config"):
                continue
            declarations += 1
            if name in seen:
                findings.append(f"{cls.__name__}({name}=) re-declares an "
                                f"option of {seen[name][0]}")
            seen[name] = (cls.__name__, None)
    return findings, declarations, redefaults, len(seen)


def main() -> int:
    findings = check((ROOT / "README.md").read_text())
    chain_findings, declarations, redefaults, names = check_chain()
    for finding in findings + chain_findings:
        print(finding)
    if not findings:
        print(f"knob table matches EngineConfig ({len(declared_rows())} "
              "knobs)")
    print(f"config chain: {declarations} declarations (+{redefaults} "
          f"re-defaults) / {names} distinct option names")
    return 1 if findings or chain_findings else 0


if __name__ == "__main__":
    sys.exit(main())
