"""Command-line interface.

Subcommands:
  run             execute a scenario file, print the report summary
  verify-intent   check a revealed transfer intent against a registry dump
  registry-dump   run a scenario and print the final intent registry
  list-scenarios  names of the bundled scenario corpus
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .crypto import Address, RecoverableSignature
from .ledger import Ledger
from .qmig import InflectionUnset, QmigContract, TransferIntentSource, VerifyError
from .scenario import (
    SERVICE_NAMES,
    ParseError,
    Scenario,
    ScenarioRunner,
    UnknownActor,
)

_SCENARIO_DIR = "scenarios"


class BadInput(Exception):
    """A command-line argument or input file is malformed (exit 2, like ParseError)."""


def bundled_scenarios() -> dict[str, object]:
    root = resources.files(__package__) / _SCENARIO_DIR
    return {
        path.name.removesuffix(".yaml"): path
        for path in sorted(root.iterdir(), key=lambda p: p.name)
        if path.name.endswith(".yaml")
    }


def _resolve_scenario(ref: str):
    path = Path(ref)
    if path.exists():
        return path
    bundled = bundled_scenarios().get(ref)
    if bundled is not None:
        return bundled
    raise BadInput(
        f"no scenario file {ref!r}; bundled names: {', '.join(bundled_scenarios())}"
    )


def _runner(args) -> ScenarioRunner:
    return ScenarioRunner(
        Scenario.load(_resolve_scenario(args.scenario)), seed=args.seed,
        disabled=tuple(args.disable or ()),
    )


def _cmd_run(args) -> int:
    report = _runner(args).run()
    if args.out:
        try:
            Path(args.out).write_text("\n".join(report.log_lines) + "\n", encoding="utf-8")
        except OSError as exc:
            raise BadInput(f"cannot write --out: {exc}") from exc
    print(report.format_summary())
    return report.exit_code


def _cmd_registry_dump(args) -> int:
    runner = _runner(args)
    runner.run()
    for line in runner.qmig.dump_registry():
        print(line)
    return 0


def _parse_source(text: str) -> TransferIntentSource:
    parts = text.split(":")
    if len(parts) != 4:
        raise BadInput(
            "--source must be fromChainId:fromAddress:destChainId:destAddress"
        )
    try:
        return TransferIntentSource(
            int(parts[0]), Address.from_hex(parts[1]), int(parts[2]),
            Address.from_hex(parts[3]),
        )
    except ValueError as exc:
        raise BadInput(f"bad --source: {exc}") from exc


def _load_registry(path: str | None) -> dict[bytes, int]:
    registry: dict[bytes, int] = {}
    if path is None:
        return registry
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BadInput(f"cannot read --registry: {exc}") from exc
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = dict(part.split("=", 1) for part in line.split())
            registry[bytes.fromhex(fields["digest"])] = int(fields["height"])
        except (KeyError, ValueError) as exc:
            raise BadInput(f"{path}:{i}: bad registry line: {exc}") from exc
    return registry


def _cmd_verify_intent(args) -> int:
    source = _parse_source(args.source)
    try:
        sig = RecoverableSignature.from_bytes(bytes.fromhex(args.sig.removeprefix("0x")))
    except ValueError as exc:
        raise BadInput(f"bad --sig: {exc}") from exc
    qmig = QmigContract(Ledger(), Address(bytes(20)), admin_pq_public=None)
    qmig.registry = _load_registry(args.registry)
    qmig.inflection = args.inflection
    try:
        qmig.verify_transfer_intent(source, sig)
    except (VerifyError, InflectionUnset) as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1
    print("true")
    return 0


def _cmd_list_scenarios(_args) -> int:
    for name, path in bundled_scenarios().items():
        description = Scenario.load(path).description
        print(f"{name}: {description}" if description else name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failsafe",
        description="FailSafe / qMig deterministic ledger simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and print its report")
    run.add_argument("--scenario", required=True, help="scenario file or bundled name")
    run.add_argument("--seed", type=int, default=None, help="override the file's seed")
    run.add_argument(
        "--disable", action="append", choices=SERVICE_NAMES,
        help="turn a defense service off (repeatable)",
    )
    run.add_argument("--out", help="write the full event log to this file")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser(
        "verify-intent", help="check a revealed intent against a registry dump"
    )
    verify.add_argument(
        "--source", required=True,
        help="intent fields as fromChainId:fromAddress:destChainId:destAddress",
    )
    verify.add_argument("--sig", required=True, help="65-byte intent signature, hex")
    verify.add_argument(
        "--inflection", type=int, required=True, help="quantum inflection height"
    )
    verify.add_argument(
        "--registry",
        help="registry dump file (digest=<hex> height=<n> lines); empty if omitted",
    )
    verify.set_defaults(func=_cmd_verify_intent)

    dump = sub.add_parser(
        "registry-dump", help="run a scenario and print the final intent registry"
    )
    dump.add_argument("--scenario", required=True, help="scenario file or bundled name")
    dump.add_argument("--seed", type=int, default=None)
    dump.add_argument("--disable", action="append", choices=SERVICE_NAMES)
    dump.set_defaults(func=_cmd_registry_dump)

    lst = sub.add_parser("list-scenarios", help="list the bundled scenario corpus")
    lst.set_defaults(func=_cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownActor, BadInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
