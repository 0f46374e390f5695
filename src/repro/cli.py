"""Command-line interface.

::

    python -m repro study    --platform summit --scale 1e-3 [--seed N]
    python -m repro shapes   --platform cori   --scale 1e-3
    python -m repro generate --platform summit --scale 5e-4 --out year.npz
    python -m repro generate --spec noisy_neighbor --platform cori --out month.npz
    python -m repro generate --archetype sim_checkpoint --out solo.npz
    python -m repro generate --list-specs [--json]
    python -m repro analyze  year.npz --exhibit table3
    python -m repro analyze  --list [--json]
    python -m repro ingest   stream.ndjson --store year.npz [--follow] \\
                             [--checkpoint year.ckpt]
    python -m repro whatif   year.npz --scenario stripe --params '{"factor": 2}'
    python -m repro serve    year.npz --port 7786 --workers 4
    python -m repro query    table3 --port 7786
    python -m repro catalog  init fleet.json
    python -m repro catalog  add fleet.json jan --store jan.npz --period 2020-01
    python -m repro analyze  --catalog fleet.json --exhibit table3
    python -m repro query    compare_table3 --catalog fleet.json \\
                             --params '{"a": "jan", "b": "feb"}'
    python -m repro ior      --platform summit --layer pfs --api mpiio \\
                             --tasks 512 --direction write
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

import numpy as np

from repro.analysis.report import HEADERS, render_results, render_table
from repro.api import run_query
from repro.core import CharacterizationStudy, StudyConfig
from repro.federation.registry import federated_query_names
from repro.platforms import get_platform
from repro.platforms.interfaces import IOInterface
from repro.serve.registry import default_registry, exhibit_names, serialize_result
from repro.store.io import load_store, save_store
from repro.units import format_size, parse_size
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPDC'22 multi-layer I/O characterization, reproduced",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--platform", choices=("summit", "cori"), default="summit")
        p.add_argument("--scale", type=float, default=1e-3)
        p.add_argument("--seed", type=int, default=20220627)

    def traceable(p):
        p.add_argument(
            "--trace", default=None, metavar="PATH", dest="trace",
            help="write a span trace of this run (Chrome-trace JSON; "
                 "a .ndjson/.jsonl suffix selects NDJSON)",
        )

    p_study = sub.add_parser("study", help="run every analysis, print the report")
    common(p_study)
    traceable(p_study)

    p_shapes = sub.add_parser("shapes", help="run the paper-shape checks")
    common(p_shapes)
    traceable(p_shapes)

    p_gen = sub.add_parser("generate", help="generate a store to disk")
    common(p_gen)
    traceable(p_gen)
    p_gen.add_argument(
        "--out", default=None,
        help="output path: .npz (compressed, portable) or a .store "
             "directory (uncompressed raw layout that later loads "
             "memory-mapped)",
    )
    p_gen.add_argument(
        "--spec", default=None, metavar="NAME_OR_PATH",
        help="generate from a declarative workload spec: a builtin "
             "scenario-pack name (see --list-specs) or a .json/.toml "
             "spec file; --platform/--scale fill what the spec leaves "
             "unset",
    )
    p_gen.add_argument(
        "--archetype", default=None, metavar="NAME",
        help="generate a single builtin archetype of the platform's mix "
             "(e.g. sim_checkpoint) instead of the full mix",
    )
    p_gen.add_argument(
        "--list-specs", action="store_true", dest="list_specs",
        help="list every builtin scenario pack and workload pattern",
    )
    p_gen.add_argument(
        "--json", action="store_true", dest="as_json",
        help="with --list-specs: emit the listing as JSON "
             "(same shape as 'analyze --list --json')",
    )

    p_an = sub.add_parser("analyze", help="run one exhibit over a saved store")
    p_an.add_argument(
        "store", nargs="?", default=None,
        help=".npz file or .store directory from 'generate'",
    )
    p_an.add_argument(
        "--exhibit", default="table3",
        choices=sorted({*exhibit_names(), *federated_query_names()}),
    )
    p_an.add_argument(
        "--list", action="store_true",
        help="list every query name the analyze CLI and 'repro serve' share",
    )
    p_an.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit JSON: the query listing with --list (same shape as "
             "'generate --list-specs --json'), the serialized result "
             "otherwise",
    )
    p_an.add_argument(
        "--catalog", default=None, metavar="PATH",
        help="run the exhibit across a store catalog instead of one store "
             "(see 'repro catalog')",
    )
    p_an.add_argument(
        "--member", default=None,
        help="route to one member label, or a comma-separated subset "
             "(--catalog only)",
    )
    p_an.add_argument(
        "--facility", default=None,
        help="select members by facility label (--catalog only)",
    )
    p_an.add_argument(
        "--period", default=None,
        help="select members overlapping YYYY-MM[:YYYY-MM] (--catalog only)",
    )
    p_an.add_argument(
        "--params", default=None,
        help='extra query parameters as a JSON object, e.g. '
             '\'{"a": "m1", "b": "m2"}\' for compare queries',
    )
    traceable(p_an)

    p_cat = sub.add_parser(
        "catalog", help="manage a multi-store federation catalog"
    )
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)

    c_init = cat_sub.add_parser("init", help="create an empty catalog manifest")
    c_init.add_argument("catalog", help="manifest path (e.g. fleet.json)")

    c_add = cat_sub.add_parser("add", help="add a member store or endpoint")
    c_add.add_argument("catalog", help="manifest path")
    c_add.add_argument("label", help="unique member label (e.g. olcf-2020-01)")
    c_add.add_argument(
        "--store", default=None,
        help=".npz file or .store directory to add as a local member",
    )
    c_add.add_argument(
        "--endpoint", default=None, metavar="HOST:PORT",
        help="running 'repro serve' to add as a remote member",
    )
    c_add.add_argument(
        "--facility", default="", help="facility label (e.g. olcf, nersc)"
    )
    c_add.add_argument(
        "--period", default="",
        help="covered months as YYYY-MM or YYYY-MM:YYYY-MM",
    )

    c_rm = cat_sub.add_parser("remove", help="remove a member")
    c_rm.add_argument("catalog", help="manifest path")
    c_rm.add_argument("label", help="member label to remove")

    c_ls = cat_sub.add_parser("list", help="list members")
    c_ls.add_argument("catalog", help="manifest path")

    c_vf = cat_sub.add_parser(
        "verify", help="check every member and the catalog's invariants"
    )
    c_vf.add_argument("catalog", help="manifest path")

    c_rf = cat_sub.add_parser(
        "refresh", help="re-fingerprint members, bumping changed generations"
    )
    c_rf.add_argument("catalog", help="manifest path")

    p_ing = sub.add_parser(
        "ingest", help="ingest an NDJSON log stream into a store"
    )
    p_ing.add_argument(
        "stream", help="NDJSON stream file (one DarshanLog per line)"
    )
    p_ing.add_argument(
        "--store", required=True,
        help=".npz store to extend (created empty if missing)",
    )
    p_ing.add_argument(
        "--platform", choices=("summit", "cori"), default="summit",
        help="platform for a newly created store (existing stores keep theirs)",
    )
    p_ing.add_argument(
        "--scale", type=float, default=1e-3,
        help="paper-scale factor for a newly created store",
    )
    p_ing.add_argument(
        "--follow", action="store_true",
        help="keep tailing the stream for appended records",
    )
    p_ing.add_argument(
        "--batch-logs", type=int, default=256,
        help="logs applied (and checkpointed) per batch",
    )
    p_ing.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between polls when the stream is idle (--follow)",
    )
    p_ing.add_argument(
        "--max-batches", type=int, default=None,
        help="stop after this many applied batches",
    )
    p_ing.add_argument(
        "--idle-exit", type=int, default=None, metavar="N",
        help="stop after N consecutive empty polls (--follow; default: never)",
    )
    p_ing.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="resume-offset file, written after every applied batch",
    )
    p_ing.add_argument(
        "--on-error", choices=("raise", "skip"), default="raise",
        help="policy for garbled stream lines (skip counts and continues)",
    )
    traceable(p_ing)

    p_srv = sub.add_parser(
        "serve", help="serve analysis queries over a loaded store (NDJSON/TCP)"
    )
    p_srv.add_argument(
        "store", nargs="?", default=None,
        help=".npz file or .store directory from 'generate' "
             "(omit with --catalog)",
    )
    p_srv.add_argument(
        "--catalog", default=None, metavar="PATH",
        help="serve the federated query surface over a store catalog "
             "instead of one store",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7786)
    p_srv.add_argument(
        "--workers", type=int, default=4, help="analysis worker threads"
    )
    p_srv.add_argument(
        "--queue-depth", type=int, default=32,
        help="admission queue bound; beyond it requests are shed "
             "with ServiceOverloadError",
    )
    p_srv.add_argument(
        "--cache-entries", type=int, default=256,
        help="LRU result-cache capacity (0 disables caching)",
    )
    p_srv.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request deadline in seconds",
    )
    traceable(p_srv)

    p_q = sub.add_parser("query", help="query a running 'repro serve'")
    p_q.add_argument("name", help="query name (see 'repro analyze --list')")
    p_q.add_argument(
        "--catalog", default=None, metavar="PATH",
        help="answer from a store catalog in-process instead of a server",
    )
    p_q.add_argument("--host", default="127.0.0.1")
    p_q.add_argument("--port", type=int, default=7786)
    p_q.add_argument(
        "--params", default=None,
        help='query parameters as a JSON object, e.g. \'{"top": 5}\'',
    )
    p_q.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds",
    )
    p_q.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON result instead of a rendered table",
    )

    p_wi = sub.add_parser(
        "whatif", help="what-if scenario sweep over a saved store"
    )
    p_wi.add_argument(
        "store", nargs="?", default=None,
        help=".npz file or .store directory from 'generate'",
    )
    p_wi.add_argument(
        "--scenario", default="identity",
        help="scenario name (see --list)",
    )
    p_wi.add_argument(
        "--params", default=None,
        help='scenario parameters as a JSON object, e.g. \'{"factor": 2}\'',
    )
    p_wi.add_argument(
        "--sweep", default=None, metavar="JSON",
        help="sweep axes as a JSON object of parameter -> list of values "
             '(e.g. \'{"factor": [0.5, 2, 4]}\'); points are the grid '
             "product, each merged over --params",
    )
    p_wi.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep points "
             "(1 = serial, 0 = all cores; results are identical)",
    )
    p_wi.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit JSON: the scenario listing with --list (same shape "
             "as 'analyze --list --json'), the serialized result "
             "otherwise",
    )
    p_wi.add_argument(
        "--list", action="store_true",
        help="list every scenario with its parameters and defaults",
    )
    traceable(p_wi)

    p_adv = sub.add_parser("advise", help="run the optimization advisors")
    p_adv.add_argument(
        "store", help=".npz file or .store directory from 'generate'"
    )
    p_adv.add_argument(
        "--advisor", choices=("aggregation", "staging"), default="staging"
    )

    p_rep = sub.add_parser("replay", help="facility layer-demand replay")
    p_rep.add_argument("store", help=".npz store from 'generate'")
    p_rep.add_argument("--bin-hours", type=float, default=1.0)

    p_ior = sub.add_parser("ior", help="run an IOR-style probe")
    p_ior.add_argument("--platform", choices=("summit", "cori"), default="summit")
    p_ior.add_argument("--layer", choices=("pfs", "insystem"), default="pfs")
    p_ior.add_argument(
        "--api", choices=("posix", "mpiio", "stdio"), default="posix"
    )
    p_ior.add_argument("--tasks", type=int, default=64)
    p_ior.add_argument("--transfer-size", default="1MiB")
    p_ior.add_argument("--block-size", default="256MiB")
    p_ior.add_argument("--direction", choices=("read", "write"), default="write")
    p_ior.add_argument("--collective", action="store_true")
    p_ior.add_argument("--file-per-proc", action="store_true")
    p_ior.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_study(args) -> int:
    study = CharacterizationStudy(
        StudyConfig(seed=args.seed, scale=args.scale,
                    platforms=(args.platform,))
    )
    print(study.render(args.platform))
    return 0


def _cmd_shapes(args) -> int:
    study = CharacterizationStudy(
        StudyConfig(seed=args.seed, scale=args.scale,
                    platforms=(args.platform,))
    )
    # Through the shared registry: the CLI's shape run is the same query
    # `repro serve` answers as "shapes".
    checks = run_query(study.store(args.platform), "shapes")
    for c in checks:
        print(c)
    failed = sum(not c.passed for c in checks)
    print(f"{len(checks) - failed}/{len(checks)} shapes reproduced")
    return 1 if failed else 0


def _print_listing(listing: str, items: list[dict], as_json: bool) -> None:
    """One listing, the two shared renderings (text and --json)."""
    if as_json:
        from repro.serve.registry import listing_payload

        print(json.dumps(listing_payload(listing, items),
                         indent=2, sort_keys=True))
        return
    width = max(len(item["name"]) for item in items)
    for item in items:
        tag = f" [{item['kind']}]" if "kind" in item else ""
        print(f"{item['name']:<{width}}{tag:10s} {item['title']}")
        for line in item.get("detail", ()):
            print(f"    {line}")


def _cmd_generate(args) -> int:
    if args.list_specs:
        from repro.spec import pack_catalog, pattern_catalog

        items: list[dict] = []
        for name, spec in sorted(pack_catalog().items()):
            items.append({
                "name": name, "kind": "pack", "title": spec.description,
                "phases": [p.pattern for p in spec.phases],
            })
        for name, pattern in sorted(pattern_catalog().items()):
            params = [f.describe() for f in pattern.fields]
            items.append({
                "name": name, "kind": "pattern", "title": pattern.title,
                "params": params,
                "detail": [
                    f"--spec params {p['name']}={p['default']!r}  {p['doc']}"
                    for p in params
                ],
            })
        _print_listing("specs", items, args.as_json)
        return 0
    if args.out is None:
        print("generate: --out is required unless --list-specs is given",
              file=sys.stderr)
        return 2
    if args.spec is not None and args.archetype is not None:
        print("generate: --spec and --archetype are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.spec is not None or args.archetype is not None:
        from repro.errors import SpecError
        from repro.spec import generate_from_spec, load_spec

        source = args.spec
        if args.archetype is not None:
            # A one-phase spec selecting the named builtin archetype —
            # --archetype is sugar over the same compile path.
            source = {
                "name": f"solo-{args.archetype}",
                "phases": [{"name": "solo", "pattern": "archetype",
                            "weight": 1.0,
                            "params": {"name": args.archetype}}],
            }
        try:
            spec = load_spec(source)
            store = generate_from_spec(
                spec, seed=args.seed,
                platform=args.platform, scale=args.scale,
            )
        except SpecError as exc:
            print(f"generate: {exc}", file=sys.stderr)
            return 1
        provenance = f" (spec {spec.name})"
    else:
        gen = WorkloadGenerator(args.platform, GeneratorConfig(scale=args.scale))
        store = gen.generate(args.seed, shadows=True)
        provenance = ""
    save_store(store, args.out)
    print(f"wrote {store!r} to {args.out}{provenance}")
    return 0


def _federated_executor(catalog_path: str, *, workers: int = 4):
    """(executor, federated registry) over one catalog manifest."""
    from repro.federation import FederationExecutor, federated_registry, load_catalog

    executor = FederationExecutor(load_catalog(catalog_path), max_workers=workers)
    return executor, federated_registry(executor)


def _run_federated(command: str, catalog_path: str, name: str, params: dict):
    """One federated query in process: ``(spec, result)``, or an exit code.

    Runs the very QuerySpec a ``repro serve --catalog`` would dispatch
    on. An unknown name (exit 2) and a typed failure (exit 1) are
    reported on stderr, prefixed with ``command``.
    """
    from repro.errors import ReproError
    from repro.serve.registry import validate_params

    try:
        executor, federated = _federated_executor(catalog_path)
        with executor:
            spec = federated.get(name)
            if spec is None:
                print(
                    f"{command}: {name!r} is not a federated query; "
                    f"federated names: {', '.join(sorted(federated))}",
                    file=sys.stderr,
                )
                return 2
            return spec, spec.run(None, validate_params(spec, params))
    except ReproError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 1


def _cmd_analyze(args) -> int:
    registry = default_registry()
    if args.list:
        # The same registry `repro serve` dispatches on: the CLI surface
        # and the service surface cannot drift.
        if args.as_json:
            items = [
                {"name": name, "kind": spec.kind, "title": spec.title,
                 "params": list(spec.param_names)}
                for name, spec in sorted(registry.items())
            ]
            _print_listing("queries", items, True)
            return 0
        width = max(len(n) for n in registry)
        for name in sorted(registry):
            spec = registry[name]
            via = "analyze+serve" if spec.kind == "table" else "serve"
            print(f"{name:<{width}}  [{via:13s}] {spec.title}")
        return 0
    params = json.loads(args.params) if args.params else {}
    if args.catalog is not None:
        # The federated path: the exhibit runs across catalog members,
        # routed by --member/--facility/--period.
        for axis in ("member", "facility", "period"):
            value = getattr(args, axis)
            if value is not None:
                params[axis] = value
        outcome = _run_federated("analyze", args.catalog, args.exhibit, params)
        if isinstance(outcome, int):
            return outcome
        spec, result = outcome
    elif args.store is None:
        print("analyze: a store path is required unless --list or "
              "--catalog is given", file=sys.stderr)
        return 2
    else:
        spec = registry[args.exhibit]
        result = run_query(load_store(args.store), args.exhibit, params or None)
    if args.as_json:
        print(json.dumps(serialize_result(spec, result),
                         indent=2, sort_keys=True))
    else:
        print(render_results(spec.title, spec.headers, result))
    return 0


def _cmd_catalog(args) -> int:
    from repro.errors import CatalogError
    from repro.federation import StoreCatalog, load_catalog

    try:
        if args.catalog_command == "init":
            StoreCatalog.init(args.catalog)
            print(f"initialized empty catalog at {args.catalog}")
            return 0
        catalog = load_catalog(args.catalog)
        if args.catalog_command == "add":
            if bool(args.store) == bool(args.endpoint):
                print("catalog add: exactly one of --store or --endpoint "
                      "is required", file=sys.stderr)
                return 2
            if args.store:
                member = catalog.add_store(
                    args.label, args.store,
                    facility=args.facility, period=args.period,
                )
            else:
                host, _, port = args.endpoint.rpartition(":")
                try:
                    port = int(port)
                except ValueError:
                    print(f"catalog add: malformed --endpoint "
                          f"{args.endpoint!r} (want HOST:PORT)",
                          file=sys.stderr)
                    return 2
                member = catalog.add_endpoint(
                    args.label, host, port,
                    facility=args.facility, period=args.period,
                )
            print(f"added {member.kind} member {member.label!r} "
                  f"({member.rows} rows, {member.jobs} jobs)")
            return 0
        if args.catalog_command == "remove":
            member = catalog.remove(args.label)
            print(f"removed member {member.label!r}")
            return 0
        if args.catalog_command == "list":
            from repro.federation import FederationExecutor

            rows = FederationExecutor(catalog).members_table().to_rows()
            print(render_table(
                HEADERS["catalog"], rows,
                title=f"Catalog - {args.catalog} ({len(catalog)} members)",
            ))
            return 0
        if args.catalog_command == "verify":
            problems = catalog.verify()
            for problem in problems:
                print(f"FAIL {problem}")
            if problems:
                print(f"{len(problems)} problem(s) found")
                return 1
            print(f"catalog ok ({len(catalog)} members)")
            return 0
        if args.catalog_command == "refresh":
            bumped = catalog.refresh()
            if bumped:
                print("bumped generation of: " + ", ".join(bumped))
            else:
                print("all members up to date")
            return 0
    except CatalogError as exc:
        print(f"catalog: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled catalog command {args.catalog_command}")


def _cmd_ingest(args) -> int:
    import os

    from repro.store.recordstore import RecordStore
    from repro.store.schema import empty_files, empty_jobs
    from repro.stream import ingest_stream
    from repro.workloads.domains import domain_catalog

    if os.path.exists(args.store):
        store = load_store(args.store)
    else:
        # An empty store pre-seeded with the platform's domain catalog,
        # so streamed and generated stores share domain codes.
        store = RecordStore(
            args.platform, empty_files(0), empty_jobs(0),
            domains=domain_catalog(args.platform), scale=args.scale,
        )
    mounts = get_platform(store.platform).mount_table()
    try:
        stats = ingest_stream(
            args.stream, store, mounts,
            checkpoint_path=args.checkpoint,
            on_error=args.on_error,
            batch_logs=args.batch_logs,
            follow_stream=args.follow,
            poll_interval=args.poll_interval,
            max_batches=args.max_batches,
            idle_polls=args.idle_exit,
        )
    except KeyboardInterrupt:  # tail mode: persist what was applied
        save_store(store, args.store)
        print(f"interrupted; saved {store!r} to {args.store}", file=sys.stderr)
        return 130
    save_store(store, args.store)
    skipped = f", {stats.skipped} lines skipped" if stats.skipped else ""
    print(
        f"ingested {stats.logs} logs ({stats.rows} rows in "
        f"{stats.batches} batches{skipped}) into {args.store}; "
        f"stream offset {stats.offset}"
    )
    return 0


def _cmd_serve(args) -> int:  # pragma: no cover - blocking accept loop
    from repro.serve.engine import QueryEngine
    from repro.serve.server import run_server

    if args.catalog is not None:
        # Federated serving: the engine's registry is replaced wholesale
        # with federated specs, so this server answers the catalog's
        # query surface (routing params, compare_*, catalog_members)
        # and nothing single-store.
        executor, federated = _federated_executor(
            args.catalog, workers=args.workers
        )
        engine = QueryEngine(
            executor.anchor_store(),
            max_workers=args.workers,
            max_queue=args.queue_depth,
            cache_entries=args.cache_entries,
            default_timeout=args.timeout,
            registry=federated,
        )
        run_server(engine, args.host, args.port)
        return 0
    if args.store is None:
        print("serve: a store path is required unless --catalog is given",
              file=sys.stderr)
        return 2
    store = load_store(args.store)
    engine = QueryEngine(
        store,
        max_workers=args.workers,
        max_queue=args.queue_depth,
        cache_entries=args.cache_entries,
        default_timeout=args.timeout,
    )
    run_server(engine, args.host, args.port)
    return 0


def _render_remote(result: dict) -> str:
    """Human rendering of a wire result (tables as tables, rest JSON)."""
    kind = result.get("kind")
    if kind == "table":
        return render_table(
            result["headers"], result["rows"], title=result.get("title", "")
        )
    if kind == "shapes":
        lines = []
        for c in result["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"[{status}] {c['exhibit']:9s} {c['name']}: "
                f"expected {c['expected']}, measured {c['measured']}"
            )
        lines.append(
            f"{result['passed']}/{result['passed'] + result['failed']} "
            "shapes reproduced"
        )
        return "\n".join(lines)
    return json.dumps(result, indent=2, sort_keys=True)


def _cmd_query(args) -> int:
    from repro.serve.client import ServeClient

    params = json.loads(args.params) if args.params else {}
    if args.catalog is not None:
        # In process: no server required for a one-shot fleet query.
        outcome = _run_federated("query", args.catalog, args.name, params)
        if isinstance(outcome, int):
            return outcome
        result = serialize_result(*outcome)
    else:
        with ServeClient(args.host, args.port) as client:
            result = client.query(args.name, params, timeout=args.timeout)
    if args.as_json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(_render_remote(result))
    if result.get("kind") == "shapes" and result.get("failed"):
        return 1
    return 0


def _cmd_advise(args) -> int:
    # Both advisors resolve through the shared QuerySpec registry — the
    # CLI runs the identical query a `repro serve` client would name
    # "advise_staging" / "advise_aggregation".
    store = load_store(args.store)
    if args.advisor == "staging":
        a = run_query(store, "advise_staging")
        print(
            f"stageable PFS files: {100 * a.stageable_file_fraction:.1f}% "
            f"({format_size(a.stageable_bytes)})"
        )
        print(
            f"in-job I/O: direct {a.direct_seconds:,.0f}s vs staged "
            f"{a.staged_seconds:,.0f}s ({a.in_job_speedup:.1f}x); "
            f"movement {a.movement_seconds:,.0f}s; worthwhile: {a.worthwhile}"
        )
    else:
        for o in run_query(store, "advise_aggregation", {"top": 10}):
            print(
                f"{o.layer:9s} {o.interface:6s} {o.direction:5s}: "
                f"{o.nfiles:8d} files, mean request "
                f"{format_size(o.mean_request)}, speedup {o.speedup:.1f}x, "
                f"saves {o.saved_seconds:,.0f}s"
            )
    return 0


def _cmd_whatif(args) -> int:
    from repro.whatif import get_scenario, scenario_catalog, sweep

    if args.list:
        if args.as_json:
            items = [
                {"name": name, "kind": "scenario", "title": s.title,
                 "description": s.description,
                 "params": [
                     {"name": p.name, "default": p.default, "doc": p.doc}
                     for p in s.params
                 ]}
                for name, s in sorted(scenario_catalog().items())
            ]
            _print_listing("scenarios", items, True)
            return 0
        for name, scenario in sorted(scenario_catalog().items()):
            print(f"{name}: {scenario.title}")
            print(f"    {scenario.description}")
            for spec in scenario.params:
                print(f"    --params {spec.name}={spec.default!r}  {spec.doc}")
        return 0
    if args.store is None:
        print("whatif: a store path is required unless --list is given",
              file=sys.stderr)
        return 2
    scenario = get_scenario(args.scenario)
    base = json.loads(args.params) if args.params else {}
    if args.sweep:
        axes = json.loads(args.sweep)
        if not isinstance(axes, dict) or not axes:
            print("whatif: --sweep must be a non-empty JSON object of "
                  "parameter -> list of values", file=sys.stderr)
            return 2
        names = sorted(axes)
        grids = [axes[n] if isinstance(axes[n], list) else [axes[n]]
                 for n in names]
        points = [dict(base, **dict(zip(names, values)))
                  for values in itertools.product(*grids)]
    else:
        points = [base]
    store = load_store(args.store)
    reports = sweep(store, scenario.name, points, jobs=args.jobs)
    if args.as_json:
        spec = default_registry()[f"whatif_{scenario.name}"]
        print(json.dumps(
            [serialize_result(spec, r) for r in reports],
            indent=2, sort_keys=True,
        ))
        return 0
    title = f"What-if - {scenario.title} ({store.platform})"
    print(render_results(title, HEADERS["whatif"], reports))
    moved = sum(r.moved_files for r in reports)
    if moved:
        print(f"({moved} file placements changed across "
              f"{len(reports)} point(s))")
    return 0


def _cmd_replay(args) -> int:
    from repro.analysis.report import render_table
    from repro.iosim.replay import FacilityReplay

    store = load_store(args.store)
    machine = get_platform(store.platform)
    replay = FacilityReplay(
        store, machine, bin_seconds=args.bin_hours * 3600.0
    )
    print(
        render_table(
            ["system", "layer", "dir", "mean util", "peak util", ">80% of time"],
            replay.summary_rows(),
            title="Facility replay - layer demand vs capacity",
        )
    )
    return 0


def _cmd_ior(args) -> int:
    from repro.iosim.ior import IorConfig, run_ior

    machine = get_platform(args.platform)
    config = IorConfig(
        api=IOInterface.from_name(args.api),
        tasks=args.tasks,
        transfer_size=parse_size(args.transfer_size),
        block_size=parse_size(args.block_size),
        collective=args.collective,
        file_per_proc=args.file_per_proc,
    )
    result = run_ior(
        machine, args.layer, config, args.direction,
        rng=np.random.default_rng(args.seed),
    )
    print(
        f"IOR {args.api.upper()} {args.direction} on "
        f"{machine.layers[args.layer].name}: "
        f"{format_size(result.config.aggregate_bytes)} in "
        f"{result.seconds:.2f}s = {format_size(result.bandwidth)}/s"
    )
    return 0


@contextlib.contextmanager
def _maybe_trace(path: str | None, command: str):
    """Install a Tracer for one CLI run and write it out at exit.

    Yields a span context wrapping the whole handler (``cli.<command>``)
    so every layer's spans — generation shards, ingest, analysis entry
    points, serve requests — nest under one root. The trace is written
    even when the handler raises: a trace of the failing run is exactly
    what you want on the floor.
    """
    if path is None:
        yield
        return
    from repro.obs import Tracer, set_tracer, trace_span, write_trace

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with trace_span(f"cli.{command}", "cli"):
            yield
    finally:
        set_tracer(previous)
        write_trace(path, tracer)
        store = tracer.store
        print(
            f"trace: {len(store)} spans -> {path}"
            + (f" ({store.dropped} dropped)" if store.dropped else ""),
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "study": _cmd_study,
        "shapes": _cmd_shapes,
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "catalog": _cmd_catalog,
        "ingest": _cmd_ingest,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "advise": _cmd_advise,
        "whatif": _cmd_whatif,
        "replay": _cmd_replay,
        "ior": _cmd_ior,
    }
    with _maybe_trace(getattr(args, "trace", None), args.command):
        return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
