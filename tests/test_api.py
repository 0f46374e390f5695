"""The public API surface: lazy top-level exports, the repro.api
contract snapshot, and equivalence of run_query with direct analysis
calls. A signature change here is an intentional API break — update the
snapshot in the same commit that documents the break."""

from __future__ import annotations

import inspect
import subprocess
import sys

import pytest

import repro

#: The complete supported surface. ``repro.__all__`` and
#: ``repro.api.__all__`` must both match (plus ``__version__`` on top).
PUBLIC_NAMES = [
    "CharacterizationStudy",
    "RecordStore",
    "ReproError",
    "SpecError",
    "StoreCatalog",
    "StudyConfig",
    "Tracer",
    "WorkloadSpec",
    "compile_spec",
    "generate_store",
    "get_tracer",
    "list_queries",
    "list_specs",
    "load_catalog",
    "load_spec",
    "load_store",
    "run_query",
    "save_store",
    "set_tracer",
    "write_trace",
]

#: Pinned signatures of the callable surface (classes are pinned by
#: name only; their constructors are documented on the class).
SIGNATURES = {
    "generate_store": (
        "(platform: 'str | None' = None, *, "
        "spec: 'Mapping | WorkloadSpec | str | None' = None, "
        "scale: 'float | None' = None, "
        "seed: 'int' = 20220627, "
        "shadows: 'bool' = True) -> 'RecordStore'"
    ),
    "run_query": (
        "(store: 'RecordStore', name: 'str', "
        "params: 'Mapping | None' = None) -> 'object'"
    ),
    "list_queries": "() -> 'list[str]'",
    "list_specs": "() -> 'list[str]'",
    "load_spec": (
        "(source: 'Mapping | WorkloadSpec | str | os.PathLike') "
        "-> 'WorkloadSpec'"
    ),
    "compile_spec": (
        "(source: 'Mapping | WorkloadSpec | str', *, "
        "platform: 'str | None' = None, "
        "scale: 'float | None' = None) -> 'CompiledSpec'"
    ),
    "load_catalog": "(path: 'str') -> 'StoreCatalog'",
    "write_trace": "(path: 'str', tracer: 'Tracer') -> 'None'",
    "set_tracer": "(tracer: 'Tracer | None') -> 'Tracer | None'",
    "get_tracer": "() -> 'Tracer | None'",
}


class TestSurface:
    def test_all_matches_snapshot(self):
        assert repro.__all__ == ["__version__", *PUBLIC_NAMES]

    def test_api_module_matches_top_level(self):
        import repro.api

        assert repro.api.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_signatures_are_pinned(self):
        for name, expected in SIGNATURES.items():
            fn = getattr(repro, name)
            assert str(inspect.signature(fn)) == expected, name

    def test_dir_lists_public_names(self):
        listed = dir(repro)
        for name in PUBLIC_NAMES:
            assert name in listed

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope

    def test_from_import_works(self):
        from repro import (  # noqa: F401
            CharacterizationStudy,
            Tracer,
            load_store,
            run_query,
        )

    def test_import_repro_is_lazy(self):
        """``import repro`` must not drag in numpy or the analysis
        stack; they load on first attribute touch (PEP 562)."""
        code = (
            "import sys; import repro; "
            "lazy = [m for m in ('numpy', 'repro.api', 'repro.analysis') "
            "if m in sys.modules]; "
            "assert not lazy, f'eagerly imported: {lazy}'; "
            "repro.list_queries; "
            "assert 'repro.api' in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60
        )

    def test_deep_imports_still_work(self):
        """The redesign must not break a single pre-existing deep path."""
        from repro.analysis import layer_volumes  # noqa: F401
        from repro.core import CharacterizationStudy  # noqa: F401
        from repro.serve import QueryEngine  # noqa: F401
        from repro.serve.registry import default_registry  # noqa: F401
        from repro.store.io import load_store  # noqa: F401
        from repro.workloads.generator import WorkloadGenerator  # noqa: F401


class TestRunQuery:
    def test_equivalent_to_direct_call(self, summit_store_small):
        from repro.analysis import layer_volumes

        direct = layer_volumes(summit_store_small)
        via_api = repro.run_query(summit_store_small, "table3")
        assert direct.to_rows() == via_api.to_rows()

    def test_list_queries_matches_registry(self):
        from repro.serve.registry import default_registry

        assert repro.list_queries() == sorted(default_registry())

    def test_unknown_query(self, summit_store_small):
        from repro.errors import UnknownQueryError

        with pytest.raises(UnknownQueryError, match="unknown query 'nope'"):
            repro.run_query(summit_store_small, "nope")

    def test_registry_is_built_once_per_process(
        self, summit_store_small, monkeypatch
    ):
        import repro.api
        import repro.serve.registry as registry_module
        from repro.errors import UnknownQueryError

        builds = []
        real_build = registry_module.default_registry

        def counting_build():
            builds.append(1)
            return real_build()

        monkeypatch.setattr(registry_module, "default_registry", counting_build)
        repro.api._query_registry.cache_clear()
        try:
            repro.run_query(summit_store_small, "table3")
            repro.run_query(summit_store_small, "table6")
            assert len(builds) == 1
            with pytest.raises(UnknownQueryError) as err:
                repro.run_query(summit_store_small, "nope")
            assert "table3" in str(err.value) and "fig11" in str(err.value)
            assert len(builds) == 1
        finally:
            repro.api._query_registry.cache_clear()

    def test_bad_params_rejected(self, summit_store_small):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="unknown parameter"):
            repro.run_query(summit_store_small, "table3", {"bogus": 1})

    def test_params_flow_through(self, summit_store_small):
        top2 = repro.run_query(
            summit_store_small, "advise_aggregation", {"top": 2}
        )
        assert len(top2) <= 2

    def test_generate_store_matches_generator(self):
        import numpy as np

        from repro.workloads.generator import (
            GeneratorConfig,
            WorkloadGenerator,
        )

        via_api = repro.generate_store("summit", scale=1e-4, seed=3)
        gen = WorkloadGenerator("summit", GeneratorConfig(scale=1e-4))
        direct = gen.generate(3, shadows=True)
        assert np.array_equal(via_api.files, direct.files)
        assert np.array_equal(via_api.jobs, direct.jobs)


class TestSpecSurface:
    def test_list_specs_matches_pack_names(self):
        from repro.spec import pack_names

        assert repro.list_specs() == pack_names()
        assert "paper_mix" in repro.list_specs()

    def test_generate_store_spec_equals_direct(self):
        import numpy as np

        direct = repro.generate_store("summit", scale=1e-4, seed=3)
        via_spec = repro.generate_store(
            spec="paper_mix", platform="summit", scale=1e-4, seed=3
        )
        assert np.array_equal(direct.files, via_spec.files)
        assert np.array_equal(direct.jobs, via_spec.jobs)

    def test_generate_store_needs_platform_or_spec(self):
        with pytest.raises(repro.SpecError, match="platform"):
            repro.generate_store()

    def test_load_and_compile_spec_roundtrip(self):
        spec = repro.load_spec("noisy_neighbor")
        assert isinstance(spec, repro.WorkloadSpec)
        again = repro.load_spec(spec.to_dict())
        assert again == spec
        compiled = repro.compile_spec(spec, platform="cori", scale=1e-4)
        assert compiled.platform == "cori"
        assert len(compiled.mix) > len(spec.phases)

    def test_spec_error_is_repro_error(self):
        assert issubclass(repro.SpecError, repro.ReproError)
        with pytest.raises(repro.SpecError, match="not a builtin pack name"):
            repro.load_spec("not_a_pack_or_file")
