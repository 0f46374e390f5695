"""Generator and pipeline throughput.

Not a paper exhibit — the engineering benchmark: how fast the vectorized
population generator and the ingest paths run. Keeps the hot paths honest
(a per-file Python loop sneaking into the generator would show up here as
an order-of-magnitude regression).
"""

from conftest import BENCH_SEED, write_result

from repro.instrument import LogMaterializer
from repro.platforms import cori
from repro.store.ingest import ingest_logs
from repro.workloads.generator import (
    GeneratorConfig,
    WorkloadGenerator,
    generate_with_shadows,
)


def test_generator_throughput(benchmark, results_dir):
    def run():
        gen = WorkloadGenerator("summit", GeneratorConfig(scale=5e-4))
        return generate_with_shadows(gen, BENCH_SEED)

    store = benchmark(run)
    rows_per_sec = len(store.files) / benchmark.stats["mean"]
    text = (
        f"Generator throughput: {len(store.files):,} file rows in "
        f"{benchmark.stats['mean']:.2f}s = {rows_per_sec:,.0f} rows/s"
    )
    write_result(results_dir, "generator_throughput", text)
    # Vectorization floor: a per-row Python loop runs ~10-50k rows/s;
    # the batch path must stay two orders of magnitude above that.
    assert rows_per_sec > 100_000


def test_object_path_throughput(benchmark, results_dir):
    machine = cori()
    gen = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5))
    store = generate_with_shadows(gen, BENCH_SEED)
    mat = LogMaterializer(machine, store)
    nlogs = 40

    def run():
        logs = mat.materialize_many(nlogs)
        return ingest_logs(
            logs, "cori", machine.mount_table(), domains=store.domains
        )

    ingested = benchmark(run)
    rate = len(ingested.files) / benchmark.stats["mean"]
    text = (
        f"Object path (materialize+ingest): {len(ingested.files):,} records "
        f"through {nlogs} logs in {benchmark.stats['mean']:.2f}s = "
        f"{rate:,.0f} records/s"
    )
    write_result(results_dir, "object_path_throughput", text)
    assert len(ingested.files) > 0
