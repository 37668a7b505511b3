"""Every name a syklab module exports in ``__all__`` exists in it, every
function the benchmark's tracer wraps still exists and takes the arguments
the tracer reads, and syklab runs without scipy."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import syklab

MODULES = ["syklab"] + [
    f"syklab.{info.name}" for info in pkgutil.iter_modules(syklab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    """A renamed or deleted function the tracer wraps fails here, not only
    when the benchmark runs with tracing on."""
    tracer = _load_tracer()
    names = [q for table in (tracer.SPANS, tracer.COUNTED)
             for qualnames in table.values() for q in qualnames]
    assert names
    for qualname in names:
        assert callable(tracer.resolve(qualname)), qualname


def test_trotterized_binds_what_the_tracer_reads():
    """The tracer computes the work of each ``trotterized`` call from its
    bound arguments ``(instance, schedule, t, r)``."""
    from syklab.model import sample_dense
    from syklab.trotter import build_schedule, trotterized

    tracer = _load_tracer()
    inst = sample_dense(6, 2, seed=1)
    sched = build_schedule(2)
    bound = inspect.signature(trotterized).bind(inst, sched, 0.5, 3).arguments
    assert list(bound) == ["instance", "schedule", "t", "r"]
    work = tracer._trotter_work(**bound)
    assert work["trotter.exponentials"] == sched.stages * inst.gamma_count


@pytest.mark.parametrize("kappa,stacks,samples", [(None, 1, 3), (4.0, 2, 6)],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("k", [3, 4])
def test_error_stages_are_called_where_the_tracer_wraps_them(monkeypatch, k, kappa, stacks,
                                                             samples):
    """The tracer rebinds ``linalg.exact_evolution`` and ``linalg.schatten_norm``
    at every syklab module that binds them; one ``averaged_error`` call must
    reach each of them through those bindings, ``exact_evolution`` once per
    stack (one for dense, one per Bernoulli mask for sparse) and
    ``schatten_norm`` once per disorder sample, so that a traced run times
    both stages."""
    from syklab import linalg, trotter

    calls = {}
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "syklab" or n.startswith("syklab.")]
    for func in (linalg.exact_evolution, linalg.schatten_norm):
        calls[func.__name__] = 0

        def counted(*args, _func=func, **kwargs):
            calls[_func.__name__] += 1
            return _func(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    trotter.averaged_error(8, k, 1, 0.5, 4, 2.0, 71, 3, kappa=kappa, num_bernoulli=2)
    assert calls == {"exact_evolution": stacks, "schatten_norm": samples}


def test_import_and_averages_load_neither_scipy_nor_numpy_ma():
    """numpy alone runs syklab: in a fresh interpreter (this suite imports
    scipy), ``import syklab`` and one dense and one sparse ``averaged_error``
    at n = 8 leave ``scipy`` and ``numpy.ma`` out of ``sys.modules``."""
    code = (
        "import sys\n"
        "import syklab\n"
        "from syklab.trotter import averaged_error\n"
        "averaged_error(8, 4, 2, 1.0, 4, 2, 71, 3)\n"
        "averaged_error(8, 4, 2, 1.0, 4, 2, 71, 3, kappa=4.0, num_bernoulli=2)\n"
        "print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(syklab.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
