"""Cache-key fixture (filtered): ``jobs`` is left out of ``spec.py``'s key.

Expected findings:

* ``sweep_point.jobs`` -- CKS001 (the key drops it, no annotation);
* ``dvs_run.jobs`` -- nothing: the ``key-irrelevant`` annotation opts it out;
* every other parameter -- nothing: the filtered fold still covers it.
"""


def task(name):
    def wrap(fn):
        return fn

    return wrap


@task("dvs_run")
def dvs_run(
    n_cycles,
    jobs,  # repro: key-irrelevant worker count; results are bit-identical
):
    return {"n_cycles": n_cycles, "jobs": jobs}


@task("sweep_point")
def sweep_point(n_cycles, jobs):
    return {"n_cycles": n_cycles, "jobs": jobs}
