"""Cache-key fixture (filtered): a blanket fold that leaves ``jobs`` out.

The shape the real ``repro.runtime.spec`` uses for parameters that choose
how a job runs but not what it computes.
"""

import hashlib
import json

__version__ = "fixture-1"

KEY_IRRELEVANT_PARAMS = frozenset({"jobs"})


class JobSpec:
    def __init__(self, task, params):
        self.task = task
        self.params = params

    @property
    def key(self):
        identity = {
            "task": self.task,
            "version": __version__,
            "params": {
                name: value
                for name, value in self.params.items()
                if name not in KEY_IRRELEVANT_PARAMS
            },
        }
        blob = json.dumps(identity, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
