"""Import every self-registering component module, populating the registries.

Components register themselves at definition time (decorators in their own
modules), so the registries only know about what has been imported.  This
module is the single place that imports them all; the engine and the CLI
import it, which is what guarantees ``list-components`` and name lookups
see the full catalogue.
"""

from repro.api import experiments as _experiments  # noqa: F401
from repro.core import policies as _core_policies  # noqa: F401
from repro.data import profiles as _profiles  # noqa: F401
from repro.hwsim import machine as _machine  # noqa: F401
from repro.lint import contracts as _lint_contracts  # noqa: F401
from repro.lint import determinism as _lint_determinism  # noqa: F401
from repro.lint import pairing as _lint_pairing  # noqa: F401
from repro.nn import mobilenet as _mobilenet  # noqa: F401
from repro.nn import resnet as _resnet  # noqa: F401
from repro.obs import metrics as _obs_metrics  # noqa: F401
from repro.obs import tracing as _obs_tracing  # noqa: F401
from repro.serving import arrivals as _arrivals  # noqa: F401
from repro.serving import autoscale as _autoscale  # noqa: F401
from repro.serving import batcher as _batcher  # noqa: F401
from repro.serving import cache as _cache  # noqa: F401
from repro.serving import control as _control  # noqa: F401
from repro.serving import events as _events  # noqa: F401
from repro.serving import faults as _faults  # noqa: F401
from repro.serving import fleet as _fleet  # noqa: F401
from repro.serving import policies as _serving_policies  # noqa: F401
from repro.serving import popularity as _popularity  # noqa: F401
from repro.serving import traces as _traces  # noqa: F401
from repro.serving import workload as _workload  # noqa: F401
