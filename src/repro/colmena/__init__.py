"""A Colmena-style steering framework over the FaaS layer.

The paper's molecular-design workload (§3.1) runs on Colmena
[Ward et al., MLHPC'21]: an application is a *Thinker* (decision-making
agents) exchanging tasks and results with a *Task Server* through
topic-labelled queues; the task server executes methods on
Parsl/Globus Compute.  This package reproduces that architecture on the
simulated timeline:

- :class:`~repro.colmena.queues.ColmenaQueues` — topic-routed request /
  result queues;
- :class:`~repro.colmena.server.TaskServer` — pulls requests, runs the
  named method as a FaaS app, pushes timestamped
  :class:`~repro.colmena.models.ColmenaResult` objects back;
- :class:`~repro.colmena.thinker.Thinker` — base class whose
  ``@agent``-decorated generator methods run as concurrent simulation
  processes.

``examples/colmena_moldesign.py`` rebuilds the §3.1 campaign in this
idiom, with the steering overlap Colmena exists to provide.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "models": ["ColmenaResult"],
    "queues": ["ColmenaQueues"],
    "server": ["TaskServer"],
    "thinker": ["Thinker", "agent"],
})
