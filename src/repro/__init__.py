"""PracMHBench reproduction: model-heterogeneous federated learning under
practical edge-device constraints (DAC 2025).

Top-level convenience re-exports; see subpackages for full APIs:

* :mod:`repro.autograd` / :mod:`repro.nn` — numpy training substrate
* :mod:`repro.models` — sliceable model zoo (ResNet/MobileNet/Transformer/...)
* :mod:`repro.data` — synthetic datasets + federated partitioners
* :mod:`repro.hw` — device profiles, cost models, model pool
* :mod:`repro.fl` — federated simulation engine
* :mod:`repro.algorithms` — the eight MHFL algorithms + FedAvg baseline
* :mod:`repro.constraints` — computation/communication/memory-limited cases
* :mod:`repro.experiments` — per-table/figure reproduction harnesses;
  :func:`~repro.experiments.runner.summarize_results` computes the four
  PracMHBench metrics from each run's :class:`~repro.fl.History`
"""

__version__ = "1.0.0"
