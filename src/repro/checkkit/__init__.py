"""checkkit — the always-on correctness engine.

A randomized differential + metamorphic testing subsystem for the
assignment/scheduling portfolio:

* :mod:`~repro.checkkit.generators` — replayable ``(spec, seed)``
  instance generators;
* :mod:`~repro.checkkit.oracles` — the differential oracle registry
  (`repro.verify` is a thin facade over its certify chain);
* :mod:`~repro.checkkit.reference` — the python-engine references the
  production tree DP sweeps are checked against;
* :mod:`~repro.checkkit.metamorphic` — transforms with known answer
  relations;
* :mod:`~repro.checkkit.shrink` — greedy delta-debugging minimizer and
  reproducer artifacts;
* :mod:`~repro.checkkit.runner` — the bounded fuzz campaign;
* :mod:`~repro.checkkit.cli` — ``repro-hls fuzz`` /
  ``python -m repro.checkkit``.

See ``docs/testing.md`` for the testing-tier guide.
"""

from .generators import Instance, SPECS, generate, instance_stream, mix_seed
from .metamorphic import (
    RELATION_CHAIN,
    Relation,
    get_relation,
    relation_names,
    run_relations,
)
from .oracles import (
    BRUTE_FORCE_LIMIT,
    CERTIFY_CHAIN,
    FUZZ_CHAIN,
    Certificate,
    Oracle,
    OracleContext,
    get_oracle,
    oracle_names,
    run_oracles,
)
from .runner import FuzzFailure, FuzzReport, run_fuzz
from .shrink import (
    ShrinkOutcome,
    from_json,
    oracle_predicate,
    relation_predicate,
    replay_json,
    shrink,
    to_json,
    to_pytest,
)

__all__ = [
    "Instance",
    "SPECS",
    "generate",
    "instance_stream",
    "mix_seed",
    "Relation",
    "RELATION_CHAIN",
    "relation_names",
    "get_relation",
    "run_relations",
    "Oracle",
    "OracleContext",
    "Certificate",
    "BRUTE_FORCE_LIMIT",
    "CERTIFY_CHAIN",
    "FUZZ_CHAIN",
    "oracle_names",
    "get_oracle",
    "run_oracles",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "ShrinkOutcome",
    "shrink",
    "oracle_predicate",
    "relation_predicate",
    "to_json",
    "from_json",
    "to_pytest",
    "replay_json",
]
