"""RL010 fixture: facade drift (loaded as ``repro.impl``)."""


def run_flow(dfg, table, deadline=100, algorithm=None):
    # defaulted positionals on a root-facade export
    return (dfg, table, deadline, algorithm)
